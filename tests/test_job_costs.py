"""Work an orbit job no longer repeats, with the same outputs.

The CLI's argument parser is built once, at import of curlforce.cli, and
parses every main call.  The generated grid quadrature works out each
panel's first bisection level in its own loop and calls rec only for a
panel that level does not accept.  Every pasted formula takes its real
powers from one text (systems._power), with real_power's bits.
"""

import argparse
import hashlib
import inspect
import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curlforce
from curlforce import analysis, cli, systems
from curlforce.core import real_power

_README_ORBIT = {"mu": 0.0, "r0": 0.0,
                 "r_grid": {"start": 1.0, "stop": 2.0, "num": 9},
                 "compare_simulation": True}


def _orbit(tmp_path, name):
    """Run the README orbit config in this process; (exit code, output
    bytes by file name)."""
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(_README_ORBIT))
    out = tmp_path / name
    code = cli.main(["orbit", "--config", str(cfg), "--out", str(out)])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestParserOnce:
    def test_main_builds_no_parser(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        first = _orbit(tmp_path, "first")
        assert _orbit(tmp_path, "second") == first
        assert first[0] == 0
        assert built == []

    def test_help_twice(self, capsys):
        outs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                cli.main(["--help"])
            assert info.value.code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].startswith("usage: curlforce ")

    def test_usage_error_leaves_the_next_call_alone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["no-such-command", "--config", "x", "--out", "y"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: curlforce ")
        assert "invalid choice: 'no-such-command'" in err
        code, files = _orbit(tmp_path, "after")
        assert code == 0 and capsys.readouterr() == ("", "")
        # a first call, in a fresh interpreter, writes the same bytes
        src = Path(curlforce.__file__).resolve().parents[1]
        cfg = tmp_path / "after.json"
        out = tmp_path / "fresh"
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys; from curlforce.cli import main; sys.exit(main())",
             "orbit", "--config", str(cfg), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
            text=True)
        assert (result.returncode, result.stderr) == (0, "")
        assert files == {p.name: p.read_bytes()
                         for p in sorted(out.iterdir())}


def _frames_entered(fn, *args):
    """The names of the Python functions fn(*args) calls, fn's own frame
    aside."""
    names = []

    def hook(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return names[1:]


class TestFirstLevelInline:
    # the mu values of the benchmark's branch-quadrature jobs
    @pytest.mark.parametrize("mu", [-0.5, 0.0, 0.5, 1.0, 2.0])
    def test_smooth_grid_calls_no_panel_function(self, mu):
        rg = np.linspace(1.2, 2.3, 280)
        for quadrature in (analysis.orbit_theta_of_r, analysis.time_of_r):
            rep = quadrature(mu, 0.3, rg)
            # every panel is accepted at its first level
            assert rep.evaluations == 1 + 4 * 279
            entered = _frames_entered(quadrature, mu, 0.3, rg)
            assert not {"rec", "panel"} & set(entered), quadrature

    def test_coarse_grid_refines_with_its_recorded_bits(self):
        # orbit {"mu": 2.0, "r0": 0.0, "r_grid": {"start": 1.0, "stop":
        # 3.0, "num": 3}}: both panels refine; counts and bits as recorded
        # before the first level moved into the grid loop
        rg = np.linspace(1.0, 3.0, 3)
        h = hashlib.sha256()
        counts = []
        for quadrature in (analysis.orbit_theta_of_r, analysis.time_of_r):
            assert "rec" in _frames_entered(quadrature, 2.0, 0.0, rg)
            rep = quadrature(2.0, 0.0, rg)
            counts.append(rep.evaluations)
            h.update(rep.values.astype("<f8").tobytes())
            h.update(rep.printed_ratio.astype("<f8").tobytes())
            h.update(np.float64(rep.abs_error_estimate).astype("<f8")
                     .tobytes())
        assert counts == [281, 397]
        assert h.hexdigest() == ("506e8cfe1f7b3d8c99fc9b0e2e9b0c39caeffc42bc9"
                                 "ddbfefff2f197c707129a")

    def test_level_test_written_once(self):
        test = "abs(delta) <= 15.0 * tol_density * (b - a)"
        assert inspect.getsource(analysis).count(test) == 1
        # pasted twice: in rec and in the grid loop
        quad = analysis._simpson(analysis._TAU, ("coef", "q1", "p", "r0p"),
                                 analysis._HANDOFF, True)
        assert quad.source.count(test) == 2
        assert "def panel(" not in quad.source
        assert "def panel(" in analysis._simpson(
            "v = float(f(r))\n", (), analysis._STRIPS).source


# the bases and exponents of the power rule's cases, overflowing ones
# (1e300 ** 3.0, 0.5 ** -1e300, ...) included
_BASES = [-2.0, -0.0, 0.0, 5e-324, 1e-300, 0.5, 1e300, math.inf, math.nan]
_EXPONENTS = [-5.0, -0.5, 2.0, 3.0, 1e300, math.nan, math.inf]


def _bits(values):
    """Bytes of a float or of each float in a list: equal bits, signed
    zeros and nan's sign included."""
    values = values if isinstance(values, list) else [values]
    return b"".join(struct.pack("<d", v) for v in values)


class TestPastedPowerRule:
    """Each formula pasting systems._power gives the bits of the same
    formula written with real_power calls, for every base and exponent of
    _BASES and _EXPONENTS."""

    _CASES = list(itertools.product(_BASES, _EXPONENTS))

    def test_raw_ef(self):
        for x, p in self._CASES:
            # the base in both powers: J ** n and (a*T + b) ** m
            for n, m, J, T, a, b in ((p, 2.0, x, 1.5, 1.0, 0.0),
                                     (2.0, p, 1.5, x, 1.0, 0.0),
                                     (p, p, x, x, 0.5, 1.0)):
                rhs = systems.raw_ef_rhs(n, m, a, b, 1.0)
                want = 1.0 * real_power(J, n) * real_power(a * T + b, m)
                assert _bits(rhs.kernel(J, [T, 0.25])) == \
                    _bits([0.25, want]), (x, p)
                column = analysis._slope(rhs).loop([J], [T], [0.25])
                assert _bits(column) == _bits(want), (x, p)

    def test_drag_ef(self):
        for x, p in self._CASES:
            for lam, sigma in ((p, 2.0), (2.0, p), (p, -p)):
                rhs = systems.drag_ef_rhs(lam, sigma)
                want = (real_power(x, lam) * 0.25
                        + 1.5 * 1.5 * real_power(x, sigma))
                assert _bits(rhs.kernel(1.5, [x, 0.25])) == \
                    _bits([0.25, want]), (x, p)
                column = analysis._slope(rhs).loop([1.5], [x], [0.25])
                assert _bits(column) == _bits(want), (x, p)

    def test_geodesic(self):
        J, Td, Jd = 1.5, 0.25, 0.75
        jd2 = Jd * Jd
        for x, p in self._CASES:
            for lam, sigma in ((p, 2.0), (2.0, p)):
                rhs = systems.geodesic_rhs(lam, sigma)
                want = [Td, Jd, J * J * real_power(x, sigma) * jd2,
                        -real_power(x, lam) * jd2]
                assert _bits(rhs.kernel(0.0, [x, J, Td, Jd])) == \
                    _bits(want), (x, p)

    def test_third_order(self):
        yy, ypp = 1.5, 0.25
        for x, p in self._CASES:
            # p_lam = 2 + lam and p_sigma = sigma + 3 are the pasted
            # exponents
            for lam, sigma in ((p - 2.0, 1.0), (1.0, p - 3.0)):
                got = systems.third_order_rhs(lam, sigma).kernel(
                    0.0, [yy, x, ypp])
                if x == 0.0:
                    assert all(math.isnan(v) for v in got)
                    continue
                num = ((ypp + real_power(x, 2.0 + lam)) * ypp
                       + yy * yy * real_power(x, sigma + 3.0))
                assert _bits(got) == _bits([x, ypp, num / x]), (x, p)

    def test_printed_comparator(self):
        # u = r ** p - r0p is x itself at p = 1 and r0p = 0; coef * w
        # with w = real_power(u, k), on floats and, as the ratio fallback
        # calls it, on numpy scalars
        for x, k in self._CASES:
            want = _bits(0.75 * real_power(x, k))
            printed = systems._bind("r", *analysis._PRINTED, {
                "coef": 0.75, "p": 1.0, "r0p": 0.0, "k": k})
            assert _bits(printed(x)) == want, (x, k)
            with np.errstate(over="ignore", invalid="ignore",
                             divide="ignore"):
                got = printed(np.float64(x))
            assert _bits(float(got)) == want, (x, k)

    def test_no_other_real_power_call_in_a_pasted_formula(self):
        rule = re.compile(r"(\w+) \*\* ([\w.()\- ]+) if \1 > 0\.0 "
                          r"else real_power\(\1, \2\)")
        texts = [analysis._THETA, analysis._TAU, analysis._PRINTED[0]]
        texts += [rhs.formula[1] for rhs in (
            systems.raw_ef_rhs(2.0, -5.0, 0.5, 1.0),
            systems.drag_ef_rhs(1.0, 5.0), systems.geodesic_rhs(1.0, 5.0),
            systems.third_order_rhs(1.0, 5.0))]
        texts += [getattr(field, name) for field in (
            systems.ErmakovField, systems.GorringeLeachField,
            systems.IsotropicField, systems.IsotropicDragField)
            for name in ("_FORCE", "_CURL")]
        for text in texts:
            assert "real_power(" not in rule.sub("", text), text
        assert all(rule.search(t) for t in texts[:7])
