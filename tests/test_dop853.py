"""The dop853 row of integrate's method table and its own dense output.

DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10) is stepped by the
same generated loop as rk45 and rk4.  Its runs keep the rows of the pair's
seventh-order continuous extension, and resample, crossing_times and the
event bisection evaluate that extension instead of cubic Hermite.
`simulate` steps with it when its integrator block names no method.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import curlforce
from curlforce import systems
from curlforce.cli import main
from curlforce.core import (
    Trajectory,
    _continuous,
    bisect_root,
    crossing_times,
    resample,
)
from curlforce.integrate import (
    _METHODS,
    Event,
    IntegratorSettings,
    _dense_columns,
    _dense_rows,
    _loop,
    integrate,
)
from curlforce.systems import AngleFunction

from test_integrate import _circle_rhs, _trajectory_digest

_DOP853 = _METHODS["dop853"]


def _rows(m):
    """(c, row) of every stage of a method: the steps', the solution's
    (FSAL for an adaptive pair) and the dense output's."""
    return [*zip(m.c, m.a), (m.c[len(m.a)] if m.norm else 1.0, m.b),
            *m.extra]


def _trees(n, memo={}):
    """The rooted trees with n nodes, each a sorted tuple of its
    (order, subtree) children."""
    if n not in memo:
        def forests(k, largest):
            # multisets of trees with k nodes in all, none above largest
            if k == 0:
                yield ()
                return
            for size in range(1, k + 1):
                for tree in _trees(size):
                    if largest is None or (size, tree) <= largest:
                        for rest in forests(k - size, (size, tree)):
                            yield ((size, tree),) + rest
        memo[n] = sorted({tuple(sorted(f)) for f in forests(n - 1, None)})
    return memo[n]


class TestTableau:
    @pytest.mark.parametrize("name", sorted(_METHODS))
    def test_stage_times_are_row_sums(self, name):
        # the transcribed decimals round to doubles whose exact sum misses
        # c by up to 1.8e-15 on DOP853's tenth row, whose |a| sum to 73
        for c, row in _rows(_METHODS[name]):
            assert abs(math.fsum(row) - c) <= 1e-15 * max(
                1.0, math.fsum(abs(a) for a in row)), (c, row)

    def test_order_conditions_through_order_eight(self):
        # sum_i b_i Phi_i(t) = 1/gamma(t) for each of the 200 rooted trees
        # with at most 8 nodes
        s = len(_DOP853.a)
        a = np.zeros((s, s))
        for i, row in enumerate(_DOP853.a):
            a[i, :len(row)] = row
        b = np.array(_DOP853.b)

        def phi(tree):
            v = np.ones(s)
            for _, child in tree:
                v = v * (a @ phi(child))
            return v

        def gamma(tree, n):
            return n * math.prod(gamma(child, k) for k, child in tree)

        assert [len(_trees(n)) for n in range(1, 9)] == [1, 1, 2, 4, 9, 20,
                                                         48, 115]
        for n in range(1, 9):
            for tree in _trees(n):
                terms = b * phi(tree)
                assert abs(terms.sum() - 1.0 / gamma(tree, n)) <= \
                    1e-13 * np.abs(terms).sum(), (n, tree)

    def test_convergence_order_eight(self):
        # the circle over one period in n equal steps, each one call of the
        # generated loop (max_steps 1, tolerances that accept any step)
        loop = _loop("dop853", 2)(lambda t, y: [y[1], -y[0]])

        def error(n):
            t, y, f = 0.0, [1.0, 0.0], [0.0, -1.0]
            for i in range(n):
                ts, ys, fs = [t], list(y), list(f)
                t1 = (i + 1) * 2.0 * math.pi / n
                out = loop(None, [], ts, ys, fs, t, y, f, t1, t1 - t, 1e3,
                           1e3, 1, 0.0, [])
                assert out[0] == "completed" and out[2] == 1
                t, y, f = ts[-1], ys[-2:], fs[-2:]
            return math.hypot(y[0] - 1.0, y[1])

        errs = [error(n) for n in (6, 12, 24)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 7.7 < math.log2(coarse / fine) < 8.3


class TestGolden:
    """Pin a dop853 run bit for bit: stages, error norm, step control, the
    state-dependent event's bisection on the pair's interpolant, the
    stopped step's cut rows and every dense row."""

    def test_digest(self):
        ev = Event("x-at-minus-half", lambda t, y: y[0] + 0.5)
        traj = integrate(_circle_rhs, np.array([1.0, 0.0]), IntegratorSettings(
            method="dop853", t_span=(0.0, 20.0), events=(ev,)))
        assert traj.termination == "event"
        digest = hashlib.sha256(_trajectory_digest(traj).encode())
        digest.update(np.ascontiguousarray(traj.dense, "<f8").tobytes())
        assert digest.hexdigest() == (
            "1f5a1e98d30510bbee9e2a90f94f5bb1"
            "293ac01e00b6720681a219f6683fe098")


class TestDenseOutput:
    def test_rows_only_on_dense_runs(self):
        for method, step in (("rk45", {}), ("rk4", {"h": 0.01}),
                             ("dop853", {})):
            traj = integrate(_circle_rhs, [1.0, 0.0], IntegratorSettings(
                method=method, t_span=(0.0, 2.0), **step))
            if method == "dop853":
                assert traj.dense.shape == (traj.t.size - 1, 5, 2)
            else:
                assert traj.dense is None

    def test_cut_step_matches_the_stopped_step(self):
        # the event stops the run inside a step; the run's last step keeps
        # the part of that step's interpolant it covers, so sampling it
        # stays as accurate as sampling any other step
        ev = Event("x-at-minus-half", lambda t, y: y[0] + 0.5)
        traj = integrate(_circle_rhs, [1.0, 0.0], IntegratorSettings(
            method="dop853", t_span=(0.0, 20.0), events=(ev,)))
        assert abs(traj.t[-1] - 2.0 * math.pi / 3.0) < 1e-10
        for lo, hi in ((traj.t[0], traj.t[-2]), (traj.t[-2], traj.t[-1])):
            tq = np.linspace(lo, hi, 257)
            err = np.abs(resample(traj, tq) - np.column_stack(
                [np.cos(tq), -np.sin(tq)]))
            assert err.max() < 1e-10

    def test_crossing_times_on_the_pairs_interpolant(self):
        # theta = t on a circle run: each crossing time is its target
        traj = integrate(lambda t, y: np.array([1.0, -y[0]]), [0.0, 1.0],
                         IntegratorSettings(method="dop853",
                                            t_span=(0.0, 3.0)))
        targets = np.linspace(0.05, 2.95, 30)
        times = crossing_times(traj, 0, targets)
        assert np.max(np.abs(times - targets)) < 1e-12

    def test_crossing_times_are_per_target_bisect_root_bits(self):
        # x' = 1.5 + cos(t) + cos(3 t) / 4 on a dop853 run: each target
        # bisected on its own, with bisect_root on its step's seventh-order
        # interpolant, gives the batched times' bits, and the targets' brackets
        # stop at different iterations (the steps' lengths and |t| differ)
        traj = integrate(lambda t, y: np.array([1.5 + y[1] + 0.25 * y[3],
                                                -y[2], y[1], -3.0 * y[4],
                                                3.0 * y[3]]),
                         [0.0, 1.0, 0.0, 1.0, 0.0],
                         IntegratorSettings(method="dop853",
                                            t_span=(0.0, 40.0)))
        t, x, xd = traj.t, traj.y[:, 0], traj.dy[:, 0]
        targets = np.concatenate([np.linspace(x[0], x[-1], 97), x[[0, 5, -1]]])
        expect, iterations = [], []
        for c in targets:
            k = int(np.searchsorted(x, c, side="right"))
            if x[k - 1] == c:
                expect.append(t[k - 1])
                continue
            step = (t[k - 1], x[k - 1], xd[k - 1], t[k], x[k], xd[k])
            rows = traj.dense[k - 1, :, 0]
            calls = []

            def g(s):
                calls.append(s)
                return _continuous(*step, s, rows) - c

            expect.append(bisect_root(g, t[k - 1], t[k], x[k - 1] - c, 1e-13))
            iterations.append(len(calls))
        got = crossing_times(traj, 0, targets)
        assert got.tobytes() == np.array(expect, dtype=float).tobytes()
        assert len(set(iterations)) > 1
        assert len(iterations) < targets.size

    @pytest.mark.parametrize("variant", sorted(systems._VARIANTS))
    @pytest.mark.parametrize("I", [1.1, 1.2, 2.0, -1.1, -1.2, -2.0])
    def test_figure_curves_beat_rk45_hermite(self, I, variant):
        # the default fig1/fig2 curves on figure's 2001-point grid, against
        # a tight rk45 reference: the pair's own interpolant is at least as
        # accurate as rk45 with cubic Hermite, while Hermite on the pair's
        # longer steps would not be
        rhs = systems.psi_reduced_rhs(I, AngleFunction.zero(),
                                      AngleFunction.cos(), variant=variant)
        grid = np.linspace(0.0, 20.0, 2001)

        def run(**kwargs):
            return integrate(rhs, [0.1, 0.1], IntegratorSettings(
                t_span=(0.0, 20.0), **kwargs))

        ref = resample(run(rel_tol=1e-13, abs_tol=1e-15), grid)[:, 0]
        own = run(method="dop853")
        assert own.termination == "completed"
        err = np.max(np.abs(resample(own, grid)[:, 0] - ref))
        err_rk45 = np.max(np.abs(resample(run(), grid)[:, 0] - ref))
        hermite = Trajectory(t=own.t, y=own.y, dy=own.dy)
        err_hermite = np.max(np.abs(resample(hermite, grid)[:, 0] - ref))
        assert err <= err_rk45 < err_hermite


class TestCommands:
    def test_figure_steps_with_dop853(self, tmp_path):
        cfg = tmp_path / "fig.json"
        cfg.write_text(json.dumps({"which": "fig3"}))
        assert main(["figure", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 0
        man = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        rows = (tmp_path / "out" / "fig3.csv").read_text().splitlines()[1:]
        for curve in man["curves"]:
            meta = curve["integrator"]
            assert meta["method"] == "dop853"
            assert (meta["rel_tol"], meta["abs_tol"]) == (1e-10, 1e-12)
            assert meta["t_span"] == [0.0, 20.0]
            # one table row per node: the start, then one per accepted
            # step, the last of them cut at the stop
            label = curve["label"]
            assert sum(r.startswith(label + ",") for r in rows) == \
                meta["accepted"] + 1
            assert curve["events"][0]["name"] == "h2-singular"

    def test_orbit_comparison_meets_a9(self, tmp_path):
        # the r-target event depends on the state, and crossing_times runs
        # on the pair's interpolant
        cfg = tmp_path / "orbit.json"
        cfg.write_text(json.dumps({
            "mu": 0.0, "r0": 0.0,
            "r_grid": {"start": 1.0, "stop": 2.0, "num": 9},
            "compare_simulation": True, "integrator": {"method": "dop853"}}))
        assert main(["orbit", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 0
        man = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        sim = man["simulated_comparison"]
        assert sim["run"]["integrator"]["method"] == "dop853"
        assert sim["run"]["termination"] == "event"
        assert sim["max_abs_delta_theta"] <= 1e-4
        assert sim["max_abs_delta_t"] <= 1e-4

    def test_no_scipy_import(self):
        src = Path(curlforce.__file__).resolve().parents[1]
        code = ("import sys, curlforce.cli\n"
                "from curlforce.integrate import IntegratorSettings, "
                "integrate\n"
                "traj = integrate(lambda t, y: -y, [1.0], IntegratorSettings("
                "method='dop853'))\n"
                "print(traj.meta['method'], 'scipy' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.split() == ["dop853", "False"]


# the README simulate config
_README_SIMULATE = {
    "system": {"family": "ermakov", "w": 0.0, "V": {"family": "cos"}},
    "initial_state": {"r": 1.0, "rdot": 0.1, "thetadot": 0.5},
    "integrator": {"t_span": [0.0, 100.0], "rel_tol": 1e-10,
                   "abs_tol": 1e-12},
    "invariants": ["lrr", "angular_momentum"],
}


def _simulate(tmp_path, cfg, fmt="csv"):
    """(exit code, output directory) of one simulate run."""
    path = tmp_path / "simulate.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / f"out-{fmt}"
    code = main(["simulate", "--config", str(path), "--out", str(out),
                 "--format", fmt])
    return code, out


def _with_integrator(**keys) -> dict:
    cfg = json.loads(json.dumps(_README_SIMULATE))
    cfg["integrator"].update(keys)
    return cfg


class TestSimulateDefault:
    def test_no_method_steps_dop853(self, tmp_path):
        code, out = _simulate(tmp_path, _README_SIMULATE)
        assert code == 0
        man = json.loads((out / "run_manifest.json").read_text())
        meta = man["run"]["integrator"]
        assert meta["method"] == "dop853"
        assert (meta["rel_tol"], meta["abs_tol"]) == (1e-10, 1e-12)
        # one table row per node, and the eighth-order pair keeps the lrr
        # invariant to well within A2's 1e-8
        rows = (out / "simulate.csv").read_text().splitlines()[1:]
        assert len(rows) == man["run"]["samples"] == meta["accepted"] + 1
        assert man["invariant_drifts"]["lrr"]["drift"] < 1e-10

    # sha256 of the tables the README simulate config wrote while rk45 was
    # simulate's default
    RK45_TABLES = {
        "csv": "b9938ddf90204553606e3ca37e2bca99"
               "61310117dc045827c259b593e71347e1",
        "json": "b0d2a64d3d9f33990d90e9123d876812"
                "ca4d036ab4fe05f26cb7eb5c6ee68133",
    }

    @pytest.mark.parametrize("fmt", sorted(RK45_TABLES))
    def test_rk45_named_keeps_its_table(self, tmp_path, fmt):
        code, out = _simulate(tmp_path, _with_integrator(method="rk45"), fmt)
        assert code == 0
        table = (out / f"simulate.{fmt}").read_bytes()
        assert hashlib.sha256(table).hexdigest() == self.RK45_TABLES[fmt]

    def test_rk4_named_steps_rk4(self, tmp_path):
        cfg = _with_integrator(method="rk4", h=0.01, t_span=[0.0, 1.0])
        del cfg["integrator"]["rel_tol"], cfg["integrator"]["abs_tol"]
        code, out = _simulate(tmp_path, cfg)
        assert code == 0
        man = json.loads((out / "run_manifest.json").read_text())
        assert man["run"]["integrator"]["method"] == "rk4"


class TestFaultsOfEmptyAndHugeRuns:
    def test_run_accepting_no_step(self):
        # a span of one denormal: the first step cannot advance t, so no
        # step is accepted and the run has no dense rows
        traj = integrate(systems.polar_rhs(systems.IsotropicField(-1.5)),
                         [1.0, 0.0, 0.1, 0.6],
                         IntegratorSettings(method="dop853",
                                            t_span=(0.0, 5e-324)))
        assert traj.termination == "step-underflow"
        assert traj.t.tolist() == [0.0]
        assert traj.dense.shape == (0, 5, 4)
        assert traj.meta["accepted"] == 0

    def test_simulate_accepting_no_step(self, tmp_path, capsys):
        code, out = _simulate(tmp_path, {
            "system": {"family": "isotropic", "mu": -1.5},
            "initial_state": {"r": 1.0, "rdot": 0.1, "thetadot": 0.6},
            "integrator": {"method": "dop853", "t_span": [0.0, 5e-324]}})
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("curlforce simulate: numerical failure: "
                              "run stopped early (step-underflow)")
        man = json.loads((out / "run_manifest.json").read_text())
        assert man["run"]["samples"] == 1

    def test_huge_state_prints_one_line(self, tmp_path, capsys):
        # the dense rows of a state near the largest float overflow; the
        # suite's filter turns a numpy warning into an error, and the run
        # must report only its own failure
        cfg = _with_integrator(method="dop853")
        cfg["initial_state"] = {"r": 1e308, "rdot": 0.1, "thetadot": 0.5}
        del cfg["invariants"]
        code, out = _simulate(tmp_path, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("curlforce simulate: numerical failure: ")

    def test_overflowing_rows_are_inf_or_nan(self):
        t = np.array([0.0, 1.0])
        y = np.array([[1e308], [-1e308]])
        k = np.full((1, len(_dense_columns(_DOP853)), 1), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = _dense_rows(_DOP853, t, y, -y, k)
        assert rows.shape == (1, 5, 1)
        assert not np.isfinite(rows).any()
