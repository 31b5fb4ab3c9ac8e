"""Rules stated once, and the inputs that used to slip past them.

The known Emden-Fowler integrals are one table that both `map-ef` (drifts
along a run) and `noether` (differences from the constructed integral)
read through one lookup; a step that cannot advance t ends the run as a
step underflow, and an rk4 run certain to exceed max_steps is refused
before it steps; a config number must be finite; and `special` reports a
non-finite residual as a numerical failure.  The package root exports
each module's `__all__`; one check refuses a run without the 4 polar state
columns, and one stencil check guards both finite differences.
"""

import copy
import importlib
import json
import math
import time
import warnings

import numpy as np
import pytest

import curlforce
from curlforce import analysis, cli, core, invariants, systems
from curlforce.analysis import _fd1
from curlforce.cli import main
from curlforce.core import DomainError, Trajectory, _fd2
from curlforce.integrate import (IntegrationError, IntegratorSettings,
                                 integrate)

from test_cli_mutations import _CONFIGS, _leaves


def _run(tmp_path, command, cfg):
    """(exit code, manifest or None) of one in-process run."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out)])
    manifest = out / "run_manifest.json"
    return code, (json.loads(manifest.read_text()) if manifest.exists()
                  else None)


def _one_line(capsys, command: str) -> str:
    err = capsys.readouterr().err
    assert err.startswith(f"curlforce {command}: ") and err.count("\n") == 1
    return err


# (n, m) -> (map-ef drift keys, noether matches_known_form keys)
_KNOWN = {
    (2.0, -5.0): ({"ef_integral_m5"}, {"quartic_form_max_diff"}),
    (2.0, -7.0): ({"ef_integral_m7_c_one_third", "ef_integral_m7_c_one"},
                  {"coefficient_one_third_max_diff",
                   "coefficient_one_max_diff", "note"}),
}


class TestKnownIntegrals:
    def test_one_row_per_known_equation(self):
        assert set(cli._KNOWN_INTEGRALS) == set(_KNOWN)

    @pytest.mark.parametrize("n, m", sorted(_KNOWN))
    def test_noether_reports_the_rows_keys(self, tmp_path, n, m):
        code, man = _run(tmp_path, "noether",
                         {"n": n, "m": m, "generator": "half"})
        assert code == 0
        assert set(man["integral"]["matches_known_form"]) == _KNOWN[n, m][1]

    @pytest.mark.parametrize("n, m", sorted(_KNOWN))
    def test_map_ef_reports_the_rows_drifts(self, tmp_path, n, m):
        # the map sends mu to m = -(mu+4)/(mu+2); mu = -5/3 rounds to
        # m = -7.000000000000001, which must still find the m = -7 row
        mu = -(2.0 * m + 4.0) / (m + 1.0)
        cfg = {"system": {"family": "isotropic", "mu": mu},
               "initial_state": {"r": 1.0, "rdot": 0.1, "thetadot": 0.6},
               "integrator": {"method": "rk4", "h": 1e-3,
                              "t_span": [0.0, 1.0]}}
        code, man = _run(tmp_path, "map-ef", cfg)
        assert code == 0
        assert man["m"] == pytest.approx(m, abs=1e-12)
        assert set(man["invariant_drifts"]) == _KNOWN[n, m][0]

    def test_noether_finds_a_row_to_rounding(self, tmp_path):
        # noether reads the table as map-ef does: m within 1e-9 of a row's
        code, man = _run(tmp_path, "noether",
                         {"n": 2.0, "m": -7.000000000000001,
                          "generator": "half"})
        assert code == 0
        match = man["integral"]["matches_known_form"]
        assert set(match) == _KNOWN[2.0, -7.0][1]
        assert match["coefficient_one_third_max_diff"] < 1e-12

    @pytest.mark.parametrize("scale", [0.0, 2.0])
    def test_noether_integrates_the_scaled_equation(self, tmp_path, scale):
        # L with potential scale s has T'' = s J^n T^m as its Euler-Lagrange
        # equation, along which g2's integral is conserved; the table's
        # integrals are of s = 1, so none is compared
        code, man = _run(tmp_path, "noether",
                         {"n": 2.0, "m": -5.0, "generator": "g2",
                          "potential_scale": scale})
        assert code == 0 and man["noetherian"] is True
        assert man["integral"]["drift"] < 1e-10
        assert "matches_known_form" not in man["integral"]

    def test_other_equations_report_none(self, tmp_path):
        code, man = _run(tmp_path, "noether",
                         {"n": 2.0, "m": -3.0, "generator": "half"})
        assert code == 0 and "matches_known_form" not in man["integral"]
        cfg = {"system": {"family": "isotropic", "mu": -1.0},
               "initial_state": {"r": 1.0, "rdot": 0.1, "thetadot": 0.6},
               "integrator": {"method": "rk4", "h": 1e-3,
                              "t_span": [0.0, 1.0]}}
        code, man = _run(tmp_path, "map-ef", cfg)
        assert code == 0 and man["invariant_drifts"] == {}


_README_SYSTEM = {"family": "isotropic", "mu": -1.5}
_STUCK = {
    "rk4-step-below-an-ulp-of-t": {"method": "rk4", "h": 1e-7,
                                   "t_span": [1e10, 1e10 + 1.0]},
    "rk45-span-of-one-denormal": {"t_span": [0.0, 5e-324]},
    "rk45-span-below-an-ulp-of-t": {"t_span": [1e10, 1e10 + 2e-6]},
}


class TestStepUnderflow:
    @pytest.mark.parametrize("integrator", list(_STUCK.values()), ids=_STUCK)
    def test_simulate_stops_at_once(self, tmp_path, capsys, integrator):
        cfg = {"system": _README_SYSTEM,
               "initial_state": {"r": 1.0, "rdot": 0.1, "thetadot": 0.6},
               "integrator": integrator}
        start = time.perf_counter()
        code, man = _run(tmp_path, "simulate", cfg)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = _one_line(capsys, "simulate")
        assert "run stopped early (step-underflow) at t=" in err
        assert man["run"]["termination"] == "step-underflow"
        assert man["run"]["samples"] == 1

    def test_rk4_ends_in_step_underflow(self):
        settings = IntegratorSettings(method="rk4", h=1e-7,
                                      t_span=(1e10, 1e10 + 1.0))
        traj = integrate(systems.polar_rhs(systems.IsotropicField(-1.5)),
                         [1.0, 0.0, 0.1, 0.6], settings)
        assert traj.termination == "step-underflow"
        assert traj.t.tolist() == [1e10]
        assert traj.meta["accepted"] == 0


# the rk45-named spans above take simulate's default method, dop853; these
# name rk45, so its loop meets them too
_STUCK_RK45 = {f"{name}-named": {**integrator, "method": "rk45"}
               for name, integrator in _STUCK.items()
               if name.startswith("rk45-")}


@pytest.mark.parametrize("integrator", list(_STUCK_RK45.values()),
                         ids=_STUCK_RK45)
def test_rk45_simulate_stops_at_once(tmp_path, capsys, integrator):
    TestStepUnderflow().test_simulate_stops_at_once(tmp_path, capsys,
                                                    integrator)


# the README map-ef run with 8e6 steps of h = 1e-5, more than max_steps
_LONG_RK4 = {"system": _README_SYSTEM,
             "initial_state": {"r": 1.0, "rdot": 0.1, "thetadot": 0.6},
             "integrator": {"method": "rk4", "h": 1e-5, "t_span": [0.0, 80.0],
                            "max_steps": 1_000_000}}


class TestRk4StepCount:
    def test_over_long_run_is_refused_before_it_steps(self, tmp_path, capsys):
        start = time.perf_counter()
        code, man = _run(tmp_path, "map-ef", _LONG_RK4)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = _one_line(capsys, "map-ef")
        assert "rk4 needs more than max_steps=1000000 steps of h=1e-05" in err
        assert "run" not in man and man["error"] in err

    # (t_span, h, max_steps, refused).  10.4 steps of h = 0.1 is the
    # boundary, left to the loop; so is an h below an ulp of t, which the
    # loop ends as a step underflow
    @pytest.mark.parametrize("t_span, h, max_steps, refused", [
        ((0.0, 1.0), 0.1, 10, False), ((0.0, 1.0), 0.1, 9, True),
        ((0.0, 1.04), 0.1, 10, False), ((0.0, 1.05), 0.1, 10, True),
        ((1e3, 1e3 + 2.0), 1e-2, 199, True),
        ((1e3, 1e3 + 2.0), 1e-2, 200, False), ((-5.0, 5.0), 0.3, 33, False),
        ((1e10, 1e10 + 1.0), 1e-7, 10, False),
    ])
    def test_refusal_agrees_with_the_loop(self, t_span, h, max_steps,
                                          refused):
        # a refused run is one the loop ends at max_steps
        settings = IntegratorSettings(method="rk4", h=h, t_span=t_span,
                                      max_steps=max_steps)
        rhs = systems.polar_rhs(systems.IsotropicField(-1.5))
        y0 = [1.0, 0.0, 0.1, 0.6]
        try:
            cli._run(rhs, y0, settings)
            message = ""
        except IntegrationError as exc:
            message = str(exc)
        assert ("needs more than" in message) == refused
        if refused:
            with pytest.raises(IntegrationError, match="max_steps="):
                integrate(rhs, y0, settings)

    def test_events_leave_the_count_to_the_loop(self):
        # an event may end the run before its last step
        settings = IntegratorSettings(
            method="rk4", h=1e-3, t_span=(0.0, 100.0), max_steps=5_000,
            events=(systems.r_floor_event(1.05, "r-target"),))
        rhs = systems.polar_rhs(systems.IsotropicField(0.0))
        traj = cli._run(rhs, [1.0, 0.0, 0.1, 0.6], settings, ("event",))
        assert traj.termination == "event"


class TestInfiniteNumbers:
    @pytest.mark.parametrize("command, cfg, where", [
        ("orbit", {"mu": 0.0, "r_grid": {"start": math.inf, "stop": 2.0,
                                         "num": 9}}, "r_grid.start"),
        ("orbit", {"mu": 0.0, "r_grid": [1.0, -math.inf]}, "r_grid[1]"),
        ("special", {"lambda": -1.0, "Y0": math.inf}, "Y0"),
        ("orbit", {"mu": -2.5, "r0": math.inf, "r_grid": [1.0, 2.0]}, "r0"),
    ])
    def test_refused_with_one_line(self, tmp_path, capsys, command, cfg,
                                   where):
        code, man = _run(tmp_path, command, cfg)
        assert code == 1 and man is None
        err = _one_line(capsys, command)
        assert f" config error: config.{where} must be finite, got " in err
        assert err.endswith("inf\n")

    def test_r0_spells_infinity_inf(self, tmp_path):
        code, man = _run(tmp_path, "orbit", {"mu": -2.5, "r0": "inf",
                                             "r_grid": [1.0, 2.0]})
        assert code == 0 and man["config"]["r0"] == "inf"

    def test_nan_and_non_numbers_keep_their_message(self, tmp_path, capsys):
        for value in (math.nan, "x"):
            code, _ = _run(tmp_path, "special", {"lambda": value})
            assert code == 1
            assert _one_line(capsys, "special").endswith(
                f"config.lambda must be a number, got {value!r}\n")


_LEAVES = [(command, path) for command, cfg in _CONFIGS.items()
           for path in _leaves(cfg)]


@pytest.mark.parametrize(
    "command, path", _LEAVES,
    ids=[f"{c}-{'.'.join(map(str, p))}" for c, p in _LEAVES])
def test_infinite_leaf_is_refused(tmp_path, capsys, command, path):
    # every leaf of a README config is a number, a name or a flag, and none
    # of them takes an infinite number (r0 spells infinity "inf")
    for i, value in enumerate((math.inf, -math.inf)):
        cfg = copy.deepcopy(_CONFIGS[command])
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg_path = tmp_path / f"config{i}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / f"out{i}"
        code = main([command, "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err
        where = f"{path} = {value!r}"
        assert code == 1, where
        assert err.startswith("curlforce ") and err.count("\n") == 1, where
        # a sweep writes its own manifest around a run that exits 1
        assert (out / "run_manifest.json").exists() == (
            command == "sweep" and "config" in path), where


class TestSpecialResidual:
    def test_non_finite_residual_exits_2(self, tmp_path, capsys):
        code, man = _run(tmp_path, "special", {"lambda": -1.0, "Y0": 1e308})
        assert code == 2
        assert _one_line(capsys, "special").endswith(
            "numerical failure: the exponential solution's residual is not "
            "finite\n")
        assert man["error"] and man["lambda"] == -1.0
        assert "exponential_solution" not in man

    def test_overflow_warns_nothing(self):
        y = np.full(3, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resid = systems.third_order_residual(y, -y, y, -y, -1.0, -3.0)
        assert not np.isfinite(resid).any()


class TestPublicNames:
    @pytest.mark.parametrize("module", ["core", "integrate", "systems",
                                        "invariants", "analysis"])
    def test_root_exports_each_modules_names(self, module):
        # curlforce.integrate is the function, so the module is looked up
        module = importlib.import_module(f"curlforce.{module}")
        for name in module.__all__:
            assert getattr(curlforce, name) is getattr(module, name)
            assert name in curlforce.__all__


def _two_component_run() -> Trajectory:
    t = np.linspace(0.0, 1.0, 5)
    y = np.column_stack([1.0 + t, 0.5 + t])
    return Trajectory(t=t, y=y, dy=np.ones_like(y))


class TestPolarRunCheck:
    @pytest.mark.parametrize("fn", [
        lambda traj: analysis.torque_map(traj, -1.5),
        lambda traj: analysis.drag_map_residual(traj, -4.0, -2.0),
        core.polar_states,
        invariants.angular_momentum,
    ], ids=["torque_map", "drag_map_residual", "polar_states",
            "angular_momentum"])
    def test_two_components_are_refused(self, fn):
        with pytest.raises(DomainError,
                           match="polar trajectories carry 4 state "
                                 "components"):
            fn(_two_component_run())


class TestStencil:
    @pytest.mark.parametrize("fd", [_fd1, _fd2], ids=["fd1", "fd2"])
    def test_needs_three_samples(self, fd):
        with pytest.raises(ValueError,
                           match="residual needs at least 3 samples"):
            fd(np.array([0.0, 1.0]), np.zeros(2))

    @pytest.mark.parametrize("fd", [_fd1, _fd2], ids=["fd1", "fd2"])
    def test_needs_monotone_abscissae(self, fd):
        with pytest.raises(DomainError, match="strictly monotone"):
            fd(np.array([0.0, 1.0, 0.5]), np.zeros(3))

    def test_decreasing_abscissae_are_accepted(self):
        x = np.array([2.0, 1.5, 0.7, 0.2])
        assert np.allclose(_fd1(x, 3.0 * x * x), 6.0 * x[1:-1])
