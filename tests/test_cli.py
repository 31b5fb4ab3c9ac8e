import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import curlforce
from curlforce import invariants
from curlforce.cli import main


def _write_cfg(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _run(tmp_path, command, cfg, *extra, sub="out"):
    cfg_path = _write_cfg(tmp_path, cfg)
    out = tmp_path / sub
    code = main([command, "--config", str(cfg_path), "--out", str(out),
                 *extra])
    return code, out


def _manifest(out):
    return json.loads((out / "run_manifest.json").read_text())


_ERMAKOV_CFG = {
    "system": {"family": "ermakov", "w": 1.0,
               "U": {"family": "zero"}, "V": {"family": "cos"}},
    "initial_state": {"r": 1.0, "rdot": 0.1, "thetadot": 0.5},
    "integrator": {"t_span": [0.0, 10.0]},
    "invariants": ["lrr", "angular_momentum"],
}


class TestSimulate:
    def test_basic_run(self, tmp_path):
        code, out = _run(tmp_path, "simulate", _ERMAKOV_CFG)
        assert code == 0
        man = _manifest(out)
        assert man["command"] == "simulate"
        assert man["run"]["termination"] == "completed"
        assert man["invariant_drifts"]["lrr"]["drift"] < 1e-8
        header = (out / "simulate.csv").read_text().splitlines()[0]
        assert header == "t,r,theta,rdot,thetadot,I_lrr,L"

    def test_json_format(self, tmp_path):
        code, out = _run(tmp_path, "simulate", _ERMAKOV_CFG,
                         "--format", "json")
        assert code == 0
        data = json.loads((out / "simulate.json").read_text())
        assert data["columns"][:2] == ["t", "r"]
        assert len(data["rows"][0]) == len(data["columns"])
        assert _manifest(out)["data"] == "simulate.json"

    def test_radial_collapse_exits_2_with_partial(self, tmp_path):
        cfg = {
            "system": {"family": "ermakov", "w": 1.0},
            "initial_state": {"r": 1.0, "rdot": -0.3},
            "integrator": {"t_span": [0.0, 10.0]},
        }
        code, out = _run(tmp_path, "simulate", cfg)
        assert code == 2
        man = _manifest(out)
        assert man["run"]["termination"] != "completed"
        assert man["exit_code"] == 2
        assert (out / "simulate.csv").exists()

    def test_r_floor_event_stops_run(self, tmp_path):
        cfg = {
            "system": {"family": "ermakov", "w": 1.0},
            "initial_state": {"r": 1.0, "rdot": -0.3},
            "integrator": {"t_span": [0.0, 10.0]},
            "events": [{"type": "r_floor", "threshold": 0.2}],
        }
        code, out = _run(tmp_path, "simulate", cfg)
        assert code == 2
        man = _manifest(out)
        assert man["run"]["termination"] == "event"
        assert man["run"]["events"][0]["name"] == "r-floor"

    def test_repeated_invariant_rejected(self, tmp_path, capsys):
        # the table would carry two columns named L under one drift key
        cfg = {**_ERMAKOV_CFG,
               "invariants": ["angular_momentum", "lrr", "angular_momentum"]}
        code, out = _run(tmp_path, "simulate", cfg)
        assert code == 1
        assert capsys.readouterr().err == (
            "curlforce simulate: config error: duplicate invariant(s): "
            "angular_momentum\n")
        assert not (out / "run_manifest.json").exists()

    def test_lrr_needs_ermakov(self, tmp_path):
        cfg = {
            "system": {"family": "isotropic", "mu": -1.5},
            "initial_state": {"r": 1.0, "thetadot": 0.5},
            "invariants": ["lrr"],
        }
        code, _ = _run(tmp_path, "simulate", cfg)
        assert code == 1

    def test_unknown_key_rejected(self, tmp_path):
        cfg = dict(_ERMAKOV_CFG)
        cfg["speling"] = 1
        code, _ = _run(tmp_path, "simulate", cfg)
        assert code == 1

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(_ERMAKOV_CFG))
        cfg["integrator"]["dt"] = 0.1
        code, _ = _run(tmp_path, "simulate", cfg)
        assert code == 1

    def test_mu_minus_two_config_error(self, tmp_path):
        cfg = {
            "system": {"family": "isotropic", "mu": -2.0},
            "initial_state": {"r": 1.0},
        }
        code, _ = _run(tmp_path, "simulate", cfg)
        assert code == 1


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        _, out1 = _run(tmp_path, "simulate", _ERMAKOV_CFG, sub="a")
        _, out2 = _run(tmp_path, "simulate", _ERMAKOV_CFG, sub="b")
        assert (out1 / "simulate.csv").read_bytes() \
            == (out2 / "simulate.csv").read_bytes()
        assert (out1 / "run_manifest.json").read_bytes() \
            == (out2 / "run_manifest.json").read_bytes()


class TestFigure:
    def test_fig1_completes_full_span(self, tmp_path):
        code, out = _run(tmp_path, "figure", {"which": "fig1"})
        assert code == 0
        man = _manifest(out)
        assert [c["I"] for c in man["curves"]] == [1.1, 1.2, 2.0]
        for curve in man["curves"]:
            assert curve["termination"] == "completed"
            assert curve["theta_final"] == 20.0
        header = (out / "fig1.csv").read_text().splitlines()[0]
        assert header == "curve,theta,psi,dpsi"

    def test_fig3_terminates_at_singular_layer(self, tmp_path):
        code, out = _run(tmp_path, "figure", {"which": "fig3"})
        assert code == 0
        man = _manifest(out)
        assert len(man["curves"]) == 6
        for curve in man["curves"]:
            assert curve["termination"] == "event"
            assert curve["events"][0]["name"] == "h2-singular"
            assert curve["theta_final"] < 20.0

    def test_variant_flag_and_divergence(self, tmp_path):
        code, out = _run(tmp_path, "figure",
                         {"which": "fig1", "variant": "as_printed"})
        assert code == 0
        man = _manifest(out)
        assert man["variant"] == "as_printed"
        assert man["compared_against"] == "derived"
        deltas = [c["max_abs_delta_psi_vs_other_variant"]
                  for c in man["curves"]]
        assert max(deltas) > 1e-3

    def test_literal_caption_signs(self, tmp_path):
        # the caption's literal signs, +1.1 among values below -1
        code, out = _run(tmp_path, "figure",
                         {"which": "fig2", "I_values": [1.1, -1.2, -2.0]})
        assert code == 0
        man = _manifest(out)
        assert [c["I"] for c in man["curves"]] == [1.1, -1.2, -2.0]

    def test_unknown_figure_rejected(self, tmp_path):
        code, _ = _run(tmp_path, "figure", {"which": "fig9"})
        assert code == 1

    @pytest.mark.parametrize("I_values", [[1.1, 1.1000001], [1.1, 1.1]],
                             ids=["rounds-alike", "repeated"])
    def test_colliding_curve_labels_rejected(self, tmp_path, capsys,
                                             I_values):
        # the table tells curves apart by label alone; %g writes both I=1.1
        code, out = _run(tmp_path, "figure",
                         {"which": "fig1", "I_values": I_values,
                          "theta_span": [0.0, 2.0]})
        assert code == 1
        assert capsys.readouterr().err == (
            "curlforce figure: config error: duplicate curve label(s): "
            "I=1.1\n")
        assert not (out / "run_manifest.json").exists()
        assert not (out / "fig1.csv").exists()

    def test_json_rows_match_csv_rows(self, tmp_path):
        # the curve label leads each row; the floats round-trip through %.17g
        cfg = {"which": "fig3", "theta_span": [0.0, 2.0]}
        code, csv_out = _run(tmp_path, "figure", cfg, sub="csv")
        assert code == 0
        code, json_out = _run(tmp_path, "figure", cfg, "--format", "json",
                              sub="json")
        assert code == 0
        header, *lines = (csv_out / "fig3.csv").read_text().splitlines()
        csv_rows = [[label, *map(float, rest)]
                    for label, *rest in (line.split(",") for line in lines)]
        table = json.loads((json_out / "fig3.json").read_text())
        assert table["columns"] == header.split(",")
        assert table["rows"] == csv_rows
        assert len({row[0] for row in csv_rows}) == 6


class TestMapEF:
    def test_m5_family(self, tmp_path):
        cfg = {
            "system": {"family": "isotropic", "mu": -1.5},
            "initial_state": {"r": 1.0, "rdot": 0.1, "thetadot": 0.6},
            "integrator": {"method": "rk4", "h": 1e-3, "t_span": [0.0, 8.0]},
        }
        code, out = _run(tmp_path, "map-ef", cfg)
        assert code == 0
        man = _manifest(out)
        assert man["m"] == pytest.approx(-5.0)
        res = man["ef_residual"]
        assert res["max_abs"] < 1e-4 * res["scale"]
        assert man["invariant_drifts"]["ef_integral_m5"] < 1e-6
        assert (out / "map_ef.csv").read_text().splitlines()[0] \
            == "J,T,Tprime"

    def test_m7_conserved_coefficient(self, tmp_path):
        cfg = {
            "system": {"family": "isotropic", "mu": -5.0 / 3.0},
            "initial_state": {"r": 1.0, "rdot": 0.1, "thetadot": 0.6},
            "integrator": {"method": "rk4", "h": 1e-3, "t_span": [0.0, 8.0]},
        }
        code, out = _run(tmp_path, "map-ef", cfg)
        assert code == 0
        drifts = _manifest(out)["invariant_drifts"]
        assert drifts["ef_integral_m7_c_one_third"] < 1e-6
        assert drifts["ef_integral_m7_c_one"] > 1e-2

    def test_drag_adjudication(self, tmp_path):
        cfg = {
            "system": {"family": "isotropic_drag", "mu": -4.0, "nu": -2.0},
            "initial_state": {"r": 1.0, "rdot": 0.05, "thetadot": 0.6},
            "integrator": {"method": "rk4", "h": 5e-4, "t_span": [0.0, 6.0]},
        }
        code, out = _run(tmp_path, "map-ef", cfg)
        assert code == 0
        man = _manifest(out)
        assert man["r0_effective"] == "inf"
        assert man["scaled"] is False
        block = man["drag_map_residual"]
        assert block["winner"] == "derived"
        assert block["rms_derived"] < 1e-3 * block["scale"]
        assert block["rms_printed"] > 0.1 * block["scale"]

    def test_needs_isotropic_family(self, tmp_path):
        cfg = {
            "system": {"family": "ermakov", "w": 1.0},
            "initial_state": {"r": 1.0},
        }
        code, _ = _run(tmp_path, "map-ef", cfg)
        assert code == 1



class TestMapEFUnscaled:
    """An unscaled series is checked against the equation its raw variables
    satisfy, d2Tt/dJt2 = Jt^2 ((mu+2) Tt + r0^(mu+2))^m, and reports no
    known-integral drift: those integrals are of T'' = J^2 T^m."""

    _BASE = {"initial_state": {"r": 1.0, "rdot": 0.1, "thetadot": 0.6},
             "integrator": {"method": "rk4", "h": 1e-3,
                            "t_span": [0.0, 8.0]}}

    @pytest.mark.parametrize("mu, scaling", [(-2.5, None), (-3.0, None),
                                             (-1.5, False)])
    def test_raw_equation_residual(self, tmp_path, mu, scaling):
        cfg = {**self._BASE, "system": {"family": "isotropic", "mu": mu}}
        if scaling is not None:
            cfg["apply_scaling"] = scaling
        code, out = _run(tmp_path, "map-ef", cfg)
        assert code == 0
        man = _manifest(out)
        assert man["scaled"] is False
        res = man["ef_residual"]
        assert res["max_abs"] <= 1e-4 * res["scale"]
        assert "invariant_drifts" not in man

    def test_scaled_run_keeps_its_drifts(self, tmp_path):
        cfg = {**self._BASE, "system": {"family": "isotropic", "mu": -1.5},
               "apply_scaling": True}
        code, out = _run(tmp_path, "map-ef", cfg)
        assert code == 0
        assert _manifest(out)["invariant_drifts"]["ef_integral_m5"] < 1e-6


class TestNoether:
    def test_g2_is_noetherian(self, tmp_path):
        cfg = {"n": 2.0, "m": -5.0, "generator": "g2"}
        code, out = _run(tmp_path, "noether", cfg)
        assert code == 0
        man = _manifest(out)
        assert man["noetherian"] is True
        assert man["residual"]["max_abs"] < 1e-13
        assert man["integral"]["drift"] < 1e-8
        assert man["integral"]["matches_known_form"]["quartic_form_max_diff"] \
            < 1e-12

    def test_g1_is_not_noetherian(self, tmp_path):
        cfg = {"n": 2.0, "m": -5.0, "generator": "g1"}
        code, out = _run(tmp_path, "noether", cfg)
        assert code == 0
        man = _manifest(out)
        assert man["noetherian"] is False
        assert "note" in man["integral"]
        assert man["integral"]["drift"] > 1e-3

    def test_half_generator_for_m7(self, tmp_path):
        cfg = {"n": 2.0, "m": -7.0, "generator": "half"}
        code, out = _run(tmp_path, "noether", cfg)
        assert code == 0
        man = _manifest(out)
        assert man["noetherian"] is True
        match = man["integral"]["matches_known_form"]
        assert match["coefficient_one_third_max_diff"] < 1e-12
        assert match["coefficient_one_max_diff"] > 1e-2

    def test_explicit_generator(self, tmp_path):
        cfg = {"n": 2.0, "m": -5.0,
               "generator": {"xi": [0.0, 0.0, 1.0], "eta": [0.0, 1.0],
                             "gauge": [1.0, 0.0]}}
        code, out = _run(tmp_path, "noether", cfg)
        assert code == 0
        assert _manifest(out)["noetherian"] is True

    def test_scaling_generator(self, tmp_path):
        cfg = {"n": 2.0, "m": -5.0, "generator": {"scaling": 1.0},
               "potential_scale": 0.0}
        code, out = _run(tmp_path, "noether", cfg)
        assert code == 0

    def test_bad_generator_shape(self, tmp_path):
        cfg = {"n": 2.0, "m": -5.0,
               "generator": {"xi": [1.0], "eta": [0.0, 1.0]}}
        code, _ = _run(tmp_path, "noether", cfg)
        assert code == 1

    def test_m_minus_one_rejected(self, tmp_path):
        cfg = {"n": 2.0, "m": -1.0, "generator": "g2"}
        code, _ = _run(tmp_path, "noether", cfg)
        assert code == 1

    def test_one_noether_decision_per_run(self, tmp_path, monkeypatch):
        # the run evaluates the Noether condition once, on its config grid,
        # and has no NonNoetherianWarning to filter
        grids = []
        residual = invariants.noether_residual

        def spy(L, G, grid):
            grids.append(list(grid))
            return residual(L, G, grids[-1])

        monkeypatch.setattr(invariants, "noether_residual", spy)
        cfg = {"n": 2.0, "m": -5.0, "generator": "g1",
               "grid": {"J": [0.5, 1.5], "T": [0.7, 1.2], "Tprime": [0.1]}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = _run(tmp_path, "noether", cfg)
        assert code == 0
        assert _manifest(out)["noetherian"] is False
        assert grids == [[(J, T, 0.1) for J in (0.5, 1.5) for T in (0.7, 1.2)]]
        # noether_integral keeps its own check and its warning
        with pytest.warns(invariants.NonNoetherianWarning):
            invariants.noether_integral(invariants.PowerLagrangian(2.0, -5.0),
                                        invariants.generator_g1())
        assert len(grids) == 2


class TestOrbit:
    def test_quadrature_with_simulation(self, tmp_path):
        cfg = {"mu": 0.0, "r0": 0.0,
               "r_grid": {"start": 1.0, "stop": 2.0, "num": 9},
               "compare_simulation": True}
        code, out = _run(tmp_path, "orbit", cfg)
        assert code == 0
        man = _manifest(out)
        assert man["Lambda"] == pytest.approx(1.3103706971044482, abs=1e-12)
        comp = man["simulated_comparison"]
        assert comp["max_abs_delta_theta"] < 1e-4
        assert comp["max_abs_delta_t"] < 1e-4
        header = (out / "orbit.csv").read_text().splitlines()[0]
        assert header == "r,theta,tau,theta_sim,t_sim"

    def test_nonreal_coefficient_exits_1(self, tmp_path):
        cfg = {"mu": -1.5, "r_grid": [1.0, 2.0]}
        code, _ = _run(tmp_path, "orbit", cfg)
        assert code == 1

    def test_mu_below_minus_two(self, tmp_path):
        cfg = {"mu": -4.0, "r0": "inf", "r_grid": [1.0, 1.5, 2.0]}
        code, out = _run(tmp_path, "orbit", cfg)
        assert code == 0
        man = _manifest(out)
        ratios = man["printed_form_ratio"]
        assert math.isfinite(ratios["theta"]["max"])

    def test_singular_start_excluded_from_ratio_range(self, tmp_path):
        # r_grid starts at r0, where the chain integrand is singular and
        # printed/chain is nan; min and max cover the other radii
        cfg = {"mu": -0.5, "r0": 1.227768,
               "r_grid": {"start": 1.227768, "stop": 2.127262, "num": 155}}
        code, out = _run(tmp_path, "orbit", cfg)
        assert code == 0
        for block in _manifest(out)["printed_form_ratio"].values():
            assert block["excluded_r"] == [1.227768]
            assert math.isfinite(block["min"])
            assert math.isfinite(block["max"])
            assert block["min"] <= block["max"]

    def test_no_finite_ratio_gives_null_range(self, tmp_path):
        cfg = {"mu": -0.5, "r0": 1.227768, "r_grid": [1.227768]}
        code, out = _run(tmp_path, "orbit", cfg)
        assert code == 0
        for block in _manifest(out)["printed_form_ratio"].values():
            assert block == {"min": None, "max": None,
                             "excluded_r": [1.227768]}

    def test_regular_ratio_range_lists_no_exclusions(self, tmp_path):
        cfg = {"mu": 0.0, "r0": 0.0, "r_grid": [1.0, 1.5, 2.0]}
        code, out = _run(tmp_path, "orbit", cfg)
        assert code == 0
        for block in _manifest(out)["printed_form_ratio"].values():
            assert set(block) == {"min", "max"}

    def test_compare_needs_mu_above_minus_two(self, tmp_path):
        cfg = {"mu": -4.0, "r0": "inf", "r_grid": [1.0, 2.0],
               "compare_simulation": True}
        code, _ = _run(tmp_path, "orbit", cfg)
        assert code == 1

    @pytest.mark.parametrize("r_grid, inside", [
        ([0.5, 0.7, 0.9], "[0.50000000000005, 0.5000000000002]"),
        ([0.999999, 0.9999995], "[0.999999, 0.999999]"),
    ], ids=["from-half", "near-r0"])
    def test_overflowing_chain_power_exits_2(self, tmp_path, capsys, r_grid,
                                             inside):
        # mu = -2.001 raises u to the power -500.5 in the tau chain, which
        # overflows on the whole grid: each panel goes to quad_adaptive,
        # which finds no finite value next to its end
        code, out = _run(tmp_path, "orbit",
                         {"mu": -2.001, "r0": 1.0, "r_grid": r_grid})
        assert code == 2
        assert capsys.readouterr().err == (
            "curlforce orbit: numerical failure: integrand not finite "
            f"inside {inside}\n")
        assert _manifest(out)["exit_code"] == 2

    @pytest.mark.parametrize("cfg", [
        {"mu": -2.5, "r0": "inf", "compare_simulation": True},
        {"mu": 0.0, "integrator": {"rel_tol": 1e-8}},
    ], ids=["compare-mu", "integrator-without-compare"])
    def test_config_rules_before_quadrature(self, tmp_path, capsys,
                                            monkeypatch, cfg):
        # a config the rules refuse pays for no branch quadrature
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature before the config rules")

        monkeypatch.setattr(curlforce.analysis, "orbit_theta_of_r", refuse)
        monkeypatch.setattr(curlforce.analysis, "time_of_r", refuse)
        code, _ = _run(tmp_path, "orbit", {**cfg, "r_grid": [1.0, 2.0]})
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("curlforce orbit: config error:")
        assert "\n" not in err


class TestSpecial:
    def test_exponential_branch(self, tmp_path):
        cfg = {"lambda": -1.0}
        code, out = _run(tmp_path, "special", cfg)
        assert code == 0
        man = _manifest(out)
        assert man["sigma"] == -3.0
        assert man["sigma_matches_scaling_family"] is True
        assert man["exponential_solution"]["max_abs_residual"] == 0.0
        assert man["scaling_map"]["rms"] < 1e-6 * man["scaling_map"]["scale"]

    def test_power_branch(self, tmp_path):
        cfg = {"lambda": 1.0}
        code, out = _run(tmp_path, "special", cfg)
        assert code == 0
        man = _manifest(out)
        block = man["power_solution"]
        assert block["Y0"] == pytest.approx(1.6451200346475137, abs=1e-10)
        assert block["max_abs_residual"] < 1e-10
        assert man["scaling_map"]["rms"] < 1e-6 * man["scaling_map"]["scale"]

    def test_no_root_exits_2(self, tmp_path):
        # lambda = 1e-300 overflows lambda^-2, which saturates to inf
        for i, cfg in enumerate(({"lambda": -0.5}, {"lambda": 1e-300})):
            code, out = _run(tmp_path, "special", cfg, sub=f"out{i}")
            assert code == 2
            man = _manifest(out)
            assert "error" in man["power_solution"]
            assert man["exit_code"] == 2

    def test_lambda_zero_rejected(self, tmp_path):
        code, _ = _run(tmp_path, "special", {"lambda": 0.0})
        assert code == 1

    def test_off_family_sigma_detected(self, tmp_path):
        cfg = {"lambda": 1.0, "sigma": 4.0}
        code, out = _run(tmp_path, "special", cfg)
        assert code == 0
        man = _manifest(out)
        assert man["sigma_matches_scaling_family"] is False
        assert man["scaling_map"]["rms"] > 1e-2 * man["scaling_map"]["scale"]


class TestEdgeRepros:
    def test_radius_edge_comparison_meets_a9(self, tmp_path):
        # the seeded r(0) rounds an ulp above the first grid radius
        cfg = {"mu": 0.0, "r0": 0.0,
               "r_grid": {"start": 1.437734, "stop": 2.056757, "num": 100},
               "compare_simulation": True}
        code, out = _run(tmp_path, "orbit", cfg)
        assert code == 0
        comp = _manifest(out)["simulated_comparison"]
        assert comp["max_abs_delta_theta"] <= 1e-4
        assert comp["max_abs_delta_t"] <= 1e-4

    @pytest.mark.parametrize("eps", [0.25, 0.395])
    def test_window_edge_special_runs(self, tmp_path, eps):
        # the scaled window's edge rounds an ulp outside the run
        code, out = _run(tmp_path, "special", {"lambda": 1.0, "eps": eps})
        assert code == 0
        block = _manifest(out)["scaling_map"]
        assert block["max_abs"] <= 1e-6 * block["scale"]


_SIM_BASE = {"system": {"family": "ermakov", "w": 1.0},
             "initial_state": {"r": 1.0, "thetadot": 0.5},
             "integrator": {"t_span": [0.0, 1.0]}}
_NOETHER_BASE = {"n": 2.0, "m": -5.0, "generator": "g2"}
_MAP_EF_BASE = {"system": {"family": "isotropic", "mu": -1.5},
                "initial_state": {"r": 1.0, "thetadot": 0.6}}


def _with(base, **changes):
    cfg = json.loads(json.dumps(base))
    for path, value in changes.items():
        *parents, key = path.split("__")
        node = cfg
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = value
    return cfg


class TestBadInputExits1:
    @pytest.mark.parametrize("command, cfg", [
        ("figure", {"which": "fig1", "theta_span": ["a", 1]}),
        ("figure", {"which": "fig1", "theta_span": [5, 1]}),
        ("noether", _with(_NOETHER_BASE, run__J_span=["x", 3])),
        ("noether", _with(_NOETHER_BASE, run__initial=[1.0])),
        ("noether", _with(_NOETHER_BASE, grid={"J": [], "T": [1.0],
                                                "Tprime": [0.0]})),
        ("simulate", _with(_SIM_BASE, integrator__method=7)),
        ("simulate", _with(_SIM_BASE, initial_state__r=-1)),
        ("special", {"lambda": 1.0, "run": {"initial": "ab"}}),
        ("simulate", _with(_SIM_BASE, integrator__h0=0.0)),
        ("simulate", _with(_SIM_BASE, integrator__h0=-1e-3)),
        ("orbit", {"mu": 0.0, "r_grid": [2.0, 1.0]}),
        ("orbit", {"mu": 0.0, "r_grid": [1.0, 2.0], "tol": -1.0}),
        ("figure", {"which": "fig1", "label": "run"}),
        ("figure", {"which": "fig1", "theta_span": None}),
        ("orbit", {"mu": 0.0, "r0": None, "r_grid": [1.0, 2.0]}),
        ("map-ef", {**_MAP_EF_BASE, "apply_scaling": None}),
        ("simulate", _with(_SIM_BASE, integrator=None)),
        ("noether", _with(_NOETHER_BASE, grid={"J": [1.0], "T": [0.0],
                                                "Tprime": [0.0]})),
        ("noether", {"n": 0.5, "m": -5.0, "generator": "g2",
                     "grid": {"J": [-1.0], "T": [1.0], "Tprime": [0.0]}}),
        ("noether", {"n": 2, "m": -5, "generator": "g2",
                     "grid": {"J": [1], "T": [1e-200], "Tprime": [0]}}),
        ("special", {"lambda": math.nan}),
        ("orbit", {"mu": 0.0,
                   "r_grid": {"start": 1, "stop": 2, "num": 2 ** 70}}),
        ("special", {"lambda": 10 ** 400}),
        # refused before np.linspace allocates 80 MB
        ("orbit", {"mu": 0.0,
                   "r_grid": {"start": 1, "stop": 2, "num": 10 ** 7}}),
        ("sweep", {"max_workers": 2, "runs": [
            {"name": "exp", "command": "special",
             "config": {"lambda": -1.0}}]}),
        ("orbit", {"mu": 0.0, "r_grid": [1.0, 2.0], "n": 3.0}),
        ("sweep", {"runs": [{"name": "fig", "command": "figure",
                             "config": {"which": "fig1"},
                             "variant": "as_printed"}]}),
        ("sweep", {"runs": [{"name": "exp", "command": "special",
                             "config": {"lambda": -1.0}, "format": "json"}]}),
        ("simulate", _with(_SIM_BASE, integrator__method="RK4")),
        # a setting is refused where nothing would read it
        ("simulate", _with(_SIM_BASE, integrator__h=1e-3)),
        ("map-ef", {**_MAP_EF_BASE,
                    "integrator": {"method": "rk4", "rel_tol": 1e-10}}),
        ("map-ef", {**_MAP_EF_BASE,
                    "integrator": {"method": "rk4", "abs_tol": 1e-12}}),
        ("figure", {"which": "fig2", "literal_caption": True}),
        ("orbit", {"mu": 0.0, "r_grid": [1.0, 2.0],
                   "integrator": {"rel_tol": -1}}),
        ("special", {"lambda": 1.0, "Y0": 2.0}),
        # 101 x 100 x 100 points: refused before the grid is built
        ("noether", _with(_NOETHER_BASE, grid={
            "J": [1.0] * 101, "T": [1.0] * 100, "Tprime": [0.0] * 100})),
        ("simulate", _with(_SIM_BASE, integrator__max_steps=1_000_001)),
    ], ids=["figure-span-text", "figure-span-reversed", "noether-span-text",
            "noether-initial-short", "noether-empty-grid", "simulate-method-7",
            "simulate-negative-r", "special-initial-text", "simulate-h0-zero",
            "simulate-h0-negative", "orbit-grid-decreasing",
            "orbit-tol-negative", "figure-label", "figure-span-null",
            "orbit-r0-null", "map-ef-scaling-null", "simulate-integrator-null",
            "noether-grid-zero-T", "noether-grid-complex-power",
            "noether-grid-overflow", "special-lambda-nan",
            "orbit-grid-num-huge", "special-lambda-int-overflow",
            "orbit-grid-num-1e7", "sweep-max-workers", "orbit-n",
            "sweep-run-variant", "sweep-run-format", "simulate-method-upper",
            "simulate-rk45-h", "map-ef-rk4-rel-tol", "map-ef-rk4-abs-tol",
            "figure-literal-caption", "orbit-integrator-without-compare",
            "special-Y0-lambda-not-minus-1", "noether-grid-too-many-points",
            "simulate-max-steps-over-bound"])
    def test_clean_config_error(self, tmp_path, capsys, command, cfg):
        code, _ = _run(tmp_path, command, cfg)
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"curlforce {command}: config error:")
        assert "\n" not in err


# k ** order overflows a float for k = 1e200
_ANGLE_K_OVERFLOW = {
    "system": {"family": "gorringe_leach",
               "U": {"family": "cos", "k": 1e200}},
    "initial_state": {"r": 1.0, "thetadot": 1.0},
}


_ORBIT_COMPARE = {"mu": 0.0, "r0": 0.0,
                  "r_grid": {"start": 1.0, "stop": 2.0, "num": 9},
                  "compare_simulation": True}


class TestNumericalFailureExits2:
    @pytest.mark.parametrize("command, cfg", [
        ("simulate", {"system": {"family": "isotropic", "mu": 1e6},
                      "initial_state": {"r": 2.0, "thetadot": 1.0}}),
        ("figure", {"which": "fig1", "I_values": [1.0]}),
        ("noether", _with(_NOETHER_BASE, run__initial=[0.0, 0.0])),
        ("simulate", _ANGLE_K_OVERFLOW),
        ("simulate", {"system": {"family": "ermakov", "w": 1e200},
                      "initial_state": {"r": 1.0, "thetadot": 1.0}}),
        ("special", {"lambda": -1e308}),
        ("simulate", {"system": {"family": "ermakov"},
                      "initial_state": {"r": 1e-308}}),
        ("orbit", {"mu": 0.0, "r0": 1e308, "r_grid": [1.0, 2.0]}),
        ("noether", {"n": 2, "m": -5, "generator": "g2",
                     "potential_scale": 1e300,
                     "run": {"initial": [1e-3, 0.0]}}),
        ("simulate", {"system": {"family": "ermakov", "w": 1.0},
                      "initial_state": {"r": 1.0, "rdot": -0.3},
                      "integrator": {"t_span": [0.0, 10.0]}}),
        ("simulate", {"system": {"family": "ermakov"},
                      "initial_state": {"r": 1e100, "thetadot": 0.5},
                      "invariants": ["lrr"]}),
        ("noether", _with(_NOETHER_BASE, run__rel_tol=1e-300,
                          run__abs_tol=1e-300)),
        ("map-ef", _with(_MAP_EF_BASE, integrator__rel_tol=1e-300,
                         integrator__abs_tol=1e-300)),
        ("orbit", _with(_ORBIT_COMPARE, integrator__rel_tol=1e-300,
                        integrator__abs_tol=1e-300)),
        ("orbit", _with(_ORBIT_COMPARE, integrator__t_span=[0.0, 0.1])),
        ("simulate", _with(_SIM_BASE, integrator__max_steps=10)),
    ], ids=["simulate-force-overflow", "figure-singular-start",
            "noether-zero-start", "simulate-angle-k-overflow",
            "simulate-ermakov-w-overflow", "special-lambda-overflow",
            "simulate-r-underflow", "orbit-r0-overflow",
            "noether-integral-overflow", "simulate-early-stop",
            "simulate-invariant-overflow", "noether-step-underflow",
            "map-ef-step-underflow", "orbit-compare-step-underflow",
            "orbit-compare-short-span", "simulate-step-cap"])
    def test_one_line_and_manifest(self, tmp_path, capsys, command, cfg):
        code, out = _run(tmp_path, command, cfg)
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"curlforce {command}: numerical failure:")
        assert "\n" not in err
        man = _manifest(out)
        assert man["exit_code"] == 2
        assert man["command"] == command
        assert man["config"] == cfg
        assert man["error"] in err

    def test_early_stop_named_over_invariant(self, tmp_path, capsys):
        # the README simulate config at r = 1e308: the run stops by step
        # underflow, and its lrr invariant is not finite
        cfg = {"system": {"family": "ermakov", "w": 0.0,
                          "V": {"family": "cos"}},
               "initial_state": {"r": 1e308, "rdot": 0.1, "thetadot": 0.5},
               "integrator": {"t_span": [0.0, 100.0], "rel_tol": 1e-10,
                              "abs_tol": 1e-12},
               "invariants": ["lrr", "angular_momentum"]}
        code, out = _run(tmp_path, "simulate", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("curlforce simulate: numerical failure: "
                              "run stopped early (step-underflow)")
        man = _manifest(out)
        assert man["run"]["termination"] == "step-underflow"
        assert man["error"].startswith("run stopped early (step-underflow)")

    def test_early_stop_named_over_invariant_rk45(self, tmp_path, capsys):
        # the run above with rk45 named: simulate's default is dop853
        cfg = {"system": {"family": "ermakov", "w": 0.0,
                          "V": {"family": "cos"}},
               "initial_state": {"r": 1e308, "rdot": 0.1, "thetadot": 0.5},
               "integrator": {"method": "rk45", "t_span": [0.0, 100.0],
                              "rel_tol": 1e-10, "abs_tol": 1e-12},
               "invariants": ["lrr", "angular_momentum"]}
        code, out = _run(tmp_path, "simulate", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("curlforce simulate: numerical failure: "
                              "run stopped early (step-underflow)")
        man = _manifest(out)
        assert man["run"]["termination"] == "step-underflow"
        assert man["run"]["integrator"]["method"] == "rk45"


def _readme_sweep():
    """The README's sample sweep config."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^```jsonc\n// sweep:.*?\n(\{.*?)^```", readme,
                      re.MULTILINE | re.DOTALL).group(1)
    return json.loads(block)


def _files(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


class TestSweep:
    def test_runs_match_standalone_runs(self, tmp_path):
        cfg = _readme_sweep()
        code, out = _run(tmp_path, "sweep", cfg, sub="sweep")
        assert code == 0
        man = _manifest(out)
        assert [r["name"] for r in man["results"]] == ["exp", "fig"]
        assert all(r["exit_code"] == 0 for r in man["results"])
        for run in cfg["runs"]:
            alone = tmp_path / f"alone-{run['name']}"
            cfg_path = _write_cfg(tmp_path, run["config"],
                                  name=f"{run['name']}.json")
            assert main([run["command"], "--config", str(cfg_path),
                         "--out", str(alone)]) == 0
            assert _files(out / run["name"]) == _files(alone)

    def test_failure_propagates(self, tmp_path):
        cfg = {"runs": [
            {"name": "ok", "command": "special", "config": {"lambda": -1.0}},
            {"name": "bad", "command": "special", "config": {"lambda": -0.5}},
        ]}
        code, out = _run(tmp_path, "sweep", cfg)
        assert code == 2
        codes = {r["name"]: r["exit_code"] for r in _manifest(out)["results"]}
        assert codes == {"ok": 0, "bad": 2}

    def test_numerical_failure_keeps_sweep_manifest(self, tmp_path):
        # the failing run exits 2 on its own; the other run and the sweep
        # manifest are still written
        cfg = {"runs": [
            {"name": "ok", "command": "special", "config": {"lambda": -1.0}},
            {"name": "overflow", "command": "simulate",
             "config": _ANGLE_K_OVERFLOW},
        ]}
        code, out = _run(tmp_path, "sweep", cfg)
        assert code == 2
        codes = {r["name"]: r["exit_code"] for r in _manifest(out)["results"]}
        assert codes == {"ok": 0, "overflow": 2}
        assert _manifest(out / "overflow")["exit_code"] == 2

    def test_programming_error_stops_the_sweep(self, tmp_path,
                                               monkeypatch):
        # an exception outside _dispatch's three outcomes is a bug, not a
        # run outcome: it propagates out of the sweep, and no run records it
        def broken(c, out, fmt, manifest):
            raise TypeError("a bug inside a run")

        commands = dict(curlforce.cli._COMMANDS)
        commands["special"] = (broken, commands["special"][1])
        monkeypatch.setattr(curlforce.cli, "_COMMANDS", commands)
        cfg = {"runs": [
            {"name": "fig", "command": "figure",
             "config": {"which": "fig1", "theta_span": [0.0, 1.0]}},
            {"name": "exp", "command": "special", "config": {"lambda": -1.0}},
        ]}
        with pytest.raises(TypeError, match="a bug inside a run"):
            _run(tmp_path, "sweep", cfg)
        assert not (tmp_path / "out" / "run_manifest.json").exists()

    def test_duplicate_names_rejected(self, tmp_path):
        cfg = {"runs": [
            {"name": "a", "command": "special", "config": {"lambda": -1.0}},
            {"name": "a", "command": "special", "config": {"lambda": -1.0}},
        ]}
        code, _ = _run(tmp_path, "sweep", cfg)
        assert code == 1

    def test_path_like_names_rejected(self, tmp_path):
        cfg = {"runs": [{"name": "../evil", "command": "special",
                         "config": {"lambda": -1.0}}]}
        code, _ = _run(tmp_path, "sweep", cfg)
        assert code == 1

    @pytest.mark.parametrize("name", [
        ".", "run_manifest.json", "x" * 256, "é" * 128, "a\0b", "\ud800"],
        ids=["dot", "manifest", "256-ascii", "256-utf8", "nul", "surrogate"])
    def test_names_colliding_with_outputs_rejected(self, tmp_path, capsys,
                                                   name):
        # "." and "run_manifest.json" would overwrite the sweep's manifest
        # or the run's; the rest cannot be a file name
        cfg = {"runs": [{"name": name, "command": "special",
                         "config": {"lambda": -1.0}}]}
        code, out = _run(tmp_path, "sweep", cfg)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("curlforce sweep: config error: ")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_longest_name_accepted(self, tmp_path):
        cfg = {"runs": [{"name": "é" * 127 + "x", "command": "special",
                         "config": {"lambda": -1.0}}]}
        code, out = _run(tmp_path, "sweep", cfg)
        assert code == 0
        assert _manifest(out / cfg["runs"][0]["name"])["exit_code"] == 0

    def test_uncreatable_run_directory_fails_that_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "taken").write_text("a file, not a directory\n")
        cfg = {"runs": [
            {"name": "ok", "command": "special", "config": {"lambda": -1.0}},
            {"name": "taken", "command": "special",
             "config": {"lambda": -1.0}},
        ]}
        code, _ = _run(tmp_path, "sweep", cfg)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("curlforce: cannot create output directory: ")
        assert err.count("\n") == 1
        codes = {r["name"]: r["exit_code"] for r in _manifest(out)["results"]}
        assert codes == {"ok": 0, "taken": 1}
        assert _manifest(out / "ok")["exit_code"] == 0

    def test_unwritable_output_fails_that_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "fig" / "fig3.csv").mkdir(parents=True)
        cfg = {"runs": [
            {"name": "exp", "command": "special", "config": {"lambda": -1.0}},
            {"name": "fig", "command": "figure", "config": {"which": "fig3"}},
        ]}
        code, _ = _run(tmp_path, "sweep", cfg)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("curlforce figure: cannot write output: ")
        assert err.count("\n") == 1
        codes = {r["name"]: r["exit_code"] for r in _manifest(out)["results"]}
        assert codes == {"exp": 0, "fig": 1}
        assert not (out / "fig" / "run_manifest.json").exists()

    def test_label_echoed(self, tmp_path):
        # a sweep echoes its config, label included, as every command does
        cfg = {"label": "L1", "runs": [
            {"name": "exp", "command": "special", "config": {"lambda": -1.0}},
        ]}
        code, out = _run(tmp_path, "sweep", cfg)
        assert code == 0
        assert _manifest(out)["config"] == cfg

    def test_sweep_of_sweep_rejected(self, tmp_path):
        cfg = {"runs": [{"name": "s", "command": "sweep",
                         "config": {"runs": []}}]}
        code, _ = _run(tmp_path, "sweep", cfg)
        assert code == 1


class TestEntryPoint:
    @pytest.mark.parametrize("command, cfg, taken", [
        ("figure", {"which": "fig3"}, "fig3.csv"),
        ("special", {"lambda": -1.0}, "run_manifest.json"),
    ], ids=["table", "manifest"])
    def test_unwritable_output_exits_1(self, tmp_path, capsys, command, cfg,
                                       taken):
        (tmp_path / "out" / taken).mkdir(parents=True)
        code, out = _run(tmp_path, command, cfg)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"curlforce {command}: cannot write output: ")
        assert err.count("\n") == 1
        assert not (out / "run_manifest.json").is_file()

    def test_import_starts_no_process_machinery(self):
        src = Path(curlforce.__file__).resolve().parents[1]
        code = ("import sys, curlforce.cli; "
                "print([m for m in ('multiprocessing', 'concurrent.futures') "
                "if m in sys.modules])")
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"

    def test_missing_config_file(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_integer_too_long_to_read(self, tmp_path, capsys):
        bad = tmp_path / "long.json"
        bad.write_text('{"lambda": 1' + "0" * 5000 + "}")
        code = main(["special", "--config", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("curlforce: config ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_non_object_root(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        code = main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["simulate"])
        assert info.value.code == 2

    def test_unknown_command_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["transmogrify", "--config", "x", "--out", "y"])

    def test_variant_flag_rejected(self):
        # the variant is figure.variant in the config, not a flag
        with pytest.raises(SystemExit) as info:
            main(["figure", "--config", "x", "--out", "y",
                  "--variant", "as_printed"])
        assert info.value.code == 2
