import json
import math

import pytest

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

    def test_max_steps_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CURLFORCE_MAX_STEPS", "10")
        code, out = _run(tmp_path, "simulate", _ERMAKOV_CFG)
        assert code == 2
        monkeypatch.setenv("CURLFORCE_MAX_STEPS", "junk")
        code, _ = _run(tmp_path, "simulate", _ERMAKOV_CFG, sub="out2")
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
        code, out = _run(tmp_path, "figure", {"which": "fig1"},
                         "--variant", "as_printed")
        assert code == 0
        man = _manifest(out)
        assert man["variant"] == "as_printed"
        assert man["compared_against"] == "derived"
        deltas = [c["max_abs_delta_psi_vs_other_variant"]
                  for c in man["curves"]]
        assert max(deltas) > 1e-3

    def test_literal_caption_signs(self, tmp_path):
        code, out = _run(tmp_path, "figure",
                         {"which": "fig2", "literal_caption": True})
        assert code == 0
        man = _manifest(out)
        assert [c["I"] for c in man["curves"]] == [1.1, -1.2, -2.0]

    def test_unknown_figure_rejected(self, tmp_path):
        code, _ = _run(tmp_path, "figure", {"which": "fig9"})
        assert code == 1


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
    ], ids=["figure-span-text", "figure-span-reversed", "noether-span-text",
            "noether-initial-short", "noether-empty-grid", "simulate-method-7",
            "simulate-negative-r", "special-initial-text", "simulate-h0-zero",
            "simulate-h0-negative", "orbit-grid-decreasing",
            "orbit-tol-negative", "figure-label", "figure-span-null",
            "orbit-r0-null", "map-ef-scaling-null", "simulate-integrator-null",
            "noether-grid-zero-T", "noether-grid-complex-power",
            "noether-grid-overflow"])
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


class TestNumericalFailureExits2:
    @pytest.mark.parametrize("command, cfg", [
        ("simulate", {"system": {"family": "isotropic", "mu": 1e6},
                      "initial_state": {"r": 2.0, "thetadot": 1.0}}),
        ("figure", {"which": "fig1", "I_values": [1.0]}),
        ("noether", _with(_NOETHER_BASE, run__initial=[0.0, 0.0])),
        ("simulate", _ANGLE_K_OVERFLOW),
        ("simulate", {"system": {"family": "ermakov", "w": 1e200},
                      "initial_state": {"r": 1.0, "thetadot": 1.0}}),
    ], ids=["simulate-force-overflow", "figure-singular-start",
            "noether-zero-start", "simulate-angle-k-overflow",
            "simulate-ermakov-w-overflow"])
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


class TestStepCapEnv:
    @pytest.mark.parametrize("command, cfg", [
        ("figure", {"which": "fig1", "I_values": [1.5]}),
        ("noether", _NOETHER_BASE),
        ("special", {"lambda": -1.0}),
    ], ids=["figure", "noether", "special"])
    def test_cap_applies_to_every_integrating_command(
            self, tmp_path, capsys, monkeypatch, command, cfg):
        monkeypatch.setenv("CURLFORCE_MAX_STEPS", "10")
        code, out = _run(tmp_path, command, cfg)
        assert code == 2
        assert "max_steps=10 exceeded" in capsys.readouterr().err
        man = _manifest(out)
        assert man["exit_code"] == 2
        assert man["max_steps_override"] == 10

    def test_override_recorded_only_when_set(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CURLFORCE_MAX_STEPS", raising=False)
        code, plain = _run(tmp_path, "simulate", _SIM_BASE, sub="plain")
        assert code == 0
        assert "max_steps_override" not in _manifest(plain)
        monkeypatch.setenv("CURLFORCE_MAX_STEPS", "100000")
        code, capped = _run(tmp_path, "simulate", _SIM_BASE, sub="capped")
        assert code == 0
        man = _manifest(capped)
        assert man.pop("max_steps_override") == 100000
        assert man == _manifest(plain)
        assert (capped / "simulate.csv").read_bytes() \
            == (plain / "simulate.csv").read_bytes()


class TestSweep:
    _RUNS = {
        "runs": [
            {"name": "exp", "command": "special", "config": {"lambda": -1.0}},
            {"name": "fig", "command": "figure", "config": {"which": "fig1",
                                                            "I_values": [1.5]}},
        ],
    }

    def test_serial_and_parallel_agree(self, tmp_path):
        cfg1 = dict(self._RUNS)
        cfg1["max_workers"] = 1
        code1, out1 = _run(tmp_path, "sweep", cfg1, sub="serial")
        code2, out2 = _run(tmp_path, "sweep", self._RUNS, sub="par")
        assert code1 == code2 == 0
        for rel in ("exp/run_manifest.json", "fig/run_manifest.json",
                    "fig/fig1.csv"):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()
        man = _manifest(out1)
        assert [r["name"] for r in man["results"]] == ["exp", "fig"]
        assert all(r["exit_code"] == 0 for r in man["results"])

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

    def test_sweep_of_sweep_rejected(self, tmp_path):
        cfg = {"runs": [{"name": "s", "command": "sweep",
                         "config": {"runs": []}}]}
        code, _ = _run(tmp_path, "sweep", cfg)
        assert code == 1


class TestEntryPoint:
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
