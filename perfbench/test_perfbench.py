"""Self-tests of the benchmark's own parts: python3 -m pytest -q perfbench

Not part of the repository's tier-1 suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from curlforce import analysis, cli  # noqa: E402
from tracing import BudgetExceeded, Instruments, Tracer  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.CYCLES))
def test_same_seed_same_pool(workload):
    a = workloads.make_pool(workload, 11)
    assert a == workloads.make_pool(workload, 11)
    assert [j["config"] for j in a] != [j["config"]
                                       for j in workloads.make_pool(workload, 12)]
    assert len({j["id"] for j in a}) == len(a)
    readme = [c for c in workloads.README.values()
              if any(j["config"] == c for j in a)]
    assert readme, "every pool carries the README configs of its commands"
    assert {j["probe"] for j in a} <= {""} | set(workloads.PROBES)


def test_pool_is_plain_json():
    pool = workloads.make_pool("branch-quadrature", 3)
    assert json.loads(json.dumps(pool)) == pool


def _run_job(job: dict, tmp_path: Path) -> tuple[int, Path]:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(job["config"]))
    out = tmp_path / "out"
    code = cli.main([job["command"], "--config", str(cfg), "--out", str(out),
                     "--format", job["format"]])
    return code, out


def _orbit_job() -> dict:
    return {"id": "000-orbit-readme", "command": "orbit",
            "config": workloads.README["orbit"], "format": "csv", "probe": ""}


def test_gates_pass_a_good_job(tmp_path):
    job = _orbit_job()
    code, out = _run_job(job, tmp_path)
    assert gates.check(job, code, out) == []


def _edit_manifest(out: Path, edit) -> None:
    path = out / "run_manifest.json"
    man = json.loads(path.read_text())
    edit(man)
    path.write_text(json.dumps(man))


@pytest.mark.parametrize("edit", [
    lambda m: m["simulated_comparison"].update(max_abs_delta_theta=0.5),
    lambda m: m.update(exit_code=2),
    lambda m: m["config"].update(mu=1.0),
    lambda m: m["quadrature"].pop("tau"),
])
def test_gates_flag_a_corrupted_manifest(tmp_path, edit):
    job = _orbit_job()
    code, out = _run_job(job, tmp_path)
    _edit_manifest(out, edit)
    assert gates.check(job, code, out)


def test_gates_flag_a_corrupted_table(tmp_path):
    job = _orbit_job()
    code, out = _run_job(job, tmp_path)
    table = out / "orbit.csv"
    lines = table.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[-2] = repr(float(cells[-2]) + 1e-3)   # theta_sim of the last row
    table.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    assert any("table" in v for v in gates.check(job, code, out))


def test_gates_flag_an_unexpected_exit_code(tmp_path):
    job = _orbit_job()
    assert gates.check(job, 1, tmp_path) == ["exit code 1, expected 0"]
    probe = dict(job, probe="endpoint-singular")
    assert gates.check(probe, 2, tmp_path) == []


def test_budget_stops_quadrature_and_restores():
    original = analysis.quad_adaptive
    inst = Instruments(eval_budget=100)
    try:
        inst.start_job("probe")
        with pytest.raises(BudgetExceeded):
            analysis.quad_adaptive(lambda x: x ** -0.5 if x else 1 / x,
                                   0.0, 1.0)
        assert inst.budget_hits == 1
    finally:
        inst.restore()
    assert analysis.quad_adaptive is original


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("b.leaf", lambda: sum(range(1000)), keep=False)
    outer = tracer.wrap("a.span", lambda: [inner() for _ in range(3)],
                        keep=True)
    outer()
    calls, total, own = tracer.total("a.span")
    leaf_calls, leaf_total, _ = tracer.total("b.leaf")
    assert (calls, leaf_calls) == (1, 3)
    assert own == pytest.approx(total - leaf_total, abs=1e-12)
    assert tracer.spans[0][0] == "a.span" and tracer.spans[0][3] == -1
    assert tracer.leaves[(0, "b.leaf")][0] == 3


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert run._percentile(values, 50) == 50.0
    assert run._percentile(values, 80) == 80.0
    assert run._percentile([3.0], 80) == 3.0


def test_probes_stay_out_of_the_counts():
    execs = [{"id": "000-orbit", "probe": "", "failed": False},
             {"id": "001-radius-edge", "probe": "radius-edge", "failed": True},
             {"id": "000-orbit", "probe": "", "failed": False}]
    s = run._summary(execs)
    assert (s["attempted"], s["failed"], s["correct"]) == (2, 0, True)
    assert s["probe_failures"] == {"radius-edge": {"failed": 1, "run": 1}}
    s = run._summary(execs + [{"id": "002-orbit", "probe": "",
                               "failed": True}])
    assert (s["attempted"], s["failed"], s["correct"]) == (3, 1, False)
