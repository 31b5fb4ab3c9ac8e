#!/usr/bin/env python3
"""curlforce benchmark: seeded CLI jobs, checked, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload angle-rk45 --seed 1 --seconds 30 --trace 0

The workload's seeded job pool (workloads.py) runs through the public entry
point curlforce.cli.main inside this one process: a closed loop with one
client, no threads and no sweep command.  Every job's outputs pass through
the gates in gates.py, and every job is run at least twice so that reruns
can be compared byte for byte.

Probe jobs (workloads.PROBES) are inputs on which the program is known to
fail.  They are not operations of the workload: they stay out of the timed
pass, out of attempted and failed, and out of correct.  Each run executes
every probe once after its pass, and the report says which known defects
still show.

--trace 0 measures end to end.  It times the import of curlforce.cli in
fresh interpreters (setup_s), warms up, and then runs the pool round-robin
for --seconds, and on until every job has run three times.  A job's time
is the median of its executions; jobs_per_s is the pool's passing jobs
over the sum of those times, job_ms.p50/p75 are their percentiles over
the pool's jobs, and peak_rss_mb is the process's peak RSS.  Each
execution's time is rescaled to the machine's nominal speed, measured by
a reference kernel sampled between the jobs around it; the times as
measured and the wall-clock rate go to the report.

--trace 1 measures per layer.  It runs one untraced pass over the pool,
then the same pass again with the wrappers from tracing.py installed.  The
difference between the two wall times is trace.overhead_s.  It also splits
import time with -X importtime and writes the spans to .perfbench-out/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Lines before it starting with '#' are a readable report.  The
full record, with environment and per-job outcomes, goes to
.perfbench-out/.  Exits with 2 and prints no result when the working
directory holds no curlforce sources.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates
import workloads

EVAL_BUDGET = 50_000       # integrand evaluations per job; ~12x the largest
                           # smooth orbit job in the pool
JOB_TIME_BUDGET_S = 30.0   # wall time per job before it is cut off
TAIL_PERCENTILE = 75       # every pool has >= 40 jobs: ten beyond it
MIN_RUNS_PER_JOB = 3
PASS_LIMIT_S = 120.0       # hard stop, far below the per-run limit
REFERENCE_EVERY_S = 0.25   # how often the timed pass samples machine speed
REFERENCE_NEIGHBOURS = 3   # samples on each side that set an execution's speed
REFERENCE_NOMINAL_S = 1.5e-3   # reference_seconds() on a 2-core Xeon
                               # 2.1 GHz VM in a quiet period
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3

EXCLUDED = {
    "sweep": ("runs jobs in a process pool; on a 2-core machine that "
              "measures the OS scheduler more than curlforce"),
    "tier-1 suite": ("pytest is a test harness, not a user workload; about "
                     "a third of its wall time is one divergent-quadrature "
                     "test"),
}

_IMPORT_SNIPPET = ("import sys, time; t = time.perf_counter(); "
                   "import curlforce.cli; "
                   "print(time.perf_counter() - t)")
_IMPORTTIME_SNIPPET = ("import sys; sys.stderr.write('perfbench-mark\\n'); "
                       "import curlforce.cli")


class JobTimeout(Exception):
    """A job ran past JOB_TIME_BUDGET_S."""


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_TIME_BUDGET_S} s")


# -- environment -------------------------------------------------------------

def _fresh_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def _fresh_import_seconds(src: Path) -> float:
    out = subprocess.run([sys.executable, "-c", _IMPORT_SNIPPET],
                         env=_fresh_env(src), capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout.strip())


def _import_breakdown_ms(src: Path) -> dict[str, float]:
    """Median self import time per group from -X importtime, in ms."""
    samples: dict[str, list[float]] = {"numpy": [], "curlforce": [],
                                       "stdlib": []}
    for _ in range(IMPORTTIME_REPEATS):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              _IMPORTTIME_SNIPPET], env=_fresh_env(src),
                             capture_output=True, text=True, timeout=60,
                             check=True)
        sums = dict.fromkeys(samples, 0.0)
        lines = out.stderr.splitlines()
        for line in lines[lines.index("perfbench-mark") + 1:]:
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (p.strip() for p in line[12:].split("|"))
            if not self_us.isdigit():
                continue
            top = name.split(".")[0]
            group = top if top in ("numpy", "curlforce") else "stdlib"
            sums[group] += int(self_us) / 1e3
        for group, v in sums.items():
            samples[group].append(v)
    return {g: statistics.median(v) for g, v in samples.items()}


def _environment(root: Path, src: Path, args) -> dict:
    import numpy
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except OSError:
            commit = None
    digest = hashlib.sha256()
    for path in sorted((src / "curlforce").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "closed_loop": "one client, one process, no threads",
        "excluded": EXCLUDED,
    }


# -- running jobs ------------------------------------------------------------

class Runner:
    """Runs jobs through curlforce.cli.main and records each execution."""

    def __init__(self, cli, work: Path, pool: list[dict]):
        self.cli = cli
        self.work = work
        self.pool = pool
        self.n_exec = 0
        for i, job in enumerate(pool):
            (work / "cfg" / f"{i:03d}.json").write_text(
                json.dumps(job["config"]))

    def execute(self, index: int, inst, tracer=None) -> dict:
        job = self.pool[index]
        out = self.work / "out" / f"{self.n_exec:05d}"
        self.n_exec += 1
        argv = [job["command"], "--config",
                str(self.work / "cfg" / f"{index:03d}.json"),
                "--out", str(out), "--format", job["format"]]
        inst.start_job(job["id"])
        signal.setitimer(signal.ITIMER_REAL, JOB_TIME_BUDGET_S)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = self.cli.main(argv)
            else:
                outcome = tracer.run("cli.main", True, self.cli.main, argv)
        except Exception as exc:  # an escape from main is a job failure
            outcome = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        return {"index": index, "id": job["id"], "outcome": outcome,
                "started_s": t0, "elapsed_s": elapsed, "out": out}

    def regular(self) -> list[int]:
        return [i for i, job in enumerate(self.pool) if not job["probe"]]

    def probes(self) -> list[int]:
        return [i for i, job in enumerate(self.pool) if job["probe"]]

    def warm_up(self, inst) -> None:
        seen = set()
        for i, job in enumerate(self.pool):
            if job["command"] not in seen and not job["probe"]:
                seen.add(job["command"])
                shutil.rmtree(self.execute(i, inst)["out"], ignore_errors=True)


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _judge(runner: Runner, inst, execs: list[dict]) -> None:
    """Gate every execution, then compare reruns of each job byte for byte.

    Adds to each execution: failed (bool), probe (name or ""), reasons.
    A job that ran once gets one untimed rerun for the comparison.
    Output directories are removed as they are judged.
    """
    digests: dict[int, set] = {}
    for ex in execs:
        job = runner.pool[ex["index"]]
        ex["bytes"] = sum(p.stat().st_size for p in ex["out"].glob("*"))
        if isinstance(ex["outcome"], int):
            ex["reasons"] = gates.check(job, ex["outcome"], ex["out"])
            if ex["out"].exists():
                digests.setdefault(ex["index"], set()).add(_digest(ex["out"]))
        else:
            ex["reasons"] = [ex["outcome"]]
        ex["probe"] = job["probe"]
        shutil.rmtree(ex["out"], ignore_errors=True)
    runs = {}
    for ex in execs:
        runs[ex["index"]] = runs.get(ex["index"], 0) + 1
    for index, count in runs.items():
        if count == 1 and index in digests:
            again = runner.execute(index, inst)
            if again["out"].exists():
                digests[index].add(_digest(again["out"]))
            shutil.rmtree(again["out"], ignore_errors=True)
    for ex in execs:
        if len(digests.get(ex["index"], ())) > 1:
            ex["reasons"].append("rerun output not byte-identical")
        ex["failed"] = bool(ex["reasons"])
        ex["out"] = str(ex["out"])


def _simpson(f, a, fa, m, fm, b, fb, whole, tol, depth):
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if abs(left + right - whole) <= 15.0 * tol or depth > 40:
        return left + right
    return (_simpson(f, a, fa, lm, flm, m, fm, left, 0.5 * tol, depth + 1)
            + _simpson(f, m, fm, rm, frm, b, fb, right, 0.5 * tol, depth + 1))


def reference_seconds() -> float:
    """Time of a fixed kernel in the style of the program's hot loops.

    Recursive Simpson quadrature on scalar math calls plus small-array
    numpy updates, about 2 ms.  It shares no code with curlforce, so a
    change to the program cannot move it; it tracks only the speed of the
    machine at the moment it runs.
    """
    import numpy as np

    t0 = time.perf_counter()

    def f(x):
        return math.sqrt(x) * math.cos(x)

    _simpson(f, 0.5, f(0.5), 3.25, f(3.25), 6.0, f(6.0), 0.0, 1e-11, 0)
    y = np.zeros(4)
    step = np.full(4, 1e-3)
    for _ in range(300):
        y = y + 0.5 * step
    return time.perf_counter() - t0


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    k = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[k - 1]


def _summary(execs: list[dict]) -> dict:
    """Counts of the workload's executions and, apart, of its probes."""
    jobs = [e for e in execs if not e["probe"]]
    failed = sum(e["failed"] for e in jobs)
    probes: dict[str, list[int]] = {}
    for e in execs:
        if e["probe"]:
            tally = probes.setdefault(e["probe"], [0, 0])
            tally[0] += e["failed"]
            tally[1] += 1
    return {"attempted": len(jobs), "failed": failed,
            "fail_ratio": failed / max(1, len(jobs)),
            "probe_failures": {k: {"failed": f, "run": n}
                               for k, (f, n) in sorted(probes.items())},
            "correct": failed == 0}


def _report_failures(s: dict, execs: list[dict]) -> None:
    for ex in execs:
        if ex["failed"] and not ex["probe"]:
            print(f"# FAILED {ex['id']}: {'; '.join(ex['reasons'])[:300]}")
    print(f"# failed {s['failed']} of {s['attempted']} workload executions "
          f"(fail_ratio {s['fail_ratio']:.4f})")
    for name, t in s["probe_failures"].items():
        state = ("the known defect still shows" if t["failed"]
                 else "the known defect no longer shows")
        print(f"# probe {name}: {t['failed']} of {t['run']} failed, {state}"
              f" ({workloads.PROBES[name]})")
    for ex in execs:
        if ex["failed"] and ex["probe"]:
            print(f"#   {ex['id']}: {'; '.join(ex['reasons'])[:200]}")


def _job_metrics(times: list[list[float]], failed: list[bool],
                 seen: list[int]) -> dict:
    """jobs_per_s and job_ms percentiles from each job's execution times.

    A job's time is the median of its executions, and a failed job counts
    as slower than every passing one.
    """
    typical = {i: statistics.median(times[i]) for i in seen}
    longest = max(typical.values())
    latency = [longest if failed[i] else typical[i] for i in seen]
    passed = sum(not failed[i] for i in seen)
    return {"jobs_per_s": passed / sum(typical.values()),
            "job_ms.p50": _percentile(latency, 50) * 1e3,
            f"job_ms.p{TAIL_PERCENTILE}": _percentile(latency,
                                                      TAIL_PERCENTILE) * 1e3}


# -- the two kinds of run ----------------------------------------------------

def timed_run(runner: Runner, src: Path, args) -> tuple[dict, dict, list]:
    from tracing import Instruments

    setup = [_fresh_import_seconds(src) for _ in range(SETUP_REPEATS)]
    n = len(runner.pool)
    regular = runner.regular()
    runs = [0] * n
    inst = Instruments(EVAL_BUDGET)
    try:
        runner.warm_up(inst)
        execs = []
        reference = [(time.perf_counter(), reference_seconds())]
        t0 = sampled = time.perf_counter()
        while True:
            index = regular[len(execs) % len(regular)]
            execs.append(runner.execute(index, inst))
            runs[index] += 1
            if time.perf_counter() - sampled >= REFERENCE_EVERY_S:
                reference.append((time.perf_counter(), reference_seconds()))
                sampled = time.perf_counter()
            elapsed = time.perf_counter() - t0
            done = min(runs[i] for i in regular)
            if elapsed >= args.seconds and done >= MIN_RUNS_PER_JOB:
                break
            if elapsed >= PASS_LIMIT_S:
                break
        wall = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probe_execs = [runner.execute(i, inst) for i in runner.probes()]
        _judge(runner, inst, execs + probe_execs)
    finally:
        inst.restore()

    # The CPU speed of a shared VM drifts by a third over seconds to
    # minutes.  Each execution's time is rescaled by the reference kernel's
    # nominal over its median time in the samples around the execution:
    # what the job would take on the machine at its nominal speed.
    ref_at = [t for t, _ in reference]
    ref_s = [v for _, v in reference]

    def speed_at(t: float) -> float:
        j = bisect.bisect_left(ref_at, t)
        near = ref_s[max(0, j - REFERENCE_NEIGHBOURS):j + REFERENCE_NEIGHBOURS]
        return REFERENCE_NOMINAL_S / statistics.median(near)

    times: list[list[float]] = [[] for _ in range(n)]
    scaled: list[list[float]] = [[] for _ in range(n)]
    failed = [False] * n
    for e in execs:
        times[e["index"]].append(e["elapsed_s"])
        scaled[e["index"]].append(e["elapsed_s"] * speed_at(e["started_s"]))
        failed[e["index"]] |= e["failed"]
    seen = [i for i in regular if runs[i]]
    passed = sum(not failed[i] for i in seen)
    s = _summary(execs + probe_execs)
    beyond = len(seen) - math.ceil(TAIL_PERCENTILE / 100 * len(seen))
    raw = _job_metrics(times, failed, seen)
    speed = REFERENCE_NOMINAL_S / statistics.median(ref_s)
    metrics = {
        "setup_s": statistics.median(setup),
        **_job_metrics(scaled, failed, seen),
        "peak_rss_mb": peak_rss_mb,
    }
    s.update(raw_metrics=raw, machine_speed=speed,
             reference_samples=len(reference),
             wall_s=wall, wall_jobs_per_s=(s["attempted"] - s["failed"]) / wall,
             setup_samples_s=setup, pool_size=len(regular),
             probes=n - len(regular), jobs_run=len(seen),
             min_runs_per_job=done, samples_beyond_tail=beyond,
             quad_evals=inst.evals_so_far(), budget_hits=inst.budget_hits)
    print(f"# {s['attempted']} executions in {wall:.2f} s "
          f"({s['wall_jobs_per_s']:.3f} passing/s by wall clock), every one of"
          f" {len(seen)} of {len(regular)} pool jobs run >= {done} times; "
          f"{inst.budget_hits} probe executions hit the {EVAL_BUDGET}-"
          f"evaluation budget")
    _report_failures(s, execs + probe_execs)
    tail = f"job_ms.p{TAIL_PERCENTILE}"
    print(f"# median-of-repeats job_ms over n={len(seen)} jobs ({passed} "
          f"passed): p50 {metrics['job_ms.p50']:.2f}, p{TAIL_PERCENTILE} "
          f"{metrics[tail]:.2f} ({beyond} jobs beyond it); machine speed "
          f"{speed:.3f} of nominal (median of {len(reference)} reference "
          f"samples), "
          f"as measured: {raw['jobs_per_s']:.3f} jobs/s, p50 "
          f"{raw['job_ms.p50']:.2f}, p{TAIL_PERCENTILE} {raw[tail]:.2f}")
    return metrics, s, execs + probe_execs


def traced_run(runner: Runner, src: Path, args,
               out_dir: Path) -> tuple[dict, dict, list]:
    from tracing import Instruments, Tracer, layer_metrics

    imports = _import_breakdown_ms(src)
    order = list(range(len(runner.pool)))
    inst = Instruments(EVAL_BUDGET)
    try:
        runner.warm_up(inst)
        t0 = time.perf_counter()
        plain = [runner.execute(i, inst) for i in order]
        wall_plain = time.perf_counter() - t0
    finally:
        inst.restore()

    tracer = Tracer()
    inst = Instruments(EVAL_BUDGET, tracer)
    try:
        t0 = time.perf_counter()
        traced = [runner.execute(i, inst, tracer) for i in order]
        wall_traced = time.perf_counter() - t0
        metrics = layer_metrics(tracer, inst)
        # the untraced and the traced execution of each job are each
        # other's rerun: tracing must not change a byte of output
        _judge(runner, inst, plain + traced)
    finally:
        inst.restore()

    metrics["cli.bytes_written"] = sum(e["bytes"] for e in traced)
    metrics["import.numpy_ms"] = imports["numpy"]
    metrics["import.curlforce_ms"] = imports["curlforce"]
    metrics["import.stdlib_ms"] = imports["stdlib"]
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path)

    s = _summary(plain + traced)
    s.update(wall_untraced_s=wall_plain, wall_traced_s=wall_traced,
             pool_size=len(runner.pool), spans=len(tracer.spans),
             trace_file=str(trace_path.name))
    print(f"# traced one pass of {len(order)} jobs: untraced {wall_plain:.2f} s,"
          f" traced {wall_traced:.2f} s, {len(tracer.spans)} spans -> "
          f"{trace_path.name}")
    _report_failures(s, plain + traced)
    return metrics, s, plain + traced


# -- entry point -------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "curlforce" / "cli.py").is_file():
        print("perfbench: src/curlforce/cli.py not found; run from the root "
              "of a curlforce checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    cli = importlib.import_module("curlforce.cli")
    own_import_s = time.perf_counter() - t0

    env = _environment(root, src, args)
    env["own_import_s"] = own_import_s
    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    work = root / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    (work / "cfg").mkdir(parents=True)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        runner = Runner(cli, work, workloads.make_pool(args.workload,
                                                       args.seed))
        if args.trace:
            metrics, summary, execs = traced_run(runner, src, args, out_dir)
        else:
            metrics, summary, execs = timed_run(runner, src, args)
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = json.loads((root / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    unit_of = {m["name"]: m["unit"] for m in units[kind]}
    record = {"environment": env, "summary": summary, "metrics": metrics,
              "executions": execs}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("# " + json.dumps({k: env[k] for k in (
        "nproc", "python", "numpy", "git_commit", "source_sha256", "seed")}))
    print("# excluded: " + "; ".join(f"{k}: {v}" for k, v in EXCLUDED.items()))
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit_of[name]}
                    for name in unit_of},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
