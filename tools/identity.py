#!/usr/bin/env python3
"""Byte identity of the CLI's outputs between a git revision and the working tree.

Run from the repository root:

    python3 tools/identity.py HEAD          # uncommitted change vs its parent
    python3 tools/identity.py HEAD~1        # last commit vs its parent

The revision's src/ is archived (git archive) into a scratch directory; the
working tree's src/ is used as it is.  Both trees run the same identity set,
each run in a fresh interpreter that calls curlforce.cli.main as the
console script does:

- the seed-7 and seed-11 job pools of every workload in
  perfbench/workloads.py, probes included;
- every README sample config ("// <command>: ..." blocks, the sweep
  included);
- the extra configs in tools/configs, which CI's "Installed console
  script" step also runs;
- six orbit configs whose chain powers overflow (OVERFLOWING).

Each run is made once per table format, csv and json.  A run's outcome is
its exit code, its stdout and stderr, and the sha256 of every file it
writes.  Every run whose outcome differs between the trees is printed, and
the exit status is 1 if any does, 0 otherwise.  Only the working tree's
perfbench/, README and tools/configs are read, so both trees run the same
configs.  Each tree's configs are written once, before any run starts.
Every run uses PYTHONHASHSEED=0; CI's check that a second hash seed writes
the same bytes is not repeated here.

Each run also records the generated source it compiles: the -c runner
hooks builtins.compile before curlforce is imported, and keeps the sha256
of every text that curlforce compiles, as a sorted set of digests in a
file beside the run's output directory, not in it.  A run whose set
differs between the trees is printed as well, and the summary line counts
both kinds of difference apart, but the exit status reflects outputs
only: a change that moves generated source on purpose, and keeps every
output, still passes.  Run against the working tree's own revision (CI's
self-check, which also reads the summary line), any differing set is
generated source that is not deterministic across processes.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (7, 11)
FORMATS = ("csv", "json")
WORKERS = min(2, os.cpu_count() or 1)  # runs at a time, each a fresh Python

# orbit configs whose chain powers overflow: mu just below -2 raises u to
# the power -500.5 in the tau chain; mu = -2.0001 and -1.999 push the
# exponents further out.  Only the mu values and the three mu = -2.001
# grids are on record for this set; the other grids and every r0 are
# chosen here, so it stands for that set without being a copy of it
OVERFLOWING = [
    ("orbit", {"mu": -2.001, "r0": 1.0, "r_grid": [0.5, 0.7, 0.9]}),
    ("orbit", {"mu": -2.001, "r0": 1.0, "r_grid": [0.999999, 0.9999995]}),
    ("orbit", {"mu": -2.001, "r0": 1.0, "r_grid": [0.9, 0.99, 0.999999]}),
    ("orbit", {"mu": -2.0001, "r0": 1.0, "r_grid": [0.5, 0.7, 0.9]}),
    ("orbit", {"mu": -1.999, "r0": 1.0, "r_grid": [0.5, 0.7, 0.9]}),
    ("orbit", {"mu": -1.999, "r0": 0.0, "r_grid": [1.0, 1.5, 2.0]}),
]

# the console script's call, with every text curlforce compiles recorded:
# the run's first argument is the file its digests go to
_MAIN = """\
import builtins, hashlib, sys
digests, path, compile_ = set(), sys.argv.pop(1), builtins.compile


def record(source, filename, *args, **kwargs):
    caller = sys._getframe(1).f_globals.get("__name__", "")
    if caller.startswith("curlforce"):
        digests.add(hashlib.sha256(source.encode()).hexdigest())
    return compile_(source, filename, *args, **kwargs)


builtins.compile = record
try:
    from curlforce.cli import main
    sys.exit(main())
finally:
    with open(path, "w") as fh:
        fh.write("".join(d + "\\n" for d in sorted(digests)))
"""


def identity_set() -> list[tuple[str, str, dict]]:
    """(name, command, config) of every config in the set, names unique."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    runs = []
    for workload in sorted(workloads.CYCLES):
        for seed in SEEDS:
            runs += [(f"{workload}-{seed}-{job['id']}", job["command"],
                      job["config"])
                     for job in workloads.make_pool(workload, seed)]
    readme = re.findall(r"^```jsonc\n// (\S+):.*?\n(\{.*?)^```",
                        (ROOT / "README.md").read_text(), re.M | re.S)
    runs += [(f"readme-{i}-{command}", command, json.loads(body))
             for i, (command, body) in enumerate(readme)]
    runs += [(f"ci-{path.stem}", path.stem.split(".")[0],
              json.loads(path.read_text()))
             for path in sorted((ROOT / "tools" / "configs").glob("*.json"))]
    runs += [(f"overflow-{i}", command, config)
             for i, (command, config) in enumerate(OVERFLOWING)]
    return runs


def archive(rev: str, dest: Path) -> Path:
    """rev's src/ extracted below dest; returns that src directory."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        # the "data" filter where this Python has extraction filters
        tar.extractall(dest, **({"filter": "data"}
                                if hasattr(tarfile, "data_filter") else {}))
    return dest / "src"


def outcome(src: Path, work: Path, name: str, command: str,
            fmt: str) -> dict:
    """Run config name, which run_tree wrote below work, in a fresh
    interpreter; its outcome."""
    cfg = work / "configs" / f"{name}.json"
    out = Path("out") / f"{name}-{fmt}"
    compiled = work / "out" / f"{name}-{fmt}.compiled"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0",
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN, str(compiled), command, "--config",
         str(cfg.relative_to(work)), "--out", str(out), "--format", fmt],
        cwd=work, env=env, capture_output=True, text=True)
    files = {}
    for path in sorted((work / out).rglob("*")):
        if path.is_file():
            files[str(path.relative_to(work / out))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return {"exit": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "files": files,
            "sources": compiled.read_text().split()}


def run_tree(src: Path, work: Path, runs) -> dict:
    (work / "configs").mkdir(parents=True)
    (work / "out").mkdir()
    # each config is written once, before any run reads it
    for name, _, config in runs:
        (work / "configs" / f"{name}.json").write_text(json.dumps(config))
    with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        futures = {(name, fmt): pool.submit(outcome, src, work, name, command,
                                            fmt)
                   for name, command, _ in runs for fmt in FORMATS}
        return {key: f.result() for key, f in futures.items()}


def diff(key, a: dict, b: dict) -> list[str]:
    """Lines naming each way the two outcomes of one run differ, its
    generated sources aside."""
    lines = []
    for field in ("exit", "stdout", "stderr"):
        if a[field] != b[field]:
            lines.append(f"  {field}: {a[field]!r} -> {b[field]!r}")
    for path in sorted(set(a["files"]) | set(b["files"])):
        x, y = a["files"].get(path), b["files"].get(path)
        if x != y:
            lines.append(f"  {path}: {x or 'missing'} -> {y or 'missing'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    args = parser.parse_args(argv)
    runs = identity_set()
    with tempfile.TemporaryDirectory(prefix="curlforce-identity-") as tmp:
        tmp = Path(tmp)
        parent_src = archive(args.rev, tmp / "parent-tree")
        parent = run_tree(parent_src, tmp / "parent", runs)
        change = run_tree(ROOT / "src", tmp / "change", runs)
    differing = sources = 0
    for key in parent:
        lines = diff(key, parent[key], change[key])
        differing += bool(lines)
        old, new = set(parent[key]["sources"]), set(change[key]["sources"])
        if old != new:
            sources += 1
            lines.append(f"  generated sources: {len(old - new)} only in "
                         f"{args.rev}, {len(new - old)} only in the tree")
        if lines:
            print(f"{key[0]} --format {key[1]}:")
            print("\n".join(lines))
    codes = sorted({o["exit"] for o in change.values()})
    print(f"{len(parent)} runs ({len(runs)} configs x {len(FORMATS)} "
          f"formats), exit codes {codes}: {differing} differ from {args.rev}, "
          f"{sources} compile different generated sources")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
