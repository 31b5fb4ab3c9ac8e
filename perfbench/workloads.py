"""Seeded job pools for the curlforce benchmark.

A job is one CLI invocation: a command, its JSON config, an output format
and a probe name, empty for a regular job.  A probe is an input on which
the program is known to misbehave (PROBES); each run executes it once,
apart from the workload's counted jobs, and reports whether the defect still
shows; it passes once the defect is fixed.
Regular jobs never draw parameters into a probe's region.  Each workload's
pool is a list of identical-shaped cycles; a cycle holds a fixed number of
jobs of each kind, and the pool holds the README sample configs for the
workload's commands.  Drawn parameters are stratified over the whole pool (one draw
per equal-width slice of each range, shuffled), so two seeds give different
configs but nearly the same cost mix.  That keeps throughput and latency
percentiles steady from seed to seed while the configs still vary.

Only the stdlib is used here: the benchmark imports this module before it
times the import of curlforce (and with it numpy).
"""

from __future__ import annotations

import copy
import random

# README sample configs, one per command (README.md, "Sample configs").
README = {
    "simulate": {
        "system": {"family": "ermakov", "w": 0.0, "V": {"family": "cos"}},
        "initial_state": {"r": 1.0, "rdot": 0.1, "thetadot": 0.5},
        "integrator": {"t_span": [0.0, 100.0], "rel_tol": 1e-10,
                       "abs_tol": 1e-12},
        "invariants": ["lrr", "angular_momentum"],
    },
    "figure": {"which": "fig1"},
    "map-ef": {
        "system": {"family": "isotropic", "mu": -1.5},
        "initial_state": {"r": 1.0, "rdot": 0.1, "thetadot": 0.6},
        "integrator": {"method": "rk4", "h": 1e-3, "t_span": [0.0, 8.0]},
    },
    "noether": {"n": 2.0, "m": -5.0, "generator": "g2"},
    "orbit": {"mu": 0.0, "r0": 0.0,
              "r_grid": {"start": 1.0, "stop": 2.0, "num": 9},
              "compare_simulation": True},
    "special": {"lambda": 1.0},
}

# Pool size in cycles, for 40 to 80 regular jobs per pool: the latency tail needs
# ten jobs beyond the 75th percentile, and the timed pass runs every job at
# least three times.  One pass takes 9 to 11 s for the first two pools and
# about 2 s for branch-quadrature on a 2-core Xeon 2.1 GHz VM.
CYCLES = {"angle-rk45": 3, "normal-form-rk4": 4, "branch-quadrature": 4}

# Known defects, each run as a probe (see gates.expected_codes).
PROBES = {
    "endpoint-singular": (
        "orbit with r0 at the grid start: quad_adaptive's cost on the "
        "integrable endpoint singularity is unbounded; the benchmark stops "
        "it at an evaluation budget"),
    "radius-edge": (
        "orbit compare_simulation whose seeded r(0) rounds an ulp above the "
        "first grid radius: cli._locate_radius bisects an interval without "
        "a sign change and the comparison is off by ~1e-2"),
    "window-edge": (
        "special with lambda = 1 and eps = 0.25 (about one eps in six in "
        "[0.2, 0.4]): the scaled window's edge lands an ulp outside the run "
        "and the job exits 2"),
}
# the probe inputs that are fixed repros, by probe name
_REPRO = {
    "radius-edge": {"mu": 0.0, "r0": 0.0,
                    "r_grid": {"start": 1.437734, "stop": 2.056757,
                               "num": 100},
                    "compare_simulation": True},
    "window-edge": {"lambda": 1.0, "eps": 0.25},
}

MU_ISOTROPIC = (-1.5, -5.0 / 3.0, -1.0, 0.0, 1.0)
MU_BRANCH = (-0.5, 0.0, 0.5, 1.0, 2.0)
MU_DRAG = (-4.0, -3.0, -2.5)
NOETHER_CASES = ((2.0, -5.0, "g2"), (2.0, -7.0, "half"), (2.0, -5.0, "g1"))


def _r(x: float) -> float:
    return round(x, 6)


class _Draws:
    """Stratified draws per named range, consumed in order."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._left: dict[str, list] = {}

    def uniform(self, key: str, lo: float, hi: float, n: int) -> float:
        if key not in self._left:
            vals = [_r(lo + (hi - lo) * (k + self._rng.random()) / n)
                    for k in range(n)]
            self._rng.shuffle(vals)
            self._left[key] = vals
        return self._left[key].pop()

    def deal(self, key: str, items, n: int):
        """Items repeated evenly over n draws, in shuffled order."""
        if key not in self._left:
            vals = [items[k % len(items)] for k in range(n)]
            self._rng.shuffle(vals)
            self._left[key] = vals
        return self._left[key].pop()

    def sign(self) -> float:
        return 1.0 if self._rng.random() < 0.5 else -1.0


def _angle_cycle(d: _Draws, cycles: int,
                 index: int) -> list[tuple[str, str, dict]]:
    # fig1/fig2 curves make up most of the pool, so both latency
    # percentiles fall inside their cluster rather than at its edge
    n_fig, n_short = 4 * cycles, 2 * cycles
    # the README figure runs three full curves, so it is in the pool once
    out = [("figure-readme", "figure", README["figure"])] if index == 0 else []
    for k in range(4):
        for which, lo, hi in (("fig1", 1.1, 2.0), ("fig2", -2.0, -1.1),
                              ("fig3", -0.95, 0.8)):
            n = n_short if which == "fig3" else n_fig
            if which == "fig3" and k % 2:
                continue
            ic = [d.sign() * d.uniform(which + "psi", 0.05, 0.15, n),
                  d.sign() * d.uniform(which + "dpsi", 0.05, 0.15, n)]
            out.append((which, "figure", {
                "which": which,
                "I_values": [d.uniform(which + "I", lo, hi, n)],
                "initial_conditions": [ic]}))
        if k % 2:
            continue
        # theta starts at 0, where c*cos(theta) peaks, so the lrr integral
        # keeps r^2*thetadot away from zero and r away from the floor
        out.append(("simulate", "simulate", {
            "system": {"family": "ermakov",
                       "w": d.uniform("w", 0.0, 0.2, n_short),
                       "V": {"family": "cos",
                             "c": d.uniform("c", 0.5, 1.5, n_short)}},
            "initial_state": {"r": d.uniform("r", 0.9, 1.1, n_short),
                              "rdot": d.uniform("rdot", -0.1, 0.1, n_short),
                              "thetadot": d.uniform("thd", 0.4, 0.7,
                                                    n_short)},
            "integrator": {"t_span": [0.0, 100.0], "rel_tol": 1e-10,
                           "abs_tol": 1e-12},
            "events": [{"type": "r_floor", "threshold": 1e-3}],
            "invariants": ["lrr", "angular_momentum"]}))
    out.append(("simulate-readme", "simulate", README["simulate"]))
    return out


def _normal_form_cycle(d: _Draws, cycles: int,
                       index: int) -> list[tuple[str, str, dict]]:
    n_iso = len(MU_ISOTROPIC) * cycles
    n_special = cycles + (cycles + 1) // 2
    out = [("map-ef-readme", "map-ef", README["map-ef"])]
    for k, mu in enumerate(MU_ISOTROPIC):
        out.append(("map-ef", "map-ef", {
            "system": {"family": "isotropic", "mu": mu},
            "initial_state": {"r": d.uniform("r", 0.9, 1.1, n_iso),
                              "rdot": d.uniform("rdot", 0.05, 0.15, n_iso),
                              "thetadot": d.uniform("thd", 0.5, 0.7, n_iso)},
            "integrator": {"method": "rk4", "h": 1e-3,
                           "t_span": [0.0, 8.0]}}))
        if k == 1:
            # even cycles run both A10 lambdas, odd ones lambda = -1 only,
            # which brings the pool's regular jobs to 40; eps stays at
            # A10's 0.3, away from the window-edge defect
            for lam in (1.0, -1.0) if index % 2 == 0 else (-1.0,):
                out.append(("special", "special", {
                    "lambda": lam,
                    "run": {"initial": [d.uniform("T0", 0.4, 0.6, n_special),
                                        0.0]}}))
            if index == 0:
                out.append(("special-readme", "special", README["special"]))
            out.append(("window-edge", "special", _REPRO["window-edge"]))
        if k == 3:
            n, m, gen = NOETHER_CASES[index % len(NOETHER_CASES)]
            out.append(("noether", "noether", {
                "n": n, "m": m, "generator": gen,
                "run": {"initial": [d.uniform("nT0", 0.9, 1.1, cycles),
                                    d.uniform("nTp0", -0.1, 0.1, cycles)],
                        "J_span": [1.0, d.uniform("nJ1", 2.5, 3.0, cycles)]}}))
            if index == 0:
                out.append(("noether-readme", "noether", README["noether"]))
    out.append(("map-ef-drag", "map-ef", {
        "system": {"family": "isotropic_drag",
                   "mu": d.deal("dmu", MU_DRAG, cycles),
                   "nu": d.uniform("nu", -3.0, -0.5, cycles)},
        "initial_state": {"r": 1.0, "rdot": d.uniform("drdot", 0.02, 0.1, cycles),
                          "thetadot": 0.6},
        "integrator": {"method": "rk4", "h": 1e-3, "t_span": [0.0, 8.0]}}))
    return out


def _grid(d: _Draws, kind: str, n: int, start: float | None = None) -> dict:
    if start is None:
        start = d.uniform(kind + "start", 1.0, 1.5, n)
    return {"start": start,
            "stop": _r(start + d.uniform(kind + "length", 0.5, 1.5, n)),
            "num": int(d.uniform(kind + "num", 100.0, 301.0, n))}


def _branch_cycle(d: _Draws, cycles: int) -> list[tuple[str, str, dict]]:
    # each kind draws from its own strata, so every pool holds the same
    # spread of grid sizes per kind and the latency percentiles stay put
    n_smooth, n_compare = 15 * cycles, 4 * cycles
    out = [("orbit-readme", "orbit", README["orbit"])]
    for k in range(20):
        if k % 5 == 4:
            # about one job in five checks the quadrature against rk45; the
            # grid starts at A9's r = 1, where the seeded state lands exactly
            # on the first radius, away from the radius-edge defect
            out.append(("orbit-compare", "orbit", {
                "mu": d.deal("cmu", MU_BRANCH, n_compare), "r0": 0.0,
                "r_grid": _grid(d, "c", n_compare, start=1.0),
                "compare_simulation": True}))
        elif k == 7:
            # r0 at the grid start puts an integrable singularity on the
            # first panel's endpoint
            grid = _grid(d, "p", cycles)
            out.append(("endpoint-singular", "orbit", {
                "mu": d.deal("pmu", MU_BRANCH, cycles), "r0": grid["start"],
                "r_grid": grid}))
        else:
            grid = _grid(d, "s", n_smooth)
            frac = d.uniform("r0frac", 0.0, 0.9, n_smooth)
            out.append(("orbit", "orbit", {
                "mu": d.deal("smu", MU_BRANCH, n_smooth),
                "r0": _r(frac * grid["start"]), "r_grid": grid}))
    out.append(("radius-edge", "orbit", _REPRO["radius-edge"]))
    return out


def make_pool(workload: str, seed: int) -> list[dict]:
    """The workload's job pool for this seed; equal seeds give equal pools."""
    if workload not in CYCLES:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {sorted(CYCLES)}")
    cycles = CYCLES[workload]
    d = _Draws(random.Random(f"{workload}:{seed}"))
    specs = []
    for i in range(cycles):
        if workload == "angle-rk45":
            specs += _angle_cycle(d, cycles, i)
        elif workload == "normal-form-rk4":
            specs += _normal_form_cycle(d, cycles, i)
        else:
            specs += _branch_cycle(d, cycles)
    jobs = []
    for i, (kind, command, config) in enumerate(specs):
        # normal-form tables alternate between csv and json writers
        fmt = "json" if workload == "normal-form-rk4" and i % 2 else "csv"
        jobs.append({"id": f"{i:03d}-{kind}", "command": command,
                     "config": copy.deepcopy(config), "format": fmt,
                     "probe": kind if kind in PROBES else ""})
    return jobs
