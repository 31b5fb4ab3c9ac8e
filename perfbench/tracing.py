"""Instrumentation the benchmark installs on curlforce from outside.

Nothing under src/ knows about it.  Every wrapper replaces a module
attribute at the name its caller looks up at call time, and restore()
puts the originals back.

Always installed: the quadrature evaluation budget.  analysis.quad_adaptive
is replaced by a wrapper that counts integrand evaluations per job and
raises BudgetExceeded past the budget.  The program catches no such
exception, so a job whose quadrature cost is unbounded ends with it and is
counted as failed instead of running out the clock.

Installed for a traced pass only: spans around the calls into each layer.
  cli.integrate              -> integrate.integrate (span), and the rhs and
                                every Event.fn passed to it (aggregated)
  cli.resample, analysis.resample -> core.resample (span)
  analysis.<public function> -> analysis.<name> (span); quad_adaptive and
                                its integrand are aggregated
  invariants.<public function> -> invariants.<name> (span); evaluators it
                                returns are aggregated
  AngleFunction.__call__     -> systems.angle_fn (aggregated)
A span keeps (name, start, end, parent span, job).  Calls made hundreds of
thousands of times per pass (right-hand sides, integrands) are aggregated
per (parent span, name) into a count, total time and self time instead.
Self time is a call's duration minus the time of the wrapped calls made
inside it.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

from curlforce import analysis, cli, invariants, systems
from curlforce.integrate import IntegrationError

_clock = time.perf_counter


class BudgetExceeded(Exception):
    """A job's quadrature used more integrand evaluations than allowed."""


class Tracer:
    """In-memory spans plus per-name totals of count, time and self time."""

    def __init__(self) -> None:
        self.spans: list = []
        self.leaves: dict = {}
        self.totals: dict = {}
        self.counts: dict = defaultdict(int)
        self.job: str | None = None
        # frames are [time spent in wrapped children, index of the nearest
        # kept span]; the bottom frame stands for "outside any span"
        self._stack: list = [[0.0, -1]]

    def run(self, name: str, keep: bool, fn, *args, **kwargs):
        stack = self._stack
        parent = stack[-1]
        if keep:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = parent[1]
        frame = [0.0, index]
        stack.append(frame)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            stack.pop()
            dur = t1 - t0
            parent[0] += dur
            own = dur - frame[0]
            tot = self.totals.get(name)
            if tot is None:
                tot = self.totals[name] = [0, 0.0, 0.0]
            tot[0] += 1
            tot[1] += dur
            tot[2] += own
            if keep:
                self.spans[index] = (name, t0, t1, parent[1], self.job)
            else:
                agg = self.leaves.get((index, name))
                if agg is None:
                    agg = self.leaves[(index, name)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += own

    def wrap(self, name: str, fn, keep: bool):
        run = self.run

        def traced(*args, **kwargs):
            return run(name, keep, fn, *args, **kwargs)

        return traced

    def total(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of one span or leaf name."""
        return tuple(self.totals.get(name, (0, 0.0, 0.0)))

    def layer(self, prefix: str) -> tuple[int, float]:
        """(calls, self seconds) summed over names starting with prefix."""
        calls = sum(v[0] for k, v in self.totals.items() if k.startswith(prefix))
        own = sum(v[2] for k, v in self.totals.items() if k.startswith(prefix))
        return calls, own

    def write(self, path: Path) -> None:
        doc = {
            "span_fields": ["name", "start_s", "end_s", "parent", "job"],
            "spans": self.spans,
            "aggregate_fields": ["parent", "name", "calls", "total_s",
                                 "self_s"],
            "aggregates": [[p, n, *v] for (p, n), v in self.leaves.items()],
        }
        path.write_text(json.dumps(doc) + "\n")


def _public_functions(module) -> dict:
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Instruments:
    """Patches on curlforce's modules; restore() undoes all of them."""

    def __init__(self, eval_budget: int, tracer: Tracer | None = None):
        self.eval_budget = eval_budget
        self.tracer = tracer
        self.job_evals = 0
        self.total_evals = 0
        self.budget_hits = 0
        self._patches: list = []
        self._install_budget()
        if tracer is not None:
            self._install_trace(tracer)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def start_job(self, job_id: str) -> None:
        self.total_evals += self.job_evals
        self.job_evals = 0
        if self.tracer is not None:
            self.tracer.job = job_id

    def evals_so_far(self) -> int:
        return self.total_evals + self.job_evals

    def _install_budget(self) -> None:
        quad = analysis.quad_adaptive
        tracer = self.tracer

        def budgeted_quad(f, a, b, tol=1e-10):
            def integrand(x):
                self.job_evals += 1
                if self.job_evals > self.eval_budget:
                    self.budget_hits += 1
                    raise BudgetExceeded(
                        f"more than {self.eval_budget} integrand evaluations")
                return f(x)

            if tracer is None:
                return quad(integrand, a, b, tol)
            return tracer.run("analysis.quad_adaptive", False, quad,
                              tracer.wrap("analysis.integrand", integrand,
                                          False), a, b, tol)

        self._patch(analysis, "quad_adaptive", budgeted_quad)

    def _install_trace(self, tracer: Tracer) -> None:
        counts = tracer.counts
        integrate = cli.integrate
        resample = cli.resample

        def count_steps(traj) -> None:
            if traj is not None:
                counts["accepted"] += traj.meta["accepted"]
                counts["rejected"] += traj.meta["rejected"]
                counts["rhs_evals"] += traj.meta["rhs_evals"]

        def traced_integrate(rhs, y0, settings):
            events = tuple(
                dataclasses.replace(ev, fn=tracer.wrap("systems.event", ev.fn,
                                                       False))
                for ev in settings.events)
            settings = dataclasses.replace(settings, events=events)
            try:
                traj = tracer.run("integrate.integrate", True, integrate,
                                  tracer.wrap("systems.rhs", rhs, False), y0,
                                  settings)
            except IntegrationError as exc:
                count_steps(exc.trajectory)
                raise
            count_steps(traj)
            return traj

        def traced_resample(traj, times):
            counts["resample_points"] += len(times)
            return tracer.run("core.resample", True, resample, traj, times)

        self._patch(cli, "integrate", traced_integrate)
        self._patch(cli, "resample", traced_resample)
        self._patch(analysis, "resample", traced_resample)
        # quad_adaptive is the budget wrapper by now, defined outside analysis
        for name, fn in _public_functions(analysis).items():
            self._patch(analysis, name, tracer.wrap(f"analysis.{name}", fn, True))
        for name, fn in _public_functions(invariants).items():
            self._patch(invariants, name, self._traced_invariant(name, fn))
        self._patch(systems.AngleFunction, "__call__",
                    tracer.wrap("systems.angle_fn",
                                systems.AngleFunction.__call__, False))

    def _traced_invariant(self, name: str, fn):
        tracer = self.tracer

        def traced(*args, **kwargs):
            out = tracer.run(f"invariants.{name}", True, fn, *args, **kwargs)
            if inspect.isfunction(out):
                # noether_integral returns the evaluator callers apply per sample
                return tracer.wrap("invariants.evaluator", out, False)
            return out

        return traced


def layer_metrics(tracer: Tracer, inst: Instruments) -> dict[str, float]:
    """Per-layer numbers of one traced pass, keyed by metric name."""

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    c = tracer.counts
    rhs_n, rhs_s, _ = tracer.total("systems.rhs")
    ev_n, ev_s, _ = tracer.total("systems.event")
    int_n, _, int_self = tracer.total("integrate.integrate")
    res_n, res_s, _ = tracer.total("core.resample")
    quad_n, _, quad_self = tracer.total("analysis.quad_adaptive")
    _, chain_s, _ = tracer.total("analysis.integrand")
    inv_n, inv_self = tracer.layer("invariants.")
    evals = inst.evals_so_far()
    accepted, rejected = c["accepted"], c["rejected"]
    residual_s = sum(tracer.total(f"analysis.{n}")[2] for n in (
        "ef_residual", "drag_map_residual", "scaling_map_residual",
        "abel_reduction_residual"))
    return {
        "systems.rhs_calls": rhs_n,
        "systems.rhs_ms": rhs_s * 1e3,
        "systems.rhs_us_per_call": ratio(rhs_s * 1e6, rhs_n),
        "systems.angle_fn_calls": tracer.total("systems.angle_fn")[0],
        "systems.event_calls": ev_n,
        "systems.event_ms": ev_s * 1e3,
        "integrate.calls": int_n,
        "integrate.self_ms": int_self * 1e3,
        "integrate.accepted": accepted,
        "integrate.rejected": rejected,
        "integrate.accept_ratio": ratio(accepted, accepted + rejected),
        "integrate.evals_per_step": ratio(c["rhs_evals"], accepted),
        "integrate.us_per_step": ratio(int_self * 1e6, accepted),
        "core.resample_calls": res_n,
        "core.resample_points": c["resample_points"],
        "core.resample_ms": res_s * 1e3,
        "analysis.quad_calls": quad_n,
        "analysis.quad_evals": evals,
        "analysis.quad_ms": quad_self * 1e3,
        "analysis.quad_us_per_eval": ratio(quad_self * 1e6, evals),
        "analysis.quad_budget_hits": inst.budget_hits,
        "analysis.chain_ms": chain_s * 1e3,
        "analysis.map_ms": tracer.total("analysis.torque_map")[2] * 1e3,
        "analysis.residual_ms": residual_s * 1e3,
        "analysis.root_ms": tracer.total("analysis.power_solution_y0")[2] * 1e3,
        "analysis.self_ms": tracer.layer("analysis.")[1] * 1e3,
        "invariants.calls": inv_n,
        "invariants.ms": inv_self * 1e3,
        "cli.self_ms": tracer.total("cli.main")[2] * 1e3,
    }
