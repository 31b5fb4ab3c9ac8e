"""Explicit Runge-Kutta integration with events and dense sampling.

Two modes are provided behind one interface: an embedded Dormand-Prince
5(4) pair with proportional-integral step control, and a fixed-step
classical RK4.  Accepted nodes keep both state and right-hand side, so
cubic Hermite interpolation (core.resample) works on every step and event
roots can be located by bisection on that interpolant.

The step loop is Python source generated from the tableau (_A, _C, _E)
for each method, state size, event formulas and right-hand-side formula,
the first time a run needs it, and then cached.  The formula's text is
pasted at every stage and its constants are bound at each run, so a stage
calls nothing.  Each event's formula is pasted after every accepted step,
with its names renamed apart from the stage's, and the loop calls Python
only when an event's value changes sign.  State, slope and stage
components are scalar locals (y0, y1, ...), zero tableau terms are
dropped and constants are written with repr, so they round-trip exactly.
Accepted nodes go to flat lists, dim floats a node, so a step builds no
list unless it calls an event function.  Every component keeps the
operations, in order, of elementwise array arithmetic on the whole state:
stage sums add their terms in index order, as do RK4's
h6 * (f + 2 k2 + 2 k3 + k4) and the error norm.  To read a loop (method,
state size, events, formula):

    from curlforce.integrate import _loop
    from curlforce.systems import IsotropicField, polar_rhs
    rhs = polar_rhs(IsotropicField(-1.5))
    print(_loop("rk4", 4, False, rhs.formula).source)

The stepper is deliberately free of platform-dependent branches: repeated
runs with identical inputs produce bit-identical trajectories.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Trajectory, _hermite, bisect_root, real_power

__all__ = [
    "Event",
    "IntegratorSettings",
    "IntegrationError",
    "integrate",
]

# Dormand-Prince 5(4) tableau.  The seventh stage is the FSAL evaluation.
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
# Error weights: fifth-order propagating solution minus the embedded
# fourth-order one.
_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

_SAFETY = 0.9
_ALPHA = 0.7 / 4.0   # exponent on the current scaled error
_BETA = 0.4 / 4.0    # exponent on the previous scaled error
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_UNDERFLOW = 1e-14   # fraction of the integration span
_EVENT_RESOLUTION = 1e-12


class IntegrationError(RuntimeError):
    """Numerical failure; carries the partial trajectory when available."""

    def __init__(self, message: str, trajectory: Trajectory | None = None):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class Event:
    """Named scalar function of (t, state); integration stops at its zero."""

    name: str
    fn: Callable[[float, list[float]], float]


# method -> the step settings it reads, with their defaults.  A setting
# left None takes its default; one the method does not read is refused.
_READS = {"rk45": {"rel_tol": 1e-10, "abs_tol": 1e-12}, "rk4": {"h": 1e-3}}


@dataclass(frozen=True)
class IntegratorSettings:
    method: str = "rk45"
    rel_tol: float | None = None
    abs_tol: float | None = None
    h: float | None = None
    t_span: tuple[float, float] = (0.0, 1.0)
    max_steps: int = 1_000_000
    events: tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        reads = _READS.get(self.method)
        if reads is None:
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("rel_tol", "abs_tol", "h"):
            value = getattr(self, name)
            if name in reads:
                value = reads[name] if value is None else value
                # written as not (x > 0) so that NaN fails each check
                if not (value > 0.0):
                    raise ValueError(f"{name} must be positive")
                object.__setattr__(self, name, value)
            elif value is not None:
                raise ValueError(f"{self.method} does not read {name}")
        t0, t1 = self.t_span
        if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
            raise ValueError("t_span must be finite with t1 > t0")
        if not (self.max_steps >= 1):
            raise ValueError("max_steps must be at least 1")
        object.__setattr__(self, "t_span", (float(t0), float(t1)))
        object.__setattr__(self, "events", tuple(self.events))


def _dense(t0: float, y0: list, f0: list, t1: float, y1: list, f1: list,
           tm: float) -> list:
    """_hermite on lists of floats, one component at a time."""
    return [_hermite(t0, a, b, t1, c, d, tm)
            for a, b, c, d in zip(y0, f0, y1, f1)]


def _event_lines(k: int, formula, dim: int) -> tuple[list, list]:
    """Event k's value at the new node (t_new, z0..) as lines setting e{k},
    and the names of its constants in the loop.

    formula is (args, body, free) as a stage's, its body setting {0}; an
    arg left "" is not read, and None is a body calling fn on a list.
    Every name the body binds, and each of its args and constants, is
    renamed e{k}_name, so an event's constants never meet the stage's or
    another event's.
    """
    state = ", ".join(f"s{c}" for c in range(dim))
    args, body, free = formula or (
        ("t_", *(f"s{c}" for c in range(dim))),
        f"{{0}} = float(fn(t_, [{state}]))", ("fn",))
    text = body.format(f"e{k}")
    code = compile("def body():\n" + "".join(
        f"    {line}\n" for line in text.splitlines()), "<event>", "exec")
    names = {*code.co_consts[0].co_varnames, *args, *free} - {"", f"e{k}"}
    if names:
        text = re.sub(r"(?<![\w.])(" + "|".join(sorted(names)) + r")(?!\w)",
                      rf"e{k}_\1", text)
    feed = ([f"e{k}_{args[0]} = t_new"] if args[0] else []) + [
        f"e{k}_{a} = z{c}" for c, a in enumerate(args[1:]) if a]
    return feed + text.splitlines(), [f"e{k}_{name}" for name in free]


def _loop_source(method: str, dim: int, events=(), stage=None) -> str:
    """Python source of the step loop for one method, state size, events
    and stage.

    stage is (args, body, free): body is the text of one right-hand-side
    evaluation.  It reads the stage time args[0] (none if empty) and state
    args[1:], and assigns the slopes {0}..{dim-1}; the loop pastes it at
    every stage.  free names the constants the body reads.  None is a body
    calling kernel.  events holds each event's formula, as _event_lines
    takes it (a false value: no events); the loop pastes each after every
    accepted step.  make(*free, *each event's free) binds the constants
    and returns loop(stop_on_step, gp, ts, ys, fs, t, y, f, t1, h,
    rel_tol, abs_tol, max_steps, h_min).

    The loop steps from the node (t, y, f), appends each accepted node to
    the flat lists ts, ys and fs (ys and fs hold dim floats a node), and
    returns (termination, t, accepted, rejected, stage evaluations);
    "max-steps" and "not-finite" are failures at that t, and a step that
    cannot advance t (or, rk45, is below h_min) ends it as "step-underflow".
    gp holds the events' values at t.  Only when an event's value changes
    sign, or reaches zero from a nonzero value, over an accepted step does
    the loop call stop_on_step(t_new, y_new, f_new, gp, g), which records
    the stop and returns the evaluations it made; the run then ends there.
    """
    comps = range(dim)
    events = events or ()

    def vec(fmt: str) -> str:
        return ", ".join(fmt.format(c) for c in comps)

    args, text, free = stage or (
        ("t_", *(f"s{c}" for c in comps)),
        f"[{', '.join(f'{{{c}}}' for c in comps)}] = kernel(t_, [{vec('s{}')}])",
        ("kernel",))

    def totals(terms: list) -> list:
        # y_c plus each (coefficient, slope) term, in index order
        return [" + ".join([f"y{c}"] + [f"{b} * {k}{c}" for b, k in terms])
                for c in comps]

    def stage(slope: str, time: str, state: list) -> list:
        # the body evaluated at time and state, one expression a component
        lines = ["n_evals += 1"] + ([f"{args[0]} = {time}"] if args[0] else [])
        lines += [f"{a} = {x}" for a, x in zip(args[1:], state)]
        return lines + text.format(*(f"{slope}{c}" for c in comps)).splitlines()

    def check(*slopes: str) -> str:
        return " and ".join(f"isfinite({k}{c})" for k in slopes for c in comps)

    def finish(time: str) -> list:
        # z is the new state and g its slope, the next step's f
        return stage("g", time, [f"z{c}" for c in comps])

    done = "n_accept, n_reject, n_evals"
    reject = ["    n_reject += 1", "    h = 0.5 * h_use", "    continue"]
    rk4 = method == "rk4"
    body = ["attempts += 1", "if attempts > max_steps:",
            f"    return 'max-steps', t, {done}"]
    if not rk4:
        body += ["if h < h_min:", f"    return 'step-underflow', t, {done}"]
    # a remainder up to the stretch joins the final step: no step dust
    stretch = 1.4 if rk4 else 1.05
    body += ["remaining = t1 - t", f"if remaining <= {stretch!r} * h:",
             "    h_use = remaining", "    t_new = t1",
             "else:", "    h_use = h", "    t_new = t + h_use",
             "if not t_new > t:", f"    return 'step-underflow', t, {done}"]
    if rk4:
        body += ["hh = 0.5 * h_use",
                 *stage("k2_", "t + 0.5 * h_use", totals([("hh", "f")])),
                 *stage("k3_", "t + 0.5 * h_use", totals([("hh", "k2_")])),
                 *stage("k4_", "t_new", totals([("h_use", "k3_")])),
                 "h6 = h_use / 6.0"]
        body += [f"z{c} = y{c} + h6 * (f{c} + 2.0 * k2_{c} + 2.0 * k3_{c}"
                 f" + k4_{c})" for c in comps]
        body += [*finish("t_new"), f"if not ({check('z', 'g')}):",
                 f"    return 'not-finite', t_new, {done}"]
    else:
        # k1 is f; the stage-7 state is the fifth-order solution (FSAL)
        slopes = ["f", "k2_", "k3_", "k4_", "k5_", "k6_", "g"]
        for i in range(1, 7):
            terms = [(f"b{j + 1}", slopes[j]) for j, a in enumerate(_A[i]) if a]
            body += [f"b{j + 1} = h_use * {a!r}" for j, a in enumerate(_A[i]) if a]
            time = f"t + {_C[i]!r} * h_use"
            if i < 6:
                body += stage(slopes[i], time, totals(terms))
            else:
                body += [f"z{c} = {x}" for c, x in enumerate(totals(terms))]
                body += finish(time)
            body += [f"if not ({check(slopes[i])}):", *reject]
        # RMS of the scaled error; u >= w is False when w is nan, so nan
        # propagates as it does through np.maximum
        body.append("sq = 0.0")
        for c in comps:
            e = " + ".join(f"{w!r} * {k}{c}" for w, k in zip(_E, slopes) if w)
            body += [f"u = abs(y{c})", f"w = abs(z{c})",
                     f"q = (abs(h_use * ({e}))\n"
                     "     / (abs_tol + rel_tol * (u if u >= w else w)))",
                     "sq += q * q"]
        grow = f"{_SAFETY!r} * err ** {-_ALPHA!r}"
        body += [f"err = sqrt(sq / {dim})", "if not isfinite(err):", *reject,
                 "err = max(err, 1e-16)", "if err > 1.0:", "    n_reject += 1",
                 f"    h = h_use * max({_FAC_MIN!r}, min(1.0, {grow}))",
                 "    continue", f"fac = {grow} * err_prev ** {_BETA!r}",
                 "err_prev = max(err, 1e-4)",
                 f"h = h_use * max({_FAC_MIN!r}, min({_FAC_MAX!r}, fac))"]
    body.append("n_accept += 1")
    head = ""
    if events:
        old = ", ".join(f"ep{k}" for k in range(len(events)))
        new = ", ".join(f"e{k}" for k in range(len(events)))
        for k, formula in enumerate(events):
            lines, names = _event_lines(k, formula, dim)
            body += lines
            free = (*free, *names)
        crossed = " or ".join(f"ep{k} * e{k} < 0.0 or (e{k} == 0.0 and ep{k}"
                              " != 0.0)" for k in range(len(events)))
        body += [f"if {crossed}:",
                 f"    n_evals += stop_on_step(t_new, [{vec('z{}')}], "
                 f"[{vec('g{}')}], [{old}], [{new}])",
                 f"    return 'event', t_new, {done}", f"{old} = {new}"]
        head = f"        [{old}] = gp\n"
    body += ["t = t_new", f"{vec('y{}')} = {vec('z{}')}",
             f"{vec('f{}')} = {vec('g{}')}",
             "ts.append(t)", f"ys += ({vec('y{}')},)",
             f"fs += ({vec('f{}')},)"]
    return (
        f"def make({', '.join(free)}):\n"
        "    def loop(stop_on_step, gp, ts, ys, fs, t, y, f, t1, h, rel_tol,\n"
        "             abs_tol, max_steps, h_min):\n"
        f"        [{vec('y{}')}] = y\n        [{vec('f{}')}] = f\n" + head +
        "        n_accept = n_reject = n_evals = attempts = 0\n"
        "        err_prev = 1e-4\n        while t < t1:\n            "
        + "\n".join(body).replace("\n", "\n            ")
        + f"\n        return 'completed', t, {done}\n    return loop\n")


@functools.cache
def _compile(source: str, name: str):
    """The function make that source defines, compiled once per text."""
    namespace = {"isfinite": math.isfinite, "sqrt": math.sqrt, "nan": math.nan,
                 "inf": math.inf, "cos": math.cos, "sin": math.sin,
                 "real_power": real_power}
    exec(compile(source, name, "exec"), namespace)
    make = namespace["make"]
    make.source = source
    return make


@functools.cache
def _loop(method: str, dim: int, events=(), stage=None):
    """make(*free) -> the step loop of one key; its text is make.source."""
    name = f"<{method} loop, {dim} components, {len(events or ())} events>"
    return _compile(_loop_source(method, dim, events, stage), name)


def integrate(rhs: Callable[[float, np.ndarray], np.ndarray],
              y0: Sequence[float],
              settings: IntegratorSettings) -> Trajectory:
    """Integrate dy/dt = rhs(t, y) over settings.t_span.

    rk4 steps by settings.h; rk45 starts with a step of a hundredth of the
    span and adapts it to rel_tol and abs_tol.  Returns a Trajectory whose
    termination field is one of "completed", "event" and "step-underflow",
    the last when t + step rounds to t (rk45: or a step is below 1e-14 of
    the span).
    Exceeding max_steps raises IntegrationError with the partial trajectory
    attached, as does a non-finite right-hand side at an accepted point.

    rhs is any callable rhs(t, y) -> array-like taking an ndarray y.  The
    states here have two to four components, where numpy's per-call cost
    outweighs the arithmetic, so each step runs on Python floats.  An rhs
    may expose the same formula as a float kernel, an attribute
    rhs.kernel(t, y) that takes a float and a list of floats and returns a
    new list of floats; the step loop then calls the kernel and builds no
    ndarray per stage.  An rhs with a kernel may also expose its text,
    rhs.formula = (args, body, free) as in _loop_source, and the values of
    the free names, rhs.constants; the loop then pastes the body at every
    stage and calls nothing.  The systems.*_rhs builders expose all three.
    Any other callable gets an ndarray of the stage state.  rhs itself is
    called once at the initial state to check its shape and finiteness; a
    kernel whose output changes length later raises ValueError.

    Event functions receive the state as a list of floats, as kernels do.
    An event function may expose its text in the same way, fn.formula =
    (args, body, free) with a body that sets {0} (an arg left "" is not
    read), and fn.constants; the loop then pastes the body after every
    accepted step, and calls fn only to bisect a sign change along the
    step's interpolant.  Any other event function is called at every
    accepted node.  The systems.*_event builders expose both.
    """
    t0, t1 = settings.t_span
    span = t1 - t0
    y_arr = np.array(y0, dtype=float)
    if y_arr.ndim != 1 or y_arr.size == 0:
        raise ValueError("y0 must be a non-empty one-dimensional sequence")
    f_arr = np.asarray(rhs(t0, y_arr), dtype=float)
    if f_arr.shape != y_arr.shape:
        raise ValueError("rhs shape does not match the state")
    if not np.all(np.isfinite(f_arr)):
        raise IntegrationError("right-hand side not finite at the initial state")

    kernel = getattr(rhs, "kernel", None)
    if kernel is None:
        asarray, array = np.asarray, np.array

        def kernel(tc: float, yc: list) -> list:
            return asarray(rhs(tc, array(yc)), dtype=float).tolist()

    y = y_arr.tolist()
    f = f_arr.tolist()
    dim = len(y)
    ts, ys, fs = [t0], list(y), list(f)
    events = settings.events
    events_log: list[tuple[float, str]] = []

    def stop_on_step(t_new: float, y_new: list, f_new: list, g_old: list,
                     g_new: list) -> int:
        # an event changed sign on [t, t_new]: record the earliest crossing
        # and the sample there; returns the right-hand-side evaluations made
        t = ts[-1]
        step = (t, ys[-dim:], fs[-dim:], t_new, y_new, f_new)
        stop_at = None
        stop_name = None
        for ev, g0, g1 in zip(events, g_old, g_new):
            if (g0 * g1 < 0.0) or (g1 == 0.0 and g0 != 0.0):
                # bisect the event function along the step's interpolant
                te = bisect_root(lambda tm: ev.fn(tm, _dense(*step, tm)),
                                 t, t_new, g0, _EVENT_RESOLUTION)
                if stop_at is None or te < stop_at:
                    stop_at, stop_name = te, ev.name
        events_log.append((stop_at, stop_name))
        if not stop_at > t:
            return 0
        y_stop = _dense(*step, stop_at)
        ts.append(stop_at)
        ys.extend(y_stop)
        fs.extend(kernel(stop_at, y_stop))
        return 1

    h = settings.h if settings.method == "rk4" else span / 100.0
    formula = getattr(rhs, "formula", None)
    texts = tuple(getattr(ev.fn, "formula", None) for ev in events)
    constants = [*(rhs.constants if formula else (kernel,))]
    for ev, text in zip(events, texts):
        constants += ev.fn.constants if text else (ev.fn,)
    loop = _loop(settings.method, dim, texts, formula)(*constants)
    termination, t, n_accept, n_reject, n_evals = loop(
        stop_on_step, [float(ev.fn(t0, y)) for ev in events], ts, ys, fs,
        t0, y, f, t1, h, settings.rel_tol, settings.abs_tol,
        settings.max_steps, _UNDERFLOW * span)
    failure = {"max-steps": f"max_steps={settings.max_steps} exceeded at t={t}",
               "not-finite": f"right-hand side not finite near t={t}",
               }.get(termination)
    traj = Trajectory(
        t=np.array(ts), y=np.array(ys).reshape(-1, dim),
        dy=np.array(fs).reshape(-1, dim),
        termination="aborted" if failure else termination,
        events=tuple(events_log),
        meta={"method": settings.method,
              **{k: getattr(settings, k) for k in _READS[settings.method]},
              "t_span": (t0, t1),
              "accepted": n_accept, "rejected": n_reject,
              "rhs_evals": 1 + n_evals})
    if failure:
        raise IntegrationError(failure, trajectory=traj)
    return traj
