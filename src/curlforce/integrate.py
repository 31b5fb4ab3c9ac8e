"""Explicit Runge-Kutta integration with events and dense sampling.

Two modes are provided behind one interface: an embedded Dormand-Prince
5(4) pair with proportional-integral step control, and a fixed-step
classical RK4.  Accepted nodes keep both state and right-hand side, so
cubic Hermite interpolation (core.resample) works on every step and event
roots can be located by bisection on that interpolant.

The stepper is deliberately free of platform-dependent branches: repeated
runs with identical inputs produce bit-identical trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Trajectory, _hermite, bisect_root

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
((_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65), (_A71, _A72, _A73, _A74, _A75, _A76)) = _A[1:]
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _E

_SAFETY = 0.9
_ALPHA = 0.7 / 4.0   # exponent on the current scaled error
_BETA = 0.4 / 4.0    # exponent on the previous scaled error
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_UNDERFLOW = 1e-14   # fraction of the integration span
_EVENT_RESOLUTION = 1e-12


class _StageNotFinite(Exception):
    """A stage's right-hand side is not finite; the step is rejected."""


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


@dataclass(frozen=True)
class IntegratorSettings:
    method: str = "rk45"
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h: float = 1e-3
    t_span: tuple[float, float] = (0.0, 1.0)
    max_steps: int = 1_000_000
    h0: float | None = None
    events: tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        method = self.method.lower()
        if method in ("rk45", "embedded-rk45"):
            object.__setattr__(self, "method", "rk45")
        elif method in ("rk4", "fixed-rk4"):
            object.__setattr__(self, "method", "rk4")
        else:
            raise ValueError(f"unknown method {self.method!r}")
        # written as not (x > 0) so that NaN fails each check
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not (self.h > 0.0 and (self.h0 is None or self.h0 > 0.0)):
            raise ValueError("step sizes must be positive")
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


def integrate(rhs: Callable[[float, np.ndarray], np.ndarray],
              y0: Sequence[float],
              settings: IntegratorSettings) -> Trajectory:
    """Integrate dy/dt = rhs(t, y) over settings.t_span.

    Returns a Trajectory whose termination field is one of "completed",
    "event" and "step-underflow".  Exceeding max_steps raises
    IntegrationError with the partial trajectory attached, as does a
    non-finite right-hand side at an accepted point.

    rhs is any callable rhs(t, y) -> array-like taking an ndarray y.  The
    states here have two to four components, where numpy's per-call cost
    outweighs the arithmetic, so each step runs on lists of Python floats.
    An rhs may expose the same formula as a float kernel, an attribute
    rhs.kernel(t, y) that takes a float and a list of floats and returns a
    new list of floats; the step loop then calls the kernel and builds no
    ndarray per stage.  The systems.*_rhs builders all do.  Any other
    callable gets an ndarray of the stage state.  rhs itself is called once
    at the initial state to check its shape and finiteness.  Event
    functions receive the state as a list of floats, as kernels do.  Each
    stage, error and Hermite interpolant sum adds its terms in index order,
    one component at a time, so every component gets the same operations
    as in elementwise numpy arithmetic on the whole state.
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

    isfinite = math.isfinite
    kernel = getattr(rhs, "kernel", None)
    if kernel is None:
        asarray, array = np.asarray, np.array

        def kernel(tc: float, yc: list) -> list:
            return asarray(rhs(tc, array(yc)), dtype=float).tolist()

    # rhs at (tc, yc) as a list of floats; rejects the step when a value is
    # not finite.  Every kernel call adds one to n_evals.
    def stage(tc: float, yc: list) -> list:
        nonlocal n_evals
        n_evals += 1
        fc = kernel(tc, yc)
        if not all(map(isfinite, fc)):
            raise _StageNotFinite
        return fc

    y = y_arr.tolist()
    f = f_arr.tolist()
    dim = len(y)
    ts = [t0]
    ys = [y]
    fs = [f]
    events = settings.events
    events_log: list[tuple[float, str]] = []
    g_prev = [float(ev.fn(t0, y)) for ev in events]
    n_accept = 0
    n_reject = 0
    n_evals = 1
    termination = "completed"

    fixed = settings.method == "rk4"
    rel_tol = settings.rel_tol
    abs_tol = settings.abs_tol
    h = settings.h if fixed else min(settings.h0 or span / 100.0, span)
    err_prev = 1e-4
    t = t0

    def _build(term: str) -> Trajectory:
        meta = {
            "method": settings.method,
            "rel_tol": rel_tol,
            "abs_tol": abs_tol,
            "t_span": (t0, t1),
            "accepted": n_accept,
            "rejected": n_reject,
            "rhs_evals": n_evals,
        }
        return Trajectory(
            t=np.array(ts), y=np.array(ys), dy=np.array(fs),
            termination=term, events=tuple(events_log), meta=meta,
        )

    attempts = 0
    while t < t1:
        attempts += 1
        if attempts > settings.max_steps:
            raise IntegrationError(
                f"max_steps={settings.max_steps} exceeded at t={t}",
                trajectory=_build("aborted"),
            )
        if not fixed and h < _UNDERFLOW * span:
            termination = "step-underflow"
            break
        remaining = t1 - t
        # absorb any sub-step remainder into the final step so accumulated
        # rounding never produces a microscopic trailing step
        stretch = 1.4 if fixed else 1.05
        if remaining <= stretch * h:
            h_use = remaining
            final = True
        else:
            h_use = h
            final = False
        t_new = t1 if final else t + h_use

        if fixed:
            hh = 0.5 * h_use
            k2 = kernel(t + 0.5 * h_use, [a + hh * b for a, b in zip(y, f)])
            k3 = kernel(t + 0.5 * h_use, [a + hh * b for a, b in zip(y, k2)])
            k4 = kernel(t_new, [a + h_use * b for a, b in zip(y, k3)])
            h6 = h_use / 6.0
            y_new = [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                     for a, b1, b2, b3, b4 in zip(y, f, k2, k3, k4)]
            f_new = kernel(t_new, y_new)
            n_evals += 4
            if not (all(map(isfinite, y_new)) and all(map(isfinite, f_new))):
                raise IntegrationError(
                    f"right-hand side not finite near t={t_new}",
                    trajectory=_build("aborted"))
        else:
            # Stage sums add only the nonzero _A terms, in index order.
            hu = h_use
            k1 = f
            try:
                b1 = hu * _A21
                k2 = stage(t + _C[1] * hu, [
                    u + b1 * v1 for u, v1 in zip(y, k1)])
                b1, b2 = hu * _A31, hu * _A32
                k3 = stage(t + _C[2] * hu, [
                    u + b1 * v1 + b2 * v2
                    for u, v1, v2 in zip(y, k1, k2)])
                b1, b2, b3 = hu * _A41, hu * _A42, hu * _A43
                k4 = stage(t + _C[3] * hu, [
                    u + b1 * v1 + b2 * v2 + b3 * v3
                    for u, v1, v2, v3 in zip(y, k1, k2, k3)])
                b1, b2, b3, b4 = hu * _A51, hu * _A52, hu * _A53, hu * _A54
                k5 = stage(t + _C[4] * hu, [
                    u + b1 * v1 + b2 * v2 + b3 * v3 + b4 * v4
                    for u, v1, v2, v3, v4 in zip(y, k1, k2, k3, k4)])
                b1, b2, b3, b4, b5 = (hu * _A61, hu * _A62, hu * _A63,
                                      hu * _A64, hu * _A65)
                k6 = stage(t + _C[5] * hu, [
                    u + b1 * v1 + b2 * v2 + b3 * v3 + b4 * v4 + b5 * v5
                    for u, v1, v2, v3, v4, v5 in zip(y, k1, k2, k3, k4, k5)])
                # _A72 is zero.  The stage-7 state is the fifth-order
                # solution and its slope the next step's k1 (FSAL).
                b1, b3, b4, b5, b6 = (hu * _A71, hu * _A73, hu * _A74,
                                      hu * _A75, hu * _A76)
                y_new = [u + b1 * v1 + b3 * v3 + b4 * v4 + b5 * v5 + b6 * v6
                         for u, v1, v3, v4, v5, v6
                         in zip(y, k1, k3, k4, k5, k6)]
                f_new = stage(t + _C[6] * hu, y_new)
            except _StageNotFinite:
                n_reject += 1
                h = 0.5 * h_use
                continue
            # RMS of the scaled error; _E2 is zero.  u >= w is False when w
            # is nan, so nan propagates as it does through np.maximum.
            sq = 0.0
            for v1, v3, v4, v5, v6, v7, u, w in zip(k1, k3, k4, k5, k6,
                                                     f_new, y, y_new):
                u = abs(u)
                w = abs(w)
                q = (abs(hu * (_E1 * v1 + _E3 * v3 + _E4 * v4 + _E5 * v5
                               + _E6 * v6 + _E7 * v7))
                     / (abs_tol + rel_tol * (u if u >= w else w)))
                sq += q * q
            err = math.sqrt(sq / dim)
            if not isfinite(err):
                n_reject += 1
                h = 0.5 * h_use
                continue
            err = max(err, 1e-16)
            if err > 1.0:
                n_reject += 1
                h = h_use * max(_FAC_MIN, min(1.0, _SAFETY * err ** (-_ALPHA)))
                continue
            fac = _SAFETY * err ** (-_ALPHA) * err_prev ** _BETA
            err_prev = max(err, 1e-4)
            h = h_use * max(_FAC_MIN, min(_FAC_MAX, fac))

        n_accept += 1
        if events:
            # Accepted step; look for event crossings on [t, t_new].
            g_new = [float(ev.fn(t_new, y_new)) for ev in events]
            step = (t, y, f, t_new, y_new, f_new)
            stop_at = None
            stop_name = None
            for ev, g0, g1 in zip(events, g_prev, g_new):
                if (g0 * g1 < 0.0) or (g1 == 0.0 and g0 != 0.0):
                    # bisect the event function along the step's interpolant
                    te = bisect_root(lambda tm: ev.fn(tm, _dense(*step, tm)),
                                     t, t_new, g0, _EVENT_RESOLUTION)
                    if stop_at is None or te < stop_at:
                        stop_at, stop_name = te, ev.name
            if stop_at is not None:
                if stop_at > ts[-1]:
                    ts.append(stop_at)
                    ys.append(_dense(*step, stop_at))
                    fs.append(kernel(stop_at, ys[-1]))
                    n_evals += 1
                events_log.append((stop_at, stop_name))
                termination = "event"
                break
            g_prev = g_new

        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
        fs.append(f)

    return _build(termination)
