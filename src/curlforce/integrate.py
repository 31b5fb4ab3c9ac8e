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
    fn: Callable[[float, np.ndarray], float]


@dataclass(frozen=True)
class IntegratorSettings:
    method: str = "rk45"
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h: float = 1e-3
    t_span: tuple[float, float] = (0.0, 1.0)
    max_steps: int = 1_000_000
    h_max: float = math.inf
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
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if (self.h <= 0.0 or self.h_max <= 0.0
                or (self.h0 is not None and self.h0 <= 0.0)):
            raise ValueError("step sizes must be positive")
        t0, t1 = self.t_span
        if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
            raise ValueError("t_span must be finite with t1 > t0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        object.__setattr__(self, "t_span", (float(t0), float(t1)))
        object.__setattr__(self, "events", tuple(self.events))


def _error_norm(err_vec, y_old, y_new, rel_tol, abs_tol):
    scale = abs_tol + rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    q = err_vec / scale
    return float(math.sqrt(float(np.mean(q * q))))


def integrate(rhs: Callable[[float, np.ndarray], np.ndarray],
              y0: Sequence[float],
              settings: IntegratorSettings) -> Trajectory:
    """Integrate dy/dt = rhs(t, y) over settings.t_span.

    Returns a Trajectory whose termination field is one of "completed",
    "event" and "step-underflow".  Exceeding max_steps raises
    IntegrationError with the partial trajectory attached, as does a
    non-finite right-hand side at an accepted point.
    """
    t0, t1 = settings.t_span
    span = t1 - t0
    y = np.asarray(y0, dtype=float).copy()
    if y.ndim != 1:
        raise ValueError("y0 must be one-dimensional")
    f = np.asarray(rhs(t0, y), dtype=float)
    if f.shape != y.shape:
        raise ValueError("rhs shape does not match the state")
    if not np.all(np.isfinite(f)):
        raise IntegrationError("right-hand side not finite at the initial state")

    ts = [t0]
    ys = [y.copy()]
    fs = [f.copy()]
    events_log: list[tuple[float, str]] = []
    g_prev = [ev.fn(t0, y) for ev in settings.events]
    n_accept = 0
    n_reject = 0
    n_evals = 1
    termination = "completed"

    fixed = settings.method == "rk4"
    h_fixed = min(settings.h, settings.h_max)
    h = settings.h0 if settings.h0 is not None else span / 100.0
    h = min(h, settings.h_max, span)
    err_prev = 1e-4
    t = t0

    def _build(term: str) -> Trajectory:
        meta = {
            "method": settings.method,
            "rel_tol": settings.rel_tol,
            "abs_tol": settings.abs_tol,
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
        h_step = h_fixed if fixed else h
        remaining = t1 - t
        # absorb any sub-step remainder into the final step so accumulated
        # rounding never produces a microscopic trailing step
        stretch = 1.4 if fixed else 1.05
        if remaining <= stretch * h_step:
            h_use = remaining
            final = True
        else:
            h_use = h_step
            final = False
        t_new = t1 if final else t + h_use

        if fixed:
            k1 = f
            k2 = np.asarray(rhs(t + 0.5 * h_use, y + (0.5 * h_use) * k1), dtype=float)
            k3 = np.asarray(rhs(t + 0.5 * h_use, y + (0.5 * h_use) * k2), dtype=float)
            k4 = np.asarray(rhs(t_new, y + h_use * k3), dtype=float)
            n_evals += 3
            y_new = y + (h_use / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            f_new = np.asarray(rhs(t_new, y_new), dtype=float)
            n_evals += 1
            if not (np.all(np.isfinite(y_new)) and np.all(np.isfinite(f_new))):
                raise IntegrationError(
                    f"right-hand side not finite near t={t_new}",
                    trajectory=_build("aborted"))
        else:
            k = [f]
            bad = False
            yi = y
            for i in range(1, 7):
                yi = y.copy()
                for j, a in enumerate(_A[i]):
                    if a != 0.0:
                        yi += (h_use * a) * k[j]
                fi = np.asarray(rhs(t + _C[i] * h_use, yi), dtype=float)
                n_evals += 1
                if not np.all(np.isfinite(fi)):
                    bad = True
                    break
                k.append(fi)
            if bad:
                n_reject += 1
                h = 0.5 * h_use
                continue
            y_new = yi  # stage-7 state is the fifth-order solution (FSAL)
            f_new = k[6]
            err_vec = np.abs(h_use * sum(e * ki for e, ki in zip(_E, k)))
            err = _error_norm(err_vec, y, y_new, settings.rel_tol, settings.abs_tol)
            if not math.isfinite(err):
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
            h = min(h_use * max(_FAC_MIN, min(_FAC_MAX, fac)), settings.h_max)

        # Accepted step; look for event crossings on [t, t_new].
        stop_at = None
        stop_name = None
        for ev, g0 in zip(settings.events, g_prev):
            g1 = float(ev.fn(t_new, y_new))
            if (g0 * g1 < 0.0) or (g1 == 0.0 and g0 != 0.0):
                # bisect the event function along the step's interpolant
                te = bisect_root(
                    lambda tm: ev.fn(tm, _hermite(t, y, f, t_new, y_new,
                                                  f_new, tm)),
                    t, t_new, g0, _EVENT_RESOLUTION)
                if stop_at is None or te < stop_at:
                    stop_at, stop_name = te, ev.name
        if stop_at is not None:
            n_accept += 1
            if stop_at > ts[-1]:
                ye = _hermite(t, y, f, t_new, y_new, f_new, stop_at)
                fe = np.asarray(rhs(stop_at, ye), dtype=float)
                n_evals += 1
                ts.append(stop_at)
                ys.append(ye)
                fs.append(fe)
            events_log.append((stop_at, stop_name))
            termination = "event"
            break

        t, y, f = t_new, y_new, f_new
        n_accept += 1
        ts.append(t)
        ys.append(y.copy())
        fs.append(f.copy())
        if settings.events:
            g_prev = [float(ev.fn(t, y)) for ev in settings.events]

    return _build(termination)

