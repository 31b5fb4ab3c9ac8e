"""Shared domain types and small numeric utilities.

The trajectory container stores the accepted integration nodes together
with the right-hand-side values at those nodes, which is exactly the data
cubic Hermite interpolation needs, and, for a run of a pair with its own
continuous extension, that extension's rows per step.  Everything
downstream (resampling, invariant drift reports, Emden-Fowler series)
builds on these types.  Every formula written as text is pasted, powered,
bound and compiled here (_rename, _paste, _power, _bind, _compile).
"""

from __future__ import annotations

import ast
import functools
import math
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "DomainError",
    "PolarState",
    "Trajectory",
    "EFSeries",
    "polar_states",
    "resample",
    "bisect_root",
    "crossing_times",
    "drift_metric",
    "longest_monotone_run",
    "real_power",
]


class DomainError(ValueError):
    """Raised when a value violates a documented domain precondition."""


def real_power(x: float, p: float) -> float:
    """Real-valued x**p; returns nan when no real branch exists.

    Negative bases are allowed only for integer-valued exponents.  A zero
    base with a negative exponent returns inf, and magnitude overflow
    saturates to signed inf instead of raising.
    """
    if x > 0.0:
        try:
            return math.pow(x, p)
        except OverflowError:
            return math.inf
    if x == 0.0:
        if p > 0.0:
            return 0.0
        if p == 0.0:
            return 1.0
        return math.inf
    # the size test first: math.floor raises on nan and on +-inf
    if abs(p) < 1e15 and p == math.floor(p):
        try:
            return math.pow(x, p)
        except OverflowError:
            return -math.inf if int(p) % 2 != 0 else math.inf
    return math.nan


# rows per block wherever a whole run's values pass through Python floats:
# the step loop's node lists, the residual columns, _vpow and the table
# writer each hold one block of floats (or text) at a time, whatever the
# run's length
_BLOCK_ROWS = 2048


def _blocks(n: int) -> list[slice]:
    """The slices of n rows, _BLOCK_ROWS at a time."""
    return [slice(i, i + _BLOCK_ROWS) for i in range(0, n, _BLOCK_ROWS)]


def _vpow(x, p: float) -> np.ndarray:
    """real_power of each element of x (an array or a sequence of numbers),
    as a float array of x's shape: a list loop on Python floats, a block
    (_blocks) at a time."""
    a = np.asarray(x, dtype=float)
    flat = a.ravel()
    out = np.empty(flat.size)
    for part in _blocks(flat.size):
        out[part] = [real_power(v, p) for v in flat[part].tolist()]
    return out.reshape(a.shape)


def _rpow(x, p: float):
    """real_power of a scalar (a float) or of each element of an array.

    Scalars skip numpy, whose per-call overhead exceeds real_power's; an
    array goes through _vpow's list loop on Python floats, so both give
    the same bits.
    """
    if isinstance(x, (float, int, np.number)):
        return real_power(x, p)
    return _vpow(x, p)


def _indent(text: str, n: int) -> str:
    return "".join(" " * n + line + "\n" for line in text.splitlines())


@functools.cache
def _words(names: frozenset) -> re.Pattern:
    """A pattern matching each of names as a whole name, not an attribute."""
    return re.compile("|".join(rf"{name}(?<![\w.]{name})(?!\w)"
                               for name in sorted(names)))


def _rename(text: str, names: Mapping[str, str]) -> str:
    """text with each whole name in names set to its value, in one pass."""
    return _renamed(text, tuple(names.items())) if names else text


@functools.cache
def _renamed(text: str, pairs: tuple) -> str:
    """_rename, cached as _compile is: formula texts are few."""
    names = dict(pairs)
    return _words(frozenset(names)).sub(lambda m: names[m[0]], text)


@functools.cache
def _names(text: str) -> tuple[frozenset, frozenset]:
    """The names text binds, and all it binds or reads (not attributes)."""
    found = [n for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Name)]
    return (frozenset(n.id for n in found if not isinstance(n.ctx, ast.Load)),
            frozenset(n.id for n in found))


def _paste(text: str, feed=(), free=(), prefix: str = "", guard=(),
           outs=(), otherwise: str = "nan") -> str:
    """text as lines to paste into generated source.

    text is a formula's body, plain Python that sets its outputs outs and
    reads the constants free and its inputs.  feed maps each input (a
    mapping or pairs) to its expression, set by a line only where the
    text names it ("" never).  outs is the names the text sets, or a
    mapping from each to its name where pasted.  With a prefix, every
    other name the text binds, each input and each of free becomes
    prefix + name; the names come from one parse (_names).  With a guard,
    a tuple of exception names, the text runs in try, and where one of
    those is raised each out is set to otherwise.  Every pasted formula
    and guard goes through here: the step loop's stages and events, the
    quadrature's integrand and comparator call, and the residual columns.
    """
    feed = dict(feed)
    bound, named = _names(text) if feed or prefix else ((), ())
    lines = [f"{prefix}{a} = {x}" for a, x in feed.items() if a in named]
    names = dict(outs) if isinstance(outs, dict) else {}
    if prefix:
        names |= {a: prefix + a for a in {*bound, *feed, *free} - {"", *outs}}
    if guard:
        text = ("try:\n" + _indent(text, 4) + f"except ({', '.join(guard)}):\n"
                f"    {' = '.join(outs)} = {otherwise}\n")
    return "".join(line + "\n" for line in lines) + _rename(text, names)


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


def _bind(params: str, body: str, result: str, constants: dict):
    """def f(params): body; return result, with the constants bound.

    The text is compiled once (_compile); binding is a call.  No
    constant may be named f, the function's own name.
    """
    return _compile(f"def make({', '.join(constants)}):\n"
                    f"    def f({params}):\n" + _indent(body, 8)
                    + f"        return {result}\n    return f\n",
                    "<formula>")(*constants.values())


def _power(name: str, x: str, p: str, overflow: str | None = "inf",
           positive: bool = False) -> str:
    """Text setting name to real_power(x, p), the one real power of every
    pasted formula; x and p are names or parenthesised text.

    Where x > 0.0 the text is x ** p, which has math.pow's bits there, and
    elsewhere real_power(x, p), which never raises; positive says the
    formula has tested x > 0.0 already (a field's r), and leaves the test
    and real_power out.  Where x ** p overflows, name is set to overflow,
    inf as real_power gives; with overflow None the OverflowError reaches
    the caller's own guard (the quadratures' integrands make it nan).
    """
    text = f"{name} = {x} ** {p}"
    text += "\n" if positive else f" if {x} > 0.0 else real_power({x}, {p})\n"
    if overflow is None:
        return text
    return _paste(text, guard=("OverflowError",), outs=(name,),
                  otherwise=overflow)


@dataclass(frozen=True)
class PolarState:
    """Plane-polar kinematic state (r, theta, rdot, thetadot) at time t.

    theta is unwrapped (not reduced mod 2*pi) so angular drift is visible.
    """

    t: float
    r: float
    theta: float
    rdot: float
    thetadot: float

    def __post_init__(self) -> None:
        vals = (self.t, self.r, self.theta, self.rdot, self.thetadot)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("polar state components must be finite")
        if self.r <= 0.0:
            raise DomainError(f"polar radius must be positive, got {self.r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.r, self.theta, self.rdot, self.thetadot])


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration samples of one ODE run.

    t : (n,) strictly increasing sample abscissae (time, angle or J
        depending on the system integrated).
    y : (n, d) state at each sample.
    dy : (n, d) right-hand side at each sample.
    termination : "completed" | "event" | "step-underflow", or "aborted"
        on the partial trajectory an IntegrationError carries.
    events : tuple of (t_event, name) pairs, in time order.
    meta : read-only mapping with settings echo and step statistics.
    dense : None, or (n - 1, 5, d) rows F2..F6 of each step's own
        interpolant (see _step_at); None interpolates each step by
        cubic Hermite.
    """

    t: np.ndarray
    y: np.ndarray
    dy: np.ndarray
    termination: str = "completed"
    events: tuple = ()
    meta: Mapping = field(default_factory=dict)
    dense: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _readonly(self.t))
        object.__setattr__(self, "y", _readonly(np.atleast_2d(self.y)))
        object.__setattr__(self, "dy", _readonly(np.atleast_2d(self.dy)))
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))
        if self.t.ndim != 1 or self.y.shape[0] != self.t.size:
            raise DomainError("trajectory arrays have inconsistent shapes")
        if self.y.shape != self.dy.shape:
            raise DomainError("state and derivative arrays must match")
        if self.t.size == 0:
            raise DomainError("trajectory must hold at least one sample")
        if not np.all(self.t[1:] > self.t[:-1]):
            raise DomainError("trajectory times must increase strictly")
        if not (np.all(np.isfinite(self.t)) and np.all(np.isfinite(self.y))):
            raise DomainError("trajectory samples must be finite")
        if self.dense is not None:
            object.__setattr__(self, "dense", _readonly(self.dense))
            if self.dense.shape != (self.t.size - 1, 5, self.y.shape[1]):
                raise DomainError("dense rows must be (steps, 5, components)")


def _polar_y(traj: Trajectory) -> np.ndarray:
    """traj.y of a polar run, (r, theta, rdot, thetadot) per row; DomainError
    unless it has those 4 state columns."""
    if traj.y.shape[1] != 4:
        raise DomainError("polar trajectories carry 4 state components")
    return traj.y


def polar_states(traj: Trajectory) -> list[PolarState]:
    """View a polar-system trajectory as PolarState records."""
    return [
        PolarState(t=float(t), r=float(r), theta=float(th), rdot=float(rd), thetadot=float(td))
        for t, (r, th, rd, td) in zip(traj.t, _polar_y(traj))
    ]


@dataclass(frozen=True)
class EFSeries:
    """Monotone-J series of EF points produced by the torque map.

    `scaled` records whether the constant-absorbing rescaling of (J, T)
    has been applied.  J must increase strictly.
    """

    J: np.ndarray
    T: np.ndarray
    Tprime: np.ndarray
    mu: float
    r0: float = 0.0
    scaled: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "J", _readonly(self.J))
        object.__setattr__(self, "T", _readonly(self.T))
        object.__setattr__(self, "Tprime", _readonly(self.Tprime))
        if not (self.J.shape == self.T.shape == self.Tprime.shape) or self.J.ndim != 1:
            raise DomainError("EF series arrays must be 1-d and congruent")
        if not np.all(self.J[1:] > self.J[:-1]):
            raise DomainError("EF series requires strictly increasing J")
        for a in (self.J, self.T, self.Tprime):
            if not np.all(np.isfinite(a)):
                raise DomainError("EF series values must be finite")

    def __len__(self) -> int:
        return int(self.J.size)


def drift_metric(values: Sequence[float]) -> float:
    """max_k |v_k - v_0| / max(1, |v_0|) over a sampled quantity.

    The mixed absolute/relative normalisation keeps the metric meaningful
    when the reference value sits near zero.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("drift metric needs at least one sample")
    v0 = v.flat[0]
    return float(np.max(np.abs(v - v0)) / max(1.0, abs(v0)))


def _hermite(t0, y0, f0, t1, y1, f1, t):
    """Cubic Hermite interpolant of one step; broadcasts over its arguments."""
    h = t1 - t0
    s = (t - t0) / h
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * y0
        + (s3 - 2.0 * s2 + s) * h * f0
        + (-2.0 * s3 + 3.0 * s2) * y1
        + (s3 - s2) * h * f1
    )


def _continuous(t0, y0, f0, t1, y1, f1, t, rows):
    """A step's own interpolant from rows F2..F6 (along rows' first axis).

    With h = t1 - t0, x = (t - t0) / h, F0 = y1 - y0 and F1 = h f0 - F0 the
    state is y0 + x (F0 + (1-x) (F1 + x (F2 + (1-x) (F3 + x (F4 + (1-x) (F5
    + x F6)))))), the form of DOP853's seventh-order extension (Hairer,
    Norsett & Wanner, Solving ODEs I, II.6 and II.10); with F2 = 2 F0 -
    h (f0 + f1) and F3..F6 zero it is _hermite's cubic.  Broadcasts over
    its arguments.
    """
    h = t1 - t0
    x = (t - t0) / h
    u = 1.0 - x
    d0 = y1 - y0
    f2, f3, f4, f5, f6 = rows
    return y0 + x * (d0 + u * (h * f0 - d0 + x * (
        f2 + u * (f3 + x * (f4 + u * (f5 + x * f6))))))


def _step_at(step: tuple, t, rows):
    """Step (t0, y0, f0, t1, y1, f1) at t: _continuous on its rows F2..F6
    (along rows' first axis), or _hermite where rows is None; broadcasts."""
    if rows is None:
        return _hermite(*step, t)
    return _continuous(*step, t, rows)


# the terms x^a (1-x)^b of _continuous's F2..F6 (columns) as
# coefficients of x^3..x^7 (rows); the matrix is upper triangular
_MONOMIALS = tuple(tuple((-1) ** (j - a) * math.comb(b, j - a)
                         if 0 <= j - a <= b else 0
                         for a, b in ((2, 1), (2, 2), (3, 2), (3, 3), (4, 3)))
                   for j in range(3, 8))


def _cut(rows: np.ndarray, s: float) -> list:
    """Rows F2..F6 of a step's interpolant restricted to its first fraction
    s, given its rows F2..F6.

    Its coefficients of x^3..x^7 are the step's times s^j and alone fix
    F2..F6 (F0 and F1 reach only x and x^2, and follow from the cut step's
    ends); back substitution returns them to the F form.  Elementwise
    arithmetic only, in index order, so no linear-algebra library enters.
    """
    coef, power = [], s * s
    for row in _MONOMIALS:
        power *= s
        coef.append(power * sum(m * f for m, f in zip(row, rows) if m))
    out = [None] * 5
    for k in reversed(range(5)):
        out[k] = (coef[k] - sum(_MONOMIALS[k][j] * out[j]
                                for j in range(k + 1, 5)
                                if _MONOMIALS[k][j])) / _MONOMIALS[k][k]
    return out


def resample(traj: Trajectory, times: Sequence[float]) -> np.ndarray:
    """States at arbitrary times via each step's interpolant.

    Each accepted step [t_i, t_{i+1}] carries exact endpoint states and
    derivatives, and _step_at evaluates it: by cubic Hermite, which is
    O(h^4) accurate and reproduces any cubic exactly, for a run without
    dense rows, and by its pair's own extension for a run with them.
    Queries outside the sampled span raise DomainError.
    """
    tq = np.asarray(times, dtype=float)
    t = traj.t
    if tq.size and (tq.min() < t[0] or tq.max() > t[-1]):
        raise DomainError(
            f"resample times must lie within [{t[0]}, {t[-1]}]"
        )
    if t.size == 1:
        return np.repeat(traj.y, tq.size, axis=0)
    idx = np.clip(np.searchsorted(t, tq, side="right") - 1, 0, t.size - 2)
    step = (t[idx][:, None], traj.y[idx], traj.dy[idx], t[idx + 1][:, None],
            traj.y[idx + 1], traj.dy[idx + 1])
    rows = None if traj.dense is None else traj.dense[idx].transpose(1, 0, 2)
    return _step_at(step, tq[:, None], rows)


def bisect_root(g: Callable[[float], float], a: float, b: float, ga: float,
                rel_tol: float) -> float:
    """Root of g in [a, b] by bisection, given ga = g(a) and g(a)*g(b) <= 0.

    Stops once b - a <= rel_tol * max(1, |b|) and returns the midpoint.
    """
    while (b - a) > rel_tol * max(1.0, abs(b)):
        mid = 0.5 * (a + b)
        gm = g(mid)
        if ga * gm <= 0.0:
            b = mid
        else:
            a, ga = mid, gm
    return 0.5 * (a + b)


def crossing_times(traj: Trajectory, col: int, targets: Sequence[float],
                   slack: float = 0.0) -> np.ndarray:
    """Times at which the strictly increasing state column `col` reaches each target.

    A target equal to a sample maps to that sample's time.  Any other
    target inside the sampled range is a root of the column's interpolant
    (_step_at, as in resample) on its bracketing step [a, b], found by
    bisection: all targets bisect together, and each stops once
    b - a <= 1e-13 * max(1, |b|) and returns the midpoint.  Every target
    sees the operations of bisect_root(g, a, b, g(a), 1e-13), so the times
    are the same bits.  A target at most `slack` beyond an end maps to that
    end's time; one further out, or nan, raises DomainError.
    """
    x = traj.y[:, col]
    if not np.all(x[1:] > x[:-1]):
        raise DomainError(f"state column {col} must increase strictly")
    t = traj.t
    targets = np.asarray(targets, dtype=float).ravel()
    if not np.all((targets >= x[0] - slack) & (targets <= x[-1] + slack)):
        raise DomainError(f"targets must lie within [{x[0]}, {x[-1]}]")
    c = np.clip(targets, x[0], x[-1])
    k = np.searchsorted(x, c, side="right")
    times = t[k - 1]
    # the targets between samples, each with its step's interpolation data
    pos = np.flatnonzero(x[k - 1] != c)
    k, c = k[pos], c[pos]
    xd = traj.dy[:, col]
    step = (t[k - 1], x[k - 1], xd[k - 1], t[k], x[k], xd[k])
    rows = None if traj.dense is None else traj.dense[k - 1, :, col].T
    # a stopped target keeps its bracket; only the live ones move
    a, b, ga = step[0], step[3], step[1] - c
    while True:
        live = (b - a) > 1e-13 * np.maximum(1.0, np.abs(b))
        if not live.any():
            break
        mid = 0.5 * (a + b)
        gm = _step_at(step, mid, rows) - c
        left = ga * gm <= 0.0
        right = live & ~left
        a, b, ga = (np.where(right, mid, a), np.where(live & left, mid, b),
                    np.where(right, gm, ga))
    times[pos] = 0.5 * (a + b)
    return times


def _stencil(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spacings (h1, h2) = (x[1:-1] - x[:-2], x[2:] - x[1:-1]) of the
    three-point stencil at each interior point of x.

    ValueError below 3 samples; DomainError unless x is strictly monotone.
    """
    if x.size < 3:
        raise ValueError("residual needs at least 3 samples")
    d = np.diff(x)
    if not (np.all(d > 0.0) or np.all(d < 0.0)):
        raise DomainError("abscissae must be strictly monotone")
    return d[:-1], d[1:]


def _fd2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Three-point second derivative on a nonuniform grid (interior points).

    Exact on quadratics for any spacing; O(h) on general smooth data with
    irregular spacing, O(h^2) when the spacing varies smoothly.
    """
    h1, h2 = _stencil(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    return 2.0 * (h2 * y[:-2] - (h1 + h2) * y[1:-1] + h1 * y[2:]) / (h1 * h2 * (h1 + h2))


def longest_monotone_run(values: Sequence[float]) -> slice:
    """Slice of the longest strictly monotone stretch of `values`."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return slice(0, v.size)
    sign = np.sign(np.diff(v))
    best = (0, 1)  # (start, stop) of best run, stop exclusive in diff index
    start = 0
    for i in range(1, sign.size + 1):
        if i == sign.size or sign[i] != sign[start] or sign[i] == 0.0:
            if sign[start] != 0.0 and (i - start) > (best[1] - best[0]):
                best = (start, i)
            start = i
    if best == (0, 1) and sign.size >= 1 and sign[0] == 0.0:
        return slice(0, 1)
    return slice(best[0], best[1] + 1)
