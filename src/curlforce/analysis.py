"""Transformation pipeline between polar trajectories and power-law form.

Covers the integrated-torque map (torque_map), the self-similar particular
solution and its coefficient (lambda_coeff, ParticularSolution), the orbit
and time quadratures on that branch (orbit_theta_of_r, time_of_r), seeding
of polar runs from the branch (seed_polar_from_particular), residual
adjudicators for printed-versus-derived formula variants (ef_residual,
drag_map_residual, abel_reduction_residual, scaling_map_residual), the
power-solution root of the third-order reduction (power_solution_y0), and
a self-contained adaptive quadrature (quad_adaptive).  A residual evaluates
its equation's right-hand side: its model is that rhs's formula text,
pasted into one generated loop over the rows' columns (_slope, _column,
_Column), with the bits its float kernel gives row by row; _model runs
that loop, or calls a plain function row by row.

The adaptive Simpson rule is written once, as Python source (_simpson)
around an integrand's text, and compiled once per text.  Each chain
integrand of the orbit and time quadratures is such a text, so one call
integrates every panel of an r grid with the text pasted at each
evaluation and the printed comparator called at each grid radius; the
grid loop itself takes each panel's first bisection level, so a panel
that level accepts calls no recursion.  quad_adaptive pastes a call of
its integrand.

Scale conventions, with n = 2 throughout: a raw series (Jt, Tt) built from
a trajectory via Tt = (r^(mu+2) - r0^(mu+2))/(mu+2), Jt = r^2*thetadot,
Tt' = rdot is rescaled to T = (mu+2)*Tt, J = (mu+2)^(1/4)*Jt,
T' = (mu+2)^(3/4)*Tt', which turns d2Tt/dJt2 = Jt^2 * (r^(mu+2))^m into
T'' = J^2 T^m with m = -(mu+4)/(mu+2); since r^(mu+2) = (mu+2)*Tt +
r0^(mu+2), an unscaled series is checked against that raw equation
(systems.raw_ef_rhs).  The rescaling uses fractional
powers of mu+2, so scaled output requires mu > -2; magnitudes |mu+2| are
used in the quadrature prefactors so the mu < -2 comparator cases stay
real-valued.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    DomainError,
    EFSeries,
    PolarState,
    Trajectory,
    _bind,
    _blocks,
    _compile,
    _fd2,
    _indent,
    _paste,
    _polar_y,
    _power,
    _rpow,
    _stencil,
    bisect_root,
    crossing_times,
    longest_monotone_run,
    real_power,
    resample,
)
from .invariants import angular_momentum
from .systems import _check_mu, drag_ef_rhs, ef_rhs, raw_ef_rhs

__all__ = [
    "NonRealLambda",
    "NoRoot",
    "QuadratureError",
    "QuadratureResult",
    "ParticularSolution",
    "ResidualStats",
    "DragMapReport",
    "AbelReport",
    "ChainQuadrature",
    "m_from_mu",
    "drag_exponents",
    "lambda_coeff",
    "particular_solution",
    "torque_map",
    "ef_residual",
    "j_of_r",
    "orbit_theta_of_r",
    "time_of_r",
    "seed_polar_from_particular",
    "reparametrize_by_angle",
    "scaling_map_residual",
    "drag_map_residual",
    "abel_reduction_residual",
    "power_solution_y0",
    "quad_adaptive",
]

# a polar run maps to T'' = J^n T^m with n = 2, so the particular branch
# behind the orbit and time quadratures and the seeding has n = 2
_N = 2.0


class NonRealLambda(ValueError):
    """The particular-solution coefficient has no real value for these exponents."""


class NoRoot(RuntimeError):
    """No sign change found when bracketing a root."""


class QuadratureError(RuntimeError):
    """Quadrature failure; carries the best partial value when available."""

    def __init__(self, message: str, partial: float = math.nan):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if self.abs_error_estimate < 0.0:
            raise ValueError("error estimate must be nonnegative")


def m_from_mu(mu: float) -> float:
    """Power-law exponent m = -(mu+4)/(mu+2) of the mapped equation."""
    _check_mu(mu)
    return -(mu + 4.0) / (mu + 2.0)


def drag_exponents(mu: float, nu: float) -> tuple[float, float, float]:
    """(lambda, sigma, rho) = (-(mu+4)/(mu+2), nu/(mu+2), (nu-mu-1)/(mu+2)).

    lambda and sigma are the exponents of the damped equation as printed;
    rho is the drag exponent produced by direct substitution.
    """
    return (m_from_mu(mu), nu / (mu + 2.0), (nu - mu - 1.0) / (mu + 2.0))


def lambda_coeff(n: float, m: float) -> float:
    """Coefficient of the particular solution T = Lambda * J^((n+2)/(1-m)).

    Lambda = [(n+2)(n+m+1)/(m-1)^2]^(1/(m-1)).  A zero base gives 0 (the
    solution degenerates to T = 0); a negative base is real only when m-1
    is an odd integer, otherwise NonRealLambda is raised.
    """
    if m == 1.0:
        raise ValueError("m = 1 is excluded: the exponent divides by m - 1")
    base = (n + 2.0) * (n + m + 1.0) / (m - 1.0) ** 2
    if base == 0.0:
        return 0.0
    k = m - 1.0
    if base > 0.0:
        return base ** (1.0 / k)
    if k == math.floor(k) and int(k) % 2 != 0:
        return -((-base) ** (1.0 / k))
    raise NonRealLambda(
        f"(n, m) = ({n}, {m}) gives base {base} < 0 with even or non-integer "
        f"reciprocal exponent {k}; no real coefficient exists")


@dataclass(frozen=True)
class ParticularSolution:
    """Self-similar branch T(J) = Lambda * J^exponent with exponent = (n+2)/(1-m)."""

    n: float
    m: float
    Lambda: float
    exponent: float

    def T(self, J):
        return self.Lambda * _rpow(J, self.exponent)

    def Tprime(self, J):
        return self.Lambda * self.exponent * _rpow(J, self.exponent - 1.0)

    def Tsecond(self, J):
        e = self.exponent
        return self.Lambda * e * (e - 1.0) * _rpow(J, e - 2.0)

    def ode_residual(self, J):
        """T'' - J^n T^m evaluated on the branch; zero when Lambda is exact."""
        return self.Tsecond(J) - _model(_slope(ef_rhs(self.n, self.m)), J,
                                        self.T(J), self.Tprime(J))


def particular_solution(n: float, m: float) -> ParticularSolution:
    return ParticularSolution(float(n), float(m), lambda_coeff(n, m),
                              (n + 2.0) / (1.0 - m))


def _r0_power(r0: float, p: float) -> float:
    """r0^p for reference radii, handling the r0 = 0 and r0 = inf conventions."""
    if r0 == 0.0:
        if p > 0.0:
            return 0.0
        raise DomainError(
            f"r0 = 0 is unusable for exponent {p} <= 0; use r0 = inf instead")
    if math.isinf(r0):
        if p < 0.0:
            return 0.0
        raise DomainError(
            f"r0 = inf is unusable for exponent {p} >= 0; use a finite r0")
    if r0 < 0.0:
        raise DomainError(f"reference radius must be nonnegative, got {r0}")
    return real_power(r0, p)


def _polar_columns(traj: Trajectory, mu: float,
                   what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, rdot, r^2 thetadot) of a polar run checked for the torque map."""
    m_from_mu(mu)
    y = _polar_y(traj)
    r = y[:, 0]
    if np.any(r <= 0.0):
        raise DomainError(f"{what} needs r > 0 throughout the trajectory")
    return r, y[:, 2], angular_momentum(traj)


def _monotone_run(what: str, increasing: bool, key: np.ndarray,
                  *arrays: np.ndarray) -> list[np.ndarray]:
    """key and arrays, cut with a warning to key's longest monotone run.

    No cut is made when key strictly increases, or, unless `increasing`,
    strictly decreases.  With `increasing` a cut run is returned in
    increasing order; `what` leads the warning.
    """
    out = [key, *arrays]
    if not (np.all(key[1:] > key[:-1])
            or (not increasing and np.all(key[1:] < key[:-1]))):
        run = longest_monotone_run(key)
        warnings.warn(
            f"{what}; keeping the longest monotone run of "
            f"{run.stop - run.start} of {key.size} samples", stacklevel=3)
        out = [a[run] for a in out]
        if increasing and out[0].size >= 2 and out[0][1] < out[0][0]:
            out = [a[::-1] for a in out]
    return out


def torque_map(traj: Trajectory, mu: float, r0: float = 0.0,
               apply_scaling: bool = True) -> EFSeries:
    """Map a polar trajectory to the integrated-torque series (J, T, T').

    Raw variables: Tt = (r^(mu+2) - r0^(mu+2))/(mu+2), Jt = r^2*thetadot,
    Tt' = rdot.  With apply_scaling the (mu+2) factors described in the
    module docstring are absorbed, which requires mu > -2.  A non-monotone
    Jt (impossible for the azimuthal power-law family, whose torque is
    r^(mu+1) > 0) is reduced to its longest monotone run with a warning.
    """
    r, rdot, j_raw = _polar_columns(traj, mu, "torque_map")
    r0p = _r0_power(r0, mu + 2.0)
    t_raw = (r ** (mu + 2.0) - r0p) / (mu + 2.0)
    tp_raw = rdot

    if apply_scaling:
        if mu + 2.0 <= 0.0:
            raise ValueError(
                "scaled output needs mu > -2 (the rescaling takes fractional "
                "powers of mu + 2); pass apply_scaling=False")
        a = mu + 2.0
        T = a * t_raw
        J = a ** 0.25 * j_raw
        Tp = a ** 0.75 * tp_raw
    else:
        T, J, Tp = t_raw, j_raw, tp_raw

    J, T, Tp = _monotone_run("torque map: J not strictly increasing", True,
                             J, T, Tp)
    return EFSeries(J=J.copy(), T=T.copy(), Tprime=Tp.copy(),
                    mu=float(mu), r0=float(r0), scaled=bool(apply_scaling))


@dataclass(frozen=True)
class ResidualStats:
    """FD residual summary; scale is the largest |d2T/dJ2| seen."""

    rms: float
    max_abs: float
    scale: float
    slope_max: float
    count: int


def _rms_max(resid: np.ndarray) -> tuple[float, float]:
    return float(np.sqrt(np.mean(resid * resid))), float(np.max(np.abs(resid)))


@dataclass(frozen=True)
class _Column:
    """A model T''(J, T, T') run as one loop over whole columns: loop takes
    three lists and returns a list (_column)."""

    loop: Callable[[list, list, list], list]


def _slope(rhs) -> _Column:
    """(J, T, T') -> T'' of an rhs with state (T, T'), as its formula's
    column loop."""
    return _Column(_column(rhs.formula)(**{
        f"x_{name}": value for name, value in zip(rhs.formula[2],
                                                  rhs.constants)}))


@functools.cache
def _column(formula: tuple):
    """make(**constants) -> column(J, T, Tp), compiled once per formula.

    formula is an rhs's (args, body, free) with state (T, T').  column
    takes three lists and returns the slope T'' at each row as a list: the
    body is pasted into one loop over the rows, its names renamed x_name
    and its constants bound by those names.
    """
    args, body, free = formula
    return _compile(
        f"def make({', '.join(f'x_{name}' for name in free)}):\n"
        "    def column(c0, c1, c2):\n"
        "        out = []\n"
        f"        for {', '.join(f'x_{a}' for a in args)} in zip(c0, c1, c2):\n"
        + _indent(_paste(body, (), args + free, "x_", outs=("d0", "d1")), 12)
        + "            out.append(d1)\n"
        "        return out\n"
        "    return column\n", "<residual column>")


def _model(f, J, T, Tp):
    """f(J, T, T') at each row of the columns, on Python floats: an array
    of the columns' shape, or a float for scalars.  A _Column runs its
    loop; any other f is called row by row.  The rows pass through Python
    floats a block (core._blocks) at a time."""
    cols = [np.asarray(c).ravel() for c in (J, T, Tp)]
    out = np.empty(cols[0].size)
    for part in _blocks(out.size):
        rows = [c[part].tolist() for c in cols]
        out[part] = (f.loop(*rows) if isinstance(f, _Column) else
                     [f(j, t, tp) for j, t, tp in zip(*rows)])
    return out.reshape(np.shape(J)) if np.ndim(J) else out.item()


def _residual_stats(slope, J: np.ndarray, T: np.ndarray,
                    Tp: np.ndarray) -> ResidualStats:
    """d2T/dJ2 by finite differences minus slope at each interior row;
    slope_max is the largest gap between chord slopes and averaged T'."""
    fd2 = _fd2(J, T)
    resid = fd2 - _model(slope, J[1:-1], T[1:-1], Tp[1:-1])
    chord = np.diff(T) / np.diff(J)
    return ResidualStats(
        *_rms_max(resid), scale=max(float(np.max(np.abs(fd2))), 1e-30),
        slope_max=float(np.max(np.abs(chord - 0.5 * (Tp[:-1] + Tp[1:])))),
        count=int(resid.size))


def ef_residual(series: EFSeries, n: float, m: float) -> ResidualStats:
    """How well the series satisfies T'' = J^n T^m, by finite differences.

    An unscaled series is in the raw variables of the torque map, so it is
    checked against the raw equation d2Tt/dJt2 = Jt^n ((mu+2) Tt +
    r0^(mu+2))^m (systems.raw_ef_rhs) instead.  rms and max_abs are over
    interior points; slope_max cross-checks the recorded T' against chord
    slopes.  Acceptance-style thresholds should be read against .scale
    (the largest |T''| on the series).
    """
    if series.scaled:
        rhs = ef_rhs(n, m)
    else:
        a = series.mu + 2.0
        rhs = raw_ef_rhs(n, m, a, _r0_power(series.r0, a))
    return _residual_stats(_slope(rhs), series.J, series.T, series.Tprime)


def j_of_r(r, mu: float, r0: float, n: float, m: float):
    """Invert the particular branch: J = [(r^(mu+2) - r0^(mu+2))/Lambda]^((1-m)/(n+2))."""
    lam = lambda_coeff(n, m)
    if lam == 0.0:
        raise DomainError(
            f"(n, m) = ({n}, {m}) gives Lambda = 0; the branch degenerates "
            "and J(r) is undefined")
    r0p = _r0_power(r0, mu + 2.0)
    rr = np.asarray(r, dtype=float)
    bracket = (rr ** (mu + 2.0) - r0p) / lam
    if np.any(bracket < 0.0):
        raise DomainError("negative bracket: r is outside the branch domain")
    out = bracket ** ((1.0 - m) / (n + 2.0))
    if rr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ChainQuadrature:
    """Cumulative quadrature along r with a printed-form comparator.

    values[i] is the integral from r[0] to r[i] of the chain integrand
    (theta or tau, depending on the producer).  printed_ratio[i] is the
    pointwise ratio printed_integrand/chain_integrand at r[i]; a ratio
    identically 1 would mean the printed closed form matches the chain.
    """

    r: np.ndarray
    values: np.ndarray
    printed_ratio: np.ndarray
    abs_error_estimate: float
    evaluations: int


def _check_r_grid(r_grid) -> np.ndarray:
    rg = np.asarray(r_grid, dtype=float)
    if rg.ndim != 1 or rg.size < 1:
        raise ValueError("r_grid must be a one-dimensional sequence")
    if not np.all(rg[1:] > rg[:-1]):
        raise ValueError("r_grid must be strictly increasing")
    if np.any(rg <= 0.0):
        raise DomainError("r_grid must be positive")
    return rg


def _positive_branch(mu: float
                     ) -> tuple[float, ParticularSolution, float, float]:
    """(m, particular solution, q, p) at n = 2 for mu, with q = (1-m)/(n+2)
    and p = mu+2; DomainError unless Lambda > 0."""
    m = m_from_mu(mu)
    sol = particular_solution(_N, m)
    if sol.Lambda <= 0.0:
        raise DomainError(
            f"(n, m) = ({_N}, {m}) gives Lambda = {sol.Lambda}; the particular "
            "branch needs a positive coefficient")
    return m, sol, (1.0 - m) / (_N + 2.0), mu + 2.0


def _cumulative_quadrature(text: str, constants: dict, printed, rg: np.ndarray,
                           tol: float) -> ChainQuadrature:
    """Integral of the chain text from rg[0] to each rg[i], with printed/chain
    at each r; text reads r and the constants and sets v.

    printed is a float function of r, called at each grid radius inside the
    loop.  Each float operation rounds as the numpy one does, so a ratio
    that raised nothing is numpy's.  Where one raises, or the chain is nan,
    the ratio is taken on numpy scalars (inf or nan; a power that overflows
    is inf, as real_power's) once the quadrature is done, so a failed
    quadrature evaluates none.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    chain = _bind("r", text, "v", constants)
    rs = rg.tolist()
    values, err, evals, ratios = [0.0], 0.0, 0, [None]
    if rg.size > 1:
        quad = _simpson(text, tuple(constants), _HANDOFF, True)(
            f=chain, QuadratureError=QuadratureError,
            max_depth=_QUAD_MAX_DEPTH, printed=printed, **constants)
        # quad_adaptive and the budget are looked up at each call, so a
        # wrapper installed in quad_adaptive's place gets the handed-off panels
        values, err, evals, ratios = quad(rs, tol, _QUAD_MAX_EVALS,
                                          quad_adaptive)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.array([x if x is not None else
                          printed(np.float64(r)) / chain(np.float64(r))
                          for r, x in zip(rs, ratios)])
    return ChainQuadrature(r=rg, values=np.array(values), printed_ratio=ratio,
                           abs_error_estimate=err, evaluations=evals)


# The chain integrands, in r and the names each producer binds, with each
# power pasted by core._power: where one overflows (real_power would
# give inf) the quadrature's guard makes v nan, not finite either
_THETA = ("u = (r ** p - r0p) / lam\n" + _power("J", "u", "q", None)
          + _power("J_e1", "J", "e1", None)
          + "v = s * J / (r * r * (lam_e * J_e1))\n")
_TAU = ("u = r ** p - r0p\n" + _power("u_q1", "u", "q1", None)
        + "v = coef * u_q1\n")
# either printed closed form, coef * real_power(r ** p - r0p, k), as the
# body and result that _bind takes
_PRINTED = ("u = r ** p - r0p\n" + _power("w", "u", "k"), "coef * w")


def orbit_theta_of_r(mu: float, r0: float, r_grid,
                     tol: float = 1e-10) -> ChainQuadrature:
    """theta(r) on the particular branch by composing J(r) with dtheta/dr.

    Chain integrand: |mu+2|^(1/2) * J(rho) / (rho^2 * T'(J(rho))) with T'
    taken on the scaled branch.  The |mu+2|^(1/2) factor undoes the J and
    T' rescalings so the chain matches the unscaled kinematics; for
    mu < -2 the magnitude keeps the output real.  The printed closed form
    ((1-m)/(n+2)) * Lambda^(-2(1-m)/(n+2)) * (r^(mu+2)-r0^(mu+2))^(-2(n+m+3)/(n+2))
    is evaluated alongside and reported as a pointwise integrand ratio;
    n = 2 throughout.
    """
    n = _N
    m, sol, q, p = _positive_branch(mu)
    rg = _check_r_grid(r_grid)
    s = math.sqrt(abs(p))
    r0p = _r0_power(r0, p)
    # the constants of sol.Tprime and printed, bound once; the products
    # keep their left-to-right order and so their bits
    lam = sol.Lambda
    printed = _bind("r", *_PRINTED, {
        "coef": q * real_power(lam, -2.0 * q), "p": p, "r0p": r0p,
        "k": -2.0 * (n + m + 3.0) / (n + 2.0)})
    return _cumulative_quadrature(
        _THETA, {"s": s, "q": q, "p": p, "r0p": r0p, "lam": lam,
                 "lam_e": lam * sol.exponent, "e1": sol.exponent - 1.0},
        printed, rg, tol)


def time_of_r(mu: float, r0: float, r_grid, tau0: float = 0.0,
              physical_time: bool = False,
              tol: float = 1e-10) -> ChainQuadrature:
    """tau(r) on the particular branch: quadrature of (dJ/dr)/(r * r^mu).

    Differentiating J(r) analytically gives the chain integrand
    q * |mu+2| * Lambda^(-q) * (r^(mu+2)-r0^(mu+2))^(q-1) with
    q = (1-m)/(n+2).  The printed closed form
    q * (mu+2) * Lambda^((n+m+1)/(n+2)) * (...)^(-(n+m+3)/(n+2)) is
    reported as a ratio.  With physical_time the values are multiplied by
    |mu+2|^(-1/(n+2)), which converts tau to the unscaled time variable;
    n = 2 throughout.
    """
    n = _N
    m, sol, q, p = _positive_branch(mu)
    rg = _check_r_grid(r_grid)
    r0p = _r0_power(r0, p)
    # constants bound once, in the products' left-to-right order
    printed = _bind("r", *_PRINTED, {
        "coef": q * p * real_power(sol.Lambda, (n + m + 1.0) / (n + 2.0)),
        "p": p, "r0p": r0p, "k": -(n + m + 3.0) / (n + 2.0)})
    res = _cumulative_quadrature(
        _TAU, {"coef": q * abs(p) * real_power(sol.Lambda, -q), "q1": q - 1.0,
               "p": p, "r0p": r0p}, printed, rg, tol)
    values = res.values + tau0
    if physical_time:
        values = values * _physical_time_factor(mu)
    return replace(res, values=values)


def _physical_time_factor(mu: float) -> float:
    """|mu+2|^(-1/(n+2)), which turns the branch's tau into unscaled time."""
    return abs(mu + 2.0) ** (-1.0 / (_N + 2.0))


def seed_polar_from_particular(mu: float, r0: float, J1: float) -> PolarState:
    """Polar initial state on the n = 2 particular branch at scaled momentum J1.

    Inverts the torque map on the branch: T1 = Lambda*J1^e,
    r1 = (T1 + r0^(mu+2))^(1/(mu+2)), rdot1 = (mu+2)^(-3/4)*T'(J1),
    thetadot1 = (mu+2)^(-1/4)*J1/r1^2, theta1 = 0.  Requires mu > -2 (the
    de-scaling takes fractional powers of mu+2) and J1 > 0.
    """
    if mu + 2.0 <= 0.0:
        raise DomainError("seeding needs mu > -2 (fractional powers of mu + 2)")
    if J1 <= 0.0:
        raise DomainError(f"seeding needs J1 > 0, got {J1}")
    _, sol, _, p = _positive_branch(mu)
    t1 = sol.T(J1)
    tp1 = sol.Tprime(J1)
    r0p = _r0_power(r0, p)
    r1 = (t1 + r0p) ** (1.0 / p)
    return PolarState(
        t=0.0,
        r=r1,
        theta=0.0,
        rdot=p ** -0.75 * tp1,
        thetadot=p ** -0.25 * J1 / (r1 * r1),
    )


def reparametrize_by_angle(traj: Trajectory,
                           theta_values) -> tuple[np.ndarray, np.ndarray]:
    """Times and states of a polar trajectory at prescribed angles.

    Requires theta strictly increasing along the trajectory.  Each crossing
    time is located by bisection on the cubic Hermite interpolant of the
    theta column (core.crossing_times), then the full state is resampled
    there.  Returns (times, states) with states of shape
    (len(theta_values), 4).
    """
    times = crossing_times(traj, 1, theta_values)
    return times, resample(traj, times)


def scaling_map_residual(traj: Trajectory, alpha: float, beta: float,
                         eps: float, model: Callable[[float, float, float], float],
                         num: int = 1201) -> ResidualStats:
    """Residual of the scaled solution T_eps(J) = e^(alpha*eps) T(e^(beta*eps) J).

    traj must be a second-order scalar run with state (T, T'); model(J, T, T')
    returns the expected T'' (or model is a _Column, as _slope gives).  The
    mapped solution is resampled on a uniform grid restricted to the
    J-window where e^(beta*eps)*J stays inside the original span,
    differentiated twice by finite differences, and compared against
    model.  A residual at roundoff scale confirms the map sends
    solutions to solutions.
    """
    c = math.exp(beta * eps)
    amp = math.exp(alpha * eps)
    t0, t1 = float(traj.t[0]), float(traj.t[-1])
    lo = max(t0, t0 / c)
    hi = min(t1, t1 / c)
    if not (hi > lo):
        raise ValueError("the scaled J-window is empty for this eps")
    grid = np.linspace(lo, hi, num)
    # the window edge can round an ulp outside the run
    states = resample(traj, np.clip(grid * c, t0, t1))
    T_hat = amp * states[:, 0]
    Tp_hat = amp * c * states[:, 1]
    return _residual_stats(model, grid, T_hat, Tp_hat)


@dataclass(frozen=True)
class DragMapReport:
    """Adjudication between the printed and the substitution-derived forms.

    printed form (P):  Tt'' = Tt^lambda Tt' + Jt^2 Tt^sigma
    derived form (D):  Tt'' = Jt^2 W^lambda + W^rho Tt', W = (mu+2) Tt = r^(mu+2)

    Residual statistics are relative to scale = max |Tt''| over interior
    points.  winner names the form with the clearly smaller RMS residual.
    """

    lam: float
    sigma: float
    rho: float
    rms_printed: float
    max_printed: float
    rms_derived: float
    max_derived: float
    scale: float
    count: int
    winner: str


def drag_map_residual(traj: Trajectory, mu: float,
                      nu: float | None = None) -> DragMapReport:
    """FD residuals of the two candidate damped-equation forms on a drag run.

    Maps the trajectory with the unscaled torque variables (r0 = 0
    convention: Tt = r^(mu+2)/(mu+2)) and evaluates both forms at interior
    points.  With nu=None the drag terms are dropped from both forms, which
    reduces (D) to the undamped power-law residual; (P) is then undefined
    (its sigma depends on nu) and reported as NaN.
    """
    if nu is None:
        lam, sigma, rho = m_from_mu(mu), math.nan, math.nan
    else:
        lam, sigma, rho = drag_exponents(mu, nu)
    r, rdot, j_raw = _polar_columns(traj, mu, "drag_map_residual")
    w = r ** (mu + 2.0)
    t_raw = w / (mu + 2.0)

    j_raw, t_raw, rdot, w = _monotone_run(
        "drag map: J not strictly increasing", True, j_raw, t_raw, rdot, w)
    fd2 = _fd2(j_raw, t_raw)
    ji = j_raw[1:-1]
    tpi = rdot[1:-1]
    wi = w[1:-1]
    scale = max(float(np.max(np.abs(fd2))), 1e-30)

    derived = fd2 - ji * ji * _rpow(wi, lam)
    rms_p = max_p = math.nan
    if nu is not None:
        derived = derived - _rpow(wi, rho) * tpi
        rms_p, max_p = _rms_max(fd2 - _model(_slope(drag_ef_rhs(lam, sigma)),
                                             ji, t_raw[1:-1], tpi))
    rms_d, max_d = _rms_max(derived)

    if math.isnan(rms_p) or rms_d < 0.1 * rms_p:
        winner = "derived"
    elif rms_p < 0.1 * rms_d:
        winner = "printed"
    else:
        winner = "tie"
    return DragMapReport(lam=lam, sigma=sigma, rho=rho,
                         rms_printed=rms_p, max_printed=max_p,
                         rms_derived=rms_d, max_derived=max_d,
                         scale=scale, count=int(fd2.size), winner=winner)


@dataclass(frozen=True)
class AbelReport:
    """Residual of the first-order reduction in the invariants (w, u)."""

    rms: float
    max_abs: float
    scale: float
    count: int


def _fd1(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Three-point first derivative on a nonuniform grid (interior points)."""
    h1, h2 = _stencil(x)
    return (-h2 / (h1 * (h1 + h2)) * y[:-2]
            + (h2 - h1) / (h1 * h2) * y[1:-1]
            + h1 / (h2 * (h1 + h2)) * y[2:])


def _scaling_sigma(lam: float) -> float:
    """sigma = 1 + 4*lambda, where T'' = T^lambda T' + J^2 T^sigma has the
    scaling symmetry (lambda*J, -T)."""
    return 1.0 + 4.0 * lam


def _on_scaling_family(lam: float, sigma: float) -> bool:
    """Whether sigma is 1 + 4*lambda within the inputs' rounding: with
    s = _scaling_sigma(lam), |sigma - s| <= ulp(sigma)/2 + 2 ulp(lambda) +
    ulp(s)/2, each input's half ulp (lambda's four times) and s's own.  So
    the doubles nearest 1/3 and 7/3 match, though s is an ulp below 7/3's.
    An s that overflows matches only itself; a nan matches nothing.
    """
    s = _scaling_sigma(lam)
    return sigma == s or (math.isfinite(s) and abs(sigma - s) <= (
        0.5 * math.ulp(sigma) + 2.0 * math.ulp(lam) + 0.5 * math.ulp(s)))


def abel_reduction_residual(lam: float, traj: Trajectory) -> AbelReport:
    """Residual of (lam*u + w) du/dw = (1 + lam(1 + w^lam)) u + lam w^(1+4*lam).

    traj is a damped-equation run with state (T, T') against J; the
    invariants w = J^(1/lam) T and u = J^((lam+1)/lam) T' are formed along
    it and du/dw is taken by finite differences.  Valid for
    sigma = 1 + 4*lam runs; scale is the largest term magnitude seen.
    """
    if lam == 0.0:
        raise ValueError("lambda = 0 is excluded: the invariants use 1/lambda")
    J = traj.t
    if np.any(J <= 0.0):
        raise DomainError("the reduction needs J > 0 along the run")
    T = traj.y[:, 0]
    Tp = traj.y[:, 1]
    w = J ** (1.0 / lam) * T
    u = J ** ((lam + 1.0) / lam) * Tp

    w, u = _monotone_run("abel reduction: w not monotone", False, w, u)
    dudw = _fd1(w, u)
    wi = w[1:-1]
    ui = u[1:-1]
    t1 = (lam * ui + wi) * dudw
    t2 = (1.0 + lam * (1.0 + _rpow(wi, lam))) * ui
    t3 = lam * _rpow(wi, _scaling_sigma(lam))
    resid = t1 - t2 - t3
    scale = max(float(np.max(np.abs(t1))), float(np.max(np.abs(t2))),
                float(np.max(np.abs(t3))), 1e-30)
    return AbelReport(*_rms_max(resid), scale=scale, count=int(resid.size))


def power_solution_y0(lam: float) -> float:
    """Smallest positive Y0 making Y = Y0 * z^(lambda/(1+lambda)) a solution.

    Solves lam^-2 (lam Y0)^(4+4*lam) - (lam Y0)^(1+lam) (1+lam)^(3*lam)
    - (1+lam)^(1+4*lam) = 0 by log-grid scanning and bisection.  lambda = -1
    has the exponential special solution instead and lambda = 0 degenerates;
    both are rejected.
    """
    if lam == -1.0:
        raise ValueError(
            "lambda = -1 has no power solution; use the exponential branch "
            "Y = Y0 * exp(-z)")
    if lam == 0.0:
        raise ValueError("lambda = 0 is excluded: the exponent divides by lambda")

    def g(y: float) -> float:
        return (real_power(lam, -2.0) * real_power(lam * y, 4.0 + 4.0 * lam)
                - real_power(lam * y, 1.0 + lam) * real_power(1.0 + lam, 3.0 * lam)
                - real_power(1.0 + lam, _scaling_sigma(lam)))

    ys = np.geomspace(1e-6, 1e6, 481)
    vals = np.array([g(float(y)) for y in ys])
    bracket = None
    for i in range(vals.size - 1):
        a, b = vals[i], vals[i + 1]
        if math.isfinite(a) and math.isfinite(b):
            if a == 0.0:
                return float(ys[i])
            if a * b < 0.0:
                bracket = (float(ys[i]), float(ys[i + 1]))
                break
    if bracket is None:
        raise NoRoot(
            f"no sign change of the power-solution condition for lambda={lam} "
            "in [1e-6, 1e6]")
    lo, hi = bracket
    return bisect_root(g, lo, hi, g(lo), 2e-14)


_QUAD_MAX_DEPTH = 60
# Integrand evaluations per panel.  A smooth orbit panel takes a few dozen
# and an integrable endpoint singularity such as x^-1/2 tens of thousands;
# a nonintegrable one reaches the budget in about a second instead of
# refining to _QUAD_MAX_DEPTH on each of millions of subintervals.
_QUAD_MAX_EVALS = 1_000_000


# The one adaptive Simpson rule, as Python source.  quad(xs, tol, max_evals,
# handoff) runs it over each panel [xs[i-1], xs[i]] in order, depth first.
# _simpson expands its marker lines in one pass, each at its line's indent:
# "@x" evaluates the integrand text at r = x into v (nan where the text
# raises), "%x" appends the comparator's ratio there to ratios, and "@level"
# (one bisection level, _LEVEL) and "@ends" (a panel with an end where the
# integrand is not finite: _HANDOFF or _STRIPS) are texts whose own marker
# lines expand in the same pass.  The grid loop works out a panel's midpoint
# and its first level itself, and calls rec only for the halves of a panel
# that level does not accept.  A panel's budget and decisions count its own
# two ends, as a lone panel does, though each xs[i] is evaluated once.
_QUAD = """\
    def quad(xs, tol, max_evals, handoff):
        def rec(a, fa, m, fm, b, fb, whole, depth):
            nonlocal ev, err
            @level
            return value

        out = [0.0]
        ratios = []
        acc = total_err = 0.0
        depth = 0
        b = xs[0]
        @b
        fb = v
        %b
        evals = 1
        for i in range(1, len(xs)):
            a = b
            fa = fb
            b = xs[i]
            @b
            fb = v
            %b
            evals += 1
            ev = 2
            err = 0.0
            tol_density = tol / (b - a)
            if isfinite(fa) and isfinite(fb):
                m = 0.5 * (a + b)
                @m
                fm = v
                ev += 1
                if not isfinite(fm):
                    raise QuadratureError(f"integrand not finite inside "
                                          f"[{a}, {b}]")
                whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
                @level
            else:
                @ends
            if ev >= max_evals:
                raise QuadratureError(f"stopped after {ev} integrand "
                                      f"evaluations (budget {max_evals})",
                                      partial=value)
            evals += ev - 2
            acc += value
            out.append(acc)
            total_err += err
        return out, total_err, evals, ratios
    return quad
"""
# One level on [a, b] with midpoint m at bisection depth depth, given
# f there (fa, fm, fb) and the coarse Simpson sum whole: the two halves'
# sums, then value, their Richardson-corrected sum where the level test
# accepts it, or else the sum of rec on each half.
_LEVEL = """\
lm = 0.5 * (a + m)
rm = 0.5 * (m + b)
@lm
flm = v
@rm
frm = v
ev += 2
if not (isfinite(flm) and isfinite(frm)):
    bad = rm if isfinite(flm) else lm
    raise QuadratureError(f"integrand not finite at x = {bad}")
left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
s2 = left + right
delta = s2 - whole
if abs(delta) <= 15.0 * tol_density * (b - a) or ev >= max_evals:
    err += abs(delta) / 15.0
    value = s2 + delta / 15.0
elif depth >= max_depth:
    raise QuadratureError(f"no convergence after {max_depth} "
                          f"bisection levels on [{a}, {b}]")
else:
    value = (rec(a, fa, lm, flm, m, fm, left, depth + 1)
             + rec(m, fm, rm, frm, b, fb, right, depth + 1))
"""
# In a chain quadrature such a panel goes to quad_adaptive.  quad_adaptive
# itself moves that end in by eps = 1e-12 * (b - a) and adds twice the
# integral over the quarter strip next to it, which is exact for
# inverse-square-root singularities; each strip and the panel between them
# evaluate both their ends, as a fresh panel does, and then go through
# panel, which evaluates their midpoint and calls rec.
_HANDOFF = """\
res = handoff(f, a, b, tol)
acc += res.value
out.append(acc)
total_err += res.abs_error_estimate
evals += res.evaluations
continue
"""
_STRIPS = """\
def panel(a, b, fa, fb):
    nonlocal ev
    m = 0.5 * (a + b)
    @m
    ev += 1
    if not (isfinite(fa) and isfinite(fb) and isfinite(v)):
        raise QuadratureError(f"integrand not finite inside [{a}, {b}]")
    return rec(a, fa, m, v, b, fb, (b - a) / 6.0 * (fa + 4.0 * v + fb), 0)

eps = 1e-12 * (b - a)
lo = a
hi = b
tail = 0.0
if not isfinite(fa):
    lo = a + eps
    x = a + 0.25 * eps
    @x
    f0 = v
    @lo
    ev += 2
    strip = panel(x, lo, f0, v)
    tail += 2.0 * strip
    err += abs(strip)
if not isfinite(fb):
    hi = b - eps
    x = b - 0.25 * eps
    @hi
    f0 = v
    @x
    ev += 2
    strip = panel(hi, x, f0, v)
    tail += 2.0 * strip
    err += abs(strip)
if not isfinite(fa):
    @lo
    fa = v
    ev += 1
if not isfinite(fb):
    @hi
    fb = v
    ev += 1
value = panel(lo, hi, fa, fb) + tail
"""


# what the integrand's text turns into nan, and the comparator's ratio
# into None
_QUAD_RAISES = ("ZeroDivisionError", "ValueError", "OverflowError")
_RATIO_RAISES = ("ZeroDivisionError", "OverflowError")


@functools.cache
def _simpson(text: str, names: tuple[str, ...], ends: str,
             ratios: bool = False):
    """make(**constants) -> quad, compiled once per key.

    make takes f, QuadratureError, max_depth and the names, and with ratios
    the comparator printed, a float function of r.  text reads r and the
    names and sets v.  quad returns the integrals from xs[0] to each xs[i]
    as a list, the summed error estimate, the evaluations made and the
    ratios: printed(xs[i]) / v at each xs[i], None where a float operation
    raises or v is nan (none without ratios).  A panel accepts
    |S_fine - S_coarse| <= 15 * tol * w / (b - a) with Richardson
    correction, so its error is of order tol; a
    subinterval still unconverged after max_depth bisection levels raises
    QuadratureError at once, and a panel that reaches max_evals raises it
    carrying the panel's value.
    """
    def ratio(x: str) -> str:
        if not ratios:
            return ""
        return ("if v == v:\n" + _indent(_paste(
            f"pv = printed({x}) / v", guard=_RATIO_RAISES, outs=("pv",),
            otherwise="None"), 4)
            + "else:\n    pv = None\nratios.append(pv)\n")

    fragments = {"@level": _LEVEL, "@ends": ends}

    def expand(source: str, at: int):
        for line in source.splitlines():
            body = line.lstrip()
            indent = at + len(line) - len(body)
            if body in fragments:
                yield from expand(fragments[body], indent)
            elif body.startswith("@"):
                yield _indent(_paste(text, {"r": body[1:]},
                                     guard=_QUAD_RAISES, outs=("v",)), indent)
            elif body.startswith("%"):
                yield _indent(ratio(body[1:]), indent)
            else:
                yield " " * at + line + "\n"

    params = ["f", "QuadratureError", "max_depth", *names,
              *(["printed"] if ratios else [])]
    return _compile(f"def make({', '.join(params)}):\n"
                    + "".join(expand(_QUAD, 0)),
                    "<adaptive Simpson>")


def quad_adaptive(f, a: float, b: float, tol: float = 1e-10) -> QuadratureResult:
    """Adaptive Simpson quadrature with integrable-endpoint handling.

    The local acceptance test is |S_fine - S_coarse| <= 15 * tol * w/(b-a)
    with Richardson correction, so the accumulated error is of order tol.
    Endpoints where f is non-finite (or raises) are offset by
    eps = 1e-12*(b-a) and the missing sliver is estimated as twice the
    integral over the adjacent quarter strip, which is exact for
    inverse-square-root singularities.  A subinterval still unconverged
    after 60 bisection levels raises QuadratureError at once; more than
    1,000,000 integrand evaluations raise it carrying the partial value.
    """
    a = float(a)
    b = float(b)
    if not (b >= a):
        raise ValueError("quadrature needs b >= a")
    if b == a:
        return QuadratureResult(0.0, 0.0, 0)
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    quad = _simpson("v = float(f(r))\n", (), _STRIPS)(
        f=f, QuadratureError=QuadratureError, max_depth=_QUAD_MAX_DEPTH)
    values, err, evals, _ = quad([a, b], tol, _QUAD_MAX_EVALS, None)
    return QuadratureResult(values[1], err, evals)
