"""First integrals and Noether-symmetry verification.

Conserved quantities for the polar systems (angular_momentum,
lrr_invariant, mu3_invariant) and for the integrated-torque equations
(ef_integral_m5, ef_integral_m7, prop31_integral), plus the point-symmetry
machinery for the power-law Lagrangian family: the Noether-condition
residual, the constructed first integral, and the invariants of the scaling
symmetry used by the Abel reduction.

All evaluators are pure and accept scalars or numpy arrays where that is
meaningful (J, T, Tprime triples); the polar ones take a PolarState or a
whole polar Trajectory.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import DomainError, PolarState, Trajectory
from .systems import AngleFunction

__all__ = [
    "NonNoetherianWarning",
    "PowerLagrangian",
    "GeneratorSpec",
    "generator_g1",
    "generator_g2",
    "generator_half",
    "generator_scaling",
    "angular_momentum",
    "lrr_invariant",
    "mu3_invariant",
    "ef_integral_m5",
    "ef_integral_m7",
    "prop31_integral",
    "noether_residual",
    "noether_integral",
    "abel_invariant_check",
]


class NonNoetherianWarning(UserWarning):
    """Issued when an integral is constructed from a non-Noetherian generator."""


@dataclass(frozen=True)
class PowerLagrangian:
    """L = T'^2 + potential_scale * (2/(m+1)) * J^n * T^(m+1).

    Its Euler-Lagrange equation is T'' = potential_scale * J^n * T^m.
    potential_scale = 0 gives the free Lagrangian T'^2 (limit checks).
    """

    n: float
    m: float
    potential_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.m == -1.0:
            raise ValueError("m = -1 is excluded: the Lagrangian divides by m + 1")

    def value(self, J, T, Tprime):
        return Tprime ** 2 + self.potential_scale * (2.0 / (self.m + 1.0)) \
            * J ** self.n * T ** (self.m + 1.0)

    def d_J(self, J, T, Tprime):
        return self.potential_scale * (2.0 * self.n / (self.m + 1.0)) \
            * J ** (self.n - 1.0) * T ** (self.m + 1.0)

    def d_T(self, J, T, Tprime):
        return self.potential_scale * 2.0 * J ** self.n * T ** self.m

    def d_Tprime(self, J, T, Tprime):
        return 2.0 * Tprime


@dataclass(frozen=True)
class GeneratorSpec:
    """Point-symmetry generator xi(J) d/dJ + eta(J, T) d/dT with a gauge term.

    xi = a0 + a1*J + a2*J^2, eta = (b0 + b1*J)*T, gauge V = c*T^2 + c0.
    The first prolongation acts on T' with coefficient
    eta_hat = eta_J + (eta_T - xi_J)*T'.
    """

    xi: tuple[float, float, float] = (0.0, 0.0, 0.0)
    eta: tuple[float, float] = (0.0, 0.0)
    gauge: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "xi", tuple(float(a) for a in self.xi))
        object.__setattr__(self, "eta", tuple(float(b) for b in self.eta))
        object.__setattr__(self, "gauge", tuple(float(g) for g in self.gauge))
        if len(self.xi) != 3 or len(self.eta) != 2 or len(self.gauge) != 2:
            raise ValueError("xi needs 3 coefficients, eta and gauge need 2 each")

    def xi_of(self, J):
        a0, a1, a2 = self.xi
        return a0 + J * (a1 + J * a2)

    def xi_J(self, J):
        a0, a1, a2 = self.xi
        return a1 + 2.0 * a2 * J

    def eta_of(self, J, T):
        b0, b1 = self.eta
        return (b0 + b1 * J) * T

    def eta_J(self, J, T):
        return self.eta[1] * T

    def eta_T(self, J, T):
        b0, b1 = self.eta
        return b0 + b1 * J

    def eta_hat(self, J, T, Tprime):
        """Prolongation coefficient on T'."""
        return self.eta_J(J, T) + (self.eta_T(J, T) - self.xi_J(J)) * Tprime

    def gauge_of(self, T):
        c, c0 = self.gauge
        return c * T ** 2 + c0

    def gauge_T(self, T):
        return 2.0 * self.gauge[0] * T


def generator_g1() -> GeneratorSpec:
    """Scaling generator (xi, eta) = (J, (2/3) T); Lie but not Noether for m=-5."""
    return GeneratorSpec(xi=(0.0, 1.0, 0.0), eta=(2.0 / 3.0, 0.0))


def generator_g2() -> GeneratorSpec:
    """Generator (J^2, J T) with gauge V = T^2; Noetherian for (n, m) = (2, -5)."""
    return GeneratorSpec(xi=(0.0, 0.0, 1.0), eta=(0.0, 1.0), gauge=(1.0, 0.0))


def generator_half() -> GeneratorSpec:
    """Generator (J, T/2) with zero gauge; Noetherian for (n, m) = (2, -7)."""
    return GeneratorSpec(xi=(0.0, 1.0, 0.0), eta=(0.5, 0.0))


def generator_scaling(lam: float) -> GeneratorSpec:
    """Scaling generator (lambda*J, -T) of the damped equation with sigma = 1+4*lambda."""
    return GeneratorSpec(xi=(0.0, float(lam), 0.0), eta=(-1.0, 0.0))


def _polar(state: PolarState | Trajectory):
    """(r, theta, thetadot) of a PolarState, or their columns along a polar run."""
    if isinstance(state, PolarState):
        return state.r, state.theta, state.thetadot
    if state.y.shape[1] != 4:
        raise DomainError("polar trajectories carry 4 state components")
    return state.y[:, 0], state.y[:, 1], state.y[:, 3]


def angular_momentum(state: PolarState | Trajectory):
    """r^2 thetadot; a float for a PolarState, an array along a Trajectory."""
    r, _, thetadot = _polar(state)
    # an overflow gives inf, as on Python floats, and no numpy warning
    with np.errstate(over="ignore"):
        return r * r * thetadot


def _half_j_squared(state: PolarState | Trajectory):
    j = angular_momentum(state)
    with np.errstate(over="ignore"):
        return 0.5 * j * j


def lrr_invariant(state: PolarState | Trajectory, V: AngleFunction):
    """(1/2) (r^2 thetadot)^2 + V(theta); conserved for the Ermakov family."""
    return _half_j_squared(state) + V(_polar(state)[1])


def mu3_invariant(state: PolarState | Trajectory):
    """(1/2) (r^2 thetadot)^2 - theta; conserved for the azimuthal r^-3 force."""
    return _half_j_squared(state) - _polar(state)[1]


def _check_nonzero_T(T) -> None:
    if np.any(np.asarray(T) == 0.0):
        raise DomainError("T = 0 is outside the domain of this integral")


def ef_integral_m5(J, T, Tprime):
    """(J T' - T)^2 + J^4/(2 T^4); conserved along T'' = J^2 T^-5."""
    _check_nonzero_T(T)
    return (J * Tprime - T) ** 2 + J ** 4 / (2.0 * T ** 4)


def ef_integral_m7(J, T, Tprime, c: float = 1.0 / 3.0):
    """T'(J T' - T) + c J^3/T^6; conserved along T'' = J^2 T^-7 iff c = 1/3.

    The derivative along solutions is (2 - 6c) J^3 T' T^-7 + (3c - 1) J^2 T^-6,
    which vanishes identically only at c = 1/3; other c values are accepted so
    the non-conserved variants can be reported side by side.
    """
    _check_nonzero_T(T)
    return Tprime * (J * Tprime - T) + c * J ** 3 / T ** 6


def prop31_integral(J, T, Tprime, n: float, m: float, d: float):
    """(1/2)(T' J - T)^2 + d J^(n+2) T^(m+1)/(m+1) for T'' + d J^n T^m = 0.

    Conserved exactly when n + m = -3; otherwise the derivative along
    solutions is d J^(n+1) T^(m+1) (1 + (n+2)/(m+1)).
    """
    if m == -1.0:
        raise ValueError("m = -1 is excluded: the integral divides by m + 1")
    if m + 1.0 < 0.0:
        _check_nonzero_T(T)
    return 0.5 * (Tprime * J - T) ** 2 + d * J ** (n + 2.0) * T ** (m + 1.0) / (m + 1.0)


def noether_residual(L: PowerLagrangian, G: GeneratorSpec,
                     grid: Iterable[Sequence[float]]) -> list[float]:
    """Noether-condition residual at each (J, T, Tprime) grid point.

    R = xi L_J + eta L_T + eta_hat L_T' + L xi_J - (V_J + V_T T').
    The generator is Noetherian for L exactly when R vanishes identically.
    A point where L or its derivatives have no real value (a zero T under a
    negative power, a negative base under a fractional one) or overflow a
    float raises DomainError.
    """
    out = []
    for J, T, Tp in grid:
        try:
            r = (G.xi_of(J) * L.d_J(J, T, Tp)
                 + G.eta_of(J, T) * L.d_T(J, T, Tp)
                 + G.eta_hat(J, T, Tp) * L.d_Tprime(J, T, Tp)
                 + L.value(J, T, Tp) * G.xi_J(J)
                 - G.gauge_T(T) * Tp)
        except (ZeroDivisionError, OverflowError):
            r = None
        if r is None or isinstance(r, complex):
            raise DomainError(
                f"(J, T, T') = ({J}, {T}, {Tp}) is outside the domain of the "
                f"Lagrangian with (n, m) = ({L.n}, {L.m})")
        out.append(float(r))
    return out


# the largest |Noether residual| at which a generator counts as Noetherian
_NOETHER_TOL = 1e-9

_PROBE = [(J, T, Tp)
          for J in (0.7, 1.1, 1.6)
          for T in (0.8, 1.3, 2.1)
          for Tp in (-0.4, 0.3, 0.9)]


def noether_integral(L: PowerLagrangian, G: GeneratorSpec,
                     ) -> Callable[[float, float, float], float]:
    """Build the first-integral evaluator I = V - xi L - (eta - T' xi) L_T'.

    Warns with NonNoetherianWarning when the Noether residual does not vanish
    on a probe grid; the returned evaluator is then generally not conserved.
    """
    res = noether_residual(L, G, _PROBE)
    if max(abs(r) for r in res) > _NOETHER_TOL:
        warnings.warn(
            "generator fails the Noether condition for this Lagrangian; "
            "the constructed quantity will not be conserved",
            NonNoetherianWarning, stacklevel=2)

    def evaluator(J, T, Tprime):
        xi = G.xi_of(J)
        return (G.gauge_of(T) - xi * L.value(J, T, Tprime)
                - (G.eta_of(J, T) - Tprime * xi) * L.d_Tprime(J, T, Tprime))

    return evaluator


def abel_invariant_check(lam: float,
                         samples: Iterable[Sequence[float]],
                         ) -> list[tuple[float, float, float, float]]:
    """Invariants w = J^(1/lambda) T, u = J^((lambda+1)/lambda) T' of the scaling map.

    Returns (w, u, Xw, Xu) per sample, where Xw and Xu are the actions of the
    prolonged generator (lambda*J, -T, eta_hat = -(1+lambda)*T') on w and u.
    Both must vanish identically; they are evaluated term by term rather than
    cancelled algebraically, so the zeros are a genuine check.
    """
    if lam == 0.0:
        raise ValueError("lambda = 0 is excluded: the invariants use 1/lambda")
    out = []
    for J, T, Tp in samples:
        if J <= 0.0:
            raise DomainError(f"samples need J > 0, got J={J}")
        p = 1.0 / lam
        q = (lam + 1.0) / lam
        w = J ** p * T
        u = J ** q * Tp
        w_J = p * J ** (p - 1.0) * T
        w_T = J ** p
        u_J = q * J ** (q - 1.0) * Tp
        u_Tp = J ** q
        xw = lam * J * w_J + (-T) * w_T
        xu = lam * J * u_J + (-(1.0 + lam) * Tp) * u_Tp
        out.append((float(w), float(u), float(xw), float(xu)))
    return out
