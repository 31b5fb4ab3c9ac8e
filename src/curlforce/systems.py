"""Force fields and ODE right-hand sides for planar curl-force dynamics.

Position-only families (Ermakov, Gorringe-Leach, isotropic azimuthal) and
one velocity-dependent extension (isotropic azimuthal plus radial drag).
Every family exposes analytic force components and the analytic curl
(1/r)[d(r F_theta)/dr - dF_r/dtheta]; curl_fd is the finite-difference
oracle for the same expression.  Each family writes both once, as _force
and _curl, which assume r > 0: the public force and curl check r first, and
polar_rhs, which tests r itself, calls _force.  AngleFunction dispatches its
family once per derivative order, when it is built; the kernels, the h2
event and the angular fields' _force and _curl call those float formulas
(AngleFunction._scalar) directly, and __call__ serves public callers.

The *_rhs builders return closures suitable for integrate.integrate: each
formula is written once, as a kernel on Python floats that integrate calls
directly, and the closure rhs(t, y) -> ndarray wraps it for everyone else.
State conventions:

    polar_rhs        y = (r, theta, rdot, thetadot), independent t
    psi_reduced_rhs  y = (psi, dpsi/dtheta),         independent theta
    orbit_polar_rhs  y = (r, dr/dtheta),             independent theta
    ef_rhs           y = (T, T'),                    independent J
    drag_ef_rhs      y = (T, T'),                    independent J
    geodesic_rhs     y = (T, J, dT/ds, dJ/ds),       independent s
    third_order_rhs  y = (Y, Y', Y''),               independent z

Right-hand sides return NaN outside their domain (r <= 0, vanishing
denominators) so the adaptive stepper rejects the step; controlled
stopping is the job of the event guards at the bottom of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, _rpow, real_power
from .integrate import Event

__all__ = [
    "AngleFunction",
    "ErmakovField",
    "GorringeLeachField",
    "IsotropicField",
    "IsotropicDragField",
    "ForceField",
    "curl",
    "curl_fd",
    "polar_rhs",
    "psi_reduced_rhs",
    "mu_minus3_rhs",
    "orbit_polar_rhs",
    "ef_rhs",
    "drag_ef_rhs",
    "geodesic_rhs",
    "third_order_rhs",
    "third_order_residual",
    "r_floor_event",
    "h2_singularity_event",
    "yprime_floor_event",
]


def _consts(*values):
    return tuple(lambda th, v=v: v for v in values)


def _waves(c: float, k: float, waves, signs):
    """Orders 0..3 of a sinusoid: signs[n] * c*k^n * waves[n](k*theta)."""
    amps = [c * real_power(k, n) for n in range(4)]
    amps = [a if s > 0 else -a for a, s in zip(amps, signs)]
    return tuple(lambda th, a=a, w=w: a * w(k * th) for a, w in zip(amps, waves))


def _poly(c0, c1, c2, c3):
    return (lambda th: c0 + th * (c1 + th * (c2 + th * c3)),
            lambda th: c1 + th * (2.0 * c2 + th * (3.0 * c3)),
            lambda th: 2.0 * c2 + 6.0 * c3 * th) + _consts(6.0 * c3)


# family -> (c, k, coeffs, cos, sin) -> its value and first three
# derivatives, each a function of theta; cos and sin act on theta's type
# (float or ndarray).  A constant is a float, which AngleFunction
# broadcasts over an array argument.
_FORMULAS = {
    "zero": lambda c, k, p, cos, sin: _consts(0.0, 0.0, 0.0, 0.0),
    "constant": lambda c, k, p, cos, sin: _consts(c, 0.0, 0.0, 0.0),
    "linear_theta": lambda c, k, p, cos, sin: (
        (lambda th: c * th,) + _consts(c, 0.0, 0.0)),
    "cos": lambda c, k, p, cos, sin: _waves(c, k, (cos, sin, cos, sin), (1, -1, -1, 1)),
    "sin": lambda c, k, p, cos, sin: _waves(c, k, (sin, cos, sin, cos), (1, 1, -1, -1)),
    "poly": lambda c, k, p, cos, sin: _poly(*p),
}


@dataclass(frozen=True)
class AngleFunction:
    """Angular profile with analytic derivatives up to third order.

    Families: zero, constant (c), linear_theta (c*theta), cos (c*cos(k*theta)),
    sin (c*sin(k*theta)), poly (c0 + c1*theta + c2*theta^2 + c3*theta^3).
    Call with order=0..3 to get the value or a derivative; accepts scalars
    and numpy arrays.  The family is dispatched once, here: construction
    builds each order's formula for floats (math) and for arrays (numpy).
    """

    family: str
    c: float = 0.0
    k: float = 1.0
    coeffs: tuple = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if self.family not in _FORMULAS:
            raise ValueError(f"unknown angle-function family {self.family!r}")
        coeffs = tuple(float(x) for x in self.coeffs)
        if len(coeffs) != 4:
            raise ValueError("poly family takes exactly four coefficients c0..c3")
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "k", float(self.k))
        object.__setattr__(self, "coeffs", coeffs)
        # keyed by order, so an order given as 1.0 still works
        formulas = _FORMULAS[self.family]
        object.__setattr__(self, "_scalar", dict(enumerate(
            formulas(self.c, self.k, coeffs, _cos, _sin))))
        object.__setattr__(self, "_array", dict(enumerate(
            formulas(self.c, self.k, coeffs, np.cos, np.sin))))

    def __reduce__(self):
        # rebuilt from the four fields: the formula closures do not pickle
        return (type(self), (self.family, self.c, self.k, self.coeffs))

    @classmethod
    def zero(cls) -> "AngleFunction":
        return cls("zero")

    @classmethod
    def constant(cls, c: float) -> "AngleFunction":
        return cls("constant", c=c)

    @classmethod
    def linear_theta(cls, c: float) -> "AngleFunction":
        return cls("linear_theta", c=c)

    @classmethod
    def cos(cls, c: float = 1.0, k: float = 1.0) -> "AngleFunction":
        return cls("cos", c=c, k=k)

    @classmethod
    def sin(cls, c: float = 1.0, k: float = 1.0) -> "AngleFunction":
        return cls("sin", c=c, k=k)

    @classmethod
    def poly(cls, c0: float = 0.0, c1: float = 0.0, c2: float = 0.0,
             c3: float = 0.0) -> "AngleFunction":
        return cls("poly", coeffs=(c0, c1, c2, c3))

    def __call__(self, theta, order: int = 0):
        if order not in (0, 1, 2, 3):
            raise ValueError("derivative order must be 0, 1, 2 or 3")
        if isinstance(theta, (float, int)):
            # scalar callers skip numpy entirely
            return self._scalar[order](float(theta))
        th = np.asarray(theta, dtype=float)
        out = self._array[order](th)
        if np.ndim(theta) == 0:
            return float(out)
        return out if isinstance(out, np.ndarray) else np.full_like(th, out)


def _cos(x: float) -> float:
    # np.cos returns nan at +-inf, where math.cos raises
    return math.cos(x) if math.isfinite(x) else math.nan


def _sin(x: float) -> float:
    return math.sin(x) if math.isfinite(x) else math.nan


def _require_positive_r(r: float) -> None:
    if not (r > 0.0):
        raise DomainError(f"radius must be positive, got {r}")


class _Field:
    """Public force and curl: the r > 0 check, then the family's formula.

    theta goes to the formula as float(theta), so an int or numpy-scalar
    angle gets the bits AngleFunction.__call__ gives it.
    """

    def force(self, r: float, theta: float, rdot: float = 0.0) -> tuple[float, float]:
        _require_positive_r(r)
        return self._force(r, float(theta), rdot)

    def curl(self, r: float, theta: float) -> float:
        _require_positive_r(r)
        return self._curl(r, float(theta))


@dataclass(frozen=True)
class ErmakovField(_Field):
    """F_r = -w^2 r + U(theta)/r^3, F_theta = -V'(theta)/r^3."""

    w: float = 0.0
    U: AngleFunction = AngleFunction.zero()
    V: AngleFunction = AngleFunction.zero()

    def _force(self, r, theta, rdot):
        r3 = real_power(r, 3.0)
        return (-real_power(self.w, 2.0) * r + self.U._scalar[0](theta) / r3,
                -self.V._scalar[1](theta) / r3)

    def _curl(self, r, theta):
        return ((2.0 * self.V._scalar[1](theta) - self.U._scalar[1](theta))
                / real_power(r, 4.0))


@dataclass(frozen=True)
class GorringeLeachField(_Field):
    """F_r = -[(U'' + U)/r^2 + 2 V'/r^(3/2)], F_theta = -V/r^(3/2).

    The curl vanishes identically exactly when U is sinusoidal with period
    2*pi and V is sinusoidal with period 4*pi.
    """

    U: AngleFunction = AngleFunction.zero()
    V: AngleFunction = AngleFunction.zero()

    def _force(self, r, theta, rdot):
        U, V = self.U._scalar, self.V._scalar
        r32 = real_power(r, 1.5)
        f_r = -((U[2](theta) + U[0](theta)) / real_power(r, 2.0)
                + 2.0 * V[1](theta) / r32)
        return (f_r, -V[0](theta) / r32)

    def _curl(self, r, theta):
        U, V = self.U._scalar, self.V._scalar
        return ((U[3](theta) + U[1](theta)) / real_power(r, 3.0)
                + (0.5 * V[0](theta) + 2.0 * V[2](theta))
                / real_power(r, 2.5))


@dataclass(frozen=True)
class IsotropicField(_Field):
    """Purely azimuthal power-law force F_theta = r^mu."""

    mu: float

    def __post_init__(self) -> None:
        if self.mu == -2.0:
            raise ValueError("mu = -2 is excluded: the torque map divides by mu + 2")
        object.__setattr__(self, "mu", float(self.mu))

    def _force(self, r, theta, rdot):
        return (0.0, real_power(r, self.mu))

    def _curl(self, r, theta):
        return (self.mu + 1.0) * real_power(r, self.mu - 1.0)


@dataclass(frozen=True)
class IsotropicDragField(IsotropicField):
    """Azimuthal power law plus radial drag: F_r = r^nu * rdot, F_theta = r^mu.

    The drag term is velocity-dependent and carries no position-only curl,
    so curl() reports the azimuthal contribution alone.
    """

    nu: float

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "nu", float(self.nu))

    def _force(self, r, theta, rdot):
        return (real_power(r, self.nu) * rdot, real_power(r, self.mu))


ForceField = ErmakovField | GorringeLeachField | IsotropicField | IsotropicDragField


def curl(field: ForceField, r: float, theta: float) -> float:
    """Analytic curl (1/r)[d(r F_theta)/dr - dF_r/dtheta] of the position-only part."""
    return field.curl(r, theta)


def curl_fd(field: ForceField, r: float, theta: float, h: float = 1e-4) -> float:
    """Central finite-difference curl; independent oracle for curl()."""
    if not (r - h > 0.0):
        raise DomainError(f"need r - h > 0, got r={r}, h={h}")
    ft_plus = (r + h) * field.force(r + h, theta)[1]
    ft_minus = (r - h) * field.force(r - h, theta)[1]
    d_rft = (ft_plus - ft_minus) / (2.0 * h)
    fr_plus = field.force(r, theta + h)[0]
    fr_minus = field.force(r, theta - h)[0]
    d_fr = (fr_plus - fr_minus) / (2.0 * h)
    return (d_rft - d_fr) / r


def _rhs(kernel):
    """The public rhs(t, y) -> ndarray around a float kernel.

    kernel(t, y) takes a float and a list of floats and returns a new list
    of floats.  integrate.integrate calls it directly (as rhs.kernel), so
    its step loop builds no ndarray; everyone else calls the returned
    function with an ndarray or any sequence of numbers.
    """

    def rhs(t, y):
        return np.array(kernel(float(t), [float(v) for v in y]))

    rhs.kernel = kernel
    return rhs


def polar_rhs(field: ForceField):
    """Planar Newtonian motion: y = (r, theta, rdot, thetadot).

    rddot = r*thetadot^2 + F_r, thetaddot = (F_theta - 2*rdot*thetadot)/r.
    """
    force = field._force

    def kernel(t, y):
        r, theta, rdot, thetadot = y
        if not (r > 0.0):
            return [math.nan] * 4
        try:
            f_r, f_t = force(r, theta, rdot)
        except ZeroDivisionError:
            # a power of r in the field's formula underflowed to 0.0
            return [math.nan] * 4
        return [
            rdot,
            thetadot,
            r * thetadot * thetadot + f_r,
            (f_t - 2.0 * rdot * thetadot) / r,
        ]

    return _rhs(kernel)


def _variant_factor(variant: str) -> float:
    if variant == "derived":
        return 0.5
    if variant == "as_printed":
        return 1.0
    raise ValueError(f"unknown variant {variant!r}; use 'derived' or 'as_printed'")


def psi_reduced_rhs(I: float, U: AngleFunction, V: AngleFunction,
                    variant: str = "derived"):
    """Reduction to psi(theta) = 1/r with h2(theta) = 2*(I - V(theta)).

    derived:    psi'' + [(h2)'/(2 h2)] psi' + (1 + U/h2) psi = 0
    as_printed: psi'' + [(h2)'/h2]     psi' + (1 + U/h2) psi = 0

    The two differ only in the damping coefficient; the equivalence tests
    against the direct polar simulation adjudicate between them.
    """
    factor = _variant_factor(variant)
    V0, V1, U0 = V._scalar[0], V._scalar[1], U._scalar[0]

    def kernel(theta, y):
        h2 = 2.0 * (I - V0(theta))
        if h2 == 0.0:
            return [math.nan] * 2
        h2p = -2.0 * V1(theta)
        psi, dpsi = y
        return [
            dpsi,
            -(factor * h2p / h2) * dpsi - (1.0 + U0(theta) / h2) * psi,
        ]

    return _rhs(kernel)


def mu_minus3_rhs(I: float, variant: str = "derived"):
    """psi(theta) equation for the azimuthal r^-3 force.

    Instance of psi_reduced_rhs with U = 0 and V = -theta, h2 = 2*(I + theta):
    derived damping 1/(2*(theta + I)), as_printed damping 1/(theta + I).
    """
    return psi_reduced_rhs(I, AngleFunction.zero(),
                           AngleFunction.linear_theta(-1.0), variant)


def orbit_polar_rhs(I: float):
    """Orbit equation for r(theta): y = (r, dr/dtheta).

    r'' = [2 r'^2 - r*r'*sin(theta)/(2*(I - cos(theta))) + r^2] / r
    """

    def kernel(theta, y):
        r, rp = y
        denom = I - math.cos(theta)
        if not (r > 0.0) or denom == 0.0:
            return [math.nan] * 2
        a = math.sin(theta) / (2.0 * denom)
        return [rp, (2.0 * rp * rp - r * rp * a + r * r) / r]

    return _rhs(kernel)


def ef_rhs(n: float, m: float):
    """T'' = J^n * T^m with y = (T, T')."""

    def kernel(J, y):
        t, tp = y
        return [tp, real_power(J, n) * real_power(t, m)]

    return _rhs(kernel)


def drag_ef_rhs(lam: float, sigma: float):
    """T'' = T^lambda * T' + J^2 * T^sigma with y = (T, T')."""

    def kernel(J, y):
        t, tp = y
        return [tp, real_power(t, lam) * tp + J * J * real_power(t, sigma)]

    return _rhs(kernel)


def geodesic_rhs(lam: float, sigma: float):
    """Autonomous affine-parameter form of the damped equation.

    State y = (T, J, dT/ds, dJ/ds) with

        d2T/ds2 = J^2 * T^sigma * (dJ/ds)^2
        d2J/ds2 = -T^lambda * (dJ/ds)^2

    The minus sign on the J equation is forced by consistency: eliminating s
    through T'' = (T_ss * J_s - T_s * J_ss) / J_s^3 must recover
    T'' = T^lambda T' + J^2 T^sigma, and the sign-free version recovers the
    damping term negated instead.
    """

    def kernel(s, y):
        t, j, td, jd = y
        jd2 = jd * jd
        return [
            td,
            jd,
            j * j * real_power(t, sigma) * jd2,
            -real_power(t, lam) * jd2,
        ]

    return _rhs(kernel)


def third_order_rhs(lam: float, sigma: float):
    """Y''' = [(Y'' + (Y')^(2+lambda)) Y'' + Y^2 (Y')^(sigma+3)] / Y'."""

    def kernel(z, y):
        yy, yp, ypp = y
        if yp == 0.0:
            return [math.nan] * 3
        num = (ypp + real_power(yp, 2.0 + lam)) * ypp \
            + yy * yy * real_power(yp, sigma + 3.0)
        return [yp, ypp, num / yp]

    return _rhs(kernel)


def third_order_residual(y, yp, ypp, yppp, lam: float, sigma: float):
    """Residual of the third-order equation multiplied through by Y'.

    Returns Y''' * Y' - [(Y'' + (Y')^(2+lambda)) Y'' + Y^2 (Y')^(sigma+3)]
    elementwise on floats or ndarrays; the multiplied form avoids dividing
    by small Y'.
    """
    return yppp * yp - ((ypp + _rpow(yp, 2.0 + lam)) * ypp
                        + y * y * _rpow(yp, sigma + 3.0))


def r_floor_event(threshold: float = 1e-8) -> Event:
    """Stop a polar run when the radius reaches the floor."""
    return Event("r-floor", lambda t, y: y[0] - threshold)


def h2_singularity_event(I: float, V: AngleFunction,
                         threshold: float = 1e-6) -> Event:
    """Stop a psi-reduction run when h2 = 2*(I - V(theta)) crosses zero."""
    V0 = V._scalar[0]
    return Event("h2-singular",
                 lambda theta, y: abs(2.0 * (I - V0(theta))) - threshold)


def yprime_floor_event(threshold: float = 1e-10) -> Event:
    """Stop a third-order run when |Y'| collapses (equation divides by Y')."""
    return Event("Yprime-floor", lambda z, y: abs(y[1]) - threshold)
