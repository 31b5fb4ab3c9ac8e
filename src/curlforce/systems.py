"""Force fields and ODE right-hand sides for planar curl-force dynamics.

Position-only families (Ermakov, Gorringe-Leach, isotropic azimuthal) and
one velocity-dependent extension (isotropic azimuthal plus radial drag).
Every family exposes analytic force components and the analytic curl
(1/r)[d(r F_theta)/dr - dF_r/dtheta]; curl_fd is the finite-difference
oracle for the same expression.  Each family writes both once, as text
(_FORCE, _CURL) that assumes r > 0: the public force and curl check r and
bind the text; polar_rhs, which tests r itself, pastes the force text.
AngleFunction writes each order of each family once, as expression text
(_ANGLE) reading a tuple computed when the function is built; the fields,
the psi body and the h2 event paste that text, so they call no angle
function.  math.cos and math.sin raise ValueError at +-inf: the
right-hand sides turn that into a rejected stage (NaN), and the h2 event,
force and curl into nan; __call__ evaluates the text with numpy, which
gives nan there.

The *_rhs builders return closures suitable for integrate.integrate: each
formula is written once, as text on Python floats.  integrate pastes it
into its step loop, the same text compiled is the float kernel rhs.kernel,
and the closure rhs(t, y) -> ndarray wraps that for everyone else.
State conventions:

    polar_rhs        y = (r, theta, rdot, thetadot), independent t
    psi_reduced_rhs  y = (psi, dpsi/dtheta),         independent theta
    orbit_polar_rhs  y = (r, dr/dtheta),             independent theta
    ef_rhs           y = (T, T'),                    independent J
    raw_ef_rhs       y = (T, T'),                    independent J
    drag_ef_rhs      y = (T, T'),                    independent J
    geodesic_rhs     y = (T, J, dT/ds, dJ/ds),       independent s
    third_order_rhs  y = (Y, Y', Y''),               independent z

Right-hand sides return NaN outside their domain (r <= 0, vanishing
denominators) so the adaptive stepper rejects the step; controlled
stopping is the job of the event guards at the bottom of this module.
Each guard writes its value once, as text (_event): integrate pastes it
into its step loop after every accepted step, and the same text compiled
is the event function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DomainError, _bind, _indent, _paste, _power, _rename, _rpow,
                   real_power)
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
    "raw_ef_rhs",
    "drag_ef_rhs",
    "geodesic_rhs",
    "third_order_rhs",
    "third_order_residual",
    "r_floor_event",
    "h2_singularity_event",
    "yprime_floor_event",
]


def _sinusoid(signs, *waves: str) -> tuple:
    """A sinusoid's values, signs[n] * c*k^n for orders n = 0..3 and then
    k, and its texts, amplitude n times waves[n](k * theta)."""
    def values(c, k, p):
        amps = [c * real_power(k, n) for n in range(4)]
        return tuple(a if s > 0 else -a for a, s in zip(amps, signs)) + (k,)
    return values, tuple(f"(values[{n}] * {w}(values[4] * theta))"
                         for n, w in enumerate(waves))


# family -> (values(c, k, coeffs), the texts of its value and first three
# derivatives).  values gives the tuple of floats a function reads,
# computed once when it is built; each text is an expression in theta that
# reads the tuple by the name values, an atom or parenthesised, so that it
# pastes anywhere.  A text without theta gives a float, which __call__
# broadcasts over an array.
_ANGLE = {
    "zero": (lambda c, k, p: (), ("0.0",) * 4),
    "constant": (lambda c, k, p: (c,), ("values[0]", "0.0", "0.0", "0.0")),
    "linear_theta": (lambda c, k, p: (c,),
                     ("(values[0] * theta)", "values[0]", "0.0", "0.0")),
    "cos": _sinusoid((1, -1, -1, 1), "cos", "sin", "cos", "sin"),
    "sin": _sinusoid((1, 1, -1, -1), "sin", "cos", "sin", "cos"),
    "poly": (lambda c, k, p: p, (
        "(values[0] + theta * (values[1] + theta * (values[2]"
        " + theta * values[3])))",
        "(values[1] + theta * (2.0 * values[2] + theta * (3.0 * values[3])))",
        "(2.0 * values[2] + 6.0 * values[3] * theta)",
        "(6.0 * values[3])")),
}


@dataclass(frozen=True)
class AngleFunction:
    """Angular profile with analytic derivatives up to third order.

    Families: zero, constant (c), linear_theta (c*theta), cos (c*cos(k*theta)),
    sin (c*sin(k*theta)), poly (c0 + c1*theta + c2*theta^2 + c3*theta^3).
    Call with order=0..3 to get the value or a derivative; accepts scalars
    and numpy arrays.  Each order is written once, as text (_ANGLE);
    construction computes the values it reads.
    """

    family: str
    c: float = 0.0
    k: float = 1.0
    coeffs: tuple = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if self.family not in _ANGLE:
            raise ValueError(f"unknown angle-function family {self.family!r}")
        coeffs = tuple(float(x) for x in self.coeffs)
        if len(coeffs) != 4:
            raise ValueError("poly family takes exactly four coefficients c0..c3")
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "k", float(self.k))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_values",
                           _ANGLE[self.family][0](self.c, self.k, coeffs))

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
        fn = _bind("theta", "", _ANGLE[self.family][1][int(order)],
                   {"values": self._values, "cos": np.cos, "sin": np.sin})
        th = np.asarray(theta, dtype=float)
        # +-inf and nan give nan (or the family's value), without a warning
        with np.errstate(invalid="ignore", over="ignore"):
            out = fn(th)
        if np.ndim(theta) == 0:
            return float(out)
        return out if isinstance(out, np.ndarray) else np.full_like(th, out)


def _angles(text: str, **fns: AngleFunction) -> tuple[str, dict]:
    """text with each whole name U0..U3 set, in one pass, to that order
    of the function passed as U (any name) reading U; the values by name."""
    orders = {f"{name}{n}": _rename(order, {"values": name})
              for name, fn in fns.items()
              for n, order in enumerate(_ANGLE[fn.family][1])}
    return _rename(text, orders), {name: fn._values for name, fn in fns.items()}


# the exceptions a field's formula turns into nan: a power of a tiny r
# underflowed to 0.0 and was divided by, or math.cos or math.sin met +-inf
_FIELD_RAISES = ("ZeroDivisionError", "ValueError")
# math.cos or math.sin met +-inf (k * theta overflowed)
_ANGLE_RAISES = ("ValueError",)


class _Field:
    """Public force and curl: the r > 0 check, then the family's formula.

    Each family writes its force once, as _FORCE: text that reads r > 0,
    theta, rdot and the names _formula binds, and sets f_r and f_t; and its
    curl as _CURL, which sets curl.  _formula fills in the angle functions,
    the names U0..U3 and V0..V3 (_angles).  theta goes to the text as a
    float, so an int or numpy-scalar angle gets the bits
    AngleFunction.__call__ gives it, and an infinite one makes the result
    nan, as in __call__.  A radius so small that a power of it underflows
    to 0.0 makes the result nan too, as in polar_rhs.
    """

    def _constants(self) -> dict:
        return {}

    def _formula(self, text: str) -> tuple[str, dict]:
        """text with the field's angle functions filled in, and the names
        it reads."""
        text, values = _angles(text, **{n: v for n, v in vars(self).items()
                                        if isinstance(v, AngleFunction)})
        return text, {**self._constants(), **values}

    def force(self, r: float, theta: float, rdot: float = 0.0) -> tuple[float, float]:
        return self._at(self._FORCE, ("f_r", "f_t"), r, theta, rdot)

    def curl(self, r: float, theta: float) -> float:
        return self._at(self._CURL, ("curl",), r, theta, 0.0)

    def _at(self, text: str, outs: tuple, r, theta, rdot):
        if not (r > 0.0):
            raise DomainError(f"radius must be positive, got {r}")
        body, constants = self._formula(text)
        fn = _bind("r, theta, rdot", _paste(body, guard=_FIELD_RAISES,
                                            outs=outs),
                   ", ".join(outs), constants)
        return fn(float(r), float(theta), rdot)


@dataclass(frozen=True)
class ErmakovField(_Field):
    """F_r = -w^2 r + U(theta)/r^3, F_theta = -V'(theta)/r^3."""

    w: float = 0.0
    U: AngleFunction = AngleFunction.zero()
    V: AngleFunction = AngleFunction.zero()

    _FORCE = _power("r3", "r", "3.0", positive=True) + (
        "f_r = -w2 * r + U0 / r3\nf_t = -V1 / r3\n")
    _CURL = (_power("r4", "r", "4.0", positive=True)
             + "curl = (2.0 * V1 - U1) / r4\n")

    def _constants(self):
        return {"w2": real_power(self.w, 2.0)}


@dataclass(frozen=True)
class GorringeLeachField(_Field):
    """F_r = -[(U'' + U)/r^2 + 2 V'/r^(3/2)], F_theta = -V/r^(3/2).

    The curl vanishes identically exactly when U is sinusoidal with period
    2*pi and V is sinusoidal with period 4*pi.
    """

    U: AngleFunction = AngleFunction.zero()
    V: AngleFunction = AngleFunction.zero()

    _FORCE = (_power("r32", "r", "1.5", positive=True)
              + _power("r2", "r", "2.0", positive=True)
              + "f_r = -((U2 + U0) / r2 + 2.0 * V1 / r32)\n"
              "f_t = -V0 / r32\n")
    _CURL = (_power("r3", "r", "3.0", positive=True)
             + _power("r52", "r", "2.5", positive=True)
             + "curl = ((U3 + U1) / r3\n"
               "        + (0.5 * V0 + 2.0 * V2) / r52)\n")


def _check_mu(mu: float) -> None:
    """Refuse mu = -2, the one exponent the torque map cannot take."""
    if mu == -2.0:
        raise ValueError("mu = -2 is excluded: the torque map divides by mu + 2")


@dataclass(frozen=True)
class IsotropicField(_Field):
    """Purely azimuthal power-law force F_theta = r^mu."""

    mu: float

    def __post_init__(self) -> None:
        _check_mu(self.mu)
        object.__setattr__(self, "mu", float(self.mu))

    _FORCE = "f_r = 0.0\n" + _power("f_t", "r", "mu", positive=True)
    _CURL = (_power("r_mu1", "r", "(mu - 1.0)", positive=True)
             + "curl = (mu + 1.0) * r_mu1\n")

    def _constants(self):
        return {"mu": self.mu}


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

    _FORCE = (_power("r_nu", "r", "nu", positive=True) + "f_r = r_nu * rdot\n"
              + _power("f_t", "r", "mu", positive=True))

    def _constants(self):
        return {"mu": self.mu, "nu": self.nu}


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


def _rhs(args: tuple, body: str, **constants):
    """The public rhs(t, y) -> ndarray of a formula written once, as text.

    body reads the time args[0] (none if empty), the state args[1:] and
    the constants, and sets the slopes d0, d1, ...  integrate.integrate
    pastes it into its step loop (rhs.formula, rhs.constants).  The same
    text compiled is rhs.kernel(t, y), which takes a float and a list of
    floats and returns a new list of floats; everyone else calls rhs with
    an ndarray or any sequence of numbers.
    """
    outs = [f"d{c}" for c in range(len(args) - 1)]
    kernel = _bind(f"{args[0] or '_'}, y",
                   f"[{', '.join(args[1:])}] = y\n" + body,
                   f"[{', '.join(outs)}]", constants)

    def rhs(t, y):
        return np.array(kernel(float(t), [float(v) for v in y]))

    rhs.kernel = kernel
    rhs.formula = (args, body, tuple(constants))
    rhs.constants = tuple(constants.values())
    return rhs


def polar_rhs(field: ForceField):
    """Planar Newtonian motion: y = (r, theta, rdot, thetadot).

    rddot = r*thetadot^2 + F_r, thetaddot = (F_theta - 2*rdot*thetadot)/r.
    A power of r in the field's formula that underflows to 0.0, or an
    angle function met at theta = +-inf (math.cos raises there), makes the
    stage nan.
    """
    force, constants = field._formula(field._FORCE)
    return _rhs(("", "r", "theta", "rdot", "thetadot"),
                "if not (r > 0.0):\n"
                "    d0 = d1 = d2 = d3 = nan\n"
                "else:\n" + _indent(_paste(
                    force + "d0 = rdot\n"
                    "d1 = thetadot\n"
                    "d2 = r * thetadot * thetadot + f_r\n"
                    "d3 = (f_t - 2.0 * rdot * thetadot) / r",
                    guard=_FIELD_RAISES, outs=("d0", "d1", "d2", "d3")), 4),
                **constants)


# psi_reduced_rhs variant -> its factor on the damping term (h2)'/h2
_VARIANTS = {"derived": 0.5, "as_printed": 1.0}


def psi_reduced_rhs(I: float, U: AngleFunction, V: AngleFunction,
                    variant: str = "derived"):
    """Reduction to psi(theta) = 1/r with h2(theta) = 2*(I - V(theta)).

    derived:    psi'' + [(h2)'/(2 h2)] psi' + (1 + U/h2) psi = 0
    as_printed: psi'' + [(h2)'/h2]     psi' + (1 + U/h2) psi = 0

    The two differ only in the damping coefficient; the equivalence tests
    against the direct polar simulation adjudicate between them.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; use "
                         + " or ".join(map(repr, _VARIANTS)))
    body, values = _angles(_paste("h2 = 2.0 * (I - V0)\n"
                                  "if h2 == 0.0:\n"
                                  "    d0 = d1 = nan\n"
                                  "else:\n"
                                  "    h2p = -2.0 * V1\n"
                                  "    d0 = dpsi\n"
                                  "    d1 = -(factor * h2p / h2) * dpsi"
                                  " - (1.0 + U0 / h2) * psi",
                                  guard=_ANGLE_RAISES, outs=("d0", "d1")),
                           U=U, V=V)
    return _rhs(("theta", "psi", "dpsi"), body, I=I,
                factor=_VARIANTS[variant], **values)


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
    return _rhs(("theta", "r", "rp"),
                "denom = I - cos(theta)\n"
                "if not (r > 0.0) or denom == 0.0:\n"
                "    d0 = d1 = nan\n"
                "else:\n"
                "    a = sin(theta) / (2.0 * denom)\n"
                "    d0 = rp\n"
                "    d1 = (2.0 * rp * rp - r * rp * a + r * r) / r",
                I=I)


def ef_rhs(n: float, m: float, c: float = 1.0):
    """T'' = c * J^n * T^m with y = (T, T'): raw_ef_rhs with a = 1, b = 0
    (whose 1.0 * T + 0.0 is T but for -0.0, where real_power is the same)."""
    return raw_ef_rhs(n, m, 1.0, 0.0, c)


def raw_ef_rhs(n: float, m: float, a: float, b: float, c: float = 1.0):
    """T'' = c * J^n * (a*T + b)^m with y = (T, T').

    With a = mu + 2 and b = r0^(mu+2) this is the equation the torque map's
    raw variables satisfy, since a*Tt + b = r^(mu+2).  c is the potential
    scale of invariants.PowerLagrangian; at c = 1.0 the product has the
    bits of J^n * (a*T + b)^m.
    """
    return _rhs(("J", "T", "Tp"),
                "d0 = Tp\n" + _power("J_n", "J", "n") + "aTb = a * T + b\n"
                + _power("aTb_m", "aTb", "m") + "d1 = c * J_n * aTb_m",
                n=n, m=m, a=a, b=b, c=c)


def drag_ef_rhs(lam: float, sigma: float):
    """T'' = T^lambda * T' + J^2 * T^sigma with y = (T, T')."""
    return _rhs(("J", "T", "Tp"),
                "d0 = Tp\n" + _power("T_lam", "T", "lam")
                + _power("T_sigma", "T", "sigma")
                + "d1 = T_lam * Tp + J * J * T_sigma",
                lam=lam, sigma=sigma)


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
    return _rhs(("", "T", "J", "Td", "Jd"),
                "jd2 = Jd * Jd\nd0 = Td\nd1 = Jd\n"
                + _power("T_sigma", "T", "sigma") + _power("T_lam", "T", "lam")
                + "d2 = J * J * T_sigma * jd2\n"
                "d3 = -T_lam * jd2",
                lam=lam, sigma=sigma)


def third_order_rhs(lam: float, sigma: float):
    """Y''' = [(Y'' + (Y')^(2+lambda)) Y'' + Y^2 (Y')^(sigma+3)] / Y'."""
    return _rhs(("", "yy", "yp", "ypp"),
                "if yp == 0.0:\n"
                "    d0 = d1 = d2 = nan\n"
                "else:\n"
                + _indent(_power("yp_lam", "yp", "p_lam")
                          + _power("yp_sigma", "yp", "p_sigma"), 4)
                + "    num = (ypp + yp_lam) * ypp + yy * yy * yp_sigma\n"
                "    d0 = yp\n    d1 = ypp\n    d2 = num / yp",
                p_lam=2.0 + lam, p_sigma=sigma + 3.0)


def third_order_residual(y, yp, ypp, yppp, lam: float, sigma: float):
    """Residual of the third-order equation multiplied through by Y'.

    Returns Y''' * Y' - [(Y'' + (Y')^(2+lambda)) Y'' + Y^2 (Y')^(sigma+3)]
    elementwise on floats or ndarrays; the multiplied form avoids dividing
    by small Y'.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return yppp * yp - ((ypp + _rpow(yp, 2.0 + lam)) * ypp
                            + y * y * _rpow(yp, sigma + 3.0))


def _event(name: str, args: tuple, body: str, **constants) -> Event:
    """An Event whose value is a formula written once, as text.

    body reads the time args[0] and the state components args[1:] (an arg
    left "" is not read) and the constants, and sets d0.
    integrate.integrate pastes it into its step loop after each accepted
    step (fn.formula, fn.constants); the same text compiled is fn(t, y),
    which bisection and everyone else call with a list of floats.
    """
    feed = {a: f"y[{c}]" for c, a in enumerate(args[1:])}
    fn = _bind(f"{args[0] or '_'}, y", _paste(body, feed, outs={"d0": "g"}),
               "g", constants)
    fn.formula = (args, body, tuple(constants))
    fn.constants = tuple(constants.values())
    return Event(name, fn)


def r_floor_event(threshold: float = 1e-8, name: str = "r-floor") -> Event:
    """Stop a polar run when the radius reaches the threshold."""
    return _event(name, ("", "r"), "d0 = r - threshold", threshold=threshold)


def h2_singularity_event(I: float, V: AngleFunction,
                         threshold: float = 1e-6) -> Event:
    """Stop a psi-reduction run when h2 = 2*(I - V(theta)) crosses zero."""
    body, values = _angles(_paste("d0 = abs(2.0 * (I - V0)) - threshold",
                                  guard=_ANGLE_RAISES, outs=("d0",)), V=V)
    return _event("h2-singular", ("theta",), body, I=I, threshold=threshold,
                  **values)


def yprime_floor_event(threshold: float = 1e-10) -> Event:
    """Stop a third-order run when |Y'| collapses (equation divides by Y')."""
    return _event("Yprime-floor", ("", "", "yp"), "d0 = abs(yp) - threshold",
                  threshold=threshold)
