"""Lie point symmetries of the damped equation as the nullspace of a linear map.

For T'' = w(J, T, T') = T^lambda T' + J^2 T^sigma (systems.drag_ef_rhs) a
generator xi d/dJ + eta d/dT is a Lie point symmetry exactly when
xi w_J + eta w_T + eta1 w_T' - eta2 vanishes on solutions, where eta1 and
eta2 are its first and second prolongations and T'' is replaced by w.
That condition is linear in the coefficients of the ansatz
xi = a0 + a1 J + a2 J^2 + a3 T, eta = (b0 + b1 J) T + b2 + b3 J, and it
vanishes identically exactly when its coefficient of each monomial
J^i T^k T'^l does, so the symmetries within the ansatz are the nullspace of
that linear system, which sympy solves exactly.  On a rational
(lambda, sigma) grid the nullspace is the scaling generator
(lambda J, -T) of invariants.generator_scaling exactly when
sigma = 1 + 4 lambda, and empty otherwise.
"""

import math

import pytest
import sympy as sp

from curlforce.analysis import _scaling_sigma
from curlforce.invariants import generator_scaling

_J, _T = sp.symbols("J T", positive=True)
_TP, _TPP = sp.symbols("Tp Tpp")
_A = sp.symbols("a0 a1 a2 a3 b0 b1 b2 b3")


def _generator(a):
    """(xi, eta) with coefficients a = (a0, a1, a2, a3, b0, b1, b2, b3)."""
    a0, a1, a2, a3, b0, b1, b2, b3 = a
    return (a0 + a1 * _J + a2 * _J ** 2 + a3 * _T,
            (b0 + b1 * _J) * _T + b2 + b3 * _J)


def _lie_condition(xi, eta, omega):
    """xi w_J + eta w_T + eta1 w_T' - eta2 with T'' = w(J, T, T') put in."""
    def D(f):
        return sp.diff(f, _J) + _TP * sp.diff(f, _T) + _TPP * sp.diff(f, _TP)

    eta1 = D(eta) - _TP * D(xi)
    eta2 = D(eta1) - _TPP * D(xi)
    cond = (xi * sp.diff(omega, _J) + eta * sp.diff(omega, _T)
            + eta1 * sp.diff(omega, _TP) - eta2)
    return sp.expand(cond.subs(_TPP, omega))


def _by_monomial(exprs: list) -> sp.Matrix:
    """One column per expression: its coefficient of each monomial in
    J, T and T' (one row per monomial met)."""
    rows = {}
    for k, expr in enumerate(exprs):
        for term in sp.Add.make_args(sp.expand(expr)):
            coeff, monomial = term.as_coeff_Mul()
            rows.setdefault(monomial, [0] * len(exprs))[k] += coeff
    return sp.Matrix(list(rows.values()))


def _nullspace(lam, sigma) -> sp.Matrix:
    """Rows spanning the Lie symmetries (a0..a3, b0..b3) of the damped
    equation within the ansatz, in reduced row echelon form."""
    omega = _T ** lam * _TP + _J ** 2 * _T ** sigma
    cond = _lie_condition(*_generator(_A), omega)
    basis = _by_monomial([sp.diff(cond, a) for a in _A]).nullspace()
    if not basis:
        return sp.zeros(0, len(_A))
    return sp.Matrix.hstack(*basis).T.rref()[0]


def _scaling_row(lam) -> sp.Matrix:
    """generator_scaling(lam)'s coefficients in the ansatz, made exact."""
    G = generator_scaling(float(lam))
    a0, a1, a2 = (sp.nsimplify(x) for x in G.xi)
    b0, b1 = (sp.nsimplify(x) for x in G.eta)
    assert G.gauge == (0.0, 0.0)
    return sp.Matrix([[a0, a1, a2, 0, b0, b1, 0, 0]]).rref()[0]


_R = sp.Rational
_ON_THE_FAMILY = [(_R(1), _R(5)), (_R(1, 2), _R(3)), (_R(-1, 2), _R(-1)),
                  (_R(2), _R(9)), (_R(-2), _R(-7)), (_R(3, 2), _R(7)),
                  (_R(1, 3), _R(7, 3))]
_OFF_THE_FAMILY = [(_R(1), _R(4)), (_R(1), _R(3)), (_R(1, 2), _R(2))]


@pytest.mark.parametrize("lam, sigma", _ON_THE_FAMILY, ids=str)
def test_scaling_is_the_only_symmetry_on_the_family(lam, sigma):
    assert _nullspace(lam, sigma) == _scaling_row(lam)
    # analysis's sigma = 1 + 4 lambda, on floats: exact where lambda is a
    # dyadic rational; lambda = 1/3 rounds to a float whose 1 + 4 lambda is
    # one ulp below the float nearest 7/3
    got = _scaling_sigma(float(lam))
    if math.log2(lam.q).is_integer():
        assert got == float(sigma)
    else:
        assert got != float(sigma)
        assert abs(got - float(sigma)) == math.ulp(float(sigma))


@pytest.mark.parametrize("lam, sigma", _OFF_THE_FAMILY, ids=str)
def test_no_symmetry_off_the_family(lam, sigma):
    assert _nullspace(lam, sigma).rows == 0
    assert _scaling_sigma(float(lam)) != float(sigma)
