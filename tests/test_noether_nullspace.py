"""Noether generators of T'' = J^n T^m as the nullspace of a linear map.

For L = T'^2 + (2/(m+1)) J^n T^(m+1) the Noether condition
R = xi L_J + eta L_T + eta_hat L_T' + L xi_J - (V_J + V_T T') is linear in
GeneratorSpec's 7 coefficients: xi = a0 + a1 J + a2 J^2,
eta = (b0 + b1 J) T and the gauge V = c T^2 + c0.  R vanishes identically
exactly when its coefficient of each monomial J^i T^k T'^l does, so the
Noether generators are the nullspace of that linear system, which sympy
solves exactly.  c0 drops out of R, so the constant gauge is in every
nullspace; the basis below is the rest.  Over a grid of rational (n, m)
that basis follows one rule: (J^2, J T; T^2) exactly when n + m = -3,
(2 J, T) exactly when m = -2 n - 3, and translation in J exactly when
n = 0.  Each known integral of `cli._KNOWN_INTEGRALS` but the c = 1
variant is then the constructed integral of a derived generator.
"""

import warnings

import pytest
import sympy as sp

from curlforce import cli
from curlforce.invariants import (
    GeneratorSpec,
    PowerLagrangian,
    ef_integral_m5,
    ef_integral_m7,
    generator_g1,
    generator_g2,
    generator_half,
    generator_scaling,
    noether_integral,
    noether_residual,
)

_J, _T = sp.symbols("J T", positive=True)
_TP, _TPP = sp.symbols("Tp Tpp")
_A = sp.symbols("a0 a1 a2 b0 b1 c")

_PROBE = [(J, T, Tp) for J in (0.6, 1.3) for T in (0.7, 1.9)
          for Tp in (-0.5, 0.8)]


def _lagrangian(n, m):
    return _TP ** 2 + sp.Rational(2, m + 1) * _J ** n * _T ** (m + 1)


def _generator(a):
    """(xi, eta, V) with coefficients a = (a0, a1, a2, b0, b1, c)."""
    a0, a1, a2, b0, b1, c = a
    return a0 + a1 * _J + a2 * _J ** 2, (b0 + b1 * _J) * _T, c * _T ** 2


def _noether_condition(L, xi, eta, V):
    eta_hat = sp.diff(eta, _J) + (sp.diff(eta, _T) - sp.diff(xi, _J)) * _TP
    return (xi * sp.diff(L, _J) + eta * sp.diff(L, _T)
            + eta_hat * sp.diff(L, _TP) + L * sp.diff(xi, _J)
            - sp.diff(V, _J) - sp.diff(V, _T) * _TP)


def _by_monomial(exprs: list) -> sp.Matrix:
    """One column per expression: its coefficient of each monomial in
    J, T and T' (one row per monomial met)."""
    rows = {}
    for k, expr in enumerate(exprs):
        for term in sp.Add.make_args(sp.expand(expr)):
            coeff, monomial = term.as_coeff_Mul()
            rows.setdefault(monomial, [0] * len(exprs))[k] += coeff
    return sp.Matrix(list(rows.values()))


def _nullspace(n, m) -> sp.Matrix:
    """Rows spanning the Noether generators (a0, a1, a2, b0, b1, c) of L,
    in reduced row echelon form."""
    R = sp.expand(_noether_condition(_lagrangian(n, m), *_generator(_A)))
    basis = _by_monomial([sp.diff(R, a) for a in _A]).nullspace()
    if not basis:
        return sp.zeros(0, len(_A))
    return sp.Matrix.hstack(*basis).T.rref()[0]


def _coefficients(G: GeneratorSpec) -> list:
    """G's coefficients but the constant gauge, as exact rationals."""
    return [sp.Rational(x) for x in (*G.xi, *G.eta, G.gauge[0])]


def _span(*generators: GeneratorSpec) -> sp.Matrix:
    return sp.Matrix([_coefficients(G) for G in generators]).rref()[0]


_TRANSLATION = GeneratorSpec(xi=(1.0, 0.0, 0.0))


@pytest.mark.parametrize("n, m, generators", [
    (2, -5, [generator_g2()]),
    (2, -7, [generator_half()]),
    (1, -4, [generator_g2()]),
    (0, -3, [_TRANSLATION, generator_half(), generator_g2()]),
    (2, -3, []),
], ids=["2,-5:g2", "2,-7:half", "1,-4:g2-form", "0,-3:three", "2,-3:none"])
def test_basis_beyond_the_constant_gauge(n, m, generators):
    basis = _nullspace(n, m)
    if generators:
        assert basis == _span(*generators)
    else:
        assert basis.rows == 0
    # the package's numeric residual agrees on each basis generator
    L = PowerLagrangian(float(n), float(m))
    for row in basis.tolist():
        a0, a1, a2, b0, b1, c = (float(x) for x in row)
        G = GeneratorSpec(xi=(a0, a1, a2), eta=(b0, b1), gauge=(c, 0.0))
        assert max(abs(r) for r in noether_residual(L, G, _PROBE)) < 1e-12


_GRID_N = [sp.Integer(0), sp.Rational(1, 2), sp.Integer(1), sp.Integer(2)]
_GRID_M = [sp.Integer(-5), sp.Integer(-4), sp.Rational(-7, 2), sp.Integer(-3),
           sp.Integer(-2), sp.Integer(3)]


@pytest.mark.parametrize("n", _GRID_N, ids=str)
def test_basis_rule_on_a_rational_grid(n):
    for m in [*_GRID_M, -n - 3, -2 * n - 3]:
        expect = []
        if n == 0:
            expect.append(_TRANSLATION)
        if m == -2 * n - 3:
            expect.append(GeneratorSpec(xi=(0.0, 2.0, 0.0), eta=(1.0, 0.0)))
        if n + m == -3:
            expect.append(generator_g2())
        basis = _nullspace(n, m)
        if expect:
            assert basis == _span(*expect), (n, m)
        else:
            assert basis.rows == 0, (n, m)


def _symbolic(G: GeneratorSpec):
    """(xi, eta, V) of G's own evaluators on the symbols, made exact."""
    return tuple(sp.nsimplify(e) for e in (G.xi_of(_J), G.eta_of(_J, _T),
                                           G.gauge_of(_T)))


def _lie_condition(xi, eta, omega):
    """xi w_J + eta w_T + eta1 w_T' - eta2 on solutions of T'' = w(J, T, T')."""
    def D(f):
        return sp.diff(f, _J) + _TP * sp.diff(f, _T) + _TPP * sp.diff(f, _TP)

    eta1 = D(eta) - _TP * D(xi)
    eta2 = D(eta1) - _TPP * D(xi)
    cond = (xi * sp.diff(omega, _J) + eta * sp.diff(omega, _T)
            + eta1 * sp.diff(omega, _TP) - eta2)
    return sp.simplify(cond.subs(_TPP, omega))


class TestNamedGenerators:
    def test_g1_is_a_lie_symmetry_but_not_a_noether_symmetry_for_m5(self):
        xi, eta, V = _symbolic(generator_g1())
        assert (xi, eta, V) == (_J, sp.Rational(2, 3) * _T, 0)
        assert _lie_condition(xi, eta, _J ** 2 * _T ** -5) == 0
        R = _noether_condition(_lagrangian(2, -5), xi, eta, V)
        assert sp.simplify(R) != 0

    def test_g2_is_noetherian_for_m5(self):
        xi, eta, V = _symbolic(generator_g2())
        assert (xi, eta, V) == (_J ** 2, _J * _T, _T ** 2)
        assert sp.simplify(_noether_condition(_lagrangian(2, -5), xi, eta,
                                              V)) == 0

    def test_half_is_noetherian_for_m7(self):
        xi, eta, V = _symbolic(generator_half())
        assert (xi, eta, V) == (_J, _T / 2, 0)
        assert sp.simplify(_noether_condition(_lagrangian(2, -7), xi, eta,
                                              V)) == 0

    @pytest.mark.parametrize("lam", [sp.Integer(1), sp.Rational(-1, 2),
                                     sp.Rational(2, 3)], ids=str)
    def test_scaling_is_a_lie_symmetry_of_the_damped_equation(self, lam):
        # T'' = T^lambda T' + J^2 T^sigma with sigma = 1 + 4 lambda
        xi, eta, V = _symbolic(generator_scaling(float(lam)))
        assert (xi, eta, V) == (lam * _J, -_T, 0)
        omega = _T ** lam * _TP + _J ** 2 * _T ** (1 + 4 * lam)
        assert _lie_condition(xi, eta, omega) == 0
        assert _lie_condition(xi, eta, omega * _T) != 0


@pytest.mark.parametrize("m, G, known", [
    (-5.0, generator_g2(), ef_integral_m5),
    (-7.0, generator_half(),
     lambda J, T, Tp: ef_integral_m7(J, T, Tp, c=1.0 / 3.0)),
], ids=["g2:m5", "half:m7"])
def test_noether_integral_is_the_known_form(m, G, known):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluator = noether_integral(PowerLagrangian(2.0, m), G)
    got = sp.nsimplify(evaluator(_J, _T, _TP))
    assert sp.simplify(got - sp.nsimplify(known(_J, _T, _TP))) == 0


def _integral(n, m, G: GeneratorSpec):
    return sp.nsimplify(noether_integral(PowerLagrangian(float(n), float(m)),
                                         G)(_J, _T, _TP))


# drift key of each closed form -> whether a derived generator yields it
_DERIVED = {"ef_integral_m5": True, "ef_integral_m7_c_one_third": True,
            "ef_integral_m7_c_one": False}


@pytest.mark.parametrize("n, m, key, integral", [
    (n, m, key, integral) for (n, m), row in cli._KNOWN_INTEGRALS.items()
    for key, _, integral in row if key],
    ids=lambda v: v if isinstance(v, str) else "")
def test_known_integrals_come_from_derived_generators(n, m, key, integral):
    # the closed form is in the span of the derived generators' integrals
    # and the constants (the constant gauge) exactly when it is derived
    basis = [GeneratorSpec(xi=row[:3], eta=row[3:5], gauge=(row[5], 0.0))
             for row in (tuple(float(x) for x in r)
                         for r in _nullspace(int(n), int(m)).tolist())]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spanned = [_integral(n, m, G) for G in basis] + [sp.Integer(1)]
    known = sp.nsimplify(integral(_J, _T, _TP))
    rank = _by_monomial(spanned).rank()
    assert (_by_monomial(spanned + [known]).rank() == rank) == _DERIVED[key]
