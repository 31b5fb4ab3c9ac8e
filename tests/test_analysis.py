import dis
import hashlib
import inspect
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curlforce import analysis
from curlforce.analysis import (
    ChainQuadrature,
    NoRoot,
    NonRealLambda,
    QuadratureError,
    abel_reduction_residual,
    drag_exponents,
    drag_map_residual,
    ef_residual,
    j_of_r,
    lambda_coeff,
    m_from_mu,
    orbit_theta_of_r,
    particular_solution,
    power_solution_y0,
    quad_adaptive,
    reparametrize_by_angle,
    scaling_map_residual,
    seed_polar_from_particular,
    time_of_r,
    torque_map,
)
from curlforce.core import (DomainError, EFSeries, Trajectory, real_power,
                            resample)
from curlforce.integrate import IntegratorSettings, integrate
from curlforce.systems import IsotropicField, drag_ef_rhs, polar_rhs


class TestExponentMaps:
    @pytest.mark.parametrize("mu, m", [
        (-1.5, -5.0),
        (-5.0 / 3.0, -7.0),
        (0.0, -2.0),
        (-1.0, -3.0),
        (-4.0, 0.0),
    ])
    def test_m_from_mu(self, mu, m):
        assert m_from_mu(mu) == pytest.approx(m, rel=1e-12)

    def test_mu_minus_two_rejected(self):
        with pytest.raises(ValueError):
            m_from_mu(-2.0)
        with pytest.raises(ValueError):
            drag_exponents(-2.0, -1.0)

    def test_drag_exponents(self):
        lam, sigma, rho = drag_exponents(-4.0, -2.0)
        assert lam == pytest.approx(0.0)
        assert sigma == pytest.approx(1.0)
        assert rho == pytest.approx(-0.5)


class TestLambdaCoeff:
    def test_zero_base_gives_zero(self):
        # n + m + 1 = 0 degenerates the particular branch
        assert lambda_coeff(2.0, -3.0) == 0.0

    def test_known_values(self):
        assert lambda_coeff(2.0, -2.0) == pytest.approx(
            (9.0 / 4.0) ** (1.0 / 3.0), rel=1e-15)
        assert lambda_coeff(2.0, 0.0) == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_negative_base_even_root_rejected(self):
        with pytest.raises(NonRealLambda):
            lambda_coeff(2.0, -5.0)

    def test_negative_base_odd_root_is_real(self):
        # m - 1 = -3 is an odd integer, so the real cube root exists
        val = lambda_coeff(0.0, -2.0)
        assert val == pytest.approx(-(4.5 ** (1.0 / 3.0)), rel=1e-14)

    def test_m_one_rejected(self):
        with pytest.raises(ValueError):
            lambda_coeff(2.0, 1.0)

    @pytest.mark.parametrize("n, m", [(2.0, -2.0), (2.0, 0.0), (3.0, -2.5),
                                      (0.0, -2.0), (1.0, -0.5)])
    def test_defining_identity(self, n, m):
        lam = lambda_coeff(n, m)
        assert lam ** (m - 1.0) * (m - 1.0) ** 2 == pytest.approx(
            (n + 2.0) * (n + m + 1.0), rel=1e-12)


class TestParticularSolution:
    def test_exponent(self):
        sol = particular_solution(2.0, -2.0)
        assert sol.exponent == pytest.approx(4.0 / 3.0)

    def test_ode_residual_vanishes(self):
        J = np.linspace(0.5, 3.0, 11)
        for n, m in ((2.0, -2.0), (2.0, 0.0), (0.0, -2.0)):
            sol = particular_solution(n, m)
            assert np.max(np.abs(sol.ode_residual(J))) < 1e-12

    def test_derivatives_consistent(self):
        sol = particular_solution(2.0, -2.0)
        h = 1e-6
        for J in (0.8, 1.7):
            fd = (sol.T(J + h) - sol.T(J - h)) / (2.0 * h)
            assert sol.Tprime(J) == pytest.approx(fd, rel=1e-8)
            fd2 = (sol.Tprime(J + h) - sol.Tprime(J - h)) / (2.0 * h)
            assert sol.Tsecond(J) == pytest.approx(fd2, rel=1e-8)

    @pytest.mark.parametrize("n, m", [(2.0, -2.0), (2.0, -7.0 / 3.0),
                                      (0.5, 3.0)])
    def test_float_and_array_give_same_bits(self, n, m):
        # quadrature integrands call these on floats, residual reports on
        # arrays; both must be the same formula
        sol = particular_solution(n, m)
        for J in (0.3, 1.0, 1.7, 2.9):
            for method in (sol.T, sol.Tprime, sol.Tsecond, sol.ode_residual):
                scalar = method(J)
                assert isinstance(scalar, float)
                assert np.array([scalar]).tobytes() \
                    == method(np.array([J])).tobytes()


class TestTorqueMap:
    def test_scaled_series_satisfies_power_law(self, iso_m5_traj):
        series = torque_map(iso_m5_traj, mu=-1.5)
        assert series.scaled
        assert np.all(np.diff(series.J) > 0.0)
        stats = ef_residual(series, 2.0, -5.0)
        assert stats.max_abs < 1e-4 * stats.scale

    def test_wrong_target_exponent_fails(self, iso_m5_traj):
        series = torque_map(iso_m5_traj, mu=-1.5)
        stats = ef_residual(series, 2.0, -4.0)
        assert stats.max_abs > 1e-2 * stats.scale

    def test_raw_and_scaled_relation(self, iso_m5_traj):
        mu = -1.5
        a = mu + 2.0
        raw = torque_map(iso_m5_traj, mu, apply_scaling=False)
        scaled = torque_map(iso_m5_traj, mu)
        assert np.allclose(scaled.T, a * raw.T, rtol=1e-14)
        assert np.allclose(scaled.J, a ** 0.25 * raw.J, rtol=1e-14)
        assert np.allclose(scaled.Tprime, a ** 0.75 * raw.Tprime, rtol=1e-14)

    def test_raw_values_from_kinematics(self, iso_m5_traj):
        mu = -1.5
        raw = torque_map(iso_m5_traj, mu, apply_scaling=False)
        r = iso_m5_traj.y[:, 0]
        thetadot = iso_m5_traj.y[:, 3]
        assert np.allclose(raw.T, r ** 0.5 / 0.5, rtol=1e-14)
        assert np.allclose(raw.J, r ** 2 * thetadot, rtol=1e-14)
        assert np.allclose(raw.Tprime, iso_m5_traj.y[:, 2], rtol=1e-14)

    def test_scaling_requires_mu_above_minus_two(self, drag_m4_traj):
        with pytest.raises(ValueError):
            torque_map(drag_m4_traj, mu=-4.0)
        raw = torque_map(drag_m4_traj, mu=-4.0, r0=math.inf,
                         apply_scaling=False)
        assert len(raw) == drag_m4_traj.t.size

    def test_mu_minus_two_rejected(self, iso_m5_traj):
        with pytest.raises(ValueError):
            torque_map(iso_m5_traj, mu=-2.0)

    def test_needs_polar_trajectory(self, ef_m5_run):
        with pytest.raises(ValueError):
            torque_map(ef_m5_run, mu=-1.5)

    def test_nonmonotone_torque_falls_back_with_warning(self):
        t = np.linspace(0.0, 2.0, 41)
        thetadot = 1.1 - (t - 1.0) ** 2
        y = np.column_stack([np.ones_like(t), 0.1 * t,
                             np.zeros_like(t), thetadot])
        traj = Trajectory(t=t, y=y, dy=np.zeros_like(y))
        with pytest.warns(UserWarning, match="longest"):
            series = torque_map(traj, mu=-1.5)
        assert 2 <= len(series) < t.size
        assert np.all(np.diff(series.J) > 0.0)

    def test_decreasing_torque_reversed_with_warning(self):
        # J = r^2 * thetadot strictly decreases: all samples are kept, in
        # increasing order, and the map still warns that J was not increasing
        t = np.linspace(0.0, 1.0, 21)
        y = np.column_stack([np.ones_like(t), 0.1 * t,
                             np.zeros_like(t), 2.0 - t])
        traj = Trajectory(t=t, y=y, dy=np.zeros_like(y))
        with pytest.warns(UserWarning, match="not strictly increasing"):
            series = torque_map(traj, mu=-1.5)
        assert len(series) == t.size
        assert np.all(np.diff(series.J) > 0.0)


class TestBranchInversion:
    def test_value_at_unit_radius(self):
        # mu = 0 branch through r = 1
        val = j_of_r(1.0, mu=0.0, r0=0.0, n=2.0, m=-2.0)
        assert val == pytest.approx(0.8164965809277261, abs=1e-15)

    def test_array_input(self):
        r = np.array([1.0, 1.5, 2.0])
        vals = j_of_r(r, mu=0.0, r0=0.0, n=2.0, m=-2.0)
        assert vals.shape == r.shape
        assert np.all(np.diff(vals) > 0.0)

    def test_round_trip_through_branch(self):
        sol = particular_solution(2.0, -2.0)
        J1 = 1.3
        r1 = sol.T(J1) ** 0.5
        assert j_of_r(r1, mu=0.0, r0=0.0, n=2.0, m=-2.0) == pytest.approx(
            J1, rel=1e-13)

    def test_degenerate_branch_rejected(self):
        # mu = -1 maps to m = -3 where the coefficient vanishes
        with pytest.raises(DomainError):
            j_of_r(1.0, mu=-1.0, r0=0.0, n=2.0, m=-3.0)

    def test_negative_bracket_rejected(self):
        with pytest.raises(DomainError):
            j_of_r(0.5, mu=0.0, r0=1.0, n=2.0, m=-2.0)


class TestReferenceRadiusConventions:
    def test_r0_zero_needs_positive_power(self):
        # mu = -4 makes the exponent negative, so r0 = 0 is unusable
        with pytest.raises(DomainError, match="inf"):
            j_of_r(1.0, mu=-4.0, r0=0.0, n=2.0, m=0.0)

    def test_r0_inf_needs_negative_power(self):
        with pytest.raises(DomainError):
            j_of_r(1.0, mu=0.0, r0=math.inf, n=2.0, m=-2.0)

    def test_r0_inf_works_below_minus_two(self):
        val = j_of_r(1.0, mu=-4.0, r0=math.inf, n=2.0, m=0.0)
        assert val == pytest.approx((1.0 / lambda_coeff(2.0, 0.0)) ** 0.25)

    def test_negative_r0_rejected(self):
        with pytest.raises(DomainError):
            j_of_r(1.0, mu=0.0, r0=-1.0, n=2.0, m=-2.0)


# sha256 over the theta and tau values and printed ratios of each case,
# recorded with the branch integrands on numpy 0-d arrays (x86-64 Linux,
# glibc); the float integrands must reproduce them bit for bit
_CHAIN_DIGESTS = [
    (0.0, 0.0, np.linspace(1.0, 2.0, 9),
     "11f1e4a124ec8f090cee4929499563a112445702e7cc3629cd9d7e115bd5a012"),
    (-0.5, 0.3, np.linspace(1.2, 2.1, 40),
     "ed9323df25b077ff8e83710917c27e28211dff8910fabb16bb9026f9958b3580"),
    (2.0, 0.5, np.array([1.0, 1.3, 1.9]),
     "1a6283301fdbcadf7be4c002c71035122271c100808c7780461961fa42840786"),
    (-2.5, math.inf, np.linspace(0.5, 1.5, 12),
     "86c88aacb24ae344f117fbfe759b4787ad5aa7d57a82718bf6f732917021b033"),
]


class TestChainQuadratures:
    @pytest.mark.parametrize("mu, r0, rg, digest", _CHAIN_DIGESTS,
                             ids=["mu0", "mu-0.5", "mu2", "mu-2.5-inf"])
    def test_recorded_bits(self, mu, r0, rg, digest):
        h = hashlib.sha256()
        for quadrature in (orbit_theta_of_r, time_of_r):
            rep = quadrature(mu, r0, rg)
            h.update(rep.values.astype("<f8").tobytes())
            h.update(rep.printed_ratio.astype("<f8").tobytes())
        assert h.hexdigest() == digest

    def test_theta_closed_form_mu_zero(self):
        # the mu = 0 chain integrand is c/r, so theta grows like log r
        lam = lambda_coeff(2.0, -2.0)
        rg = np.linspace(1.0, 2.0, 5)
        out = orbit_theta_of_r(0.0, 0.0, rg)
        expect = (3.0 * math.sqrt(2.0) / 4.0) * lam ** -1.5 * np.log(rg)
        assert out.values[0] == 0.0
        assert np.max(np.abs(out.values - expect)) < 1e-10
        assert out.abs_error_estimate < 1e-8
        assert out.evaluations > 0

    def test_tau_closed_form_mu_zero(self):
        lam = lambda_coeff(2.0, -2.0)
        rg = np.linspace(1.0, 2.0, 5)
        out = time_of_r(0.0, 0.0, rg)
        expect = 3.0 * lam ** -0.75 * (np.sqrt(rg) - 1.0)
        assert np.max(np.abs(out.values - expect)) < 1e-10

    def test_tau_offset_and_physical_units(self):
        rg = np.linspace(1.0, 2.0, 4)
        base = time_of_r(0.0, 0.0, rg)
        shifted = time_of_r(0.0, 0.0, rg, tau0=2.5)
        assert np.allclose(shifted.values - base.values, 2.5, atol=1e-14)
        phys = time_of_r(0.0, 0.0, rg, physical_time=True)
        assert np.allclose(phys.values, base.values * 2.0 ** -0.25,
                           rtol=1e-13)

    def test_printed_comparators_disagree(self):
        # the printed closed forms do not reproduce the chain integrands
        rg = np.linspace(1.0, 2.0, 5)
        th = orbit_theta_of_r(0.0, 0.0, rg)
        assert np.max(np.abs(th.printed_ratio - 1.0)) > 0.1
        tau = time_of_r(0.0, 0.0, rg)
        assert np.max(np.abs(tau.printed_ratio - 1.0)) > 0.1

    def test_mu_below_minus_two_with_infinite_reference(self):
        rg = np.linspace(1.0, 2.0, 4)
        th = orbit_theta_of_r(-4.0, math.inf, rg)
        tau = time_of_r(-4.0, math.inf, rg)
        assert np.all(np.isfinite(th.values))
        assert np.all(np.isfinite(tau.values))
        assert np.all(np.diff(th.values) > 0.0)
        assert np.all(np.diff(tau.values) > 0.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            orbit_theta_of_r(0.0, 0.0, [2.0, 1.0])
        with pytest.raises(DomainError):
            orbit_theta_of_r(0.0, 0.0, [-1.0, 1.0])

    def test_degenerate_coefficient_rejected(self):
        with pytest.raises(DomainError):
            orbit_theta_of_r(-1.0, 0.0, [1.0, 2.0])
        with pytest.raises(DomainError):
            time_of_r(-1.0, 0.0, [1.0, 2.0])


# the mu values of the benchmark's branch-quadrature jobs
MU_BRANCH = (-0.5, 0.0, 0.5, 1.0, 2.0)


def _ref_probe(f, x):
    try:
        v = float(f(x))
    except (ZeroDivisionError, ValueError, OverflowError):
        return None
    return v if math.isfinite(v) else None


def _ref_quad(f, a, b, tol, max_evals):
    """quad_adaptive on one panel as a plain depth-first recursion:
    (value, error estimate, evaluations)."""
    a, b = float(a), float(b)
    span = b - a
    tol_density = tol / span
    state = {"evals": 0, "err": 0.0}

    def rec(a, fa, m, fm, b, fb, whole, depth):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = _ref_probe(f, lm), _ref_probe(f, rm)
        state["evals"] += 2
        if flm is None or frm is None:
            bad = lm if flm is None else rm
            raise QuadratureError(f"integrand not finite at x = {bad}")
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        s2 = left + right
        delta = s2 - whole
        if (abs(delta) <= 15.0 * tol_density * (b - a)
                or state["evals"] >= max_evals):
            state["err"] += abs(delta) / 15.0
            return s2 + delta / 15.0
        if depth >= 60:
            raise QuadratureError(
                f"no convergence after 60 bisection levels on [{a}, {b}]")
        return (rec(a, fa, lm, flm, m, fm, left, depth + 1)
                + rec(m, fm, rm, frm, b, fb, right, depth + 1))

    def panel(a, b, fa=None, fb=None):
        state["evals"] += 1 + (fa is None) + (fb is None)
        fa = _ref_probe(f, a) if fa is None else fa
        fb = _ref_probe(f, b) if fb is None else fb
        m = 0.5 * (a + b)
        fm = _ref_probe(f, m)
        if fa is None or fb is None or fm is None:
            raise QuadratureError(f"integrand not finite inside [{a}, {b}]")
        return rec(a, fa, m, fm, b, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb),
                   0)

    fa, fb = _ref_probe(f, a), _ref_probe(f, b)
    state["evals"] += 2
    lo, hi, tail, eps = a, b, 0.0, 1e-12 * span
    if fa is None:
        lo = a + eps
        strip = panel(a + 0.25 * eps, a + eps)
        tail += 2.0 * strip
        state["err"] += abs(strip)
    if fb is None:
        hi = b - eps
        strip = panel(b - eps, b - 0.25 * eps)
        tail += 2.0 * strip
        state["err"] += abs(strip)
    value = panel(lo, hi, fa, fb) + tail
    if state["evals"] >= max_evals:
        raise QuadratureError(
            f"stopped after {state['evals']} integrand evaluations (budget "
            f"{max_evals})", partial=value)
    return value, state["err"], state["evals"]


def _per_panel_quadrature(chain, printed, rg, tol, max_evals):
    """(values, error estimate, evaluations, printed ratios), one _ref_quad
    per panel.  The evaluations are counted as the grid loop makes them:
    each radius once, plus each panel's own, less its two ends unless
    quad_adaptive took the panel over (an end not finite)."""
    values = np.zeros(rg.size)
    err, evals = 0.0, 0
    for i in range(1, rg.size):
        value, e, n = _ref_quad(chain, rg[i - 1], rg[i], tol, max_evals)
        values[i] = values[i - 1] + value
        err += e
        evals += n
    finite = [_ref_probe(chain, float(r)) is not None for r in rg]
    regular = sum(a and b for a, b in zip(finite, finite[1:]))
    if rg.size > 1:
        evals += rg.size - 2 * regular
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.array([printed(r) / chain(r) for r in rg])
    return values, err, evals, ratio


def _reference_integrands(kind, mu, r0):
    """The chain and printed integrands of orbit_theta_of_r or time_of_r
    as closures over real_power."""
    n, m = 2.0, m_from_mu(mu)
    sol = particular_solution(n, m)
    q, p = (1.0 - m) / (n + 2.0), mu + 2.0
    r0p = 0.0 if r0 == 0.0 else real_power(r0, p)
    lam = sol.Lambda
    if kind == "theta":
        s = math.sqrt(abs(mu + 2.0))
        lam_e, e1 = lam * sol.exponent, sol.exponent - 1.0
        coef = q * real_power(lam, -2.0 * q)
        printed_p = -2.0 * (n + m + 3.0) / (n + 2.0)

        def chain(r):
            J = real_power((r ** p - r0p) / lam, q)
            return s * J / (r * r * (lam_e * real_power(J, e1)))
    else:
        coef_t, q1 = q * abs(mu + 2.0) * real_power(lam, -q), q - 1.0
        coef = q * p * real_power(lam, (n + m + 1.0) / (n + 2.0))
        printed_p = -(n + m + 3.0) / (n + 2.0)

        def chain(r):
            return coef_t * real_power(r ** p - r0p, q1)

    def printed(r):
        return coef * real_power(r ** p - r0p, printed_p)

    return chain, printed


def _outcome(fn, *args):
    try:
        return fn(*args)
    except QuadratureError as exc:
        return exc


def _same_outcome(got, ref):
    """got (a ChainQuadrature or QuadratureError) matches the reference's
    (values, err, evals, ratio) or its QuadratureError bit for bit."""
    if isinstance(ref, QuadratureError):
        assert isinstance(got, QuadratureError), got
        assert str(got) == str(ref)
        assert got.partial == ref.partial or (math.isnan(got.partial)
                                              and math.isnan(ref.partial))
        return
    assert not isinstance(got, QuadratureError), got
    values, err, evals, ratio = ref
    assert got.values.tobytes() == values.tobytes()
    assert got.abs_error_estimate == err
    assert got.evaluations == evals
    assert got.printed_ratio.tobytes() == ratio.tobytes()


class TestGridQuadrature:
    """The generated grid loop against quad_adaptive's recursion run on each
    panel alone."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(["theta", "tau"]),
           mu=st.sampled_from(MU_BRANCH), start=st.floats(1.0, 1.5),
           length=st.floats(0.01, 1.5), num=st.integers(2, 300),
           r0=st.one_of(st.just("start"), st.floats(0.0, 0.9)),
           max_evals=st.sampled_from([None, 20, 300, 5000]))
    def test_matches_per_panel_reference(self, kind, mu, start, length, num,
                                         r0, max_evals):
        # r0 = "start" puts an integrable singularity on the grid's first
        # radius, so quad_adaptive takes the first panel over
        rg = np.linspace(start, start + length, num)
        r0 = start if r0 == "start" else r0 * start
        budget = max_evals or analysis._QUAD_MAX_EVALS
        chain, printed = _reference_integrands(kind, mu, r0)
        quadrature = orbit_theta_of_r if kind == "theta" else time_of_r
        with mock.patch.object(analysis, "_QUAD_MAX_EVALS", budget):
            got = _outcome(quadrature, mu, r0, rg)
        _same_outcome(got, _outcome(_per_panel_quadrature, chain, printed,
                                    rg, 1e-10, budget))

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(num=st.integers(2, 40), panel=st.floats(0.0, 1.0),
           where=st.sampled_from([0.5, 0.25, 0.75, 0.375]))
    def test_integrand_not_finite_inside_a_panel(self, num, panel, where):
        # the pole sits on the panel's midpoint (found by the panel) or on a
        # point of its refinement (found by the recursion)
        rg = np.linspace(1.0, 2.0, num)
        i = min(int(panel * (num - 1)), num - 2)
        a, b = float(rg[i]), float(rg[i + 1])
        c = a + where * (b - a)
        if where != 0.5:
            m = 0.5 * (a + b)
            c = 0.5 * (a + m) if where < 0.5 else 0.5 * (m + b)
        got = _outcome(analysis._cumulative_quadrature, "v = 1.0 / (r - c)\n",
                       {"c": c}, lambda r: 1.0, rg, 1e-10)
        ref = _outcome(_per_panel_quadrature, lambda r: 1.0 / (r - c),
                       lambda r: 1.0, rg, 1e-10, analysis._QUAD_MAX_EVALS)
        assert isinstance(ref, QuadratureError)
        _same_outcome(got, ref)

    def test_single_point_grid(self):
        for quadrature in (orbit_theta_of_r, time_of_r):
            rep = quadrature(0.5, 0.3, [1.2])
            assert rep.values.tolist() == [0.0]
            assert rep.evaluations == 0
            assert rep.abs_error_estimate == 0.0

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_tol_checked_on_any_grid(self, tol):
        for quadrature in (orbit_theta_of_r, time_of_r):
            for rg in ([1.2], [1.2, 1.5]):
                with pytest.raises(ValueError, match="tol must be positive"):
                    quadrature(0.5, 0.3, rg, tol=tol)

    def test_generated_source_reads_only_its_namespace(self, monkeypatch):
        # every name the quadrature text reads is a parameter of make, bound
        # by name, or a name of the namespace it is compiled in; a constant
        # left unbound would be read as a global (and fail only when reached)
        bound = []
        simpson = analysis._simpson

        def recording(*key):
            make = simpson(*key)

            def bind(**constants):
                bound.append((make, constants))
                return make(**constants)
            return bind

        monkeypatch.setattr(analysis, "_simpson", recording)
        orbit_theta_of_r(0.5, 0.3, [1.2, 1.5])
        time_of_r(0.5, 0.3, [1.2, 1.5])
        quad_adaptive(math.sin, 0.0, 1.0)
        assert len(bound) == 3
        allowed = {"abs", "float", "len", "range", "ZeroDivisionError",
                   "ValueError", "OverflowError"}
        for make, constants in bound:
            assert set(inspect.signature(make).parameters) == set(constants)
            namespace = set(make.__globals__) - {"__builtins__", "make"}
            codes = [make.__code__]
            while codes:
                code = codes.pop()
                codes += [c for c in code.co_consts if inspect.iscode(c)]
                for ins in dis.get_instructions(code):
                    if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME"):
                        assert ins.argval in namespace | allowed, ins.argval


class TestSeeding:
    def test_seed_lies_on_branch(self):
        J1 = j_of_r(1.0, mu=0.0, r0=0.0, n=2.0, m=-2.0)
        state = seed_polar_from_particular(0.0, 0.0, J1)
        assert state.r == pytest.approx(1.0, rel=1e-14)
        assert state.theta == 0.0
        sol = particular_solution(2.0, -2.0)
        assert state.rdot == pytest.approx(2.0 ** -0.75 * sol.Tprime(J1),
                                           rel=1e-14)
        assert state.thetadot == pytest.approx(2.0 ** -0.25 * J1, rel=1e-14)

    def test_rejections(self):
        with pytest.raises(DomainError):
            seed_polar_from_particular(-3.0, math.inf, 1.0)
        with pytest.raises(DomainError):
            seed_polar_from_particular(0.0, 0.0, -1.0)
        with pytest.raises(DomainError):
            seed_polar_from_particular(-1.0, 0.0, 1.0)


class TestReparametrize:
    def test_states_hit_requested_angles(self, iso_m5_traj):
        th = iso_m5_traj.y[:, 1]
        targets = np.linspace(th[0] + 0.1, th[-1] - 0.1, 7)
        times, states = reparametrize_by_angle(iso_m5_traj, targets)
        assert states.shape == (7, 4)
        assert np.max(np.abs(states[:, 1] - targets)) < 1e-9
        assert np.all(np.diff(times) > 0.0)

    def test_matches_dense_inversion(self, iso_m5_traj):
        grid = np.linspace(iso_m5_traj.t[0], iso_m5_traj.t[-1], 100001)
        dense = resample(iso_m5_traj, grid)
        target = 0.5 * (iso_m5_traj.y[0, 1] + iso_m5_traj.y[-1, 1])
        t_ref = np.interp(target, dense[:, 1], grid)
        times, _ = reparametrize_by_angle(iso_m5_traj, [target])
        assert times[0] == pytest.approx(t_ref, abs=1e-6)

    def test_out_of_range_rejected(self, iso_m5_traj):
        with pytest.raises(DomainError):
            reparametrize_by_angle(iso_m5_traj, [iso_m5_traj.y[-1, 1] + 1.0])

    def test_nonmonotone_angle_rejected(self):
        t = np.linspace(0.0, 3.0, 31)
        theta = np.sin(t)
        y = np.column_stack([np.ones_like(t), theta,
                             np.zeros_like(t), np.cos(t)])
        dy = np.column_stack([np.zeros_like(t), np.cos(t),
                              np.zeros_like(t), -np.sin(t)])
        traj = Trajectory(t=t, y=y, dy=dy)
        with pytest.raises(DomainError):
            reparametrize_by_angle(traj, [0.5])


def _drag_model(lam, sigma):
    def model(J, T, Tp):
        return T ** lam * Tp + J * J * T ** sigma
    return model


class TestScalingMap:
    def test_symmetry_of_matching_family(self, drag_ef_run):
        # sigma = 1 + 4*lambda: the scaled solution solves the same equation
        stats = scaling_map_residual(drag_ef_run, alpha=-1.0, beta=-1.0,
                                     eps=0.3, model=_drag_model(1.0, 5.0))
        assert stats.rms < 1e-6 * stats.scale

    def test_mismatched_family_detected(self):
        rhs = drag_ef_rhs(1.0, 4.0)
        s = IntegratorSettings(method="rk4", h=1e-3, t_span=(1.0, 2.0))
        traj = integrate(rhs, np.array([0.5, 0.0]), s)
        stats = scaling_map_residual(traj, alpha=-1.0, beta=-1.0,
                                     eps=0.3, model=_drag_model(1.0, 5.0))
        assert stats.rms > 1e-2 * stats.scale

    @pytest.mark.parametrize("lam", [1.0, -1.0])
    def test_window_edge_stays_inside_run(self, lam):
        # the special command's default run; at some eps the scaled window's
        # edge rounds an ulp outside [1, 2]
        s = IntegratorSettings(method="rk4", h=2e-4, t_span=(1.0, 2.0))
        traj = integrate(drag_ef_rhs(lam, 1.0 + 4.0 * lam),
                         np.array([0.5, 0.0]), s)
        model = _drag_model(lam, 1.0 + 4.0 * lam)
        for eps in np.round(np.arange(0.2, 0.4 + 1e-9, 0.005), 3):
            stats = scaling_map_residual(traj, alpha=-1.0, beta=-lam,
                                         eps=float(eps), model=model)
            assert stats.max_abs <= 1e-6 * stats.scale, eps

    def test_empty_window_rejected(self, drag_ef_run):
        with pytest.raises(ValueError):
            scaling_map_residual(drag_ef_run, alpha=-1.0, beta=-1.0,
                                 eps=10.0, model=_drag_model(1.0, 5.0))


class TestDragMap:
    def test_derived_form_wins(self, drag_m4_traj):
        report = drag_map_residual(drag_m4_traj, mu=-4.0, nu=-2.0)
        assert report.winner == "derived"
        assert report.rms_derived < 1e-3 * report.scale
        assert report.rms_printed > 0.1 * report.scale
        assert report.lam == pytest.approx(0.0)
        assert report.sigma == pytest.approx(1.0)
        assert report.rho == pytest.approx(-0.5)

    def test_zero_drag_mode(self):
        field = IsotropicField(mu=-4.0)
        s = IntegratorSettings(method="rk4", h=2e-4, t_span=(0.0, 6.0))
        traj = integrate(polar_rhs(field), np.array([1.0, 0.0, 0.05, 0.6]), s)
        report = drag_map_residual(traj, mu=-4.0)
        assert math.isnan(report.rms_printed)
        assert math.isnan(report.sigma)
        assert report.winner == "derived"
        assert report.rms_derived < 1e-3 * report.scale

    def test_mu_minus_two_rejected(self, drag_m4_traj):
        with pytest.raises(ValueError):
            drag_map_residual(drag_m4_traj, mu=-2.0, nu=-2.0)

    def test_needs_polar_trajectory(self, drag_ef_run):
        with pytest.raises(ValueError):
            drag_map_residual(drag_ef_run, mu=-4.0, nu=-2.0)


class TestAbelReduction:
    def test_residual_small_on_matching_run(self, drag_ef_run):
        report = abel_reduction_residual(1.0, drag_ef_run)
        assert report.rms < 1e-3 * report.scale
        assert report.count > 100

    def test_lambda_zero_rejected(self, drag_ef_run):
        with pytest.raises(ValueError):
            abel_reduction_residual(0.0, drag_ef_run)

    def test_nonpositive_J_rejected(self):
        t = np.array([-0.5, 0.5, 1.0, 1.5])
        y = np.column_stack([np.ones_like(t), np.ones_like(t)])
        traj = Trajectory(t=t, y=y, dy=np.zeros_like(y))
        with pytest.raises(DomainError):
            abel_reduction_residual(1.0, traj)

    def test_decreasing_w_kept_without_warning(self):
        # w = J * T strictly decreases; only a non-monotone w is cut
        t = np.linspace(1.0, 2.0, 11)
        y = np.column_stack([1.0 / t ** 2, -2.0 / t ** 3])
        traj = Trajectory(t=t, y=y, dy=np.zeros_like(y))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = abel_reduction_residual(1.0, traj)
        assert report.count == t.size - 2


class TestPowerSolutionRoot:
    def test_lambda_one_root(self):
        y0 = power_solution_y0(1.0)
        assert y0 == pytest.approx(1.6451200346475137, abs=1e-12)
        # the lambda = 1 condition collapses to a polynomial in Y0
        assert abs(y0 ** 8 - 8.0 * y0 ** 2 - 32.0) < 1e-10

    def test_condition_satisfied_generic(self):
        # terms grow like (lam*Y0)^(4+4*lam); judge relative to their size
        for lam in (0.5, 2.0, 3.0):
            y0 = power_solution_y0(lam)
            t1 = lam ** -2.0 * (lam * y0) ** (4.0 + 4.0 * lam)
            t2 = (lam * y0) ** (1.0 + lam) * (1.0 + lam) ** (3.0 * lam)
            t3 = (1.0 + lam) ** (1.0 + 4.0 * lam)
            scale = max(abs(t1), abs(t2), abs(t3))
            assert abs(t1 - t2 - t3) < 1e-10 * scale

    def test_no_root_reported(self):
        with pytest.raises(NoRoot):
            power_solution_y0(-0.5)

    def test_special_lambdas_rejected(self):
        with pytest.raises(ValueError):
            power_solution_y0(-1.0)
        with pytest.raises(ValueError):
            power_solution_y0(0.0)


class TestQuadAdaptive:
    def test_constant_exact(self):
        out = quad_adaptive(lambda x: 1.0, 0.0, 1.0)
        assert out.value == 1.0
        assert out.abs_error_estimate == 0.0

    def test_cubic_exact(self):
        out = quad_adaptive(lambda x: x ** 3, 0.0, 1.0)
        assert out.value == pytest.approx(0.25, abs=1e-14)

    def test_sine(self):
        out = quad_adaptive(math.sin, 0.0, math.pi)
        assert out.value == pytest.approx(2.0, abs=1e-12)

    def test_left_endpoint_singularity(self):
        out = quad_adaptive(lambda x: x ** -0.5, 0.0, 1.0)
        assert out.value == pytest.approx(2.0, abs=1e-8)

    def test_right_endpoint_singularity(self):
        out = quad_adaptive(lambda x: (1.0 - x) ** -0.5, 0.0, 1.0)
        assert out.value == pytest.approx(2.0, abs=1e-8)

    def test_zero_division_endpoint(self):
        out = quad_adaptive(lambda x: 1.0 / math.sqrt(x), 0.0, 4.0)
        assert out.value == pytest.approx(4.0, abs=1e-8)

    def test_empty_interval(self):
        out = quad_adaptive(math.sin, 1.0, 1.0)
        assert out.value == 0.0
        assert out.evaluations == 0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            quad_adaptive(math.sin, 1.0, 0.0)

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            quad_adaptive(math.sin, 0.0, 1.0, tol=0.0)

    def test_nan_tol_rejected(self):
        with pytest.raises(ValueError, match="^tol must be positive$"):
            quad_adaptive(math.sin, 0.0, math.pi, tol=math.nan)

    def test_interior_singularity_raises(self):
        with pytest.raises(QuadratureError):
            quad_adaptive(lambda x: 1.0 / (x - 0.5), 0.0, 1.0)

    def test_singularity_met_by_refinement_raises(self):
        # the panel's nodes 0, 0.5 and 1 miss the pole at 0.25; the probe
        # of its first refinement (_simpson_rec) meets it
        with pytest.raises(QuadratureError,
                           match=r"integrand not finite at x = 0\.25$"):
            quad_adaptive(lambda x: 1.0 / (x - 0.25), 0.0, 1.0)

    def test_nonintegrable_divergence_reports_partial(self):
        with pytest.raises(QuadratureError) as info:
            quad_adaptive(lambda x: 1.0 / x, 0.0, 1.0)
        assert math.isfinite(info.value.partial) or math.isnan(info.value.partial)

    def test_depth_failure_raises_at_once(self):
        # 1/x over [1, 2**70] is still unconverged on about [1, 1025] after 60
        # bisection levels; the error is raised there, before the rest of
        # the interval is refined
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 / x

        with pytest.raises(QuadratureError, match="bisection levels"):
            quad_adaptive(f, 1.0, 2.0 ** 70)
        assert len(calls) < 1000

    def test_evaluation_budget_bounds_cost(self, monkeypatch):
        monkeypatch.setattr(analysis, "_QUAD_MAX_EVALS", 1000)
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 / x

        with pytest.raises(QuadratureError,
                           match="integrand evaluations") as info:
            quad_adaptive(f, 0.0, 1.0)
        # subintervals already on the recursion stack finish with one more
        # pair of evaluations each
        assert 1000 <= len(calls) <= 1000 + 2 * 61 + 5
        assert math.isfinite(info.value.partial)
        # a convergent integral is unaffected while under the budget
        assert quad_adaptive(math.sin, 0.0, math.pi).value == \
            pytest.approx(2.0, abs=1e-9)
