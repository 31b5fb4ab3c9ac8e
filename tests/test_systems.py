import builtins
import copy
import dataclasses
import dis
import hashlib
import inspect
import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import curlforce
from curlforce import core
from curlforce.core import DomainError, real_power
from curlforce.integrate import (
    _METHODS,
    Event,
    IntegrationError,
    IntegratorSettings,
    _compile,
    _loop,
    integrate,
)
from curlforce.systems import (
    AngleFunction,
    ErmakovField,
    GorringeLeachField,
    IsotropicDragField,
    IsotropicField,
    _angles,
    _event,
    curl,
    curl_fd,
    drag_ef_rhs,
    ef_rhs,
    geodesic_rhs,
    h2_singularity_event,
    mu_minus3_rhs,
    orbit_polar_rhs,
    polar_rhs,
    psi_reduced_rhs,
    r_floor_event,
    third_order_residual,
    third_order_rhs,
    yprime_floor_event,
)
from test_integrate import _trajectory_digest

_THETA = sp.symbols("theta")

# symbolic twins of every angle-function family, used as derivative oracles
_SYMBOLIC = {
    "zero": (AngleFunction.zero(), sp.Integer(0)),
    "constant": (AngleFunction.constant(2.5), sp.Float(2.5)),
    "linear": (AngleFunction.linear_theta(-0.75), -0.75 * _THETA),
    "cos": (AngleFunction.cos(1.3, 0.5), 1.3 * sp.cos(0.5 * _THETA)),
    "sin": (AngleFunction.sin(-0.4, 2.0), -0.4 * sp.sin(2.0 * _THETA)),
    "poly": (
        AngleFunction.poly(1.0, -2.0, 0.5, 0.25),
        1.0 - 2.0 * _THETA + 0.5 * _THETA**2 + 0.25 * _THETA**3,
    ),
}


class TestAngleFunction:
    @pytest.mark.parametrize("name", sorted(_SYMBOLIC))
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_derivatives_match_symbolic(self, name, order):
        fn, expr = _SYMBOLIC[name]
        d = sp.diff(expr, _THETA, order)
        oracle = sp.lambdify(_THETA, d, "math")
        for theta in (-2.0, -0.3, 0.0, 0.7, 1.9, 4.4):
            assert fn(theta, order) == pytest.approx(oracle(theta), abs=1e-12)

    def test_array_input(self):
        fn = AngleFunction.cos(2.0, 3.0)
        th = np.linspace(0.0, 2.0, 7)
        vals = fn(th, 1)
        assert vals.shape == th.shape
        assert np.allclose(vals, -6.0 * np.sin(3.0 * th))

    @pytest.mark.parametrize("theta", [math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["cos", "sin"])
    def test_infinite_angle_gives_nan(self, name, theta):
        # math.cos and math.sin raise at +-inf; __call__ returns nan there,
        # as numpy does for arrays
        fn, _ = _SYMBOLIC[name]
        for order in range(4):
            assert math.isnan(fn(theta, order))

    def test_scalar_returns_float(self):
        assert isinstance(AngleFunction.sin(1.0)(0.5), float)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            AngleFunction.zero()(0.0, order=4)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            AngleFunction("quartic")

    @pytest.mark.parametrize("name", sorted(_SYMBOLIC))
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_scalar_path_matches_array_path_bitwise(self, name, order):
        # floats and ints take the math-module path, arrays the numpy one;
        # both must give the same bits, signed zeros included
        fn, _ = _SYMBOLIC[name]
        thetas = np.concatenate([np.linspace(-40.0, 40.0, 801),
                                 [-1e6, -0.0, 1e-300, 3e5]])
        ints = np.arange(-25, 26)
        for grid, kind in ((thetas, float), (thetas, np.float64),
                           (ints, int)):
            scalars = [fn(kind(x), order) for x in grid]
            assert all(type(v) is float for v in scalars)
            array_path = fn(grid.astype(float), order)
            assert np.array(scalars).tobytes() == array_path.tobytes()
        # non-finite angles give nan (or the same value) instead of raising
        special = np.array([math.inf, -math.inf, math.nan])
        with np.errstate(invalid="ignore"):
            array_path = fn(special, order)
        np.testing.assert_array_equal([fn(x, order) for x in special],
                                      array_path)
        with pytest.raises(ValueError):
            fn(0.5, order + 4)
        with pytest.raises(ValueError):
            fn(np.array([0.5]), -1 - order)
        # the text a stage pastes, bound as a stage binds it (math's cos and
        # sin from the loop's namespace), gives the same bits; it raises
        # ValueError where __call__ returns nan
        text, values = _angles(f"U{order}", U=fn)
        stage = _compile("def make(U):\n    def f(theta):\n"
                         f"        return {text}\n    return f\n",
                         "<angle>")(values["U"])
        for x in [*thetas.tolist(), *ints.tolist(), *special.tolist()]:
            try:
                got = stage(float(x))
            except ValueError:
                assert name in ("cos", "sin") and math.isinf(x)
                assert math.isnan(fn(x, order))
            else:
                assert _bytes([got]) == _bytes([fn(x, order)])

    @pytest.mark.parametrize("name", sorted(_SYMBOLIC))
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_nonfinite_angles_warn_nowhere(self, name, order):
        # one numpy path for every argument: +-inf and nan, and ints whose
        # powers overflow, give the value the text has on Python floats
        # (nan where math.cos or math.sin raises) as float, numpy scalar,
        # 0-d array and array, and no numpy warning on any of them
        fn, _ = _SYMBOLIC[name]
        text, values = _angles(f"U{order}", U=fn)
        stage = _compile("def make(U):\n    def f(theta):\n"
                         f"        return {text}\n    return f\n",
                         "<angle>")(values["U"])

        def expect(x):
            try:
                return stage(float(x))
            except ValueError:
                return math.nan

        def same(got, want):
            assert (math.isnan(got) and math.isnan(want)) or got == want

        special = [math.inf, -math.inf, math.nan]
        ints = [10 ** 200, -10 ** 200, 3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in special + ints:
                for arg in (x, np.float64(x), np.array(float(x))):
                    got = fn(arg, order)
                    assert type(got) is float
                    same(got, expect(x))
            grid = np.array(special + [float(x) for x in ints])
            for got, x in zip(fn(grid, order), special + ints):
                same(float(got), expect(x))


# one instance of every force-field family
_FIELDS = {
    "ermakov": ErmakovField(w=0.8, U=AngleFunction.sin(0.5),
                            V=AngleFunction.cos(1.2)),
    "gorringe_leach": GorringeLeachField(
        U=AngleFunction.cos(1.5), V=AngleFunction.poly(0.1, 0.2, -0.3, 0.05)),
    "isotropic": IsotropicField(mu=-1.5),
    "isotropic_drag": IsotropicDragField(mu=-4.0, nu=-2.0),
}

_COPIERS = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "deepcopy": copy.deepcopy,
}


class TestRoundTrips:
    @pytest.mark.parametrize("copier", sorted(_COPIERS))
    @pytest.mark.parametrize("name", sorted(_SYMBOLIC))
    def test_angle_function(self, name, copier):
        fn, _ = _SYMBOLIC[name]
        twin = _COPIERS[copier](fn)
        assert twin == fn
        assert hash(twin) == hash(fn)
        assert repr(twin) == repr(fn)
        thetas = np.array([-1.3, 0.0, 0.4, 2.9])
        for order in range(4):
            assert [twin(th, order) for th in thetas.tolist()] == \
                [fn(th, order) for th in thetas.tolist()]
            assert twin(thetas, order).tobytes() == fn(thetas, order).tobytes()

    @pytest.mark.parametrize("copier", sorted(_COPIERS))
    @pytest.mark.parametrize("name", sorted(_FIELDS))
    def test_field(self, name, copier):
        field = _FIELDS[name]
        twin = _COPIERS[copier](field)
        assert twin == field
        assert repr(twin) == repr(field)
        for r, th in ((0.7, -0.4), (1.3, 1.1), (2.2, 3.0)):
            assert twin.force(r, th, 0.2) == field.force(r, th, 0.2)
            assert twin.curl(r, th) == field.curl(r, th)


def _curl_grid():
    rs = np.linspace(0.5, 2.5, 5)
    thetas = np.linspace(0.1, 2.0 * math.pi - 0.1, 7)
    return [(float(r), float(th)) for r in rs for th in thetas]


class TestCurl:
    def test_ermakov_closed_form(self):
        # V = cos(theta), U = 0: curl is -2*sin(theta)/r^4
        field = ErmakovField(w=1.0, U=AngleFunction.zero(),
                             V=AngleFunction.cos())
        for r, th in _curl_grid():
            expect = -2.0 * math.sin(th) / r**4
            assert curl(field, r, th) == pytest.approx(expect, abs=1e-12)

    def test_ermakov_finite_difference_agrees(self):
        field = ErmakovField(w=0.8, U=AngleFunction.sin(0.5),
                             V=AngleFunction.cos(1.2))
        for r, th in _curl_grid():
            assert curl_fd(field, r, th, h=1e-5) == pytest.approx(
                curl(field, r, th), abs=1e-7)

    def test_gorringe_leach_sinusoidal_curl_free(self):
        # curl vanishes only for 2*pi-periodic sinusoidal U and
        # 4*pi-periodic sinusoidal V
        field = GorringeLeachField(U=AngleFunction.cos(1.5),
                                   V=AngleFunction.cos(2.0, 0.5))
        for r, th in _curl_grid():
            assert abs(curl(field, r, th)) < 1e-12
            assert abs(curl_fd(field, r, th, h=1e-5)) < 1e-8

    def test_gorringe_leach_nonsinusoidal_has_curl(self):
        field = GorringeLeachField(U=AngleFunction.poly(0.0, 0.0, 1.0),
                                   V=AngleFunction.cos(2.0, 0.5))
        vals = [abs(curl(field, r, th)) for r, th in _curl_grid()]
        assert max(vals) > 1e-3

    def test_isotropic_power_law(self):
        field = IsotropicField(mu=-1.5)
        for r, th in _curl_grid():
            expect = (-1.5 + 1.0) * r**(-2.5)
            assert curl(field, r, th) == pytest.approx(expect, rel=1e-12)
            assert curl_fd(field, r, th, h=1e-5) == pytest.approx(
                expect, rel=1e-6)

    def test_drag_field_curl_at_zero_velocity(self):
        plain = IsotropicField(mu=-1.5)
        drag = IsotropicDragField(mu=-1.5, nu=-2.0)
        for r, th in _curl_grid():
            assert curl(drag, r, th) == pytest.approx(curl(plain, r, th),
                                                      rel=1e-12)

    def test_mu_minus_two_rejected(self):
        with pytest.raises(ValueError):
            IsotropicField(mu=-2.0)
        with pytest.raises(ValueError):
            IsotropicDragField(mu=-2.0, nu=-1.0)


class TestForces:
    def test_ermakov_force_components(self):
        field = ErmakovField(w=2.0, U=AngleFunction.constant(0.3),
                             V=AngleFunction.cos())
        r, th = 1.7, 0.9
        f_r, f_t = field.force(r, th)
        assert f_r == pytest.approx(-4.0 * r + 0.3 / r**3)
        assert f_t == pytest.approx(math.sin(th) / r**3)

    def test_gorringe_leach_force_components(self):
        U = AngleFunction.cos(1.5)
        V = AngleFunction.cos(2.0, 0.5)
        field = GorringeLeachField(U=U, V=V)
        r, th = 1.3, 0.4
        f_r, f_t = field.force(r, th)
        expect_r = -((U(th, 2) + U(th)) / r**2 + 2.0 * V(th, 1) / r**1.5)
        assert f_r == pytest.approx(expect_r, rel=1e-12)
        assert f_t == pytest.approx(-V(th) / r**1.5, rel=1e-12)

    def test_isotropic_is_azimuthal_only(self):
        field = IsotropicField(mu=-3.0)
        f_r, f_t = field.force(2.0, 1.1)
        assert f_r == 0.0
        assert f_t == pytest.approx(2.0**-3.0)

    def test_drag_adds_radial_term(self):
        field = IsotropicDragField(mu=-4.0, nu=-2.0)
        f_r, f_t = field.force(2.0, 0.0, rdot=0.25)
        assert f_r == pytest.approx(2.0**-2.0 * 0.25)
        assert f_t == pytest.approx(2.0**-4.0)

    def test_force_rejects_nonpositive_radius(self):
        field = IsotropicField(mu=-1.0)
        with pytest.raises(DomainError):
            field.force(0.0, 0.0)
        with pytest.raises(DomainError):
            field.force(-1.0, 0.0)

    @pytest.mark.parametrize("r", [0.0, -1.0])
    @pytest.mark.parametrize("name", sorted(_FIELDS))
    def test_force_and_curl_reject_nonpositive_radius(self, name, r):
        field = _FIELDS[name]
        with pytest.raises(DomainError):
            field.force(r, 0.3, 0.1)
        with pytest.raises(DomainError):
            field.curl(r, 0.3)
        with pytest.raises(DomainError):
            curl(field, r, 0.3)

    @pytest.mark.parametrize("name, method, r", [
        ("ermakov", "force", 1e-110), ("ermakov", "curl", 1e-90),
        ("gorringe_leach", "curl", 1e-110)])
    def test_nan_where_a_power_of_a_tiny_radius_underflows(self, name,
                                                           method, r):
        # the formula divides by a power of r that underflows to 0.0; the
        # public force and curl return nan there, as polar_rhs's stage does
        out = getattr(_FIELDS[name], method)(r, 0.3)
        assert all(map(math.isnan, out if method == "force" else [out]))

    @pytest.mark.parametrize("theta", [math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["ermakov", "gorringe_leach"])
    def test_force_and_curl_nan_at_infinite_angle(self, name, theta):
        # a sinusoidal angle function meets math.cos at +-inf, which raises;
        # the public force and curl return nan instead
        field = _FIELDS[name]
        f_r, f_t = field.force(1.3, theta, 0.2)
        assert math.isnan(f_r) and math.isnan(f_t)
        assert math.isnan(field.curl(1.3, theta))


class TestPolarRhs:
    def test_equations_of_motion(self):
        field = ErmakovField(w=1.0, U=AngleFunction.zero(),
                             V=AngleFunction.cos())
        rhs = polar_rhs(field)
        y = np.array([1.4, 0.6, -0.2, 0.9])
        out = rhs(0.0, y)
        r, th, rd, td = y
        f_r, f_t = field.force(r, th, rd)
        assert out[0] == rd
        assert out[1] == td
        assert out[2] == pytest.approx(r * td**2 + f_r)
        assert out[3] == pytest.approx((f_t - 2.0 * rd * td) / r)

    def test_nonpositive_radius_returns_nan(self):
        rhs = polar_rhs(IsotropicField(mu=-1.0))
        assert np.isnan(rhs(0.0, np.array([0.0, 0.0, 0.0, 0.0]))).all()
        assert np.isnan(rhs(0.0, np.array([-0.5, 0.0, 0.0, 0.0]))).all()

    @pytest.mark.parametrize("theta", [math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["ermakov", "gorringe_leach"])
    def test_infinite_angle_rejects_stage(self, name, theta):
        kernel = polar_rhs(_FIELDS[name]).kernel
        assert all(map(math.isnan, kernel(0.0, [1.0, theta, 0.1, 0.5])))


class TestPsiReductions:
    def test_variant_damping_coefficients(self):
        # V = cos: as-printed damping sin(theta)/(I - cos(theta)),
        # derived uses half of it; forcing term identical
        I = 1.5
        th = 0.8
        psi, dpsi = 0.7, -0.3
        derived = psi_reduced_rhs(I, AngleFunction.zero(),
                                  AngleFunction.cos(), "derived")
        printed = psi_reduced_rhs(I, AngleFunction.zero(),
                                  AngleFunction.cos(), "as_printed")
        a = math.sin(th) / (I - math.cos(th))
        out_p = printed(th, np.array([psi, dpsi]))
        out_d = derived(th, np.array([psi, dpsi]))
        assert out_p[1] == pytest.approx(-a * dpsi - psi, rel=1e-12)
        assert out_d[1] == pytest.approx(-0.5 * a * dpsi - psi, rel=1e-12)

    def test_potential_term_enters_forcing(self):
        I = 2.0
        th = 0.3
        U = AngleFunction.constant(0.4)
        rhs = psi_reduced_rhs(I, U, AngleFunction.cos(), "derived")
        h2 = 2.0 * (I - math.cos(th))
        out = rhs(th, np.array([1.0, 0.0]))
        assert out[1] == pytest.approx(-(1.0 + 0.4 / h2), rel=1e-12)

    def test_singular_layer_returns_nan(self):
        rhs = psi_reduced_rhs(1.0, AngleFunction.zero(), AngleFunction.cos())
        assert np.isnan(rhs(0.0, np.array([1.0, 0.0]))).all()

    @pytest.mark.parametrize("which", ["U", "V"])
    def test_infinite_wave_argument_rejects_stage(self, which):
        # k * theta overflows to inf, where math.cos raises: the kernel
        # returns nan, so the stepper rejects the stage
        wave = AngleFunction.cos(0.5, 1e300)
        angles = {"U": AngleFunction.zero(), "V": AngleFunction.constant(0.1)}
        angles[which] = wave
        rhs = psi_reduced_rhs(2.0, angles["U"], angles["V"])
        assert all(map(math.isnan, rhs.kernel(1e10, [1.0, 0.0])))
        assert np.isnan(h2_singularity_event(2.0, wave).fn(1e10, [1.0, 0.0]))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            psi_reduced_rhs(1.0, AngleFunction.zero(), AngleFunction.cos(),
                            "printed")

    def test_mu_minus3_damping(self):
        # h2 = 2*(theta + I): as-printed damping 1/(theta + I),
        # derived 1/(2*(theta + I))
        I = 0.7
        th = 1.1
        dpsi = -0.4
        printed = mu_minus3_rhs(I, "as_printed")
        derived = mu_minus3_rhs(I, "derived")
        out_p = printed(th, np.array([0.0, dpsi]))
        out_d = derived(th, np.array([0.0, dpsi]))
        assert out_p[1] == pytest.approx(-dpsi / (th + I), rel=1e-12)
        assert out_d[1] == pytest.approx(-dpsi / (2.0 * (th + I)), rel=1e-12)

    def test_orbit_form_consistent_with_psi_form(self):
        # substituting psi = 1/r must turn the r(theta) equation into the
        # derived psi equation
        I = 1.4
        th = 0.5
        r, rp = 1.8, 0.3
        orbit = orbit_polar_rhs(I)
        rpp = orbit(th, np.array([r, rp]))[1]
        psi = 1.0 / r
        dpsi = -rp / r**2
        ddpsi = -rpp / r**2 + 2.0 * rp**2 / r**3
        psi_rhs = psi_reduced_rhs(I, AngleFunction.zero(),
                                  AngleFunction.cos(), "derived")
        expect = psi_rhs(th, np.array([psi, dpsi]))[1]
        assert ddpsi == pytest.approx(expect, rel=1e-12)


class TestEmdenFowlerRhs:
    def test_power_law_form(self):
        rhs = ef_rhs(2.0, -5.0)
        out = rhs(1.5, np.array([0.8, 0.1]))
        assert out[0] == 0.1
        assert out[1] == pytest.approx(1.5**2 * 0.8**-5)

    def test_drag_form(self):
        rhs = drag_ef_rhs(-1.0, -3.0)
        t, tp, j = 0.9, 0.2, 1.3
        out = rhs(j, np.array([t, tp]))
        assert out[1] == pytest.approx(tp / t + j**2 * t**-3, rel=1e-12)

    def test_geodesic_form_and_sign(self):
        lam, sigma = -1.0, -3.0
        rhs = geodesic_rhs(lam, sigma)
        t, j, td, jd = 0.9, 1.2, 0.3, 0.7
        out = rhs(0.0, np.array([t, j, td, jd]))
        assert out[0] == td
        assert out[1] == jd
        assert out[2] == pytest.approx(j**2 * t**sigma * jd**2, rel=1e-12)
        # damping term enters the affine J equation with a minus sign
        assert out[3] == pytest.approx(-(t**lam) * jd**2, rel=1e-12)

    def test_geodesic_eliminates_to_drag_form(self):
        # T'' in J equals (T_ss J_s - T_s J_ss) / J_s^3; with the geodesic
        # right-hand side this must reproduce T^lam T' + J^2 T^sigma
        lam, sigma = -1.0, -3.0
        rhs = geodesic_rhs(lam, sigma)
        t, j, td, jd = 0.9, 1.2, 0.3, 0.7
        _, _, tss, jss = rhs(0.0, np.array([t, j, td, jd]))
        tpp_in_j = (tss * jd - td * jss) / jd**3
        tprime = td / jd
        assert tpp_in_j == pytest.approx(t**lam * tprime + j**2 * t**sigma,
                                         rel=1e-12)


class TestThirdOrder:
    def test_rhs_matches_residual(self):
        lam, sigma = 1.0, 5.0
        rhs = third_order_rhs(lam, sigma)
        y = np.array([1.1, 0.6, -0.2])
        yppp = rhs(0.0, y)[2]
        res = third_order_residual(y[0], y[1], y[2], yppp, lam, sigma)
        assert abs(res) < 1e-12

    def test_exponential_solution_exact(self):
        # Y = Y0*exp(-z) solves the lam=-1, sigma=-3 equation identically
        for y0 in (0.5, 1.0, 3.7):
            z = np.linspace(0.0, 2.0, 21)
            y = y0 * np.exp(-z)
            res = third_order_residual(y, -y, y, -y, -1.0, -3.0)
            assert np.all(res == 0.0)

    def test_exponential_fails_other_parameters(self):
        y = 2.0
        res = third_order_residual(y, -y, y, -y, 1.0, 5.0)
        assert abs(res) > 1e-3

    def test_zero_slope_returns_nan(self):
        rhs = third_order_rhs(1.0, 5.0)
        assert np.isnan(rhs(0.0, np.array([1.0, 0.0, 0.5]))).all()


class TestEvents:
    def test_r_floor(self):
        ev = r_floor_event(1e-3)
        assert ev.fn(0.0, np.array([2.0, 0, 0, 0])) > 0.0
        assert ev.fn(0.0, np.array([1e-4, 0, 0, 0])) < 0.0

    def test_h2_singularity(self):
        ev = h2_singularity_event(1.0, AngleFunction.cos(), threshold=1e-2)
        # at theta = 0, h2 = 2*(1 - cos 0) = 0: inside the guard layer
        assert ev.fn(0.0, np.array([1.0, 0.0])) < 0.0
        assert ev.fn(math.pi / 2.0, np.array([1.0, 0.0])) > 0.0

    def test_yprime_floor(self):
        ev = yprime_floor_event(1e-6)
        assert ev.fn(0.0, np.array([1.0, 0.5])) > 0.0
        assert ev.fn(0.0, np.array([1.0, 1e-8])) < 0.0


# Every rhs builder with a short integration and points at which to compare
# its float kernel with the public ndarray callable, NaN returns included.
_POLAR_POINTS = [(0.0, [1.4, 0.6, -0.2, 0.9]), (2.5, [0.3, -4.0, 1.5, -0.7]),
                 (0.0, [0.0, 0.0, 0.0, 0.0]), (1.0, [-0.5, 0.1, 0.2, 0.3])]
_BUILDERS = {
    "polar-ermakov": (
        lambda: polar_rhs(ErmakovField(w=0.5, U=AngleFunction.cos(0.3, 2.0),
                                       V=AngleFunction.sin(0.2))),
        [1.0, 0.0, 0.1, 0.5],
        dict(t_span=(0.0, 5.0), events=(r_floor_event(),)),
        _POLAR_POINTS),
    "polar-gorringe-leach": (
        lambda: polar_rhs(GorringeLeachField(U=AngleFunction.cos(0.2),
                                             V=AngleFunction.sin(0.1, 0.5))),
        [1.0, 0.3, 0.0, 0.8], dict(t_span=(0.0, 5.0)), _POLAR_POINTS),
    "polar-isotropic": (
        lambda: polar_rhs(IsotropicField(mu=-1.5)),
        [1.0, 0.0, 0.1, 0.6], dict(method="rk4", h=1e-2, t_span=(0.0, 3.0)),
        _POLAR_POINTS),
    "polar-isotropic-drag": (
        lambda: polar_rhs(IsotropicDragField(mu=-1.5, nu=-3.0)),
        [1.0, 0.0, 0.1, 0.6], dict(method="rk4", h=1e-2, t_span=(0.0, 3.0)),
        _POLAR_POINTS),
    "psi-derived": (
        lambda: psi_reduced_rhs(0.9, AngleFunction.constant(0.2),
                                AngleFunction.cos(), "derived"),
        [1.0, 0.1],
        dict(t_span=(-2.0, 0.0),
             events=(h2_singularity_event(0.9, AngleFunction.cos()),)),
        [(0.8, [0.7, -0.3]), (-1.0, [1.0, 0.0]),
         (math.acos(0.9), [1.0, 0.5])]),
    "psi-as-printed": (
        lambda: psi_reduced_rhs(1.0, AngleFunction.poly(0.1, 0.2),
                                AngleFunction.cos(), "as_printed"),
        [1.0, 0.1], dict(t_span=(0.5, 3.0)),
        [(0.8, [0.7, -0.3]), (0.0, [1.0, 0.0]), (3.0, [-2.0, 4.0])]),
    "mu-minus3": (
        lambda: mu_minus3_rhs(0.7, "as_printed"),
        [1.0, -0.2], dict(t_span=(0.0, 3.0)),
        [(1.1, [0.0, -0.4]), (-0.7, [1.0, 1.0]), (2.0, [0.5, 0.5])]),
    "orbit-polar": (
        lambda: orbit_polar_rhs(1.4),
        [1.8, 0.3], dict(t_span=(0.0, 1.0)),
        [(0.5, [1.8, 0.3]), (0.5, [0.0, 0.3]), (0.5, [-1.0, 0.3])]),
    "orbit-polar-singular": (
        lambda: orbit_polar_rhs(1.0),
        [1.0, 0.0], dict(t_span=(0.5, 1.5)),
        [(0.0, [1.0, 0.2]), (1.0, [1.0, 0.2])]),
    "ef": (
        lambda: ef_rhs(2.0, -5.0),
        [1.0, 0.1], dict(method="rk4", h=1e-3, t_span=(1.0, 2.0)),
        [(1.5, [0.8, 0.1]), (1.5, [-0.8, 0.1]), (0.0, [0.0, 0.0])]),
    "ef-fractional": (
        lambda: ef_rhs(-0.5, 1.0 / 3.0),
        [0.5, 0.0], dict(method="rk4", h=1e-3, t_span=(1.0, 2.0)),
        [(1.5, [0.8, 0.1]), (1.5, [-0.8, 0.1]), (-1.0, [1.0, 0.0])]),
    "drag-ef": (
        lambda: drag_ef_rhs(-1.0, -3.0),
        [0.5, 0.0], dict(method="rk4", h=2e-3, t_span=(1.0, 2.0)),
        [(1.3, [0.9, 0.2]), (1.3, [0.0, 0.2]), (1.3, [-0.9, 0.2])]),
    "geodesic": (
        lambda: geodesic_rhs(-1.0, -3.0),
        [0.9, 1.2, 0.3, 0.7], dict(t_span=(0.0, 1.0)),
        [(0.0, [0.9, 1.2, 0.3, 0.7]), (0.0, [0.0, 1.2, 0.3, 0.7]),
         (0.0, [-0.9, 1.2, 0.3, 0.7])]),
    "third-order": (
        lambda: third_order_rhs(1.0, 5.0),
        [1.1, 0.6, -0.2], dict(t_span=(0.0, 1.0),
                               events=(yprime_floor_event(),)),
        [(0.0, [1.1, 0.6, -0.2]), (0.0, [1.0, 0.0, 0.5]),
         (0.0, [1.0, -0.5, 0.5])]),
}


def _bytes(values):
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def _builder_digest(name):
    """sha256 of the public rhs at the parity points and of one integration."""
    make, y0, kwargs, points = _BUILDERS[name]
    rhs = make()
    h = hashlib.sha256()
    with np.errstate(all="ignore"):
        for t, y in points:
            h.update(_bytes(rhs(t, np.array(y))))
    traj = integrate(rhs, np.array(y0), IntegratorSettings(**kwargs))
    for a in (traj.t, traj.y, traj.dy):
        h.update(_bytes(a))
    h.update(repr((traj.termination, traj.events,
                   sorted(traj.meta.items()))).encode())
    return h.hexdigest()


class TestFloatKernels:
    """Each builder's formula lives once, in a float kernel.

    The digests were recorded before the kernels existed, when each rhs
    took and returned ndarrays and integrate called it on every stage.
    The rk4 ones were re-recorded when an rk4 run's meta came to record h
    in place of the tolerances it never read; hashed with the old meta,
    the same runs give the old digests.
    """

    DIGESTS = {
        "drag-ef": "8c18700b4d61e392b0dcdfe573d8c930"
                   "b753f3ed90f502d079798e8a97a0c813",
        "ef": "151d384c7aced6a23ad3eab6ac30e37a"
              "96e5762faf1b9c41b81a0b27cb386f9a",
        "ef-fractional": "88567db934da44b20ad825b99f531ba9"
                         "42d603cf1965ddd76d3fffe402d17402",
        "geodesic": "e740d30a06375b315a3e2aaf4a9d8085"
                    "2a0b4c66e33432195327a1a3dd64e742",
        "mu-minus3": "97ae9a287295c56ee6d0a392139c104d"
                     "a25b3232aaf778142f0e960471a38b31",
        "orbit-polar": "2b95b30678af33344c22c948ec66ab5a"
                       "fd4080354e5bee6875092be4fff60579",
        "orbit-polar-singular": "a3ba3a21213799fbd5e07fb2b2e3615a"
                                "bb14698d3fa02534252721bda0169f79",
        "polar-ermakov": "85b1ae2b6f81b78ced55936f1eab3440"
                         "5be0dd5e00a8480cff302918e00f74d5",
        "polar-gorringe-leach": "1f8ffc85e4b68c50395f8ce0cbcfc07b"
                                "957af8e7bfb47aa20d6f442928a25186",
        "polar-isotropic": "dc5c5c901feb400f9cea3bf80c9f51df"
                           "afad132c3245b4b50e60d1aced3bcea5",
        "polar-isotropic-drag": "438676a011c1c79e1491e6090cd624b4"
                                "680aebfbf9b3c81e1922ec0cab8774fb",
        "psi-as-printed": "4b68267e9ba05e2028c8fd6d8110917b"
                          "db63e0ca00c3d2589f74907ab0f2cc54",
        "psi-derived": "6ee47d421145fc3a786aa63f5788a387"
                       "03486d22af8cedf5920b19c7eec4b425",
        "third-order": "a0f5a728fed5c92fbb71ee11f80cae49"
                       "b637a6c5572c82b5c3ce1379ea835d77",
    }

    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_kernel_matches_public_rhs(self, name):
        make, _, _, points = _BUILDERS[name]
        rhs = make()
        for t, y in points:
            out = rhs.kernel(t, list(y))
            assert type(out) is list and len(out) == len(y)
            from_array = rhs(t, np.array(y))
            assert from_array.dtype == np.float64
            assert _bytes(out) == _bytes(from_array)
            assert _bytes(rhs(t, tuple(y))) == _bytes(from_array)
            assert _bytes(rhs(np.float64(t), np.array(y))) == _bytes(out)

    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_integration_digest(self, name):
        assert _builder_digest(name) == self.DIGESTS[name]

    def test_nan_outside_domain(self):
        # every parity set above includes at least one NaN return
        for name, (make, _, _, points) in _BUILDERS.items():
            rhs = make()
            with np.errstate(all="ignore"):
                outs = [rhs(t, np.array(y)) for t, y in points]
            assert any(np.isnan(o).any() or np.isinf(o).any()
                       for o in outs), name


class TestAngleFastPath:
    """The kernels, the h2 event and the angular fields paste AngleFunction's
    formula text; none calls its checked __call__."""

    # name -> (builder of the kernel or event function, _BUILDERS points)
    _ANGULAR = {
        **{name: (_BUILDERS[name][0], name) for name in (
            "psi-derived", "psi-as-printed", "mu-minus3", "polar-ermakov",
            "polar-gorringe-leach")},
        "h2-event": (lambda: h2_singularity_event(
            0.9, AngleFunction.poly(0.1, 0.2, -0.3, 0.05)), "psi-derived"),
    }

    @pytest.mark.parametrize("name", sorted(_ANGULAR))
    def test_no_call_through_dunder_call(self, name, monkeypatch):
        make, points = self._ANGULAR[name]

        def evaluate():
            built = make()
            fn = getattr(built, "kernel", None) or built.fn
            return [_bytes(fn(t, list(y))) for t, y in _BUILDERS[points][3]]

        before = evaluate()

        def refuse(self, theta, order=0):
            raise AssertionError("AngleFunction.__call__ on the hot path")

        monkeypatch.setattr(AngleFunction, "__call__", refuse)
        assert evaluate() == before

    # force and curl written with the checked AngleFunction.__call__, which
    # takes an angle of any real type
    _VIA_CALL = {
        "ermakov": lambda f, r, th: (
            (-real_power(f.w, 2.0) * r + f.U(th) / real_power(r, 3.0),
             -f.V(th, 1) / real_power(r, 3.0)),
            (2.0 * f.V(th, 1) - f.U(th, 1)) / real_power(r, 4.0)),
        "gorringe_leach": lambda f, r, th: (
            (-((f.U(th, 2) + f.U(th)) / real_power(r, 2.0)
               + 2.0 * f.V(th, 1) / real_power(r, 1.5)),
             -f.V(th) / real_power(r, 1.5)),
            (f.U(th, 3) + f.U(th, 1)) / real_power(r, 3.0)
            + (0.5 * f.V(th) + 2.0 * f.V(th, 2)) / real_power(r, 2.5)),
    }

    @pytest.mark.parametrize("name", sorted(_VIA_CALL))
    def test_force_and_curl_take_any_real_angle(self, name):
        field = _FIELDS[name]
        via_call = self._VIA_CALL[name]
        for r in (0.7, 1.3):
            for theta in (-3, 0, 2, 1.1, -0.4, 2.9):
                kinds = (float, np.float64, np.float32) + (
                    (int,) if isinstance(theta, int) else ())
                for kind in kinds:
                    angle = kind(theta)
                    got = (field.force(r, angle, 0.2), field.curl(r, angle))
                    assert all(type(v) is float for v in (*got[0], got[1]))
                    for want in ((field.force(r, float(angle), 0.2),
                                  field.curl(r, float(angle))),
                                 via_call(field, r, angle)):
                        assert _bytes([*got[0], got[1]]) == \
                            _bytes([*want[0], want[1]]), (kind, theta)


def _call_path(rhs, initial=None):
    """rhs with only its kernel, so integrate calls it at every stage.

    initial, when given, is the slope the public rhs reports at the
    initial state: with zero slopes the loop's first stage meets the
    initial state itself, guard inputs included.
    """

    def call(t, y):
        return rhs(t, y) if initial is None else np.array(initial)

    call.kernel = rhs.kernel
    return call


def _fused_path(rhs, initial=None):
    """_call_path plus the formula, so integrate pastes it into its loop."""
    fused = _call_path(rhs, initial)
    fused.formula, fused.constants = rhs.formula, rhs.constants
    return fused


def _outcome(rhs, y0, kwargs):
    """Digest, meta and error message of one integration."""
    try:
        traj, error = integrate(rhs, y0, IntegratorSettings(**kwargs)), None
    except IntegrationError as exc:
        traj, error = exc.trajectory, str(exc)
    return _trajectory_digest(traj), traj.meta, error


# The guard inputs of the kernel tests above, met at the loop's first stage:
# name -> (builder, initial state, initial slope, method, t_span).  rk4
# steps over the whole span, so its first stage is at the middle, and the
# stage state is the initial state plus half the span times the slope.
_ISO = lambda: polar_rhs(IsotropicField(mu=-1.0))  # noqa: E731
_GUARDS = {
    "polar-r-zero": (_ISO, [0.0] * 4, [0.0] * 4, "rk45", (0.0, 1.0)),
    "polar-r-negative": (_ISO, [-0.5, 0.0, 0.0, 0.0], [0.0] * 4, "rk4",
                         (0.0, 1.0)),
    **{f"{name}-theta-{sign}inf": (
        lambda name=name: polar_rhs(_FIELDS[name]), [1.0, 0.0, 0.1, 0.5],
        [0.0, float(f"{sign}1e308"), 0.0, 0.0], "rk4", (0.0, 4.0))
       for name in ("ermakov", "gorringe_leach") for sign in "+-"},
    "psi-h2-zero": (lambda: psi_reduced_rhs(1.0, AngleFunction.zero(),
                                            AngleFunction.cos()),
                    [1.0, 0.0], [0.0, 0.0], "rk4", (-0.5, 0.5)),
    **{f"psi-k-theta-overflow-{which}": (
        lambda which=which: psi_reduced_rhs(2.0, *(
            (AngleFunction.cos(0.5, 1e300), AngleFunction.constant(0.1))
            if which == "U" else
            (AngleFunction.zero(), AngleFunction.cos(0.5, 1e300)))),
        [1.0, 0.0], [0.0, 0.0], "rk4", (1e10 - 0.5, 1e10 + 0.5))
       for which in "UV"},
    "orbit-polar-denom-zero": (lambda: orbit_polar_rhs(1.0), [1.0, 0.2],
                               [0.0, 0.0], "rk4", (-0.5, 0.5)),
    "third-order-yprime-zero": (lambda: third_order_rhs(1.0, 5.0),
                                [1.0, 0.0, 0.5], [0.0] * 3, "rk45",
                                (0.0, 1.0)),
}


class TestFusedStage:
    """integrate pastes each builder's formula into its step loop; the
    same text compiled is rhs.kernel, so both paths give the same bits."""

    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_fused_run_matches_call_path(self, name):
        make, y0, kwargs, _ = _BUILDERS[name]
        rhs = make()
        calls = [0]

        def counted(t, y):
            calls[0] += 1
            return rhs.kernel(t, y)

        fused = _fused_path(rhs)
        fused.kernel = counted
        got = _outcome(fused, y0, kwargs)
        assert got == _outcome(_call_path(rhs), y0, kwargs)
        assert got == _outcome(rhs, y0, kwargs)
        # the fused loop calls no kernel; an event's final sample does
        traj = integrate(rhs, y0, IntegratorSettings(**kwargs))
        assert calls[0] == len(traj.events)

    @pytest.mark.parametrize("name", sorted(_GUARDS))
    def test_fused_stage_rejects_where_call_path_does(self, name):
        make, y0, slope, method, t_span = _GUARDS[name]
        rhs = make()
        kwargs = dict(method=method, t_span=t_span)
        if method == "rk4":
            kwargs["h"] = t_span[1] - t_span[0]
            t = t_span[0] + 0.5 * kwargs["h"]
            stage = [y + 0.5 * kwargs["h"] * f for y, f in zip(y0, slope)]
        else:
            t, stage = t_span[0], y0
        assert all(map(math.isnan, rhs.kernel(t, stage)))
        digest, meta, error = _outcome(_fused_path(rhs, slope), y0, kwargs)
        assert (digest, meta, error) == \
            _outcome(_call_path(rhs, slope), y0, kwargs)
        # rk4 fails at its first step; rk45 halves its step to underflow
        # without accepting one
        if method == "rk4":
            assert error == f"right-hand side not finite near t={t_span[1]}"
        else:
            assert error is None and meta["accepted"] == 0
            assert meta["rejected"] > 1


def _fn_only(ev):
    """ev with a plain function in place of its formula, so the loop calls
    it after each accepted step."""
    return Event(ev.name, lambda t, y: ev.fn(t, y))


# name -> (rhs builder, initial state, settings): runs that end at an event
# written as a formula, one for each event builder, two with each method
_EVENT_RUNS = {
    "r-floor": (lambda: polar_rhs(ErmakovField(w=1.0)), [1.0, 0.0, 0.0, 0.3],
                dict(t_span=(0.0, 5.0), events=(r_floor_event(0.5),))),
    "r-target": (lambda: polar_rhs(IsotropicField(mu=-1.5)),
                 [1.0, 0.0, 0.3, 0.6],
                 dict(method="rk4", h=1e-2, t_span=(0.0, 10.0),
                      events=(r_floor_event(1.5, "r-target"),))),
    "h2-singular": _BUILDERS["psi-derived"][:3],
    "Yprime-floor": (lambda: third_order_rhs(1.0, 5.0), [1.1, 0.6, -0.2],
                     dict(method="rk4", h=1e-2, t_span=(0.0, 5.0),
                          events=(yprime_floor_event(0.3),))),
}


class TestEventFormulas:
    """integrate pastes each event's formula into its step loop after every
    accepted step and calls Python only on a sign change; an event whose
    function has no formula is called instead, with the same bits."""

    @pytest.mark.parametrize("name", sorted(_EVENT_RUNS))
    def test_pasted_event_matches_fn_only(self, name):
        make, y0, kwargs = _EVENT_RUNS[name]
        (ev,) = kwargs["events"]
        assert ev.fn.formula and ev.name == name
        got = _outcome(make(), y0, kwargs)
        plain = {**kwargs, "events": (_fn_only(ev),)}
        assert got == _outcome(make(), y0, plain)
        traj = integrate(make(), y0, IntegratorSettings(**kwargs))
        assert traj.termination == "event" and traj.events[0][1] == name

    @pytest.mark.parametrize("plain", [False, True])
    def test_earliest_of_two_crossings_wins(self, plain):
        # one rk4 step of y' = -y from 1 takes y below both 0.8 and 0.7;
        # the event listed second crosses first
        late, early = r_floor_event(0.7, "late"), r_floor_event(0.8, "early")
        events = (late, _fn_only(early) if plain else early)
        traj = integrate(lambda t, y: -y, [1.0], IntegratorSettings(
            method="rk4", h=0.5, t_span=(0.0, 2.0), events=events))
        assert traj.meta["accepted"] == 1
        ((t_stop, name),) = traj.events
        assert name == "early"
        assert abs(t_stop - math.log(1.0 / 0.8)) < 1e-3
        assert traj.t[-1] == t_stop and traj.t.size == 2

    @pytest.mark.parametrize("plain", [False, True])
    def test_value_exactly_zero_at_a_node(self, plain):
        # nodes at t = 0.25, 0.5, ...: "half" is exactly 0.0 at the second
        # node, which ends the run on that step.  "start" is exactly 0.0 at
        # the initial node, which stops nothing; its sign change after t =
        # 0.5 is still seen
        at_half = _event("half", ("t",), "d0 = t - 0.5")
        at_start = _event("start", ("t",), "d0 = t * (0.6 - t)")
        assert at_half.fn(0.5, [1.0]) == 0.0 == at_start.fn(0.0, [1.0])

        def run(*events):
            return integrate(lambda t, y: -y, [1.0], IntegratorSettings(
                method="rk4", h=0.25, t_span=(0.0, 2.0), events=tuple(
                    _fn_only(ev) if plain else ev for ev in events)))

        traj = run(at_start, at_half)
        assert traj.meta["accepted"] == 2
        ((t_stop, name),) = traj.events
        assert name == "half" and 0.5 - 1e-11 < t_stop < 0.5
        assert traj.t.tolist() == [0.0, 0.25, t_stop]
        ((t_stop, name),) = run(at_start).events
        assert name == "start" and abs(t_stop - 0.6) < 1e-11

    def test_event_constants_kept_apart_from_the_stage(self):
        # the psi rhs and the h2 event both read constants named I and V:
        # the rhs's I = 1.5 must not reach the event, whose I = 1.2 stops
        # the run where the called event does, earlier than an I = 1.5
        # event would
        V = AngleFunction.cos(2.0)
        ev = h2_singularity_event(1.2, V, threshold=0.5)
        kwargs = dict(t_span=(-math.pi, 0.0), events=(ev,))

        def make():
            return psi_reduced_rhs(1.5, AngleFunction.zero(), V)

        got = _outcome(make(), [1.0, 0.0], kwargs)
        assert got == _outcome(make(), [1.0, 0.0],
                               {**kwargs, "events": (_fn_only(ev),)})
        traj = integrate(make(), [1.0, 0.0], IntegratorSettings(**kwargs))
        ((theta, _),) = traj.events
        assert -math.acos(0.6) - 0.5 < theta < -math.acos(0.6)
        other = h2_singularity_event(1.5, V, threshold=0.5)
        moved = integrate(make(), [1.0, 0.0], IntegratorSettings(
            **{**kwargs, "events": (other,)}))
        assert moved.events[0][0] > theta + 0.1

    def test_replaced_fn_is_called_at_every_accepted_step(self):
        # a wrapper put in with dataclasses.replace has no formula, so the
        # loop calls it at the initial node and at every accepted one
        make, y0, kwargs, _ = _BUILDERS["polar-ermakov"]
        (ev,) = kwargs["events"]
        seen = []

        def wrapper(t, y):
            seen.append(t)
            return ev.fn(t, y)

        wrapped = {**kwargs, "events": (dataclasses.replace(ev, fn=wrapper),)}
        traj = integrate(make(), y0, IntegratorSettings(**wrapped))
        assert traj.termination == "completed"
        assert seen == traj.t.tolist()
        assert _outcome(make(), y0, wrapped) == _outcome(make(), y0, kwargs)


def _loop_locals(dim):
    """Every local name of the step loops of one state size."""
    return {name for method in ("rk45", "rk4") for events in (False, True)
            for name in _loop(method, dim, (None,) * events)(
                None, *(None,) * events).__code__.co_varnames}


class TestGeneratorHygiene:
    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_body_names_disjoint_from_loop_locals(self, name):
        make, y0, _, _ = _BUILDERS[name]
        args, body, constants = make().formula
        code = compile("def stage():\n" + "".join(
            f"    {line}\n" for line in body.splitlines()),
            "<stage>", "exec").co_consts[0]
        assigned = set(code.co_varnames) - {f"d{c}" for c in range(len(y0))}
        for names in (assigned, set(args) - {""}, set(constants)):
            assert not names & _loop_locals(len(y0)), name

    # the globals a pasted formula may read besides the loop's own
    _FORMULA_GLOBALS = {"cos", "sin", "abs", "nan", "inf", "ValueError",
                        "ZeroDivisionError", "OverflowError"}

    @pytest.mark.parametrize("name", ["h2-event", "polar-ermakov",
                                      "polar-gorringe-leach", "psi-derived"])
    def test_angle_formulas_call_only_cos_and_sin(self, name):
        # an angle function is pasted as text reading a bound tuple of
        # floats: the fused loops and the h2 event bind nothing callable,
        # and of the angle functions' names they read only cos and sin
        if name == "h2-event":
            fn = h2_singularity_event(0.9, AngleFunction.sin(0.3, 2.0)).fn
            codes = [(fn.__code__, [c.cell_contents for c in fn.__closure__],
                      set())]
        else:
            make, y0, _, _ = _BUILDERS[name]
            rhs = make()
            assert {"U", "V"} <= set(rhs.formula[2])
            assert not {"U", "V"} & _loop_locals(len(y0))
            codes = [(_loop(method, len(y0), (None,) * events, rhs.formula)(
                          *rhs.constants, *(None,) * events).__code__,
                      rhs.constants,
                      set(_loop(method, len(y0), (None,) * events)(
                          None, *(None,) * events).__code__.co_names))
                     for method in ("rk45", "rk4") for events in (False, True)]
        for code, bound, own in codes:
            for value in bound:
                assert type(value) is float or (type(value) is tuple and all(
                    type(x) is float for x in value)), value
            read = set(code.co_names) - own
            assert read & {"cos", "sin"} and read <= self._FORMULA_GLOBALS

    @pytest.mark.parametrize("name", sorted(_EVENT_RUNS))
    def test_event_names_scoped_in_the_loop(self, name):
        # each name an event's text binds, takes as an argument or reads as
        # a constant enters the loop as e0_name, apart from the stage's
        # names and the loop's own; the event binds only floats and tuples
        # of floats, and the loop reads no global for it beyond a
        # formula's and calls Python only on a crossing
        make, y0, kwargs = _EVENT_RUNS[name]
        (ev,) = kwargs["events"]
        rhs = make()
        for value in [c.cell_contents for c in ev.fn.__closure__]:
            assert type(value) is float or (type(value) is tuple and all(
                type(x) is float for x in value)), value
        free = ev.fn.formula[2]
        for method in ("rk45", "rk4"):
            make_loop = _loop(method, len(y0), (ev.fn.formula,), rhs.formula)
            code = make_loop.__code__
            assert code.co_varnames[:code.co_argcount] == (
                *rhs.formula[2], *(f"e0_{n}" for n in free))
            loop = make_loop(*rhs.constants, *ev.fn.constants).__code__
            base = _loop(method, len(y0), (), rhs.formula)(
                *rhs.constants).__code__
            added = set(loop.co_varnames) - set(base.co_varnames)
            assert {"e0", "ep0"} <= added
            assert all(re.fullmatch(r"e0_\w+|e0|ep0", n) for n in added), added
            assert set(loop.co_names) - set(base.co_names) <= \
                self._FORMULA_GLOBALS
            assert make_loop.source.count("return 'event'") == 1

    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_fused_loop_calls_no_kernel(self, name):
        make, y0, _, _ = _BUILDERS[name]
        formula = make().formula
        for method in ("rk45", "rk4"):
            for events in (False, True):
                source = _loop(method, len(y0), (None,) * events,
                               formula).source
                assert "kernel(" not in source
                last = core._rename(formula[1], {f"d{c}": f"g{c}"
                                                 for c in range(len(y0))})
                assert last.splitlines()[-1].strip() in source

    def test_new_constants_reuse_the_compiled_loop(self):
        settings = IntegratorSettings(method="rk4", h=1e-2, t_span=(0.0, 1.0))
        integrate(polar_rhs(IsotropicField(mu=-1.5)), [1.0, 0.0, 0.1, 0.6],
                  settings)
        loops, texts = _loop.cache_info(), _compile.cache_info()
        traj = integrate(polar_rhs(IsotropicField(mu=0.25)),
                         [1.0, 0.0, 0.1, 0.6], settings)
        assert traj.termination == "completed"
        assert _loop.cache_info().misses == loops.misses
        assert _loop.cache_info().hits == loops.hits + 1
        assert _compile.cache_info().misses == texts.misses

    def test_import_compiles_nothing(self):
        src = Path(curlforce.__file__).resolve().parents[1]
        code = ("import curlforce.cli; "
                "from curlforce.integrate import _compile, _loop; "
                "print(_loop.cache_info().currsize, "
                "_compile.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.split() == ["0", "0"]


class TestMethodTableHygiene:
    """TestGeneratorHygiene's rules over every row of integrate's method
    table, each loop with and without events."""

    _KEYS = [(method, events) for method in sorted(_METHODS)
             for events in (False, True)]

    @staticmethod
    def _globals_read(code):
        """The global and builtin names a loop's code reads."""
        return {ins.argval for ins in dis.get_instructions(code)
                if ins.opname == "LOAD_GLOBAL"}

    @pytest.mark.parametrize("method, events", _KEYS)
    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_no_global_outside_the_namespace(self, name, method, events):
        # every name the loop reads beyond its locals and bound constants
        # is in _compile's namespace or a builtin
        make, y0, _, _ = _BUILDERS[name]
        rhs = make()
        loop = _loop(method, len(y0), (None,) * events, rhs.formula)(
            *rhs.constants, *(None,) * events)
        namespace = set(loop.__globals__) - {"__builtins__", "make"}
        assert namespace <= set(vars(builtins)) | {
            "isfinite", "sqrt", "nan", "inf", "cos", "sin", "real_power"}
        unknown = self._globals_read(loop.__code__) - namespace - set(
            vars(builtins))
        assert not unknown, unknown

    @pytest.mark.parametrize("method", sorted(_METHODS))
    @pytest.mark.parametrize("name", sorted(_EVENT_RUNS))
    def test_event_loops_read_no_global_outside_the_namespace(self, name,
                                                              method):
        make, y0, kwargs = _EVENT_RUNS[name]
        (ev,) = kwargs["events"]
        rhs = make()
        make_loop = _loop(method, len(y0), (ev.fn.formula,), rhs.formula)
        loop = make_loop(*rhs.constants, *ev.fn.constants)
        assert not (self._globals_read(loop.__code__)
                    - set(loop.__globals__) - set(vars(builtins)))
        # the event's names enter the loop as e0_name, apart from the rest
        base = _loop(method, len(y0), (), rhs.formula)(
            *rhs.constants).__code__
        added = set(loop.__code__.co_varnames) - set(base.co_varnames)
        assert {"e0", "ep0"} <= added
        assert all(re.fullmatch(r"e0_\w+|e0|ep0", n) for n in added), added

    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_body_names_disjoint_from_every_loops_locals(self, name):
        make, y0, _, _ = _BUILDERS[name]
        args, body, constants = make().formula
        code = compile("def stage():\n" + "".join(
            f"    {line}\n" for line in body.splitlines()),
            "<stage>", "exec").co_consts[0]
        assigned = set(code.co_varnames) - {f"d{c}" for c in range(len(y0))}
        locals_ = {n for method, events in self._KEYS
                   for n in _loop(method, len(y0), (None,) * events)(
                       None, *(None,) * events).__code__.co_varnames}
        for names in (assigned, set(args) - {""}, set(constants)):
            assert not names & locals_, (name, names & locals_)


class TestPastedLoopHygiene:
    """The loops integrate._paste writes beyond the step loop: the residual
    columns and the orbit grid loop with its printed comparator called in
    it; and what a stage of the step loop assigns and counts."""

    # the names integrate._compile puts in every generated loop's namespace
    _NAMESPACE = {"isfinite", "sqrt", "nan", "inf", "cos", "sin", "real_power"}

    @classmethod
    def _reads_only_the_namespace(cls, fn):
        namespace = set(fn.__globals__) - {"__builtins__", "make"}
        assert namespace <= set(vars(builtins)) | cls._NAMESPACE
        codes = [fn.__code__]
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if hasattr(c, "co_code")]
            read = {ins.argval for ins in dis.get_instructions(code)
                    if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME")}
            assert read <= namespace | set(vars(builtins)), read - namespace

    @pytest.mark.parametrize("rhs", [ef_rhs(2.0, -5.0), drag_ef_rhs(1.0, 5.0)],
                             ids=["ef", "drag"])
    def test_row_loop_reads_its_constants_by_name(self, rhs):
        from curlforce import analysis
        column = analysis._slope(rhs).loop
        self._reads_only_the_namespace(column)
        # each constant is bound as make's parameter x_name and read from
        # the closure; the body's names are renamed apart from the loop's
        free = rhs.formula[2]
        make = analysis._column(rhs.formula)
        assert make.__code__.co_varnames[:make.__code__.co_argcount] == \
            tuple(f"x_{name}" for name in free)
        assert set(column.__code__.co_freevars) == {f"x_{n}" for n in free}
        assert [c.cell_contents for c in column.__closure__] == [
            dict(zip(free, rhs.constants))[name[2:]]
            for name in column.__code__.co_freevars]
        own = set(column.__code__.co_varnames)
        assert {f"x_{a}" for a in rhs.formula[0]} <= own
        assert not {a for a in rhs.formula[0]} & own

    @pytest.mark.parametrize("kind", ["theta", "tau"])
    def test_printed_grid_loop_keeps_names_apart(self, kind, monkeypatch):
        from curlforce import analysis
        made = []
        simpson = analysis._simpson

        def recording(*key):
            make = simpson(*key)

            def bind(**constants):
                quad = make(**constants)
                made.append((key, make, constants, quad))
                return quad
            return bind

        monkeypatch.setattr(analysis, "_simpson", recording)
        quadrature = (analysis.orbit_theta_of_r if kind == "theta"
                      else analysis.time_of_r)
        quadrature(0.5, 0.3, [1.2, 1.5, 1.9])
        ((key, make, constants, quad),) = made
        self._reads_only_the_namespace(quad)
        # the comparator is bound by name, apart from the chain's constants
        # (which read p and r0p, as the comparator does), and reads
        # its own constants from its closure
        _, names, _, ratios = key
        assert ratios and "printed" not in names
        assert set(inspect.signature(make).parameters) == set(constants)
        printed = constants["printed"]
        self._reads_only_the_namespace(printed)
        assert {"p", "r0p"} <= set(names) & set(
            printed.__code__.co_freevars)
        assert "pv = printed(b) / v" in make.source

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_stage_assigns_only_what_its_body_reads(self, method):
        def stage_lines(field):
            rhs = polar_rhs(field)
            source = _loop(method, 4, False, rhs.formula).source
            return re.findall(r"^ *(theta|r|rdot|thetadot) = ", source, re.M)

        for field in (IsotropicField(mu=-1.5),
                      IsotropicDragField(mu=-1.5, nu=-3.0)):
            lines = stage_lines(field)
            assert "theta" not in lines and {"r", "rdot", "thetadot"} <= \
                set(lines)
        assert "theta" in stage_lines(_FIELDS["ermakov"])

    def test_rk4_counts_its_evaluations_once_a_step(self):
        for dim, formula in ((4, polar_rhs(IsotropicField(mu=-1.5)).formula),
                             (2, ef_rhs(2.0, -5.0).formula), (3, None)):
            source = _loop("rk4", dim, False, formula).source
            assert source.count("n_evals += 4") == 1
            assert "n_evals += 1" not in source
            adaptive = _loop("rk45", dim, False, formula).source
            # rk45 counts each of its six new stages as it evaluates it
            assert adaptive.count("n_evals += 1") == 6
