"""Each residual's model is its equation's right-hand side.

A residual is fd2 minus the slope T'' that the right-hand side's float
kernel gives at each interior row, the formula the integrator steps.  These
tests rebuild that column from rhs.kernel and compare the residuals bit for
bit.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from curlforce.analysis import (
    NonRealLambda,
    drag_exponents,
    drag_map_residual,
    ef_residual,
    particular_solution,
)
from curlforce.core import EFSeries, _fd2
from curlforce.invariants import angular_momentum
from curlforce.systems import drag_ef_rhs, ef_rhs


def _kernel_slopes(rhs, J, T, Tp):
    """rhs.kernel's T'' at each row of the float columns."""
    return np.array([rhs.kernel(j, [t, tp])[1]
                     for j, t, tp in zip(J, T, Tp)])


def _rms_max(resid):
    return [np.sqrt(np.mean(resid * resid)), np.max(np.abs(resid))]


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@st.composite
def _series_rows(draw):
    """Strictly increasing J with T kept away from zero, so that no power
    overflows, and any T'."""
    k = draw(st.integers(3, 40))
    steps = draw(st.lists(st.floats(1e-3, 0.5), min_size=k, max_size=k))
    J = draw(st.floats(0.05, 2.0)) + np.cumsum(steps)
    T = draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k,
                          max_size=k))
    Tp = draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k))
    return J, np.array(T) * np.array(signs), np.array(Tp)


_EXPONENT = st.one_of(st.integers(-8, 3).map(float), st.floats(-8.0, 3.0))


class TestEFResidualModel:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(rows=_series_rows(), n=st.floats(0.0, 3.0), m=_EXPONENT)
    def test_is_fd2_minus_ef_rhs_slope(self, rows, n, m):
        J, T, Tp = rows
        stats = ef_residual(EFSeries(J=J, T=T, Tprime=Tp, mu=0.0), n, m)
        resid = _fd2(J, T) - _kernel_slopes(ef_rhs(n, m), J[1:-1].tolist(),
                                            T[1:-1].tolist(),
                                            Tp[1:-1].tolist())
        assert _bits([stats.rms, stats.max_abs]) == _bits(_rms_max(resid))
        assert stats.count == resid.size


class TestODEResidualModel:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(n=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
           m=st.sampled_from([-3.5, -7.0 / 3.0, -2.0, -1.5, 0.0, 0.5, 3.0]),
           J=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=12))
    def test_is_tsecond_minus_ef_rhs_slope(self, n, m, J):
        try:
            sol = particular_solution(n, m)
        except NonRealLambda:
            assume(False)
        kernel = ef_rhs(n, m).kernel

        def expected(j):
            return sol.Tsecond(j) - kernel(j, [sol.T(j), sol.Tprime(j)])[1]

        # a float gives a float
        got = sol.ode_residual(J[0])
        assert type(got) is float
        assert _bits([got]) == _bits([expected(J[0])])
        # a list or an array gives an array of its shape, row by row the
        # float result
        want = _bits([expected(j) for j in J])
        for given_J in (J, np.array(J)):
            got = sol.ode_residual(given_J)
            assert type(got) is np.ndarray and got.shape == (len(J),)
            assert _bits(got) == want
        square = np.array(J[:1] * 4).reshape(2, 2)
        got = sol.ode_residual(square)
        assert got.shape == (2, 2)
        assert _bits(got) == _bits([expected(J[0])] * 4)


class TestDragResidualModel:
    def test_printed_form_is_fd2_minus_drag_ef_rhs_slope(self, drag_m4_traj):
        mu, nu = -4.0, -2.0
        lam, sigma, _ = drag_exponents(mu, nu)
        r = drag_m4_traj.y[:, 0]
        J = angular_momentum(drag_m4_traj)
        T = r ** (mu + 2.0) / (mu + 2.0)
        Tp = drag_m4_traj.y[:, 2]
        # the whole run maps: no monotone cut
        assert np.all(np.diff(J) > 0.0)
        resid = _fd2(J, T) - _kernel_slopes(
            drag_ef_rhs(lam, sigma), J[1:-1].tolist(), T[1:-1].tolist(),
            Tp[1:-1].tolist())
        report = drag_map_residual(drag_m4_traj, mu, nu)
        assert _bits([report.rms_printed, report.max_printed]) \
            == _bits(_rms_max(resid))
        assert report.count == resid.size
        assert report.winner == "derived"
