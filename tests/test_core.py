import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curlforce.core import (
    DomainError,
    EFSeries,
    PolarState,
    Trajectory,
    _continuous,
    _cut,
    _fd2,
    _hermite,
    bisect_root,
    crossing_times,
    drift_metric,
    longest_monotone_run,
    polar_states,
    real_power,
    resample,
)


def _traj(t, cols):
    t = np.asarray(t, dtype=float)
    y = np.column_stack(cols)
    dy = np.gradient(y, t, axis=0)
    return Trajectory(t=t, y=y, dy=dy)


class TestRealPower:
    def test_positive_base(self):
        assert real_power(2.0, 0.5) == math.sqrt(2.0)
        assert real_power(9.0, -0.5) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_zero_base(self):
        assert real_power(0.0, 2.5) == 0.0
        assert real_power(0.0, 0.0) == 1.0
        assert real_power(0.0, -1.0) == math.inf

    def test_negative_base_integer_exponent(self):
        assert real_power(-2.0, 3.0) == -8.0
        assert real_power(-2.0, 2.0) == 4.0
        assert real_power(-0.5, -3.0) == -8.0

    def test_negative_base_fractional_exponent_is_nan(self):
        assert math.isnan(real_power(-2.0, 0.5))
        assert math.isnan(real_power(-1.0, 2.5))
        assert math.isnan(real_power(-2.0, math.nan))
        assert math.isnan(real_power(-2.0, math.inf))
        assert math.isnan(real_power(-2.0, -math.inf))

    def test_overflow_saturates(self):
        assert real_power(10.0, 400.0) == math.inf
        assert real_power(-10.0, 401.0) == -math.inf
        assert real_power(-10.0, 400.0) == math.inf

    @settings(max_examples=30, derandomize=True)
    @given(x=st.floats(1e-3, 1e3), p=st.floats(-6.0, 6.0))
    def test_matches_float_pow_on_positive_base(self, x, p):
        assert real_power(x, p) == x ** p


class TestPolarState:
    def test_fields_and_array(self):
        s = PolarState(t=1.0, r=2.0, theta=0.5, rdot=-0.1, thetadot=0.3)
        assert np.allclose(s.as_array(), [2.0, 0.5, -0.1, 0.3])

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            PolarState(t=0.0, r=0.0, theta=0.0, rdot=0.0, thetadot=0.0)
        with pytest.raises(DomainError):
            PolarState(t=0.0, r=-1.0, theta=0.0, rdot=0.0, thetadot=0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            PolarState(t=0.0, r=math.nan, theta=0.0, rdot=0.0, thetadot=0.0)


class TestTrajectory:
    def test_requires_increasing_time(self):
        t = np.array([0.0, 1.0, 1.0])
        y = np.zeros((3, 2))
        with pytest.raises(ValueError):
            Trajectory(t=t, y=y, dy=y.copy())

    def test_arrays_read_only(self):
        traj = _traj([0.0, 1.0, 2.0], [np.array([1.0, 2.0, 3.0])])
        with pytest.raises(ValueError):
            traj.t[0] = 5.0

    def test_polar_states_view(self):
        traj = _traj([0.0, 0.5],
                     [np.array([1.0, 1.1]), np.array([0.0, 0.2]),
                      np.array([0.1, 0.1]), np.array([0.5, 0.4])])
        states = polar_states(traj)
        assert len(states) == 2
        assert states[1].r == 1.1
        assert states[1].t == 0.5


class TestResample:
    def test_exact_on_cubic(self):
        # cubic Hermite interpolation must reproduce any cubic exactly
        t = np.linspace(0.0, 2.0, 9)
        y = 1.0 - 2.0 * t + 0.5 * t ** 2 + 0.25 * t ** 3
        dy = -2.0 + t + 0.75 * t ** 2
        traj = Trajectory(t=t, y=y[:, None], dy=dy[:, None])
        q = np.linspace(0.0, 2.0, 57)
        expect = 1.0 - 2.0 * q + 0.5 * q ** 2 + 0.25 * q ** 3
        got = resample(traj, q)[:, 0]
        assert np.abs(got - expect).max() < 1e-13

    @settings(max_examples=25, derandomize=True)
    @given(coeffs=st.tuples(*[st.floats(-2.0, 2.0)] * 4),
           query=st.floats(0.0, 1.0))
    def test_cubic_property(self, coeffs, query):
        a, b, c, d = coeffs
        t = np.linspace(0.0, 1.0, 7)
        y = a + b * t + c * t ** 2 + d * t ** 3
        dy = b + 2 * c * t + 3 * d * t ** 2
        traj = Trajectory(t=t, y=y[:, None], dy=dy[:, None])
        expect = a + b * query + c * query ** 2 + d * query ** 3
        got = resample(traj, [query])[0, 0]
        assert abs(got - expect) < 1e-12

    def test_out_of_range_rejected(self):
        traj = _traj([0.0, 1.0, 2.0], [np.array([0.0, 1.0, 2.0])])
        with pytest.raises(DomainError):
            resample(traj, [2.5])


class TestCutStep:
    @settings(max_examples=200, derandomize=True)
    @given(rows=st.tuples(*[st.floats(-10.0, 10.0)] * 5),
           ends=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
           h=st.floats(1e-3, 10.0), s=st.floats(1e-3, 1.0))
    def test_cut_step_is_the_step_restricted(self, rows, ends, h, s):
        # the step [0, h] cut at s h, ending on the full step's state there:
        # its interpolant on the cut rows is the full step's on [0, s h], to
        # rounding (_continuous reads no f1, so both pass 0.0)
        y0, f0, y1 = ends
        rows = np.array(rows)
        full = (0.0, y0, f0, h, y1, 0.0)
        cut = (0.0, y0, f0, s * h, _continuous(*full, s * h, rows), 0.0)
        t = np.linspace(0.0, s * h, 9)
        err = np.abs(_continuous(*cut, t, _cut(rows, s))
                     - _continuous(*full, t, rows))
        scale = abs(y0) + abs(h * f0) + abs(y1) + np.abs(rows).sum()
        assert err.max() <= 8.0 * np.finfo(float).eps * scale


def _per_target_crossings(traj, col, targets):
    """crossing_times one target at a time: bisect_root on one step each."""
    t, x, xd = traj.t, traj.y[:, col], traj.dy[:, col]
    x0, x1 = x[0], x[-1]
    times = []
    for target in np.clip(np.asarray(targets, dtype=float), x0, x1):
        k = int(np.searchsorted(x, target, side="right"))
        if x[k - 1] == target:
            times.append(t[k - 1])
            continue
        step = (t[k - 1], x[k - 1], xd[k - 1], t[k], x[k], xd[k])
        times.append(bisect_root(lambda s: _hermite(*step, s) - target,
                                 t[k - 1], t[k], x[k - 1] - target, 1e-13))
    return np.array(times, dtype=float)


def _same_bits(got, expect):
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


class TestCrossingTimes:
    # x = t^2 on [1, 2]: the target x = c is reached at t = sqrt(c)
    _T = np.linspace(1.0, 2.0, 11)
    _RUN = Trajectory(t=_T, y=(_T ** 2)[:, None], dy=(2.0 * _T)[:, None])

    def test_interior_targets_match_inverse(self):
        targets = np.array([1.0, 1.3, 2.25, 3.9, 4.0])
        got = crossing_times(self._RUN, 0, targets)
        assert np.abs(got - np.sqrt(targets)).max() < 1e-12

    def test_targets_within_slack_map_to_ends(self):
        lo = np.nextafter(1.0, 0.0)
        hi = np.nextafter(4.0, 5.0)
        got = crossing_times(self._RUN, 0, [lo, hi], slack=1e-9)
        assert list(got) == [1.0, 2.0]

    def test_targets_beyond_slack_rejected(self):
        with pytest.raises(DomainError):
            crossing_times(self._RUN, 0, [0.99], slack=1e-9)
        with pytest.raises(DomainError):
            crossing_times(self._RUN, 0, [np.nextafter(1.0, 0.0)])

    def test_nonincreasing_column_rejected(self):
        run = Trajectory(t=self._T, y=-self._RUN.y, dy=-self._RUN.dy)
        with pytest.raises(DomainError):
            crossing_times(run, 0, [-2.0])

    def test_nan_target_rejected(self):
        with pytest.raises(DomainError):
            crossing_times(self._RUN, 0, [2.0, math.nan], slack=1e-9)

    # the batched bisection gives the bits of a per-target bisect_root
    @settings(max_examples=60, derandomize=True)
    @given(steps=st.lists(st.tuples(st.floats(1e-3, 10.0),
                                    st.floats(1e-3, 10.0),
                                    st.floats(-5.0, 20.0)),
                          min_size=1, max_size=12),
           t0=st.floats(-1e3, 1e3), scale=st.sampled_from([1e-6, 1.0, 1e6]),
           where=st.lists(st.floats(0.0, 1.0), max_size=40))
    def test_random_hermite_runs(self, steps, t0, scale, where):
        dt, dx, dy = (np.array(c) for c in zip(*steps))
        t = t0 + scale * np.concatenate([[0.0], np.cumsum(dt)])
        x = np.concatenate([[0.0], np.cumsum(dx)])
        run = Trajectory(t=t, y=x[:, None],
                         dy=np.concatenate([[1.0], dy])[:, None] / scale)
        targets = x[0] + np.array(where) * (x[-1] - x[0])
        _same_bits(crossing_times(run, 0, targets),
                   _per_target_crossings(run, 0, targets))

    def test_targets_at_nodes(self):
        x = self._RUN.y[:, 0]
        targets = np.concatenate([x, x[::-1], 0.5 * (x[1:] + x[:-1])])
        got = crossing_times(self._RUN, 0, targets)
        _same_bits(got, _per_target_crossings(self._RUN, 0, targets))
        assert list(got[:x.size]) == list(self._RUN.t)

    def test_targets_in_slack_at_both_ends(self):
        targets = [1.0 - 5e-10, np.nextafter(1.0, 0.0), 1.0, 2.5, 4.0,
                   np.nextafter(4.0, 5.0), 4.0 + 5e-10]
        got = crossing_times(self._RUN, 0, targets, slack=1e-9)
        _same_bits(got, _per_target_crossings(self._RUN, 0, targets))
        assert list(got[[0, 1, 2, 4, 5, 6]]) == [1.0] * 3 + [2.0] * 3

    def test_one_and_no_targets(self):
        _same_bits(crossing_times(self._RUN, 0, [3.3]),
                   _per_target_crossings(self._RUN, 0, [3.3]))
        _same_bits(crossing_times(self._RUN, 0, 2.0),
                   _per_target_crossings(self._RUN, 0, [2.0]))
        _same_bits(crossing_times(self._RUN, 0, []), np.empty(0))

    def test_single_sample_run(self):
        run = Trajectory(t=[0.5], y=[[2.0, 3.0]], dy=[[1.0, 1.0]])
        got = crossing_times(run, 1, [3.0, 3.0 + 1e-10, 3.0 - 1e-10],
                             slack=1e-9)
        assert list(got) == [0.5, 0.5, 0.5]
        with pytest.raises(DomainError):
            crossing_times(run, 1, [3.1], slack=1e-9)


class TestFiniteDifferences:
    def test_second_derivative_exact_on_quadratic(self):
        x = np.array([0.0, 0.3, 0.7, 1.2, 1.4])
        y = 2.0 + 3.0 * x + 4.0 * x ** 2
        assert np.abs(_fd2(x, y) - 8.0).max() < 1e-12

    def test_needs_monotone_grid(self):
        with pytest.raises(DomainError):
            _fd2(np.array([0.0, 1.0, 0.5]), np.zeros(3))

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            _fd2(np.array([0.0, 1.0]), np.zeros(2))


class TestDriftMetric:
    def test_constant_series_is_zero(self):
        assert drift_metric(np.full(10, 3.7)) == 0.0

    def test_normalizes_by_initial_magnitude(self):
        v = np.array([100.0, 100.0, 101.0])
        assert drift_metric(v) == pytest.approx(0.01)
        w = np.array([1e-8, 1e-8 + 1e-10])
        # small baselines fall back to an absolute scale of one
        assert drift_metric(w) == pytest.approx(1e-10)


class TestLongestMonotoneRun:
    def test_full_run(self):
        v = np.array([0.0, 1.0, 2.0])
        assert longest_monotone_run(v) == slice(0, 3)

    def test_picks_longest(self):
        v = np.array([0.0, 1.0, 0.5, 0.6, 0.9, 1.5, 0.2])
        run = longest_monotone_run(v)
        assert (run.start, run.stop) == (2, 6)

    def test_decreasing_counts(self):
        v = np.array([5.0, 4.0, 3.0, 3.5])
        run = longest_monotone_run(v)
        assert (run.start, run.stop) == (0, 3)


class TestEFSeries:
    def test_requires_increasing_J(self):
        J = np.array([1.0, 0.9, 1.2])
        with pytest.raises(ValueError):
            EFSeries(J=J, T=J.copy(), Tprime=J.copy(), mu=0.0)

    def test_len(self):
        J = np.array([1.0, 1.5])
        s = EFSeries(J=J, T=2 * J, Tprime=np.full(2, 2.0), mu=0.0)
        assert len(s) == 2
