import hashlib
import math

import numpy as np
import pytest

from curlforce.core import DomainError
from curlforce.integrate import (
    Event,
    IntegrationError,
    IntegratorSettings,
    _loop,
    integrate,
)


def _exp_rhs(t, y):
    return -y


def _circle_rhs(t, y):
    return np.array([y[1], -y[0]])


class TestSettings:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            IntegratorSettings(rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorSettings(t_span=(1.0, 1.0))
        with pytest.raises(ValueError):
            IntegratorSettings(method="euler")
        with pytest.raises(ValueError):
            IntegratorSettings(method="fixed-rk4")
        with pytest.raises(ValueError):
            IntegratorSettings(max_steps=0)

    @pytest.mark.parametrize("field", ["h", "rel_tol", "abs_tol", "max_steps"])
    def test_rejects_nan(self, field):
        # NaN compares False with every bound, so each check must be written
        # to fail on it; a NaN max_steps would otherwise never stop.  h
        # belongs to rk4, so its case is an rk4 settings object
        method = "rk4" if field == "h" else "rk45"
        with pytest.raises(ValueError, match="must be"):
            IntegratorSettings(method=method, **{field: math.nan})


class TestAdaptive:
    def test_exponential_decay_accuracy(self):
        s = IntegratorSettings(t_span=(0.0, 5.0), rel_tol=1e-11, abs_tol=1e-13)
        traj = integrate(_exp_rhs, np.array([1.0]), s)
        assert traj.termination == "completed"
        assert traj.t[-1] == 5.0
        assert abs(traj.y[-1, 0] - math.exp(-5.0)) < 1e-11

    def test_oscillator_long_run(self):
        s = IntegratorSettings(t_span=(0.0, 20.0 * math.pi), rel_tol=1e-10,
                               abs_tol=1e-12)
        traj = integrate(_circle_rhs, np.array([1.0, 0.0]), s)
        assert abs(traj.y[-1, 0] - 1.0) < 1e-7
        assert abs(traj.y[-1, 1]) < 1e-7

    def test_tolerance_scaling(self):
        # order-5 method: tightening tolerances must tighten the answer
        errs = []
        for rel in (1e-6, 1e-9, 1e-12):
            s = IntegratorSettings(t_span=(0.0, 2.0), rel_tol=rel,
                                   abs_tol=rel * 1e-2)
            traj = integrate(_exp_rhs, np.array([1.0]), s)
            errs.append(abs(traj.y[-1, 0] - math.exp(-2.0)))
        assert errs[0] > errs[1] > errs[2]

    def test_derivative_columns_match_rhs(self):
        s = IntegratorSettings(t_span=(0.0, 1.0))
        traj = integrate(_circle_rhs, np.array([0.3, -0.2]), s)
        for k in (0, traj.t.size // 2, traj.t.size - 1):
            expect = _circle_rhs(traj.t[k], traj.y[k])
            assert np.allclose(traj.dy[k], expect, atol=1e-14)

    def test_stats_recorded(self):
        s = IntegratorSettings(t_span=(0.0, 1.0))
        traj = integrate(_exp_rhs, np.array([1.0]), s)
        meta = traj.meta
        assert meta["accepted"] == traj.t.size - 1
        assert meta["rhs_evals"] > 0


class TestFixedStep:
    def test_rk4_convergence_order(self):
        errs = []
        for h in (0.1, 0.05, 0.025):
            s = IntegratorSettings(method="rk4", h=h, t_span=(0.0, 1.0))
            traj = integrate(_exp_rhs, np.array([1.0]), s)
            errs.append(abs(traj.y[-1, 0] - math.exp(-1.0)))
        rate = math.log(errs[0] / errs[2], 2.0) / 2.0
        assert 3.7 < rate < 4.3

    def test_no_dust_step_at_span_end(self):
        # accumulated rounding must not leave a microscopic trailing step
        s = IntegratorSettings(method="rk4", h=5e-4, t_span=(0.0, 8.0))
        traj = integrate(_exp_rhs, np.array([1.0]), s)
        dt = np.diff(traj.t)
        assert traj.t[-1] == 8.0
        assert dt.min() > 2.5e-4

    def test_nonfinite_rhs_aborts_with_partial(self):
        def rhs(t, y):
            if t > 0.5:
                return np.array([math.nan])
            return -y

        s = IntegratorSettings(method="rk4", h=0.01, t_span=(0.0, 1.0))
        with pytest.raises(IntegrationError) as info:
            integrate(rhs, np.array([1.0]), s)
        partial = info.value.trajectory
        assert partial is not None
        assert partial.termination == "aborted"
        assert partial.t[-1] >= 0.48


class TestEvents:
    def test_event_time_located_precisely(self):
        target = 0.25
        ev = Event("hit", lambda t, y: y[0] - target)
        s = IntegratorSettings(t_span=(0.0, 5.0), rel_tol=1e-10,
                               abs_tol=1e-12, events=(ev,))
        traj = integrate(_exp_rhs, np.array([1.0]), s)
        assert traj.termination == "event"
        (t_ev, name), = traj.events
        assert name == "hit"
        assert abs(t_ev - math.log(1.0 / target)) < 1e-8
        assert traj.t[-1] == pytest.approx(t_ev)
        assert abs(traj.y[-1, 0] - target) < 1e-8

    def test_event_exactly_at_sample(self):
        ev = Event("zero", lambda t, y: y[0])
        s = IntegratorSettings(t_span=(0.0, 4.0), events=(ev,))
        traj = integrate(_circle_rhs, np.array([1.0, 0.0]), s)
        assert traj.termination == "event"
        assert abs(traj.t[-1] - math.pi / 2.0) < 1e-8

    def test_event_in_fixed_mode(self):
        ev = Event("hit", lambda t, y: y[0] - 0.5)
        s = IntegratorSettings(method="rk4", h=0.01, t_span=(0.0, 2.0),
                               events=(ev,))
        traj = integrate(_exp_rhs, np.array([1.0]), s)
        assert traj.termination == "event"
        assert abs(traj.t[-1] - math.log(2.0)) < 1e-7

    def test_crossing_at_the_steps_start_ends_there(self):
        # steps of one ulp of t: the event's bisection tolerance exceeds the
        # step, so its crossing rounds to the crossed step's start, t0 + 2h;
        # the run ends on that node and makes no stop evaluation
        t0 = 1e10
        h = math.ulp(t0)
        ev = Event("late", lambda t, y: (t - t0) - 2.5 * h)
        traj = integrate(lambda t, y: np.array([1.0]), [0.0],
                         IntegratorSettings(method="rk4", h=h,
                                            t_span=(t0, t0 + 8 * h),
                                            events=(ev,)))
        assert traj.termination == "event"
        assert traj.t.tolist() == [t0, t0 + h, t0 + 2 * h]
        assert traj.events == ((t0 + 2 * h, "late"),)
        assert traj.meta["accepted"] == 3
        assert traj.meta["rhs_evals"] == 13


class TestFailureModes:
    def test_max_steps_exceeded(self):
        s = IntegratorSettings(t_span=(0.0, 1.0), max_steps=5)
        with pytest.raises(IntegrationError) as info:
            integrate(_circle_rhs, np.array([1.0, 0.0]), s)
        assert "max_steps" in str(info.value)
        partial = info.value.trajectory
        assert partial.termination == "aborted"
        assert partial.t[-1] < 1.0

    def test_step_underflow_on_singularity(self):
        # finite-time blow-up: y' = y^2 reaches infinity at t = 1
        def rhs(t, y):
            return y * y

        s = IntegratorSettings(t_span=(0.0, 2.0), rel_tol=1e-10,
                               abs_tol=1e-12, max_steps=100_000)
        traj = integrate(rhs, np.array([1.0]), s)
        assert traj.termination == "step-underflow"
        assert traj.t[-1] < 1.0001

    def test_initial_state_must_be_finite(self):
        s = IntegratorSettings(t_span=(0.0, 1.0))
        with pytest.raises((DomainError, ValueError, IntegrationError)):
            integrate(_exp_rhs, np.array([math.inf]), s)


def _trajectory_digest(traj):
    h = hashlib.sha256()
    for a in (traj.t, traj.y, traj.dy):
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    h.update(repr((traj.termination, traj.events,
                   sorted(traj.meta.items()))).encode())
    return h.hexdigest()


def _capped_square_rhs(t, y):
    # y' = y^2, not finite past y = 2 (reached at t = 1/2 from y(0) = 1)
    return y * y if y[0] < 2.0 else np.array([math.nan])


class TestGoldenArithmetic:
    """Pin the stepper's floating-point operations bit for bit.

    The right-hand sides use only negation and products, so the digests
    follow the stepper's own arithmetic: stage sums, error norm, step
    control, event bisection on the Hermite interpolant and the per-stage
    finiteness checks.  They were recorded with the numpy-array stepper
    that the Python-float one replaced; reordering any floating-point
    operation of the stepper changes them.  The rk4 digest was re-recorded
    when an rk4 run's meta came to record h in place of the tolerances it
    never read; hashed with the old meta, the run gives the old digest.
    """

    CASES = {
        "rk45-event": (
            _circle_rhs, [1.0, 0.0],
            dict(t_span=(0.0, 20.0), rel_tol=1e-10, abs_tol=1e-12,
                 events=(Event("x-at-minus-half", lambda t, y: y[0] + 0.5),)),
            "d1970bfe4b14e1ae68585df53163097c"
            "507ec0a2033adcdf95577371b73e604e",
        ),
        "rk4": (
            _circle_rhs, [0.3, -0.2],
            dict(method="rk4", h=0.01, t_span=(0.0, 10.0)),
            "f3e1c358178459ceade8dc5d80142945"
            "ab7959b988947367b58793e6564ad52c",
        ),
        "rk45-nonfinite": (
            _capped_square_rhs, [1.0],
            dict(t_span=(0.0, 2.0), rel_tol=1e-10, abs_tol=1e-12),
            "d0e777057298b12d4d31b0a9a991ea70"
            "d44c691e08cdf01cffa9b1dd00d2bbc3",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_digest(self, name):
        rhs, y0, kwargs, digest = self.CASES[name]
        traj = integrate(rhs, np.array(y0), IntegratorSettings(**kwargs))
        assert _trajectory_digest(traj) == digest


class TestFloatKernel:
    """An rhs with a kernel attribute is stepped through the kernel."""

    @staticmethod
    def _counted(rejecting):
        calls = {"rhs": 0, "kernel": 0}

        def kernel(t, y):
            calls["kernel"] += 1
            if rejecting and y[0] >= 2.0:
                return [math.nan]
            return [y[1], -y[0]] if len(y) == 2 else [y[0] * y[0]]

        def rhs(t, y):
            calls["rhs"] += 1
            return np.array(kernel(t, y.tolist()))

        rhs.kernel = kernel
        return rhs, calls

    @pytest.mark.parametrize("name", sorted(TestGoldenArithmetic.CASES))
    def test_same_digest_as_ndarray_path(self, name):
        # the golden cases again, their rhs rewritten as a counted kernel:
        # the public rhs runs once, at the initial state, and every
        # evaluation the stepper counts is a kernel call
        _, y0, kwargs, digest = TestGoldenArithmetic.CASES[name]
        rhs, calls = self._counted(rejecting=name == "rk45-nonfinite")
        traj = integrate(rhs, np.array(y0), IntegratorSettings(**kwargs))
        assert _trajectory_digest(traj) == digest
        assert calls["rhs"] == 1
        assert calls["kernel"] == traj.meta["rhs_evals"]

    def test_plain_callable_gets_ndarrays(self):
        seen = set()

        def rhs(t, y):
            seen.add(type(y))
            return -y

        integrate(rhs, [1.0, 2.0], IntegratorSettings(t_span=(0.0, 0.1)))
        assert seen == {np.ndarray}

    def test_events_get_lists(self):
        # the event is called at each node and along its bisection
        seen = []

        def g(t, y):
            seen.append(type(y))
            return y[0] - 0.5

        traj = integrate(lambda t, y: -y, [1.0, 2.0],
                         IntegratorSettings(t_span=(0.0, 2.0),
                                            events=(Event("half", g),)))
        assert traj.termination == "event"
        assert len(seen) > traj.t.size
        assert set(seen) == {list}


def _circle_kernel_rhs(kernel):
    """_circle_rhs for the initial check, kernel for every stage."""

    def rhs(t, y):
        return _circle_rhs(t, y)

    rhs.kernel = kernel
    return rhs


class TestGeneratedLoop:
    """integrate's step loops are generated per method and state size.

    The counts below were recorded with the hand-written stepper that the
    generated loops replaced.
    """

    @pytest.mark.parametrize("events", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("method", ["rk45", "rk4"])
    def test_loop_compiles_for_each_key(self, method, dim, events):
        loop = _loop(method, dim, (None,) * events)
        print(loop.source)
        assert "zip(" not in loop.source
        body = loop.source.split("):\n", 1)[1]   # after the signature
        assert ("return 'event'" in body) == events
        assert loop is _loop(method, dim, (None,) * events)
        ev = (Event("never", lambda t, y: 1.0),) if events else ()
        step = {"h": 0.01} if method == "rk4" else {}
        traj = integrate(lambda t, y: -y, [1.0] * dim, IntegratorSettings(
            method=method, t_span=(0.0, 1.0), events=ev, **step))
        assert traj.termination == "completed"
        assert traj.y.shape == (traj.t.size, dim)
        assert abs(traj.y[-1, -1] - math.exp(-1.0)) < 1e-9

    @pytest.mark.parametrize("component", [0, 1])
    @pytest.mark.parametrize("stage", range(2, 8))
    def test_nonfinite_stage_rejects_step(self, stage, component):
        # one non-finite value at a stage of the third step: the loop stops
        # that step at the stage, counts the kernel calls made so far and
        # halves the step
        calls = [0]

        def kernel(t, y):
            calls[0] += 1
            out = [y[1], -y[0]]
            if calls[0] == 12 + stage - 1:
                out[component] = math.nan if component == 0 else math.inf
            return out

        traj = integrate(_circle_kernel_rhs(kernel), [1.0, 0.0],
                         IntegratorSettings(t_span=(0.0, 2.0)))
        meta = traj.meta
        assert (meta["rhs_evals"], meta["accepted"], meta["rejected"]) == \
            (486 + stage, 81, 1)
        assert calls[0] == meta["rhs_evals"] - 1
        assert traj.y[-1, 0] == float.fromhex("-0x1.aa22657529782p-2")

    @pytest.mark.parametrize("kwargs, message, counts", [
        (dict(t_span=(0.0, 1.0), max_steps=5),
         "max_steps=5 exceeded at t=0.053166824792792", (31, 5, 0)),
        (dict(method="rk4", h=0.01, t_span=(0.0, 1.0), max_steps=5),
         "max_steps=5 exceeded at t=0.05", (21, 5, 0)),
        (dict(t_span=(0.0, 10.0), max_steps=7,
              events=(Event("never", lambda t, y: 1.0),)),
         "max_steps=7 exceeded at t=0.07883240688557522", (43, 5, 2)),
    ], ids=["rk45", "rk4", "rk45-events"])
    def test_max_steps_counters(self, kwargs, message, counts):
        with pytest.raises(IntegrationError) as info:
            integrate(_circle_rhs, [1.0, 0.0], IntegratorSettings(**kwargs))
        assert str(info.value) == message
        partial = info.value.trajectory
        meta = partial.meta
        assert (meta["rhs_evals"], meta["accepted"], meta["rejected"]) == counts
        assert partial.termination == "aborted"
        assert partial.t.size == 6

    @pytest.mark.parametrize("change", ["longer", "shorter"])
    @pytest.mark.parametrize("method", ["rk45", "rk4"])
    def test_kernel_changing_length_raises(self, method, change):
        # the loop unpacks each kernel result into the state's components,
        # so a result of another length fails instead of being truncated
        calls = [0]

        def kernel(t, y):
            calls[0] += 1
            out = [y[1], -y[0]]
            if calls[0] > 10:
                return out + [0.0] if change == "longer" else out[:1]
            return out

        with pytest.raises(ValueError, match="values to unpack"):
            integrate(_circle_kernel_rhs(kernel), [1.0, 0.0],
                      IntegratorSettings(method=method, t_span=(0.0, 1.0)))
        assert calls[0] == 11
