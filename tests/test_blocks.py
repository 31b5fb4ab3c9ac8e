"""Runs of many blocks against runs of one.

The step loop moves its node lists into float64 storage every
core._BLOCK_ROWS nodes, and the residual columns (analysis._model) and
core._vpow walk their inputs a block at a time.  A block boundary must not
show: with the block set to 1, 2, 3 and 5, every field of a trajectory and
every value of a column must be bit-identical to the one-block result,
for events that cross just after a flush, crossings that round to a
step's start, and failures whose partial trajectory spans blocks.  And a
long run must hold one block of Python floats, not the run.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from curlforce import analysis, core
from curlforce.core import _vpow
from curlforce.integrate import (
    Event,
    IntegrationError,
    IntegratorSettings,
    integrate,
)
from curlforce.systems import drag_ef_rhs, ef_rhs

_METHODS = ["rk4", "rk45", "dop853"]
_BLOCKS = [1, 2, 3, 5]


def _circle(t, y):
    return np.array([y[1], -y[0]])


def _blowup(t, y):
    return y * y


# on Python floats, so an overflow to inf warns of nothing
_blowup.kernel = lambda t, y: [y[0] * y[0]]


def _fields(run):
    """Every field of a trajectory, or of the one an IntegrationError
    carries, as comparable bits."""
    try:
        traj, error = run(), None
    except IntegrationError as exc:
        traj, error = exc.trajectory, str(exc)
    dense = None if traj.dense is None else traj.dense.tobytes()
    return (error, traj.termination, traj.events, dict(traj.meta),
            traj.t.tobytes(), traj.y.tobytes(), traj.dy.tobytes(), dense,
            traj.y.shape)


def _same_in_blocks(monkeypatch, run, blocks=_BLOCKS):
    """run's fields with each small block equal those with one block."""
    whole = _fields(run)
    for block in blocks:
        monkeypatch.setattr(core, "_BLOCK_ROWS", block)
        assert _fields(run) == whole, block
    monkeypatch.undo()
    return whole


def _settings(method, **kwargs):
    step = {"h": 0.25} if method == "rk4" else {}
    return IntegratorSettings(method=method, **step, **kwargs)


@pytest.mark.parametrize("method", _METHODS)
def test_completed_and_underflow_runs(monkeypatch, method):
    fields = _same_in_blocks(monkeypatch, lambda: integrate(
        _circle, [1.0, 0.0], _settings(method, t_span=(0.0, 6.0))))
    assert fields[1] == "completed"
    # y' = y^2 reaches infinity at t = 1: the adaptive pairs underflow
    # there, and rk4's stages stop being finite (an IntegrationError)
    fields = _same_in_blocks(monkeypatch, lambda: integrate(
        _blowup, [1.0], _settings(method, t_span=(0.0, 2.0))))
    assert fields[1] == ("aborted" if method == "rk4" else "step-underflow")


@pytest.mark.parametrize("method", _METHODS)
def test_max_steps_trajectory_spans_blocks(monkeypatch, method):
    fields = _same_in_blocks(monkeypatch, lambda: integrate(
        _circle, [1.0, 0.0], _settings(method, t_span=(0.0, 100.0),
                                       max_steps=12)))
    assert fields[0].startswith("max_steps=12 exceeded")
    assert len(fields[4]) > 8 * max(_BLOCKS)


@pytest.mark.parametrize("method", _METHODS)
def test_event_in_each_step(monkeypatch, method):
    # a crossing inside each step in turn, so with every block size some
    # crossing falls in the first step after a flush; the event does not
    # change the steps, so the free run's nodes place it
    nodes = integrate(_circle, [1.0, 0.0],
                      _settings(method, t_span=(0.0, 30.0))).t
    assert nodes.size > 13
    for k in range(1, 13):
        at = 0.25 * nodes[k - 1] + 0.75 * nodes[k]
        ev = Event("y", lambda t, y, at=at: (t - at) * (1.0 + y[0] * y[0]))
        fields = _same_in_blocks(monkeypatch, lambda: integrate(
            _circle, [1.0, 0.0], _settings(method, t_span=(0.0, 30.0),
                                           events=(ev,))))
        assert fields[1] == "event" and len(fields[4]) == 8 * (k + 1)


def test_rk4_crossing_at_a_steps_start(monkeypatch):
    # steps of one ulp of t: each crossing rounds to the even end of its
    # step, the start of every other one, where the run drops the crossed
    # step's node (and keeps counting it as accepted)
    t0 = 1e10
    h = math.ulp(t0)
    nodes = []
    for k in range(1, 13):
        ev = Event("late", lambda t, y, k=k: (t - t0) - (k - 0.5) * h)
        fields = _same_in_blocks(monkeypatch, lambda: integrate(
            lambda t, y: np.array([1.0]), [0.0], IntegratorSettings(
                method="rk4", h=h, t_span=(t0, t0 + 16 * h), events=(ev,))))
        assert fields[3]["accepted"] == k
        nodes.append(len(fields[4]) // 8 - k)
    assert nodes == [0, 1] * 6


def test_dop853_crossing_at_a_steps_start(monkeypatch):
    # the pole of y' = 1/(c - t)^2 shrinks the steps below the event's
    # bisection tolerance (tests/test_dop853.py): the crossed step and its
    # dense row are dropped.  A block of 1 flushes after every step, so the
    # crossed step is the first after a flush; the long run is made twice
    c = 1e6 + 1.0
    t0 = c - 2e-5
    ev = Event("y", lambda t, y: y[0] - 78475.99703514607)
    fields = _same_in_blocks(monkeypatch, lambda: integrate(
        lambda t, y: np.array([1.0 / (c - t) ** 2]), [1.0 / (c - t0)],
        IntegratorSettings(method="dop853", t_span=(t0, c + 1.0),
                           events=(ev,))), blocks=[1])
    assert fields[1] == "event"
    assert fields[3]["accepted"] == len(fields[4]) // 8


@pytest.mark.parametrize("rhs", [ef_rhs(2.0, -5.0), drag_ef_rhs(1.0, 5.0)],
                         ids=["ef", "drag"])
def test_model_columns_in_blocks(monkeypatch, rhs):
    rng = np.random.default_rng(5)
    J = np.linspace(0.5, 3.0, 13)
    T = rng.uniform(0.2, 2.0, 13)
    Tp = rng.uniform(-1.0, 1.0, 13)

    def plain(j, t, tp):
        return rhs.kernel(j, [t, tp])[1]

    slope = analysis._slope(rhs)
    cases = [(J, T, Tp), (J[:0], T[:0], Tp[:0]), (1.5, 0.7, 0.25),
             (J.reshape(13, 1), T.reshape(13, 1), Tp.reshape(13, 1))]
    for f in (slope, plain):
        whole = [analysis._model(f, *cols) for cols in cases]
        for block in _BLOCKS:
            monkeypatch.setattr(core, "_BLOCK_ROWS", block)
            for cols, want in zip(cases, whole):
                got = analysis._model(f, *cols)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                assert np.shape(got) == np.shape(want)
        monkeypatch.undo()


def test_vpow_in_blocks(monkeypatch):
    x = np.array([2.0, -3.0, 0.0, -0.0, 5e-324, math.inf, -math.inf,
                  math.nan, 1e300, -1e-300, 0.5])
    cases = [(x, 2.0), (x, -1.5), (x, 3.0), (x.reshape(11, 1), -5.0),
             (x[:0], 2.0), (np.float64(-2.0), 3.0), ([1.0, -1.0], 0.5)]
    whole = [_vpow(v, p) for v, p in cases]
    for block in _BLOCKS:
        monkeypatch.setattr(core, "_BLOCK_ROWS", block)
        for (v, p), want in zip(cases, whole):
            got = _vpow(v, p)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_long_run_holds_one_block_of_python_floats(monkeypatch):
    """The traced peak of an rk4 run of ten blocks and one node stays
    within its arrays' float64 bytes plus one block's worth of Python
    floats (24 bytes each, and a list's 8-byte slot).

    The run keeps 9 floats a node (t, and a 4-component state and slope);
    a loop that keeps every node as a Python float peaks at several times
    its arrays.  At this length the storage's growth (a sixteenth of it at
    a time) and Trajectory's checks fit in the block's allowance.  A block
    of 256 rows keeps the run short; the node count and the allowance
    scale with it.
    """
    monkeypatch.setattr(core, "_BLOCK_ROWS", 256, raising=False)

    def rhs(t, y):
        return np.array([y[1], -y[0], y[3], -y[2]])
    rhs.kernel = lambda t, y: [y[1], -y[0], y[3], -y[2]]
    rhs.formula = (("", "s0", "s1", "s2", "s3"),
                   "d0 = s1\nd1 = -s0\nd2 = s3\nd3 = -s2", ())
    rhs.constants = ()
    y0 = [1.0, 0.0, 0.5, 0.0]
    steps = 10 * core._BLOCK_ROWS
    h = 2.0 ** -10      # the node times are exact
    settings = IntegratorSettings(method="rk4", h=h, t_span=(0.0, steps * h))
    integrate(rhs, y0, IntegratorSettings(method="rk4", h=h,
                                          t_span=(0.0, 4 * h)))  # compile
    tracemalloc.start()
    try:
        traj = integrate(rhs, y0, settings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.t.size == steps + 1
    arrays = traj.t.nbytes + traj.y.nbytes + traj.dy.nbytes
    block = core._BLOCK_ROWS * 9 * (sys.getsizeof(1.0) + 8)
    assert peak <= arrays + block, (
        f"peaked at {peak / 1e6:.2f} MB for {arrays / 1e6:.2f} MB of arrays")
