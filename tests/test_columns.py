"""Residual columns and vector powers as list loops on Python floats.

analysis._slope(rhs).loop pastes the rhs's formula into one loop over the
rows, and core._vpow raises each element in one list loop; both must give
the bits of the per-element path they replace (the rhs kernel row by row,
np.vectorize(real_power)), on every kind of float.
"""

import itertools
import math

import numpy as np
import pytest

from curlforce import analysis
from curlforce.core import _rpow, _vpow, real_power
from curlforce.systems import drag_ef_rhs, ef_rhs, raw_ef_rhs

# negative, zero, subnormal, nan and infinite values, and bases where
# math.pow overflows for the exponents below
_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.5, -0.5, 2.5,
           -2.5, 3.0, -3.0, 1e-300, 1e300, -1e300, math.nan, math.inf,
           -math.inf]
_ROWS = list(itertools.product(_VALUES, repeat=3))

_RHS = {
    "ef-m5": lambda: ef_rhs(2.0, -5.0),
    "ef-m7": lambda: ef_rhs(2.0, -7.0),
    "ef-m3": lambda: ef_rhs(2.0, 3.0),
    "drag": lambda: drag_ef_rhs(1.0, 5.0),
    "drag-fractional": lambda: drag_ef_rhs(-0.5, 1.5),
    "raw-inf-r0": lambda: raw_ef_rhs(2.0, 3.0, -0.5, 0.0),
    "raw": lambda: raw_ef_rhs(2.0, -5.0, 0.5, 1.0),
}


def _bits(values):
    return np.array(values, dtype=float).tobytes()


class TestResidualColumn:
    @pytest.mark.parametrize("name", sorted(_RHS))
    def test_column_matches_kernel_rows(self, name):
        rhs = _RHS[name]()
        J, T, Tp = (list(c) for c in zip(*_ROWS))
        got = analysis._slope(rhs).loop(J, T, Tp)
        assert type(got) is list and len(got) == len(_ROWS)
        want = [rhs.kernel(j, [t, tp])[1] for j, t, tp in _ROWS]
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("name", sorted(_RHS))
    def test_model_matches_the_row_path(self, name):
        # _model runs the loop of a _Column from _slope and calls any other
        # function row by row; both give the columns' shape, or a float
        rhs = _RHS[name]()
        slope = analysis._slope(rhs)

        def plain(j, t, tp):
            return rhs.kernel(j, [t, tp])[1]

        J, T, Tp = (np.array(c).reshape(6, -1) for c in zip(*_ROWS))
        got = analysis._model(slope, J, T, Tp)
        assert got.shape == J.shape and got.dtype == np.float64
        assert got.tobytes() == analysis._model(plain, J, T, Tp).tobytes()
        for row in _ROWS[:40]:
            value = analysis._model(slope, *row)
            assert type(value) is float
            assert _bits(value) == _bits(plain(*row))

    def test_column_is_compiled_once_per_formula(self):
        a = analysis._slope(ef_rhs(2.0, -5.0)).loop
        b = analysis._slope(ef_rhs(2.0, -7.0)).loop
        assert a.__code__ is b.__code__
        assert a([1.5], [2.0], [0.0]) != b([1.5], [2.0], [0.0])


class TestEmdenFowlerSlope:
    # ef_rhs is raw_ef_rhs with a = 1 and b = 0; 1.0 * T + 0.0 turns -0.0
    # into +0.0, on which real_power takes the same branch
    @pytest.mark.parametrize("m", [-5.0, -7.0, 3.0])
    def test_is_the_power_product(self, m):
        rhs = ef_rhs(2.0, m)
        want = [real_power(j, 2.0) * real_power(t, m) for j, t, _ in _ROWS]
        J, T, Tp = (list(c) for c in zip(*_ROWS))
        assert _bits(analysis._slope(rhs).loop(J, T, Tp)) == _bits(want)
        assert _bits([rhs.kernel(j, [t, tp])[1]
                      for j, t, tp in _ROWS]) == _bits(want)


# real_power element by element, the vector power _vpow replaced
_VECTORIZED = np.vectorize(real_power, otypes=[float])


class TestVectorPower:
    _EXPONENTS = [2.0, 3.0, -5.0, -7.0, 0.0, 1e16, -4.0, 0.5, 1.7, -1.5,
                  -0.25, 1e20, math.inf, -math.inf, math.nan]

    @pytest.mark.parametrize("p", _EXPONENTS)
    def test_matches_vectorized_real_power(self, p):
        shaped = np.array(_VALUES)
        for x in (shaped, shaped.reshape(3, 6), shaped.reshape(6, 1, 3),
                  np.array(2.5), np.array(-0.0), np.array(1e300),
                  np.array([]), np.zeros((0, 3)), _VALUES, [1, -2, 0, 3],
                  [[1e300, -2.0], [5e-324, 0.0]]):
            got = _vpow(x, p)
            with np.errstate(all="ignore"):
                want = _VECTORIZED(x, p)
            assert type(got) is np.ndarray
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (x, p)

    def test_overflow_saturates_as_real_power_does(self):
        got = _vpow([1e300, -1e300, 2.0, 5e-324], 3.0)
        assert got.tolist() == [math.inf, -math.inf, 8.0, 0.0]
        assert _vpow([5e-324, -5e-324], -5.0).tolist() == [math.inf,
                                                            -math.inf]

    def test_scalars_skip_the_loop(self):
        for x in (2.5, 3, np.float64(-2.0), np.int64(4)):
            got = _rpow(x, 2.0)
            assert type(got) is float and got == real_power(x, 2.0)
