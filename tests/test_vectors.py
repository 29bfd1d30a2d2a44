import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feddrift.errors import (
    DimensionError,
    EmptyAggregateError,
    NumericError,
    ParameterError,
    WeightError,
)
from feddrift.federation import weighted_mean
from feddrift.vectors import ParamVector, finite_diff_grad, max_relative_error


class TestParamVector:
    def test_copies_and_freezes_input(self):
        src = np.array([1.0, 2.0])
        v = ParamVector(src)
        src[0] = 99.0
        assert v.values[0] == 1.0
        with pytest.raises(ValueError):
            v.values[0] = 5.0

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(DimensionError):
            ParamVector([[1.0, 2.0]])
        with pytest.raises(DimensionError):
            ParamVector([])
        with pytest.raises(NumericError, match="index 1"):
            ParamVector([0.0, np.nan])
        with pytest.raises(NumericError):
            ParamVector([np.inf])


class TestWeightedMean:
    """`federation.weighted_mean`, the fold every aggregate runs, over the rows of a block."""

    def test_single_element(self):
        assert np.array_equal(weighted_mean([[2.0, 2.0]], [5.0]), [2.0, 2.0])

    def test_symmetry(self):
        out = weighted_mean([[0.0, 0.0], [2.0, 2.0]], [1, 1])
        assert np.array_equal(out, [1.0, 1.0])

    def test_hand_arithmetic(self):
        vs = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        assert np.array_equal(weighted_mean(vs, [1, 2, 1]), [0.5, 0.75])

    def test_empty(self):
        with pytest.raises(EmptyAggregateError):
            weighted_mean(np.empty((0, 3)), [])

    def test_bad_weights(self):
        v = [[1.0], [2.0]]
        with pytest.raises(WeightError):
            weighted_mean(v, [0.0, 0.0])
        with pytest.raises(WeightError):
            weighted_mean(v, [1.0, -1.0])
        with pytest.raises(DimensionError):
            weighted_mean(v, [1.0])

    def test_length_mismatch(self):
        """Only a (C, P) block has rows of one length to average."""
        for bad in (np.ones(3), np.ones((2, 3, 1))):
            with pytest.raises(DimensionError):
                weighted_mean(bad, [1.0] * len(bad))

    def test_identical_vectors_exact(self, bits):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(257)
        for n in (1, 2, 3, 20):
            block = np.tile(v, (n, 1))
            out = weighted_mean(block, [1.0] * n)
            assert bits(out, v)
            assert not np.shares_memory(out, block)  # a copy of the row, not a view

    def test_weight_scaling_invariance_bitwise(self, bits):
        rng = np.random.default_rng(4)
        vs = rng.standard_normal((5, 64))
        ws = list(rng.random(5) + 0.1)
        a = weighted_mean(vs, ws)
        b = weighted_mean(vs, [2.0 * w for w in ws])
        c = weighted_mean(vs, [0.5 * w for w in ws])
        assert bits(a, b) and bits(a, c)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_equal_weights_match_fold_mean_within_ulp(self, n):
        rng = np.random.default_rng(n)
        vs = rng.standard_normal((n, 512))
        fold = vs[0].copy()
        for v in vs[1:]:
            fold = fold + v
        fold = fold / n
        got = weighted_mean(vs, [1.0] * n)
        assert np.all(np.abs(got - fold) <= np.spacing(np.abs(fold)))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
            min_size=1,
            max_size=6,
        )
    )
    def test_mean_within_hull(self, rows):
        stacked = np.array(rows)
        out = weighted_mean(stacked, [1.0] * len(rows))
        assert np.all(out >= stacked.min(axis=0) - 1e-9)
        assert np.all(out <= stacked.max(axis=0) + 1e-9)


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda v: float(v @ v), np.array([1.0, 2.0]), 1e-5)
        assert np.allclose(grad, [2.0, 4.0], atol=1e-6)

    def test_constant(self):
        grad = finite_diff_grad(lambda v: 7.5, np.array([1.0, -3.0, 0.0]), 1e-5)
        assert np.array_equal(grad, np.zeros(3))

    def test_bad_step(self):
        with pytest.raises(ParameterError):
            finite_diff_grad(lambda v: 0.0, np.array([1.0]), 0.0)

    def test_nonfinite_objective(self):
        with pytest.raises(NumericError):
            finite_diff_grad(lambda v: np.inf, np.array([1.0]), 1e-5)


def test_max_relative_error():
    a = np.array([1.0, 100.0])
    b = np.array([1.0 + 1e-6, 100.0 + 1e-3])
    assert max_relative_error(b, a) == pytest.approx(1e-5, rel=1e-6)
    with pytest.raises(DimensionError):
        max_relative_error(np.array([1.0]), np.array([1.0, 2.0]))
