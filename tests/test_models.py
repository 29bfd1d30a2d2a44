import numpy as np
import pytest

from feddrift.errors import (
    DimensionError,
    EmptyEvaluationError,
    ParameterError,
)
from feddrift.models import (
    ModelSpec,
    _layout,
    _tiles,
    accuracy,
    init_params,
    loss_and_grad,
    mean_loss,
)
from feddrift.rng import stream
from feddrift.vectors import finite_diff_grad, max_relative_error

LOGISTIC = ModelSpec("logistic", input_dim=30, num_classes=5)
SMALL_MLP = ModelSpec("mlp", input_dim=20, num_classes=3, hidden_dims=(8,))


def random_batch(spec, n, seed=0):
    rng = stream(seed, "testing")
    x = rng.standard_normal((n, spec.input_dim))
    logits = rng.standard_normal((n, spec.num_classes))
    y = np.argmax(logits, axis=1).astype(np.int64)
    return x, y


class TestSpec:
    def test_param_counts(self):
        assert LOGISTIC.param_count == (30 + 1) * 5 == 155
        big = ModelSpec("mlp", 784, 10, hidden_dims=(200, 200))
        assert big.param_count == 785 * 200 + 201 * 200 + 201 * 10 == 199_210
        assert SMALL_MLP.param_count == 21 * 8 + 9 * 3 == 195

    def test_validation(self):
        with pytest.raises(ParameterError):
            ModelSpec("cnn", 10, 2)
        with pytest.raises(ParameterError):
            ModelSpec("logistic", 10, 2, hidden_dims=(5,))
        with pytest.raises(ParameterError):
            ModelSpec("mlp", 10, 2)
        with pytest.raises(ParameterError):
            ModelSpec("logistic", 10, 2, weight_decay=-1.0)


class TestInit:
    def test_deterministic(self):
        a = init_params(LOGISTIC, stream(1, "global-init"))
        b = init_params(LOGISTIC, stream(1, "global-init"))
        assert np.array_equal(a, b)
        c = init_params(LOGISTIC, stream(2, "global-init"))
        assert not np.array_equal(a, c)

    def test_biases_zero(self):
        flat = init_params(LOGISTIC, stream(0, "global-init"))
        assert np.array_equal(flat[30 * 5 :], np.zeros(5))

    def test_weight_scale(self):
        spec = ModelSpec("mlp", 400, 10, hidden_dims=(300,))
        flat = init_params(spec, stream(0, "global-init"))
        w1 = flat[: 400 * 300]
        assert abs(w1.std() - 1.0 / np.sqrt(400)) < 0.005


class TestForward:
    """The forward pass, seen through the functions that evaluate it."""

    def test_zero_params_uniform(self):
        x, _ = random_batch(LOGISTIC, 6)
        zero = np.zeros(LOGISTIC.param_count)
        for c in range(LOGISTIC.num_classes):
            loss = mean_loss(LOGISTIC, zero, x, np.full(6, c))
            assert np.exp(-loss) == pytest.approx(0.2, abs=1e-15)

    def test_saturation(self):
        flat = np.zeros(LOGISTIC.param_count)
        flat[0 * 5 + 2] = 1e4  # weight feature 0 -> class 2
        params = flat
        x = np.array([[3.0] + [0.0] * 29])
        assert mean_loss(LOGISTIC, params, x, np.array([2])) == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(mean_loss(LOGISTIC, params, x, np.array([0])))
        assert accuracy(LOGISTIC, params, x, np.array([2])) == 1.0

    def test_rows_sum_to_one(self):
        params = init_params(SMALL_MLP, stream(3, "global-init"))
        x, _ = random_batch(SMALL_MLP, 64, seed=4)
        for row in x:
            probs = [
                np.exp(-mean_loss(SMALL_MLP, params, row[None, :], np.array([c])))
                for c in range(SMALL_MLP.num_classes)
            ]
            assert abs(sum(probs) - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        x, y = random_batch(LOGISTIC, 2)
        narrow = np.zeros((2, 7))  # 7 features into the 30-input model
        for evaluate in (accuracy, mean_loss, loss_and_grad):
            with pytest.raises(DimensionError):
                evaluate(LOGISTIC, np.zeros(7), x, y)
            with pytest.raises(DimensionError):
                evaluate(LOGISTIC, np.zeros(LOGISTIC.param_count), narrow, y)
        with pytest.raises(DimensionError):
            loss_and_grad(LOGISTIC, np.zeros(LOGISTIC.param_count), *random_batch(SMALL_MLP, 2))


class TestLossAndGrad:
    def test_zero_params_loss_is_log_c(self):
        for spec in (LOGISTIC, SMALL_MLP):
            loss, _ = loss_and_grad(spec, np.zeros(spec.param_count), *random_batch(spec, 9))
            assert abs(loss - np.log(spec.num_classes)) < 1e-12

    @pytest.mark.parametrize(
        "spec",
        [
            LOGISTIC,
            SMALL_MLP,
            ModelSpec("logistic", 30, 5, weight_decay=1e-3),
            ModelSpec("mlp", 20, 3, hidden_dims=(8,), weight_decay=1e-2),
            ModelSpec("mlp", 12, 4, hidden_dims=(10, 6)),
        ],
    )
    def test_gradient_matches_finite_differences(self, spec):
        params = init_params(spec, stream(11, "global-init"))
        x, y = random_batch(spec, 3, seed=12)
        _, grad = loss_and_grad(spec, params, x, y)
        oracle = finite_diff_grad(lambda v: mean_loss(spec, v, x, y), params, 1e-5)
        assert max_relative_error(grad, oracle) < 1e-5

    def test_duplicated_batch_mean_invariance(self):
        x, y = random_batch(LOGISTIC, 5, seed=13)
        params = init_params(LOGISTIC, stream(13, "global-init"))
        l1, g1 = loss_and_grad(LOGISTIC, params, x, y)
        l2, g2 = loss_and_grad(LOGISTIC, params, np.vstack([x, x]), np.concatenate([y, y]))
        assert l1 == pytest.approx(l2, rel=1e-14, abs=1e-15)
        assert np.allclose(g1, g2, rtol=1e-13, atol=1e-15)

    def test_permutation_invariance(self):
        x, y = random_batch(SMALL_MLP, 16, seed=14)
        perm = stream(14, "testing").permutation(16)
        params = init_params(SMALL_MLP, stream(14, "global-init"))
        l1, g1 = loss_and_grad(SMALL_MLP, params, x, y)
        l2, g2 = loss_and_grad(SMALL_MLP, params, x[perm], y[perm])
        assert abs(l1 - l2) < 1e-12
        assert np.max(np.abs(g1 - g2)) < 1e-12

    def test_weight_decay_excludes_biases(self):
        base = ModelSpec("logistic", 4, 3)
        decayed = ModelSpec("logistic", 4, 3, weight_decay=0.5)
        flat = np.zeros(base.param_count)
        flat[: 4 * 3] = 2.0  # weights
        flat[4 * 3 :] = 5.0  # biases, must not contribute
        x, y = np.zeros((1, 4)), np.array([0])
        l0, _ = loss_and_grad(base, flat, x, y)
        l1, _ = loss_and_grad(decayed, flat, x, y)
        assert l1 - l0 == pytest.approx(0.5 / 2 * (4.0 * 12), rel=1e-12)

    @pytest.mark.parametrize("width", [1, 3, 7, 40, 10**6])
    @pytest.mark.parametrize("wd", [0.0, 1e-3])
    def test_tiles_cover_the_columns_without_straddling_biases(self, width, wd):
        spec = ModelSpec("mlp", 6, 4, hidden_dims=(7, 5), weight_decay=wd)
        tiles = _tiles(spec, width)
        assert [lo for lo, _, _ in tiles] == [0] + [hi for _, hi, _ in tiles[:-1]]
        assert tiles[-1][1] == spec.param_count
        assert all(0 < hi - lo <= width for lo, hi, _ in tiles)
        weights = np.zeros(spec.param_count, dtype=bool)
        for a, b, _fi, _fo in _layout(spec):
            weights[a:b] = True
        for lo, hi, decayed in tiles:
            if wd > 0.0:  # all weights, decayed, or all biases
                assert weights[lo:hi].tolist() == [decayed] * (hi - lo)
            else:
                assert not decayed
        if wd == 0.0:
            assert len(tiles) == -(-spec.param_count // width)

    def test_label_out_of_range(self):
        with pytest.raises(ParameterError):
            loss_and_grad(LOGISTIC, np.zeros(LOGISTIC.param_count), np.zeros((1, 30)), [5])


class TestAccuracy:
    def test_overfit_single_sample(self):
        x = np.array([[1.0, -1.0, 0.5]])
        y = np.array([1])
        spec = ModelSpec("logistic", 3, 2)
        theta = init_params(spec, stream(21, "global-init"))
        for _ in range(300):
            _, g = loss_and_grad(spec, theta, x, y)
            theta -= 0.5 * g
        assert accuracy(spec, theta, x, y) == 1.0

    def test_tie_breaks_to_lowest_class(self):
        spec = ModelSpec("logistic", 2, 2)
        zero = np.zeros(spec.param_count)
        x = np.zeros((10, 2))
        y = np.array([0] * 6 + [1] * 4)
        # All logits tie, so everything predicts class 0.
        assert accuracy(spec, zero, x, y) == 0.6

    def test_linearly_separable_toy(self):
        x = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        y = np.array([0, 0, 1, 1])
        spec = ModelSpec("logistic", 2, 2)
        theta = init_params(spec, stream(22, "global-init"))
        shuffle = stream(22, "batch-shuffle")
        for _ in range(500):
            order = shuffle.permutation(4)
            for i in order:
                _, g = loss_and_grad(spec, theta, x[i : i + 1], y[i : i + 1])
                theta -= 0.1 * g
        assert accuracy(spec, theta, x, y) == 1.0

    def test_empty_slice(self):
        with pytest.raises(EmptyEvaluationError):
            accuracy(
                LOGISTIC,
                np.zeros(LOGISTIC.param_count),
                np.zeros((0, 30)),
                np.zeros(0, dtype=np.int64),
            )


class TestCheckInputs:
    """The one input check that loss_and_grad, accuracy and mean_loss share."""

    def test_validation(self):
        spec = ModelSpec("logistic", 3, 2)
        zero = np.zeros(spec.param_count)
        for evaluate in (loss_and_grad, accuracy, mean_loss):
            with pytest.raises(DimensionError):
                evaluate(spec, zero, np.zeros(3), np.array([0]))
            with pytest.raises(DimensionError):
                evaluate(spec, zero, np.zeros((2, 3)), np.array([0]))
            with pytest.raises(EmptyEvaluationError):
                evaluate(spec, zero, np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
            with pytest.raises(ParameterError):
                evaluate(spec, zero, np.zeros((1, 3)), np.array([0.5]))
            with pytest.raises(ParameterError):
                evaluate(spec, zero, np.zeros((1, 3)), np.array([-1]))
