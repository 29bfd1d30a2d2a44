from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feddrift import models
from feddrift.errors import (
    DimensionError,
    EmptyEvaluationError,
    ParameterError,
)
from feddrift.models import (
    ModelSpec,
    _forward,
    _grad_into,
    _layout,
    _split,
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


def _reduced_grad_into(layers, glayers, x, y):
    """`models._grad_into` with a max reduction over each row and a broadcast
    fancy index for the label term: the oracle."""
    c, n = y.shape
    acts, z = _forward(layers, x)
    z -= z.max(axis=-1, keepdims=True)
    dz = np.exp(z)
    dz /= dz.sum(axis=-1, keepdims=True) * n
    dz[np.arange(c)[:, None], np.arange(n), y] -= 1.0 / n
    for li in range(len(layers) - 1, -1, -1):
        w, _b = layers[li]
        gw, gb = glayers[li]
        np.matmul(acts[li].swapaxes(-1, -2), dz, out=gw)
        dz.sum(axis=-2, keepdims=True, out=gb)
        if li > 0:
            dz = dz @ w.swapaxes(-1, -2)
            dz *= acts[li] > 0.0


def _kernel_scenario(kind, k, clients, n, ties, scale, seed):
    """(spec, (C, P) parameters, (C, n, d) inputs, (C, n) labels) with -0.0 biases.

    `ties` copies the first output column's weights to every other
    column ("columns") or zeroes the output weights ("all"), so logits
    tie, at ±0 for "all";
    `scale` multiplies the output weights, and 1e3 makes exp underflow.
    """
    spec = ModelSpec(kind, 6, k, hidden_dims=(7,) if kind == "mlp" else (),
                     weight_decay=1e-3 if kind == "mlp" else 0.0)
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((clients, spec.param_count))
    layers = _split(spec, theta)
    for _w, b in layers:
        b[...] = -0.0
    w = layers[-1][0]
    w *= scale
    if ties == "columns":
        w[..., 1::2] = w[..., :1]
    elif ties == "all":
        w[...] = 0.0
    x = rng.standard_normal((clients, n, spec.input_dim))
    return spec, theta, x, rng.integers(0, k, (clients, n))


class TestGradKernel:
    """The training kernel equals `_reduced_grad_into` bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["logistic", "mlp"]),
        k=st.integers(2, 12),
        clients=st.sampled_from([1, 3, 20]),
        n=st.integers(1, 13),
        batch_size=st.sampled_from([1, 4, 5, 10]),
        ties=st.sampled_from(["none", "columns", "all"]),
        scale=st.sampled_from([1.0, 1e3]),
        seed=st.integers(0, 2**16),
    )
    def test_kernel_equals_the_reduced_kernel(self, kind, k, clients, n, batch_size, ties,
                                              scale, seed):
        spec, theta, x, y = _kernel_scenario(kind, k, clients, n, ties, scale, seed)
        layers = _split(spec, theta)
        # Batches are column slices of the shuffled block, the last one partial.
        for lo in range(0, n, batch_size):
            xb, yb = x[:, lo : lo + batch_size], y[:, lo : lo + batch_size]
            got, want = np.full_like(theta, np.nan), np.full_like(theta, np.nan)
            _grad_into(layers, _split(spec, got), xb, yb)
            _reduced_grad_into(layers, _split(spec, want), xb, yb)
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["logistic", "mlp"]),
        k=st.integers(2, 12),
        n=st.integers(1, 13),
        ties=st.sampled_from(["none", "columns", "all"]),
        scale=st.sampled_from([1.0, 1e3]),
        seed=st.integers(0, 2**16),
    )
    def test_loss_and_grad_equals_the_reduced_kernel(self, kind, k, n, ties, scale, seed):
        spec, theta, x, y = _kernel_scenario(kind, k, 1, n, ties, scale, seed)
        loss, grad = loss_and_grad(spec, theta[0], x[0], y[0])
        with mock.patch.object(models, "_grad_into", _reduced_grad_into):
            want_loss, want = loss_and_grad(spec, theta[0], x[0], y[0])
        assert (loss, grad.tobytes()) == (want_loss, want.tobytes())

    def test_label_term_writes_through_the_flat_view(self):
        # Moving one label from class a to class b moves the bias gradient
        # by exactly +1/n at a and -1/n at b.
        x, y = random_batch(LOGISTIC, 4, seed=5)
        params = init_params(LOGISTIC, stream(5, "global-init"))
        moved = y.copy()
        moved[2] = (y[2] + 1) % LOGISTIC.num_classes
        _, g = loss_and_grad(LOGISTIC, params, x, y)
        _, g_moved = loss_and_grad(LOGISTIC, params, x, moved)
        bias = slice(LOGISTIC.input_dim * LOGISTIC.num_classes, None)
        want = np.zeros(LOGISTIC.num_classes)
        want[y[2]], want[moved[2]] = 0.25, -0.25
        assert np.allclose(g_moved[bias] - g[bias], want, rtol=0, atol=1e-15)


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
