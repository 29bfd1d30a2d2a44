"""Differentiable classifiers over flat parameter vectors.

Two architectures cover the reproducible experiments: a multiclass
logistic model for the synthetic benchmark and a ReLU network for image
classification. Each piece is defined once: the forward pass
(`_forward`), the loss (`mean_loss`: mean cross-entropy plus optional L2
weight decay on weights, never biases), the training kernel
(`_grad_into`, which writes the exact analytic gradient of the
cross-entropy in place, in the same flat layout as the parameters, for a
stack of clients at once), the weight-decay gradient (`_decay_into`,
added over the weight ranges of `_tiles`), and the input check that
`loss_and_grad`, `accuracy` and `mean_loss` share.

Flat layout, per layer in order: the (fan_in x fan_out) weight matrix in
row-major order, then the fan_out bias entries. A (C, P) block holds C
clients' parameters, one row each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, EmptyEvaluationError, ParameterError

__all__ = [
    "ModelSpec",
    "init_params",
    "loss_and_grad",
    "accuracy",
    "mean_loss",
]

MODEL_KINDS = ("logistic", "mlp")
_CHUNK = 4096  # rows per forward pass when evaluating a slice


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    num_classes: int
    hidden_dims: tuple = ()
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ParameterError(f"unknown model kind {self.kind!r}")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1 or self.num_classes < 1:
            raise ParameterError("input_dim and num_classes must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise ParameterError(f"hidden dims must be positive, got {self.hidden_dims}")
        if self.kind == "logistic" and self.hidden_dims:
            raise ParameterError("a logistic model has no hidden layers")
        if self.kind == "mlp" and not self.hidden_dims:
            raise ParameterError("an mlp needs at least one hidden layer")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ParameterError(f"weight_decay must be >= 0, got {self.weight_decay!r}")

    @property
    def layer_dims(self):
        """[(fan_in, fan_out), ...] from input to output."""
        widths = (self.input_dim, *self.hidden_dims, self.num_classes)
        return tuple(zip(widths[:-1], widths[1:]))

    @property
    def param_count(self) -> int:
        return sum((fi + 1) * fo for fi, fo in self.layer_dims)


@lru_cache(maxsize=None)
def _layout(spec: ModelSpec):
    """(start, split, fan_in, fan_out) per layer, cached per spec."""
    out = []
    off = 0
    for fi, fo in spec.layer_dims:
        out.append((off, off + fi * fo, fi, fo))
        off += (fi + 1) * fo
    return tuple(out)


def _split(spec: ModelSpec, flat: np.ndarray):
    """Views (W, b) per layer into flat parameters; no copies.

    A (P,) vector gives (fan_in, fan_out) weights and (1, fan_out)
    biases; a (C, P) block of C clients' parameters gives
    (C, fan_in, fan_out) weights and (C, 1, fan_out) biases.
    """
    lead = flat.shape[:-1]
    return [
        (flat[..., a:b].reshape(*lead, fi, fo), flat[..., b : b + fo].reshape(*lead, 1, fo))
        for a, b, fi, fo in _layout(spec)
    ]


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """(P,) parameters: Gaussian weights scaled by 1/sqrt(fan_in); zero biases."""
    flat = np.zeros(spec.param_count)
    for (fi, fo), (w, _b) in zip(spec.layer_dims, _split(spec, flat)):
        w[...] = rng.standard_normal((fi, fo)) / np.sqrt(fi)
    return flat


def _forward(layers, x: np.ndarray):
    """(activations, logits) of the network whose (W, b) views are `layers`.

    activations[l] is the input of layer l; every hidden layer is a ReLU.
    """
    acts = [x]
    for w, b in layers[:-1]:
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    w, b = layers[-1]
    return acts, acts[-1] @ w + b


@lru_cache(maxsize=64)
def _rows(n: int) -> np.ndarray:
    out = np.arange(n)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _tiles(spec: ModelSpec, width: int):
    """Column ranges (lo, hi, decayed) covering the P columns, each at most `width` wide.

    With weight decay on, no range straddles a weight/bias boundary and
    `decayed` marks the ranges of weights; without it, it is False.
    """
    if spec.weight_decay > 0.0:
        spans = [s for a, b, _fi, fo in _layout(spec) for s in ((a, b, True), (b, b + fo, False))]
    else:
        spans = [(0, spec.param_count, False)]
    return tuple(
        (lo, min(lo + width, hi), decayed)
        for a, hi, decayed in spans
        for lo in range(a, hi, width)
    )


def _decay_into(wd: float, grad, theta, scratch) -> None:
    """grad += wd * theta in place, through `scratch` of their shape.

    The weight-decay gradient of :func:`mean_loss`, for the decayed
    ranges of :func:`_tiles` only.
    """
    np.multiply(theta, wd, out=scratch)
    grad += scratch


def _grad_into(layers, glayers, x, y) -> None:
    """Cross-entropy gradient on one batch per client, written into `glayers`.

    The kernel every training step runs, on the (C, ...) views (see
    :func:`_split`) of a (C, P) parameter block and its gradient block;
    `x` is (C, b, input_dim) and `y` is (C, b). Client c's gradient is the
    one its own batch gives, bit for bit whatever C is. Weight decay is
    left to :func:`_decay_into`. It computes no loss value and trusts its
    inputs: the public functions check them.
    """
    c, n = y.shape
    acts, z = _forward(layers, x)
    z -= z.max(axis=-1, keepdims=True)
    dz = np.exp(z)
    dz /= dz.sum(axis=-1, keepdims=True) * n
    dz[_rows(c)[:, None], _rows(n), y] -= 1.0 / n
    for li in range(len(layers) - 1, -1, -1):
        w, _b = layers[li]
        gw, gb = glayers[li]
        np.matmul(acts[li].swapaxes(-1, -2), dz, out=gw)
        dz.sum(axis=-2, keepdims=True, out=gb)
        if li > 0:
            dz = dz @ w.swapaxes(-1, -2)
            dz *= acts[li] > 0.0


def _check_inputs(spec: ModelSpec, params, inputs, labels):
    """(flat parameters, inputs, labels) as arrays, once they fit the model."""
    flat = np.asarray(params, dtype=np.float64)
    if flat.shape != (spec.param_count,):
        raise DimensionError(f"model expects {spec.param_count} parameters, got {flat.shape}")
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise DimensionError(f"inputs must have shape (n, {spec.input_dim}), got {x.shape}")
    if y.shape != (x.shape[0],):
        raise DimensionError(f"expected one label per input row, got shape {y.shape}")
    if x.shape[0] == 0:
        raise EmptyEvaluationError("evaluation over an empty slice")
    if not np.issubdtype(y.dtype, np.integer):
        raise ParameterError(f"labels must be integer class indices, got {y.dtype}")
    lo, hi = int(y.min()), int(y.max())
    if lo < 0 or hi >= spec.num_classes:
        raise ParameterError(f"labels {lo}..{hi} out of range for {spec.num_classes} classes")
    return flat, x, y


def loss_and_grad(spec: ModelSpec, params, inputs, labels):
    """(mean_loss, gradient) on one batch; the gradient is a (P,) array."""
    flat, x, y = _check_inputs(spec, params, inputs, labels)
    grad = np.empty((1, spec.param_count))
    _grad_into(_split(spec, flat[None]), _split(spec, grad), x[None], y[None])
    for lo, hi, decayed in _tiles(spec, spec.param_count):
        if decayed:
            _decay_into(spec.weight_decay, grad[0, lo:hi], flat[lo:hi], np.empty(hi - lo))
    return mean_loss(spec, flat, x, y), grad[0]


def accuracy(spec: ModelSpec, params, inputs, labels) -> float:
    """Top-1 accuracy; argmax ties resolve to the lowest class index."""
    flat, x, y = _check_inputs(spec, params, inputs, labels)
    layers = _split(spec, flat)
    hits = 0
    for lo in range(0, x.shape[0], _CHUNK):
        _, logits = _forward(layers, x[lo : lo + _CHUNK])
        hits += int((np.argmax(logits, axis=1) == y[lo : lo + _CHUNK]).sum())
    return hits / x.shape[0]


def mean_loss(spec: ModelSpec, params, inputs, labels) -> float:
    """Mean cross-entropy plus 0.5 * weight_decay * |weights|^2 over a slice."""
    flat, x, y = _check_inputs(spec, params, inputs, labels)
    layers = _split(spec, flat)
    total = 0.0
    for lo in range(0, x.shape[0], _CHUNK):
        _, z = _forward(layers, x[lo : lo + _CHUNK])
        z = z - z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        yc = y[lo : lo + _CHUNK]
        total += -float(logp[np.arange(yc.shape[0]), yc].sum())
    loss = total / x.shape[0]
    if spec.weight_decay > 0.0:
        loss += 0.5 * spec.weight_decay * sum(float((w * w).sum()) for w, _ in layers)
    return loss
