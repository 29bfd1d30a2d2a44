"""Differentiable classifiers over flat parameter vectors.

Two architectures cover the reproducible experiments: a multiclass
logistic model for the synthetic benchmark and a ReLU network with two
hidden layers for image classification. Both expose forward
probabilities, mean cross-entropy loss with optional L2 weight decay
(weights only, never biases), and the exact analytic gradient of that
loss packed into the same flat layout as the parameters.

Flat layout, per layer in order: the (fan_in x fan_out) weight matrix in
row-major order, then the fan_out bias entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, EmptyEvaluationError, ParameterError
from .rng import RngStream
from .vectors import ParamVector, _require_finite

__all__ = [
    "ModelSpec",
    "Batch",
    "init_params",
    "loss_and_grad",
    "accuracy",
    "mean_loss",
]

MODEL_KINDS = ("logistic", "mlp")


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


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        y = np.asarray(self.labels)
        if x.ndim != 2:
            raise DimensionError(f"batch inputs must be 2-D, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise DimensionError(
                f"batch labels must be 1-D with one entry per row, got {y.shape}"
            )
        if x.shape[0] < 1:
            raise DimensionError("a batch holds at least one sample")
        if not np.issubdtype(y.dtype, np.integer):
            raise ParameterError("labels must be integer class indices")
        if (y < 0).any():
            raise ParameterError("labels must be nonnegative class indices")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y.astype(np.int64))

    def __len__(self):
        return self.inputs.shape[0]


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
    """Views (W, b) per layer into a flat array; no copies."""
    return [
        (flat[a:b].reshape(fi, fo), flat[b : b + fo])
        for a, b, fi, fo in _layout(spec)
    ]


def _check_params(spec: ModelSpec, params: ParamVector) -> np.ndarray:
    if len(params) != spec.param_count:
        raise DimensionError(
            f"model expects {spec.param_count} parameters, got {len(params)}"
        )
    return params.values


def init_params(spec: ModelSpec, rng: RngStream) -> ParamVector:
    """Gaussian weights scaled by 1/sqrt(fan_in); zero biases."""
    flat = np.zeros(spec.param_count)
    for (fi, fo), (w, _b) in zip(spec.layer_dims, _split(spec, flat)):
        w[...] = rng.gaussian((fi, fo)) / np.sqrt(fi)
    return ParamVector._wrap(flat)


def _forward_arrays(spec: ModelSpec, flat: np.ndarray, x: np.ndarray):
    """Returns (activations, logits): activations[l] feeds layer l."""
    acts = [x]
    z = None
    layers = _split(spec, flat)
    for li, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        if li < len(layers) - 1:
            acts.append(np.maximum(z, 0.0))
    return acts, z


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@lru_cache(maxsize=64)
def _rows(n: int) -> np.ndarray:
    out = np.arange(n)
    out.flags.writeable = False
    return out


def _loss_grad_views(wd: float, layers, glayers, x, y) -> float:
    """Mean cross-entropy (+ decay on weights) and its gradient.

    The fused kernel every training path shares: `layers` and `glayers`
    are the (W, b) views of the parameter and gradient buffers (see
    :func:`_split`); the gradient lands in-place in `glayers`.
    """
    n = x.shape[0]
    depth = len(layers)
    acts = [x]
    a = x
    for li in range(depth - 1):
        w, b = layers[li]
        a = np.maximum(a @ w + b, 0.0)
        acts.append(a)
    w_out, b_out = layers[-1]
    z = a @ w_out + b_out
    z -= z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sums = ez.sum(axis=1, keepdims=True)
    rows = _rows(n)
    loss = float((np.log(sums[:, 0]) - z[rows, y]).mean())
    if wd > 0.0:
        loss += 0.5 * wd * sum(float((w * w).sum()) for w, _ in layers)

    dz = ez
    dz /= sums * n
    dz[rows, y] -= 1.0 / n
    for li in range(depth - 1, -1, -1):
        w, _b = layers[li]
        gw, gb = glayers[li]
        np.matmul(acts[li].T, dz, out=gw)
        if wd > 0.0:
            gw += wd * w
        dz.sum(axis=0, out=gb)
        if li > 0:
            dz = dz @ w.T
            dz *= acts[li] > 0.0
    return loss


def _loss_grad_arrays(spec: ModelSpec, flat, x, y, grad_out=None):
    """Array-level wrapper of the fused kernel over flat buffers."""
    if grad_out is None:
        grad_out = np.empty(spec.param_count)
    loss = _loss_grad_views(
        spec.weight_decay, _split(spec, flat), _split(spec, grad_out), x, y
    )
    return loss, grad_out


def loss_and_grad(spec: ModelSpec, params: ParamVector, batch: Batch):
    """(loss, gradient) of mean cross-entropy plus weight decay."""
    flat = _check_params(spec, params)
    if batch.inputs.shape[1] != spec.input_dim:
        raise DimensionError(
            f"batch has {batch.inputs.shape[1]} features, model expects {spec.input_dim}"
        )
    if int(batch.labels.max()) >= spec.num_classes:
        raise ParameterError(
            f"label {int(batch.labels.max())} out of range for {spec.num_classes} classes"
        )
    loss, grad = _loss_grad_arrays(spec, flat, batch.inputs, batch.labels)
    _require_finite(grad, "loss_and_grad")
    return loss, ParamVector._wrap(grad)


def accuracy(spec: ModelSpec, params: ParamVector, inputs, labels, chunk: int = 4096) -> float:
    """Top-1 accuracy; argmax ties resolve to the lowest class index."""
    flat = _check_params(spec, params)
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DimensionError("inputs and labels must align one row per sample")
    if x.shape[0] == 0:
        raise EmptyEvaluationError("accuracy over an empty slice")
    hits = 0
    for lo in range(0, x.shape[0], chunk):
        _, logits = _forward_arrays(spec, flat, x[lo : lo + chunk])
        hits += int((np.argmax(logits, axis=1) == y[lo : lo + chunk]).sum())
    return hits / x.shape[0]


def mean_loss(spec: ModelSpec, params: ParamVector, inputs, labels, chunk: int = 4096) -> float:
    """Mean cross-entropy plus weight decay over an arbitrary slice."""
    flat = _check_params(spec, params)
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels)
    if x.shape[0] == 0:
        raise EmptyEvaluationError("loss over an empty slice")
    total = 0.0
    for lo in range(0, x.shape[0], chunk):
        _, logits = _forward_arrays(spec, flat, x[lo : lo + chunk])
        logp = _log_softmax(logits)
        yc = y[lo : lo + chunk]
        total += -float(logp[np.arange(yc.shape[0]), yc].sum())
    loss = total / x.shape[0]
    if spec.weight_decay > 0.0:
        loss += 0.5 * spec.weight_decay * sum(
            float((w * w).sum()) for w, _ in _split(spec, flat)
        )
    return loss
