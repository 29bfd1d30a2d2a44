"""Differentiable classifiers over flat parameter vectors.

Two architectures cover the reproducible experiments: a multiclass
logistic model for the synthetic benchmark and a ReLU network for image
classification. Each piece is defined once: the forward pass
(`_forward`), the loss (`mean_loss`: mean cross-entropy plus optional L2
weight decay on weights, never biases), the training kernel
(`_grad_into`, which writes the exact analytic gradient of the
cross-entropy in place, in the same flat layout as the parameters, for a
stack of clients at once), the weight-decay gradient (`_decay_into`,
added over the weight ranges of `_tiles`), the input scaling (`_as_float`:
`uint8` pixels divided by 255 where a model reads them) and the input
check that `loss_and_grad`, `accuracy` and `mean_loss` share. It also holds
the thread pool runner (`_concurrently`) that evaluation and a round's
one-client chunks share.

Flat layout, per layer in order: the (fan_in x fan_out) weight matrix in
row-major order, then the fan_out bias entries. A (C, P) block holds C
clients' parameters, one row each.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ParameterError

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
            raise ParameterError(f"expected kind in {MODEL_KINDS}, got {self.kind!r}", "kind")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        for name in ("input_dim", "num_classes"):
            if getattr(self, name) < 1:
                raise ParameterError(f"expected {name} >= 1, got {getattr(self, name)}", name)
        if any(h < 1 for h in self.hidden_dims):
            raise ParameterError(f"expected hidden_dims > 0, got {self.hidden_dims}", "hidden_dims")
        if self.kind == "logistic" and self.hidden_dims:
            raise ParameterError("a logistic model has no hidden layers", "hidden_dims")
        if self.kind == "mlp" and not self.hidden_dims:
            raise ParameterError("an mlp needs at least one hidden layer", "hidden_dims")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ParameterError(f"expected weight_decay >= 0, got {self.weight_decay!r}",
                                 "weight_decay")

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
        h = acts[-1] @ w
        h += b  # in place on the fresh product: the same sums, no second block
        acts.append(np.maximum(h, 0.0, out=h))
    w, b = layers[-1]
    z = acts[-1] @ w
    z += b
    return acts, z


@lru_cache(maxsize=64)
def _label_base(c: int, n: int, k: int) -> np.ndarray:
    """(c, n) flat offsets row * n * k + col * k of a contiguous (c, n, k) block."""
    out = np.arange(c)[:, None] * (n * k) + np.arange(n) * k
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
    n = y.shape[1]
    acts, z = _forward(layers, x)
    m = z[..., :1].copy()  # the row max, column by column: cheaper than max(axis=-1)
    for j in range(1, z.shape[-1]):
        np.maximum(m, z[..., j : j + 1], out=m)
    z -= m
    dz = np.exp(z)
    dz /= dz.sum(axis=-1, keepdims=True) * n
    # dz is fresh and contiguous, so its flat reshape is a view.
    dz.reshape(-1)[_label_base(*dz.shape) + y] -= 1.0 / n
    for li in range(len(layers) - 1, -1, -1):
        w, _b = layers[li]
        gw, gb = glayers[li]
        np.matmul(acts[li].swapaxes(-1, -2), dz, out=gw)
        dz.sum(axis=-2, keepdims=True, out=gb)
        if li > 0:
            dz = dz @ w.swapaxes(-1, -2)
            dz *= acts[li] > 0.0


def _as_float(x: np.ndarray, out=None) -> np.ndarray:
    """The float64 values a model reads for inputs `x`.

    A uint8 array holds pixels: it is divided by 255 into `out` (a new
    array if None), bitwise its astype(np.float64) / 255.0. Any other
    array is returned as it is.
    """
    if x.dtype != np.uint8:
        return x
    return np.divide(x, 255.0, out=np.empty(x.shape) if out is None else out)


def _check_inputs(spec: ModelSpec, params, inputs, labels):
    """(flat parameters, inputs, labels) as arrays, once they fit the model.

    uint8 inputs stay pixels (see :func:`_as_float`); others become float64.
    """
    flat = np.asarray(params, dtype=np.float64)
    if flat.shape != (spec.param_count,):
        raise DimensionError(f"model expects {spec.param_count} parameters, got {flat.shape}")
    x = np.asarray(inputs)
    if x.dtype != np.uint8:
        x = x.astype(np.float64, copy=False)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise DimensionError(f"inputs must have shape (n, {spec.input_dim}), got {x.shape}")
    if y.shape != (x.shape[0],):
        raise DimensionError(f"expected one label per input row, got shape {y.shape}")
    if x.shape[0] == 0:
        raise DimensionError("evaluation over an empty slice")
    if not np.issubdtype(y.dtype, np.integer):
        raise ParameterError(f"labels must be integer class indices, got {y.dtype}")
    lo, hi = int(y.min()), int(y.max())
    if lo < 0 or hi >= spec.num_classes:
        raise ParameterError(f"labels {lo}..{hi} out of range for {spec.num_classes} classes")
    return flat, x, y


def _concurrently(setup, items, workers: int) -> list:
    """[setup(item)() for item in items], the calls run on up to `workers` threads.

    With `workers` 0, or fewer than two items, every call runs here, in
    order. Else setup(item) runs on this thread, in item order, and only
    while fewer than min(workers, len(items)) calls are in flight, so no
    more items are held than the threads work on. Each call runs in a
    copy of this thread's context, so the caller's np.errstate holds in
    it. Once a call has failed no further item starts, and the error
    raised is the first in item order, after every started call has
    finished.
    """
    if not workers or len(items) < 2:
        return [setup(item)() for item in items]
    workers = min(workers, len(items))
    futures = []
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        try:
            for item in items:
                live = [f for f in futures if not f.done()]
                if len(live) == workers:
                    concurrent.futures.wait(live, return_when=concurrent.futures.FIRST_COMPLETED)
                if any(f.done() and f.exception() for f in futures):
                    break
                futures.append(pool.submit(contextvars.copy_context().run, setup(item)))
        finally:
            # An earlier call's error replaces a later item's set-up error.
            results = [f.result() for f in futures]
    return results


def _slice_parts(part, layers, x: np.ndarray, y: np.ndarray, workers: int) -> list:
    """part(layers, xs, ys) for each evaluation slice of _CHUNK rows, in slice order.

    xs holds the slice's rows as float64: uint8 pixels are scaled into
    one buffer per thread, which every slice that thread evaluates
    reuses. The slices run on `workers` threads (see :func:`_concurrently`);
    with BLAS on one thread per call, each part has the serial bits.
    """
    held = threading.local()

    def evaluate(lo):
        xs = x[lo : lo + _CHUNK]
        if xs.dtype == np.uint8:
            if not hasattr(held, "buf"):
                held.buf = np.empty((min(_CHUNK, x.shape[0]), x.shape[1]))
            xs = _as_float(xs, held.buf[: xs.shape[0]])
        return part(layers, xs, y[lo : lo + _CHUNK])

    return _concurrently(lambda lo: functools.partial(evaluate, lo),
                         range(0, x.shape[0], _CHUNK), workers)


def _hits(layers, xs, ys) -> int:
    """Correct top-1 predictions on one slice."""
    _, logits = _forward(layers, xs)
    return int((np.argmax(logits, axis=1) == ys).sum())


def _cross_entropy(layers, xs, ys) -> float:
    """Summed cross-entropy on one slice."""
    _, z = _forward(layers, xs)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -float(logp[np.arange(ys.shape[0]), ys].sum())


def loss_and_grad(spec: ModelSpec, params, inputs, labels):
    """(mean_loss, gradient) on one batch; the gradient is a (P,) array."""
    flat, x, y = _check_inputs(spec, params, inputs, labels)
    x = _as_float(x)
    grad = np.empty((1, spec.param_count))
    _grad_into(_split(spec, flat[None]), _split(spec, grad), x[None], y[None])
    for lo, hi, decayed in _tiles(spec, spec.param_count):
        if decayed:
            _decay_into(spec.weight_decay, grad[0, lo:hi], flat[lo:hi], np.empty(hi - lo))
    return mean_loss(spec, flat, x, y), grad[0]


def accuracy(spec: ModelSpec, params, inputs, labels, workers: int = 0) -> float:
    """Top-1 accuracy; argmax ties resolve to the lowest class index.

    `workers` threads evaluate the slices (see :func:`_slice_parts`); the
    value does not depend on it.
    """
    flat, x, y = _check_inputs(spec, params, inputs, labels)
    return sum(_slice_parts(_hits, _split(spec, flat), x, y, workers)) / x.shape[0]


def mean_loss(spec: ModelSpec, params, inputs, labels, workers: int = 0) -> float:
    """Mean cross-entropy plus 0.5 * weight_decay * |weights|^2 over a slice.

    The slices' sums are folded in slice order, whichever of the
    `workers` threads evaluated them (see :func:`_slice_parts`).
    """
    flat, x, y = _check_inputs(spec, params, inputs, labels)
    layers = _split(spec, flat)
    total = 0.0
    for part in _slice_parts(_cross_entropy, layers, x, y, workers):
        total += part
    loss = total / x.shape[0]
    if spec.weight_decay > 0.0:
        loss += 0.5 * spec.weight_decay * sum(float((w * w).sum()) for w, _ in layers)
    return loss
