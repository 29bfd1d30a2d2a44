"""Client update rules and server aggregation for five algorithms.

The round contract is snapshot-in / gather-out: every client trains from
an immutable copy of the round-start server state, and the server folds
the gathered updates in ascending client-id order, so results do not
depend on scheduling. Each algorithm is one row of RULES, which says
what it keeps, moves, adds to its gradient and lets the server average.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import mmap
import os
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import models
from .errors import DimensionError, FormatError, ParameterError
from .models import ModelSpec
from .vectors import _require_finite

__all__ = [
    "RULES",
    "ALGORITHMS",
    "ABLATION_TERMS",
    "FULL_ABLATION",
    "NEXT_ROWS",
    "AlgoConfig",
    "ClientStore",
    "slots_in_use",
    "ServerState",
    "RoundUpdate",
    "lockstep_groups",
    "weighted_mean",
    "ablation_from_code",
    "steps_per_round",
    "round_lr",
    "local_objective",
    "local_objective_grad",
    "run_local_rounds",
    "run_local_round",
    "server_aggregate",
    "apply_update",
    "sample_active_set",
    "gradient_variance_diagnostic",
    "one_blas_thread",
]


def _from_stored(clients, name: str, ids, op) -> np.ndarray:
    """The (len(ids), P) block whose row r is op(stored, out=row), with `stored` client
    ids[r]'s row of field `name` read in place (:meth:`ClientStore.stored`)."""
    block = np.empty((len(ids), clients.param_count))
    for row, stored in zip(block, clients.stored(name, ids)):
        op(stored, out=row)
    return block


def _control_gap(clients, ids, server, k_steps, lr_t):
    gap = functools.partial(np.subtract, server.scaffold_c)
    return _from_stored(clients, "scaffold_c", ids, gap)


def _grad_correction(clients, ids, server, k_steps, lr_t):
    extra = _from_stored(clients, "last_delta", ids,
                         lambda last, out: np.subtract(last, server.global_delta, out=out))
    extra /= k_steps * lr_t
    return extra


def _scaffold_controls(server, update, cfg, mean_up, global_delta):
    # c_i+ - c_i reconstructs from the upload: -c + the implied gradient
    neg_c = -server.scaffold_c
    c_deltas = (np.add(neg_c, row, out=row) for *_, delta, k_lr in _chunks(update, server)
                for row in _implied_grad(delta, k_lr, out=delta))
    mean_cd = weighted_mean(c_deltas, np.ones(len(update.ids)))
    return {"scaffold_c": server.scaffold_c + len(update.ids) / server.n_clients * mean_cd}


def _feddyn_corrector(server, update, cfg, mean_up, global_delta):
    scale = cfg.alpha * len(update.ids) / server.n_clients
    dyn_corrector = server.dyn_corrector - scale * global_delta
    return {"dyn_corrector": dyn_corrector, "global_params": mean_up - dyn_corrector / cfg.alpha}


# Each algorithm is one row. A local SGD step follows the gradient
# g + pull * (theta - anchor) + extra of local_objective, with g the
# minibatch gradient and G the round-start global parameters. `fields` are
# the per-client vectors kept across rounds (feddc's drift h_i and previous
# update, feddyn's summed updates as `drift`, scaffold's control c_i); `up`
# and `down` the P-vectors a client sends and receives per round. `pull`
# names the AlgoConfig coefficient, which 0.0 turns off; the anchor is
# G - drift_i for a row that keeps `drift`, else G. `extra(clients, ids,
# server, K, lr_t)` builds the rows of the extra term. The server averages
# the `upload`: theta, theta + h_i (feddc: the global model decoupled from
# the local drift) or delta (G + mean delta). `server(server, update, cfg,
# mean upload, mean delta)` returns the server vectors it changes further.
# feddc's ablation masks two columns: "param_correction" keeps its pull,
# "grad_correction" its extra.
Rule = namedtuple("Rule", "fields up down pull extra upload server",
                  defaults=(None, None, "theta", None))
RULES = {
    "fedavg": Rule((), up=1, down=1),
    "fedprox": Rule((), up=1, down=1, pull="mu"),
    "scaffold": Rule(("scaffold_c",), up=2, down=2, extra=_control_gap, upload="delta",
                     server=_scaffold_controls),
    "feddyn": Rule(("drift",), up=1, down=1, pull="alpha", server=_feddyn_corrector),
    "feddc": Rule(("drift", "last_delta"), up=1, down=2, pull="alpha",
                  extra=_grad_correction, upload="theta+drift"),
}
ALGORITHMS = tuple(RULES)
ABLATION_TERMS = ("empirical", "grad_correction", "param_correction")
FULL_ABLATION = frozenset(ABLATION_TERMS)

# Short codes for the feddc ablation variants: empirical loss only,
# +gradient correction, +parameter correction, both.
_ABLATION_CODES = {
    "le": frozenset({"empirical"}),
    "lelg": frozenset({"empirical", "grad_correction"}),
    "lelp": frozenset({"empirical", "param_correction"}),
    "lelglp": FULL_ABLATION,
}

BYTES_PER_PARAM = 8  # float64 on the wire

# Floats per stacked (clients x parameters) block: a round's plan cuts its
# clients into chunks of at most max(1, BUDGET // P) (RoundUpdate.slices),
# so small models train whole groups at once and large ones one by one. A
# chunk of C clients applies each step's update in column tiles of at
# most max(1, BUDGET // C) columns, which stay in cache.
BUDGET = 1 << 16


def ablation_from_code(code: str) -> frozenset:
    if code not in _ABLATION_CODES:
        raise ParameterError(
            f"unknown ablation code {code!r}; expected one of {sorted(_ABLATION_CODES)}"
        )
    return _ABLATION_CODES[code]


@dataclass(frozen=True)
class AlgoConfig:
    algorithm: str
    lr: float = 0.1
    lr_decay: float = 0.998
    local_epochs: int = 5
    batch_size: int = 50
    participation: float = 1.0
    aggregation_weighting: str = "uniform"  # or "by_samples"
    mu: float = 1e-4
    alpha: float | None = None
    ablation: frozenset = FULL_ABLATION

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ParameterError(f"unknown algorithm {self.algorithm!r}", "algorithm")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ParameterError(f"expected lr > 0, got {self.lr!r}", "lr")
        if not (0 < self.lr_decay <= 1):
            raise ParameterError(f"expected lr_decay in (0, 1], got {self.lr_decay!r}", "lr_decay")
        for name in ("local_epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ParameterError(f"expected {name} >= 1, got {getattr(self, name)}", name)
        if not (0 < self.participation <= 1):
            raise ParameterError(
                f"expected participation in (0, 1], got {self.participation!r}", "participation"
            )
        if self.aggregation_weighting not in ("uniform", "by_samples"):
            raise ParameterError(
                f"expected aggregation_weighting 'uniform' or 'by_samples', "
                f"got {self.aggregation_weighting!r}", "aggregation_weighting",
            )
        if self.mu < 0 or not np.isfinite(self.mu):
            raise ParameterError(f"expected mu >= 0, got {self.mu!r}", "mu")
        abl = frozenset(self.ablation)
        if not abl <= set(ABLATION_TERMS):
            raise ParameterError(f"unknown ablation terms {abl - set(ABLATION_TERMS)}", "ablation")
        if "empirical" not in abl:
            raise ParameterError("the empirical loss term cannot be ablated away", "ablation")
        if abl != FULL_ABLATION and self.algorithm != "feddc":
            raise ParameterError(
                f"expected the full ablation for {self.algorithm}, got {sorted(abl)}: "
                "only feddc's correction terms can be ablated", "ablation"
            )
        object.__setattr__(self, "ablation", abl)
        if self.algorithm == "feddyn":
            if self.alpha is None or not (np.isfinite(self.alpha) and self.alpha > 0):
                raise ParameterError(f"expected alpha > 0 for feddyn, got {self.alpha}", "alpha")
        if self.algorithm == "feddc":
            if self.alpha is None or not (np.isfinite(self.alpha) and self.alpha >= 0):
                raise ParameterError(f"expected alpha >= 0 for feddc, got {self.alpha}", "alpha")


# Client field -> the call that turns `old`, the clients' stored rows, into
# their next rows in place, from their delta = theta - G, K * lr_t and the
# round-start server: drift h + delta, last_delta delta, scaffold_c
# (c_i - c) + implied gradient. apply_update passes each client's row of the
# store itself, which reads +0.0 for a client written for the first time. Its
# keys are every field a ClientStore or a checkpoint may hold.
NEXT_ROWS = {
    "drift": lambda old, delta, k_lr, server: np.add(old, delta, out=old),
    "last_delta": lambda old, delta, k_lr, server: np.copyto(old, delta),
    "scaffold_c": lambda old, delta, k_lr, server: np.add(
        np.subtract(old, server.scaffold_c, out=old), _implied_grad(delta, k_lr), out=old),
}


def slots_in_use(slot, where: str) -> int:
    """The rows a (n_clients,) slot map uses; FormatError unless it is a store's.

    Each value is n_clients (a client never written) or below the count
    `used` of other values, and each of those slots is taken once.
    """
    n = slot.size
    taken = slot[slot != n]
    if not np.array_equal(np.sort(taken), np.arange(taken.size)):
        raise FormatError(f"{where}: slot map is not a permutation of "
                          f"[0, {taken.size}) plus unwritten clients at {n}")
    return taken.size


class ClientStore:
    """Persistent state of every client, packed in first-write order.

    Holds `n_samples`, a (n_clients,) `slot` map, the count `used` of
    written clients and one (used, P) float64 array per field the
    algorithm reads (its RULES fields); row slot[i] is client i's. A
    client never written has slot n_clients and reads as +0.0. Each
    field is a view of the front of its own (n_clients, P) private
    anonymous mapping, advised for huge pages, whose pages cost memory
    only once written. Admitting new clients views more of it, so rows
    never move and each array holds exactly the admitted rows; a new
    client's rows are still the mapping's zeros, +0.0, until written in
    place. Inactive clients keep their rows stale. A store built with
    `slot` adopts that saved map, with zeroed rows.
    """

    def __init__(self, n_samples, param_count: int, fields=(), slot=None):
        unknown = set(fields) - set(NEXT_ROWS)
        if unknown:
            raise ParameterError(f"unknown client fields {sorted(unknown)}")
        self.fields = tuple(fields)
        self.n_samples = np.array(n_samples, dtype=np.int64)
        self.param_count = param_count
        n = self.n_samples.size
        self.slot = np.full(n, n, dtype=np.int64) if slot is None else np.array(slot, dtype=np.int64)
        self._maps = {}
        for name in self.fields:
            buf = mmap.mmap(-1, n * param_count * 8, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
            if hasattr(mmap, "MADV_HUGEPAGE"):  # a Linux-only constant
                buf.madvise(mmap.MADV_HUGEPAGE)
            self._maps[name] = buf
        self._view(slots_in_use(self.slot, "ClientStore"))

    def _view(self, used: int) -> None:
        self.used = used
        for name, buf in self._maps.items():
            rows = np.frombuffer(buf, count=used * self.param_count)
            setattr(self, name, rows.reshape(used, self.param_count))

    def stored(self, name: str, ids) -> list:
        """Field `name`'s row of each client in `ids`, in order: a view of the
        store, or 0.0 for a client never written, whose row reads +0.0."""
        arr = getattr(self, name)
        return [arr[s] if s < self.used else 0.0 for s in self.slot[ids].tolist()]

    def admit(self, ids) -> np.ndarray:
        """The slots of clients `ids`, giving each client never written the next
        slot, in ascending id order, so its rows read +0.0 in place."""
        # A mask rather than np.unique, whose first call in a process adds
        # about 1.7 MB of resident memory.
        n = self.slot.size
        fresh = np.zeros(n, dtype=bool)
        fresh[ids] = True
        fresh &= self.slot == n
        new = np.flatnonzero(fresh)
        if new.size:
            self.slot[new] = np.arange(self.used, self.used + new.size)
            self._view(self.used + new.size)
        return self.slot[ids]


SERVER_VECTORS = ("global_params", "global_delta", "scaffold_c", "dyn_corrector")


@dataclass(frozen=True)
class ServerState:
    """Round-start snapshot of everything the server owns.

    The four SERVER_VECTORS, which the RULES server steps advance, are
    finite (P,) float64 arrays; the state adopts the arrays it is given
    and marks them read-only. This is the one finiteness check of a run:
    once per init, per aggregate and per restore.
    """

    global_params: np.ndarray
    global_delta: np.ndarray
    scaffold_c: np.ndarray
    dyn_corrector: np.ndarray
    round: int
    n_clients: int
    rng_seed: int

    def __post_init__(self):
        shape = np.shape(self.global_params)
        for name in SERVER_VECTORS:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1 or arr.size == 0 or arr.shape != shape:
                raise DimensionError(f"ServerState.{name}: shape {arr.shape}, expected {shape} > 0")
            _require_finite(arr, f"ServerState.{name}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def fresh(cls, global_params, n_clients: int, rng_seed: int):
        zero = np.zeros(np.shape(global_params))
        return cls(global_params, global_delta=zero, scaffold_c=zero, dyn_corrector=zero,
                   round=0, n_clients=int(n_clients), rng_seed=int(rng_seed))


@dataclass(frozen=True)
class RoundUpdate:
    """One round's plan and client results, one row per client in ascending id order.

    `ids`, `n_samples` and `k_steps` are (C,) integer arrays, `theta` the
    (C, P) trained parameters. The plan, set once by :func:`run_local_rounds`
    and read by every later call of the round: its `lr_t`, the row `slices`
    of its chunks, max(1, BUDGET // P) rows each, and the pool's `workers`
    (:func:`_pool_size`). Every other row (theta - G, the NEXT_ROWS,
    feddc's upload) is derived from theta where used, a chunk of rows at a
    time (:func:`_chunks`).
    """

    ids: np.ndarray
    n_samples: np.ndarray
    k_steps: np.ndarray
    theta: np.ndarray
    lr_t: float
    slices: list
    workers: int


def steps_per_round(n_samples: int, cfg: AlgoConfig) -> int:
    """K = local_epochs * ceil(n_i / batch_size), per client."""
    if n_samples < 1:
        raise ParameterError("a client with an empty partition has no steps")
    return cfg.local_epochs * math.ceil(n_samples / cfg.batch_size)


def round_lr(cfg: AlgoConfig, round_index: int) -> float:
    """Learning rate of a round: lr * decay^t, decayed once per round."""
    return cfg.lr * cfg.lr_decay**round_index


def _implied_grad(delta: np.ndarray, k_lr, out=None) -> np.ndarray:
    """The mean step direction of updates delta = theta - G: -delta / k_lr, with k_lr = K * lr_t."""
    return np.divide(delta, -k_lr, out=out)  # -delta / k_lr, with no second block for -delta


def _correction_terms(clients: ClientStore, ids, server: ServerState,
                      cfg: AlgoConfig, k_steps: int, lr_t: float):
    """The RULES terms (pull, anchor, extra, has_extra) of clients `ids`.

    anchor and extra are (len(ids), P) arrays, each built in one buffer
    from the clients' stored rows read in place, or None when the row,
    the ablation or a zero coefficient turns the term off. A row of `extra`
    that is exactly zero is off for its client alone; `has_extra` masks
    it out, and is None when every row is on. Terms that are off are
    skipped rather than added, so the remaining arithmetic is
    bit-identical to the plain-SGD path.
    """
    rule = RULES[cfg.algorithm]
    g = server.global_params
    pull, anchor, extra, has_extra = 0.0, None, None, None
    if rule.pull and "param_correction" in cfg.ablation and getattr(cfg, rule.pull) != 0.0:
        pull = getattr(cfg, rule.pull)
        # A broadcast view of G, not a (C, P) block, when nothing is subtracted.
        anchor = (_from_stored(clients, "drift", ids, functools.partial(np.subtract, g))
                  if "drift" in rule.fields else np.broadcast_to(g, (len(ids), g.size)))
    if rule.extra and "grad_correction" in cfg.ablation:
        extra = rule.extra(clients, ids, server, k_steps, lr_t)
        on = extra.any(axis=1)
        if not on.any():
            extra = None
        elif not on.all():
            has_extra = on[:, None]
    return pull, anchor, extra, has_extra


def _add_terms(grad, theta, pull, anchor, extra, has_extra, scratch) -> None:
    """grad += pull * (theta - anchor) + extra on (C, w) blocks, in place.

    `scratch` is a (C, w) buffer for the pull term. Terms that are off
    are skipped, and so are the rows of `extra` that `has_extra` masks
    out: adding +0.0 would flip the sign bit of a -0.0 gradient entry.
    Training and the gradient check both step through here.
    """
    if anchor is not None:
        np.subtract(theta, anchor, out=scratch)
        scratch *= pull
        grad += scratch
    if extra is not None:
        if has_extra is None:
            grad += extra
        else:
            np.add(grad, extra, out=grad, where=has_extra)


def _client_terms(clients: ClientStore, client_id: int, server: ServerState, cfg: AlgoConfig):
    """The correction terms of one client, as (1, P) blocks, at its K and lr_t."""
    k = steps_per_round(int(clients.n_samples[client_id]), cfg)
    return _correction_terms(clients, [client_id], server, cfg, k, round_lr(cfg, server.round))


def local_objective(theta, clients: ClientStore, client_id: int, server: ServerState,
                    cfg: AlgoConfig, inputs, labels, spec: ModelSpec) -> float:
    """Value of a client's local objective under its RULES row at theta, a (P,) array.

    The empirical loss plus 0.5 * pull * |theta - anchor|^2 + theta . extra of
    :func:`_correction_terms`, whose gradient :func:`local_objective_grad` assembles.
    """
    pull, anchor, extra, _ = _client_terms(clients, client_id, server, cfg)
    value = models.mean_loss(spec, theta, inputs, labels)
    if anchor is not None:
        gap = theta - anchor[0]
        value += 0.5 * pull * float(gap @ gap)
    if extra is not None:
        value += float(theta @ extra[0])
    return value


def local_objective_grad(theta, clients: ClientStore, client_id: int, server: ServerState,
                         cfg: AlgoConfig, inputs, labels, spec: ModelSpec) -> np.ndarray:
    """Gradient of :func:`local_objective` at theta, as training assembles it."""
    _, grad = models.loss_and_grad(spec, theta, inputs, labels)
    terms = _client_terms(clients, client_id, server, cfg)
    _add_terms(grad[None], theta[None], *terms, np.empty((1, grad.size)))
    return grad


def _local_sgd(theta, terms, inputs, labels, rngs, spec: ModelSpec,
               batch_size: int, epochs: int, lr_t: float):
    """The call running `epochs` epochs of SGD on each row of the (C, P) block `theta`, in place.

    `theta` may be rows of a larger array, such as the round's
    RoundUpdate.theta. The call's buffers (the gradient, the shuffled
    data and a scratch tile) are allocated here, so a chunk allocates
    them on the thread that sets it up, whichever thread then calls it.
    Row c trains on inputs[c] and labels[c] and shuffles them with
    rngs[c], one fresh permutation per epoch, then steps through them in
    batches of `batch_size`, the last of which may be partial. uint8
    inputs are pixels: the shuffled copy holds their bytes, and each
    batch is scaled into one float buffer (see :func:`models._as_float`);
    float64 inputs are read in place. `terms` are the
    (pull, anchor, extra, has_extra) of :func:`_correction_terms`.
    After the gradient kernel, a step adds weight decay and the terms
    and updates theta one column tile of at most BUDGET floats at a
    time (see :func:`models._tiles`), through one scratch tile, so
    every pass over a tile runs in cache.
    """
    c, n = len(labels), labels[0].shape[0]
    xp = np.empty((c, *inputs[0].shape), dtype=inputs[0].dtype)
    yp = np.empty((c, n), dtype=labels[0].dtype)
    # Each step's (inputs, labels, float buffer or None) views, chosen once by dtype.
    xf = np.empty((c, min(batch_size, n), xp.shape[2])) if xp.dtype == np.uint8 else None
    batches = [
        (xp[:, lo : lo + batch_size], yp[:, lo : lo + batch_size],
         None if xf is None else xf[:, : min(batch_size, n - lo)])
        for lo in range(0, n, batch_size)
    ]
    grad = np.empty_like(theta)
    layers = models._split(spec, theta)
    glayers = models._split(spec, grad)
    grad_into, decay_into, as_float = models._grad_into, models._decay_into, models._as_float
    wd = spec.weight_decay
    pull, anchor, extra, has_extra = terms
    width = max(1, BUDGET // c)
    scratch = np.empty((c, min(width, theta.shape[1])))
    tiles = [
        (grad[:, lo:hi], theta[:, lo:hi], scratch[:, : hi - lo], decayed,
         None if anchor is None else anchor[:, lo:hi],
         None if extra is None else extra[:, lo:hi])
        for lo, hi, decayed in models._tiles(spec, width)
    ]

    def sgd():
        for _ in range(epochs):
            for r, rng in enumerate(rngs):
                order = rng.permutation(n)
                inputs[r].take(order, axis=0, out=xp[r])
                labels[r].take(order, out=yp[r])
            for xb, yb, fb in batches:
                grad_into(layers, glayers, xb if fb is None else as_float(xb, fb), yb)
                for g, th, tmp, decayed, an, ex in tiles:
                    if decayed:
                        decay_into(wd, g, th, tmp)
                    _add_terms(g, th, pull, an, ex, has_extra, tmp)
                    np.multiply(g, lr_t, out=tmp)
                    th -= tmp

    return sgd


def lockstep_groups(ids, n_samples, cap: int) -> list:
    """Clients `ids` grouped by sample count, each group cut into chunks of <= cap.

    Groups keep the ascending order of `ids` and come in the order of
    their smallest id.
    """
    groups = {}
    for i in sorted(ids):
        groups.setdefault(int(n_samples[i]), []).append(i)
    return [g[lo : lo + cap] for g in groups.values() for lo in range(0, len(g), cap)]


def _chunk_round(clients: ClientStore, server: ServerState, cfg: AlgoConfig, spec: ModelSpec,
                 out: RoundUpdate, client_data, chunk):
    """Set up one chunk's local round; return the call that trains it and fills its rows of `out`.

    client_data is called and every block the chunk needs is allocated
    here, so the returned call allocates nothing larger than a step's
    activations. The correction terms read the clients' stored rows in
    place, one buffer per term (:func:`_correction_terms`). A chunk
    whose clients hold consecutive rows of `out` (every one-client
    chunk) trains in those rows of out.theta, set to G here; a lockstep
    chunk whose rows are interleaved with another group's trains in its
    own block, which its call then copies there. The call reads only the
    chunk's own blocks and writes only the chunk's rows of `out`, so the
    calls of several chunks may run concurrently.
    """
    inputs, labels, rngs = zip(*(client_data(i) for i in chunk))
    n = inputs[0].shape[0]
    if any(x.shape != inputs[0].shape for x in inputs) or any(y.shape != (n,) for y in labels):
        raise DimensionError(f"clients {chunk} need (n, d) inputs and (n,) labels of one size")
    k = steps_per_round(n, cfg)
    terms = _correction_terms(clients, chunk, server, cfg, k, out.lr_t)
    rows = np.searchsorted(out.ids, chunk)
    lo, c = rows[0], len(chunk)
    in_place = rows[-1] - lo == c - 1
    theta = out.theta[lo : lo + c] if in_place else np.empty((c, out.theta.shape[1]))
    theta[...] = server.global_params
    sgd = _local_sgd(theta, terms, inputs, labels, rngs, spec,
                     cfg.batch_size, cfg.local_epochs, out.lr_t)

    def train():
        sgd()
        if not in_place:
            out.theta[rows] = theta
        out.n_samples[rows] = n
        out.k_steps[rows] = k

    return train


@functools.cache
def _openblas():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None if this numpy has none."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")):
        try:
            handle = ctypes.CDLL(lib)
            get = handle.scipy_openblas_get_num_threads64_
            put = handle.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the caller's count, also on error.

    More threads split a product differently and change its bits. The
    count is process-wide: other threads' BLAS calls meanwhile run on
    one thread too. Yields whether the count was set: not without the
    setter (a numpy with no bundled OpenBLAS).
    """
    blas = _openblas()
    if blas is None:
        yield False
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)


def _usable_cpus() -> int:
    """The CPUs the calling thread may run on; every CPU where there is no affinity mask."""
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(cap: int) -> int:
    """Threads for a round's pooled work: one per usable CPU where chunks hold one
    client (`cap` 1: P > BUDGET // 2) and OpenBLAS runs each call on one
    thread, as :func:`one_blas_thread` sets it; else 0, the calling thread alone.

    The one rule for every pool of a round, read once into its plan
    (RoundUpdate.workers): one-client chunks in training and in the passes
    after it, and evaluation slices. Each task writes only its own rows or
    result, so the outputs are bitwise the serial loop's.
    """
    if cap > 1:
        return 0
    blas = _openblas()
    return _usable_cpus() if blas is not None and blas[0]() == 1 else 0


def run_local_rounds(clients: ClientStore, ids, server: ServerState, cfg: AlgoConfig,
                     client_data, spec: ModelSpec) -> RoundUpdate:
    """A local round, `local_epochs` epochs of SGD, for every client in `ids`.

    Returns the round's RoundUpdate, with the plan every later call of the
    round reads; a client of n samples takes K = :func:`steps_per_round` steps.

    client_data(i) gives client i's (inputs (n, input_dim), labels (n,),
    shuffle stream). Clients of equal stored sample count train in lockstep
    as one stacked block, in chunks of at most the plan's max(1, BUDGET // P)
    clients (see :func:`lockstep_groups`), and client_data is called chunk by chunk, in
    chunk order. One-client chunks train concurrently on `workers` threads,
    counted once :func:`one_blas_thread` pins BLAS.
    Each row is bitwise the one its client would get training alone.
    theta starts at the round-start global parameters. Round-start
    snapshots (global parameters, the clients' stored rows, previous
    deltas) stay frozen for all K steps. The store is only read;
    :func:`apply_update` writes the clients' next rows.
    """
    ids = sorted(int(i) for i in ids)
    if not ids:
        raise DimensionError("a round needs at least one client")
    c, p = len(ids), server.global_params.size
    cap = max(1, BUDGET // p)
    with one_blas_thread():
        # Models too large to stack train one client per chunk, several at
        # once: one thread per usable CPU, each BLAS call on one thread.
        out = RoundUpdate(np.array(ids), np.empty(c, dtype=np.int64), np.empty(c, dtype=np.int64),
                          np.empty((c, p)), round_lr(cfg, server.round),
                          [slice(lo, lo + cap) for lo in range(0, c, cap)], _pool_size(cap))
        setup = functools.partial(_chunk_round, clients, server, cfg, spec, out, client_data)
        models._concurrently(setup, lockstep_groups(ids, clients.n_samples, cap), out.workers)
    return out


def run_local_round(clients: ClientStore, client_id: int, server: ServerState,
                    cfg: AlgoConfig, inputs: np.ndarray, labels: np.ndarray,
                    rng: np.random.Generator, spec: ModelSpec) -> RoundUpdate:
    """One client's :func:`run_local_rounds`: inputs (n, input_dim), labels (n,)."""
    return run_local_rounds(
        clients, [client_id], server, cfg, lambda _: (inputs, labels, rng), spec
    )


def _chunk(update: RoundUpdate, server: ServerState, rows: slice, buf=None):
    """(ids, theta, delta = theta - G, K * lr_t column) of the update's `rows`;
    delta is derived into the front rows of `buf` if one is given."""
    ids, theta, k = (a[rows] for a in (update.ids, update.theta, update.k_steps))
    delta = np.subtract(theta, server.global_params, out=None if buf is None else buf[: len(ids)])
    return ids, theta, delta, k[:, None] * update.lr_t


def _chunks(update: RoundUpdate, server: ServerState):
    """:func:`_chunk` of each of the update's row `slices`, each delta derived into one
    buffer that the next chunk overwrites: a consumer holds no (C, P) block beside theta
    and allocates none per chunk, but must be done with a chunk's rows before the next."""
    buf = np.empty_like(update.theta[update.slices[0]])  # the largest chunk's rows
    for rows in update.slices:
        yield _chunk(update, server, rows, buf)


def _map_chunks(fn, update: RoundUpdate, server: ServerState) -> list:
    """[fn(*chunk) for chunk in _chunks(update, server)], on the round's `workers`
    threads (see :func:`models._concurrently`); each chunk is derived where fn runs."""
    return models._concurrently(lambda rows: lambda: fn(*_chunk(update, server, rows)),
                                update.slices, update.workers)


def apply_update(clients: ClientStore, update: RoundUpdate, server: ServerState) -> None:
    """Write every field's NEXT_ROWS in place in the store's rows, from the round-start
    `server` (not the aggregated one: scaffold's next control reads the old c).

    The clients written for the first time are admitted here first, on
    the calling thread, so their rows read +0.0 in place. Then each chunk
    derives its delta = theta - G once and updates its clients' stored
    rows of every field, on the round's pool (RoundUpdate.workers): a
    worker only writes rows in place.
    """
    def write(ids, _, delta, k_lr):
        for f in clients.fields:
            for old, d, kl in zip(clients.stored(f, ids), delta, k_lr):
                NEXT_ROWS[f](old, d, kl, server)

    clients.admit(update.ids)
    _map_chunks(write, update, server)


def weighted_mean(rows, ws) -> np.ndarray:
    """Weighted mean of `rows` (an iterable read once, such as a (C, P) block), bit-for-bit.

    Each row is read before the next is asked for, so a generator may
    yield one buffer, overwritten with each row. The value is
    sum_c (w_c / sum(ws)) * row_c, computed as a sequential row-order
    fold of the w_c * row_c followed by one division by sum(ws). Two
    exactness guarantees follow from this arrangement plus an explicit
    short-circuit: bitwise-identical rows average to exactly that row
    (returned as a copy), and scaling every weight by a power of two
    leaves the output bits unchanged (every product and sum scales
    exactly, barring overflow and underflow); other common factors may
    change them.
    """
    warr = np.asarray(ws, dtype=np.float64)
    if warr.ndim != 1 or warr.size == 0:
        raise DimensionError(f"weighted_mean of an empty block, or of {warr.shape} weights")
    total = 0.0
    for w in warr:
        total += float(w)
    if not (np.isfinite(warr).all() and (warr >= 0).all() and total > 0.0):
        raise ParameterError(f"weights must be finite, nonnegative and not all zero, got {warr}")

    count = 0
    for count, row in enumerate(rows, 1):
        row = np.asarray(row, dtype=np.float64)
        if count > warr.size or row.shape != (row.size,) or count > 1 and row.shape != base.shape:
            raise DimensionError(f"weighted_mean: row {count}/{warr.size} has shape {row.shape}")
        if count == 1:
            # A copy, since the next row may overwrite this one.
            base, acc, identical = row.copy(), warr[0] * row, True
            scaled = np.empty_like(acc)
        else:
            identical = identical and not (row - base).any()
            w = warr[count - 1]
            acc += row if w == 1.0 else np.multiply(w, row, out=scaled)  # 1.0 * row is row
    if count != warr.size:
        raise DimensionError(f"weighted_mean: {count} rows for {warr.size} weights")
    if identical:
        return base
    acc /= total
    return acc


def server_aggregate(server: ServerState, update: RoundUpdate, cfg: AlgoConfig,
                     clients: ClientStore) -> ServerState:
    """Fold a round's update into the next server state, by the RULES row.

    The rows are folded in their ascending client-id order, so the
    order clients trained in cannot change the result. feddc's upload
    theta + h_i+ reads h_i from `clients`, in place, before
    :func:`apply_update` writes h_i+ there.
    """
    rule = RULES[cfg.algorithm]
    by_samples = cfg.aggregation_weighting == "by_samples"
    ws = update.n_samples.astype(np.float64) if by_samples else np.ones(len(update.ids))
    chunks = functools.partial(_chunks, update, server)
    global_delta = weighted_mean((row for *_, delta, _ in chunks() for row in delta), ws)
    if rule.upload == "delta":
        mean_up = server.global_params + global_delta
    elif rule.upload == "theta":
        mean_up = weighted_mean(update.theta, ws)
    else:
        # theta + (h_i + delta), built in the chunk's delta buffer
        mean_up = weighted_mean((np.add(th, np.add(h, row, out=row), out=row)
                                 for ids, theta, delta, _ in chunks()
                                 for th, h, row in zip(theta, clients.stored("drift", ids), delta)),
                                ws)
    changed = rule.server(server, update, cfg, mean_up, global_delta) if rule.server else {}
    return replace(server, **{"global_params": mean_up, "global_delta": global_delta,
                              "round": server.round + 1, **changed})


def sample_active_set(n_clients: int, participation: float, round_index: int,
                      rng: np.random.Generator) -> list:
    """Sorted ids of this round's active clients, uniform without replacement."""
    if not (0 < participation <= 1):
        raise ParameterError(f"participation must be in (0, 1], got {participation!r}")
    count = min(n_clients, max(1, round(participation * n_clients)))
    del round_index  # identity lives in the rng key; kept for call-site clarity
    return sorted(int(i) for i in rng.permutation(n_clients)[:count])


def gradient_variance_diagnostic(update: RoundUpdate, server: ServerState):
    """Empirical variance of implied local gradients, or None if < 2 rows.

    Each client's round update implies an average step direction
    g_i = -delta_i / (K_i * lr_t); the diagnostic is the mean squared
    distance of the g_i from their mean. Recorded per round, never
    asserted against a closed-form bound.
    """
    n = len(update.ids)
    if n < 2:
        return None
    # A row fold from +0.0, then per-row sums: the bits of the stacked g.sum(axis=0) and axis=1.
    mean = np.zeros(update.theta.shape[1])
    for *_, delta, k_lr in _chunks(update, server):
        for row in _implied_grad(delta, k_lr, out=delta):
            mean += row
    mean /= n

    def squares(ids, theta, delta, k_lr):
        g = _implied_grad(delta, k_lr, out=delta)
        g -= mean
        return np.square(g, out=g).sum(axis=1)

    return float(np.mean(np.concatenate(_map_chunks(squares, update, server))))
