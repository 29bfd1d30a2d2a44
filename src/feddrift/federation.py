"""Client update rules and server aggregation for five algorithms.

The round contract is snapshot-in / gather-out: every client trains from
an immutable copy of the round-start server state, and the server folds
the gathered updates in ascending client-id order, so results do not
depend on scheduling. Each algorithm is one row of RULES, which says
what it keeps, moves, adds to its gradient and lets the server average.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import contextvars
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


def _control_gap(clients, ids, server, k_steps, lr_t):
    return server.scaffold_c - clients.rows("scaffold_c", ids)


def _grad_correction(clients, ids, server, k_steps, lr_t):
    return (clients.rows("last_delta", ids) - server.global_delta) / (k_steps * lr_t)


def _scaffold_controls(server, update, cfg, mean_up, global_delta):
    # c_i+ - c_i reconstructs from the upload: -c + the implied gradient
    c_deltas = (row for *_, delta, k_lr in _chunks(update, server, cfg)
                for row in -server.scaffold_c + _implied_grad(delta, k_lr))
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

# Floats per stacked (clients x parameters) block of lockstep training:
# an active group trains in chunks of at most max(1, BUDGET // P) clients,
# so small models train whole groups at once and large ones one by one.
# A chunk of C clients applies each step's update in column tiles of at
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


# Client field -> its next rows from old() (a call that copies the clients'
# stored rows, so a field whose next rows ignore them copies none), their
# delta = theta - G and K * lr_t, and the round-start server. Its keys are
# every field a ClientStore or a checkpoint may hold.
NEXT_ROWS = {
    "drift": lambda old, delta, k_lr, server: old() + delta,
    "last_delta": lambda old, delta, k_lr, server: delta,
    "scaffold_c": lambda old, delta, k_lr, server:
        (old() - server.scaffold_c) + _implied_grad(delta, k_lr),
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
    only once written. A write of new clients views more of it, so rows
    never move and each array holds exactly the written rows. Inactive
    clients keep their rows stale. A store built with `slot` adopts that
    saved map, with zeroed rows.
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
            buf.madvise(mmap.MADV_HUGEPAGE)
            self._maps[name] = buf
        self._view(slots_in_use(self.slot, "ClientStore"))

    def _view(self, used: int) -> None:
        self.used = used
        for name, buf in self._maps.items():
            rows = np.frombuffer(buf, count=used * self.param_count)
            setattr(self, name, rows.reshape(used, self.param_count))

    def rows(self, name: str, ids) -> np.ndarray:
        """A copy of field `name`'s rows of clients `ids`, in the order of `ids`."""
        arr, s = getattr(self, name), self.slot[ids]
        written = s < self.used
        if written.all():
            return arr.take(s, axis=0)  # a copy also for a scalar id, where arr[s] is a view
        out = np.zeros(np.shape(s) + arr.shape[1:])
        out[written] = arr[s[written]]
        return out

    def write(self, ids, blocks: dict) -> None:
        """Set the rows of clients `ids` to `blocks`, a field name -> (len(ids), P) map.

        Clients written for the first time take the next slots, in
        ascending id order; then each field is one indexed assignment.
        """
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
        slots = self.slot[ids]
        for name, block in blocks.items():
            getattr(self, name)[slots] = block


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
    """One round's client results, one row per client in ascending id order.

    `ids`, `n_samples` and `k_steps` are (C,) integer arrays, `theta` the
    (C, P) trained parameters. Every other row (theta - G, the NEXT_ROWS,
    feddc's upload) is derived from theta where used, by :func:`_chunks`.
    """

    ids: np.ndarray
    n_samples: np.ndarray
    k_steps: np.ndarray
    theta: np.ndarray


def steps_per_round(n_samples: int, cfg: AlgoConfig) -> int:
    """K = local_epochs * ceil(n_i / batch_size), per client."""
    if n_samples < 1:
        raise ParameterError("a client with an empty partition has no steps")
    return cfg.local_epochs * math.ceil(n_samples / cfg.batch_size)


def round_lr(cfg: AlgoConfig, round_index: int) -> float:
    """Learning rate of a round: lr * decay^t, decayed once per round."""
    return cfg.lr * cfg.lr_decay**round_index


def _implied_grad(delta: np.ndarray, k_lr) -> np.ndarray:
    """The mean step direction of updates delta = theta - G: -delta / k_lr, with k_lr = K * lr_t."""
    return delta / -k_lr  # -delta / k_lr, with no second block for -delta


def _correction_terms(clients: ClientStore, ids, server: ServerState,
                      cfg: AlgoConfig, k_steps: int, lr_t: float):
    """The RULES terms (pull, anchor, extra, has_extra) of clients `ids`.

    anchor and extra are (len(ids), P) arrays, or None when the row, the
    ablation or a zero coefficient turns the term off. A row of `extra`
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
        anchor = (g - clients.rows("drift", ids) if "drift" in rule.fields
                  else np.broadcast_to(g, (len(ids), g.size)))
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

    Its buffers are allocated here, so a chunk allocates them on the
    thread that sets it up, whichever thread then calls it. Row c trains
    on inputs[c] and labels[c] and shuffles them with rngs[c], one fresh
    permutation per epoch, then steps through them in batches of
    `batch_size`, the last of which may be partial. uint8 inputs are
    pixels: the shuffled copy holds their bytes, and each batch is scaled
    into one float buffer (see :func:`models._as_float`); float64 inputs
    are read in place. `terms` are the
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
    activations. It reads only the chunk's own blocks and writes only
    the chunk's rows of `out`, so the calls of several chunks may run
    concurrently.
    """
    inputs, labels, rngs = zip(*(client_data(i) for i in chunk))
    n = inputs[0].shape[0]
    if any(x.shape != inputs[0].shape for x in inputs) or any(y.shape != (n,) for y in labels):
        raise DimensionError(f"clients {chunk} need (n, d) inputs and (n,) labels of one size")
    k = steps_per_round(n, cfg)
    lr_t = round_lr(cfg, server.round)
    terms = _correction_terms(clients, chunk, server, cfg, k, lr_t)
    block = np.repeat(server.global_params[None], len(chunk), axis=0)
    sgd = _local_sgd(block, terms, inputs, labels, rngs, spec,
                     cfg.batch_size, cfg.local_epochs, lr_t)
    rows = np.searchsorted(out.ids, chunk)

    def train():
        sgd()
        out.theta[rows] = block
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


def _train_concurrently(setup, chunks, workers: int) -> None:
    """Train `chunks` on `workers` threads, with the serial loop's result.

    setup(chunk) returns a chunk's training call (see :func:`_chunk_round`).
    It runs on this thread, in chunk order, and only while fewer than
    `workers` chunks are in flight, so no more chunks are held than the
    threads train. Each call runs in a copy of this thread's context, so
    the caller's np.errstate holds in it. Once a chunk has failed no
    further chunk starts, and the error raised is the first in chunk
    order, after every started chunk has finished.
    """
    futures = []
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        try:
            for chunk in chunks:
                live = [f for f in futures if not f.done()]
                if len(live) == workers:
                    concurrent.futures.wait(live, return_when=concurrent.futures.FIRST_COMPLETED)
                if any(f.done() and f.exception() for f in futures):
                    break
                futures.append(pool.submit(contextvars.copy_context().run, setup(chunk)))
        finally:
            # An earlier chunk's error replaces a later chunk's set-up error.
            for f in futures:
                f.result()


def run_local_rounds(clients: ClientStore, ids, server: ServerState, cfg: AlgoConfig,
                     client_data, spec: ModelSpec) -> RoundUpdate:
    """A local round, `local_epochs` epochs of SGD, for every client in `ids`.

    Returns the round's RoundUpdate; a client of n samples takes
    K = :func:`steps_per_round` steps.

    client_data(i) gives client i's (inputs (n, input_dim), labels (n,),
    shuffle stream). Clients of equal stored sample count train in lockstep
    as one stacked block, in chunks of at most max(1, BUDGET // P) clients
    (see :func:`lockstep_groups`), and client_data is called chunk by chunk,
    in chunk order. One-client chunks train concurrently when
    :func:`one_blas_thread` pins BLAS. Each row is bitwise the one its
    client would get training alone. theta starts at the round-start global
    parameters. Round-start snapshots (global parameters, the clients'
    stored rows, previous deltas) stay frozen for all K steps. The store
    is only read; :func:`apply_update` writes the clients' next rows.
    """
    ids = sorted(int(i) for i in ids)
    if not ids:
        raise DimensionError("a round needs at least one client")
    out = RoundUpdate(np.array(ids), n_samples=np.empty(len(ids), dtype=np.int64),
                      k_steps=np.empty(len(ids), dtype=np.int64),
                      theta=np.empty((len(ids), server.global_params.size)))
    cap = max(1, BUDGET // out.theta.shape[1])
    chunks = lockstep_groups(ids, clients.n_samples, cap)
    setup = functools.partial(_chunk_round, clients, server, cfg, spec, out, client_data)
    with one_blas_thread() as pinned:
        # Models too large to stack train one client per chunk, several at
        # once: one thread per usable CPU, each BLAS call on one thread.
        if pinned and cap == 1 and len(chunks) > 1:
            _train_concurrently(setup, chunks, min(_usable_cpus(), len(chunks)))
        else:
            for chunk in chunks:
                setup(chunk)()
    return out


def run_local_round(clients: ClientStore, client_id: int, server: ServerState,
                    cfg: AlgoConfig, inputs: np.ndarray, labels: np.ndarray,
                    rng: np.random.Generator, spec: ModelSpec) -> RoundUpdate:
    """One client's :func:`run_local_rounds`: inputs (n, input_dim), labels (n,)."""
    return run_local_rounds(
        clients, [client_id], server, cfg, lambda _: (inputs, labels, rng), spec
    )


def _chunks(update: RoundUpdate, server: ServerState, cfg: AlgoConfig):
    """(ids, theta, delta = theta - G, K * lr_t column) of max(1, BUDGET // P) clients at a
    time, so that a consumer deriving rows holds no (C, P) block beside theta."""
    cap, lr_t = max(1, BUDGET // update.theta.shape[1]), round_lr(cfg, server.round)
    for lo in range(0, len(update.ids), cap):
        ids, theta, k = (a[lo : lo + cap] for a in (update.ids, update.theta, update.k_steps))
        yield ids, theta, theta - server.global_params, k[:, None] * lr_t


def apply_update(clients: ClientStore, update: RoundUpdate, server: ServerState,
                 cfg: AlgoConfig) -> None:
    """Write every field's NEXT_ROWS into the store, from the round-start `server`
    (not the aggregated one: scaffold's next control reads the old c)."""
    for ids, _, delta, k_lr in _chunks(update, server, cfg):
        clients.write(ids, {f: NEXT_ROWS[f](functools.partial(clients.rows, f, ids), delta,
                                            k_lr, server)
                            for f in clients.fields})


def weighted_mean(rows, ws) -> np.ndarray:
    """Weighted mean of `rows` (an iterable read once, such as a (C, P) block), bit-for-bit.

    The value is sum_c (w_c / sum(ws)) * row_c, computed as a sequential
    row-order fold of the w_c * row_c followed by one division by
    sum(ws). Two exactness guarantees follow from this arrangement plus
    an explicit short-circuit: bitwise-identical rows average to exactly
    that row (returned as a copy), and scaling every weight by a power
    of two leaves the output bits unchanged (every product and sum
    scales exactly, barring overflow and underflow); other common
    factors may change them.
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
            base, acc, identical = row, warr[0] * row, True
        else:
            identical = identical and not (row - base).any()
            acc += warr[count - 1] * row
    if count != warr.size:
        raise DimensionError(f"weighted_mean: {count} rows for {warr.size} weights")
    if identical:
        return base.copy()
    acc /= total
    return acc


def server_aggregate(server: ServerState, update: RoundUpdate, cfg: AlgoConfig,
                     clients: ClientStore) -> ServerState:
    """Fold a round's update into the next server state, by the RULES row.

    The rows are folded in their ascending client-id order, so the
    order clients trained in cannot change the result. feddc's upload
    theta + h_i+ reads h_i from `clients` before :func:`apply_update`.
    """
    rule = RULES[cfg.algorithm]
    by_samples = cfg.aggregation_weighting == "by_samples"
    ws = update.n_samples.astype(np.float64) if by_samples else np.ones(len(update.ids))
    chunks = functools.partial(_chunks, update, server, cfg)
    global_delta = weighted_mean((row for *_, delta, _ in chunks() for row in delta), ws)
    if rule.upload == "delta":
        mean_up = server.global_params + global_delta
    elif rule.upload == "theta":
        mean_up = weighted_mean(update.theta, ws)
    else:
        mean_up = weighted_mean((row for ids, theta, delta, _ in chunks()
                                 for row in theta + (clients.rows("drift", ids) + delta)), ws)
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


def gradient_variance_diagnostic(update: RoundUpdate, server: ServerState, cfg: AlgoConfig):
    """Empirical variance of implied local gradients, or None if < 2 rows.

    Each client's round update implies an average step direction
    g_i = -delta_i / (K_i * lr_t); the diagnostic is the mean squared
    distance of the g_i from their mean. Recorded per round, never
    asserted against a closed-form bound.
    """
    n = len(update.ids)
    if n < 2:
        return None
    chunks = functools.partial(_chunks, update, server, cfg)
    # A row fold from +0.0, then per-row sums: the bits of the stacked g.sum(axis=0) and axis=1.
    mean = sum(row for *_, delta, k_lr in chunks() for row in _implied_grad(delta, k_lr)) / n
    return float(np.mean(np.concatenate([np.square(_implied_grad(delta, k_lr) - mean).sum(axis=1)
                                         for *_, delta, k_lr in chunks()])))
