"""Client update rules and server aggregation for five algorithms.

The round contract is snapshot-in / gather-out: every client trains from
an immutable copy of the round-start server state, and the server folds
the gathered updates in ascending client-id order, so results do not
depend on scheduling.

Algorithms, by the structure of the gradient each local SGD step uses
(g is the minibatch gradient of the empirical loss at the current theta,
G the round-start global parameters):

  fedavg     g
  fedprox    g + mu * (theta - G)
  scaffold   g + (c - c_i)                        with control variates
  feddyn     g + alpha * (theta - (G - s_i))      s_i = accumulated local updates
  feddc      g + alpha * (theta - (G - h_i))      drift penalty
               + (delta_i_prev - delta_prev) / (K * lr_t)   gradient correction

feddc additionally uploads drift-corrected parameters (theta + h) and the
server averages those, which decouples the global model from the local
optima. Its two correction terms can be ablated independently.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import models
from .errors import (
    DimensionError,
    EmptyAggregateError,
    ParameterError,
    PartitionError,
    WeightError,
)
from .models import ModelSpec
from .vectors import _require_finite

__all__ = [
    "RULES",
    "ALGORITHMS",
    "ABLATION_TERMS",
    "FULL_ABLATION",
    "NEXT_VALUE",
    "AlgoConfig",
    "ClientStore",
    "ServerState",
    "RoundUpdate",
    "lockstep_groups",
    "weighted_mean",
    "ablation_from_code",
    "steps_per_round",
    "round_lr",
    "feddc_local_objective",
    "feddc_local_objective_grad",
    "run_local_rounds",
    "run_local_round",
    "server_aggregate",
    "apply_update",
    "sample_active_set",
    "gradient_variance_diagnostic",
]

# What each algorithm keeps and moves: the per-client vectors it reads
# across rounds, and how many P-vectors a client sends (up) and receives
# (down) per round. feddc keeps its drift h_i and previous local update,
# sends theta + h pre-summed as one vector and receives the global
# parameters and the previous global delta; feddyn keeps its accumulated
# local updates; scaffold keeps its control variate c_i and moves it, or
# its update, beside the parameters both ways.
Rule = namedtuple("Rule", "fields up down")
RULES = {
    "fedavg": Rule((), up=1, down=1),
    "fedprox": Rule((), up=1, down=1),
    "scaffold": Rule(("scaffold_c",), up=2, down=2),
    "feddyn": Rule(("drift",), up=1, down=1),
    "feddc": Rule(("drift", "last_delta"), up=1, down=2),
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
            raise ParameterError(f"unknown algorithm {self.algorithm!r}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ParameterError(f"lr must be positive, got {self.lr!r}")
        if not (0 < self.lr_decay <= 1):
            raise ParameterError(f"lr_decay must be in (0, 1], got {self.lr_decay!r}")
        if self.local_epochs < 1 or self.batch_size < 1:
            raise ParameterError("local_epochs and batch_size must be >= 1")
        if not (0 < self.participation <= 1):
            raise ParameterError(
                f"participation must be in (0, 1], got {self.participation!r}"
            )
        if self.aggregation_weighting not in ("uniform", "by_samples"):
            raise ParameterError(
                f"unknown aggregation weighting {self.aggregation_weighting!r}"
            )
        if self.mu < 0 or not np.isfinite(self.mu):
            raise ParameterError(f"mu must be >= 0, got {self.mu!r}")
        abl = frozenset(self.ablation)
        if not abl <= set(ABLATION_TERMS):
            raise ParameterError(f"unknown ablation terms {abl - set(ABLATION_TERMS)}")
        if "empirical" not in abl:
            raise ParameterError("the empirical loss term cannot be ablated away")
        object.__setattr__(self, "ablation", abl)
        if self.algorithm == "feddyn":
            if self.alpha is None or not (np.isfinite(self.alpha) and self.alpha > 0):
                raise ParameterError("feddyn requires alpha > 0")
        if self.algorithm == "feddc":
            if self.alpha is None or not (np.isfinite(self.alpha) and self.alpha >= 0):
                raise ParameterError("feddc requires alpha >= 0")


# Client field -> the RoundUpdate block holding its next value. Its keys
# are every field a ClientStore or a checkpoint may hold.
NEXT_VALUE = {"drift": "drift_plus", "last_delta": "delta", "scaffold_c": "c_plus"}


class ClientStore:
    """Persistent state of every client, one row per client id.

    Holds `n_samples` and one (n_clients, P) float64 array per field the
    algorithm reads (its RULES fields). The arrays start as `np.zeros`,
    whose pages stay unallocated until a row is written. Inactive
    clients keep their rows stale.
    """

    def __init__(self, n_samples, param_count: int, fields=()):
        unknown = set(fields) - set(NEXT_VALUE)
        if unknown:
            raise ParameterError(f"unknown client fields {sorted(unknown)}")
        self.fields = tuple(fields)
        self.n_samples = np.array(n_samples, dtype=np.int64)
        for name in self.fields:
            setattr(self, name, np.zeros((self.n_samples.size, param_count)))


SERVER_VECTORS = ("global_params", "global_delta", "scaffold_c", "dyn_corrector")


@dataclass(frozen=True)
class ServerState:
    """Round-start snapshot of everything the server owns.

    Beyond the aggregate parameters this also carries the feddyn server
    corrector (the cited method folds a running penalty-state into the
    global model) and the total client count scaffold's control update
    scales by. The four SERVER_VECTORS are finite (P,) float64 arrays;
    the state adopts the arrays it is given and marks them read-only.
    This is the one finiteness check of a run: once per init, per
    aggregate and per restore.
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

    `ids`, `n_samples` and `k_steps` are (C,) integer arrays; `theta`
    (the local parameters), `delta` (theta minus the round-start global
    parameters), `drift_plus` (the next drift h_i) and `c_plus` (the next
    scaffold control) are (C, P) blocks. A block the algorithm does not
    keep is None.
    """

    ids: np.ndarray
    n_samples: np.ndarray
    k_steps: np.ndarray
    theta: np.ndarray
    delta: np.ndarray
    drift_plus: np.ndarray | None
    c_plus: np.ndarray | None


def steps_per_round(n_samples: int, cfg: AlgoConfig) -> int:
    """K = local_epochs * ceil(n_i / batch_size), per client."""
    if n_samples < 1:
        raise PartitionError("a client with an empty partition has no steps")
    return cfg.local_epochs * math.ceil(n_samples / cfg.batch_size)


def round_lr(cfg: AlgoConfig, round_index: int) -> float:
    """Learning rate of a round: lr * decay^t, decayed once per round."""
    return cfg.lr * cfg.lr_decay**round_index


def _implied_grad(delta: np.ndarray, k_steps, lr_t: float) -> np.ndarray:
    """The mean step direction a round's update implies: -delta / (K * lr_t)."""
    return -delta / (k_steps * lr_t)


def _correction_terms(clients: ClientStore, ids, server: ServerState,
                      cfg: AlgoConfig, k_steps: int, lr_t: float):
    """Round-constant pieces of the per-step gradient of clients `ids`.

    Returns (pull, anchor, extra, has_extra): client c's step gradient is
    g + pull * (theta - anchor[c]) + extra[c], where anchor and extra
    are (len(ids), P) arrays, or None when the algorithm, its ablation
    or a zero coefficient turns the term off. A row of `extra` that is
    exactly zero is off for its client alone; `has_extra` masks it out,
    and is None when every row is on. Terms that are off are skipped
    rather than added, so the remaining arithmetic is bit-identical to
    the plain-SGD path.
    """
    g = server.global_params
    algo = cfg.algorithm
    pull, anchor, extra = 0.0, None, None
    if algo == "fedprox" and cfg.mu != 0.0:
        pull, anchor = cfg.mu, np.broadcast_to(g, (len(ids), g.size))
    elif algo == "scaffold":
        extra = server.scaffold_c - clients.scaffold_c[ids]
    elif algo == "feddyn":
        pull, anchor = cfg.alpha, g - clients.drift[ids]
    elif algo == "feddc":
        if "param_correction" in cfg.ablation and cfg.alpha != 0.0:
            pull, anchor = cfg.alpha, g - clients.drift[ids]
        if "grad_correction" in cfg.ablation:
            extra = (clients.last_delta[ids] - server.global_delta) / (k_steps * lr_t)
    has_extra = None
    if extra is not None:
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


def _feddc_terms(clients: ClientStore, client_id: int, server: ServerState,
                 cfg: AlgoConfig):
    """The correction terms of one feddc client, as (1, P) blocks."""
    if cfg.algorithm != "feddc":
        raise ParameterError("the drift-corrected objective is defined for feddc only")
    k = steps_per_round(int(clients.n_samples[client_id]), cfg)
    return _correction_terms(clients, [client_id], server, cfg, k, round_lr(cfg, server.round))


def feddc_local_objective(theta, clients: ClientStore, client_id: int,
                          server: ServerState, cfg: AlgoConfig, inputs, labels,
                          spec: ModelSpec) -> float:
    """Value of the drift-corrected local objective at theta, a (P,) array.

    The objective is the empirical loss plus 0.5 * pull * |theta - anchor|^2
    + theta . extra, so its gradient is the step gradient that
    :func:`_correction_terms` defines. Used by gradient checks against
    :func:`feddc_local_objective_grad`.
    """
    pull, anchor, extra, _ = _feddc_terms(clients, client_id, server, cfg)
    value = models.mean_loss(spec, theta, inputs, labels)
    if anchor is not None:
        gap = theta - anchor[0]
        value += 0.5 * pull * float(gap @ gap)
    if extra is not None:
        value += float(theta @ extra[0])
    return value


def feddc_local_objective_grad(theta, clients: ClientStore, client_id: int,
                               server: ServerState, cfg: AlgoConfig,
                               inputs, labels, spec: ModelSpec) -> np.ndarray:
    """Gradient of the drift-corrected local objective at theta, as training assembles it."""
    _, grad = models.loss_and_grad(spec, theta, inputs, labels)
    terms = _feddc_terms(clients, client_id, server, cfg)
    _add_terms(grad[None], theta[None], *terms, np.empty((1, grad.size)))
    return grad


def _local_sgd(theta, terms, inputs, labels, rngs, spec: ModelSpec,
               batch_size: int, k_steps: int, lr_t: float) -> None:
    """k_steps SGD steps on every row of the (C, P) block `theta`, in place.

    Row c trains on inputs[c] and labels[c] and shuffles them with
    rngs[c], one fresh permutation per epoch. `terms` are the
    (pull, anchor, extra, has_extra) of :func:`_correction_terms`.
    After the gradient kernel, a step adds weight decay and the terms
    and updates theta one column tile of at most BUDGET floats at a
    time (see :func:`models._tiles`), through one scratch tile, so
    every pass over a tile runs in cache.
    """
    c, n = len(labels), labels[0].shape[0]
    xp = np.empty((c, *inputs[0].shape), dtype=inputs[0].dtype)
    yp = np.empty((c, n), dtype=labels[0].dtype)
    grad = np.empty_like(theta)
    layers = models._split(spec, theta)
    glayers = models._split(spec, grad)
    grad_into, decay_into = models._grad_into, models._decay_into
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
    steps = 0
    while steps < k_steps:
        for r, rng in enumerate(rngs):
            order = rng.permutation(n)
            inputs[r].take(order, axis=0, out=xp[r])
            labels[r].take(order, out=yp[r])
        for lo in range(0, n, batch_size):
            batch = slice(lo, lo + batch_size)
            grad_into(layers, glayers, xp[:, batch], yp[:, batch])
            for g, th, tmp, decayed, an, ex in tiles:
                if decayed:
                    decay_into(wd, g, th, tmp)
                _add_terms(g, th, pull, an, ex, has_extra, tmp)
                np.multiply(g, lr_t, out=tmp)
                th -= tmp
            steps += 1
            if steps >= k_steps:
                break


def lockstep_groups(ids, n_samples, cap: int) -> list:
    """Clients `ids` grouped by sample count, each group cut into chunks of <= cap.

    Groups keep the ascending order of `ids` and come in the order of
    their smallest id.
    """
    groups = {}
    for i in sorted(ids):
        groups.setdefault(int(n_samples[i]), []).append(i)
    return [g[lo : lo + cap] for g in groups.values() for lo in range(0, len(g), cap)]


def run_local_rounds(clients: ClientStore, ids, server: ServerState, cfg: AlgoConfig,
                     client_data, spec: ModelSpec,
                     step_budget: int | None = None) -> RoundUpdate:
    """K local SGD steps for every client in `ids`: the round's RoundUpdate.

    client_data(i) gives client i's (inputs (n, input_dim), labels (n,),
    shuffle stream). Clients of equal stored sample count train in
    lockstep as one stacked block, in chunks of at most
    max(1, BUDGET // P) clients (see :func:`lockstep_groups`), and
    client_data is called chunk by chunk. Each row is bitwise the one
    its client would get training alone. theta starts at the round-start
    global parameters. Round-start snapshots (global parameters, the
    clients' stored rows, previous deltas) stay frozen for all K steps.
    The drift accumulator advances once per round by exactly the round's
    parameter update. The store is only read; :func:`apply_update`
    writes results.
    """
    ids = sorted(int(i) for i in ids)
    if not ids:
        raise DimensionError("a round needs at least one client")
    start = server.global_params
    lr_t = round_lr(cfg, server.round)
    shape = (len(ids), start.size)
    theta, delta = np.empty(shape), np.empty(shape)
    drift_plus = np.empty(shape) if "drift" in clients.fields else None
    c_plus = np.empty(shape) if "scaffold_c" in clients.fields else None
    n_samples, k_steps = np.empty(len(ids), dtype=np.int64), np.empty(len(ids), dtype=np.int64)
    for chunk in lockstep_groups(ids, clients.n_samples, max(1, BUDGET // start.size)):
        inputs, labels, rngs = zip(*(client_data(i) for i in chunk))
        n = inputs[0].shape[0]
        if any(x.shape != inputs[0].shape for x in inputs) or any(y.shape != (n,) for y in labels):
            raise DimensionError(f"clients {chunk} need (n, d) inputs and (n,) labels of one size")
        k_nominal = steps_per_round(n, cfg)
        k = k_nominal if step_budget is None else int(step_budget)
        if k < 1:
            raise ParameterError("step budget must be >= 1")
        terms = _correction_terms(clients, chunk, server, cfg, k_nominal, lr_t)
        block = np.repeat(start[None], len(chunk), axis=0)
        _local_sgd(block, terms, inputs, labels, rngs, spec, cfg.batch_size, k, lr_t)
        rows = np.searchsorted(ids, chunk)
        theta[rows] = block
        block -= start  # now the round's update, in place
        delta[rows] = block
        if drift_plus is not None:
            h = clients.drift[chunk]
            h += block
            drift_plus[rows] = h
        if c_plus is not None:
            c = clients.scaffold_c[chunk]
            c -= server.scaffold_c
            c += _implied_grad(block, k, lr_t)
            c_plus[rows] = c
        n_samples[rows] = n
        k_steps[rows] = k
    return RoundUpdate(np.array(ids), n_samples, k_steps, theta, delta, drift_plus, c_plus)


def run_local_round(clients: ClientStore, client_id: int, server: ServerState,
                    cfg: AlgoConfig, inputs: np.ndarray, labels: np.ndarray,
                    rng: np.random.Generator, spec: ModelSpec,
                    step_budget: int | None = None) -> RoundUpdate:
    """One client's :func:`run_local_rounds`: inputs (n, input_dim), labels (n,)."""
    return run_local_rounds(
        clients, [client_id], server, cfg, lambda _: (inputs, labels, rng), spec, step_budget
    )


def apply_update(clients: ClientStore, update: RoundUpdate) -> None:
    """Write a round's results into the store, one indexed assignment per field."""
    for name in clients.fields:
        getattr(clients, name)[update.ids] = getattr(update, NEXT_VALUE[name])


def weighted_mean(block, ws) -> np.ndarray:
    """Weighted mean of the rows of a (C, P) block, reproducible bit-for-bit.

    The value is sum_c (w_c / sum(ws)) * block[c], computed as a
    sequential row-order fold of the w_c * block[c] followed by one
    division by sum(ws). Two exactness guarantees follow from this
    arrangement plus an explicit short-circuit: a block of
    bitwise-identical rows averages to exactly that row (returned as a
    copy), and scaling every weight by a common factor leaves the output
    bits unchanged (weight sums are folded in the same order).
    """
    block = np.asarray(block, dtype=np.float64)
    warr = np.asarray(ws, dtype=np.float64)
    if block.ndim != 2 or warr.shape != block.shape[:1]:
        raise DimensionError(f"weighted_mean: {block.shape} block with {warr.shape} weights")
    if block.shape[0] == 0:
        raise EmptyAggregateError("weighted_mean of an empty block")
    total = 0.0
    for w in warr:
        total += float(w)
    if not (np.isfinite(warr).all() and (warr >= 0).all() and total > 0.0):
        raise WeightError(f"weights must be finite, nonnegative and not all zero, got {warr}")

    base = block[0]
    if not any((row - base).any() for row in block[1:]):
        return base.copy()
    acc = warr[0] * base
    for w, row in zip(warr[1:], block[1:]):
        acc += w * row
    acc /= total
    return acc


def server_aggregate(server: ServerState, update: RoundUpdate, cfg: AlgoConfig) -> ServerState:
    """Fold a round's update into the next server state.

    The rows are folded in their ascending client-id order, so the
    order clients trained in cannot change the result.
    """
    if cfg.aggregation_weighting == "by_samples":
        ws = update.n_samples.astype(np.float64)
    else:
        ws = np.ones(len(update.ids))
    algo = cfg.algorithm

    global_delta = weighted_mean(update.delta, ws)
    scaffold_c = server.scaffold_c
    dyn_corrector = server.dyn_corrector

    if algo == "feddc":
        new_global = weighted_mean(update.theta + update.drift_plus, ws)
    elif algo in ("fedavg", "fedprox"):
        new_global = weighted_mean(update.theta, ws)
    elif algo == "scaffold":
        new_global = server.global_params + global_delta
        # c_i+ - c_i reconstructs from the upload: -c + the implied gradient
        lr_t = round_lr(cfg, server.round)
        c_deltas = -server.scaffold_c + _implied_grad(update.delta, update.k_steps[:, None], lr_t)
        mean_cd = weighted_mean(c_deltas, np.ones(len(update.ids)))
        scale = len(update.ids) / server.n_clients
        scaffold_c = server.scaffold_c + scale * mean_cd
    elif algo == "feddyn":
        scale = cfg.alpha * len(update.ids) / server.n_clients
        dyn_corrector = server.dyn_corrector - scale * global_delta
        new_global = weighted_mean(update.theta, ws) - dyn_corrector / cfg.alpha
    else:  # pragma: no cover - exhaustive over ALGORITHMS
        raise ParameterError(f"unknown algorithm {algo!r}")

    return replace(
        server,
        global_params=new_global,
        global_delta=global_delta,
        scaffold_c=scaffold_c,
        dyn_corrector=dyn_corrector,
        round=server.round + 1,
    )


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
    g = _implied_grad(update.delta, update.k_steps[:, None], round_lr(cfg, server.round))
    g -= g.sum(axis=0) / n
    np.square(g, out=g)  # in place, like the centring: no second (C, P) block
    return float(np.mean(g.sum(axis=1)))
