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
from dataclasses import dataclass, replace

import numpy as np

from . import models
from .errors import (
    DimensionError,
    EmptyAggregateError,
    ParameterError,
    PartitionError,
)
from .models import ModelSpec
from .rng import RngStream
from .vectors import ParamVector, weighted_mean

__all__ = [
    "ALGORITHMS",
    "ABLATION_TERMS",
    "FULL_ABLATION",
    "CLIENT_FIELDS",
    "AlgoConfig",
    "ClientStore",
    "ServerState",
    "ClientUpdate",
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
    "upload_vectors",
    "download_vectors",
]

ALGORITHMS = ("fedavg", "fedprox", "scaffold", "feddyn", "feddc")
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


# The per-client vectors each algorithm reads across rounds: feddc its
# drift h_i and previous local update, feddyn its accumulated local
# updates, scaffold its control variate c_i.
CLIENT_FIELDS = {
    "fedavg": (),
    "fedprox": (),
    "scaffold": ("scaffold_c",),
    "feddyn": ("drift",),
    "feddc": ("drift", "last_delta"),
}

# Store field -> the ClientUpdate attribute holding its next value.
_NEXT_VALUE = {"drift": "drift_plus", "last_delta": "delta", "scaffold_c": "scaffold_c_plus"}


class ClientStore:
    """Persistent state of every client, one row per client id.

    Holds `n_samples` and one (n_clients, P) float64 array per field the
    algorithm reads (see CLIENT_FIELDS). The arrays start as `np.zeros`,
    whose pages stay unallocated until a row is written. Inactive
    clients keep their rows stale.
    """

    def __init__(self, n_samples, param_count: int, fields=()):
        unknown = set(fields) - set(_NEXT_VALUE)
        if unknown:
            raise ParameterError(f"unknown client fields {sorted(unknown)}")
        self.fields = tuple(fields)
        self.n_samples = np.array(n_samples, dtype=np.int64)
        for name in self.fields:
            setattr(self, name, np.zeros((self.n_samples.size, param_count)))


@dataclass(frozen=True)
class ServerState:
    """Round-start snapshot of everything the server owns.

    Beyond the aggregate parameters this also carries the feddyn server
    corrector (the cited method folds a running penalty-state into the
    global model) and the total client count scaffold's control update
    scales by.
    """

    global_params: ParamVector
    global_delta: ParamVector
    scaffold_c: ParamVector
    dyn_corrector: ParamVector
    round: int
    n_clients: int
    rng_seed: int

    @classmethod
    def fresh(cls, global_params: ParamVector, n_clients: int, rng_seed: int):
        zero = ParamVector.zeros(len(global_params))
        return cls(
            global_params=global_params,
            global_delta=zero,
            scaffold_c=zero,
            dyn_corrector=zero,
            round=0,
            n_clients=int(n_clients),
            rng_seed=int(rng_seed),
        )


@dataclass(frozen=True)
class ClientUpdate:
    """One client's round result; state fields its algorithm does not keep are None."""

    client_id: int
    theta_plus: ParamVector
    drift_plus: ParamVector | None
    delta: ParamVector
    scaffold_c_plus: ParamVector | None
    n_samples: int
    k_steps: int
    bytes_up: int


def steps_per_round(n_samples: int, cfg: AlgoConfig) -> int:
    """K = local_epochs * ceil(n_i / batch_size), per client."""
    if n_samples < 1:
        raise PartitionError("client has no samples")
    return cfg.local_epochs * math.ceil(n_samples / cfg.batch_size)


def round_lr(cfg: AlgoConfig, round_index: int) -> float:
    """Learning rate of a round: lr * decay^t, decayed once per round."""
    return cfg.lr * cfg.lr_decay**round_index


def _implied_grad(delta: np.ndarray, k_steps: int, lr_t: float) -> np.ndarray:
    """The mean step direction a round's update implies: -delta / (K * lr_t)."""
    return -delta / (k_steps * lr_t)


def _correction_terms(clients: ClientStore, ids, server: ServerState,
                      cfg: AlgoConfig, k_steps: int, lr_t: float):
    """Round-constant pieces of the per-step gradient of clients `ids`.

    Returns (pull, anchor, extra): client c's step gradient is
    g + pull * (theta - anchor[c]) + extra[c], where anchor and extra
    are (len(ids), P) arrays, or None when the algorithm, its ablation
    or a zero coefficient turns the term off. A row of `extra` that is
    exactly zero is off for its client alone. Terms that are off are
    skipped rather than added, so the remaining arithmetic is
    bit-identical to the plain-SGD path.
    """
    g = server.global_params.values
    algo = cfg.algorithm
    if algo == "fedavg":
        return 0.0, None, None
    if algo == "fedprox":
        if cfg.mu == 0.0:
            return 0.0, None, None
        return cfg.mu, np.broadcast_to(g, (len(ids), g.size)), None
    if algo == "scaffold":
        return 0.0, None, server.scaffold_c.values - clients.scaffold_c[ids]
    if algo == "feddyn":
        return cfg.alpha, g - clients.drift[ids], None
    # feddc
    pull, anchor, extra = 0.0, None, None
    if "param_correction" in cfg.ablation and cfg.alpha != 0.0:
        pull, anchor = cfg.alpha, g - clients.drift[ids]
    if "grad_correction" in cfg.ablation:
        extra = (clients.last_delta[ids] - server.global_delta.values) / (k_steps * lr_t)
    return pull, anchor, extra


def _feddc_terms(clients: ClientStore, client_id: int, server: ServerState,
                 cfg: AlgoConfig):
    """(pull, anchor, extra) of one feddc client, each vector (P,) or None."""
    if cfg.algorithm != "feddc":
        raise ParameterError("the drift-corrected objective is defined for feddc only")
    k = steps_per_round(int(clients.n_samples[client_id]), cfg)
    pull, anchor, extra = _correction_terms(
        clients, [client_id], server, cfg, k, round_lr(cfg, server.round)
    )
    anchor = None if anchor is None else anchor[0]
    extra = extra[0] if extra is not None and extra[0].any() else None
    return pull, anchor, extra


def feddc_local_objective(theta: ParamVector, clients: ClientStore, client_id: int,
                          server: ServerState, cfg: AlgoConfig, batch: models.Batch,
                          spec: ModelSpec) -> float:
    """Value of the drift-corrected local objective at theta.

    The objective is the empirical loss plus 0.5 * pull * |theta - anchor|^2
    + theta . extra, so its gradient is the step gradient that
    :func:`_correction_terms` defines. Used by gradient checks against
    :func:`feddc_local_objective_grad`.
    """
    pull, anchor, extra = _feddc_terms(clients, client_id, server, cfg)
    value = models.mean_loss(spec, theta, batch.inputs, batch.labels)
    if anchor is not None:
        gap = theta.values - anchor
        value += 0.5 * pull * float(gap @ gap)
    if extra is not None:
        value += float(theta.values @ extra)
    return value


def feddc_local_objective_grad(theta: ParamVector, clients: ClientStore, client_id: int,
                               server: ServerState, cfg: AlgoConfig,
                               batch: models.Batch, spec: ModelSpec) -> ParamVector:
    """Gradient of the drift-corrected local objective at theta."""
    pull, anchor, extra = _feddc_terms(clients, client_id, server, cfg)
    _, grad = models.loss_and_grad(spec, theta, batch)
    out = grad.values.copy()
    if anchor is not None:
        out += pull * (theta.values - anchor)
    if extra is not None:
        out += extra
    return ParamVector(out)


def _local_sgd(theta, pull, anchor, extra, inputs, labels, rngs, spec: ModelSpec,
               batch_size: int, k_steps: int, lr_t: float) -> None:
    """k_steps SGD steps on every row of the (C, P) block `theta`, in place.

    Row c trains on inputs[c] and labels[c] and shuffles them with
    rngs[c], one fresh permutation per epoch. `anchor` and `extra` are
    (C, P) arrays or None (see :func:`_correction_terms`). A row of
    `extra` that is exactly zero is skipped, not added: adding +0.0
    would flip the sign bit of a -0.0 gradient entry.
    """
    n = labels[0].shape[0]
    xp = np.empty((len(inputs), *inputs[0].shape), dtype=inputs[0].dtype)
    yp = np.empty((len(labels), n), dtype=labels[0].dtype)
    grad = np.empty_like(theta)
    layers = models._split(spec, theta)
    glayers = models._split(spec, grad)
    grad_into = models._grad_into
    wd = spec.weight_decay
    has_extra = None if extra is None else extra.any(axis=1)[:, None]
    steps = 0
    while steps < k_steps:
        for r, rng in enumerate(rngs):
            order = rng.permutation(n)
            inputs[r].take(order, axis=0, out=xp[r])
            labels[r].take(order, out=yp[r])
        for lo in range(0, n, batch_size):
            batch = slice(lo, lo + batch_size)
            grad_into(wd, layers, glayers, xp[:, batch], yp[:, batch])
            if anchor is not None:
                grad += pull * (theta - anchor)
            if extra is not None:
                np.add(grad, extra, out=grad, where=has_extra)
            theta -= lr_t * grad
            steps += 1
            if steps >= k_steps:
                break


def run_local_rounds(clients: ClientStore, ids, server: ServerState, cfg: AlgoConfig,
                     inputs, labels, rngs, spec: ModelSpec,
                     step_budget: int | None = None) -> list:
    """K local SGD steps of clients `ids` in lockstep; one ClientUpdate each, in order.

    The clients hold equally many samples: inputs[c] is client ids[c]'s
    (n, input_dim) array, labels[c] its (n,) labels, and rngs[c] the
    stream that shuffles them. Each client's update is bitwise the one
    it would get training alone. theta starts at the round-start global
    parameters. Round-start snapshots (global parameters, the clients'
    stored rows, previous deltas) stay frozen for all K steps. The drift
    accumulator advances once per round by exactly the round's parameter
    update. The store is only read; :func:`apply_update` writes results.
    """
    ids = [int(i) for i in ids]
    if not 0 < len(ids) == len(inputs) == len(labels) == len(rngs):
        raise DimensionError(
            f"{len(ids)} clients need as many inputs, labels and streams, "
            f"got {len(inputs)}, {len(labels)} and {len(rngs)}"
        )
    n = inputs[0].shape[0]
    if any(x.shape != inputs[0].shape for x in inputs) or any(y.shape != (n,) for y in labels):
        raise DimensionError(f"clients {ids} need (n, d) inputs and (n,) labels of one size")
    if n == 0:
        raise PartitionError(f"clients {ids}: empty partitions")
    k_nominal = steps_per_round(n, cfg)
    k_steps = k_nominal if step_budget is None else int(step_budget)
    if k_steps < 1:
        raise ParameterError("step budget must be >= 1")
    lr_t = round_lr(cfg, server.round)
    pull, anchor, extra = _correction_terms(clients, ids, server, cfg, k_nominal, lr_t)
    start = server.global_params.values
    bytes_up = upload_vectors(cfg) * BYTES_PER_PARAM * start.size

    theta = np.repeat(start[None], len(ids), axis=0)
    _local_sgd(
        theta, pull, anchor, extra, inputs, labels, rngs,
        spec, cfg.batch_size, k_steps, lr_t,
    )
    delta = theta - start
    drift_plus = c_plus = None
    if "drift" in clients.fields:
        drift_plus = clients.drift[ids] + delta
    if "scaffold_c" in clients.fields:
        c_plus = (
            clients.scaffold_c[ids]
            - server.scaffold_c.values
            + _implied_grad(delta, k_steps, lr_t)
        )
    return [
        ClientUpdate(
            client_id=client_id,
            theta_plus=ParamVector._wrap(theta[r]),
            drift_plus=None if drift_plus is None else ParamVector._wrap(drift_plus[r]),
            delta=ParamVector._wrap(delta[r]),
            scaffold_c_plus=None if c_plus is None else ParamVector._wrap(c_plus[r]),
            n_samples=n,
            k_steps=k_steps,
            bytes_up=bytes_up,
        )
        for r, client_id in enumerate(ids)
    ]


def run_local_round(clients: ClientStore, client_id: int, server: ServerState,
                    cfg: AlgoConfig, inputs: np.ndarray, labels: np.ndarray,
                    rng: RngStream, spec: ModelSpec,
                    step_budget: int | None = None) -> ClientUpdate:
    """One client's :func:`run_local_rounds`: inputs (n, input_dim), labels (n,)."""
    return run_local_rounds(
        clients, [client_id], server, cfg, [inputs], [labels], [rng], spec, step_budget
    )[0]


def apply_update(clients: ClientStore, update: ClientUpdate) -> None:
    """Write one client's round result into its rows of the store."""
    for name in clients.fields:
        getattr(clients, name)[update.client_id] = getattr(update, _NEXT_VALUE[name]).values


def _agg_weights(updates, cfg: AlgoConfig):
    if cfg.aggregation_weighting == "by_samples":
        return [float(u.n_samples) for u in updates]
    return [1.0] * len(updates)


def server_aggregate(server: ServerState, updates, cfg: AlgoConfig) -> ServerState:
    """Fold the round's updates into the next server state.

    Updates are folded in ascending client-id order regardless of the
    order they arrived in, so concurrent client execution cannot change
    the result.
    """
    updates = sorted(updates, key=lambda u: u.client_id)
    if not updates:
        raise EmptyAggregateError("server_aggregate with no client updates")
    ws = _agg_weights(updates, cfg)
    deltas = [u.delta for u in updates]
    algo = cfg.algorithm

    global_delta = weighted_mean(deltas, ws)
    scaffold_c = server.scaffold_c
    dyn_corrector = server.dyn_corrector

    if algo == "feddc":
        corrected = [u.theta_plus + u.drift_plus for u in updates]
        new_global = weighted_mean(corrected, ws)
    elif algo in ("fedavg", "fedprox"):
        new_global = weighted_mean([u.theta_plus for u in updates], ws)
    elif algo == "scaffold":
        new_global = server.global_params + global_delta
        # c_i+ - c_i reconstructs from the upload: -c + the implied gradient
        lr_t = round_lr(cfg, server.round)
        c_deltas = [
            ParamVector(
                -server.scaffold_c.values + _implied_grad(u.delta.values, u.k_steps, lr_t)
            )
            for u in updates
        ]
        mean_cd = weighted_mean(c_deltas, [1.0] * len(c_deltas))
        scale = len(updates) / server.n_clients
        scaffold_c = ParamVector(server.scaffold_c.values + scale * mean_cd.values)
    elif algo == "feddyn":
        scale = cfg.alpha * len(updates) / server.n_clients
        dyn_corrector = ParamVector(
            server.dyn_corrector.values - scale * global_delta.values
        )
        mean_theta = weighted_mean([u.theta_plus for u in updates], ws)
        new_global = ParamVector(
            mean_theta.values - dyn_corrector.values / cfg.alpha
        )
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
                      rng: RngStream) -> list:
    """Sorted ids of this round's active clients, uniform without replacement."""
    if not (0 < participation <= 1):
        raise ParameterError(f"participation must be in (0, 1], got {participation!r}")
    count = min(n_clients, max(1, round(participation * n_clients)))
    del round_index  # identity lives in the rng key; kept for call-site clarity
    return sorted(int(i) for i in rng.permutation(n_clients)[:count])


def gradient_variance_diagnostic(updates, server: ServerState, cfg: AlgoConfig):
    """Empirical variance of implied local gradients, or None if < 2 updates.

    Each client's round update implies an average step direction
    g_i = -delta_i / (K_i * lr_t); the diagnostic is the mean squared
    distance of the g_i from their mean. Recorded per round, never
    asserted against a closed-form bound.
    """
    updates = sorted(updates, key=lambda u: u.client_id)
    if len(updates) < 2:
        return None
    lr_t = round_lr(cfg, server.round)

    def implied(u):
        return _implied_grad(u.delta.values, u.k_steps, lr_t)

    # Two passes, no (n, P) stack; the sums run in the stacked form's order.
    center = implied(updates[0])
    for u in updates[1:]:
        center += implied(u)
    center /= len(updates)
    return float(np.mean([float(np.sum((implied(u) - center) ** 2)) for u in updates]))


def upload_vectors(cfg: AlgoConfig) -> int:
    """Vectors a client sends per round.

    scaffold also uploads its control-variate update; feddc sends
    theta + h pre-summed as one vector.
    """
    return 2 if cfg.algorithm == "scaffold" else 1


def download_vectors(cfg: AlgoConfig) -> int:
    """Vectors a client receives per round.

    feddc ships the global parameters and the previous global delta;
    scaffold ships the parameters and the server control variate; the
    rest ship parameters only.
    """
    return 2 if cfg.algorithm in ("feddc", "scaffold") else 1
