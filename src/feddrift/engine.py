"""Experiment orchestration: the round loop, metrics, and checkpoints.

A run is deterministic given its config: datasets, client sampling,
minibatch shuffles, and initialization all come from counter-based
streams keyed by (seed, purpose, client, round), so resuming from a
checkpoint replays exactly the rounds an uninterrupted run would have
produced. Wall-clock timings are recorded but are the one field outside
the determinism contract.
"""

from __future__ import annotations

import json
import os
import struct
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import models
from .data import (
    FederatedDataset,
    PartitionPlan,
    SyntheticConfig,
    generate_synthetic,
    load_mnist_idx,
    partition,
)
from .errors import (
    DimensionError,
    EmptyEvaluationError,
    FormatError,
    LengthError,
    ParameterError,
    RunError,
    VersionError,
)
from .federation import (
    BYTES_PER_PARAM,
    NEXT_VALUE,
    RULES,
    SERVER_VECTORS,
    AlgoConfig,
    ClientStore,
    ServerState,
    apply_update,
    gradient_variance_diagnostic,
    run_local_round,
    run_local_rounds,
    sample_active_set,
    server_aggregate,
    steps_per_round,
)
from .models import ModelSpec, init_params
from .rng import MAX_SEED, stream

__all__ = [
    "MnistConfig",
    "ExperimentConfig",
    "RoundRecord",
    "RunSummary",
    "FederatedRun",
    "run_experiment",
    "rounds_to_target",
    "summarize",
    "centralized_oracle",
    "checkpoint_save",
    "checkpoint_load",
    "write_records_csv",
    "write_summary_json",
    "CSV_HEADER",
    "dataset_label",
]

CSV_HEADER = (
    "round,algorithm,dataset,seed,test_accuracy,train_loss,"
    "bytes_up,bytes_down,grad_variance,wall_ms"
)

_CKPT_MAGIC = b"FDRC"
_CKPT_VERSION = 2
# The checkpoint header's integers, each in [its lower bound, 2**64).
_CKPT_INTS = {"round": 0, "n_clients": 1, "param_count": 1, "rng_seed": 0}


@dataclass(frozen=True)
class MnistConfig:
    """IDX-file dataset plus how to deal it to clients."""

    train_images: str
    train_labels: str
    test_images: str
    test_labels: str
    n_clients: int = 100
    plan: PartitionPlan = field(default_factory=PartitionPlan)
    subsample: int | None = None  # keep only the first n train samples

    def __post_init__(self):
        if self.n_clients < 1:
            raise ParameterError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.subsample is not None and self.subsample < 1:
            raise ParameterError("subsample must be >= 1 when given")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: object  # SyntheticConfig | MnistConfig | prebuilt FederatedDataset
    model: ModelSpec
    algo: AlgoConfig
    rounds: int
    eval_every: int = 1
    target_accuracies: tuple = ()
    seed: int = 0
    stop_at_target: float | None = None

    def __post_init__(self):
        if self.rounds < 1:
            raise ParameterError(f"rounds must be >= 1, got {self.rounds}")
        if self.eval_every < 1:
            raise ParameterError(f"eval_every must be >= 1, got {self.eval_every}")
        targets = tuple(float(t) for t in self.target_accuracies)
        if any(not 0 < t < 1 for t in targets):
            raise ParameterError(f"targets must lie in (0, 1), got {targets}")
        object.__setattr__(self, "target_accuracies", targets)
        if self.stop_at_target is not None and not 0 < self.stop_at_target < 1:
            raise ParameterError("stop_at_target must lie in (0, 1) when given")


@dataclass(frozen=True)
class RoundRecord:
    round: int
    test_accuracy: float | None
    train_loss: float | None
    bytes_up: int
    bytes_down: int
    grad_variance: float | None
    wall_ms: int


@dataclass(frozen=True)
class RunSummary:
    rounds_to_target: dict
    best_accuracy: float
    speedup_vs_baseline: float | None = None


def build_dataset(dataset_cfg) -> FederatedDataset:
    if isinstance(dataset_cfg, FederatedDataset):
        return dataset_cfg
    if isinstance(dataset_cfg, SyntheticConfig):
        return generate_synthetic(dataset_cfg)
    if isinstance(dataset_cfg, MnistConfig):
        x, y = load_mnist_idx(dataset_cfg.train_images, dataset_cfg.train_labels)
        xt, yt = load_mnist_idx(dataset_cfg.test_images, dataset_cfg.test_labels)
        if dataset_cfg.subsample is not None:  # copies, so the full decode is freed
            x, y = x[: dataset_cfg.subsample].copy(), y[: dataset_cfg.subsample].copy()
        plan = dataset_cfg.plan
        tag = "iid" if plan.mode == "iid" else f"d{plan.conc:g}"
        if plan.balance == "lognormal":
            tag += "-unbalanced"
        return FederatedDataset(
            train_inputs=x,
            train_labels=y,
            test_inputs=xt,
            test_labels=yt,
            partitions=tuple(partition(y, dataset_cfg.n_clients, plan)),
            num_classes=int(max(y.max(), yt.max())) + 1,
            label=f"mnist-{tag}",
        )
    raise ParameterError(f"unsupported dataset config {type(dataset_cfg).__name__}")


def dataset_label(ds: FederatedDataset) -> str:
    """The dataset's name in records.csv."""
    return ds.label


class FederatedRun:
    """One deterministic experiment: immutable config, mutable progress."""

    def __init__(self, cfg: ExperimentConfig, dataset: FederatedDataset | None = None):
        self.cfg = cfg
        self.dataset = dataset if dataset is not None else build_dataset(cfg.dataset)
        ds = self.dataset
        if ds.train_inputs.shape[1] != cfg.model.input_dim:
            raise DimensionError(
                f"dataset has {ds.train_inputs.shape[1]} features, "
                f"model expects {cfg.model.input_dim}"
            )
        if ds.num_classes > cfg.model.num_classes:
            raise DimensionError(
                f"dataset has {ds.num_classes} classes, model only {cfg.model.num_classes}"
            )
        init = init_params(cfg.model, stream(cfg.seed, "global-init"))
        self.server = ServerState.fresh(init, ds.n_clients, cfg.seed)
        self.clients = ClientStore(
            [len(p) for p in ds.partitions],
            cfg.model.param_count,
            RULES[cfg.algo.algorithm].fields,
        )
        self.records: list[RoundRecord] = []

    @property
    def round(self) -> int:
        return self.server.round

    def run_round(self) -> RoundRecord:
        cfg = self.cfg
        t = self.server.round

        def client_data(i):
            x, y = self.dataset.client_arrays(i)
            return x, y, stream(cfg.seed, "batch-shuffle", client=i, round_index=t)

        start = time.perf_counter()
        try:
            # A diverging round overflows without warnings: ServerState is
            # the one finiteness check, and the error names the round.
            with np.errstate(over="ignore", invalid="ignore"):
                active = sample_active_set(
                    self.dataset.n_clients,
                    cfg.algo.participation,
                    t,
                    stream(cfg.seed, "participation", round_index=t),
                )
                update = run_local_rounds(
                    self.clients, active, self.server, cfg.algo, client_data, cfg.model
                )
                grad_var = gradient_variance_diagnostic(update, self.server, cfg.algo)
                self.server = server_aggregate(self.server, update, cfg.algo)
            apply_update(self.clients, update)
        except Exception as exc:
            raise RunError(f"round {t + 1}: {exc}") from exc

        vector_bytes = len(active) * BYTES_PER_PARAM * self.server.global_params.size
        rule = RULES[cfg.algo.algorithm]
        rec = _record(
            cfg,
            self.server,
            self.dataset,
            start,
            bytes_up=rule.up * vector_bytes,
            bytes_down=rule.down * vector_bytes,
            grad_variance=grad_var,
        )
        self.records.append(rec)
        return rec

    def run_to_completion(self):
        cfg = self.cfg
        while self.server.round < cfg.rounds:
            rec = self.run_round()
            if (
                cfg.stop_at_target is not None
                and rec.test_accuracy is not None
                and rec.test_accuracy >= cfg.stop_at_target
            ):
                break
        return self.records, summarize(self.records, cfg.target_accuracies)


def _record(cfg: ExperimentConfig, server: ServerState, ds: FederatedDataset, start: float,
            bytes_up: int = 0, bytes_down: int = 0, grad_variance=None) -> RoundRecord:
    """The record of the round `server` has just aggregated, begun at `start`.

    On the rounds the evaluation cadence names, and always on the last,
    it holds the global model's top-1 accuracy on the pooled test set
    and its loss over the training set, the union of the partitions.
    """
    test_acc = train_loss = None
    if server.round % cfg.eval_every == 0 or server.round == cfg.rounds:
        params = server.global_params
        test_acc = models.accuracy(cfg.model, params, ds.test_inputs, ds.test_labels)
        train_loss = models.mean_loss(cfg.model, params, ds.train_inputs, ds.train_labels)
    return RoundRecord(
        round=server.round,
        test_accuracy=test_acc,
        train_loss=train_loss,
        bytes_up=bytes_up,
        bytes_down=bytes_down,
        grad_variance=grad_variance,
        wall_ms=int(round((time.perf_counter() - start) * 1000)),
    )


def run_experiment(cfg: ExperimentConfig, dataset: FederatedDataset | None = None):
    """Execute a full run; returns (records, summary)."""
    return FederatedRun(cfg, dataset).run_to_completion()


def rounds_to_target(records, target: float):
    """First round whose recorded test accuracy meets the target, else None."""
    records = list(records)
    if not records:
        raise EmptyEvaluationError("rounds_to_target over no records")
    for rec in records:
        if rec.test_accuracy is not None and rec.test_accuracy >= target:
            return rec.round
    return None


def summarize(records, targets) -> RunSummary:
    accs = [r.test_accuracy for r in records if r.test_accuracy is not None]
    best = max(accs) if accs else float("nan")
    return RunSummary(
        rounds_to_target={t: rounds_to_target(records, t) for t in targets},
        best_accuracy=best,
    )


def centralized_oracle(cfg: ExperimentConfig, fed_params=None,
                       dataset: FederatedDataset | None = None):
    """Plain SGD on the pooled training data at matched compute.

    Runs one pseudo-client over the union of all partitions for
    cfg.rounds rounds of round(mean K_i) SGD steps each, with the same
    initialization stream, learning-rate schedule, evaluation cadence
    and records as the federated run. `fed_params`, when given, pairs
    rounds with a federated run's global parameters (collected by the
    caller, stepping `FederatedRun.run_round` under the same seed); the
    second result is then the L2 distance between the two parameter
    trajectories at each of those rounds, else None.
    """
    ds = dataset if dataset is not None else build_dataset(cfg.dataset)
    algo = replace(cfg.algo, algorithm="fedavg")
    budget = max(
        1, round(float(np.mean([steps_per_round(p.size, algo) for p in ds.partitions])))
    )
    init = init_params(cfg.model, stream(cfg.seed, "global-init"))
    server = ServerState.fresh(init, 1, cfg.seed)
    client = ClientStore([len(ds.train_labels)], cfg.model.param_count, RULES["fedavg"].fields)
    fed_by_round = dict(fed_params or ())
    records, distances = [], []
    for t in range(cfg.rounds):
        start = time.perf_counter()
        rng = stream(cfg.seed, "batch-shuffle", client=0, round_index=t)
        with np.errstate(over="ignore", invalid="ignore"):  # as in FederatedRun.run_round
            up = run_local_round(
                client, 0, server, algo, ds.train_inputs, ds.train_labels, rng, cfg.model,
                step_budget=budget,
            )
            server = server_aggregate(server, up, algo)
        records.append(_record(cfg, server, ds, start))
        if server.round in fed_by_round:
            gap = fed_by_round[server.round] - server.global_params
            distances.append((server.round, float(np.linalg.norm(gap))))
    return records, distances if fed_params is not None else None


# ---------------------------------------------------------------------------
# Checkpoints, format v2: magic, (version, header length), a JSON header,
# then little-endian float64 blocks with no padding: the four server
# vectors (P values each), then one (n_clients, P) block per client field
# the header names. The file ends there; anything after it is an error.
# ---------------------------------------------------------------------------

def _read_block(fh, out: np.ndarray, path) -> None:
    """Fill `out` from the file in one read, with no intermediate copy."""
    want = out.nbytes
    got = fh.readinto(memoryview(out).cast("B"))
    if got != want:
        raise LengthError(f"{path}: truncated checkpoint ({got} of {want} bytes in a block)")


def checkpoint_save(path, server: ServerState, clients: ClientStore) -> None:
    """Write a checkpoint to `path` + ".tmp", then rename it over `path`.

    A save that fails partway leaves an earlier checkpoint at `path`
    intact and removes its temp file. The rename guards against a crash
    of this process; the file is not fsynced.
    """
    header = {
        "round": server.round,
        "n_clients": server.n_clients,
        "param_count": server.global_params.size,
        "rng_seed": server.rng_seed,
        "n_samples": clients.n_samples.tolist(),
        "fields": list(clients.fields),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CKPT_MAGIC)
            fh.write(struct.pack("<II", _CKPT_VERSION, len(blob)))
            fh.write(blob)
            for name in SERVER_VECTORS:
                fh.write(getattr(server, name).astype("<f8", copy=False))
            for name in clients.fields:
                fh.write(getattr(clients, name).astype("<f8", copy=False))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _checked_header(blob: bytes, path) -> dict:
    """The checkpoint header, once each value has its JSON type and range."""
    try:
        header = json.loads(blob.decode("utf-8"))
        for key, lo in _CKPT_INTS.items():
            if type(header[key]) is not int or not lo <= header[key] < MAX_SEED:
                raise ValueError(f"{key} = {header[key]!r}, expected an integer in [{lo}, 2**64)")
        counts, fields = header["n_samples"], header["fields"]
        if not (isinstance(counts, list) and len(counts) == header["n_clients"]
                and all(type(n) is int and n >= 0 for n in counts)):
            raise ValueError(f"n_samples = {counts!r}, expected {header['n_clients']} counts")
        if not (isinstance(fields, list) and all(f in NEXT_VALUE for f in fields)
                and len(set(fields)) == len(fields)):
            raise ValueError(f"fields = {fields!r}, expected distinct client field names")
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: unreadable checkpoint header: {exc}") from exc
    return header


def checkpoint_load(path):
    """Returns (server, clients) exactly as saved; checks the header and size first."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CKPT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic {magic!r}")
        raw = fh.read(8)
        if len(raw) != 8:
            raise LengthError(f"{path}: truncated checkpoint header")
        version, hlen = struct.unpack("<II", raw)
        if version != _CKPT_VERSION:
            raise VersionError(
                f"{path}: checkpoint version {version}, expected {_CKPT_VERSION}"
            )
        blob = fh.read(hlen)
        if len(blob) != hlen:
            raise LengthError(f"{path}: truncated checkpoint header payload")
        header = _checked_header(blob, path)
        param_count = header["param_count"]
        rows = len(SERVER_VECTORS) + header["n_clients"] * len(header["fields"])
        want = 12 + hlen + rows * param_count * 8
        size = os.fstat(fh.fileno()).st_size
        if size != want:
            raise LengthError(f"{path}: checkpoint header implies {want} bytes, file holds {size}")
        clients = ClientStore(header["n_samples"], param_count, header["fields"])
        vectors = {name: np.zeros(param_count) for name in SERVER_VECTORS}
        for vec in vectors.values():
            _read_block(fh, vec, path)
        # Row by row, so rows saved as all-zero bits (clients that never
        # trained) stay unallocated in the fresh store; -0.0 still loads.
        row = np.empty(param_count)
        for name in clients.fields:
            block = getattr(clients, name)
            for i in range(block.shape[0]):
                _read_block(fh, row, path)
                if row.view(np.uint64).any():
                    block[i] = row
    server = ServerState(
        **vectors,
        round=header["round"],
        n_clients=header["n_clients"],
        rng_seed=header["rng_seed"],
    )
    return server, clients


def checkpoint_restore(run: FederatedRun, path) -> FederatedRun:
    """Load saved states into a freshly built run of the same config."""
    server, clients = checkpoint_load(path)
    if server.n_clients != run.dataset.n_clients:
        raise FormatError(
            f"checkpoint holds {server.n_clients} clients, run has {run.dataset.n_clients}"
        )
    if server.global_params.size != run.cfg.model.param_count:
        raise FormatError(
            f"checkpoint holds {server.global_params.size} parameters, "
            f"model expects {run.cfg.model.param_count}"
        )
    if server.rng_seed != run.cfg.seed:
        raise FormatError(
            f"checkpoint was saved with seed {server.rng_seed}, the run has seed {run.cfg.seed}"
        )
    if not np.array_equal(clients.n_samples, run.clients.n_samples):
        raise FormatError("checkpoint client sample counts differ from the run's partitions")
    if clients.fields != run.clients.fields:
        raise FormatError(
            f"checkpoint holds client fields {list(clients.fields)}, "
            f"{run.cfg.algo.algorithm} reads {list(run.clients.fields)}"
        )
    run.server = server
    run.clients = clients
    return run


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_records_csv(path, records, algorithm: str, dataset: str, seed: int) -> None:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    str(r.round),
                    algorithm,
                    dataset,
                    str(seed),
                    _fmt(r.test_accuracy),
                    _fmt(r.train_loss),
                    str(r.bytes_up),
                    str(r.bytes_down),
                    _fmt(r.grad_variance),
                    str(r.wall_ms),
                ]
            )
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_json(path, summary: RunSummary) -> None:
    payload = {
        "best_accuracy": summary.best_accuracy,
        "rounds_to_target": {repr(t): n for t, n in summary.rounds_to_target.items()},
        "speedup_vs_baseline": summary.speedup_vs_baseline,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
