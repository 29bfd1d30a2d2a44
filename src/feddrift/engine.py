"""Experiment orchestration: the round loop, metrics, and checkpoints.

A run is deterministic given its config: datasets, client sampling,
minibatch shuffles, and initialization all come from counter-based
streams keyed by (seed, purpose, client, round), so resuming from a
checkpoint replays exactly the rounds an uninterrupted run would have
produced. Wall-clock timings are recorded but are the one field outside
the determinism contract.
"""

from __future__ import annotations

import csv
import ctypes
import errno
import json
import multiprocessing
import os
import pickle
import signal
import struct
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import federation, models
from .data import (
    FederatedDataset,
    PartitionPlan,
    SyntheticConfig,
    generate_synthetic,
    load_mnist_idx,
    partition,
)
from .errors import DimensionError, FedDriftError, FormatError, ParameterError, RunError
from .federation import (
    BYTES_PER_PARAM,
    RULES,
    SERVER_VECTORS,
    AlgoConfig,
    ClientStore,
    ServerState,
    apply_update,
    gradient_variance_diagnostic,
    one_blas_thread,
    run_local_rounds,
    sample_active_set,
    server_aggregate,
    slots_in_use,
)
from .federation import run_local_round  # noqa: F401  perfbench/tracing.py wraps it by name
from .models import ModelSpec, init_params
from .rng import _MAX_CLIENT, _MAX_ROUND, stream

__all__ = [
    "MnistConfig",
    "ExperimentConfig",
    "RoundRecord",
    "RunSummary",
    "FederatedRun",
    "run_experiment",
    "run_experiments",
    "rounds_to_target",
    "summarize",
    "checkpoint_save",
    "write_records_csv",
    "write_summary_json",
    "write_json",
    "CSV_HEADER",
    "dataset_label",
]

CSV_HEADER = (
    "round,algorithm,dataset,seed,test_accuracy,train_loss,"
    "bytes_up,bytes_down,grad_variance,wall_ms"
)

_CKPT_MAGIC = b"FDRC"
_CKPT_VERSION = 3

# The ValueErrors numpy raises for a shape past its index range or byte count.
_NUMPY_TOO_LARGE = ("Maximum allowed dimension exceeded", "array is too big")


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
        if not 1 <= self.n_clients <= _MAX_CLIENT:  # each client owns streams keyed by its id
            raise ParameterError(
                f"expected n_clients in [1, {_MAX_CLIENT}], got {self.n_clients}", "n_clients"
            )
        if self.subsample is not None and self.subsample < 1:
            raise ParameterError(f"expected subsample >= 1, got {self.subsample}", "subsample")

    @property
    def label(self) -> str:
        """The dataset's name in records.csv: its partition, e.g. "mnist-d0.3-unbalanced"."""
        tag = "iid" if self.plan.mode == "iid" else f"d{self.plan.conc:g}"
        return f"mnist-{tag}-unbalanced" if self.plan.balance == "lognormal" else f"mnist-{tag}"


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
        for name in ("rounds", "eval_every"):
            if getattr(self, name) < 1:
                raise ParameterError(f"expected {name} >= 1, got {getattr(self, name)}", name)
        if self.rounds > _MAX_ROUND:  # each round owns streams keyed by its index
            raise ParameterError(f"expected rounds <= {_MAX_ROUND}, got {self.rounds}", "rounds")
        targets = tuple(float(t) for t in self.target_accuracies)
        if any(not 0 < t < 1 for t in targets):
            raise ParameterError(
                f"expected target_accuracies in (0, 1), got {targets}", "target_accuracies"
            )
        object.__setattr__(self, "target_accuracies", targets)
        if self.stop_at_target is not None and not 0 < self.stop_at_target < 1:
            raise ParameterError(
                f"expected stop_at_target in (0, 1), got {self.stop_at_target!r}", "stop_at_target"
            )


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


@contextmanager
def _allocating(what: str):
    """Raise an allocation that fails in the block as one RunError naming `what`.

    That is numpy's MemoryError, its ValueError for a shape it cannot
    index, or an anonymous mapping's ENOMEM. Any other error passes.
    """
    try:
        yield
    except (MemoryError, ValueError, OSError) as exc:
        if not (isinstance(exc, MemoryError) or str(exc).startswith(_NUMPY_TOO_LARGE)
                or getattr(exc, "errno", None) == errno.ENOMEM):
            raise
        raise RunError(f"cannot allocate the {what}: {exc}") from exc


def build_dataset(dataset_cfg) -> FederatedDataset:
    if isinstance(dataset_cfg, FederatedDataset):
        return dataset_cfg
    with _allocating("dataset"):
        if isinstance(dataset_cfg, SyntheticConfig):
            return generate_synthetic(dataset_cfg)
        if isinstance(dataset_cfg, MnistConfig):
            x, y = load_mnist_idx(dataset_cfg.train_images, dataset_cfg.train_labels)
            xt, yt = load_mnist_idx(dataset_cfg.test_images, dataset_cfg.test_labels)
            if dataset_cfg.subsample is not None:  # copies, so the full decode is freed
                x, y = x[: dataset_cfg.subsample].copy(), y[: dataset_cfg.subsample].copy()
            return FederatedDataset(
                train_inputs=x,
                train_labels=y,
                test_inputs=xt,
                test_labels=yt,
                partitions=tuple(partition(y, dataset_cfg.n_clients, dataset_cfg.plan)),
                num_classes=int(max(y.max(), yt.max())) + 1,
                label=dataset_cfg.label,
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
        with _allocating("model"):
            init = init_params(cfg.model, stream(cfg.seed, "global-init"))
            self.server = ServerState.fresh(init, ds.n_clients, cfg.seed)
        with _allocating("client store"):
            self.clients = ClientStore(
                [len(p) for p in ds.partitions],
                cfg.model.param_count,
                RULES[cfg.algo.algorithm].fields,
            )
        self.records: list[RoundRecord] = []

    @property
    def round(self) -> int:
        return self.server.round

    # The records hash every step of the round: all run on one BLAS thread.
    @one_blas_thread()
    def run_round(self) -> RoundRecord:
        cfg = self.cfg
        t = self.server.round

        def client_data(i):
            x, y = self.dataset.client_arrays(i)
            return x, y, stream(cfg.seed, "batch-shuffle", client=i, round_index=t)

        start = time.perf_counter()
        server = self.server  # the round-start state every client row derives from
        try:
            # A diverging round overflows without warnings: ServerState is
            # the one finiteness check, and the error names the round.
            with np.errstate(over="ignore", invalid="ignore"):
                active = sample_active_set(self.dataset.n_clients, cfg.algo.participation, t,
                                           stream(cfg.seed, "participation", round_index=t))
                update = run_local_rounds(self.clients, active, server, cfg.algo, client_data,
                                          cfg.model)
                grad_var = gradient_variance_diagnostic(update, server, cfg.algo)
                self.server = server_aggregate(server, update, cfg.algo, self.clients)
                apply_update(self.clients, update, server, cfg.algo)
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
            bytes_up: int, bytes_down: int, grad_variance) -> RoundRecord:
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


def run_experiments(cfgs) -> list:
    """Train independent runs on every usable CPU; each run's outcome, in input order.

    An outcome is what :func:`run_experiment` returns, (records, summary),
    or the exception the run raised: a FedDriftError for every failure
    the program names. Whichever process trained a run, its outcome is
    the same value, and a FedDriftError comes without its traceback.

    With N usable CPUs (:func:`federation._usable_cpus`) and W = min(N,
    len(cfgs)) workers, run i goes to worker i % W. Worker 0 is this
    process; the others are children started with ``fork``, where it is
    among the start methods and this process may have children (elsewhere,
    and in a daemonic process, this process trains every run).
    Each worker trains its runs one after another on its own share of
    the CPUs, so a run's thread pool (:func:`federation.run_local_rounds`)
    sizes itself by that share. This process narrows its calling thread
    to its share while it trains and restores its affinity afterwards.
    ``fork`` copies only the calling thread, and the children start
    before this process trains anything.
    Nothing is written here. No child outlives the call, nor, on Linux,
    this process; a child that dies before it reports gives each of its
    runs a RunError.
    """
    cfgs = list(cfgs)
    workers = max(1, min(federation._usable_cpus(), len(cfgs)))
    if "fork" not in multiprocessing.get_all_start_methods() or \
            multiprocessing.current_process().daemon:  # a daemon (a pool's worker) has no children
        workers = 1
    shares = _cpu_shares(workers)
    outcomes = [None] * len(cfgs)
    children = []
    try:
        for k in range(1, workers):
            receive, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.get_context("fork").Process(
                target=_train_and_send, args=(send, cfgs[k::workers], shares[k], os.getpid()),
                daemon=True)
            child.start()
            send.close()  # else a dead child's pipe never reads as closed
            children.append((k, child, receive))
        outcomes[0::workers] = _train_share(cfgs[0::workers], shares[0])
        for k, child, receive in children:
            try:
                got = receive.recv()
            except EOFError:  # it died before it reported
                got = None
            child.join()
            outcomes[k::workers] = got or [RunError(
                f"the worker process training this run exited with code {child.exitcode}"
            )] * len(cfgs[k::workers])
    finally:
        for _, child, receive in children:
            receive.close()
            if child.is_alive():  # this process failed first
                child.terminate()
            child.join()
    return outcomes


def _cpu_shares(workers: int) -> list:
    """Worker k's CPUs: every `workers`-th usable CPU from the k-th, or one CPU each,
    in turn, if there are more workers than CPUs. None where no affinity can be set."""
    if not hasattr(os, "sched_setaffinity"):
        return [None] * workers
    cpus = sorted(os.sched_getaffinity(0))
    return [set(cpus[k % len(cpus)::workers]) for k in range(workers)]


def _train_share(cfgs, cpus) -> list:
    """Each run's outcome, trained one after another on `cpus` (None: as they are)."""
    before = os.sched_getaffinity(0) if cpus is not None else None
    outcomes = []
    try:
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
        for cfg in cfgs:
            try:
                outcomes.append(run_experiment(cfg))
            except FedDriftError as exc:
                # The copy a child sends: the same error, with no traceback
                # to hold the run's arrays.
                outcomes.append(pickle.loads(pickle.dumps(exc)))
            except Exception as exc:  # a fault outside the program's checks, traceback kept
                outcomes.append(exc)
    finally:
        if before is not None:
            os.sched_setaffinity(0, before)
    return outcomes


def _train_and_send(send, cfgs, cpus, caller: int) -> None:
    """A child's work: its runs' outcomes, sent to the caller in one message.

    The child follows the caller: it leaves Ctrl-C to the caller, which
    stops its children, and on Linux it is killed if the caller dies first.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
        if os.getppid() != caller:  # it died before the request
            os._exit(1)
    send.send(_train_share(cfgs, cpus))
    send.close()


def rounds_to_target(records, target: float):
    """First round whose recorded test accuracy meets the target, else None."""
    records = list(records)
    if not records:
        raise DimensionError("rounds_to_target over no records")
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


# ---------------------------------------------------------------------------
# Checkpoints, format v3: magic, (version, header length), a JSON header,
# then little-endian blocks with no padding: the four server vectors
# (P float64 each), the store's slot map (n_clients int64), then each
# client field the header names as its `used` rows (used x P float64), in
# slot order. `used` is the number of slots below n_clients. The file
# ends there; anything after it is an error.
# ---------------------------------------------------------------------------

def _read_block(fh, out: np.ndarray, path) -> None:
    """Fill the C-contiguous `out` from the file in one read, with no intermediate copy."""
    want = out.nbytes
    got = fh.readinto(out.reshape(-1).view(np.uint8))  # a view, empty or not
    if got != want:
        raise FormatError(f"{path}: truncated checkpoint ({got} of {want} bytes in a block)")


def _header(server: ServerState, clients: ClientStore) -> dict:
    """The checkpoint header: the round, and what a run must share with the file."""
    return {
        "round": server.round,
        "n_clients": server.n_clients,
        "param_count": server.global_params.size,
        "rng_seed": server.rng_seed,
        "n_samples": clients.n_samples.tolist(),
        "fields": list(clients.fields),
    }


def checkpoint_save(path, server: ServerState, clients: ClientStore) -> None:
    """Write a checkpoint to `path` + ".tmp", then rename it over `path`.

    A save that fails partway leaves an earlier checkpoint at `path`
    intact and removes its temp file. The rename guards against a crash
    of this process; the file is not fsynced.
    """
    blob = json.dumps(_header(server, clients), sort_keys=True).encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CKPT_MAGIC)
            fh.write(struct.pack("<II", _CKPT_VERSION, len(blob)))
            fh.write(blob)
            for name in SERVER_VECTORS:
                fh.write(getattr(server, name).astype("<f8", copy=False))
            fh.write(clients.slot.astype("<i8", copy=False))
            for name in clients.fields:
                fh.write(getattr(clients, name).astype("<f8", copy=False))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def checkpoint_restore(run: FederatedRun, path) -> FederatedRun:
    """Replace the run's server and client states with those saved at `path`.

    The run keeps its records up to the saved round; the file holds none.

    The run must be built from the checkpoint's config: the header round
    must be an integer in [0, rounds], and every other header key must
    equal the run's own, compared as JSON text (so `false` is not 0 and
    155.0 is not 155); the saved slot map must be a store's
    (`federation.slots_in_use`); and the file size must match the run's
    shapes and the map's `used`. All of these are checked before
    anything else is read or allocated. Each field's saved rows then land
    in one read in a fresh store that adopts the map and holds only those
    rows.
    """
    ours = _header(run.server, run.clients)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CKPT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic {magic!r}")
        raw = fh.read(8)
        if len(raw) != 8:
            raise FormatError(f"{path}: truncated checkpoint header")
        version, hlen = struct.unpack("<II", raw)
        if version != _CKPT_VERSION:
            raise FormatError(
                f"{path}: checkpoint version {version}, expected {_CKPT_VERSION}"
            )
        blob = fh.read(hlen)
        if len(blob) != hlen:
            raise FormatError(f"{path}: truncated checkpoint header payload")
        try:
            saved = json.loads(blob.decode("utf-8"))
        except ValueError as exc:
            raise FormatError(f"{path}: unreadable checkpoint header: {exc}") from exc
        if not isinstance(saved, dict):
            raise FormatError(f"{path}: checkpoint header is {saved!r}, expected an object")
        t = saved.get("round")
        if type(t) is not int or not 0 <= t <= run.cfg.rounds:
            raise FormatError(
                f"{path}: checkpoint header round = {t!r}, "
                f"expected an integer in [0, {run.cfg.rounds}]"
            )
        for key in sorted((saved.keys() | ours.keys()) - {"round"}):
            got = json.dumps(saved[key]) if key in saved else "(no value)"
            expected = json.dumps(ours[key]) if key in ours else "(no value)"
            if got != expected:
                raise FormatError(
                    f"{path}: checkpoint header has {key} {got}, "
                    f"the {run.cfg.algo.algorithm} run has {key} {expected}"
                )
        p, n = ours["param_count"], ours["n_clients"]
        vectors_at = 12 + hlen
        slot = np.empty(n, dtype="<i8")
        fh.seek(vectors_at + len(SERVER_VECTORS) * p * 8)
        _read_block(fh, slot, path)
        used = slots_in_use(slot, f"{path}: checkpoint")
        want = fh.tell() + used * len(ours["fields"]) * p * 8
        size = os.fstat(fh.fileno()).st_size
        if size != want:
            raise FormatError(f"{path}: checkpoint header implies {want} bytes, file holds {size}")
        fh.seek(vectors_at)
        vectors = {name: np.zeros(p) for name in SERVER_VECTORS}
        for vec in vectors.values():
            _read_block(fh, vec, path)
        fh.seek(slot.nbytes, os.SEEK_CUR)
        with _allocating("client store"):
            clients = ClientStore(run.clients.n_samples, p, run.clients.fields, slot)
        for name in clients.fields:
            _read_block(fh, getattr(clients, name), path)
    run.server = replace(run.server, **vectors, round=t)
    run.clients = clients
    run.records = [r for r in run.records if r.round <= t]
    return run


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------


def write_records_csv(path, records, algorithm: str, dataset: str, seed: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")  # None is an empty cell, a float its repr
        out.writerow(CSV_HEADER.split(","))
        out.writerows(
            (r.round, algorithm, dataset, seed, r.test_accuracy, r.train_loss,
             r.bytes_up, r.bytes_down, r.grad_variance, r.wall_ms)
            for r in records
        )


def write_json(path, payload) -> None:
    """Write `payload` as strict JSON (a NaN or an infinity raises ValueError):
    keys sorted, indented by 2, one final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_summary_json(path, summary: RunSummary) -> None:
    write_json(path, {
        "best_accuracy": summary.best_accuracy,
        "rounds_to_target": {repr(t): n for t, n in summary.rounds_to_target.items()},
        "speedup_vs_baseline": summary.speedup_vs_baseline,
    })
