import csv
import errno
import importlib.util
import json
import mmap
import multiprocessing
import os
import re
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import planned_update, seed_rows, store_rows
from feddrift import engine, federation, models
from feddrift.data import FederatedDataset, PartitionPlan, SyntheticConfig
from feddrift.engine import (
    CSV_HEADER,
    ExperimentConfig,
    FederatedRun,
    MnistConfig,
    RoundRecord,
    build_dataset,
    checkpoint_restore,
    checkpoint_save,
    dataset_label,
    rounds_to_target,
    run_experiment,
    run_experiments,
    summarize,
    write_records_csv,
    write_summary_json,
)
from feddrift.errors import (
    DimensionError,
    FormatError,
    NumericError,
    ParameterError,
    RunError,
)
from feddrift.federation import ALGORITHMS, AlgoConfig, round_lr, steps_per_round
from feddrift.models import (
    ModelSpec,
    _as_float,
    accuracy,
    init_params,
    loss_and_grad,
    mean_loss,
)
from feddrift.rng import stream

LOGISTIC = ModelSpec("logistic", 30, 5)

# Header changes to a fedavg checkpoint of 5 clients restored into its
# own 1-round config. A round that is not an integer in [0, rounds], or
# any other value that differs from the run's, is a FormatError raised
# before anything is allocated; so is a key the run's header lacks.
BAD_HEADERS = [
    {"param_count": -1},
    {"param_count": 10**15},
    {"param_count": 2.5},
    {"round": -1},
    {"round": 2},
    {"rng_seed": -5},
    {"n_clients": 7, "n_samples": [30, 30]},
    {"note": "extra"},
    {"rng_seed": False},  # equals the run's seed 0 in Python
    {"param_count": 155.0},  # equals the run's 155 in Python
]


def rewrite_header(raw: bytes, out: Path, **changes) -> Path:
    """Write checkpoint bytes `raw` to `out` with some header values changed."""
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = {**json.loads(raw[12 : 12 + hlen]), **changes}
    blob = json.dumps(header).encode()
    out.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen :])
    return out


def small_cfg(algorithm="fedavg", rounds=6, seed=0, n_clients=5, participation=1.0, **kw):
    return ExperimentConfig(
        dataset=SyntheticConfig(
            n_clients=n_clients, samples_per_client_mean=30, seed=seed
        ),
        model=LOGISTIC,
        algo=AlgoConfig(
            algorithm,
            lr=0.1,
            local_epochs=1,
            batch_size=10,
            participation=participation,
            **kw,
        ),
        rounds=rounds,
        eval_every=1,
        target_accuracies=(0.5, 0.9),
        seed=seed,
    )


def same_but_wall(a: RoundRecord, b: RoundRecord) -> bool:
    """Equality over every field in the determinism contract (wall_ms is not)."""
    return (
        a.round == b.round
        and a.test_accuracy == b.test_accuracy
        and a.train_loss == b.train_loss
        and a.bytes_up == b.bytes_up
        and a.bytes_down == b.bytes_down
        and a.grad_variance == b.grad_variance
    )


class TestConfig:
    def test_zero_rounds_rejected(self):
        with pytest.raises(ParameterError):
            small_cfg(rounds=0)

    def test_bad_targets(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(
                dataset=SyntheticConfig(),
                model=LOGISTIC,
                algo=AlgoConfig("fedavg"),
                rounds=1,
                target_accuracies=(1.5,),
            )

    def test_model_dataset_mismatch(self):
        cfg = ExperimentConfig(
            dataset=SyntheticConfig(n_clients=2, samples_per_client_mean=10),
            model=ModelSpec("logistic", 7, 5),
            algo=AlgoConfig("fedavg"),
            rounds=1,
        )
        with pytest.raises(Exception, match="features"):
            FederatedRun(cfg)

    def test_dataset_with_more_classes_than_the_model(self):
        cfg = ExperimentConfig(
            dataset=SyntheticConfig(n_clients=2, samples_per_client_mean=10, num_classes=10),
            model=LOGISTIC,
            algo=AlgoConfig("fedavg"),
            rounds=1,
        )
        with pytest.raises(DimensionError, match="dataset has 10 classes, model only 5"):
            FederatedRun(cfg)

    @pytest.mark.parametrize("error", [OSError(errno.EACCES, "Permission denied"),
                                       ValueError("not one of numpy's shape errors")])
    def test_only_a_failed_allocation_becomes_a_run_error(self, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(mmap, "mmap", fail)
        with pytest.raises(type(error)) as exc:
            FederatedRun(small_cfg("scaffold"))
        assert exc.value is error

    def test_a_prebuilt_dataset_is_run_as_given(self):
        cfg = small_cfg(rounds=1)
        ds = build_dataset(cfg.dataset)
        assert build_dataset(ds) is ds
        assert FederatedRun(replace(cfg, dataset=ds)).dataset is ds

    def test_an_unknown_dataset_config_is_refused(self):
        with pytest.raises(ParameterError, match="^unsupported dataset config object$"):
            build_dataset(object())


class TestDeterminism:
    @pytest.mark.parametrize(
        "algorithm,kw",
        [("fedavg", {}), ("scaffold", {}), ("feddc", {"alpha": 0.005})],
    )
    def test_identical_configs_identical_records(self, algorithm, kw):
        recs1, sum1 = run_experiment(small_cfg(algorithm, **kw))
        recs2, sum2 = run_experiment(small_cfg(algorithm, **kw))
        assert len(recs1) == len(recs2)
        assert all(same_but_wall(a, b) for a, b in zip(recs1, recs2))
        assert sum1.rounds_to_target == sum2.rounds_to_target

    def test_evaluation_does_not_mutate_state(self):
        cfg = small_cfg("feddc", alpha=0.005, rounds=4)
        plain = FederatedRun(cfg)
        noisy = FederatedRun(cfg)
        ds = noisy.dataset

        def evaluate():
            params = noisy.server.global_params
            accuracy(cfg.model, params, ds.test_inputs, ds.test_labels)
            mean_loss(cfg.model, params, ds.train_inputs, ds.train_labels)

        for _ in range(4):
            ra = plain.run_round()
            evaluate()
            rb = noisy.run_round()
            evaluate()
            assert same_but_wall(ra, rb)
        assert np.array_equal(plain.server.global_params, noisy.server.global_params)

    def test_inactive_clients_keep_stale_state(self):
        cfg = small_cfg("feddc", alpha=0.005, n_clients=8, participation=0.25, rounds=3)
        run = FederatedRun(cfg)
        run.run_round()
        before = {f: store_rows(run.clients, f, range(8)) for f in run.clients.fields}
        run.run_round()
        from feddrift.federation import sample_active_set
        from feddrift.rng import stream

        active = sample_active_set(
            8, 0.25, 1, stream(cfg.seed, "participation", round_index=1)
        )
        for f, old in before.items():
            new = store_rows(run.clients, f, range(8))
            for i in range(8):
                assert np.array_equal(new[i], old[i]) == (i not in active), (f, i)


def logging_runs(monkeypatch, log: Path) -> None:
    """Append each run's training process and CPUs to `log`, a line per run, from any process."""
    run = engine.run_experiment

    def logged(cfg, *rest):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {sorted(os.sched_getaffinity(0))}\n")
        return run(cfg, *rest)

    monkeypatch.setattr(engine, "run_experiment", logged)


def logged_runs(log: Path) -> list:
    """(pid, CPUs) of each run `logging_runs` logged, in the order they began."""
    return [(int(pid), cpus) for pid, cpus in
            (line.split(" ", 1) for line in log.read_text().splitlines())]


def _pids_and_outcomes(cfgs):
    """run_experiments(cfgs) on two CPUs: the process that began each run, and the outcomes."""
    federation._usable_cpus = lambda: 2  # a pool worker's own copy
    run, pids = engine.run_experiment, []
    engine.run_experiment = lambda cfg: pids.append(os.getpid()) or run(cfg)
    return pids, run_experiments(cfgs)


class TestRunExperiments:
    """Runs on every usable CPU: outcomes in input order, as run_experiment gives them."""

    def diverging_cfg(self):
        return ExperimentConfig(
            dataset=SyntheticConfig(n_clients=3, samples_per_client_mean=20, seed=0),
            model=LOGISTIC,
            algo=AlgoConfig("fedavg", lr=1e308, local_epochs=5, batch_size=10),
            rounds=2,
        )

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_outcomes_are_run_experiments_in_input_order(self, monkeypatch, tmp_path, cpus):
        cfgs = [small_cfg("fedavg", rounds=3), self.diverging_cfg(),
                small_cfg("feddc", alpha=0.005, rounds=3), small_cfg("scaffold", seed=1, rounds=2)]
        monkeypatch.setattr(federation, "_usable_cpus", lambda: cpus)
        logging_runs(monkeypatch, tmp_path / "log")
        before = os.sched_getaffinity(0)
        outcomes = run_experiments(cfgs)
        assert os.sched_getaffinity(0) == before
        assert multiprocessing.active_children() == []
        assert len({pid for pid, _ in logged_runs(tmp_path / "log")}) == cpus
        for cfg, outcome in zip(cfgs, outcomes):
            try:
                records, summary = run_experiment(cfg)
            except RunError as exc:
                assert type(outcome) is RunError and str(outcome) == str(exc)
                continue
            got_records, got_summary = outcome
            assert len(got_records) == len(records)
            assert all(same_but_wall(a, b) for a, b in zip(got_records, records))
            assert got_summary == summary

    def test_each_worker_trains_on_its_own_cpus(self, monkeypatch, tmp_path):
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            pytest.skip("needs two usable CPUs")
        logging_runs(monkeypatch, tmp_path / "log")
        run_experiments([small_cfg(rounds=1, seed=s) for s in range(2 * len(cpus))])
        shares = {}
        for pid, share in logged_runs(tmp_path / "log"):
            shares.setdefault(pid, set()).add(share)
        assert shares[os.getpid()] == {str(cpus[:1])}  # the caller trains the first share
        # One share per process, and each CPU in exactly one of them.
        assert sorted(s for mine in shares.values() for s in mine) == sorted(str([c]) for c in cpus)

    def test_a_worker_that_dies_fails_its_runs(self, monkeypatch):
        caller, run = os.getpid(), engine.run_experiment

        def dying(cfg, *rest):
            if os.getpid() != caller:
                os._exit(9)
            return run(cfg, *rest)

        monkeypatch.setattr(federation, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(engine, "run_experiment", dying)
        outcomes = run_experiments([small_cfg(rounds=1, seed=s) for s in range(3)])
        assert multiprocessing.active_children() == []
        assert [type(o) for o in outcomes] == [tuple, RunError, tuple]
        assert str(outcomes[1]) == "the worker process training this run exited with code 9"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs PR_SET_PDEATHSIG")
    @pytest.mark.parametrize("sig,whom", [("SIGKILL", "caller"), ("SIGINT", "group")])
    def test_no_child_outlives_a_caller_stopped_by_a_signal(self, tmp_path, sig, whom):
        log = tmp_path / "log"
        script = f"""
import faulthandler
import os
import signal
faulthandler.register(signal.SIGUSR1, all_threads=True)  # a stack dump for a stuck caller
from feddrift import engine, federation
from feddrift.engine import ExperimentConfig
from feddrift.data import SyntheticConfig
from feddrift.federation import AlgoConfig
from feddrift.models import ModelSpec
federation._usable_cpus = lambda: 2
round_ = engine.FederatedRun.run_round
def logged(run):  # after a round, when nothing is imported lazily any more
    record = round_(run)
    if run.round == 1:
        with open({str(log)!r}, "a") as fh:
            fh.write(f"{{os.getpid()}}\\n")
    return record
engine.FederatedRun.run_round = logged
cfg = ExperimentConfig(SyntheticConfig(n_clients=3, samples_per_client_mean=20),
                       ModelSpec("logistic", 30, 5), AlgoConfig("fedavg"), rounds=10**6)
engine.run_experiments([cfg, cfg])
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        with open(tmp_path / "err", "w") as err:  # a file: a surviving child holds no pipe open
            caller = subprocess.Popen([sys.executable, "-c", script], env=env, stderr=err,
                                      start_new_session=True)
        child = None
        try:
            for _ in range(200):
                if log.exists() and len(log.read_text().split()) == 2:
                    break
                time.sleep(0.05)
            (child,) = {int(pid) for pid in log.read_text().split()} - {caller.pid}
            if whom == "caller":
                os.kill(caller.pid, getattr(signal, sig))
            else:
                os.killpg(caller.pid, getattr(signal, sig))
            try:
                caller.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.kill(caller.pid, signal.SIGUSR1)
                time.sleep(1)
                pytest.fail(f"the caller outlived {sig} by 30 s; its stderr, ending with "
                            f"its threads' stacks:\n{(tmp_path / 'err').read_text()}")
            for _ in range(200):
                stat = Path(f"/proc/{child}/stat")
                if not stat.exists() or stat.read_text().split()[2] == "Z":
                    child = None
                    break
                time.sleep(0.05)
            assert child is None, f"child {child} outlived its caller"
            # The caller's traceback alone: a child leaves Ctrl-C to its caller.
            assert (tmp_path / "err").read_text().count("Traceback") == (sig == "SIGINT")
        finally:
            for pid in (caller.pid, child):
                if pid is not None and Path(f"/proc/{pid}").exists():
                    os.kill(pid, signal.SIGKILL)
            caller.wait()

    def test_without_fork_the_caller_trains_every_run(self, monkeypatch, tmp_path):
        monkeypatch.setattr(federation, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        logging_runs(monkeypatch, tmp_path / "log")
        outcomes = run_experiments([small_cfg(rounds=1, seed=s) for s in range(3)])
        assert [pid for pid, _ in logged_runs(tmp_path / "log")] == [os.getpid()] * 3
        assert [type(o) for o in outcomes] == [tuple] * 3

    def test_a_pool_worker_trains_every_run_itself(self):
        with multiprocessing.get_context("fork").Pool(1) as pool:  # its workers are daemons
            pids, outcomes = pool.apply(_pids_and_outcomes, ([small_cfg(rounds=1)] * 2,))
        assert pids == [pids[0]] * 2 and [type(o) for o in outcomes] == [tuple] * 2

    def test_without_an_affinity_mask_every_cpu_is_usable(self, monkeypatch):
        runs = [small_cfg(rounds=2, seed=s) for s in range(2)]
        mask = run_experiments(runs)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.delattr(os, "sched_setaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert federation._usable_cpus() == 5
        for a, b in zip(run_experiments(runs), mask):
            assert all(same_but_wall(x, y) for x, y in zip(a[0], b[0])) and a[1] == b[1]
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert federation._usable_cpus() == 1


class TestDivergence:
    def test_diverging_round_names_its_round(self):
        """A non-finite aggregate fails at the server's one finiteness check."""
        cfg = ExperimentConfig(
            dataset=SyntheticConfig(n_clients=3, samples_per_client_mean=20, seed=0),
            model=LOGISTIC,
            algo=AlgoConfig("fedavg", lr=1e308, local_epochs=5, batch_size=10),
            rounds=3,
        )
        run = FederatedRun(cfg)
        with pytest.raises(RunError, match="round 1: ") as info:
            run.run_round()
        assert isinstance(info.value.__cause__, NumericError)
        assert "ServerState.global_params" in str(info.value)
        assert run.round == 0 and not run.records  # the run keeps its last good state


def _mlp_round_run(algorithm):
    """A run of twelve clients at full participation on an MLP of P = 41,994
    parameters, more than BUDGET // 2, so each chunk holds one client."""
    spec = ModelSpec("mlp", 30, 10, hidden_dims=(1024,))
    kw = {"alpha": 0.01} if algorithm in ("feddyn", "feddc") else {}
    return FederatedRun(ExperimentConfig(
        dataset=SyntheticConfig(n_clients=12, samples_per_client_mean=20, seed=0),
        model=spec,
        algo=AlgoConfig(algorithm, lr=0.01, local_epochs=1, batch_size=10, **kw),
        rounds=3,
        eval_every=3,
    ))


class TestRoundMemory:
    """What a pooled MLP round allocates, in (C, P) blocks and (1, P) rows.

    The client store is an anonymous mapping, which tracemalloc does not
    see. Measured here (numpy 2.4.6, three runs each): the second round
    peaked at 1.45 to 1.47 blocks for fedavg and fedprox, 1.61 to 1.67
    for feddyn and scaffold and 1.78 to 1.80 for feddc; 3.08 to 5.25 when
    a round also kept its update, next drift and next control as blocks,
    and 1.62 to 1.97 when each chunk's set-up copied its stored rows and
    a block of G. A one-client feddc chunk's set-up now holds 4.05 rows
    (its anchor, extra, gradient and one scratch tile as wide as P), and
    held 5.05 with that block.
    """

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_round_allocates_about_one_block_of_clients_by_parameters(self, algorithm):
        """A round keeps one (C, P) float64 block, theta, and derives every other row.

        The chunks train on a pool of two threads. The peak is the second
        round's, which does not evaluate.
        """
        run = _mlp_round_run(algorithm)
        spec = run.cfg.model
        with mock.patch.object(federation, "_usable_cpus", lambda: 2):
            run.run_round()
            tracemalloc.start()
            try:
                run.run_round()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert run.records[-1].test_accuracy is None
        block = 12 * spec.param_count * 8
        assert peak < 2.5 * block, f"peak {peak / block:.2f} blocks"

    def test_setting_up_a_feddc_chunk_reads_its_stored_rows_in_place(self):
        """A one-client feddc chunk's set-up allocates its anchor, extra and
        gradient, each one row built from the stored rows, and no block of G:
        the chunk trains in its row of the round's theta."""
        run = _mlp_round_run("feddc")
        run.run_round()  # every client's drift and previous update are stored
        spec, p = run.cfg.model, run.cfg.model.param_count
        out = planned_update(np.arange(12), np.empty(12, dtype=np.int64),
                             np.empty(12, dtype=np.int64), np.empty((12, p)),
                             round_lr(run.cfg.algo, run.server.round))

        def client_data(i):
            x, y = run.dataset.client_arrays(i)
            return x, y, stream(0, "batch-shuffle", client=i, round_index=1)

        tracemalloc.start()
        try:
            train = federation._chunk_round(run.clients, run.server, run.cfg.algo, spec, out,
                                            client_data, [5])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        row = p * 8
        assert peak < 4.5 * row, f"peak {peak / row:.2f} rows"
        assert out.theta[5].tobytes() == run.server.global_params.tobytes()
        train()
        assert (out.theta[5] != run.server.global_params).any()
        assert out.k_steps[5] == steps_per_round(int(run.clients.n_samples[5]), run.cfg.algo)


class TestResume:
    @pytest.mark.parametrize(
        "algorithm,kw",
        [
            ("fedavg", {}),
            ("fedprox", {}),
            ("scaffold", {}),
            ("feddyn", {"alpha": 0.01}),
            ("feddc", {"alpha": 0.005}),
        ],
    )
    def test_checkpoint_resume_matches_straight_run(self, algorithm, kw, tmp_path, bits):
        cfg = small_cfg(algorithm, rounds=8, **kw)
        straight = FederatedRun(cfg)
        straight.run_to_completion()

        first = FederatedRun(cfg)
        for _ in range(4):
            first.run_round()
        path = tmp_path / "ckpt.bin"
        checkpoint_save(path, first.server, first.clients)

        resumed = checkpoint_restore(FederatedRun(cfg), path)
        assert resumed.round == 4
        while resumed.round < cfg.rounds:
            resumed.run_round()
        tail = straight.records[4:]
        assert len(resumed.records) == len(tail)
        assert all(same_but_wall(a, b) for a, b in zip(resumed.records, tail))
        assert bits(resumed.server.global_params, straight.server.global_params)

    def test_checkpoint_round_trip_bitwise(self, tmp_path, bits):
        cfg = small_cfg("scaffold", rounds=3, participation=0.6)
        run = FederatedRun(cfg)
        run.run_round()
        ids = range(5)
        untrained = [i for i in ids if not store_rows(run.clients, "scaffold_c", i).any()]
        assert len(untrained) == 2  # 3 of 5 clients trained
        # zero by value but not by bits: must load
        seed_rows(run.clients, [untrained[0]], {"scaffold_c": -0.0})
        rows = store_rows(run.clients, "scaffold_c", ids)
        path = tmp_path / "ckpt.bin"
        checkpoint_save(path, run.server, run.clients)
        restored = checkpoint_restore(FederatedRun(cfg), path)
        server, clients = restored.server, restored.clients
        assert bits(server.global_params, run.server.global_params)
        assert bits(server.scaffold_c, run.server.scaffold_c)
        assert server.round == run.server.round
        assert clients.fields == run.clients.fields == ("scaffold_c",)
        assert store_rows(clients, "scaffold_c", ids).tobytes() == rows.tobytes()
        assert np.signbit(store_rows(clients, "scaffold_c", untrained[0])).all()
        assert not np.signbit(store_rows(clients, "scaffold_c", untrained[1])).any()
        assert store_rows(clients, "scaffold_c", ids).any()
        assert clients.slot.tolist() == run.clients.slot.tolist()
        assert np.array_equal(clients.n_samples, run.clients.n_samples)

    @pytest.mark.parametrize(
        "algorithm,kw,fields",
        [
            ("fedavg", {}, ()),
            ("fedprox", {}, ()),
            ("scaffold", {}, ("scaffold_c",)),
            ("feddyn", {"alpha": 0.01}, ("drift",)),
            ("feddc", {"alpha": 0.005}, ("drift", "last_delta")),
        ],
    )
    def test_client_store_holds_only_what_the_algorithm_reads(
        self, algorithm, kw, fields, tmp_path
    ):
        run = FederatedRun(small_cfg(algorithm, rounds=1, **kw))
        run.run_round()
        n, p = run.dataset.n_clients, LOGISTIC.param_count
        assert run.clients.fields == fields
        vectors = [v for k, v in vars(run.clients).items()
                   if isinstance(v, np.ndarray) and k not in ("n_samples", "slot")]
        assert sum(v.nbytes for v in vectors) == len(fields) * n * p * 8
        assert run.clients.used == n  # every client trained in round 1
        path = tmp_path / "ckpt.bin"
        checkpoint_save(path, run.server, run.clients)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        assert len(raw) == 12 + hlen + (4 + len(fields) * n) * p * 8 + n * 8

    def test_checkpoint_errors(self, tmp_path):
        cfg = small_cfg(rounds=1)
        run = FederatedRun(cfg)
        run.run_round()
        path = tmp_path / "ckpt.bin"
        checkpoint_save(path, run.server, run.clients)
        raw = path.read_bytes()

        bad_magic = tmp_path / "magic.bin"
        bad_magic.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(FormatError):
            checkpoint_restore(FederatedRun(cfg), bad_magic)

        truncated = tmp_path / "short.bin"
        truncated.write_bytes(raw[:-20])
        with pytest.raises(FormatError, match="truncated checkpoint"):
            checkpoint_restore(FederatedRun(cfg), truncated)

        trailing = tmp_path / "long.bin"
        trailing.write_bytes(raw + b"\0")
        with pytest.raises(FormatError, match=r"checkpoint header implies \d+ bytes, file holds"):
            checkpoint_restore(FederatedRun(cfg), trailing)

        # v1 held four vectors per client, theta among them; v2 every client's rows
        for version in (1, 2, 99):
            bad_version = tmp_path / "version.bin"
            bad_version.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
            with pytest.raises(FormatError, match=f"checkpoint version {version}, expected 3"):
                checkpoint_restore(FederatedRun(cfg), bad_version)

        (hlen,) = struct.unpack("<I", raw[8:12])
        header = tmp_path / "bad-header.bin"
        for data, message in [
            (raw[:11], "truncated checkpoint header$"),
            (raw[: 12 + hlen - 1], "truncated checkpoint header payload$"),
            (raw[:12] + b"{" * hlen + raw[12 + hlen :], "unreadable checkpoint header: "),
            (raw[:8] + struct.pack("<I", 3) + b"[1]" + raw[12 + hlen :],
             re.escape("checkpoint header is [1], expected an object")),
        ]:
            header.write_bytes(data)
            with pytest.raises(FormatError, match=re.escape(f"{header}: ") + message):
                checkpoint_restore(FederatedRun(cfg), header)

        def with_header(**changes):
            return rewrite_header(raw, tmp_path / "header.bin", **changes)

        with pytest.raises(FormatError):
            checkpoint_restore(FederatedRun(cfg), with_header(fields=["theta"]))
        with pytest.raises(FormatError, match="seed 1.*seed 0"):
            checkpoint_restore(FederatedRun(cfg), with_header(rng_seed=1))
        resized = run.clients.n_samples.tolist()
        resized[0] += 1
        with pytest.raises(FormatError, match="n_samples"):
            checkpoint_restore(FederatedRun(cfg), with_header(n_samples=resized))

        feddc = FederatedRun(small_cfg("feddc", rounds=1, alpha=0.005))
        feddc.run_round()
        feddc_path = tmp_path / "feddc.bin"
        checkpoint_save(feddc_path, feddc.server, feddc.clients)
        with pytest.raises(FormatError, match="fedavg"):
            checkpoint_restore(FederatedRun(cfg), feddc_path)

    @pytest.mark.parametrize("changes", BAD_HEADERS, ids=[
        "param_count=-1", "param_count=1e15", "param_count=2.5", "round=-1", "round=2",
        "rng_seed=-5", "n_clients=7", "extra_key", "rng_seed=false", "param_count=155.0",
    ])
    def test_checkpoint_header_checked_before_allocation(self, tmp_path, changes):
        cfg = small_cfg(rounds=1)
        run = FederatedRun(cfg)
        run.run_round()
        path = tmp_path / "ckpt.bin"
        checkpoint_save(path, run.server, run.clients)
        with pytest.raises(FormatError, match="checkpoint header"):
            checkpoint_restore(FederatedRun(cfg), rewrite_header(path.read_bytes(), path, **changes))

    @settings(max_examples=15, deadline=None)
    @given(
        algorithm=st.sampled_from(["fedavg", "scaffold", "feddyn", "feddc"]),
        rounds=st.integers(0, 3),
        negative_zero_client=st.one_of(st.none(), st.integers(0, 4)),
    )
    @example(algorithm="feddc", rounds=0, negative_zero_client=None)  # no row written yet
    def test_save_restore_at_any_round_is_bitwise(
        self, tmp_path_factory, algorithm, rounds, negative_zero_client
    ):
        kw = {"alpha": 0.005} if algorithm in ("feddyn", "feddc") else {}
        cfg = small_cfg(algorithm, rounds=3, participation=0.4, **kw)
        run = FederatedRun(cfg)
        for _ in range(rounds):
            run.run_round()
        if negative_zero_client is not None:  # zero by value but not by bits: must load
            seed_rows(run.clients, [negative_zero_client],
                      {name: -0.0 for name in run.clients.fields})
        path = tmp_path_factory.mktemp("ckpt") / "ckpt.bin"
        checkpoint_save(path, run.server, run.clients)
        restored = checkpoint_restore(FederatedRun(cfg), path)
        assert restored.round == rounds
        assert restored.clients.slot.tolist() == run.clients.slot.tolist()
        assert restored.clients.used == run.clients.used
        for name in engine.SERVER_VECTORS:
            assert getattr(restored.server, name).tobytes() == getattr(run.server, name).tobytes()
        for name in run.clients.fields:
            assert getattr(restored.clients, name).tobytes() == getattr(run.clients, name).tobytes()
            if negative_zero_client is not None:
                got = store_rows(restored.clients, name, negative_zero_client)
                assert np.signbit(got).all() and not got.any()

    @pytest.mark.parametrize("corrupt", ["duplicate", "gap", "out-of-range", "negative",
                                         "truncated", "cut-in-vectors"])
    def test_bad_slot_map_raises_before_allocation(self, tmp_path, monkeypatch, corrupt):
        cfg = small_cfg("scaffold", rounds=1, participation=0.6)
        run = FederatedRun(cfg)
        run.run_round()
        path = tmp_path / "ckpt.bin"
        checkpoint_save(path, run.server, run.clients)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        at = 12 + hlen + 4 * LOGISTIC.param_count * 8  # where the slot map starts
        slot = run.clients.slot.copy()  # 3 of 5 clients trained: slots 0, 1 and 2
        last, unwritten = int(np.argmax(slot == 2)), int(np.argmax(slot == 5))
        if corrupt == "truncated":
            path.write_bytes(raw[: at + 8 * 2 + 3])
        elif corrupt == "cut-in-vectors":  # 360 bytes into the second of four 1,240-byte vectors
            path.write_bytes(raw[: 12 + hlen + 1600])
        else:
            if corrupt == "duplicate":
                slot[last] = 0
            elif corrupt == "gap":
                slot[last] = 3
            else:
                slot[unwritten] = 6 if corrupt == "out-of-range" else -1
            path.write_bytes(raw[:at] + slot.astype("<i8").tobytes() + raw[at + slot.nbytes :])

        def allocate(*args):
            raise AssertionError("the client store was allocated")

        target = FederatedRun(cfg)
        monkeypatch.setattr(engine, "ClientStore", allocate)
        message = {
            "truncated": "truncated checkpoint",
            "cut-in-vectors": re.escape(f"{path}: truncated checkpoint (360 of 1240 bytes"),
        }.get(corrupt, "slot map")
        with pytest.raises(FormatError, match=message):
            checkpoint_restore(target, path)

    def test_a_restore_that_cannot_allocate_its_store_leaves_the_run(
        self, tmp_path, monkeypatch
    ):
        cfg = small_cfg("scaffold", rounds=2)
        run = FederatedRun(cfg)
        run.run_round()
        path = tmp_path / "ckpt.bin"
        checkpoint_save(path, run.server, run.clients)
        target = FederatedRun(cfg)
        server, clients = target.server, target.clients

        def no_memory(*args, **kwargs):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(mmap, "mmap", no_memory)
        with pytest.raises(RunError, match="^cannot allocate the client store: "):
            checkpoint_restore(target, path)
        assert target.server is server and target.clients is clients

    def test_restore_into_a_trained_run_resets_untrained_rows(self, tmp_path):
        cfg = small_cfg("scaffold", rounds=3, participation=0.6)
        first = FederatedRun(cfg)
        first.run_round()
        untrained = [i for i in range(5) if not store_rows(first.clients, "scaffold_c", i).any()]
        assert untrained  # some clients sat out round 1
        path = tmp_path / "ckpt.bin"
        checkpoint_save(path, first.server, first.clients)

        busy = FederatedRun(cfg)
        busy.run_round()
        busy.run_round()
        # each of them trains in round 2
        assert all(store_rows(busy.clients, "scaffold_c", i).any() for i in untrained)
        restored = checkpoint_restore(busy, path)
        assert restored.round == 1
        got, want = (store_rows(r.clients, "scaffold_c", range(5)) for r in (restored, first))
        assert got.tobytes() == want.tobytes()
        assert not store_rows(restored.clients, "scaffold_c", untrained).view(np.uint64).any()

    def test_restore_drops_the_records_past_the_saved_round(self, tmp_path):
        cfg = small_cfg("scaffold", rounds=3, participation=0.6)
        first = FederatedRun(cfg)
        first.run_round()
        path = tmp_path / "ckpt.bin"
        checkpoint_save(path, first.server, first.clients)
        straight, _ = first.run_to_completion()

        busy = FederatedRun(cfg)
        busy.run_round()
        busy.run_round()
        records, _ = checkpoint_restore(busy, path).run_to_completion()
        assert [r.round for r in records] == [1, 2, 3]
        assert all(same_but_wall(a, b) for a, b in zip(records, straight))

    def test_failed_save_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        run = FederatedRun(small_cfg("feddc", rounds=2, alpha=0.005))
        run.run_round()
        path = tmp_path / "ckpt.bin"
        checkpoint_save(path, run.server, run.clients)
        saved = path.read_bytes()
        run.run_round()

        class FullDisk:
            """A client field whose bytes cannot be written."""

            def astype(self, *args, **kwargs):
                raise OSError("no space left on device")

        monkeypatch.setattr(run.clients, "last_delta", FullDisk())
        with pytest.raises(OSError, match="no space"):
            checkpoint_save(path, run.server, run.clients)
        assert path.read_bytes() == saved
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin"]
        restored = checkpoint_restore(FederatedRun(small_cfg("feddc", rounds=2, alpha=0.005)), path)
        assert restored.server.round == 1


class TestTargets:
    def _recs(self, accs):
        return [
            RoundRecord(i + 1, a, None, 0, 0, None, 0) for i, a in enumerate(accs)
        ]

    def test_first_crossing(self):
        recs = self._recs([0.5, 0.9, 0.95])
        assert rounds_to_target(recs, 0.9) == 2

    def test_not_reached(self):
        recs = self._recs([0.5, 0.9, 0.95])
        assert rounds_to_target(recs, 0.99) is None

    def test_skips_unevaluated_rounds(self):
        recs = [
            RoundRecord(1, None, None, 0, 0, None, 0),
            RoundRecord(2, 0.93, None, 0, 0, None, 0),
        ]
        assert rounds_to_target(recs, 0.9) == 2

    def test_monotone_in_target(self):
        recs = self._recs([0.3, 0.6, 0.6, 0.8, 0.97])
        hits = [rounds_to_target(recs, t) for t in (0.2, 0.5, 0.7, 0.9)]
        reached = [h for h in hits if h is not None]
        assert reached == sorted(reached)

    def test_empty_records(self):
        with pytest.raises(DimensionError, match="rounds_to_target over no records"):
            rounds_to_target([], 0.5)

    def test_summary(self):
        recs = self._recs([0.5, 0.9])
        s = summarize(recs, (0.4, 0.95))
        assert s.best_accuracy == 0.9
        assert s.rounds_to_target == {0.4: 1, 0.95: None}

    def test_stop_at_target(self):
        cfg = ExperimentConfig(
            dataset=SyntheticConfig(n_clients=5, samples_per_client_mean=30),
            model=LOGISTIC,
            algo=AlgoConfig("fedavg", lr=0.1, local_epochs=2, batch_size=10),
            rounds=50,
            target_accuracies=(0.5,),
            stop_at_target=0.5,
        )
        recs, _ = run_experiment(cfg)
        assert len(recs) < 50
        assert recs[-1].test_accuracy >= 0.5


def trajectory(run):
    """(round, global parameters) after each of the run's rounds."""
    return [(run.run_round().round, run.server.global_params) for _ in range(run.cfg.rounds)]


def pooled_sgd(cfg, ds):
    """(round, parameters) after each round of plain SGD on the pooled training data.

    The centralized oracle: one pseudo-client trains on the union of the
    partitions for cfg.rounds rounds of round(mean K_i) steps each, at
    matched compute, with the run's initialization, learning-rate
    schedule and client-0 shuffle streams. Each epoch is one fresh
    permutation; a round may stop mid-epoch.
    """
    algo, spec = cfg.algo, cfg.model
    budget = max(1, round(float(np.mean([steps_per_round(p.size, algo) for p in ds.partitions]))))
    x, y = ds.train_inputs, ds.train_labels
    theta = init_params(spec, stream(cfg.seed, "global-init"))
    out = []
    for t in range(cfg.rounds):
        rng = stream(cfg.seed, "batch-shuffle", client=0, round_index=t)
        lr_t = round_lr(algo, t)
        steps = 0
        while steps < budget:
            order = rng.permutation(y.size)
            for lo in range(0, y.size, algo.batch_size):
                batch = order[lo : lo + algo.batch_size]
                theta = theta - lr_t * loss_and_grad(spec, theta, x[batch], y[batch])[1]
                steps += 1
                if steps == budget:
                    break
        out.append((t + 1, theta))
    return out


def distances(fed, central):
    """(round, L2 distance) between two parameter trajectories, round by round."""
    return [(r, float(np.linalg.norm(f - c))) for (r, f), (_, c) in zip(fed, central)]


# (model, batch size) of a one-client run: batch 7 leaves a partial last
# batch, and the MLP adds hidden layers and weight decay.
SINGLE_CLIENT_CASES = {
    "logistic-b10": (LOGISTIC, 10),
    "logistic-b7": (LOGISTIC, 7),
    "mlp-wd-b7": (ModelSpec("mlp", 30, 5, hidden_dims=(16, 8), weight_decay=1e-3), 7),
}


class TestCentralizedOracle:
    @pytest.mark.parametrize("model,batch_size", SINGLE_CLIENT_CASES.values(),
                             ids=SINGLE_CLIENT_CASES)
    def test_single_client_run_is_bitwise_identical(self, bits, model, batch_size):
        cfg = ExperimentConfig(
            dataset=SyntheticConfig(n_clients=1, samples_per_client_mean=40, seed=3),
            model=model,
            algo=AlgoConfig("fedavg", lr=0.1, local_epochs=2, batch_size=batch_size),
            rounds=5,
            seed=3,
        )
        run = FederatedRun(cfg)
        fed = trajectory(run)
        central = pooled_sgd(cfg, run.dataset)
        assert [r for r, _ in fed] == [r for r, _ in central] == [1, 2, 3, 4, 5]
        for (_, f), (_, c) in zip(fed, central):
            assert bits(f, c)
        gaps = distances(fed, central)
        assert gaps and all(d == 0.0 for _, d in gaps)
        ds = run.dataset
        last = accuracy(cfg.model, central[-1][1], ds.test_inputs, ds.test_labels)
        assert last == run.records[-1].test_accuracy

    def test_centralized_at_least_matches_federated_minus_margin(self):
        cfg = ExperimentConfig(
            dataset=SyntheticConfig(n_clients=5, samples_per_client_mean=200, seed=4),
            model=LOGISTIC,
            algo=AlgoConfig("fedavg", lr=0.1, local_epochs=4, batch_size=10),
            rounds=60,
            eval_every=10,
            seed=4,
        )
        ds = build_dataset(cfg.dataset)
        fed_records, fed_summary = run_experiment(cfg, ds)
        central_best = max(
            accuracy(cfg.model, params, ds.test_inputs, ds.test_labels)
            for r, params in pooled_sgd(cfg, ds)
            if r % cfg.eval_every == 0 or r == cfg.rounds
        )
        assert central_best >= fed_summary.best_accuracy - 0.01

    def test_distance_series_finite(self):
        cfg = small_cfg("feddc", alpha=0.005, rounds=4)
        run = FederatedRun(cfg)
        gaps = distances(trajectory(run), pooled_sgd(cfg, run.dataset))
        assert len(gaps) == 4
        assert all(np.isfinite(d) for _, d in gaps)


class TestBytesAccounting:
    def test_feddc_traffic_is_exactly_1_5x_fedavg(self):
        recs_avg, _ = run_experiment(small_cfg("fedavg", rounds=2))
        recs_dc, _ = run_experiment(small_cfg("feddc", alpha=0.005, rounds=2))
        p = LOGISTIC.param_count
        for ra, rd in zip(recs_avg, recs_dc):
            assert ra.bytes_up == 5 * 8 * p and ra.bytes_down == 5 * 8 * p
            assert rd.bytes_up == 5 * 8 * p and rd.bytes_down == 2 * 5 * 8 * p
            assert 2 * (rd.bytes_up + rd.bytes_down) == 3 * (ra.bytes_up + ra.bytes_down)

    def test_grad_variance_recorded(self):
        recs, _ = run_experiment(small_cfg("fedavg", rounds=2))
        assert all(r.grad_variance is not None and r.grad_variance >= 0 for r in recs)


class TestOutputs:
    def test_csv_header_and_stability(self, tmp_path):
        recs, _ = run_experiment(small_cfg(rounds=3))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_records_csv(a, recs, "fedavg", "synthetic(0;0)", 0)
        write_records_csv(b, recs, "fedavg", "synthetic(0;0)", 0)
        lines = a.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert a.read_bytes() == b.read_bytes()

    def test_csv_empty_cells_for_missing_values(self, tmp_path):
        recs = [RoundRecord(1, None, None, 10, 20, None, 3)]
        path = tmp_path / "c.csv"
        write_records_csv(path, recs, "fedavg", "x", 1)
        row = path.read_text().splitlines()[1].split(",")
        assert row[4] == "" and row[5] == "" and row[8] == ""

    def test_csv_quotes_a_label_holding_a_comma(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = FederatedDataset(
            train_inputs=rng.standard_normal((20, 30)),
            train_labels=rng.integers(0, 5, 20),
            test_inputs=rng.standard_normal((10, 30)),
            test_labels=rng.integers(0, 5, 10),
            partitions=(np.arange(10), np.arange(10, 20)),
            num_classes=5,
            label="a,b",
        )
        recs, _ = run_experiment(small_cfg(rounds=2), dataset=ds)
        path = tmp_path / "records.csv"
        write_records_csv(path, recs, "fedavg", dataset_label(ds), 0)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        assert all(len(row) == 10 for row in rows)
        assert [row[2] for row in rows[1:]] == ["a,b", "a,b"]

    def test_summary_json(self, tmp_path):
        recs, summary = run_experiment(small_cfg(rounds=3))
        path = tmp_path / "summary.json"
        write_summary_json(path, summary)
        payload = json.loads(path.read_text())
        assert "best_accuracy" in payload
        assert set(payload["rounds_to_target"]) == {"0.5", "0.9"}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_json_refuses_a_non_finite_number(self, tmp_path, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            engine.write_json(tmp_path / "config.json", {"algorithm": {"alpha": value}})


class TestMnistPath:
    def test_build_and_run_on_idx_fixture(self, tiny_idx_pair):
        img, lab, _, _ = tiny_idx_pair
        dcfg = MnistConfig(
            train_images=str(img),
            train_labels=str(lab),
            test_images=str(img),
            test_labels=str(lab),
            n_clients=5,
            plan=PartitionPlan(mode="iid", seed=1),
        )
        ds = build_dataset(dcfg)
        assert ds.n_clients == 5
        assert dataset_label(ds) == "mnist-iid"
        cfg = ExperimentConfig(
            dataset=dcfg,
            model=ModelSpec("mlp", 784, 10, hidden_dims=(16,)),
            algo=AlgoConfig("feddc", alpha=0.1, lr=0.1, local_epochs=1, batch_size=10),
            rounds=2,
            seed=1,
        )
        recs, _ = run_experiment(cfg)
        assert len(recs) == 2

    def test_subsampled_train_set_owns_its_data(self, tiny_idx_pair):
        """A subsample copies its rows, so the full decoded set can be freed."""
        img, lab, x, y = tiny_idx_pair
        ds = build_dataset(
            MnistConfig(str(img), str(lab), str(img), str(lab), n_clients=2, subsample=30)
        )
        for arr in (ds.train_inputs, ds.train_labels):
            assert arr.flags.owndata and arr.shape[0] == 30
        assert ds.train_inputs.dtype == np.uint8 and ds.train_inputs.shape == (30, 784)
        assert _as_float(ds.train_inputs).tobytes() == x[:30].tobytes()
        assert np.array_equal(ds.train_labels, y[:30])

    @pytest.mark.parametrize("plan,label", [
        (PartitionPlan(balance="lognormal", seed=1), "mnist-iid-unbalanced"),
        (PartitionPlan(mode="dirichlet", conc=0.3, balance="lognormal", seed=1),
         "mnist-d0.3-unbalanced"),
    ], ids=["iid", "dirichlet-0.3"])
    def test_unbalanced_labels(self, tiny_idx_pair, plan, label):
        img, lab, _, _ = tiny_idx_pair
        ds = build_dataset(
            MnistConfig(str(img), str(lab), str(img), str(lab), n_clients=5, plan=plan)
        )
        assert dataset_label(ds) == label

    def test_labels(self):
        ds = build_dataset(SyntheticConfig(gamma1=1.0, gamma2=0.0, seed=1))
        assert dataset_label(ds) == "synthetic(1;0)"


class TestBenchmarkTracer:
    """The benchmark's tracer wraps program functions by name; each must exist."""

    def _tracing(self):
        name = "perfbench_tracing"
        if name not in sys.modules:
            path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
            spec = importlib.util.spec_from_file_location(name, path)
            sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[name])
        return sys.modules[name]

    def test_instrument_wraps_existing_names_and_close_restores_them(self):
        import feddrift.engine as engine_module

        tracing = self._tracing()
        before = (engine_module.run_local_round, engine_module.FederatedRun.run_round)
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        assert engine_module.run_local_round is not before[0]
        tracer.close()
        assert (engine_module.run_local_round, engine_module.FederatedRun.run_round) == before

    def test_traced_two_round_run(self):
        tracing = self._tracing()
        tracer = tracing.Tracer()
        records, _ = tracer.trace(lambda: run_experiment(small_cfg("feddc", rounds=2, alpha=0.005)), 1)
        assert [r.round for r in records] == [1, 2]
        names = {span.name for span in tracer.spans}
        assert {"engine.init", "engine.round", "federation.aggregate",
                "federation.apply_update", "federation.grad_variance",
                "vectors.weighted_mean", "models.eval_accuracy"} <= names
        # Each round enters every wrapped name of its loop once: a name the loop
        # stops calling leaves its layer metric at 0 instead of failing here.
        wrapped = ["federation.aggregate", "federation.apply_update",
                   "federation.grad_variance", "federation.sample"]
        rounds = [i for i, span in enumerate(tracer.spans) if span.name == "engine.round"]
        assert [sorted(s.name for s in tracer.spans if s.parent == r and s.name in wrapped)
                for r in rounds] == [wrapped] * 2
        layers = tracer.layer_metrics(1)
        assert layers["federation.bytes_up"] == sum(r.bytes_up for r in records)
        assert layers["engine.client_state_mb"] > 0

    def test_wrapped_functions_are_entered_on_the_calling_thread_of_a_pooled_round(self):
        """The tracer's span stack is not thread-safe: a round that evaluates and
        derives its rows on the pool still enters every wrapped name here."""
        if federation._openblas() is None:
            pytest.skip("this numpy bundles no OpenBLAS thread setter, so rounds run serially")
        tracing = self._tracing()
        entered, pooled = [], []

        class ThreadTracer(tracing.Tracer):
            def _open(self, name):
                entered.append((name, threading.get_ident()))
                return super()._open(name)

        def on_pool(fn):
            def call(*args):
                pooled.append(threading.get_ident())
                return fn(*args)
            return call

        spec = ModelSpec("mlp", 30, 10, hidden_dims=(1024,))  # P = 41,994 > BUDGET // 2
        cfg = ExperimentConfig(
            dataset=SyntheticConfig(n_clients=4, samples_per_client_mean=20, seed=0),
            model=spec,
            algo=AlgoConfig("feddc", lr=0.01, local_epochs=1, batch_size=10, alpha=0.01),
            rounds=2,
        )
        with mock.patch.object(federation, "_usable_cpus", lambda: 2), \
                mock.patch.object(models, "_CHUNK", 7), \
                mock.patch.object(models, "_hits", on_pool(models._hits)), \
                mock.patch.object(models, "_cross_entropy", on_pool(models._cross_entropy)):
            ThreadTracer().trace(lambda: run_experiment(cfg), 1)
        main = threading.get_ident()
        assert {"models.eval_accuracy", "models.eval_loss", "federation.apply_update",
                "federation.grad_variance", "federation.aggregate",
                "vectors.weighted_mean"} <= {name for name, _ in entered}
        assert {thread for _, thread in entered} == {main}
        assert pooled and main not in pooled  # the evaluation slices ran on the pool


class TestBenchmarkWorkloads:
    """The benchmark drives the program through its public entry points: a
    renamed or re-signed call breaks a workload's set-up or operation here."""

    def _workloads(self, monkeypatch):
        name = "perfbench_workloads"
        if name not in sys.modules:
            root = Path(__file__).resolve().parents[1] / "perfbench"
            monkeypatch.syspath_prepend(str(root))  # workloads.py imports its siblings by name
            spec = importlib.util.spec_from_file_location(name, root / "workloads.py")
            sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[name])
        return sys.modules[name]

    @pytest.mark.parametrize("name", ["synth-feddc-full", "mnist-feddc-partial",
                                      "sweep-synth-algos"])
    def test_a_workload_sets_up_and_runs_without_errors(self, tmp_path, monkeypatch, name):
        workloads = self._workloads(monkeypatch)
        cls = workloads.WORKLOADS[name]
        size = {"n_train": 1000, "n_test": 200} if cls is workloads.MnistFeddcPartial else {}
        wl = cls(tmp_path, 0, reference=None, correct=False, **size)
        wl.prepare()
        assert wl.setup_once() > 0
        assert wl.op().errors == []
