import importlib.util
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feddrift import engine
from feddrift.data import PartitionPlan, SyntheticConfig
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
    summarize,
    write_records_csv,
    write_summary_json,
)
from feddrift.errors import (
    EmptyEvaluationError,
    FormatError,
    LengthError,
    NumericError,
    ParameterError,
    RunError,
    VersionError,
)
from feddrift.federation import AlgoConfig, round_lr, steps_per_round
from feddrift.models import ModelSpec, accuracy, init_params, loss_and_grad, mean_loss
from feddrift.rng import stream

LOGISTIC = ModelSpec("logistic", 30, 5)

# Header changes to a fedavg checkpoint of 5 clients restored into its
# own config. A round that is not an integer >= 0, or any other value
# that differs from the run's, is a FormatError raised before anything
# is allocated; so is a key the run's header lacks.
BAD_HEADERS = [
    {"param_count": -1},
    {"param_count": 10**15},
    {"param_count": 2.5},
    {"round": -1},
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
        before = {f: run.clients.rows(f, range(8)) for f in run.clients.fields}
        run.run_round()
        from feddrift.federation import sample_active_set
        from feddrift.rng import stream

        active = sample_active_set(
            8, 0.25, 1, stream(cfg.seed, "participation", round_index=1)
        )
        for f, old in before.items():
            new = run.clients.rows(f, range(8))
            for i in range(8):
                assert np.array_equal(new[i], old[i]) == (i not in active), (f, i)


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
        untrained = [i for i in ids if not run.clients.rows("scaffold_c", i).any()]
        assert len(untrained) == 2  # 3 of 5 clients trained
        # zero by value but not by bits: must load
        run.clients.write([untrained[0]], {"scaffold_c": -0.0})
        rows = run.clients.rows("scaffold_c", ids)
        path = tmp_path / "ckpt.bin"
        checkpoint_save(path, run.server, run.clients)
        restored = checkpoint_restore(FederatedRun(cfg), path)
        server, clients = restored.server, restored.clients
        assert bits(server.global_params, run.server.global_params)
        assert bits(server.scaffold_c, run.server.scaffold_c)
        assert server.round == run.server.round
        assert clients.fields == run.clients.fields == ("scaffold_c",)
        assert clients.rows("scaffold_c", ids).tobytes() == rows.tobytes()
        assert np.signbit(clients.rows("scaffold_c", untrained[0])).all()
        assert not np.signbit(clients.rows("scaffold_c", untrained[1])).any()
        assert clients.rows("scaffold_c", ids).any()
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
        with pytest.raises(LengthError):
            checkpoint_restore(FederatedRun(cfg), truncated)

        trailing = tmp_path / "long.bin"
        trailing.write_bytes(raw + b"\0")
        with pytest.raises(LengthError):
            checkpoint_restore(FederatedRun(cfg), trailing)

        # v1 held four vectors per client, theta among them; v2 every client's rows
        for version in (1, 2, 99):
            bad_version = tmp_path / "version.bin"
            bad_version.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
            with pytest.raises(VersionError):
                checkpoint_restore(FederatedRun(cfg), bad_version)

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
        "param_count=-1", "param_count=1e15", "param_count=2.5", "round=-1", "rng_seed=-5",
        "n_clients=7", "extra_key", "rng_seed=false", "param_count=155.0",
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
            run.clients.write([negative_zero_client], {name: -0.0 for name in run.clients.fields})
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
                got = restored.clients.rows(name, negative_zero_client)
                assert np.signbit(got).all() and not got.any()

    @pytest.mark.parametrize("corrupt", ["duplicate", "gap", "out-of-range", "negative",
                                         "truncated"])
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
        error = LengthError if corrupt == "truncated" else FormatError
        with pytest.raises(error, match="truncated" if corrupt == "truncated" else "slot map"):
            checkpoint_restore(target, path)

    def test_restore_into_a_trained_run_resets_untrained_rows(self, tmp_path):
        cfg = small_cfg("scaffold", rounds=3, participation=0.6)
        first = FederatedRun(cfg)
        first.run_round()
        untrained = [i for i in range(5) if not first.clients.rows("scaffold_c", i).any()]
        assert untrained  # some clients sat out round 1
        path = tmp_path / "ckpt.bin"
        checkpoint_save(path, first.server, first.clients)

        busy = FederatedRun(cfg)
        busy.run_round()
        busy.run_round()
        assert all(busy.clients.rows("scaffold_c", i).any() for i in untrained)  # trained in round 2
        restored = checkpoint_restore(busy, path)
        assert restored.round == 1
        got, want = (r.clients.rows("scaffold_c", range(5)) for r in (restored, first))
        assert got.tobytes() == want.tobytes()
        assert not restored.clients.rows("scaffold_c", untrained).view(np.uint64).any()

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
        with pytest.raises(EmptyEvaluationError):
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

    def test_summary_json(self, tmp_path):
        recs, summary = run_experiment(small_cfg(rounds=3))
        path = tmp_path / "summary.json"
        write_summary_json(path, summary)
        payload = json.loads(path.read_text())
        assert "best_accuracy" in payload
        assert set(payload["rounds_to_target"]) == {"0.5", "0.9"}


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
        assert np.array_equal(ds.train_inputs, x[:30]) and np.array_equal(ds.train_labels, y[:30])

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
        layers = tracer.layer_metrics(1)
        assert layers["federation.bytes_up"] == sum(r.bytes_up for r in records)
        assert layers["engine.client_state_mb"] > 0
