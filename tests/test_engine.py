import importlib.util
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from feddrift.data import PartitionPlan, SyntheticConfig
from feddrift.engine import (
    CSV_HEADER,
    ExperimentConfig,
    FederatedRun,
    MnistConfig,
    RoundRecord,
    build_dataset,
    centralized_oracle,
    checkpoint_load,
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
from feddrift.federation import AlgoConfig
from feddrift.models import ModelSpec, accuracy, mean_loss

LOGISTIC = ModelSpec("logistic", 30, 5)

# (header change, error) for a fedavg checkpoint of 5 clients. A header
# value of the wrong type or range is a FormatError; a size the file
# does not have is a LengthError, raised before anything is allocated.
BAD_HEADERS = [
    ({"param_count": -1}, FormatError),
    ({"param_count": 10**15}, LengthError),
    ({"param_count": 2.5}, FormatError),
    ({"round": -1}, FormatError),
    ({"rng_seed": -5}, FormatError),
    ({"n_clients": 7, "n_samples": [30, 30]}, FormatError),
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
        before = {f: getattr(run.clients, f).copy() for f in run.clients.fields}
        run.run_round()
        from feddrift.federation import sample_active_set
        from feddrift.rng import stream

        active = sample_active_set(
            8, 0.25, 1, stream(cfg.seed, "participation", round_index=1)
        )
        for f, old in before.items():
            new = getattr(run.clients, f)
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
        rows = run.clients.scaffold_c
        untrained = [i for i in range(len(rows)) if not rows[i].any()]
        assert len(untrained) == 2  # 3 of 5 clients trained
        rows[untrained[0]] = -0.0  # zero by value but not by bits: must load
        path = tmp_path / "ckpt.bin"
        checkpoint_save(path, run.server, run.clients)
        server, clients = checkpoint_load(path)
        assert bits(server.global_params, run.server.global_params)
        assert bits(server.scaffold_c, run.server.scaffold_c)
        assert server.round == run.server.round
        assert clients.fields == run.clients.fields == ("scaffold_c",)
        assert clients.scaffold_c.tobytes() == rows.tobytes()
        assert np.signbit(clients.scaffold_c[untrained[0]]).all()
        assert not np.signbit(clients.scaffold_c[untrained[1]]).any()
        assert clients.scaffold_c.any()
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
                   if isinstance(v, np.ndarray) and k != "n_samples"]
        assert sum(v.nbytes for v in vectors) == len(fields) * n * p * 8
        path = tmp_path / "ckpt.bin"
        checkpoint_save(path, run.server, run.clients)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        assert len(raw) == 12 + hlen + (4 + len(fields) * n) * p * 8

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
            checkpoint_load(bad_magic)

        truncated = tmp_path / "short.bin"
        truncated.write_bytes(raw[:-20])
        with pytest.raises(LengthError):
            checkpoint_load(truncated)

        trailing = tmp_path / "long.bin"
        trailing.write_bytes(raw + b"\0")
        with pytest.raises(LengthError):
            checkpoint_load(trailing)

        for version in (1, 99):  # v1 held four vectors per client, theta among them
            bad_version = tmp_path / "version.bin"
            bad_version.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
            with pytest.raises(VersionError):
                checkpoint_load(bad_version)

        def with_header(**changes):
            return rewrite_header(raw, tmp_path / "header.bin", **changes)

        with pytest.raises(FormatError):
            checkpoint_load(with_header(fields=["theta"]))
        with pytest.raises(FormatError, match="seed 1.*seed 0"):
            checkpoint_restore(FederatedRun(cfg), with_header(rng_seed=1))
        resized = run.clients.n_samples.tolist()
        resized[0] += 1
        with pytest.raises(FormatError, match="sample counts"):
            checkpoint_restore(FederatedRun(cfg), with_header(n_samples=resized))

        feddc = FederatedRun(small_cfg("feddc", rounds=1, alpha=0.005))
        feddc.run_round()
        feddc_path = tmp_path / "feddc.bin"
        checkpoint_save(feddc_path, feddc.server, feddc.clients)
        with pytest.raises(FormatError, match="fedavg"):
            checkpoint_restore(FederatedRun(cfg), feddc_path)

    @pytest.mark.parametrize("changes,error", BAD_HEADERS, ids=[
        "param_count=-1", "param_count=1e15", "param_count=2.5", "round=-1", "rng_seed=-5",
        "n_clients=7",
    ])
    def test_checkpoint_header_checked_before_allocation(self, tmp_path, changes, error):
        run = FederatedRun(small_cfg(rounds=1))
        run.run_round()
        path = tmp_path / "ckpt.bin"
        checkpoint_save(path, run.server, run.clients)
        with pytest.raises(error, match="checkpoint header"):
            checkpoint_load(rewrite_header(path.read_bytes(), path, **changes))

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
        server, _ = checkpoint_load(path)
        assert server.round == 1


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


class TestCentralizedOracle:
    def test_single_client_run_is_bitwise_identical(self, bits):
        cfg = ExperimentConfig(
            dataset=SyntheticConfig(n_clients=1, samples_per_client_mean=40, seed=3),
            model=LOGISTIC,
            algo=AlgoConfig("fedavg", lr=0.1, local_epochs=2, batch_size=10),
            rounds=5,
            seed=3,
        )
        run = FederatedRun(cfg)
        records, distances = centralized_oracle(cfg, fed_params=trajectory(run))
        assert distances and all(d == 0.0 for _, d in distances)
        assert records[-1].test_accuracy == run.records[-1].test_accuracy

    def test_centralized_at_least_matches_federated_minus_margin(self):
        cfg = ExperimentConfig(
            dataset=SyntheticConfig(n_clients=5, samples_per_client_mean=200, seed=4),
            model=LOGISTIC,
            algo=AlgoConfig("fedavg", lr=0.1, local_epochs=4, batch_size=10),
            rounds=60,
            eval_every=10,
            seed=4,
        )
        fed_records, fed_summary = run_experiment(cfg)
        central_records, _ = centralized_oracle(cfg)
        central_best = max(
            r.test_accuracy for r in central_records if r.test_accuracy is not None
        )
        assert central_best >= fed_summary.best_accuracy - 0.01

    def test_distance_series_finite(self):
        cfg = small_cfg("feddc", alpha=0.005, rounds=4)
        _, distances = centralized_oracle(cfg, fed_params=trajectory(FederatedRun(cfg)))
        assert len(distances) == 4
        assert all(np.isfinite(d) for _, d in distances)


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
