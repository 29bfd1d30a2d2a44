"""Smoke-size runs of every workload, plain and traced."""

import pytest
from feddrift import engine

import run
import tracing
import workloads

SYNTH_SMALL = {"dataset": {"n_clients": 3, "samples_per_client_mean": 20}, "rounds": 2}
MNIST_SMALL = {
    "dataset": {"n_clients": 4},
    "model": {"hidden_dims": [16]},
    "algorithm": {"participation": 0.5},
    "rounds": 4,
    "eval_every": 2,
}
MNIST_SIZE = {"n_train": 400, "n_test": 100}


def smoke(name, path, **kwargs):
    cls = workloads.WORKLOADS[name]
    extra = MNIST_SIZE if cls is workloads.MnistFeddcPartial else {}
    overrides = MNIST_SMALL if cls is workloads.MnistFeddcPartial else SYNTH_SMALL
    wl = cls(path, 13, overrides=overrides, **extra, **kwargs)
    wl.prepare()
    assert wl.setup_once() > 0
    return wl


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_passes_its_checks_plain_and_traced(tmp_path, name):
    wl = smoke(name, tmp_path)
    plain = wl.op()
    assert plain.errors == []
    assert plain.run_s > 0 and plain.samples > 0 and plain.round_s
    tracer = tracing.Tracer()
    traced = tracer.trace(wl.op, run_id=0)
    assert traced.errors == [] and traced.digest == plain.digest
    layers = tracer.layer_metrics(0)
    assert tuple(layers) == tracing.LAYER_METRICS
    assert layers["federation.local_rounds"] > 0
    assert layers["federation.client_steps"] > 0
    assert layers["engine.round_self_s"] > 0
    assert layers["cli.build_experiment_s"] > 0
    assert layers["models.eval_samples"] > 0
    assert layers["rng.streams_opened"] > 0
    tracer.write(tmp_path / "trace.json")
    assert (tmp_path / "trace.json").stat().st_size > 0


def test_digest_check_against_a_wrong_reference_fails(tmp_path):
    wl = smoke("synth-feddc-full", tmp_path)
    wl.reference = "0" * 64
    assert wl.op().errors


def test_resumed_mnist_run_equals_the_uninterrupted_one(tmp_path):
    resumed = smoke("mnist-feddc-partial", tmp_path / "a")
    straight = smoke("mnist-feddc-partial", tmp_path / "b", resume=False)
    tracer = tracing.Tracer()
    a = tracer.trace(resumed.op, run_id=0)
    b = straight.op()
    assert a.errors == [] and b.errors == []
    assert a.digest == b.digest
    layers = tracer.layer_metrics(0)
    assert layers["engine.checkpoint_mb"] > 0
    assert 0 < layers["engine.checkpoint_useful_ratio"] <= 1
    assert layers["data.partition_samples"] == MNIST_SIZE["n_train"]


def test_surrogate_is_a_function_of_the_seed(tmp_path):
    import surrogate

    def files(d, seed):
        paths = surrogate.write_surrogate(d, seed, 50, 10)
        return {k: open(p, "rb").read() for k, p in paths.items()}

    assert files(tmp_path / "a", 5) == files(tmp_path / "b", 5)
    assert files(tmp_path / "a", 5) != files(tmp_path / "c", 6)


def test_measure_stops_before_a_call_would_overrun(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run, "perf_counter", lambda: clock[0])
    calls = []

    def step():
        calls.append(clock[0])
        clock[0] += 10.0

    run.measure(step, 35.0)  # a fourth call would end at 40 s
    assert len(calls) == 3
    calls.clear()
    run.measure(step, 1.0)  # one call always runs
    assert len(calls) == 1


def test_tracing_leaves_the_program_as_it_found_it(tmp_path):
    before = (engine.run_local_round, engine.FederatedRun.run_round, engine.stream)
    wl = smoke("synth-feddc-full", tmp_path)
    tracing.Tracer().trace(wl.op, run_id=0)
    assert (engine.run_local_round, engine.FederatedRun.run_round, engine.stream) == before
