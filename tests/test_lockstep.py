"""Lockstep training equals training each client alone, bit for bit.

`run_local_rounds` trains a round's whole active set, each group of
equal-size clients as stacked (C, P) blocks, and returns one RoundUpdate;
`run_local_round` is its one-client call. Every row of every block must
match the one-client result, sign bits included. Each step applies its
weight decay, correction terms and update in column tiles; every tiling
must match one whole-width pass per term. Chunks of one client may
train on a thread pool; the pool must give the serial loop's blocks,
errors and warnings.
"""

import contextlib
import dataclasses
import functools
import glob
import os
import sys
import threading
import time
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feddrift import federation
from feddrift.data import SyntheticConfig
from feddrift.engine import ExperimentConfig, FederatedRun
from feddrift.errors import DimensionError, NumericError, RunError
from feddrift.federation import (
    ALGORITHMS,
    RULES,
    AlgoConfig,
    ClientStore,
    ServerState,
    ablation_from_code,
    lockstep_groups,
    run_local_round,
    run_local_rounds,
)
from feddrift.models import ModelSpec, _grad_into, _split, _tiles, init_params
from feddrift.rng import stream

SPECS = {
    "logistic": ModelSpec("logistic", 6, 4),
    "mlp": ModelSpec("mlp", 6, 4, hidden_dims=(7, 5), weight_decay=1e-3),
}
ABLATION_CODES = ("le", "lelg", "lelp", "lelglp")


def _bits(v):
    return None if v is None else v.tobytes()


def _scenario(algorithm, code, model, sizes, batch_size, epochs, round_index,
              zero_extra, seed):
    """(cfg, spec, server, store, per-client data) with every stored row nonzero."""
    spec = SPECS[model]
    kw = {"alpha": 0.05} if algorithm in ("feddyn", "feddc") else {}
    if algorithm == "feddc":
        kw["ablation"] = ablation_from_code(code)
    cfg = AlgoConfig(algorithm, lr=0.2, local_epochs=epochs, batch_size=batch_size,
                     mu=0.01, **kw)
    rng = np.random.default_rng(seed)
    p = spec.param_count
    start = init_params(spec, stream(seed, "global-init"))
    for _w, b in _split(spec, start):
        b[...] = -0.0  # sign bits of zeros take part in every comparison
    server = replace(
        ServerState.fresh(start, len(sizes), seed),
        global_delta=0.01 * rng.standard_normal(p),
        scaffold_c=0.1 * rng.standard_normal(p),
        round=round_index,
    )
    store = ClientStore(sizes, p, RULES[algorithm].fields)
    store.write(range(len(sizes)),
                {name: 0.05 * rng.standard_normal((len(sizes), p)) for name in store.fields})
    if zero_extra:
        # Client 0's gradient-correction or control term is exactly zero.
        if "scaffold_c" in store.fields:
            store.write([0], {"scaffold_c": server.scaffold_c})
        if "last_delta" in store.fields:
            store.write([0], {"last_delta": server.global_delta})
    data = []
    for n in sizes:
        x = rng.standard_normal((n, spec.input_dim))
        data.append((x, rng.integers(0, spec.num_classes, n)))
    return cfg, spec, server, store, data


@settings(max_examples=60, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    code=st.sampled_from(ABLATION_CODES),
    model=st.sampled_from(sorted(SPECS)),
    sizes=st.lists(st.sampled_from([1, 5, 7, 12]), min_size=1, max_size=6),
    batch_size=st.sampled_from([3, 4, 5]),
    epochs=st.integers(1, 2),
    round_index=st.integers(0, 3),
    zero_extra=st.booleans(),
    cap=st.sampled_from([1, 2, 64]),
    seed=st.integers(0, 2**16),
    draw=st.data(),
)
def test_lockstep_groups_equal_one_client_rounds(algorithm, code, model, sizes, batch_size,
                                                 epochs, round_index, zero_extra, cap, seed,
                                                 draw):
    cfg, spec, server, store, data = _scenario(
        algorithm, code, model, sizes, batch_size, epochs, round_index, zero_extra, seed
    )
    active = draw.draw(
        st.lists(st.sampled_from(range(len(sizes))), min_size=1, unique=True), label="active"
    )

    def rng(i):
        return stream(seed, "batch-shuffle", client=i, round_index=round_index)

    alone = [
        run_local_round(store, i, server, cfg, *data[i], rng(i), spec)
        for i in sorted(active)
    ]
    # The chunk cap is max(1, BUDGET // P) clients.
    with mock.patch.object(federation, "BUDGET", cap * spec.param_count):
        block = run_local_rounds(
            store, active, server, cfg, lambda i: (*data[i], rng(i)), spec
        )
    assert block.ids.tolist() == sorted(active)
    for r, one in enumerate(alone):
        for field in ("theta", "delta", "drift_plus", "c_plus"):
            row = getattr(block, field)
            assert _bits(getattr(one, field)) == _bits(None if row is None else row[r]), field
        assert (one.ids[0], one.n_samples[0], one.k_steps[0]) == (
            block.ids[r], block.n_samples[r], block.k_steps[r]
        )


def _whole_width_sgd(theta, terms, inputs, labels, rngs, spec, batch_size, epochs, lr_t):
    """`federation._local_sgd` with one whole-width pass per term and step: the oracle."""
    pull, anchor, extra, _ = terms
    on = None if extra is None else extra.any(axis=1)[:, None]
    n = labels[0].shape[0]
    grad = np.empty_like(theta)
    layers, glayers = _split(spec, theta), _split(spec, grad)
    for _ in range(epochs):
        orders = [rng.permutation(n) for rng in rngs]
        xp = np.stack([x[order] for x, order in zip(inputs, orders)])
        yp = np.stack([y[order] for y, order in zip(labels, orders)])
        for lo in range(0, n, batch_size):
            _grad_into(layers, glayers, xp[:, lo : lo + batch_size], yp[:, lo : lo + batch_size])
            if spec.weight_decay > 0.0:
                for (w, _b), (gw, _gb) in zip(layers, glayers):
                    gw += spec.weight_decay * w
            if anchor is not None:
                grad += pull * (theta - anchor)
            if extra is not None:
                np.add(grad, extra, out=grad, where=on)
            theta -= lr_t * grad


@settings(max_examples=60, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    code=st.sampled_from(ABLATION_CODES),
    model=st.sampled_from(sorted(SPECS)),
    sizes=st.lists(st.sampled_from([1, 5, 7]), min_size=1, max_size=4),
    batch_size=st.sampled_from([3, 4]),
    round_index=st.integers(0, 3),
    zero_extra=st.booleans(),
    budget=st.sampled_from([1, 3, 7, "P", "2P"]),
    seed=st.integers(0, 2**16),
)
def test_tiled_steps_equal_whole_width_steps(algorithm, code, model, sizes, batch_size,
                                             round_index, zero_extra, budget, seed):
    cfg, spec, server, store, data = _scenario(
        algorithm, code, model, sizes, batch_size, 1, round_index, zero_extra, seed
    )
    p = spec.param_count

    def client_data(i):
        return (*data[i], stream(seed, "batch-shuffle", client=i, round_index=round_index))

    ids = range(len(sizes))
    # _local_sgd returns the call that trains; the oracle trains when called too.
    with mock.patch.object(federation, "_local_sgd",
                           lambda *args: functools.partial(_whole_width_sgd, *args)):
        whole = run_local_rounds(store, ids, server, cfg, client_data, spec)
    # A budget below P trains one client at a time in tiles of `budget`
    # columns; a budget of P or 2P fits whole rows of one or two clients.
    budget = {"P": p, "2P": 2 * p}.get(budget, budget)
    if budget < p:
        assert len(_tiles(spec, budget)) > 1
    with mock.patch.object(federation, "BUDGET", budget):
        tiled = run_local_rounds(store, ids, server, cfg, client_data, spec)
    for field in ("theta", "delta", "drift_plus", "c_plus"):
        assert _bits(getattr(tiled, field)) == _bits(getattr(whole, field)), field


def test_a_zero_term_stays_off_for_its_client_alone():
    """Client 0's zero control term leaves it on the plain-SGD path beside clients that use theirs."""
    cfg, spec, server, store, data = _scenario(
        "scaffold", "lelglp", "mlp", [5, 5, 5], 2, 1, 1, True, 3
    )
    up = run_local_rounds(
        store, [0, 1, 2], server, cfg,
        lambda i: (*data[i], stream(3, "batch-shuffle", client=i, round_index=1)), spec,
    )
    plain = replace(cfg, algorithm="fedavg")
    alone = run_local_round(
        ClientStore([5], spec.param_count), 0, server, plain, *data[0],
        stream(3, "batch-shuffle", client=0, round_index=1), spec,
    )
    assert _bits(up.theta[0]) == _bits(alone.theta[0])


def test_a_zero_row_of_extra_keeps_negative_zero_gradients():
    """Adding a zero `extra` row would turn the -0.0 entries of its gradient into +0.0."""
    cfg, spec, server, store, _ = _scenario(
        "scaffold", "lelglp", "logistic", [5, 5], 2, 1, 0, True, 4
    )
    p = spec.param_count
    terms = federation._correction_terms(store, [0, 1], server, cfg, 5, 0.2)
    grad, theta = np.full((2, p), -0.0), np.zeros((2, p))
    federation._add_terms(grad, theta, *terms, np.empty((2, p)))
    assert np.signbit(grad[0]).all() and not grad[0].any()
    assert _bits(grad[1]) == _bits(server.scaffold_c - store.rows("scaffold_c", 1))


def test_lockstep_groups_by_size_in_id_order():
    sizes = np.array([5, 7, 5, 5, 7, 3])
    assert lockstep_groups([4, 0, 2, 3, 1], sizes, 64) == [[0, 2, 3], [1, 4]]
    assert lockstep_groups(range(6), sizes, 2) == [[0, 2], [3], [1, 4], [5]]
    assert lockstep_groups([5], sizes, 1) == [[5]]


def test_group_shapes_are_checked():
    cfg, spec, server, store, data = _scenario(
        "fedavg", "lelglp", "logistic", [5, 5], 3, 1, 0, False, 0
    )
    x = [d[0] for d in data]
    y = [d[1] for d in data]

    def run(xs, ys, ids=(0, 1)):
        def client_data(i):
            return xs[i], ys[i], stream(0, "batch-shuffle", client=i)

        return run_local_rounds(store, ids, server, cfg, client_data, spec)

    with pytest.raises(DimensionError):
        run(x, [y[0], y[1][:4]])
    with pytest.raises(DimensionError):
        run([x[0], x[1][:, :5]], y)
    with pytest.raises(DimensionError):
        run(x, y, ids=[])


def _blas():
    """numpy's OpenBLAS (get, set) thread-count pair; skips the test if this numpy has none."""
    if federation._openblas() is None:
        pytest.skip("this numpy bundles no OpenBLAS thread setter, so rounds keep the serial loop")
    return federation._openblas()


@contextlib.contextmanager
def one_client_chunks(spec, workers, pool=True):
    """Chunks of one client and `workers` usable CPUs, trained on the pool,
    or with `pool` false on the serial loop that a numpy without the
    thread setter keeps; yields the list of threads that each chunk
    trained on. The serial loop is pinned to one BLAS thread here, as
    the round pins the pool."""
    _blas()
    trained_on = []
    sgd_of = federation._local_sgd

    def recording_sgd(*args):
        sgd = sgd_of(*args)

        def call():
            trained_on.append(threading.get_ident())
            sgd()

        return call

    lookup = federation._openblas if pool else lambda: None
    pin = contextlib.nullcontext() if pool else federation.one_blas_thread()
    with pin, \
            mock.patch.object(federation, "BUDGET", spec.param_count), \
            mock.patch.object(federation, "_openblas", lookup), \
            mock.patch.object(federation, "_usable_cpus", lambda: workers), \
            mock.patch.object(federation, "_local_sgd", recording_sgd):
        yield trained_on


THREADED_SIZES = [5, 7, 12, 5, 1, 7, 12]  # unequal, and more clients than threads


def _threaded_round(algorithm, code, model, workers, pool=True):
    cfg, spec, server, store, data = _scenario(
        algorithm, code, model, THREADED_SIZES, 3, 2, 2, True, 11
    )

    def client_data(i):
        return (*data[i], stream(11, "batch-shuffle", client=i, round_index=2))

    with one_client_chunks(spec, workers, pool) as trained_on:
        update = run_local_rounds(store, range(len(THREADED_SIZES)), server, cfg,
                                  client_data, spec)
    return update, trained_on


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("model", sorted(SPECS))
@pytest.mark.parametrize("algorithm,code", [(a, "lelglp") for a in ALGORITHMS]
                         + [("feddc", c) for c in ABLATION_CODES[:-1]])
def test_threaded_chunks_equal_the_serial_loop(algorithm, code, model, workers):
    serial, on_serial = _threaded_round(algorithm, code, model, workers, pool=False)
    threaded, on_threads = _threaded_round(algorithm, code, model, workers)
    main = threading.get_ident()
    assert set(on_serial) == {main}
    assert len(on_threads) == len(THREADED_SIZES) and main not in on_threads
    assert len(set(on_threads)) <= workers
    for f in dataclasses.fields(serial):
        assert _bits(getattr(threaded, f.name)) == _bits(getattr(serial, f.name)), f.name


def test_threaded_chunks_under_rapid_thread_switches():
    """More threads than cores, switching every microsecond: no row is lost or mixed."""
    sizes = [3 + i % 9 for i in range(16)]
    cfg, spec, server, store, data = _scenario("scaffold", "lelglp", "mlp", sizes, 2, 1, 1,
                                               True, 2)

    def client_data(i):
        return (*data[i], stream(2, "batch-shuffle", client=i, round_index=1))

    workers = (os.cpu_count() or 1) + 1
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with one_client_chunks(spec, workers, pool=False):
            serial = run_local_rounds(store, range(16), server, cfg, client_data, spec)
        with one_client_chunks(spec, workers):
            threaded = run_local_rounds(store, range(16), server, cfg, client_data, spec)
    finally:
        sys.setswitchinterval(interval)
    for f in dataclasses.fields(serial):
        assert _bits(getattr(threaded, f.name)) == _bits(getattr(serial, f.name)), f.name


def test_a_blas_on_more_threads_trains_on_the_pool_on_one_thread():
    """The round sets one BLAS thread itself and restores the caller's count."""
    get, put = _blas()
    counts = []
    sgd_of = federation._local_sgd

    def counting_sgd(*args):
        sgd = sgd_of(*args)

        def call():
            counts.append(get())
            sgd()

        return call

    before = get()
    try:
        put(2)
        with mock.patch.object(federation, "_local_sgd", counting_sgd):
            _, trained_on = _threaded_round("feddc", "lelglp", "mlp", 2)
        assert get() == 2
    finally:
        put(before)
    assert counts == [1] * len(THREADED_SIZES)
    assert threading.get_ident() not in trained_on


def test_an_unanswered_blas_query_keeps_the_serial_loop():
    """A numpy without the thread setter trains one chunk after another."""
    with mock.patch("concurrent.futures.ThreadPoolExecutor", None):
        _, trained_on = _threaded_round("fedavg", "lelglp", "mlp", 2, pool=False)
    assert set(trained_on) == {threading.get_ident()}


def test_the_blas_thread_query_answers():
    """The one lookup reaches numpy's bundled OpenBLAS, once, and the pin restores its count."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    if not glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")):
        pytest.skip("this numpy bundles no OpenBLAS, so rounds keep the serial loop")
    get, _ = federation._openblas()
    assert federation._openblas() is federation._openblas()
    before = get()
    assert before >= 1
    with federation.one_blas_thread() as pinned:
        assert pinned and get() == 1
    assert get() == before


# (client -> (seconds, error) of its training call, client whose data is
# malformed, error raised). Client 0 fails last in time and first in chunk
# order; an error in a later chunk's set-up does not hide it.
CHUNK_FAILURES = {
    "a-later-chunk-fails-first": ({0: (0.2, "client 0"), 1: (0.0, "client 1")}, None, "client 0"),
    "a-set-up-fails-after-a-chunk": ({0: (0.2, "client 0")}, 2, "client 0"),
    "a-set-up-fails-alone": ({}, 2, "clients \\[2\\] need"),
}


@pytest.mark.parametrize("failures,bad_data,raised", CHUNK_FAILURES.values(),
                         ids=CHUNK_FAILURES.keys())
def test_the_first_error_in_chunk_order_is_raised(failures, bad_data, raised):
    cfg, spec, server, store, data = _scenario(
        "feddc", "lelglp", "mlp", [5, 7, 12, 6, 8], 3, 1, 0, False, 5
    )  # sizes all differ, so chunk order is id order
    set_up = federation._chunk_round
    started = []

    def failing_chunk_round(*args):
        train, (client,) = set_up(*args), args[-1]

        def call():
            started.append(client)
            seconds, message = failures.get(client, (0.0, None))
            time.sleep(seconds)
            if message:
                raise ValueError(message)
            train()

        return call

    def client_data(i):
        x, y = data[i]
        return x, y[:-1] if i == bad_data else y, stream(5, "batch-shuffle", client=i)

    threads = threading.active_count()
    with one_client_chunks(spec, 2), \
            mock.patch.object(federation, "_chunk_round", failing_chunk_round):
        with pytest.raises((ValueError, DimensionError), match=raised):
            run_local_rounds(store, range(5), server, cfg, client_data, spec)
    assert 4 not in started  # no chunk starts once one has failed
    assert threading.active_count() == threads  # no thread outlives the round


def test_a_diverging_threaded_round_names_its_round_without_warnings():
    """The round's np.errstate reaches the threads that train its chunks."""
    spec = ModelSpec("mlp", 30, 5, hidden_dims=(8,))
    cfg = ExperimentConfig(
        dataset=SyntheticConfig(n_clients=4, samples_per_client_mean=20, seed=0),
        model=spec,
        algo=AlgoConfig("feddc", lr=1e308, local_epochs=2, batch_size=10, alpha=0.01),
        rounds=2,
    )
    run = FederatedRun(cfg)
    with one_client_chunks(spec, 2) as trained_on, warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(RunError, match="round 1: ") as info:
            run.run_round()
    assert len(trained_on) == 4 and threading.get_ident() not in trained_on
    assert isinstance(info.value.__cause__, NumericError)
    assert [str(w.message) for w in seen] == []
