"""Lockstep training equals training each client alone, bit for bit.

`run_local_rounds` trains a round's whole active set, each group of
equal-size clients as stacked (C, P) blocks, and returns one RoundUpdate;
`run_local_round` is its one-client call. Every row of theta, and every
row `apply_update` then writes into a copy of the store, must match the
one-client result, sign bits included. Each step applies its
weight decay, correction terms and update in column tiles; every tiling
must match one whole-width pass per term. Chunks of one client may
train on a thread pool; the pool must give the serial loop's blocks,
errors and warnings. The same rule puts evaluation slices and the
chunks `apply_update` and the variance diagnostic derive on the pool,
which must give the serial records, checkpoint bytes and first error.
uint8 pixels, scaled per batch and per evaluation slice, must train and
evaluate bitwise as their float64 decode does.
"""

import contextlib
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

from conftest import seed_rows, store_rows
from feddrift import federation, models
from feddrift.data import FederatedDataset, SyntheticConfig
from feddrift.engine import (
    ExperimentConfig,
    FederatedRun,
    checkpoint_save,
    run_experiment,
    write_records_csv,
)
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
from feddrift.models import ModelSpec, _as_float, _grad_into, _split, _tiles, init_params
from feddrift.rng import stream

SPECS = {
    "logistic": ModelSpec("logistic", 6, 4),
    "mlp": ModelSpec("mlp", 6, 4, hidden_dims=(7, 5), weight_decay=1e-3),
}
ABLATION_CODES = ("le", "lelg", "lelp", "lelglp")


def _bits(v):
    return None if v is None else v.tobytes()


def _next_rows(store, update, server, cfg):
    """Each field's rows of the update's clients, as bytes, after applying it to a copy of `store`."""
    copy = ClientStore(store.n_samples, store.param_count, store.fields, store.slot)
    for name in store.fields:
        getattr(copy, name)[...] = getattr(store, name)
    federation.apply_update(copy, update, server)
    return {name: [row.tobytes() for row in store_rows(copy, name, update.ids)]
            for name in copy.fields}


def _same_round(got, want, store, server, cfg):
    """The two RoundUpdates are equal, and so are the rows they write into the store."""
    for name in ("ids", "n_samples", "k_steps", "theta"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert _next_rows(store, got, server, cfg) == _next_rows(store, want, server, cfg)


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
    seed_rows(store, range(len(sizes)),
              {name: 0.05 * rng.standard_normal((len(sizes), p)) for name in store.fields})
    if zero_extra:
        # Client 0's gradient-correction or control term is exactly zero.
        if "scaffold_c" in store.fields:
            seed_rows(store, [0], {"scaffold_c": server.scaffold_c})
        if "last_delta" in store.fields:
            seed_rows(store, [0], {"last_delta": server.global_delta})
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
        block_rows = _next_rows(store, block, server, cfg)
    assert block.ids.tolist() == sorted(active)
    for r, one in enumerate(alone):
        assert _bits(one.theta[0]) == _bits(block.theta[r])
        for name, rows in _next_rows(store, one, server, cfg).items():
            assert rows[0] == block_rows[name][r], name
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
    _same_round(tiled, whole, store, server, cfg)


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
    assert _bits(grad[1]) == _bits(server.scaffold_c - store_rows(store, "scaffold_c", 1))


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


def _threaded_round(algorithm, code, model, workers, pool=True, lockstep=False):
    """(update, threads trained on, (store, server, cfg) it trained from); with
    `lockstep`, clients of equal size train as stacked chunks on this thread."""
    cfg, spec, server, store, data = _scenario(
        algorithm, code, model, THREADED_SIZES, 3, 2, 2, True, 11
    )

    def client_data(i):
        return (*data[i], stream(11, "batch-shuffle", client=i, round_index=2))

    chunks = contextlib.nullcontext([]) if lockstep else one_client_chunks(spec, workers, pool)
    with chunks as trained_on:
        update = run_local_rounds(store, range(len(THREADED_SIZES)), server, cfg,
                                  client_data, spec)
    return update, trained_on, (store, server, cfg)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("model", sorted(SPECS))
@pytest.mark.parametrize("algorithm,code", [(a, "lelglp") for a in ALGORITHMS]
                         + [("feddc", c) for c in ABLATION_CODES[:-1]])
def test_threaded_chunks_equal_the_serial_loop(algorithm, code, model, workers):
    serial, on_serial, state = _threaded_round(algorithm, code, model, workers, pool=False)
    threaded, on_threads, _ = _threaded_round(algorithm, code, model, workers)
    main = threading.get_ident()
    assert set(on_serial) == {main}
    assert len(on_threads) == len(THREADED_SIZES) and main not in on_threads
    assert len(set(on_threads)) <= workers
    _same_round(threaded, serial, *state)
    # Stacked chunks whose rows in theta are not consecutive train in their own blocks.
    assert [0, 3] in lockstep_groups(range(len(THREADED_SIZES)), THREADED_SIZES, 7)
    lockstep, _, _ = _threaded_round(algorithm, code, model, workers, lockstep=True)
    _same_round(lockstep, serial, *state)


def test_threaded_chunks_under_rapid_thread_switches():
    """More threads than cores, switching every microsecond: no row, slot or
    evaluation slice is lost or mixed, in training, apply_update or mean_loss."""
    sizes = [3 + i % 9 for i in range(16)]
    cfg, spec, server, store, data = _scenario("scaffold", "lelglp", "mlp", sizes, 2, 1, 1,
                                               True, 2)

    def client_data(i):
        return (*data[i], stream(2, "batch-shuffle", client=i, round_index=1))

    def written(update):
        """The slot map and rows of a store where clients 9 and 4 came first."""
        fresh = ClientStore(store.n_samples, store.param_count, store.fields)
        seed_rows(fresh, [9, 4], {name: store_rows(store, name, [9, 4]) for name in store.fields})
        federation.apply_update(fresh, update, server)
        return fresh.slot.tobytes(), [getattr(fresh, name).tobytes() for name in fresh.fields]

    x, y = np.concatenate([x for x, _ in data]), np.concatenate([y for _, y in data])
    workers = (os.cpu_count() or 1) + 1
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for pool in (False, True):
            with one_client_chunks(spec, workers, pool), federation.one_blas_thread(), \
                    mock.patch.object(models, "_CHUNK", 7):
                update = run_local_rounds(store, range(16), server, cfg, client_data, spec)
                rows = written(update)
                loss = models.mean_loss(spec, server.global_params, x, y, workers * pool)
            if pool:
                _same_round(update, serial, store, server, cfg)
                assert rows == serial_rows and loss.hex() == serial_loss.hex()
            serial, serial_rows, serial_loss = update, rows, loss
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("algorithm", ["feddc", "scaffold"])
def test_worker_threads_call_no_store_method_but_stored(algorithm):
    """Two pooled rounds, which admit new clients and update written ones: a
    worker thread only writes the rows that `stored` gives it in place, and
    every call that can change `slot`, `used` or the field views runs here."""
    spec = SPECS["mlp"]
    kw = {"alpha": 0.05} if algorithm == "feddc" else {}
    cfg = ExperimentConfig(
        dataset=SyntheticConfig(n_clients=6, samples_per_client_mean=12,
                                input_dim=spec.input_dim, num_classes=spec.num_classes),
        model=spec, algo=AlgoConfig(algorithm, participation=0.5, batch_size=4, **kw), rounds=2,
    )
    run = FederatedRun(cfg)
    calls = []

    def recorded(name, method):
        @functools.wraps(method)
        def call(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return method(*args, **kwargs)

        return call

    methods = [(n, m) for n, m in vars(ClientStore).items()
               if callable(m) and not n.startswith("__")]
    with contextlib.ExitStack() as patches, one_client_chunks(spec, 2) as trained_on:
        for name, method in methods:
            patches.enter_context(mock.patch.object(ClientStore, name, recorded(name, method)))
        run.run_round()
        run.run_round()
    main = threading.get_ident()
    assert trained_on and main not in trained_on
    assert {name for name, thread in calls if thread != main} == {"stored"}
    assert run.clients.used > 3  # the second round admitted new clients


@pytest.mark.parametrize("model", sorted(SPECS))
def test_a_round_plans_once(model):
    """A round reads the usable CPUs, sizes its pool and sets its lr_t once each,
    in a pooled MLP round that evaluates and in a logistic one: training, the
    aggregate, the variance pass, apply_update and evaluation read the plan."""
    spec = SPECS[model]
    cfg = ExperimentConfig(
        dataset=SyntheticConfig(n_clients=6, samples_per_client_mean=12,
                                input_dim=spec.input_dim, num_classes=spec.num_classes),
        model=spec, algo=AlgoConfig("feddc", participation=0.5, batch_size=4, alpha=0.05),
        rounds=2,
    )
    run = FederatedRun(cfg)
    calls = dict.fromkeys(["_usable_cpus", "_pool_size", "round_lr"], 0)

    def counted(name):
        fn = getattr(federation, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)

        return mock.patch.object(federation, name, call)

    pool = one_client_chunks(spec, 2) if model == "mlp" else contextlib.nullcontext([])
    with pool as trained_on, contextlib.ExitStack() as patches:
        for name in calls:
            patches.enter_context(counted(name))
        for t in (1, 2):
            assert run.run_round().test_accuracy is not None
            assert calls["_pool_size"] == calls["round_lr"] == t
            assert calls["_usable_cpus"] == (t if model == "mlp" else 0)
    assert len(trained_on) == (6 if model == "mlp" else 0)  # 3 pooled chunks a round
    assert threading.get_ident() not in trained_on


def test_pixel_scaling_is_the_float_decode_bitwise():
    """Every byte value scales to its astype(np.float64) / 255.0, into a new array or a buffer."""
    pixels = np.arange(256, dtype=np.uint8)
    decode = (pixels.astype(np.float64) / 255.0).tobytes()
    assert _as_float(pixels).tobytes() == decode
    out = np.full(256, np.nan)
    assert _as_float(pixels, out) is out and out.tobytes() == decode
    floats = np.linspace(0.0, 1.0, 7)
    assert _as_float(floats) is floats
    # The public model functions read the pixels as that decode.
    spec = ModelSpec("mlp", 16, 3, hidden_dims=(5,), weight_decay=1e-3)
    theta = init_params(spec, stream(1, "testing"))
    x, y = pixels.reshape(16, 16), np.arange(16) % 3
    for fn in (models.accuracy, models.mean_loss):
        assert fn(spec, theta, x, y) == fn(spec, theta, _as_float(x), y), fn.__name__
    loss, grad = models.loss_and_grad(spec, theta, x, y)
    want_loss, want_grad = models.loss_and_grad(spec, theta, _as_float(x), y)
    assert loss == want_loss and _bits(grad) == _bits(want_grad)


def _pixel_records(spec, sizes, batch_size, tmp_path, pixels):
    """records.csv (without wall_ms) of a 3-round feddc run on uint8 pixels, or on
    their float64 decode when `pixels` is false; evaluation slices of 7 rows."""
    rng = stream(9, "testing")
    n, n_test = sum(sizes), 17
    x = rng.integers(0, 256, (n + n_test, spec.input_dim)).astype(np.uint8)
    y = rng.integers(0, spec.num_classes, n + n_test)
    if not pixels:
        x = x.astype(np.float64) / 255.0
    starts = np.cumsum([0, *sizes])
    ds = FederatedDataset(x[:n], y[:n], x[n:], y[n:],
                          tuple(np.arange(a, b) for a, b in zip(starts, starts[1:])),
                          spec.num_classes)
    cfg = ExperimentConfig(
        dataset=SyntheticConfig(input_dim=spec.input_dim, num_classes=spec.num_classes),
        model=spec,
        algo=AlgoConfig("feddc", alpha=0.1, lr=0.3, local_epochs=2, batch_size=batch_size),
        rounds=3,
    )
    with mock.patch.object(models, "_CHUNK", 7):
        records, _ = run_experiment(cfg, dataset=ds)
    path = tmp_path / f"records-{pixels}.csv"
    write_records_csv(path, records, "feddc", ds.label, cfg.seed)
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


def test_pixels_train_as_their_float_decode_in_stacked_chunks(tmp_path):
    """Logistic chunks of C = 4 clients, 23 samples in batches of 10: a partial last batch."""
    spec = ModelSpec("logistic", 20, 5)
    sizes = [23] * 4
    assert len(lockstep_groups(range(4), sizes, federation.BUDGET // spec.param_count)[0]) == 4
    want = _pixel_records(spec, sizes, 10, tmp_path, pixels=False)
    assert _pixel_records(spec, sizes, 10, tmp_path, pixels=True) == want
    assert len(want) == 4 and all(line.count(",") == 8 for line in want)


def test_pixels_train_as_their_float_decode_on_the_pool(tmp_path):
    """MLP chunks of one client, two at a time on the thread pool."""
    spec = ModelSpec("mlp", 20, 5, hidden_dims=(9,), weight_decay=1e-3)
    sizes = [12, 9, 12, 15, 9]
    with one_client_chunks(spec, 2) as trained_on:
        want = _pixel_records(spec, sizes, 4, tmp_path, pixels=False)
        got = _pixel_records(spec, sizes, 4, tmp_path, pixels=True)
    assert got == want and len(want) == 4
    assert len(trained_on) == 2 * 3 * len(sizes) and threading.get_ident() not in trained_on


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
            _, trained_on, _ = _threaded_round("feddc", "lelglp", "mlp", 2)
        assert get() == 2
    finally:
        put(before)
    assert counts == [1] * len(THREADED_SIZES)
    assert threading.get_ident() not in trained_on


def test_an_unanswered_blas_query_keeps_the_serial_loop():
    """A numpy without the thread setter trains one chunk after another."""
    with mock.patch("concurrent.futures.ThreadPoolExecutor", None):
        _, trained_on, _ = _threaded_round("fedavg", "lelglp", "mlp", 2, pool=False)
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


# What the library glob finds: nothing; or a path that does not load, and
# the C library, which loads but lacks the thread symbols.
@pytest.mark.parametrize("libraries", [[], ["/nonexistent/libscipy_openblas64_.so", "libc.so.6"]],
                         ids=["no-library", "no-library-with-the-symbols"])
def test_a_numpy_without_the_openblas_setter_is_left_as_it_is(monkeypatch, libraries):
    """With no bundled library, or none that loads and holds the thread
    symbols, the lookup answers None and the pin sets nothing."""
    monkeypatch.setattr(federation.glob, "glob", lambda pattern: libraries)
    federation._openblas.cache_clear()
    try:
        assert federation._openblas() is None
        with federation.one_blas_thread() as pinned:
            assert pinned is False
    finally:
        federation._openblas.cache_clear()


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


@contextlib.contextmanager
def recording(owner, name, log, pause=0.0):
    """owner.name, wrapped to append the thread of each call to `log`, then
    sleep `pause` seconds, so that calls on other threads overlap it."""
    fn = getattr(owner, name)

    def recorded(*args):
        log.append(threading.get_ident())
        time.sleep(pause)
        return fn(*args)

    with mock.patch.object(owner, name, recorded):
        yield log


# Rows of an evaluation in slices of 7: a partial last slice, whole slices, one slice.
EVAL_ROWS = {"partial-last-slice": 25, "whole-slices": 21, "one-slice": 5}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("rows", EVAL_ROWS.values(), ids=EVAL_ROWS.keys())
@pytest.mark.parametrize("pixels", [True, False], ids=["uint8", "float64"])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_pooled_evaluation_equals_the_serial_one(workers, rows, pixels, weight_decay):
    """accuracy and mean_loss over slices of 7 rows on `workers` threads: the serial bits."""
    _blas()
    spec = ModelSpec("mlp", 6, 4, hidden_dims=(7, 5), weight_decay=weight_decay)
    theta = init_params(spec, stream(3, "testing"))
    rng = stream(4, "testing")
    x = (rng.integers(0, 256, (rows, spec.input_dim)).astype(np.uint8) if pixels
         else rng.standard_normal((rows, spec.input_dim)))
    y = rng.integers(0, spec.num_classes, rows)
    main, slices = threading.get_ident(), -(-rows // 7)
    # Each forward pass waits after its slice is scaled: a scaling buffer
    # shared between threads would be overwritten meanwhile.
    with federation.one_blas_thread(), mock.patch.object(models, "_CHUNK", 7), \
            recording(models, "_forward", [], pause=0.002) as evaluated_on:
        for fn in (models.accuracy, models.mean_loss):
            want = fn(spec, theta, x, y)
            assert evaluated_on == [main] * slices
            evaluated_on.clear()
            got = fn(spec, theta, x, y, workers)
            assert got.hex() == want.hex(), fn.__name__
            assert len(evaluated_on) == slices and len(set(evaluated_on)) <= workers
            assert (main in evaluated_on) == (slices == 1)
            evaluated_on.clear()


def _pooled_run(algorithm, tmp_path, workers, pool=True):
    """(records.csv lines without wall_ms, checkpoint bytes, threads of the pooled
    work) of a 3-round MLP run on uint8 pixels with chunks of one client,
    evaluated every round in slices of 7 rows, on `workers` usable CPUs; with
    `pool` false, on the serial loop alone."""
    spec = ModelSpec("mlp", 20, 5, hidden_dims=(9,), weight_decay=1e-3)
    sizes = [9, 12, 9, 15, 6]
    rng = stream(12, "testing")
    n, n_test = sum(sizes), 17
    x = rng.integers(0, 256, (n + n_test, spec.input_dim)).astype(np.uint8)
    y = rng.integers(0, spec.num_classes, n + n_test)
    starts = np.cumsum([0, *sizes])
    ds = FederatedDataset(x[:n], y[:n], x[n:], y[n:],
                          tuple(np.arange(a, b) for a, b in zip(starts, starts[1:])),
                          spec.num_classes)
    kw = {"alpha": 0.1} if algorithm in ("feddyn", "feddc") else {}
    cfg = ExperimentConfig(
        dataset=SyntheticConfig(input_dim=spec.input_dim, num_classes=spec.num_classes),
        model=spec,
        # 4 of 5 clients a round, so later rounds give clients their first slots.
        algo=AlgoConfig(algorithm, lr=0.3, local_epochs=2, batch_size=4, participation=0.8,
                        **kw),
        rounds=3,
        eval_every=1,
    )
    run = FederatedRun(cfg, ds)
    pooled = []
    stored = ClientStore.stored

    def odd_ids_write_late(self, name, ids):
        """A chunk of an odd client id writes its rows after the chunks that follow it."""
        if len(ids) == 1 and ids[0] % 2:
            time.sleep(0.01)
        return stored(self, name, ids)

    with one_client_chunks(spec, workers, pool), mock.patch.object(models, "_CHUNK", 7), \
            mock.patch.object(ClientStore, "stored", odd_ids_write_late), \
            recording(models, "_hits", pooled), recording(models, "_cross_entropy", pooled), \
            recording(federation, "_chunk", []) as derived_on:
        records, _ = run.run_to_completion()
    path = tmp_path / f"records-{workers}-{pool}.csv"
    write_records_csv(path, records, algorithm, ds.label, cfg.seed)
    checkpoint_save(tmp_path / "ckpt", run.server, run.clients)
    # The aggregate's folds and the variance's mean derive their chunks on this thread.
    pooled += [t for t in derived_on if t != threading.get_ident()]
    return ([line.rsplit(",", 1)[0] for line in path.read_text().splitlines()],
            (tmp_path / "ckpt").read_bytes(), pooled)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_pooled_rounds_write_the_serial_records_and_checkpoint(algorithm, tmp_path):
    """Evaluation, apply_update and the variance pass on 1 and 2 threads: the serial bytes."""
    records, checkpoint, on_serial = _pooled_run(algorithm, tmp_path, 2, pool=False)
    assert len(records) == 4 and set(on_serial) == {threading.get_ident()}
    for workers in (1, 2):
        got_records, got_checkpoint, pooled = _pooled_run(algorithm, tmp_path, workers)
        assert got_records == records, workers
        assert got_checkpoint == checkpoint, workers
        # Per round: 3 test and 8 training slices, and 4 chunks in each of
        # apply_update and the variance's second pass.
        assert len(pooled) == 3 * (3 + 8 + 2 * 4)
        assert threading.get_ident() not in pooled


def _failing(fails, started, finished):
    """fn wrapped to fail as `fails` says: task -> the task it waits for, for
    up to 10 s, before it raises (None: raise at once); others run fn."""
    seen = {k: threading.Event() for k in fails}

    def wrap(fn, task_of):
        def call(*args):
            k = task_of(*args)
            started.append(k)
            try:
                if k in fails:
                    seen[k].set()
                    if fails[k] is not None:
                        seen[fails[k]].wait(10)
                    raise ValueError(f"task {k}")
                return fn(*args)
            finally:
                finished.append(k)
        return call

    return wrap


@pytest.mark.parametrize("fn", [models.accuracy, models.mean_loss], ids=lambda f: f.__name__)
def test_the_first_error_in_slice_order_is_raised(fn):
    """Slices 2 and 4 of 5 fail, slice 4 first: slice 2's error, once every
    started slice is done."""
    _blas()
    spec = ModelSpec("mlp", 6, 4, hidden_dims=(5,))
    theta = init_params(spec, stream(3, "testing"))
    x = np.zeros((35, spec.input_dim))
    x[:, 0] = np.arange(35)  # slice k starts at row 7k
    y = np.zeros(35, dtype=np.int64)
    started, finished = [], []
    wrap = _failing({2: 4, 4: None}, started, finished)
    failing_forward = wrap(models._forward, lambda layers, xs: int(xs[0, 0]) // 7)
    threads = threading.active_count()
    with federation.one_blas_thread(), mock.patch.object(models, "_CHUNK", 7), \
            mock.patch.object(models, "_forward", failing_forward):
        with pytest.raises(ValueError, match="task 2"):
            fn(spec, theta, x, y, 2)
    assert 4 in started and sorted(started) == sorted(finished)
    assert threading.active_count() == threads  # no thread outlives the call


def test_the_first_error_in_apply_update_chunk_order_is_raised():
    """Chunks 2 and 4 of 5 fail as they read their stored rows, chunk 4 first: chunk 2's error."""
    cfg, spec, server, store, data = _scenario(
        "feddc", "lelglp", "mlp", [5, 7, 12, 6, 8], 3, 1, 0, False, 5
    )

    def client_data(i):
        return (*data[i], stream(5, "batch-shuffle", client=i))

    started, finished = [], []
    wrap = _failing({2: 4, 4: None}, started, finished)
    failing_stored = wrap(ClientStore.stored, lambda self, name, ids: int(ids[0]))
    threads = threading.active_count()
    with one_client_chunks(spec, 2), federation.one_blas_thread():
        update = run_local_rounds(store, range(5), server, cfg, client_data, spec)
        with mock.patch.object(ClientStore, "stored", failing_stored):
            with pytest.raises(ValueError, match="task 2"):
                federation.apply_update(store, update, server)
    assert 4 in started and sorted(started) == sorted(finished)
    assert threading.active_count() == threads
