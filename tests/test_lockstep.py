"""Lockstep training equals training each client alone, bit for bit.

`run_local_rounds` trains a round's whole active set, each group of
equal-size clients as stacked (C, P) blocks, and returns one RoundUpdate;
`run_local_round` is its one-client call. Every row of every block must
match the one-client result, sign bits included. Each step applies its
weight decay, correction terms and update in column tiles; every tiling
must match one whole-width pass per term.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feddrift import federation
from feddrift.errors import DimensionError
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
    for name in store.fields:
        getattr(store, name)[:] = 0.05 * rng.standard_normal((len(sizes), p))
    if zero_extra:
        # Client 0's gradient-correction or control term is exactly zero.
        if "scaffold_c" in store.fields:
            store.scaffold_c[0] = server.scaffold_c
        if "last_delta" in store.fields:
            store.last_delta[0] = server.global_delta
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
    step_budget=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**16),
    draw=st.data(),
)
def test_lockstep_groups_equal_one_client_rounds(algorithm, code, model, sizes, batch_size,
                                                 epochs, round_index, zero_extra, cap,
                                                 step_budget, seed, draw):
    cfg, spec, server, store, data = _scenario(
        algorithm, code, model, sizes, batch_size, epochs, round_index, zero_extra, seed
    )
    active = draw.draw(
        st.lists(st.sampled_from(range(len(sizes))), min_size=1, unique=True), label="active"
    )

    def rng(i):
        return stream(seed, "batch-shuffle", client=i, round_index=round_index)

    alone = [
        run_local_round(store, i, server, cfg, *data[i], rng(i), spec, step_budget)
        for i in sorted(active)
    ]
    # The chunk cap is max(1, BUDGET // P) clients.
    with mock.patch.object(federation, "BUDGET", cap * spec.param_count):
        block = run_local_rounds(
            store, active, server, cfg, lambda i: (*data[i], rng(i)), spec, step_budget
        )
    assert block.ids.tolist() == sorted(active)
    for r, one in enumerate(alone):
        for field in ("theta", "delta", "drift_plus", "c_plus"):
            row = getattr(block, field)
            assert _bits(getattr(one, field)) == _bits(None if row is None else row[r]), field
        assert (one.ids[0], one.n_samples[0], one.k_steps[0]) == (
            block.ids[r], block.n_samples[r], block.k_steps[r]
        )


def _whole_width_sgd(theta, terms, inputs, labels, rngs, spec, batch_size, k_steps, lr_t):
    """`federation._local_sgd` with one whole-width pass per term and step: the oracle."""
    pull, anchor, extra, _ = terms
    on = None if extra is None else extra.any(axis=1)[:, None]
    n = labels[0].shape[0]
    grad = np.empty_like(theta)
    layers, glayers = _split(spec, theta), _split(spec, grad)
    steps = 0
    while steps < k_steps:
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
            steps += 1
            if steps >= k_steps:
                break


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
    step_budget=st.sampled_from([None, 2]),
    seed=st.integers(0, 2**16),
)
def test_tiled_steps_equal_whole_width_steps(algorithm, code, model, sizes, batch_size,
                                             round_index, zero_extra, budget, step_budget,
                                             seed):
    cfg, spec, server, store, data = _scenario(
        algorithm, code, model, sizes, batch_size, 1, round_index, zero_extra, seed
    )
    p = spec.param_count

    def client_data(i):
        return (*data[i], stream(seed, "batch-shuffle", client=i, round_index=round_index))

    ids = range(len(sizes))
    with mock.patch.object(federation, "_local_sgd", _whole_width_sgd):
        whole = run_local_rounds(store, ids, server, cfg, client_data, spec, step_budget)
    # A budget below P trains one client at a time in tiles of `budget`
    # columns; a budget of P or 2P fits whole rows of one or two clients.
    budget = {"P": p, "2P": 2 * p}.get(budget, budget)
    if budget < p:
        assert len(_tiles(spec, budget)) > 1
    with mock.patch.object(federation, "BUDGET", budget):
        tiled = run_local_rounds(store, ids, server, cfg, client_data, spec, step_budget)
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
    assert _bits(grad[1]) == _bits(server.scaffold_c - store.scaffold_c[1])


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
