"""Lockstep training equals training each client alone, bit for bit.

`run_local_rounds` trains a group of equal-size clients as one stacked
(C, P) block; `run_local_round` is its one-client call. Every field of
every update must match between the two, sign bits included.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feddrift.engine import lockstep_groups
from feddrift.errors import DimensionError
from feddrift.federation import (
    ALGORITHMS,
    CLIENT_FIELDS,
    AlgoConfig,
    ClientStore,
    ServerState,
    ablation_from_code,
    run_local_round,
    run_local_rounds,
)
from feddrift.models import ModelSpec, _split, init_params
from feddrift.rng import stream
from feddrift.vectors import ParamVector

SPECS = {
    "logistic": ModelSpec("logistic", 6, 4),
    "mlp": ModelSpec("mlp", 6, 4, hidden_dims=(7, 5), weight_decay=1e-3),
}
ABLATION_CODES = ("le", "lelg", "lelp", "lelglp")


def _bits(v):
    return None if v is None else v.values.tobytes()


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
    start = init_params(spec, stream(seed, "global-init")).values.copy()
    for _w, b in _split(spec, start):
        b[...] = -0.0  # sign bits of zeros take part in every comparison
    server = replace(
        ServerState.fresh(ParamVector(start), len(sizes), seed),
        global_delta=ParamVector(0.01 * rng.standard_normal(p)),
        scaffold_c=ParamVector(0.1 * rng.standard_normal(p)),
        round=round_index,
    )
    store = ClientStore(sizes, p, CLIENT_FIELDS[algorithm])
    for name in store.fields:
        getattr(store, name)[:] = 0.05 * rng.standard_normal((len(sizes), p))
    if zero_extra:
        # Client 0's gradient-correction or control term is exactly zero.
        if "scaffold_c" in store.fields:
            store.scaffold_c[0] = server.scaffold_c.values
        if "last_delta" in store.fields:
            store.last_delta[0] = server.global_delta.values
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
)
def test_lockstep_groups_equal_one_client_rounds(algorithm, code, model, sizes, batch_size,
                                                 epochs, round_index, zero_extra, cap,
                                                 step_budget, seed):
    cfg, spec, server, store, data = _scenario(
        algorithm, code, model, sizes, batch_size, epochs, round_index, zero_extra, seed
    )

    def rng(i):
        return stream(seed, "batch-shuffle", client=i, round_index=round_index)

    alone = [
        run_local_round(store, i, server, cfg, x, y, rng(i), spec, step_budget)
        for i, (x, y) in enumerate(data)
    ]
    together = {}
    for ids in lockstep_groups(range(len(sizes)), store.n_samples, cap):
        ups = run_local_rounds(
            store, ids, server, cfg, [data[i][0] for i in ids], [data[i][1] for i in ids],
            [rng(i) for i in ids], spec, step_budget,
        )
        assert [u.client_id for u in ups] == ids
        together.update((u.client_id, u) for u in ups)
    assert sorted(together) == list(range(len(sizes)))
    for a in alone:
        b = together[a.client_id]
        for field in ("theta_plus", "delta", "drift_plus", "scaffold_c_plus"):
            assert _bits(getattr(a, field)) == _bits(getattr(b, field)), field
        assert (a.n_samples, a.k_steps, a.bytes_up) == (b.n_samples, b.k_steps, b.bytes_up)


def test_a_zero_term_stays_off_for_its_client_alone():
    """Client 0's zero control term leaves it on the plain-SGD path beside clients that use theirs."""
    cfg, spec, server, store, data = _scenario(
        "scaffold", "lelglp", "mlp", [5, 5, 5], 2, 1, 1, True, 3
    )
    ids = [0, 1, 2]
    ups = run_local_rounds(
        store, ids, server, cfg, [x for x, _ in data], [y for _, y in data],
        [stream(3, "batch-shuffle", client=i, round_index=1) for i in ids], spec,
    )
    plain = replace(cfg, algorithm="fedavg")
    alone = run_local_round(
        ClientStore([5], spec.param_count), 0, server, plain, *data[0],
        stream(3, "batch-shuffle", client=0, round_index=1), spec,
    )
    assert _bits(ups[0].theta_plus) == _bits(alone.theta_plus)


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
    rngs = [stream(0, "batch-shuffle", client=i) for i in range(2)]
    with pytest.raises(DimensionError):
        run_local_rounds(store, [0, 1], server, cfg, x[:1], y, rngs, spec)
    with pytest.raises(DimensionError):
        run_local_rounds(store, [0, 1], server, cfg, x, y, rngs[:1], spec)
    with pytest.raises(DimensionError):
        run_local_rounds(store, [0, 1], server, cfg, x, [y[0], y[1][:4]], rngs, spec)
    with pytest.raises(DimensionError):
        run_local_rounds(store, [0, 1], server, cfg, [x[0], x[1][:, :5]], y, rngs, spec)
    with pytest.raises(DimensionError):
        run_local_rounds(store, [], server, cfg, [], [], [], spec)
