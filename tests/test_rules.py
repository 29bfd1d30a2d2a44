"""Each algorithm's row of `federation.RULES` gives the terms and server step its branches gave.

`_branch_terms` and `_branch_aggregate` are `_correction_terms` and
`server_aggregate` as they were before the table, one branch per
algorithm: the oracle. The table-driven versions must match them bit for
bit, sign bits included. `_block_rows` are the round's derived (C, P)
blocks as training once stored them beside theta: the oracle of the rows
that `server_aggregate` and `apply_update` now derive a chunk at a time.
"""

from dataclasses import replace

import numpy as np
import pytest
from test_lockstep import ABLATION_CODES, SPECS, _scenario

from conftest import planned_update, seed_rows, store_rows
from feddrift import federation
from feddrift.errors import ParameterError
from feddrift.federation import (
    ALGORITHMS,
    RULES,
    SERVER_VECTORS,
    AlgoConfig,
    ClientStore,
    ServerState,
    round_lr,
    weighted_mean,
)


def _branch_terms(clients, ids, server, cfg, k_steps, lr_t):
    g = server.global_params
    algo = cfg.algorithm
    pull, anchor, extra = 0.0, None, None
    if algo == "fedprox" and cfg.mu != 0.0:
        pull, anchor = cfg.mu, np.broadcast_to(g, (len(ids), g.size))
    elif algo == "scaffold":
        extra = server.scaffold_c - store_rows(clients, "scaffold_c", ids)
    elif algo == "feddyn":
        pull, anchor = cfg.alpha, g - store_rows(clients, "drift", ids)
    elif algo == "feddc":
        if "param_correction" in cfg.ablation and cfg.alpha != 0.0:
            pull, anchor = cfg.alpha, g - store_rows(clients, "drift", ids)
        if "grad_correction" in cfg.ablation:
            last = store_rows(clients, "last_delta", ids)
            extra = (last - server.global_delta) / (k_steps * lr_t)
    has_extra = None
    if extra is not None:
        on = extra.any(axis=1)
        if not on.any():
            extra = None
        elif not on.all():
            has_extra = on[:, None]
    return pull, anchor, extra, has_extra


def _block_rows(clients, server, update, cfg):
    """(delta, drift_plus, c_plus, implied gradients) as (C, P) blocks, the way training made them.

    Training subtracted the round-start G from its theta block in place,
    added the stored drift to that, and for scaffold divided it by
    -(K * lr_t) and added the stored control less the server's. A field
    the store does not keep gives None.
    """
    delta = update.theta - server.global_params
    implied = delta / -(update.k_steps[:, None] * round_lr(cfg, server.round))
    drift_plus = c_plus = None
    if "drift" in clients.fields:
        drift_plus = store_rows(clients, "drift", update.ids) + delta
    if "scaffold_c" in clients.fields:
        c_plus = (store_rows(clients, "scaffold_c", update.ids) - server.scaffold_c) + implied
    return delta, drift_plus, c_plus, implied


def _branch_aggregate(server, update, cfg, clients):
    if cfg.aggregation_weighting == "by_samples":
        ws = update.n_samples.astype(np.float64)
    else:
        ws = np.ones(len(update.ids))
    algo = cfg.algorithm
    delta, drift_plus, _, implied = _block_rows(clients, server, update, cfg)
    global_delta = weighted_mean(delta, ws)
    scaffold_c = server.scaffold_c
    dyn_corrector = server.dyn_corrector
    if algo == "feddc":
        new_global = weighted_mean(update.theta + drift_plus, ws)
    elif algo in ("fedavg", "fedprox"):
        new_global = weighted_mean(update.theta, ws)
    elif algo == "scaffold":
        new_global = server.global_params + global_delta
        c_deltas = -server.scaffold_c + implied
        mean_cd = weighted_mean(c_deltas, np.ones(len(update.ids)))
        scale = len(update.ids) / server.n_clients
        scaffold_c = server.scaffold_c + scale * mean_cd
    elif algo == "feddyn":
        scale = cfg.alpha * len(update.ids) / server.n_clients
        dyn_corrector = server.dyn_corrector - scale * global_delta
        new_global = weighted_mean(update.theta, ws) - dyn_corrector / cfg.alpha
    return replace(server, global_params=new_global, global_delta=global_delta,
                   scaffold_c=scaffold_c, dyn_corrector=dyn_corrector, round=server.round + 1)


def _bits(v):
    return None if v is None else np.ascontiguousarray(v).tobytes()


# Every algorithm at its full ablation, and feddc at each ablation code.
CASES = [(a, "lelglp") for a in ALGORITHMS if a != "feddc"] + [
    ("feddc", code) for code in ABLATION_CODES
]


@pytest.mark.parametrize("algorithm,code", CASES)
@pytest.mark.parametrize("coef", [0.0, -0.0, 0.03])
@pytest.mark.parametrize("zero_extra", [False, True])
@pytest.mark.parametrize("model", sorted(SPECS))
def test_terms_match_the_branches(algorithm, code, coef, zero_extra, model):
    """`coef` is mu, and alpha where it may be zero (feddc; feddyn needs alpha > 0)."""
    cfg, _, server, store, _ = _scenario(algorithm, code, model, [5, 5, 7], 3, 1, 2,
                                         zero_extra, 11)
    cfg = replace(cfg, mu=coef, **({"alpha": coef} if algorithm == "feddc" else {}))
    ids = [0, 2]
    got = federation._correction_terms(store, ids, server, cfg, 6, 0.17)
    want = _branch_terms(store, ids, server, cfg, 6, 0.17)
    (pull, anchor, extra, has_extra), (w_pull, w_anchor, w_extra, w_has) = got, want
    assert (type(pull), _bits(np.float64(pull))) == (type(w_pull), _bits(np.float64(w_pull)))
    assert _bits(anchor) == _bits(w_anchor)
    if w_anchor is not None:
        assert anchor.strides == w_anchor.strides  # fedprox's anchor stays a view of G
    assert _bits(extra) == _bits(w_extra)
    assert _bits(has_extra) == _bits(w_has)
    if zero_extra and w_extra is not None:
        assert has_extra is not None and not has_extra[0, 0]


def _round(algorithm, weighting, n_active, seed=5):
    """(cfg, server, store, update) of a round of clients 1, 3, 5, ...

    Entries of every vector and of theta are -0.0 in two columns, and of
    theta in a third, where G is +0.0, so that theta - G is -0.0 there.
    Client 1 and the clients past the first two active ones have stored
    rows, which hold -0.0 in that third column; client 3 and client 0
    (inactive) have never been written, so the round's clients are
    partly new.
    """
    rng = np.random.default_rng(seed)
    p, n_clients = 9, 2 * n_active + 1
    kw = {"alpha": 0.05} if algorithm in ("feddyn", "feddc") else {}
    cfg = AlgoConfig(algorithm, lr=0.2, aggregation_weighting=weighting, **kw)

    def vec():
        v = rng.standard_normal(p)
        v[:2] = -0.0
        return v

    g = vec()
    g[2] = 0.0
    server = ServerState(g, global_delta=vec(), scaffold_c=vec(), dyn_corrector=vec(),
                         round=3, n_clients=n_clients, rng_seed=0)
    theta = rng.standard_normal((n_active, p))
    theta[:, :3] = -0.0
    ids = np.arange(1, 1 + 2 * n_active, 2)
    store = ClientStore(rng.integers(1, 40, n_clients), p, RULES[algorithm].fields)
    stored = [i for i in range(n_clients) if i == 1 or i >= 5]
    rows = 0.1 * rng.standard_normal((len(stored), p))
    rows[:, 2] = -0.0
    seed_rows(store, stored, {name: rows for name in store.fields})
    update = planned_update(ids, store.n_samples[ids], rng.integers(1, 9, n_active), theta,
                            round_lr(cfg, server.round))
    return cfg, server, store, update


# The chunk of derived rows holds max(1, BUDGET // P) clients: RoundUpdate.slices.
CAPS = [1, 2, 64]


def _capped(update, cap):
    """`update` planned in chunks of `cap` rows."""
    return planned_update(update.ids, update.n_samples, update.k_steps, update.theta,
                          update.lr_t, cap)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("weighting", ["uniform", "by_samples"])
@pytest.mark.parametrize("n_active", [1, 3])
def test_server_step_matches_the_branches(algorithm, weighting, n_active):
    cfg, server, store, update = _round(algorithm, weighting, n_active)
    want = _branch_aggregate(server, update, cfg, store)
    for cap in CAPS:
        got = federation.server_aggregate(server, _capped(update, cap), cfg, store)
        for name in SERVER_VECTORS:
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), (name, cap)
        assert (got.round, got.n_clients, got.rng_seed) == (
            want.round, want.n_clients, want.rng_seed)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n_active", [1, 3])
@pytest.mark.parametrize("cap", CAPS)
def test_next_rows_match_the_blocks(algorithm, n_active, cap):
    """apply_update writes the rows training stored as blocks, and leaves the others."""
    cfg, server, store, update = _round(algorithm, "uniform", n_active)
    everyone = range(store.n_samples.size)
    before = {name: store_rows(store, name, everyone) for name in store.fields}
    delta, drift_plus, c_plus, _ = _block_rows(store, server, update, cfg)
    blocks = {"drift": drift_plus, "last_delta": delta, "scaffold_c": c_plus}
    assert set(blocks) == set(federation.NEXT_ROWS)
    federation.apply_update(store, _capped(update, cap), server)
    assert (store.slot[update.ids] < store.used).all()
    for name in store.fields:
        want = before[name]
        want[update.ids] = blocks[name]
        assert _bits(store_rows(store, name, everyone)) == _bits(want), name
    if "drift" in store.fields and n_active > 1:
        # h + delta is -0.0 + -0.0 for a stored row, +0.0 + -0.0 for a new one.
        assert np.signbit(store_rows(store, "drift", 1)[2])
        assert not np.signbit(store_rows(store, "drift", 3)[2])


@pytest.mark.parametrize("algorithm", [a for a in ALGORITHMS if a != "feddc"])
@pytest.mark.parametrize("code", [c for c in ABLATION_CODES if c != "lelglp"])
def test_only_feddc_takes_a_partial_ablation(algorithm, code):
    kw = {"alpha": 0.05} if algorithm == "feddyn" else {}
    with pytest.raises(ParameterError, match="full ablation") as err:
        AlgoConfig(algorithm, ablation=federation.ablation_from_code(code), **kw)
    assert err.value.field == "ablation"
    AlgoConfig("feddc", alpha=0.05, ablation=federation.ablation_from_code(code))
