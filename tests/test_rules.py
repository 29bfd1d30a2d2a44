"""Each algorithm's row of `federation.RULES` gives the terms and server step its branches gave.

`_branch_terms` and `_branch_aggregate` are `_correction_terms` and
`server_aggregate` as they were before the table, one branch per
algorithm: the oracle. The table-driven versions must match them bit for
bit, sign bits included.
"""

from dataclasses import replace

import numpy as np
import pytest
from test_lockstep import ABLATION_CODES, SPECS, _scenario

from feddrift import federation
from feddrift.errors import ParameterError
from feddrift.federation import (
    ALGORITHMS,
    SERVER_VECTORS,
    AlgoConfig,
    RoundUpdate,
    ServerState,
    _implied_grad,
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
        extra = server.scaffold_c - clients.rows("scaffold_c", ids)
    elif algo == "feddyn":
        pull, anchor = cfg.alpha, g - clients.rows("drift", ids)
    elif algo == "feddc":
        if "param_correction" in cfg.ablation and cfg.alpha != 0.0:
            pull, anchor = cfg.alpha, g - clients.rows("drift", ids)
        if "grad_correction" in cfg.ablation:
            extra = (clients.rows("last_delta", ids) - server.global_delta) / (k_steps * lr_t)
    has_extra = None
    if extra is not None:
        on = extra.any(axis=1)
        if not on.any():
            extra = None
        elif not on.all():
            has_extra = on[:, None]
    return pull, anchor, extra, has_extra


def _branch_aggregate(server, update, cfg):
    if cfg.aggregation_weighting == "by_samples":
        ws = update.n_samples.astype(np.float64)
    else:
        ws = np.ones(len(update.ids))
    algo = cfg.algorithm
    global_delta = weighted_mean(update.delta, ws)
    scaffold_c = server.scaffold_c
    dyn_corrector = server.dyn_corrector
    if algo == "feddc":
        new_global = weighted_mean(update.theta + update.drift_plus, ws)
    elif algo in ("fedavg", "fedprox"):
        new_global = weighted_mean(update.theta, ws)
    elif algo == "scaffold":
        new_global = server.global_params + global_delta
        lr_t = round_lr(cfg, server.round)
        c_deltas = -server.scaffold_c + _implied_grad(update.delta, update.k_steps[:, None], lr_t)
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


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("weighting", ["uniform", "by_samples"])
@pytest.mark.parametrize("n_active", [1, 3])
def test_server_step_matches_the_branches(algorithm, weighting, n_active):
    rng = np.random.default_rng(5)
    p, n_clients = 9, 6
    kw = {"alpha": 0.05} if algorithm in ("feddyn", "feddc") else {}
    cfg = AlgoConfig(algorithm, lr=0.2, aggregation_weighting=weighting, **kw)

    def vec():
        v = rng.standard_normal(p)
        v[:2] = -0.0
        return v

    server = ServerState(vec(), global_delta=vec(), scaffold_c=vec(), dyn_corrector=vec(),
                         round=3, n_clients=n_clients, rng_seed=0)
    shape = (n_active, p)

    def block():
        b = rng.standard_normal(shape)
        b[:, :2] = -0.0
        return b

    update = RoundUpdate(
        ids=np.arange(1, 1 + 2 * n_active, 2),
        n_samples=rng.integers(1, 40, n_active),
        k_steps=rng.integers(1, 9, n_active),
        theta=block(), delta=block(), drift_plus=block(), c_plus=block(),
    )
    got = federation.server_aggregate(server, update, cfg)
    want = _branch_aggregate(server, update, cfg)
    for name in SERVER_VECTORS:
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert (got.round, got.n_clients, got.rng_seed) == (want.round, want.n_clients, want.rng_seed)


@pytest.mark.parametrize("algorithm", [a for a in ALGORITHMS if a != "feddc"])
@pytest.mark.parametrize("code", [c for c in ABLATION_CODES if c != "lelglp"])
def test_only_feddc_takes_a_partial_ablation(algorithm, code):
    kw = {"alpha": 0.05} if algorithm == "feddyn" else {}
    with pytest.raises(ParameterError, match="full ablation") as err:
        AlgoConfig(algorithm, ablation=federation.ablation_from_code(code), **kw)
    assert err.value.field == "ablation"
    AlgoConfig("feddc", alpha=0.05, ablation=federation.ablation_from_code(code))
