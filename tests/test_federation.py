import mmap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import planned_update, seed_rows, store_rows
from feddrift.data import SyntheticConfig
from feddrift.engine import ExperimentConfig, run_experiment, write_records_csv
from feddrift.errors import (
    DimensionError,
    FormatError,
    NumericError,
    ParameterError,
)
from feddrift.federation import (
    ALGORITHMS,
    NEXT_ROWS,
    RULES,
    AlgoConfig,
    ClientStore,
    ServerState,
    ablation_from_code,
    apply_update,
    gradient_variance_diagnostic,
    local_objective,
    local_objective_grad,
    round_lr,
    run_local_round,
    run_local_rounds,
    sample_active_set,
    server_aggregate,
    steps_per_round,
    weighted_mean,
)
from feddrift.models import ModelSpec, init_params, loss_and_grad
from feddrift.rng import stream
from feddrift.vectors import finite_diff_grad, max_relative_error

SPEC = ModelSpec("logistic", input_dim=3, num_classes=2)


def make_data(n=8, seed=0):
    rng = stream(seed, "testing")
    x = rng.standard_normal((n, 3))
    y = (x[:, 0] > 0).astype(np.int64)
    return x, y


def make_states(algorithm="feddc", n_clients=3, seed=0, n_samples=8, **kw):
    cfg = AlgoConfig(algorithm=algorithm, **kw)
    init = init_params(SPEC, stream(seed, "global-init"))
    server = ServerState.fresh(init, n_clients=n_clients, rng_seed=seed)
    clients = ClientStore([n_samples] * n_clients, SPEC.param_count, RULES[algorithm].fields)
    return cfg, server, clients


def block_update(theta, k_steps=1, n_samples=8, cap=None):
    """A RoundUpdate of clients 0..C-1 from (C, P) rows of theta, at round 0's lr_t of
    the default lr, 0.1, in chunks of `cap` rows."""
    c = len(theta)
    return planned_update(np.arange(c), np.full(c, n_samples), np.full(c, k_steps), theta,
                          0.1, cap)


def randomize_client(clients, i, seed):
    """Random rows of every stored field for client i; returns a random theta."""
    rng = stream(seed, "testing", client=i + 1)
    dim = SPEC.param_count
    theta = rng.standard_normal(dim)
    seed_rows(clients, [i], {f: 0.1 * rng.standard_normal(dim) for f in clients.fields})
    return theta


def randomize_server(server, seed):
    """`server` with random global_delta, scaffold_c and dyn_corrector."""
    rng = stream(seed, "testing", round_index=1)  # apart from make_data's and the clients' draws
    return replace(server, **{name: 0.05 * rng.standard_normal(server.global_params.size)
                              for name in ("global_delta", "scaffold_c", "dyn_corrector")})


# Each algorithm's full local objective, and feddc's under each ablation that masks a term.
OBJECTIVES = {**{algo: (algo, "lelglp") for algo in ALGORITHMS},
              **{f"feddc-{code}": ("feddc", code) for code in ("le", "lelg", "lelp")}}


class TestAlgoConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            AlgoConfig("sgd")
        with pytest.raises(ParameterError):
            AlgoConfig("fedavg", lr=0.0)
        with pytest.raises(ParameterError):
            AlgoConfig("fedavg", lr_decay=0.0)
        with pytest.raises(ParameterError):
            AlgoConfig("fedavg", participation=0.0)
        with pytest.raises(ParameterError):
            AlgoConfig("feddyn")  # alpha required
        with pytest.raises(ParameterError):
            AlgoConfig("feddc")  # alpha required
        with pytest.raises(ParameterError):
            AlgoConfig("feddc", alpha=0.1, ablation=frozenset({"grad_correction"}))

    def test_ablation_codes(self):
        assert ablation_from_code("le") == frozenset({"empirical"})
        assert ablation_from_code("lelglp") == frozenset(
            {"empirical", "grad_correction", "param_correction"}
        )
        with pytest.raises(ParameterError):
            ablation_from_code("lp")

    def test_steps_and_lr(self):
        cfg = AlgoConfig("fedavg", local_epochs=5, batch_size=50, lr=0.1, lr_decay=0.998)
        assert steps_per_round(600, cfg) == 5 * 12
        assert steps_per_round(601, cfg) == 5 * 13
        assert round_lr(cfg, 0) == 0.1
        assert round_lr(cfg, 10) == pytest.approx(0.1 * 0.998**10)


class TestLocalObjective:
    def test_alpha_zero_and_no_history_equals_plain_gradient(self, bits):
        cfg, server, clients = make_states("feddc", alpha=0.0)
        x, y = make_data()
        got = local_objective_grad(
            server.global_params, clients, 0, server, cfg, x, y, SPEC
        )
        _, plain = loss_and_grad(SPEC, server.global_params, x, y)
        assert bits(got, plain)

    @pytest.mark.parametrize("code", ["le", "lelg", "lelp"])
    def test_ablation_adds_only_its_terms_bitwise(self, bits, code):
        """le leaves loss_and_grad's gradient, lelg adds only the gradient
        correction and lelp only the pull towards G - h_i, each assembled by hand."""
        cfg, server, clients = make_states("feddc", alpha=0.1, ablation=ablation_from_code(code))
        theta = randomize_client(clients, 0, 5)
        server = randomize_server(server, 5)
        x, y = make_data(seed=5)
        _, want = loss_and_grad(SPEC, theta, x, y)
        if "grad_correction" in cfg.ablation:
            k_lr = steps_per_round(8, cfg) * round_lr(cfg, server.round)
            want += (store_rows(clients, "last_delta", 0) - server.global_delta) / k_lr
        if "param_correction" in cfg.ablation:
            want += cfg.alpha * (theta - (server.global_params - store_rows(clients, "drift", 0)))
        assert bits(local_objective_grad(theta, clients, 0, server, cfg, x, y, SPEC), want)

    def test_param_correction_vanishes_at_anchor(self):
        cfg, server, clients = make_states("feddc", alpha=0.7)
        seed_rows(clients, [0], {"drift": stream(3, "testing").standard_normal(SPEC.param_count)})
        theta = server.global_params - store_rows(clients, "drift", 0)
        x, y = make_data(seed=3)
        with_pc = local_objective_grad(theta, clients, 0, server, cfg, x, y, SPEC)
        cfg_no_pc = AlgoConfig(
            "feddc", alpha=0.7, ablation=ablation_from_code("lelg")
        )
        without_pc = local_objective_grad(
            theta, clients, 0, server, cfg_no_pc, x, y, SPEC
        )
        assert np.array_equal(with_pc, without_pc)

    @pytest.mark.parametrize("algorithm,code", OBJECTIVES.values(), ids=OBJECTIVES)
    def test_gradient_matches_finite_differences(self, algorithm, code):
        cfg, server, clients = make_states(algorithm, alpha=0.3, mu=0.2,
                                           ablation=ablation_from_code(code))
        theta = randomize_client(clients, 0, 7)
        server = randomize_server(server, 9)
        x, y = make_data(seed=9)
        grad = local_objective_grad(theta, clients, 0, server, cfg, x, y, SPEC)
        oracle = finite_diff_grad(
            lambda v: local_objective(v, clients, 0, server, cfg, x, y, SPEC),
            theta,
            1e-6,
        )
        assert max_relative_error(grad, oracle) < 1e-5


class TestRunLocalRound:
    def test_single_sgd_step_matches_manual(self, bits):
        x, y = make_data(n=6, seed=20)
        cfg, server, clients = make_states(
            "fedavg", n_clients=1, seed=20, n_samples=6, local_epochs=1, batch_size=6, lr=0.2
        )
        rng = stream(20, "batch-shuffle", client=0, round_index=0)
        up = run_local_round(clients, 0, server, cfg, x, y, rng, SPEC)
        order = stream(20, "batch-shuffle", client=0, round_index=0).permutation(6)
        _, g = loss_and_grad(SPEC, server.global_params, x[order], y[order])
        assert bits(up.theta[0], server.global_params - 0.2 * g)
        assert up.k_steps.tolist() == [1]

    def test_drift_bookkeeping_first_round_literal(self, bits):
        x, y = make_data(seed=21)
        cfg, server, clients = make_states("feddc", alpha=0.05, seed=21)
        rng = stream(21, "batch-shuffle", client=0, round_index=0)
        up = run_local_round(clients, 0, server, cfg, x, y, rng, SPEC)
        before = store_rows(clients, "drift", 0)
        apply_update(clients, up, server)
        # h starts at zero, so the literal subtraction form holds bitwise.
        assert bits(store_rows(clients, "drift", 0) - before, up.theta[0] - server.global_params)

    def test_drift_bookkeeping_relation_any_round(self, bits):
        x, y = make_data(seed=22)
        cfg, server, clients = make_states("feddc", alpha=0.05, seed=22)
        for t in range(3):
            rng = stream(22, "batch-shuffle", client=0, round_index=t)
            up = run_local_round(clients, 0, server, cfg, x, y, rng, SPEC)
            h, delta = store_rows(clients, "drift", 0), up.theta[0] - server.global_params
            next_server = server_aggregate(server, up, cfg, clients)  # reads h before the write
            apply_update(clients, up, server)
            assert bits(store_rows(clients, "drift", 0), h + delta)
            assert bits(store_rows(clients, "last_delta", 0), delta)
            assert bits(next_server.global_params, up.theta[0] + (h + delta))
            server = next_server

    def test_fedavg_like_algorithms_leave_drift_untouched(self):
        x, y = make_data(seed=23)
        for algo in ("fedavg", "fedprox", "scaffold"):
            cfg, server, clients = make_states(algo, seed=23)
            rng = stream(23, "batch-shuffle", client=0, round_index=0)
            up = run_local_round(clients, 0, server, cfg, x, y, rng, SPEC)
            apply_update(clients, up, server)
            assert "drift" not in clients.fields and not hasattr(clients, "drift")

    def test_deterministic(self, bits):
        x, y = make_data(seed=24)
        cfg, server, clients = make_states("feddc", alpha=0.1, seed=24)
        ups = [
            run_local_round(
                clients, 0, server, cfg, x, y,
                stream(24, "batch-shuffle", client=0, round_index=0), SPEC,
            )
            for _ in range(2)
        ]
        assert bits(ups[0].theta, ups[1].theta)
        assert ups[0].k_steps.tolist() == ups[1].k_steps.tolist()

    def test_empty_partition(self):
        cfg, server, clients = make_states("fedavg")
        with pytest.raises(Exception, match="empty"):
            run_local_round(
                clients, 0, server, cfg,
                np.zeros((0, 3)), np.zeros(0, dtype=np.int64),
                stream(0, "batch-shuffle"), SPEC,
            )

    def test_scaffold_control_update_formula(self, bits):
        x, y = make_data(seed=25)
        cfg, server, clients = make_states("scaffold", seed=25)
        rng = stream(25, "batch-shuffle", client=0, round_index=0)
        up = run_local_round(clients, 0, server, cfg, x, y, rng, SPEC)
        k = int(up.k_steps[0])
        lr_t = round_lr(cfg, 0)
        delta = up.theta[0] - server.global_params
        want = store_rows(clients, "scaffold_c", 0) - server.scaffold_c - delta / (k * lr_t)
        apply_update(clients, up, server)
        assert bits(store_rows(clients, "scaffold_c", 0), want)

    def test_scaffold_identical_clients_agree_after_round_one(self, bits):
        x, y = make_data(n=10, seed=26)
        cfg, server, clients = make_states("scaffold", n_clients=3, seed=26, n_samples=10)

        def same_data(_):
            # Identical data and identical shuffle stream: same computation.
            return x, y, stream(26, "batch-shuffle", client=0, round_index=0)

        up = run_local_rounds(clients, [2, 0, 1], server, cfg, same_data, SPEC)
        assert up.ids.tolist() == [0, 1, 2]
        new_server = server_aggregate(server, up, cfg, clients)
        apply_update(clients, up, server)
        c_plus = store_rows(clients, "scaffold_c", [0, 1, 2])
        assert bits(c_plus[0], c_plus[1]) and bits(c_plus[1], c_plus[2])
        # Full participation from zero controls: server c equals every client's c+.
        assert np.array_equal(new_server.scaffold_c, c_plus[0])


class TestServerState:
    def test_arrays_are_read_only(self):
        _, server, _ = make_states("feddc", alpha=0.1)
        for name in ("global_params", "global_delta", "scaffold_c", "dyn_corrector"):
            arr = getattr(server, name)
            assert arr.dtype == np.float64 and arr.shape == (SPEC.param_count,)
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_rejects_non_finite_or_misshapen_vectors(self):
        _, server, _ = make_states("fedavg")
        p = SPEC.param_count
        for bad in (np.nan, np.inf, -np.inf):
            vec = np.zeros(p)
            vec[3] = bad
            with pytest.raises(NumericError, match="global_delta.*index 3"):
                replace(server, global_delta=vec)
        for shape in ((p + 1,), (1, p), ()):
            with pytest.raises(DimensionError, match="scaffold_c"):
                replace(server, scaffold_c=np.zeros(shape))
        with pytest.raises(DimensionError):
            ServerState.fresh(np.zeros(0), 1, 0)


class TestAggregate:
    def test_empty(self):
        cfg, server, clients = make_states("fedavg")
        p = SPEC.param_count
        with pytest.raises(DimensionError, match="weighted_mean of an empty block"):
            server_aggregate(server, block_update(np.empty((0, p))), cfg, clients)

    def _update(self, server, clients, cfg, seed=30, ids=None):
        x, y = make_data(seed=seed)

        def data(i):
            return x, y, stream(seed, "batch-shuffle", client=i, round_index=0)

        ids = range(len(clients.n_samples)) if ids is None else ids
        return run_local_rounds(clients, ids, server, cfg, data, SPEC)

    def test_feddc_aggregation_identity_bitwise(self, bits):
        cfg, server, clients = make_states("feddc", alpha=0.1, seed=30)
        for i in range(len(clients.n_samples)):
            randomize_client(clients, i, 30)
        up = self._update(server, clients, cfg, ids=[2, 1, 0])
        assert up.ids.tolist() == [0, 1, 2]  # rows in ascending id order, whatever the input
        new_server = server_aggregate(server, up, cfg, clients)
        delta = up.theta - server.global_params
        corrected = up.theta + (store_rows(clients, "drift", up.ids) + delta)
        assert bits(new_server.global_params, weighted_mean(corrected, [1.0] * 3))
        assert bits(new_server.global_delta, weighted_mean(delta, [1.0] * 3))
        assert new_server.round == 1

    def test_feddc_single_client_sum_exact(self, bits):
        cfg, server, clients = make_states("feddc", alpha=0.1, n_clients=1, seed=31)
        up = self._update(server, clients, cfg, seed=31)
        new_server = server_aggregate(server, up, cfg, clients)
        h, delta = store_rows(clients, "drift", 0), up.theta[0] - server.global_params
        assert bits(new_server.global_params, up.theta[0] + (h + delta))

    def test_feddc_zero_drift_matches_fedavg_aggregation(self):
        cfg_dc, server, _ = make_states("feddc", alpha=0.0, seed=32, n_clients=2)
        cfg_avg, _, clients = make_states("fedavg", seed=32, n_clients=2)
        up = self._update(server, clients, cfg_avg, seed=32)
        avg_server = server_aggregate(server, up, cfg_avg, clients)
        # Aggregate the fedavg rows feddc-style with stored drifts h = -delta, so h+ = 0.
        dc_clients = ClientStore(clients.n_samples, SPEC.param_count, RULES["feddc"].fields)
        seed_rows(dc_clients, up.ids, {"drift": -(up.theta - server.global_params)})
        dc_server = server_aggregate(server, up, cfg_dc, dc_clients)
        assert np.array_equal(dc_server.global_params, avg_server.global_params)

    @pytest.mark.parametrize("algo,kw", [
        ("fedavg", {}),
        ("fedprox", {}),
        ("scaffold", {}),
        ("feddyn", {"alpha": 0.01}),
        ("feddc", {"alpha": 0.1}),
    ])
    def test_stationarity_zero_deltas_bitwise(self, algo, kw, bits):
        cfg, server, clients = make_states(algo, n_clients=4, seed=33, **kw)
        up = block_update(np.tile(server.global_params, (4, 1)), k_steps=steps_per_round(8, cfg))
        new_server = server_aggregate(server, up, cfg, clients)
        assert bits(new_server.global_params, server.global_params)

    def test_by_samples_weighting(self):
        cfg = AlgoConfig("fedavg", aggregation_weighting="by_samples")
        server = ServerState.fresh(np.zeros(2), n_clients=2, rng_seed=0)
        up = block_update([[1.0, 0.0], [0.0, 1.0]], n_samples=[100, 300])
        out = server_aggregate(server, up, cfg, ClientStore([100, 300], 2))
        assert np.allclose(out.global_params, [0.25, 0.75])

    def test_feddyn_server_state_formula(self):
        cfg, server, clients = make_states("feddyn", alpha=0.5, n_clients=2, seed=34)
        init = server.global_params
        d = np.stack([np.full(len(init), 0.1), np.full(len(init), 0.3)])
        up = block_update(init + d)
        out = server_aggregate(server, up, cfg, clients)
        mean_delta = 0.2
        want_corrector = -0.5 * (2 / 2) * mean_delta
        assert np.allclose(out.dyn_corrector, want_corrector)
        want_params = init + mean_delta - want_corrector / 0.5
        assert np.allclose(out.global_params, want_params)


class TestSampling:
    def test_full_participation(self):
        ids = sample_active_set(100, 1.0, 0, stream(0, "participation", round_index=0))
        assert ids == list(range(100))

    def test_partial_fifteen_percent(self):
        ids = sample_active_set(100, 0.15, 3, stream(0, "participation", round_index=3))
        assert len(ids) == 15
        assert len(set(ids)) == 15
        assert ids == sorted(ids)

    def test_deterministic_per_round(self):
        a = sample_active_set(50, 0.2, 7, stream(1, "participation", round_index=7))
        b = sample_active_set(50, 0.2, 7, stream(1, "participation", round_index=7))
        c = sample_active_set(50, 0.2, 8, stream(1, "participation", round_index=8))
        assert a == b
        assert a != c

    def test_at_least_one(self):
        ids = sample_active_set(10, 0.01, 0, stream(0, "participation"))
        assert len(ids) == 1

    @pytest.mark.parametrize("participation", [0, 1.5])
    def test_participation_outside_0_1_is_refused(self, participation):
        with pytest.raises(ParameterError, match=r"participation must be in \(0, 1\]"):
            sample_active_set(10, participation, 0, stream(0, "participation"))


class TestDiagnostics:
    def _mk(self, deltas, k=4, cap=None):
        """A round whose deltas are `deltas`, bitwise: theta from G = 0 (theta - 0.0 == theta)."""
        deltas = np.array(deltas, dtype=np.float64)
        server = ServerState.fresh(np.zeros(deltas.shape[1]), len(deltas), 0)
        return block_update(deltas, k_steps=k, cap=cap), server

    def test_identical_deltas_zero_variance(self):
        up, server = self._mk([np.array([0.5, -0.5])] * 3)
        assert gradient_variance_diagnostic(up, server) == 0.0

    def test_opposite_deltas_hand_value(self):
        d = np.array([0.3, -0.4])
        up, server = self._mk([d, -d], k=4)  # at lr_t 0.1
        got = gradient_variance_diagnostic(up, server)
        want = float(np.sum((d / (4 * 0.1)) ** 2))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 9, 130])
    def test_matches_the_stacked_formula_bitwise(self, n):
        # n = 2, 9 and 130 reach numpy's plain, unrolled and blocked sums.
        cfg, _, _ = make_states("fedavg", lr=0.1)
        rng = stream(n, "testing")
        deltas = rng.standard_normal((n, 300))
        up, server = self._mk(deltas, k=3 + np.arange(n) % 4)
        lr_t = round_lr(cfg, server.round)
        gs = np.stack([-up.theta[i] / (int(up.k_steps[i]) * lr_t) for i in range(n)])
        want = float(np.mean(np.sum((gs - gs.mean(axis=0)) ** 2, axis=1)))
        for cap in (1, 2, n):  # derived a chunk of `cap` rows at a time
            up, server = self._mk(deltas, k=3 + np.arange(n) % 4, cap=cap)
            assert gradient_variance_diagnostic(up, server).hex() == want.hex()
            assert np.array_equal(up.theta, deltas)  # the update is only read

    def test_fewer_than_two_is_absent(self):
        up, server = self._mk([np.array([1.0, 2.0])])
        assert gradient_variance_diagnostic(up, server) is None


class TestRules:
    def test_algorithms_keep_their_order(self):
        assert ALGORITHMS == ("fedavg", "fedprox", "scaffold", "feddyn", "feddc")

    def test_client_fields_per_algorithm(self):
        assert {a: RULES[a].fields for a in ALGORITHMS} == {
            "fedavg": (),
            "fedprox": (),
            "scaffold": ("scaffold_c",),
            "feddyn": ("drift",),
            "feddc": ("drift", "last_delta"),
        }
        # every field an algorithm keeps has its next rows in NEXT_ROWS
        assert {f for rule in RULES.values() for f in rule.fields} == set(NEXT_ROWS)


class TestClientStore:
    @settings(max_examples=80, deadline=None)
    @given(
        algorithm=st.sampled_from(ALGORITHMS),
        n_clients=st.integers(1, 7),
        rounds=st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=7), max_size=6),
        seed=st.integers(0, 2**16),
    )
    def test_rows_equal_a_dense_oracle(self, algorithm, n_clients, rounds, seed):
        """Packed rows read back as a dense (n_clients, P) store would, bit for bit."""
        rng = np.random.default_rng(seed)
        p, everyone = 4, range(n_clients)
        cfg = AlgoConfig(algorithm, lr=0.3, alpha=0.1)
        store = ClientStore([8] * n_clients, p, RULES[algorithm].fields)
        dense = {name: np.zeros((n_clients, p)) for name in store.fields}
        first_writes = []
        for t, active in enumerate(rounds):
            ids = np.array(sorted({i % n_clients for i in active}))
            first_writes += [int(i) for i in ids if i not in first_writes]

            def block(*shape):
                b = rng.standard_normal(shape)
                b[rng.random(b.shape) < 0.3] = -0.0
                return b

            server = ServerState(block(p), block(p), block(p), block(p), t, n_clients, seed)
            update = planned_update(ids, np.full(len(ids), 8), rng.integers(1, 5, len(ids)),
                                    block(len(ids), p), round_lr(cfg, t))
            apply_update(store, update, server)
            # Each field's next rows from the dense rows, as blocks of the update's clients.
            delta = update.theta - server.global_params
            nxt = {"last_delta": delta}
            if "drift" in dense:
                nxt["drift"] = dense["drift"][ids] + delta
            if "scaffold_c" in dense:
                k_lr = update.k_steps[:, None] * round_lr(cfg, t)
                nxt["scaffold_c"] = (dense["scaffold_c"][ids] - server.scaffold_c) + delta / -k_lr
            for name in store.fields:
                dense[name][ids] = nxt[name]
                for order in (everyone, ids[::-1]):
                    got = [np.broadcast_to(row, p) for row in store.stored(name, order)]
                    assert np.array(got).tobytes() == dense[name][order].tobytes()
        # Slots follow first writes, and each field holds only the written rows.
        assert store.used == len(first_writes)
        assert store.slot[first_writes].tolist() == list(range(store.used))
        assert (np.delete(store.slot, first_writes) == n_clients).all()
        for name in store.fields:
            assert getattr(store, name).shape == (store.used, p)

    def test_stored_rows_are_views_of_the_store(self):
        store = ClientStore([8] * 3, 2, ("drift",))
        store.admit([2, 1])
        unwritten, one, two = store.stored("drift", [0, 1, 2])
        one[...], two[...] = 1.0, 2.0
        assert unwritten == 0.0 and type(unwritten) is float
        assert store.drift.tolist() == [[1.0, 1.0], [2.0, 2.0]]

    def test_an_unwritten_client_reads_as_positive_zeros(self):
        store = ClientStore([8] * 3, 2, ("drift",))
        assert store.admit([2]).tolist() == [0]
        assert store.drift.view(np.uint64).tolist() == [[0, 0]]  # admitted, not yet written
        store.drift[0] = -0.0
        assert not np.signbit(store.stored("drift", [0, 1])).any()
        assert np.signbit(store.stored("drift", [2])).all()
        assert store.slot.tolist() == [3, 3, 0]

    def test_rows_never_move_as_the_store_grows(self):
        store = ClientStore([8] * 3, 2, ("drift",))
        store.admit([1])
        held, (row,) = store.drift, store.stored("drift", [1])
        assert store.admit([2, 0, 1]).tolist() == [2, 1, 0]  # every field views more rows
        row[...] = 3.0
        assert held.tolist() == [[3.0, 3.0]]  # an earlier view still sees client 1's row
        assert store.drift.tolist() == [[3.0, 3.0], [0.0, 0.0], [0.0, 0.0]]
        assert store.slot.tolist() == [1, 0, 2]

    def test_admit_gives_new_clients_the_next_slots_in_ascending_id_order(self):
        store = ClientStore([8] * 5, 2, ("drift", "last_delta"))
        assert store.admit([3, 1, 3]).tolist() == [1, 0, 1]
        views = store.drift, store.last_delta
        assert store.admit(np.array([1])).tolist() == [0]
        assert store.drift is views[0] and store.last_delta is views[1]  # no new client
        assert store.admit([4, 0]).tolist() == [3, 2]
        assert store.used == 4 and store.slot.tolist() == [2, 0, 5, 1, 3]
        assert store.drift.shape == store.last_delta.shape == (4, 2)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("algorithm", [a for a in ALGORITHMS if RULES[a].fields])
    def test_apply_update_writes_the_next_rows_in_place(self, algorithm, workers):
        """Every field's NEXT_ROWS of copies of the stored rows, bit for bit: for a written
        client, a stored -0.0 row and two clients written for the first time
        (whose rows read +0.0), chunk by chunk on a pool of 1 and 2 threads."""
        p = 40
        rng = np.random.default_rng(3)
        cfg = AlgoConfig(algorithm, lr=0.3, alpha=0.1)
        store = ClientStore([8] * 5, p, RULES[algorithm].fields)
        seed_rows(store, [0, 1, 3], {f: rng.standard_normal((3, p)) for f in store.fields})
        seed_rows(store, [1], {f: -0.0 for f in store.fields})
        g = rng.standard_normal(p)
        g[0] = 0.0
        server = replace(randomize_server(ServerState.fresh(g, 5, 0), 3), round=2)
        ids = np.array([0, 1, 2, 4])  # clients 2 and 4 are written for the first time
        theta = rng.standard_normal((4, p))
        theta[:, 0], theta[:, 1] = -0.0, g[1]  # delta -0.0 and +0.0
        update = planned_update(ids, np.full(4, 8), np.array([3, 1, 4, 2]), theta,
                                round_lr(cfg, 2), cap=1, workers=workers)
        want = {f: store_rows(store, f, ids) for f in store.fields}
        for f, old in want.items():
            NEXT_ROWS[f](old, theta - g, update.k_steps[:, None] * round_lr(cfg, 2), server)
        untouched = {f: store_rows(store, f, 3) for f in store.fields}
        apply_update(store, update, server)
        assert store.slot.tolist() == [0, 1, 3, 2, 4]
        for f in store.fields:
            assert store_rows(store, f, ids).tobytes() == want[f].tobytes(), f
            assert store_rows(store, f, 3).tobytes() == untouched[f].tobytes(), f
        if "drift" in store.fields:
            # h + delta is -0.0 + -0.0 for the stored -0.0 row, +0.0 + -0.0 for a new one.
            signs = np.signbit(store_rows(store, "drift", [1, 2, 4])[:, 0])
            assert signs.tolist() == [True, False, False]

    @pytest.mark.parametrize(
        "slot",
        [[0, 0, 3], [0, 2, 3], [0, 4, 3], [-1, 0, 3], [1, 3, 3]],
        ids=["duplicate", "gap", "out-of-range", "negative", "no-slot-0"],
    )
    def test_a_bad_slot_map_is_refused(self, slot):
        with pytest.raises(FormatError, match="slot map"):
            ClientStore([8] * 3, 2, ("drift",), np.array(slot))

    def test_an_adopted_slot_map_allocates_its_rows(self):
        store = ClientStore([8] * 3, 2, ("drift", "last_delta"), np.array([1, 3, 0]))
        assert store.used == 2
        assert store.drift.shape == store.last_delta.shape == (2, 2)
        assert store_rows(store, "drift", [0, 1, 2]).tolist() == [[0.0, 0.0]] * 3

    def test_a_feddc_run_builds_without_huge_pages(self, tmp_path, monkeypatch):
        """mmap.MADV_HUGEPAGE is a Linux-only constant: without it a feddc run's store
        still builds, and the run writes the same records.csv, wall_ms aside."""
        cfg = ExperimentConfig(SyntheticConfig(n_clients=4, samples_per_client_mean=20),
                               ModelSpec("logistic", 30, 5),
                               AlgoConfig("feddc", alpha=0.01, participation=0.5), rounds=3)

        def records(name):
            path = tmp_path / name
            write_records_csv(path, run_experiment(cfg)[0], "feddc", cfg.dataset.label, cfg.seed)
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

        want = records("huge-pages.csv")
        monkeypatch.delattr(mmap, "MADV_HUGEPAGE")
        assert records("no-huge-pages.csv") == want

    def test_an_unknown_field_is_refused(self):
        with pytest.raises(ParameterError, match=r"^unknown client fields \['momentum'\]$"):
            ClientStore([8] * 3, 2, ("drift", "momentum"))


class TestCommunication:
    def test_upload_and_download_vector_counts(self):
        assert RULES["fedavg"].up == 1
        assert RULES["fedprox"].up == 1
        assert RULES["feddyn"].up == 1
        assert RULES["feddc"].up == 1
        assert RULES["scaffold"].up == 2
        assert RULES["fedavg"].down == 1
        assert RULES["fedprox"].down == 1
        assert RULES["feddyn"].down == 1
        assert RULES["feddc"].down == 2
        assert RULES["scaffold"].down == 2

    def test_feddc_bytes_are_1_5x_fedavg_exactly(self):
        p = SPEC.param_count
        totals = {a: (RULES[a].up + RULES[a].down) * 8 * p for a in ("fedavg", "feddc")}
        assert 2 * totals["feddc"] == 3 * totals["fedavg"]
