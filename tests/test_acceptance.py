"""Acceptance suite: one test per release criterion, printing PASS lines.

Criteria that need the real MNIST IDX files (convergence speedup,
ablation ordering) skip with instructions when FEDDRIFT_DATA_DIR does
not point at them; everything else always runs. Run with `-s` to see
the per-criterion report lines.
"""

import os
import statistics

import numpy as np
import pytest

from conftest import (
    bits_equal,
    find_mnist_dir,
    mnist_paths,
    planned_update,
    seed_rows,
    store_rows,
)
from feddrift.data import PartitionPlan, SyntheticConfig, partition
from feddrift.engine import (
    ExperimentConfig,
    FederatedRun,
    MnistConfig,
    checkpoint_restore,
    checkpoint_save,
    rounds_to_target,
    run_experiment,
    run_experiments,
)
from feddrift.federation import (
    RULES,
    AlgoConfig,
    ClientStore,
    ServerState,
    ablation_from_code,
    apply_update,
    local_objective,
    local_objective_grad,
    round_lr,
    run_local_round,
    run_local_rounds,
    server_aggregate,
    steps_per_round,
    weighted_mean,
)
from feddrift.models import ModelSpec, init_params, loss_and_grad, mean_loss
from feddrift.rng import stream
from feddrift.vectors import finite_diff_grad, max_relative_error

LOGISTIC = ModelSpec("logistic", 30, 5)
SEEDS = (0, 1, 2)

# Reported reference values for the homogeneous synthetic benchmark
# (20 clients, full participation): best accuracy 98.65 / 99.35.
REF_SYNTH_FEDAVG = 0.9865
REF_SYNTH_FEDDC = 0.9935
REF_MNIST_FEDDC_ROUNDS = 26  # full-scale iid run, target 98%

RELEASE = os.environ.get("FEDDRIFT_RELEASE") == "1"


def synth_cfg(algorithm, seed, gamma1=0.0, gamma2=0.0, rounds=100, **kw):
    return ExperimentConfig(
        dataset=SyntheticConfig(
            gamma1=gamma1,
            gamma2=gamma2,
            n_clients=20,
            samples_per_client_mean=200,
            seed=seed,
        ),
        model=LOGISTIC,
        algo=AlgoConfig(
            algorithm, lr=0.1, lr_decay=0.998, local_epochs=10, batch_size=10, **kw
        ),
        rounds=rounds,
        eval_every=1,
        seed=seed,
    )


def best_accuracies(cfgs):
    """Each run's best accuracy, the runs trained on every usable CPU."""
    outcomes = run_experiments(cfgs)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return [summary.best_accuracy for _, summary in outcomes]


class TestCriterion1SyntheticHomogeneous:
    def test_reproduces_reported_accuracies(self):
        accs = best_accuracies(
            [synth_cfg("fedavg", seed) for seed in SEEDS]
            + [synth_cfg("feddc", seed, alpha=0.005) for seed in SEEDS]
        )
        favg, fdc = accs[:len(SEEDS)], accs[len(SEEDS):]
        med_avg = statistics.median(favg)
        med_dc = statistics.median(fdc)
        print(
            f"\nACCEPTANCE 1: synthetic(0;0) fedavg median {med_avg:.4f} "
            f"(reference {REF_SYNTH_FEDAVG}), feddc median {med_dc:.4f} "
            f"(reference {REF_SYNTH_FEDDC}), per-seed {list(zip(favg, fdc))}"
        )
        assert abs(med_avg - REF_SYNTH_FEDAVG) <= 0.010
        assert abs(med_dc - REF_SYNTH_FEDDC) <= 0.010
        for seed, (a, d) in enumerate(zip(favg, fdc)):
            assert d >= a, f"feddc below fedavg on seed {seed}: {d} < {a}"
        print("ACCEPTANCE 1: PASS")


class TestCriterion2SyntheticHeterogeneous:
    GATED = ("fedavg", "fedprox", "scaffold")

    @pytest.mark.parametrize("gamma1,gamma2", [(1.0, 0.0), (0.0, 1.0)])
    def test_feddc_leads_in_heterogeneous_settings(self, gamma1, gamma2):
        algos = {
            "fedavg": {},
            "fedprox": {"mu": 1e-4},
            "scaffold": {},
            "feddyn": {"alpha": 0.01},
            "feddc": {"alpha": 0.005},
        }
        accs = best_accuracies(
            synth_cfg(algo, seed, gamma1=gamma1, gamma2=gamma2, rounds=80, **kw)
            for algo, kw in algos.items() for seed in SEEDS
        )
        medians = {
            algo: statistics.median(accs[i * len(SEEDS):(i + 1) * len(SEEDS)])
            for i, algo in enumerate(algos)
        }
        line = "  ".join(f"{a}={m:.4f}" for a, m in medians.items())
        print(f"\nACCEPTANCE 2 synthetic({gamma1:g};{gamma2:g}): {line}")
        for rival in self.GATED:
            assert medians["feddc"] >= medians[rival], (
                f"feddc median {medians['feddc']:.4f} below "
                f"{rival} {medians[rival]:.4f} in synthetic({gamma1:g};{gamma2:g})"
            )
        print(f"ACCEPTANCE 2 synthetic({gamma1:g};{gamma2:g}): PASS "
              f"(feddyn recorded at {medians['feddyn']:.4f}, not gated)")


def _mnist_surrogate_dataset(seed, plan_mode):
    """20 clients on 10% of the training set, iid or strongly skewed."""
    paths = mnist_paths(find_mnist_dir())
    plan = (
        PartitionPlan(mode="iid", seed=seed)
        if plan_mode == "iid"
        else PartitionPlan(mode="dirichlet", conc=0.3, seed=seed)
    )
    return MnistConfig(
        train_images=paths["train_images"],
        train_labels=paths["train_labels"],
        test_images=paths["test_images"],
        test_labels=paths["test_labels"],
        n_clients=20,
        plan=plan,
        subsample=6000,
    )


MNIST_MLP = ModelSpec("mlp", 784, 10, hidden_dims=(200, 200), weight_decay=0.001)


def _mnist_surrogate_cfg(algorithm, seed, plan_mode, alpha=None, rounds=60,
                         stop_at=0.95):
    kw = {} if alpha is None else {"alpha": alpha}
    return ExperimentConfig(
        dataset=_mnist_surrogate_dataset(seed, plan_mode),
        model=MNIST_MLP,
        algo=AlgoConfig(algorithm, lr=0.1, lr_decay=0.998, local_epochs=5,
                        batch_size=50, **kw),
        rounds=rounds,
        eval_every=1,
        target_accuracies=(stop_at,),
        stop_at_target=stop_at,
        seed=seed,
    )


_MNIST_SKIP = (
    "real MNIST IDX files not found: set FEDDRIFT_DATA_DIR to a directory with "
    "train-images-idx3-ubyte(.gz) etc., e.g. via `feddrift fetch-mnist --out <dir>`"
)


class TestCriterion3MnistSpeedup:
    def test_ci_surrogate_speedup(self):
        if find_mnist_dir() is None:
            pytest.skip(_MNIST_SKIP)
        target = 0.95
        cfg_avg = _mnist_surrogate_cfg("fedavg", 0, "iid")
        cfg_dc = _mnist_surrogate_cfg("feddc", 0, "iid", alpha=0.1)
        recs_avg, _ = run_experiment(cfg_avg)
        recs_dc, _ = run_experiment(cfg_dc)
        r_avg = rounds_to_target(recs_avg, target)
        r_dc = rounds_to_target(recs_dc, target)
        print(f"\nACCEPTANCE 3 (CI surrogate): fedavg R#={r_avg} feddc R#={r_dc}")
        assert r_dc is not None, "feddc never reached 95% on the surrogate"
        assert r_avg is not None and r_avg / r_dc >= 1.5, (
            f"surrogate speedup {r_avg}/{r_dc} below 1.5x"
        )
        print("ACCEPTANCE 3 (CI surrogate): PASS")

    @pytest.mark.release
    def test_full_scale_speedup(self):
        if not RELEASE:
            pytest.skip("release gate: set FEDDRIFT_RELEASE=1 to run (~60 min CPU)")
        if find_mnist_dir() is None:
            pytest.skip(_MNIST_SKIP)
        root = find_mnist_dir()
        paths = mnist_paths(root)
        target = 0.98

        def full_cfg(algorithm, **kw):
            return ExperimentConfig(
                dataset=MnistConfig(
                    train_images=paths["train_images"],
                    train_labels=paths["train_labels"],
                    test_images=paths["test_images"],
                    test_labels=paths["test_labels"],
                    n_clients=100,
                    plan=PartitionPlan(mode="iid", seed=0),
                ),
                model=ModelSpec(
                    "mlp", 784, 10, hidden_dims=(200, 200), weight_decay=0.001
                ),
                algo=AlgoConfig(algorithm, lr=0.1, lr_decay=0.998, local_epochs=5,
                                batch_size=50, **kw),
                rounds=160,
                eval_every=1,
                target_accuracies=(target,),
                stop_at_target=target,
                seed=0,
            )

        recs_dc, _ = run_experiment(full_cfg("feddc", alpha=0.1))
        r_dc = rounds_to_target(recs_dc, target)
        assert r_dc is not None and r_dc <= 2 * REF_MNIST_FEDDC_ROUNDS, (
            f"feddc took {r_dc} rounds to 98%, budget {2 * REF_MNIST_FEDDC_ROUNDS}"
        )
        recs_avg, _ = run_experiment(full_cfg("fedavg"))
        r_avg = rounds_to_target(recs_avg, target)
        print(f"\nACCEPTANCE 3 (full): fedavg R#={r_avg} feddc R#={r_dc}")
        assert r_avg is not None and r_avg / r_dc >= 2.0
        print("ACCEPTANCE 3 (full): PASS")


class TestCriterion4CommunicationAccounting:
    def test_feddc_traffic_exactly_1_5x_fedavg(self):
        p = LOGISTIC.param_count
        totals = {}
        for algo, kw in (("fedavg", {}), ("feddc", {"alpha": 0.005})):
            cfg = synth_cfg(algo, 0, rounds=2, **kw)
            recs, _ = run_experiment(cfg)
            for r in recs:
                down_vecs = RULES[cfg.algo.algorithm].down
                assert r.bytes_down == 20 * down_vecs * 8 * p
                assert r.bytes_up == 20 * 8 * p
            totals[algo] = sum(r.bytes_up + r.bytes_down for r in recs)
        assert 2 * totals["feddc"] == 3 * totals["fedavg"]
        print(
            f"\nACCEPTANCE 4: feddc bytes {totals['feddc']} == "
            f"1.5 x fedavg bytes {totals['fedavg']}: PASS"
        )


class TestCriterion5Properties:
    """Always-on property suite; every check here must stay under 30 s total."""

    def test_gradients_match_finite_differences(self):
        specs = (
            ModelSpec("logistic", 12, 4, weight_decay=1e-3),
            ModelSpec("mlp", 10, 3, hidden_dims=(8,), weight_decay=1e-3),
        )
        rng = stream(50, "testing")
        for spec in specs:
            params = init_params(spec, stream(50, "global-init"))
            x = rng.standard_normal((4, spec.input_dim))
            y = (rng.random(4) * spec.num_classes).astype(np.int64)
            _, grad = loss_and_grad(spec, params, x, y)
            oracle = finite_diff_grad(
                lambda v: mean_loss(spec, v, x, y), params, 1e-5
            )
            err = max_relative_error(grad, oracle)
            assert err < 1e-5, f"{spec.kind}: gradient error {err:.2e}"

        # Full drift-corrected objective, all terms active.
        spec = specs[0]
        cfg = AlgoConfig("feddc", alpha=0.3, lr=0.1, local_epochs=2, batch_size=2)
        init = init_params(spec, stream(51, "global-init"))
        server = ServerState.fresh(init, n_clients=2, rng_seed=51)
        dim = spec.param_count
        clients = ClientStore([4], dim, RULES["feddc"].fields)
        theta = init + 0.05 * rng.standard_normal(dim)
        seed_rows(clients, [0], {"drift": 0.1 * rng.standard_normal(dim),
                                 "last_delta": 0.03 * rng.standard_normal(dim)})
        x = rng.standard_normal((4, spec.input_dim))
        y = (rng.random(4) * spec.num_classes).astype(np.int64)
        grad = local_objective_grad(theta, clients, 0, server, cfg, x, y, spec)
        oracle = finite_diff_grad(
            lambda v: local_objective(v, clients, 0, server, cfg, x, y, spec),
            theta,
            1e-6,
        )
        err = max_relative_error(grad, oracle)
        assert err < 1e-5, f"objective gradient error {err:.2e}"
        print(f"\nACCEPTANCE 5a: gradient checks < 1e-5: PASS")

    def test_drift_bookkeeping_exact(self):
        spec = LOGISTIC
        cfg = AlgoConfig("feddc", alpha=0.005, lr=0.1, local_epochs=2, batch_size=10)
        init = init_params(spec, stream(52, "global-init"))
        server = ServerState.fresh(init, 1, 52)
        clients = ClientStore([30], spec.param_count, RULES["feddc"].fields)
        rng = stream(52, "testing")
        x = rng.standard_normal((30, 30))
        y = (rng.random(30) * 5).astype(np.int64)
        up = run_local_round(
            clients, 0, server, cfg, x, y, stream(52, "batch-shuffle"), spec
        )
        before = store_rows(clients, "drift", 0)
        apply_update(clients, up, server)
        lhs = store_rows(clients, "drift", 0) - before
        rhs = up.theta[0] - server.global_params
        assert bits_equal(lhs, rhs)
        print("ACCEPTANCE 5b: drift bookkeeping h+-h == theta+-global bitwise: PASS")

    def test_aggregation_identity_bitwise(self):
        spec = LOGISTIC
        cfg = AlgoConfig("feddc", alpha=0.005, lr=0.1, local_epochs=1, batch_size=10)
        init = init_params(spec, stream(53, "global-init"))
        server = ServerState.fresh(init, 3, 53)
        rng = stream(53, "testing")
        data = []
        clients = ClientStore([20] * 3, spec.param_count, RULES["feddc"].fields)
        for i in range(3):
            seed_rows(clients, [i], {"drift": 0.1 * rng.standard_normal(spec.param_count)})
            x = rng.standard_normal((20, 30))
            y = (rng.random(20) * 5).astype(np.int64)
            data.append((x, y, stream(53, "batch-shuffle", client=i)))
        up = run_local_rounds(clients, [0, 1, 2], server, cfg, data.__getitem__, spec)
        new_server = server_aggregate(server, up, cfg, clients)
        drift_plus = store_rows(clients, "drift", [0, 1, 2]) + (up.theta - server.global_params)
        oracle = weighted_mean(up.theta + drift_plus, [1.0] * 3)
        assert bits_equal(new_server.global_params, oracle)
        print("ACCEPTANCE 5c: aggregation identity bitwise: PASS")

    def test_stationarity_bitwise(self):
        for algo, kw in (
            ("fedavg", {}),
            ("fedprox", {}),
            ("scaffold", {}),
            ("feddyn", {"alpha": 0.01}),
            ("feddc", {"alpha": 0.005}),
        ):
            cfg = AlgoConfig(algo, lr=0.1, local_epochs=1, batch_size=10, **kw)
            init = init_params(LOGISTIC, stream(54, "global-init"))
            server = ServerState.fresh(init, 4, 54)
            clients = ClientStore([20] * 4, init.size, RULES[algo].fields)
            up = planned_update(
                np.arange(4), np.full(4, 20), np.full(4, steps_per_round(20, cfg)),
                np.tile(server.global_params, (4, 1)), round_lr(cfg, server.round),
            )
            new_server = server_aggregate(server, up, cfg, clients)
            assert bits_equal(new_server.global_params, server.global_params), algo
        print("ACCEPTANCE 5d: stationarity under zero deltas bitwise: PASS")

    def test_resume_determinism_bitwise(self, tmp_path):
        for algo, kw in (
            ("fedavg", {}),
            ("fedprox", {}),
            ("scaffold", {}),
            ("feddyn", {"alpha": 0.01}),
            ("feddc", {"alpha": 0.005}),
        ):
            cfg = ExperimentConfig(
                dataset=SyntheticConfig(n_clients=4, samples_per_client_mean=20, seed=55),
                model=LOGISTIC,
                algo=AlgoConfig(algo, lr=0.1, local_epochs=1, batch_size=10, **kw),
                rounds=4,
                seed=55,
            )
            straight = FederatedRun(cfg)
            straight.run_to_completion()
            half = FederatedRun(cfg)
            for _ in range(2):
                half.run_round()
            path = tmp_path / f"{algo}.ckpt"
            checkpoint_save(path, half.server, half.clients)
            resumed = checkpoint_restore(FederatedRun(cfg), path)
            while resumed.round < 4:
                resumed.run_round()
            assert bits_equal(
                resumed.server.global_params, straight.server.global_params
            ), algo
        print("ACCEPTANCE 5e: checkpoint resume bitwise for all algorithms: PASS")

    def test_dirichlet_partitions_disjoint_and_ordered_entropy(self):
        rng = stream(56, "testing")
        labels = (rng.random(30_000) * 10).astype(np.int64)

        def mean_entropy(conc, seed):
            parts = partition(
                labels, 100, PartitionPlan(mode="dirichlet", conc=conc, seed=seed)
            )
            joined = np.concatenate(parts)
            assert np.unique(joined).shape[0] == labels.shape[0]  # disjoint + cover
            ents = []
            for p in parts:
                q = np.bincount(labels[p], minlength=10) / p.shape[0]
                q = q[q > 0]
                ents.append(float(-(q * np.log(q)).sum()))
            return float(np.mean(ents))

        gaps = [mean_entropy(0.6, s) - mean_entropy(0.3, s) for s in range(5)]
        assert statistics.median(gaps) > 0
        print("ACCEPTANCE 5f: dirichlet disjoint/cover and D2 < D1 entropy: PASS")

    def test_feddc_collapses_to_fedavg_gradient_bitwise(self):
        spec = LOGISTIC
        init = init_params(spec, stream(57, "global-init"))
        server = ServerState.fresh(init, 1, 57)
        clients = ClientStore([8], spec.param_count, RULES["feddc"].fields)
        rng = stream(57, "testing")
        x = rng.standard_normal((8, 30))
        y = (rng.random(8) * 5).astype(np.int64)
        for cfg in (
            AlgoConfig("feddc", alpha=0.0, lr=0.1),
            AlgoConfig("feddc", alpha=0.1, lr=0.1, ablation=ablation_from_code("le")),
        ):
            got = local_objective_grad(init, clients, 0, server, cfg, x, y, spec)
            _, plain = loss_and_grad(spec, init, x, y)
            assert bits_equal(got, plain)
        print("ACCEPTANCE 5g: feddc local gradient collapses to fedavg bitwise: PASS")

    def test_zero_params_loss_is_log_num_classes(self):
        for spec in (LOGISTIC, ModelSpec("mlp", 6, 3, hidden_dims=(4,))):
            rng = stream(58, "testing")
            x = rng.standard_normal((7, spec.input_dim))
            y = (rng.random(7) * spec.num_classes).astype(np.int64)
            loss, _ = loss_and_grad(spec, np.zeros(spec.param_count), x, y)
            assert abs(loss - np.log(spec.num_classes)) < 1e-12
        print("ACCEPTANCE 5h: loss at zero params == ln(C) within 1e-12: PASS")


class TestCriterion6AblationOrdering:
    @pytest.mark.release
    def test_ablation_ordering_on_d2_surrogate(self, tmp_path):
        if not RELEASE:
            pytest.skip("release gate: set FEDDRIFT_RELEASE=1 to run")
        if find_mnist_dir() is None:
            pytest.skip(_MNIST_SKIP)
        variants = ("lelglp", "lelp", "le")
        best = {v: [] for v in variants}
        for seed in SEEDS:
            for v in variants:
                cfg = ExperimentConfig(
                    dataset=_mnist_surrogate_dataset(seed, "d2"),
                    model=MNIST_MLP,
                    algo=AlgoConfig(
                        "feddc", alpha=0.1, lr=0.1, lr_decay=0.998,
                        local_epochs=5, batch_size=50,
                        ablation=ablation_from_code(v),
                    ),
                    rounds=40,
                    eval_every=1,
                    seed=seed,
                )
                recs, summary = run_experiment(cfg)
                best[v].append(summary.best_accuracy)
                # Keep the per-round series for inspection on failure.
                out = tmp_path / f"ablation-{v}-s{seed}.csv"
                out.write_text(
                    "\n".join(
                        f"{r.round},{r.test_accuracy}" for r in recs
                        if r.test_accuracy is not None
                    )
                )
        med = {v: statistics.median(best[v]) for v in variants}
        print(f"\nACCEPTANCE 6: ablation medians {med} (series in {tmp_path})")
        assert med["lelglp"] >= med["lelp"], f"full variant below lelp: {med}"
        assert med["lelp"] > med["le"], f"parameter correction not helping: {med}"
        print("ACCEPTANCE 6: PASS")
