"""End-to-end learning checks on a small real dataset.

The image-scale acceptance runs need the MNIST IDX files, which are not
vendored; this module exercises the same MLP + federation pipeline on
scikit-learn's bundled handwritten-digits data so CI always covers a
genuine non-synthetic learning task.
"""

import numpy as np
import pytest

from feddrift.data import FederatedDataset, PartitionPlan, partition
from feddrift.engine import ExperimentConfig, run_experiment
from feddrift.federation import AlgoConfig
from feddrift.models import ModelSpec
from feddrift.rng import stream


def digits_dataset(n_clients=10, plan=None, seed=60):
    datasets = pytest.importorskip("sklearn.datasets")
    x, y = datasets.load_digits(return_X_y=True)
    x = x / 16.0
    order = stream(seed, "testing").permutation(len(y))
    x, y = x[order], y[order].astype(np.int64)
    n_train = 1400
    plan = plan or PartitionPlan(mode="iid", seed=seed)
    parts = partition(y[:n_train], n_clients, plan)
    return FederatedDataset(
        train_inputs=x[:n_train],
        train_labels=y[:n_train],
        test_inputs=x[n_train:],
        test_labels=y[n_train:],
        partitions=tuple(parts),
        num_classes=10,
        label="digits",
    )


def run_on_digits(algorithm, ds, rounds=15, seed=60, **kw):
    cfg = ExperimentConfig(
        dataset=ds,
        model=ModelSpec("mlp", 64, 10, hidden_dims=(32,), weight_decay=1e-3),
        algo=AlgoConfig(
            algorithm, lr=0.1, lr_decay=0.998, local_epochs=2, batch_size=20, **kw
        ),
        rounds=rounds,
        eval_every=1,
        seed=seed,
    )
    _, summary = run_experiment(cfg, dataset=ds)
    return summary.best_accuracy


def test_mlp_learns_digits_federated_iid():
    ds = digits_dataset()
    acc = run_on_digits("feddc", ds, alpha=0.1)
    assert acc >= 0.85, f"feddc only reached {acc:.3f} on digits"


def test_drift_correction_survives_label_skew():
    skewed = digits_dataset(plan=PartitionPlan(mode="dirichlet", conc=0.3, seed=61))
    acc_dc = run_on_digits("feddc", skewed, alpha=0.1)
    acc_avg = run_on_digits("fedavg", skewed)
    assert acc_dc >= 0.80, f"feddc only reached {acc_dc:.3f} under label skew"
    # Not a paper-table gate, just a sanity floor: correction should not
    # be catastrophically worse than plain averaging on skewed data.
    assert acc_dc >= acc_avg - 0.05


def test_partial_participation_runs_and_learns():
    ds = digits_dataset()
    acc = run_on_digits("feddc", ds, alpha=0.1, participation=0.3, rounds=25)
    assert acc >= 0.80


def test_gradient_variance_higher_under_label_skew():
    from feddrift.engine import FederatedRun

    def mean_variance(plan, seed, rounds=6):
        ds = digits_dataset(plan=plan, seed=seed)
        cfg = ExperimentConfig(
            dataset=ds,
            model=ModelSpec("mlp", 64, 10, hidden_dims=(32,), weight_decay=1e-3),
            algo=AlgoConfig("fedavg", lr=0.1, local_epochs=2, batch_size=20),
            rounds=rounds,
            eval_every=1,
            seed=seed,
        )
        run = FederatedRun(cfg, dataset=ds)
        return float(
            np.mean([run.run_round().grad_variance for _ in range(rounds)])
        )

    gaps = []
    for seed in (0, 1, 2):
        iid = mean_variance(PartitionPlan(mode="iid", seed=seed), seed)
        skew = mean_variance(
            PartitionPlan(mode="dirichlet", conc=0.3, seed=seed), seed
        )
        gaps.append(skew - iid)
    assert np.median(gaps) > 0
