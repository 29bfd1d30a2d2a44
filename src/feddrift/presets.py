"""Built-in experiment presets, named after the benchmark settings.

Presets are partial run configs merged underneath a user config: any key
the user supplies wins. Keeping them as code makes the shipped defaults
testable and the binary self-contained.
"""

from __future__ import annotations

import copy

from .errors import ConfigError

_SYNTHETIC_ALGO = {
    "lr": 0.1,
    "lr_decay": 0.998,
    "local_epochs": 10,
    "batch_size": 10,
    "participation": 1.0,
}

_MNIST_ALGO = {
    "lr": 0.1,
    "lr_decay": 0.998,
    "local_epochs": 5,
    "batch_size": 50,
    "participation": 1.0,
}


def _synthetic(gamma1, gamma2):
    return {
        "dataset": {
            "kind": "synthetic",
            "gamma1": gamma1,
            "gamma2": gamma2,
            "n_clients": 20,
            "samples_per_client_mean": 200,
        },
        "model": {
            "kind": "logistic",
            "input_dim": 30,
            "num_classes": 5,
            "weight_decay": 0.0,
        },
        "algorithm": dict(_SYNTHETIC_ALGO),
        "rounds": 100,
        "eval_every": 1,
        "target_accuracies": [],
    }


def _mnist(partition):
    return {
        "dataset": {
            "kind": "mnist",
            "n_clients": 100,
            "partition": partition,
        },
        "model": {
            "kind": "mlp",
            "input_dim": 784,
            "num_classes": 10,
            "hidden_dims": [200, 200],
            "weight_decay": 0.001,
        },
        "algorithm": dict(_MNIST_ALGO),
        "rounds": 200,
        "eval_every": 5,
        "target_accuracies": [0.98],
    }


PRESETS = {
    "synthetic-00": _synthetic(0.0, 0.0),
    "synthetic-10": _synthetic(1.0, 0.0),
    "synthetic-01": _synthetic(0.0, 1.0),
    "mnist-iid": _mnist({"mode": "iid"}),
    "mnist-d1": _mnist({"mode": "d1"}),
    "mnist-d2": _mnist({"mode": "d2"}),
    "unbalanced-0.3": _mnist(
        {"mode": "iid", "balance": "lognormal", "lognormal_var": 0.3}
    ),
}

# The penalty weights the benchmarks fix per algorithm, by dataset family.
DEFAULT_FEDDYN_ALPHA = 0.01
DEFAULT_FEDDC_ALPHA = {"synthetic": 0.005, "mnist": 0.1}


def get_preset(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError("preset", f"unknown preset {name!r}; see --list-presets")
    return copy.deepcopy(PRESETS[name])


def merge_under(user: dict, defaults: dict) -> dict:
    """Recursive merge where every user-supplied key wins."""
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge_under(value, out[key])
        else:
            out[key] = copy.deepcopy(value)
    return out


def default_alpha(algorithm: str, dataset_kind: str):
    if algorithm == "feddyn":
        return DEFAULT_FEDDYN_ALPHA
    if algorithm == "feddc":
        return DEFAULT_FEDDC_ALPHA.get(dataset_kind, DEFAULT_FEDDC_ALPHA["mnist"])
    return None
