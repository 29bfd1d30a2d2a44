"""Built-in experiment presets, named after the benchmark settings.

Presets are partial run configs merged underneath a user config: any key
the user supplies wins. A preset holds only what differs from the
config defaults (see `cli.build_experiment`), except the synthetic
`model.num_classes`, which the benchmark reads.
"""

from __future__ import annotations

import copy

from .errors import ConfigError


def _synthetic(gamma1, gamma2):
    return {
        "dataset": {
            "kind": "synthetic",
            "gamma1": gamma1,
            "gamma2": gamma2,
        },
        "model": {"num_classes": 5},
        "algorithm": {"local_epochs": 10, "batch_size": 10},
    }


def _mnist(partition):
    return {
        "dataset": {
            "kind": "mnist",
            "partition": partition,
        },
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

# The penalty weight alpha the benchmarks fix, by dataset kind, then
# algorithm; the algorithms absent here take no alpha.
DEFAULT_ALPHA = {
    "synthetic": {"feddyn": 0.01, "feddc": 0.005},
    "mnist": {"feddyn": 0.01, "feddc": 0.1},
}


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

