"""Command-line entry point: run experiments, sweeps, and gradient checks.

Configs are strict JSON: a field outside the documented schema or a
value of the wrong JSON type aborts with exit code 2 and the dotted
path of the offender. Exit codes: 0 success, 1 runtime failure (message
carries the failing round), 2 config/schema problem.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import statistics
import sys
import types
import urllib.request

from . import presets
from .data import DIRICHLET_NAMED, PartitionPlan, SyntheticConfig
from .engine import (
    ExperimentConfig,
    MnistConfig,
    build_dataset,
    dataset_label,
    run_experiment,
    write_records_csv,
    write_summary_json,
)
from .errors import ConfigError, FedDriftError, ParameterError
from .federation import (
    ALGORITHMS,
    RULES,
    AlgoConfig,
    ablation_from_code,
    feddc_local_objective,
    feddc_local_objective_grad,
    ClientStore,
    ServerState,
)
from .models import ModelSpec, init_params, loss_and_grad, mean_loss
from .rng import MAX_SEED, stream
from .vectors import finite_diff_grad, max_relative_error

DATA_DIR_ENV = "FEDDRIFT_DATA_DIR"
GRADCHECK_TOLERANCE = 1e-5

_MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

_MNIST_MIRRORS = (
    "https://ossci-datasets.s3.amazonaws.com/mnist/",
    "https://storage.googleapis.com/cvdf-datasets/mnist/",
)

# The config schema: each section's keys and their JSON types. An int
# field takes integers, a float field any number (stored as a float),
# neither takes a bool, and null is allowed only as `| None`, where the
# dataclass the section builds accepts None.
_TOP = {
    "preset": str,
    "algorithm": dict,
    "dataset": dict,
    "model": dict,
    "rounds": int,
    "eval_every": int,
    "seed": int,
    "target_accuracies": list[float],
    "stop_at_target": float | None,
    "out_dir": str,
}
_ALGORITHM = {
    "name": str,
    "lr": float,
    "lr_decay": float,
    "local_epochs": int,
    "batch_size": int,
    "participation": float,
    "aggregation_weighting": str,
    "mu": float,
    "alpha": float | None,
    "ablation": str | list[str],
}
_DATASET = {
    "synthetic": {
        "kind": str,
        "gamma1": float,
        "gamma2": float,
        "n_clients": int,
        "samples_per_client_mean": int,
        "seed": int,
    },
    "mnist": {
        "kind": str,
        "data_dir": str,
        **dict.fromkeys(_MNIST_FILES, str),
        "n_clients": int,
        "partition": dict,
        "subsample": int | None,
    },
}
_PARTITION = {
    "mode": str,
    "conc": float | None,
    "balance": str,
    "lognormal_var": float,
    "seed": int,
}
_MODEL = {
    "kind": str,
    "input_dim": int,
    "num_classes": int,
    "hidden_dims": list[int],
    "weight_decay": float,
}
_MANIFEST = {
    "out_dir": str,
    "settings": list[str | dict],
    "algorithms": list[str],
    "seeds": list[int],
    "rounds": int,
    "eval_every": int,
    "overrides": dict,
}

# Per dataset kind, the model a config gets for every field its model
# section leaves out; an mlp's hidden_dims default to [200, 200].
_MODEL_DEFAULTS = {
    "synthetic": {"kind": "logistic", "input_dim": 30, "num_classes": 5, "weight_decay": 0.0},
    "mnist": {"kind": "mlp", "input_dim": 784, "num_classes": 10, "weight_decay": 0.001},
}

_JSON_NAMES = {
    type(None): "null",
    bool: "boolean",
    int: "integer",
    float: "number",
    str: "string",
    list: "array",
    dict: "object",
}


def _type_name(kind) -> str:
    if isinstance(kind, types.UnionType):
        return " or ".join(_type_name(k) for k in kind.__args__)
    if isinstance(kind, types.GenericAlias):
        return f"array of {_type_name(kind.__args__[0])}"
    return _JSON_NAMES[kind]


def _typed(value, kind, path: str):
    """`value` if its JSON type is `kind`, a float field's as a float; else a ConfigError."""
    for option in kind.__args__ if isinstance(kind, types.UnionType) else (kind,):
        if isinstance(value, bool):  # an int to Python, never a number here
            continue
        if isinstance(option, types.GenericAlias):
            if isinstance(value, list):
                item = option.__args__[0]
                return [_typed(v, item, f"{path}[{i}]") for i, v in enumerate(value)]
        elif option is float and isinstance(value, (int, float)):
            try:
                return float(value)
            except OverflowError:
                raise ConfigError(path, f"{value} is too large for a float") from None
        elif isinstance(value, option):
            return value
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    raise ConfigError(path, f"expected {_type_name(kind)}, got {got}")


def _defaults(cls) -> dict:
    """The field defaults of dataclass `cls`, by field name."""
    fields = dataclasses.fields(cls)
    return {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}


def _read(section, schema: dict, path: str, defaults=None) -> dict:
    """One config object's values by `schema`, over the `defaults` it names.

    A key outside the schema or a value of the wrong JSON type raises a
    ConfigError with its dotted path.
    """
    if not isinstance(section, dict):
        raise ConfigError(path or "<root>", "expected a JSON object")
    values = {k: v for k, v in (defaults or {}).items() if k in schema}
    for key, value in section.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(where, "unknown field")
        values[key] = _typed(value, schema[key], where)
    return values


def _check_seed(value: int, path: str) -> None:
    """A ConfigError naming `path` unless `value` can key a stream."""
    if not 0 <= value < MAX_SEED:
        raise ConfigError(path, f"expected a seed in [0, 2**64), got {value}")


def _build(cls, values: dict, path: str, **extra):
    """`cls` from the values named like its fields, and `extra`.

    A ParameterError becomes a ConfigError naming `path` and its field;
    "" is the top level, named "<run>" by an error without a field.
    """
    names = {f.name for f in dataclasses.fields(cls)}
    try:
        return cls(**{**{k: v for k, v in values.items() if k in names}, **extra})
    except ParameterError as exc:
        raise ConfigError(".".join(filter(None, (path, exc.field))) or "<run>", str(exc)) from exc


def resolve_mnist_paths(section: dict) -> dict:
    """Explicit paths win; otherwise data_dir, otherwise $FEDDRIFT_DATA_DIR."""
    root = section.get("data_dir") or os.environ.get(DATA_DIR_ENV)
    paths = {}
    for key, fname in _MNIST_FILES.items():
        if key in section:
            paths[key] = section[key]
            continue
        if not root:
            raise ConfigError(
                f"dataset.{key}",
                f"missing; give explicit paths, dataset.data_dir, or ${DATA_DIR_ENV}",
            )
        candidate = os.path.join(root, fname)
        paths[key] = candidate if os.path.exists(candidate) else candidate + ".gz"
    return paths


def _partition(section, seed: int):
    p = _read(section, _PARTITION, "dataset.partition", {**_defaults(PartitionPlan), "seed": seed})
    _check_seed(p["seed"], "dataset.partition.seed")
    modes = ("iid", "dirichlet", *DIRICHLET_NAMED)
    if p["mode"] not in modes:
        raise ConfigError("dataset.partition.mode", f"expected one of {modes}, got {p['mode']!r}")
    if p["mode"] in DIRICHLET_NAMED:
        if p["conc"] is None:
            p["conc"] = DIRICHLET_NAMED[p["mode"]]
        p["mode"] = "dirichlet"
    return _build(PartitionPlan, p, "dataset.partition"), p


def _dataset(section: dict, seed: int):
    kind = section.get("kind")
    if not isinstance(kind, str) or kind not in _DATASET:
        raise ConfigError("dataset.kind", f"expected one of {tuple(_DATASET)}, got {kind!r}")
    if kind == "synthetic":
        d = _read(section, _DATASET[kind], "dataset", {**_defaults(SyntheticConfig), "seed": seed})
        _check_seed(d["seed"], "dataset.seed")
        return _build(SyntheticConfig, d, "dataset"), d
    d = _read(section, _DATASET[kind], "dataset", _defaults(MnistConfig))
    plan, d["partition"] = _partition(d.get("partition", {}), seed)
    d.update(resolve_mnist_paths(d))
    d.pop("data_dir", None)
    return _build(MnistConfig, d, "dataset", plan=plan), d


def _model(section, dataset_kind: str):
    m = _read(section, _MODEL, "model", {**_defaults(ModelSpec), **_MODEL_DEFAULTS[dataset_kind]})
    if m["kind"] == "mlp" and "hidden_dims" not in section:
        m["hidden_dims"] = [200, 200]
    return _build(ModelSpec, m, "model"), m


def _algorithm(section: dict, dataset_kind: str):
    a = _read(section, _ALGORITHM, "algorithm", _defaults(AlgoConfig))
    if a.get("name") not in ALGORITHMS:
        raise ConfigError("algorithm.name", f"expected one of {ALGORITHMS}, got {a.get('name')!r}")
    if "alpha" not in section:
        a["alpha"] = presets.DEFAULT_ALPHA[dataset_kind].get(a["name"])
    ablation = a["ablation"]
    try:
        a["ablation"] = sorted(
            ablation_from_code(ablation) if isinstance(ablation, str) else set(ablation)
        )
    except ParameterError as exc:
        raise ConfigError("algorithm.ablation", str(exc)) from exc
    return _build(AlgoConfig, a, "algorithm", algorithm=a["name"]), a


def build_experiment(raw: dict):
    """Validate a config document and return (ExperimentConfig, resolved dict).

    The resolved dict holds every value read, defaults filled in: what
    config.json echoes.
    """
    preset = _read(raw, _TOP, "").get("preset")
    if preset is not None:
        raw = presets.merge_under(raw, presets.get_preset(preset))
    top = _read(raw, _TOP, "", {**_defaults(ExperimentConfig), "rounds": 100})
    _check_seed(top["seed"], "seed")
    for section in ("algorithm", "dataset"):
        if section not in top:
            raise ConfigError(section, "missing required section")
    dataset, top["dataset"] = _dataset(top["dataset"], top["seed"])
    kind = top["dataset"]["kind"]
    model, top["model"] = _model(top.get("model", {}), kind)
    if isinstance(dataset, SyntheticConfig):  # MNIST's shape is known only once loaded
        if model.input_dim != dataset.input_dim:
            raise ConfigError("model.input_dim", f"expected the synthetic data's "
                              f"{dataset.input_dim} features, got {model.input_dim}")
        if model.num_classes < dataset.num_classes:
            raise ConfigError("model.num_classes", f"expected at least the synthetic data's "
                              f"{dataset.num_classes} classes, got {model.num_classes}")
    algo, top["algorithm"] = _algorithm(top["algorithm"], kind)
    exp = _build(ExperimentConfig, top, "", dataset=dataset, model=model, algo=algo)
    return exp, {k: v for k, v in top.items() if k not in ("preset", "out_dir")}


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError("<file>", f"{path} is not valid JSON: {exc}") from exc


def _apply_overrides(raw: dict, args) -> dict:
    flags = {"seed": args.seed, "rounds": args.rounds, "out_dir": args.out}
    overrides = {k: v for k, v in flags.items() if v is not None}
    if args.participation is not None:
        overrides["algorithm"] = {"participation": args.participation}
    return presets.merge_under(overrides, raw)


def write_config_json(path, resolved: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_one(exp: ExperimentConfig, out_dir: str, resolved: dict):
    """Train one run, then write its outputs; a run that fails writes nothing."""
    dataset = build_dataset(exp.dataset)
    records, summary = run_experiment(exp, dataset=dataset)
    label = dataset_label(dataset)
    os.makedirs(out_dir, exist_ok=True)
    write_records_csv(
        os.path.join(out_dir, "records.csv"),
        records,
        exp.algo.algorithm,
        label,
        exp.seed,
    )
    write_summary_json(os.path.join(out_dir, "summary.json"), summary)
    write_config_json(os.path.join(out_dir, "config.json"), resolved)
    return records, summary, label


def cmd_run(args) -> int:
    if args.list_presets:
        for name in presets.PRESETS:
            print(name)
        return 0
    if not args.config:
        print("error: a config file is required (or --list-presets)", file=sys.stderr)
        return 2
    raw = _load_json(args.config)
    _read(raw, _TOP, "")  # the flags override a well-formed top level only
    raw = _apply_overrides(raw, args)
    exp, resolved = build_experiment(raw)
    out_dir = raw.get("out_dir") or os.path.join("runs", f"{exp.algo.algorithm}-s{exp.seed}")
    records, summary, label = _run_one(exp, out_dir, resolved)
    print(
        f"{exp.algo.algorithm} on {label} seed {exp.seed}: "
        f"best accuracy {summary.best_accuracy:.4f} "
        f"({len(records)} rounds) -> {out_dir}/records.csv"
    )
    return 0


# Characters a sweep setting's name may not hold: they would split its
# table.csv cell or table.md row, or lead its run directory elsewhere.
_NAME_BANNED = ",|/\\\n\r"


def _expand_manifest(manifest: dict):
    """(out_dir, runs): each run (setting, algorithm, seed, exp, resolved).

    Every combination is built, and so validated, before any runs.
    """
    m = _read(manifest, _MANIFEST, "", {"out_dir": "sweep", "seeds": [0]})
    if not (m.get("settings") and m.get("algorithms") and m["seeds"]):
        raise ConfigError(
            "settings", "manifest needs nonempty settings, algorithms, and seeds"
        )
    for i, seed in enumerate(m["seeds"]):
        _check_seed(seed, f"seeds[{i}]")
    pinned = {k: m[k] for k in ("rounds", "eval_every") if k in m}
    runs = []
    seen = set()
    for i, setting in enumerate(m["settings"]):
        if isinstance(setting, str):
            name, base = setting, presets.get_preset(setting)
        else:
            base = dict(setting)
            name = _typed(base.pop("name", None), str, f"settings[{i}].name")
            if name in ("", ".", "..") or any(c in name for c in _NAME_BANNED):
                raise ConfigError(
                    f"settings[{i}].name",
                    f"{name!r} cannot name a table row and a run directory",
                )
        base = presets.merge_under(m.get("overrides", {}), base)
        base.pop("out_dir", None)
        for algo in m["algorithms"]:
            for seed in m["seeds"]:
                key = (name, algo, seed)
                if key in seen:
                    raise ConfigError(
                        "settings", f"duplicate combination {name}/{algo}/seed={seed}"
                    )
                seen.add(key)
                raw = presets.merge_under(
                    {"algorithm": {"name": algo}, "seed": seed, **pinned}, base
                )
                runs.append((name, algo, seed, *build_experiment(raw)))
    return m["out_dir"], runs


def cmd_sweep(args) -> int:
    out_root, runs = _expand_manifest(_load_json(args.manifest))
    rows = []  # (setting, algorithm, seed, best accuracy, target, rounds to target)
    failures = []
    for name, algo, seed, exp, resolved in runs:
        run_dir = os.path.join(out_root, name, f"{algo}-s{seed}")
        try:
            _, summary, _ = _run_one(exp, run_dir, resolved)
        except FedDriftError as exc:
            if not args.keep_going:
                print(f"error: {name}/{algo}/seed={seed}: {exc}", file=sys.stderr)
                return 1
            failures.append((name, algo, seed, str(exc)))
            continue
        target = exp.target_accuracies[0] if exp.target_accuracies else None
        reached = summary.rounds_to_target.get(target)
        rows.append((name, algo, seed, summary.best_accuracy, target, reached))
        print(
            f"{name} {algo} seed={seed}: best={summary.best_accuracy:.4f}"
            + (f" target@{target:g}: {reached if reached is not None else '>budget'}"
               if target is not None else "")
        )
    _write_sweep_tables(out_root, rows)
    for name, algo, seed, msg in failures:
        print(f"FAILED {name}/{algo}/seed={seed}: {msg}", file=sys.stderr)
    return 1 if failures else 0


def _cell(value, fmt=str) -> str:
    return "" if value is None else fmt(value)


def _median_rounds(rows):
    """The median rounds-to-target over the rows, a run that missed it counting as +inf."""
    return statistics.median(math.inf if row[5] is None else row[5] for row in rows)


def _write_sweep_tables(out_root: str, rows) -> None:
    """table.csv: one line per run, with its speedup over fedavg on its seed;
    table.md: per setting and algorithm, the medians over seeds, and the
    speedup of the rounds median over fedavg's when both reached the target."""
    os.makedirs(out_root, exist_ok=True)
    groups = {}  # (setting, algorithm) -> its rows; runs come grouped, so in run order
    for row in rows:
        groups.setdefault(row[:2], []).append(row)

    lines = ["setting,algorithm,seed,best_accuracy,target,rounds_to_target,speedup_vs_fedavg"]
    for (setting, _), mine in groups.items():
        baseline = {row[2]: row[5] for row in groups.get((setting, "fedavg"), [])}
        for _, algo, seed, best, target, reached in mine:
            base = baseline.get(seed)
            speedup = None if base is None or reached is None else base / reached
            lines.append(
                ",".join(
                    [
                        setting,
                        algo,
                        str(seed),
                        repr(best),
                        _cell(target, repr),
                        _cell(reached),
                        _cell(speedup, "{:.2f}".format),
                    ]
                )
            )
    with open(os.path.join(out_root, "table.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    md = []
    for setting in sorted({setting for setting, _ in groups}):
        md.append(f"## {setting}\n")
        md.append("| Algorithm | Best Acc (median) | R# (median) | Speedup vs fedavg |")
        md.append("|---|---|---|---|")
        fedavg = groups.get((setting, "fedavg"))
        base_rounds = _median_rounds(fedavg) if fedavg else math.inf
        for algo in sorted(algo for s, algo in groups if s == setting):
            mine = groups[(setting, algo)]
            acc = statistics.median(row[3] for row in mine)
            rounds = _median_rounds(mine)
            r_txt = f"{rounds:g}" if rounds < math.inf else ">budget"
            s_txt = f"{base_rounds / rounds:.2f}x" if max(base_rounds, rounds) < math.inf else "-"
            md.append(f"| {algo} | {acc:.4f} | {r_txt} | {s_txt} |")
        md.append("")
    with open(os.path.join(out_root, "table.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(md) + "\n")


def cmd_gradcheck(args) -> int:
    try:
        hidden = tuple(int(h) for h in args.hidden.split(",") if h)
    except ValueError:
        raise ConfigError(
            "--hidden", f"expected comma-separated integers, got {args.hidden!r}"
        ) from None
    if args.batch < 1:
        raise ConfigError("--batch", f"expected a positive integer, got {args.batch}")
    _check_seed(args.seed, "--seed")
    try:
        spec = ModelSpec(
            kind=args.model,
            input_dim=args.input_dim,
            num_classes=args.classes,
            hidden_dims=hidden,
            weight_decay=args.weight_decay,
        )
    except ParameterError as exc:
        flags = {"kind": "--model", "input_dim": "--input-dim", "num_classes": "--classes",
                 "hidden_dims": "--hidden", "weight_decay": "--weight-decay"}
        raise ConfigError(flags[exc.field], str(exc)) from exc
    rng = stream(args.seed, "testing")
    params = init_params(spec, stream(args.seed, "global-init"))
    x = rng.standard_normal((args.batch, spec.input_dim))
    y = (rng.random(args.batch) * spec.num_classes).astype(int)

    _, grad = loss_and_grad(spec, params, x, y)
    oracle = finite_diff_grad(
        lambda v: mean_loss(spec, v, x, y), params, 1e-5
    )
    model_err = max_relative_error(grad, oracle)

    cfg = AlgoConfig(
        "feddc", alpha=0.1, lr=0.1, local_epochs=1, batch_size=max(1, args.batch // 2)
    )
    dim = spec.param_count
    server = ServerState.fresh(params, n_clients=1, rng_seed=args.seed)
    clients = ClientStore([args.batch], dim, RULES["feddc"].fields)
    theta = params + 0.05 * rng.standard_normal(dim)
    clients.write([0], {"drift": 0.1 * rng.standard_normal((1, dim)),
                        "last_delta": 0.02 * rng.standard_normal((1, dim))})
    obj_grad = feddc_local_objective_grad(theta, clients, 0, server, cfg, x, y, spec)
    obj_oracle = finite_diff_grad(
        lambda v: feddc_local_objective(v, clients, 0, server, cfg, x, y, spec),
        theta,
        1e-6,
    )
    objective_err = max_relative_error(obj_grad, obj_oracle)

    ok = model_err < GRADCHECK_TOLERANCE and objective_err < GRADCHECK_TOLERANCE
    print(f"model loss gradient   max rel err: {model_err:.3e}")
    print(f"drift objective gradient max rel err: {objective_err:.3e}")
    print(f"gradcheck {'PASS' if ok else 'FAIL'} (tolerance {GRADCHECK_TOLERANCE:g})")
    return 0 if ok else 1


def cmd_fetch_mnist(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    from .data import load_mnist_idx

    for key, fname in _MNIST_FILES.items():
        dest = os.path.join(args.out, fname + ".gz")
        if os.path.exists(dest):
            print(f"{fname}.gz already present")
            continue
        # A transfer that fails partway leaves no <name>.gz behind for the
        # next run to take as present.
        tmp = dest + ".tmp"
        last = None
        for mirror in _MNIST_MIRRORS:
            url = mirror + fname + ".gz"
            try:
                print(f"fetching {url}")
                urllib.request.urlretrieve(url, tmp)
                os.replace(tmp, dest)
                last = None
                break
            except OSError as exc:
                last = exc
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
        if last is not None:
            print(f"error: could not fetch {fname}: {last}", file=sys.stderr)
            return 1
    # Every file is read in full, so a damaged one already present fails here.
    gz = {key: os.path.join(args.out, fname + ".gz") for key, fname in _MNIST_FILES.items()}
    x, _ = load_mnist_idx(gz["train_images"], gz["train_labels"])
    xt, _ = load_mnist_idx(gz["test_images"], gz["test_labels"])
    print(f"ok: {x.shape[0]} training and {xt.shape[0]} test samples of dim {x.shape[1]} "
          f"in {args.out}")
    print(f"export {DATA_DIR_ENV}={args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feddrift",
        description="Deterministic federated-learning simulator with drift correction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a JSON config")
    run.add_argument("config", nargs="?", help="path to the JSON config")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--rounds", type=int, default=None, help="override round count")
    run.add_argument(
        "--participation", type=float, default=None, help="override participation ratio"
    )
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument(
        "--list-presets", action="store_true", help="print built-in preset names"
    )
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run an algorithm x setting x seed grid")
    sweep.add_argument("manifest", help="path to the JSON manifest")
    sweep.add_argument(
        "--keep-going",
        action="store_true",
        help="continue past failing runs and report them at the end",
    )
    sweep.set_defaults(func=cmd_sweep)

    grad = sub.add_parser("gradcheck", help="compare analytic vs numeric gradients")
    grad.add_argument("--model", choices=("logistic", "mlp"), default="logistic")
    grad.add_argument("--input-dim", type=int, default=30)
    grad.add_argument("--classes", type=int, default=5)
    grad.add_argument("--hidden", default="", help="comma-separated hidden sizes (mlp)")
    grad.add_argument("--weight-decay", type=float, default=1e-3)
    grad.add_argument("--batch", type=int, default=4)
    grad.add_argument("--seed", type=int, default=0)
    grad.set_defaults(func=cmd_gradcheck)

    fetch = sub.add_parser("fetch-mnist", help="download the IDX files to a directory")
    fetch.add_argument("--out", required=True)
    fetch.set_defaults(func=cmd_fetch_mnist)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FedDriftError, OSError) as exc:  # RunError names the failing round
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
