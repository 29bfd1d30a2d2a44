"""Command-line entry point: run experiments, sweeps, and gradient checks.

Configs are strict JSON: any field outside the documented schema aborts
with exit code 2 and the dotted path of the offender. Exit codes: 0
success, 1 runtime failure (message carries the failing round), 2
config/schema problem.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import urllib.request

from . import presets
from .data import DIRICHLET_NAMED, PartitionPlan, SyntheticConfig
from .engine import (
    ExperimentConfig,
    MnistConfig,
    build_dataset,
    dataset_label,
    rounds_to_target,
    run_experiment,
    write_records_csv,
    write_summary_json,
)
from .errors import ConfigError, FedDriftError, ParameterError, RunError
from .federation import (
    ALGORITHMS,
    AlgoConfig,
    ablation_from_code,
    FULL_ABLATION,
    CLIENT_FIELDS,
    feddc_local_objective,
    feddc_local_objective_grad,
    ClientStore,
    ServerState,
)
from .models import Batch, ModelSpec, init_params, loss_and_grad, mean_loss
from .rng import stream
from .vectors import ParamVector, finite_diff_grad, max_relative_error

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

_TOP_KEYS = frozenset(
    {
        "preset",
        "algorithm",
        "dataset",
        "model",
        "rounds",
        "eval_every",
        "seed",
        "target_accuracies",
        "stop_at_target",
        "out_dir",
    }
)
_ALGO_KEYS = frozenset(
    {
        "name",
        "lr",
        "lr_decay",
        "local_epochs",
        "batch_size",
        "participation",
        "aggregation_weighting",
        "mu",
        "alpha",
        "ablation",
    }
)
_SYNTH_KEYS = frozenset(
    {"kind", "gamma1", "gamma2", "n_clients", "samples_per_client_mean", "seed"}
)
_MNIST_KEYS = frozenset(
    {
        "kind",
        "data_dir",
        "train_images",
        "train_labels",
        "test_images",
        "test_labels",
        "n_clients",
        "partition",
        "subsample",
    }
)
_PARTITION_KEYS = frozenset({"mode", "conc", "balance", "lognormal_var", "seed"})
_MODEL_KEYS = frozenset(
    {"kind", "input_dim", "num_classes", "hidden_dims", "weight_decay"}
)
# Per dataset kind, the model a config gets for every field its model
# section leaves out (hidden_dims defaults by model kind instead).
_MODEL_DEFAULTS = {
    "synthetic": {"kind": "logistic", "input_dim": 30, "num_classes": 5, "weight_decay": 0.0},
    "mnist": {"kind": "mlp", "input_dim": 784, "num_classes": 10, "weight_decay": 0.001},
}


def _reject_unknown(section: dict, allowed, path: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(path or "<root>", "expected a JSON object")
    for key in section:
        if key not in allowed:
            dotted = f"{path}.{key}" if path else key
            raise ConfigError(dotted, "unknown field")


def _build_model(section: dict, dataset_kind: str) -> ModelSpec:
    section = {} if section is None else section
    _reject_unknown(section, _MODEL_KEYS, "model")
    m = {**_MODEL_DEFAULTS[dataset_kind], **section}
    hidden = m.get("hidden_dims", [] if m["kind"] == "logistic" else [200, 200])
    try:
        return ModelSpec(
            kind=m["kind"],
            input_dim=int(m["input_dim"]),
            num_classes=int(m["num_classes"]),
            hidden_dims=tuple(int(h) for h in hidden),
            weight_decay=float(m["weight_decay"]),
        )
    except ParameterError as exc:
        raise ConfigError("model", str(exc)) from exc


def _build_partition_plan(section: dict, seed: int) -> PartitionPlan:
    section = dict(section or {"mode": "iid"})
    _reject_unknown(section, _PARTITION_KEYS, "dataset.partition")
    mode = section.get("mode", "iid")
    conc = section.get("conc")
    if mode in DIRICHLET_NAMED:
        conc = DIRICHLET_NAMED[mode] if conc is None else conc
        mode = "dirichlet"
    try:
        return PartitionPlan(
            mode=mode,
            conc=None if conc is None else float(conc),
            balance=section.get("balance", "equal"),
            lognormal_var=float(section.get("lognormal_var", 0.3)),
            seed=int(section.get("seed", seed)),
        )
    except ParameterError as exc:
        raise ConfigError("dataset.partition", str(exc)) from exc


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


def _build_dataset_cfg(section: dict, seed: int):
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError("dataset.kind", "missing required field")
    kind = section["kind"]
    if kind == "synthetic":
        _reject_unknown(section, _SYNTH_KEYS, "dataset")
        try:
            return SyntheticConfig(
                gamma1=float(section.get("gamma1", 0.0)),
                gamma2=float(section.get("gamma2", 0.0)),
                n_clients=int(section.get("n_clients", 20)),
                samples_per_client_mean=int(section.get("samples_per_client_mean", 200)),
                seed=int(section.get("seed", seed)),
            )
        except ParameterError as exc:
            raise ConfigError("dataset", str(exc)) from exc
    if kind == "mnist":
        _reject_unknown(section, _MNIST_KEYS, "dataset")
        paths = resolve_mnist_paths(section)
        try:
            return MnistConfig(
                train_images=paths["train_images"],
                train_labels=paths["train_labels"],
                test_images=paths["test_images"],
                test_labels=paths["test_labels"],
                n_clients=int(section.get("n_clients", 100)),
                plan=_build_partition_plan(section.get("partition"), seed),
                subsample=(
                    None
                    if section.get("subsample") is None
                    else int(section["subsample"])
                ),
            )
        except ParameterError as exc:
            raise ConfigError("dataset", str(exc)) from exc
    raise ConfigError("dataset.kind", f"unknown dataset kind {kind!r}")


def _resolved_dataset(ds) -> dict:
    """The dataset section with every default filled in, in config keys."""
    if isinstance(ds, SyntheticConfig):
        keys = ("gamma1", "gamma2", "n_clients", "samples_per_client_mean", "seed")
        return {"kind": "synthetic", **{k: getattr(ds, k) for k in keys}}
    return {
        "kind": "mnist",
        **{k: getattr(ds, k) for k in _MNIST_FILES},
        "n_clients": ds.n_clients,
        "partition": dataclasses.asdict(ds.plan),
        "subsample": ds.subsample,
    }


def _parse_ablation(value):
    if value is None:
        return FULL_ABLATION
    try:
        if isinstance(value, str):
            return ablation_from_code(value)
        return frozenset(str(v) for v in value)
    except ParameterError as exc:
        raise ConfigError("algorithm.ablation", str(exc)) from exc


def _build_algo(section: dict, dataset_kind: str) -> AlgoConfig:
    _reject_unknown(section, _ALGO_KEYS, "algorithm")
    if "name" not in section:
        raise ConfigError("algorithm.name", "missing required field")
    name = section["name"]
    if name not in ALGORITHMS:
        raise ConfigError(
            "algorithm.name", f"unknown algorithm {name!r}; expected one of {ALGORITHMS}"
        )
    alpha = section.get("alpha", presets.default_alpha(name, dataset_kind))
    try:
        return AlgoConfig(
            algorithm=name,
            lr=float(section.get("lr", 0.1)),
            lr_decay=float(section.get("lr_decay", 0.998)),
            local_epochs=int(section.get("local_epochs", 5)),
            batch_size=int(section.get("batch_size", 50)),
            participation=float(section.get("participation", 1.0)),
            aggregation_weighting=section.get("aggregation_weighting", "uniform"),
            mu=float(section.get("mu", presets.DEFAULT_MU)),
            alpha=None if alpha is None else float(alpha),
            ablation=_parse_ablation(section.get("ablation")),
        )
    except ParameterError as exc:
        raise ConfigError("algorithm", str(exc)) from exc


def build_experiment(raw: dict):
    """Validate a config document and return (ExperimentConfig, resolved dict)."""
    _reject_unknown(raw, _TOP_KEYS, "")
    cfg = raw
    if "preset" in raw:
        base = presets.get_preset(raw["preset"])
        cfg = presets.merge_under({k: v for k, v in raw.items() if k != "preset"}, base)
    if "algorithm" not in cfg:
        raise ConfigError("algorithm", "missing required section")
    if "dataset" not in cfg:
        raise ConfigError("dataset", "missing required section")

    seed = int(cfg.get("seed", 0))
    dataset_kind = cfg["dataset"].get("kind") if isinstance(cfg["dataset"], dict) else None
    dataset_cfg = _build_dataset_cfg(cfg["dataset"], seed)
    model = _build_model(cfg.get("model"), dataset_kind)
    algo = _build_algo(dict(cfg["algorithm"]), dataset_kind)
    try:
        exp = ExperimentConfig(
            dataset=dataset_cfg,
            model=model,
            algo=algo,
            rounds=int(cfg.get("rounds", 100)),
            eval_every=int(cfg.get("eval_every", 1)),
            target_accuracies=tuple(cfg.get("target_accuracies", ())),
            seed=seed,
            stop_at_target=(
                None if cfg.get("stop_at_target") is None else float(cfg["stop_at_target"])
            ),
        )
    except ParameterError as exc:
        raise ConfigError("<run>", str(exc)) from exc

    resolved = {
        "algorithm": {
            "name": algo.algorithm,
            "lr": algo.lr,
            "lr_decay": algo.lr_decay,
            "local_epochs": algo.local_epochs,
            "batch_size": algo.batch_size,
            "participation": algo.participation,
            "aggregation_weighting": algo.aggregation_weighting,
            "mu": algo.mu,
            "alpha": algo.alpha,
            "ablation": sorted(algo.ablation),
        },
        "model": {
            "kind": model.kind,
            "input_dim": model.input_dim,
            "num_classes": model.num_classes,
            "hidden_dims": list(model.hidden_dims),
            "weight_decay": model.weight_decay,
        },
        "dataset": _resolved_dataset(dataset_cfg),
        "rounds": exp.rounds,
        "eval_every": exp.eval_every,
        "seed": exp.seed,
        "target_accuracies": list(exp.target_accuracies),
        "stop_at_target": exp.stop_at_target,
    }
    return exp, resolved


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError("<file>", f"{path} is not valid JSON: {exc}") from exc


def _apply_overrides(raw: dict, args) -> dict:
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.rounds is not None:
        raw["rounds"] = args.rounds
    if args.participation is not None:
        raw.setdefault("algorithm", {})["participation"] = args.participation
    if args.out is not None:
        raw["out_dir"] = args.out
    return raw


def _run_one(exp: ExperimentConfig, out_dir: str, resolved: dict):
    os.makedirs(out_dir, exist_ok=True)
    dataset = build_dataset(exp.dataset)
    records, summary = run_experiment(exp, dataset=dataset)
    label = dataset_label(dataset)
    write_records_csv(
        os.path.join(out_dir, "records.csv"),
        records,
        exp.algo.algorithm,
        label,
        exp.seed,
    )
    write_summary_json(os.path.join(out_dir, "summary.json"), summary)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return records, summary, label


def cmd_run(args) -> int:
    if args.list_presets:
        for name in presets.PRESETS:
            print(name)
        return 0
    if not args.config:
        print("error: a config file is required (or --list-presets)", file=sys.stderr)
        return 2
    raw = _apply_overrides(_load_json(args.config), args)
    out_dir = raw.pop("out_dir", None)
    exp, resolved = build_experiment(raw)
    if out_dir is None:
        out_dir = os.path.join("runs", f"{exp.algo.algorithm}-s{exp.seed}")
    records, summary, label = _run_one(exp, out_dir, resolved)
    print(
        f"{exp.algo.algorithm} on {label} seed {exp.seed}: "
        f"best accuracy {summary.best_accuracy:.4f} "
        f"({len(records)} rounds) -> {out_dir}/records.csv"
    )
    return 0


_MANIFEST_KEYS = frozenset(
    {
        "out_dir",
        "settings",
        "algorithms",
        "seeds",
        "rounds",
        "eval_every",
        "overrides",
    }
)


def _expand_manifest(manifest: dict):
    _reject_unknown(manifest, _MANIFEST_KEYS, "")
    settings = manifest.get("settings", [])
    algorithms = manifest.get("algorithms", [])
    seeds = manifest.get("seeds", [0])
    if not settings or not algorithms or not seeds:
        raise ConfigError(
            "settings", "manifest needs nonempty settings, algorithms, and seeds"
        )
    combos = []
    seen = set()
    for setting in settings:
        if isinstance(setting, str):
            name, base = setting, presets.get_preset(setting)
        else:
            if "name" not in setting:
                raise ConfigError("settings", "inline settings need a name")
            setting = dict(setting)
            name, base = setting.pop("name"), setting
        for algo in algorithms:
            for seed in seeds:
                key = (name, algo, seed)
                if key in seen:
                    raise ConfigError(
                        "settings", f"duplicate combination {name}/{algo}/seed={seed}"
                    )
                seen.add(key)
                raw = presets.merge_under(manifest.get("overrides", {}), base)
                raw = presets.merge_under(
                    {"algorithm": {"name": algo}, "seed": seed}, raw
                )
                for field in ("rounds", "eval_every"):
                    if field in manifest:
                        raw[field] = manifest[field]
                raw.pop("out_dir", None)
                combos.append((name, algo, seed, raw))
    return combos


def _first_target(exp: ExperimentConfig):
    return exp.target_accuracies[0] if exp.target_accuracies else None


def cmd_sweep(args) -> int:
    manifest = _load_json(args.manifest)
    out_root = manifest.get("out_dir", "sweep")
    combos = _expand_manifest(manifest)
    rows = []
    failures = []
    for name, algo, seed, raw in combos:
        exp, resolved = build_experiment(raw)
        run_dir = os.path.join(out_root, name, f"{algo}-s{seed}")
        try:
            records, summary, _ = _run_one(exp, run_dir, resolved)
        except FedDriftError as exc:
            if not args.keep_going:
                print(f"error: {name}/{algo}/seed={seed}: {exc}", file=sys.stderr)
                return 1
            failures.append((name, algo, seed, str(exc)))
            continue
        target = _first_target(exp)
        reached = rounds_to_target(records, target) if target is not None else None
        rows.append(
            {
                "setting": name,
                "algorithm": algo,
                "seed": seed,
                "best_accuracy": summary.best_accuracy,
                "target": target,
                "rounds_to_target": reached,
            }
        )
        print(
            f"{name} {algo} seed={seed}: best={summary.best_accuracy:.4f}"
            + (f" target@{target:g}: {reached if reached is not None else '>budget'}"
               if target is not None else "")
        )
    _write_sweep_tables(out_root, rows)
    for name, algo, seed, msg in failures:
        print(f"FAILED {name}/{algo}/seed={seed}: {msg}", file=sys.stderr)
    return 1 if failures else 0


def _median(values):
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return None
    mid = n // 2
    return vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def _write_sweep_tables(out_root: str, rows) -> None:
    os.makedirs(out_root, exist_ok=True)
    header = "setting,algorithm,seed,best_accuracy,target,rounds_to_target,speedup_vs_fedavg"
    baseline = {
        (r["setting"], r["seed"]): r["rounds_to_target"]
        for r in rows
        if r["algorithm"] == "fedavg"
    }

    def speedup(row):
        base = baseline.get((row["setting"], row["seed"]))
        mine = row["rounds_to_target"]
        if base is None or mine is None:
            return None
        return base / mine

    lines = [header]
    for r in rows:
        s = speedup(r)
        lines.append(
            ",".join(
                [
                    r["setting"],
                    r["algorithm"],
                    str(r["seed"]),
                    repr(r["best_accuracy"]),
                    "" if r["target"] is None else repr(r["target"]),
                    "" if r["rounds_to_target"] is None else str(r["rounds_to_target"]),
                    "" if s is None else f"{s:.2f}",
                ]
            )
        )
    with open(os.path.join(out_root, "table.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    md = []
    settings = sorted({r["setting"] for r in rows})
    for setting in settings:
        md.append(f"## {setting}\n")
        md.append("| Algorithm | Best Acc (median) | R# (median) | Speedup vs fedavg |")
        md.append("|---|---|---|---|")
        algos = sorted({r["algorithm"] for r in rows if r["setting"] == setting})
        base_rounds = _median(
            [
                r["rounds_to_target"]
                for r in rows
                if r["setting"] == setting
                and r["algorithm"] == "fedavg"
                and r["rounds_to_target"] is not None
            ]
        )
        for algo in algos:
            mine = [r for r in rows if r["setting"] == setting and r["algorithm"] == algo]
            acc = _median([r["best_accuracy"] for r in mine])
            rounds = _median(
                [r["rounds_to_target"] for r in mine if r["rounds_to_target"] is not None]
            )
            if rounds is None:
                r_txt, s_txt = ">budget", "-"
            else:
                r_txt = f"{rounds:g}"
                s_txt = f"{base_rounds / rounds:.2f}x" if base_rounds else "-"
            md.append(f"| {algo} | {acc:.4f} | {r_txt} | {s_txt} |")
        md.append("")
    with open(os.path.join(out_root, "table.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(md) + "\n")


def cmd_gradcheck(args) -> int:
    hidden = tuple(int(h) for h in args.hidden.split(",") if h) if args.hidden else ()
    try:
        spec = ModelSpec(
            kind=args.model,
            input_dim=args.input_dim,
            num_classes=args.classes,
            hidden_dims=hidden,
            weight_decay=args.weight_decay,
        )
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = stream(args.seed, "testing")
    params = init_params(spec, stream(args.seed, "global-init"))
    x = rng.gaussian((args.batch, spec.input_dim))
    y = (rng.uniform01(args.batch) * spec.num_classes).astype(int)
    batch = Batch(x, y)

    _, grad = loss_and_grad(spec, params, batch)
    if args.corrupt_gradient:
        grad = ParamVector(grad.values + 1e-3)
    oracle = finite_diff_grad(
        lambda v: mean_loss(spec, v, batch.inputs, batch.labels), params, 1e-5
    )
    model_err = max_relative_error(grad, oracle)

    cfg = AlgoConfig(
        "feddc", alpha=0.1, lr=0.1, local_epochs=1, batch_size=max(1, args.batch // 2)
    )
    dim = spec.param_count
    server = ServerState.fresh(params, n_clients=1, rng_seed=args.seed)
    clients = ClientStore([args.batch], dim, CLIENT_FIELDS["feddc"])
    theta = ParamVector(params.values + 0.05 * rng.gaussian(dim))
    clients.drift[0] = 0.1 * rng.gaussian(dim)
    clients.last_delta[0] = 0.02 * rng.gaussian(dim)
    obj_grad = feddc_local_objective_grad(theta, clients, 0, server, cfg, batch, spec)
    if args.corrupt_gradient:
        obj_grad = ParamVector(obj_grad.values + 1e-3)
    obj_oracle = finite_diff_grad(
        lambda v: feddc_local_objective(v, clients, 0, server, cfg, batch, spec),
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
        last = None
        for mirror in _MNIST_MIRRORS:
            url = mirror + fname + ".gz"
            try:
                print(f"fetching {url}")
                urllib.request.urlretrieve(url, dest)
                last = None
                break
            except OSError as exc:
                last = exc
        if last is not None:
            print(f"error: could not fetch {fname}: {last}", file=sys.stderr)
            return 1
    x, y = load_mnist_idx(
        os.path.join(args.out, _MNIST_FILES["train_images"] + ".gz"),
        os.path.join(args.out, _MNIST_FILES["train_labels"] + ".gz"),
    )
    print(f"ok: {x.shape[0]} training samples of dim {x.shape[1]} in {args.out}")
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
    grad.add_argument("--corrupt-gradient", action="store_true", help=argparse.SUPPRESS)
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
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FedDriftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
