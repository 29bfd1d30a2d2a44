import copy
import json

import pytest

from feddrift import cli
from feddrift.cli import build_experiment, main
from feddrift.engine import CSV_HEADER
from feddrift.errors import ConfigError
from feddrift.models import ModelSpec
from feddrift.presets import PRESETS, merge_under


def tiny_synth_config(out_dir, algorithm="fedavg", **extra):
    cfg = {
        "dataset": {"kind": "synthetic", "n_clients": 5, "samples_per_client_mean": 30},
        "algorithm": {"name": algorithm, "local_epochs": 1, "batch_size": 10},
        "rounds": 3,
        "out_dir": str(out_dir),
    }
    cfg.update(extra)
    return cfg


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestRun:
    def test_list_presets(self, capsys):
        assert main(["run", "--list-presets"]) == 0
        listed = capsys.readouterr().out.split()
        for name in (
            "synthetic-00",
            "synthetic-10",
            "synthetic-01",
            "mnist-iid",
            "mnist-d1",
            "mnist-d2",
            "unbalanced-0.3",
        ):
            assert name in listed

    def test_minimal_synthetic_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = write_json(tmp_path / "cfg.json", tiny_synth_config(out))
        assert main(["run", cfg_path]) == 0
        lines = (out / "records.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["best_accuracy"] <= 1.0
        assert "best accuracy" in capsys.readouterr().out

    def test_unknown_field_exits_2_naming_it(self, tmp_path, capsys):
        typo = tiny_synth_config(tmp_path / "out", algorithm="feddc")
        typo["algorithm"]["alpha_"] = 1.0
        removed = tiny_synth_config(tmp_path / "out", threads=2)
        for cfg, name in ((typo, "algorithm.alpha_"), (removed, "threads")):
            cfg_path = write_json(tmp_path / "cfg.json", cfg)
            assert main(["run", cfg_path]) == 2
            assert f"{name}: unknown field" in capsys.readouterr().err

    def test_unknown_top_level_field(self, tmp_path, capsys):
        cfg = tiny_synth_config(tmp_path / "out")
        cfg["round"] = 5
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        assert main(["run", cfg_path]) == 2
        assert "round" in capsys.readouterr().err

    def test_missing_config(self, capsys):
        assert main(["run", "/nonexistent/config.json"]) == 2
        assert main(["run"]) == 2

    def test_overrides(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_json(tmp_path / "cfg.json", tiny_synth_config(out))
        assert main(["run", cfg_path, "--rounds", "2", "--seed", "7"]) == 0
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["rounds"] == 2
        assert resolved["seed"] == 7
        assert resolved["dataset"] == {
            "kind": "synthetic",
            "gamma1": 0.0,
            "gamma2": 0.0,
            "n_clients": 5,
            "samples_per_client_mean": 30,
            "seed": 7,
        }
        lines = (out / "records.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 rounds
        assert lines[1].split(",")[3] == "7"

    def test_outputs_stable_across_reruns(self, tmp_path):
        cfg_a = write_json(
            tmp_path / "a.json", tiny_synth_config(tmp_path / "a", algorithm="feddc")
        )
        cfg_b = write_json(
            tmp_path / "b.json", tiny_synth_config(tmp_path / "b", algorithm="feddc")
        )
        assert main(["run", cfg_a]) == 0
        assert main(["run", cfg_b]) == 0

        def strip_wall(p):
            rows = [line.split(",") for line in p.read_text().splitlines()]
            return [",".join(r[:-1]) for r in rows]

        assert strip_wall(tmp_path / "a" / "records.csv") == strip_wall(
            tmp_path / "b" / "records.csv"
        )
        assert (tmp_path / "a" / "summary.json").read_bytes() == (
            tmp_path / "b" / "summary.json"
        ).read_bytes()

    def test_mnist_without_data_hints_at_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FEDDRIFT_DATA_DIR", raising=False)
        cfg_path = write_json(
            tmp_path / "cfg.json",
            {"preset": "mnist-iid", "algorithm": {"name": "fedavg"}},
        )
        assert main(["run", cfg_path]) == 2
        assert "FEDDRIFT_DATA_DIR" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model,field",
        [({"input_dim": 7}, "model.input_dim"), ({"num_classes": 3}, "model.num_classes")],
    )
    def test_model_that_misfits_the_synthetic_data_exits_2(self, tmp_path, capsys, model, field):
        out = tmp_path / "out"
        cfg_path = write_json(tmp_path / "cfg.json", tiny_synth_config(out, model=model))
        assert main(["run", cfg_path]) == 2
        assert f"error: {field}: expected" in capsys.readouterr().err
        assert not out.exists()

    def test_model_may_have_more_classes_than_the_data(self, tmp_path):
        exp, _ = build_experiment(tiny_synth_config(tmp_path, model={"num_classes": 7}))
        assert exp.model.num_classes == 7


# (command, change to a valid document, field the error names): each value
# has the wrong JSON type. The last two were once read as 2 and 1.
WRONG_TYPES = [
    ("run", {"algorithm": {"lr": "fast"}}, "algorithm.lr"),
    ("run", {"dataset": {"n_clients": None}}, "dataset.n_clients"),
    ("run", {"model": {"kind": "mlp", "hidden_dims": 5}}, "model.hidden_dims"),
    ("run", {"rounds": "ten"}, "rounds"),
    ("run", {"algorithm": ["fedavg"]}, "algorithm"),
    ("run", {"target_accuracies": "0.5"}, "target_accuracies"),
    ("run", {"algorithm": {"name": "feddc", "ablation": 5}}, "algorithm.ablation"),
    ("sweep", {"seeds": 0}, "seeds"),
    ("run", {"algorithm": {"local_epochs": 2.7}}, "algorithm.local_epochs"),
    ("run", {"algorithm": {"batch_size": True}}, "algorithm.batch_size"),
]


@pytest.mark.parametrize("command,change,field", WRONG_TYPES, ids=[f for _, _, f in WRONG_TYPES])
def test_wrongly_typed_value_exits_2_naming_its_field(tmp_path, capsys, command, change, field):
    out = tmp_path / "out"
    base = tiny_synth_config(out)
    if command == "sweep":
        base = {"out_dir": str(out), "settings": ["synthetic-00"], "algorithms": ["fedavg"]}
    path = write_json(tmp_path / "doc.json", merge_under(change, base))
    assert main([command, path]) == 2
    assert f"error: {field}: expected" in capsys.readouterr().err
    assert not out.exists()


# (change to a valid document, field the error names): each seed is an
# integer outside the [0, 2**64) range that streams are keyed by.
BAD_SEEDS = [
    ({"seed": -1}, "seed"),
    ({"seed": 2**64}, "seed"),
    ({"dataset": {"seed": -3}}, "dataset.seed"),
    ({"dataset": {"partition": {"seed": 2**64}}}, "dataset.partition.seed"),
]


@pytest.mark.parametrize("change,field", BAD_SEEDS, ids=["-1", "2**64", "dataset", "partition"])
def test_seed_out_of_range_exits_2_naming_its_field(tmp_path, capsys, change, field):
    out = tmp_path / "out"
    base = tiny_synth_config(out)
    if field == "dataset.partition.seed":
        base["dataset"] = {"kind": "mnist", "data_dir": "/nonexistent"}
    path = write_json(tmp_path / "doc.json", merge_under(change, base))
    assert main(["run", path]) == 2
    assert f"error: {field}: expected a seed in [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


# One value of every JSON kind, and some edge values of those kinds.
JSON_VALUES = [None, True, False, 0, 3, -1, 10**400, 0.5, float("nan"), "", "x",
               [], [1], ["x"], [None], {}, {"x": 1}]
SYNTH_DOC = {"dataset": {"kind": "synthetic"}, "algorithm": {"name": "feddc"}}
MNIST_DOC = {"dataset": {"kind": "mnist", "data_dir": "/nonexistent", "partition": {}},
             "algorithm": {"name": "feddyn"}, "model": {}}
MANIFEST_DOC = {"settings": [{"name": "s", "dataset": {"kind": "synthetic"}}],
                "algorithms": ["fedavg"]}
# (reader, valid document, path to a section, the section's schema)
SECTIONS = [
    (build_experiment, SYNTH_DOC, (), cli._TOP),
    (build_experiment, SYNTH_DOC, ("algorithm",), cli._ALGORITHM),
    (build_experiment, SYNTH_DOC, ("dataset",), cli._DATASET["synthetic"]),
    (build_experiment, MNIST_DOC, ("dataset",), cli._DATASET["mnist"]),
    (build_experiment, MNIST_DOC, ("dataset", "partition"), cli._PARTITION),
    (build_experiment, MNIST_DOC, ("model",), cli._MODEL),
    (cli._expand_manifest, MANIFEST_DOC, (), cli._MANIFEST),
    (cli._expand_manifest, MANIFEST_DOC, ("settings", 0), {"name": str}),
]


@pytest.mark.parametrize("read,doc,path,schema", SECTIONS, ids=[
    "top", "algorithm", "synthetic", "mnist", "partition", "model", "manifest", "setting",
])
def test_any_json_value_at_any_key_is_read_or_a_config_error(read, doc, path, schema):
    read(copy.deepcopy(doc))
    failures = []
    for key in schema:
        for value in JSON_VALUES:
            changed = copy.deepcopy(doc)
            section = changed
            for step in path:
                section = section[step]
            section[key] = value
            try:
                read(changed)
            except ConfigError:
                pass
            except Exception as exc:  # noqa: BLE001 - the failure under test
                failures.append(f"{key}={value!r}: {type(exc).__name__}: {exc}")
    assert not failures


class TestDefaults:
    def test_feddc_alpha_defaults_synthetic(self):
        exp, resolved = build_experiment(
            {"preset": "synthetic-00", "algorithm": {"name": "feddc"}}
        )
        assert resolved["algorithm"]["alpha"] == 0.005
        assert exp.algo.alpha == 0.005

    def test_feddc_alpha_defaults_mnist(self):
        exp, resolved = build_experiment(
            {
                "preset": "mnist-iid",
                "algorithm": {"name": "feddc"},
                "dataset": {"data_dir": "/nonexistent"},
            }
        )
        assert resolved["algorithm"]["alpha"] == 0.1

    def test_feddyn_alpha_default(self):
        exp, _ = build_experiment(
            {"preset": "synthetic-00", "algorithm": {"name": "feddyn"}}
        )
        assert exp.algo.alpha == 0.01

    def test_fedprox_mu_default(self):
        exp, _ = build_experiment(
            {"preset": "synthetic-00", "algorithm": {"name": "fedprox"}}
        )
        assert exp.algo.mu == 1e-4

    def test_mnist_presets_carry_benchmark_hyperparameters(self):
        for name in ("mnist-iid", "mnist-d1", "mnist-d2", "unbalanced-0.3"):
            exp, _ = build_experiment({
                "preset": name,
                "algorithm": {"name": "feddc"},
                "dataset": {"data_dir": "/nonexistent"},
            })
            algo = exp.algo
            assert (algo.lr, algo.lr_decay, algo.batch_size, algo.local_epochs) == (
                0.1, 0.998, 50, 5
            )
            assert algo.participation == 1.0
            assert exp.model == ModelSpec("mlp", 784, 10, (200, 200), weight_decay=0.001)
            assert (exp.rounds, exp.eval_every, exp.target_accuracies) == (200, 5, (0.98,))
            assert exp.dataset.n_clients == 100
        assert PRESETS["mnist-d1"]["dataset"]["partition"] == {"mode": "d1"}
        assert PRESETS["unbalanced-0.3"]["dataset"]["partition"]["balance"] == "lognormal"

    def test_synthetic_preset_hyperparameters(self):
        for name, gammas in (("synthetic-00", (0.0, 0.0)), ("synthetic-10", (1.0, 0.0)),
                             ("synthetic-01", (0.0, 1.0))):
            exp, _ = build_experiment({"preset": name, "algorithm": {"name": "fedavg"}})
            algo = exp.algo
            assert (algo.lr, algo.lr_decay, algo.batch_size, algo.local_epochs) == (
                0.1, 0.998, 10, 10
            )
            assert algo.participation == 1.0
            assert exp.model == ModelSpec("logistic", 30, 5)
            assert (exp.rounds, exp.eval_every, exp.target_accuracies) == (100, 1, ())
            assert (exp.dataset.gamma1, exp.dataset.gamma2) == gammas
            assert exp.dataset.n_clients == 20

    def test_named_dirichlet_partition_resolves(self):
        exp, resolved = build_experiment(
            {
                "preset": "mnist-d2",
                "algorithm": {"name": "fedavg"},
                "dataset": {"data_dir": "/nonexistent"},
            }
        )
        assert exp.dataset.plan.mode == "dirichlet"
        assert exp.dataset.plan.conc == 0.3
        ds = resolved["dataset"]
        assert ds["train_images"] == exp.dataset.train_images
        assert ds["test_labels"] == exp.dataset.test_labels
        assert ds["n_clients"] == 100 and ds["subsample"] is None
        assert ds["partition"] == {
            "mode": "dirichlet", "conc": 0.3, "balance": "equal",
            "lognormal_var": 0.3, "seed": 0,
        }

    def test_model_defaults_fill_a_partial_section(self):
        mnist = {"algorithm": {"name": "fedavg"},
                 "dataset": {"kind": "mnist", "data_dir": "/nonexistent"}}
        bare, _ = build_experiment(mnist)
        partial, _ = build_experiment({**mnist, "model": {"kind": "mlp"}})
        assert bare.model == partial.model
        assert partial.model.weight_decay == 1e-3
        assert partial.model.hidden_dims == (200, 200)
        synth, _ = build_experiment(
            {"algorithm": {"name": "fedavg"}, "dataset": {"kind": "synthetic"},
             "model": {"kind": "logistic"}}
        )
        assert synth.model.weight_decay == 0.0 and synth.model.input_dim == 30

    def test_ablation_codes_accepted(self):
        exp, _ = build_experiment(
            {
                "preset": "synthetic-00",
                "algorithm": {"name": "feddc", "ablation": "lelp"},
            }
        )
        assert exp.algo.ablation == frozenset({"empirical", "param_correction"})

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            build_experiment({"preset": "cifar", "algorithm": {"name": "fedavg"}})


class TestSweep:
    def manifest(self, tmp_path, **kw):
        payload = {
            "out_dir": str(tmp_path / "sweep"),
            "settings": [
                {
                    "name": "tiny",
                    "dataset": {
                        "kind": "synthetic",
                        "n_clients": 4,
                        "samples_per_client_mean": 30,
                    },
                    "target_accuracies": [0.5],
                }
            ],
            "algorithms": ["fedavg", "feddc"],
            "seeds": [0],
            "rounds": 3,
            "overrides": {"algorithm": {"local_epochs": 1, "batch_size": 10}},
        }
        payload.update(kw)
        return write_json(tmp_path / "manifest.json", payload)

    def test_small_sweep(self, tmp_path):
        path = self.manifest(tmp_path)
        assert main(["sweep", path]) == 0
        table = (tmp_path / "sweep" / "table.csv").read_text().splitlines()
        assert table[0].startswith("setting,algorithm,seed,best_accuracy")
        assert len(table) == 3
        assert (tmp_path / "sweep" / "table.md").exists()
        assert (tmp_path / "sweep" / "tiny" / "fedavg-s0" / "records.csv").exists()
        fedavg_row = next(r for r in table[1:] if r.split(",")[1] == "fedavg")
        if fedavg_row.split(",")[5]:  # reached its target
            assert fedavg_row.split(",")[6] == "1.00"  # self-speedup is exactly 1

    def test_five_algorithm_sweep_rows(self, tmp_path):
        path = self.manifest(
            tmp_path, algorithms=["fedavg", "fedprox", "scaffold", "feddyn", "feddc"]
        )
        assert main(["sweep", path]) == 0
        table = (tmp_path / "sweep" / "table.csv").read_text().splitlines()
        assert len(table) == 6  # header + one row per algorithm
        algos = sorted(line.split(",")[1] for line in table[1:])
        assert algos == ["fedavg", "feddc", "feddyn", "fedprox", "scaffold"]

    def test_empty_manifest(self, tmp_path, capsys):
        path = self.manifest(tmp_path, algorithms=[])
        assert main(["sweep", path]) == 2

    def test_every_combination_is_checked_before_any_runs(self, tmp_path, capsys):
        self.manifest(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["settings"].append({"name": "bad", "dataset": {"kind": "synthetic", "gamma1": -1}})
        path = write_json(tmp_path / "manifest.json", manifest)
        assert main(["sweep", path]) == 2
        assert "dataset: gamma1 must be a nonnegative real" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_bad_seed_is_checked_before_any_runs(self, tmp_path, capsys):
        path = self.manifest(tmp_path, seeds=[0, -1])
        assert main(["sweep", path]) == 2
        assert "error: seeds[1]: expected a seed in [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_duplicate_combination(self, tmp_path, capsys):
        path = self.manifest(tmp_path, algorithms=["fedavg", "fedavg"])
        assert main(["sweep", path]) == 2
        assert "duplicate" in capsys.readouterr().err

    def with_setting(self, tmp_path, setting, first=False, **kw):
        """The tiny manifest plus one more inline setting, first or second."""
        self.manifest(tmp_path, **kw)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        tiny = manifest["settings"][0]
        manifest["settings"] = [setting, tiny] if first else [tiny, setting]
        return write_json(tmp_path / "manifest.json", manifest)

    @pytest.mark.parametrize("name", ["", ".", "..", "a,b", "a|b", "a/b", "../up", "a\\b", "a\nb"])
    def test_setting_name_is_checked_before_any_runs(self, tmp_path, capsys, name):
        setting = {"name": name, "dataset": {"kind": "synthetic", "n_clients": 4}}
        assert main(["sweep", self.with_setting(tmp_path, setting)]) == 2
        assert "error: settings[1].name: " in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    def test_model_shape_is_checked_before_any_runs(self, tmp_path, capsys):
        setting = {"name": "wide", "dataset": {"kind": "synthetic"}, "model": {"input_dim": 7}}
        assert main(["sweep", self.with_setting(tmp_path, setting)]) == 2
        assert "error: model.input_dim: " in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def diverging(self, tmp_path):
        setting = {
            "name": "boom",
            "dataset": {"kind": "synthetic", "n_clients": 3, "samples_per_client_mean": 20},
            "algorithm": {"lr": 1e308},
        }
        return self.with_setting(tmp_path, setting, first=True, algorithms=["fedavg"], rounds=2)

    def test_keep_going_finishes_the_other_runs(self, tmp_path, capsys):
        assert main(["sweep", self.diverging(tmp_path), "--keep-going"]) == 1
        err = capsys.readouterr().err
        assert "FAILED boom/fedavg/seed=0: round 1: " in err
        sweep = tmp_path / "sweep"
        assert not (sweep / "boom").exists()  # a failed run leaves no directory
        assert (sweep / "tiny" / "fedavg-s0" / "records.csv").exists()
        table = (sweep / "table.csv").read_text().splitlines()
        assert [line.split(",")[:3] for line in table[1:]] == [["tiny", "fedavg", "0"]]
        assert "## tiny" in (sweep / "table.md").read_text()

    def test_failing_run_stops_the_sweep(self, tmp_path, capsys):
        assert main(["sweep", self.diverging(tmp_path)]) == 1
        assert "error: boom/fedavg/seed=0: round 1: " in capsys.readouterr().err
        sweep = tmp_path / "sweep"
        assert not (sweep / "tiny").exists()
        assert not (sweep / "table.csv").exists() and not (sweep / "table.md").exists()

    def test_rounds_median_counts_a_miss(self, tmp_path):
        # fedavg reaches the target on all three seeds, feddc on one and
        # scaffold on two: feddc's median is a miss, scaffold's is not.
        rounds = {"fedavg": (4, 4, 4), "feddc": (2, None, None), "scaffold": (3, None, 3)}
        rows = [("s", algo, seed, 0.5, 0.9, r)
                for algo, rs in rounds.items() for seed, r in enumerate(rs)]
        cli._write_sweep_tables(str(tmp_path), rows)
        md = (tmp_path / "table.md").read_text().splitlines()
        assert "| fedavg | 0.5000 | 4 | 1.00x |" in md
        assert "| feddc | 0.5000 | >budget | - |" in md
        assert "| scaffold | 0.5000 | 3 | 1.33x |" in md
        csv = (tmp_path / "table.csv").read_text().splitlines()
        assert "s,feddc,0,0.5,0.9,2,2.00" in csv  # per seed, a reached run keeps its speedup
        assert "s,feddc,1,0.5,0.9,," in csv


class TestGradCheck:
    def test_logistic_passes(self, capsys):
        assert main(["gradcheck", "--model", "logistic", "--batch", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_mlp_passes(self, capsys):
        code = main(
            [
                "gradcheck",
                "--model",
                "mlp",
                "--input-dim",
                "12",
                "--classes",
                "3",
                "--hidden",
                "8",
                "--batch",
                "3",
            ]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--model", "mlp", "--hidden", "5,x"], "error: --hidden: expected comma-separated"),
            (["--batch", "-1"], "error: --batch: expected a positive integer, got -1"),
            (["--batch", "0"], "error: --batch: expected a positive integer, got 0"),
            (["--seed", "-1"], "error: --seed: expected a seed in [0, 2**64), got -1"),
        ],
        ids=["hidden-not-an-int", "batch-negative", "batch-zero", "seed-negative"],
    )
    def test_bad_flag_exits_2_naming_it(self, flags, message, capsys):
        assert main(["gradcheck", *flags]) == 2
        assert message in capsys.readouterr().err

    def test_corrupted_gradient_fails(self, capsys):
        code = main(
            ["gradcheck", "--model", "logistic", "--batch", "3", "--corrupt-gradient"]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
