import copy
import gzip
import json
import shutil
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import damage_gzip
from feddrift import cli
from feddrift.cli import build_experiment, main
from feddrift.engine import CSV_HEADER
from feddrift.errors import ConfigError
from feddrift.federation import ALGORITHMS
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

    @pytest.mark.parametrize("damage", ["cut-halfway", "flipped-block-header", "flipped-data"])
    @pytest.mark.parametrize("name", ["train-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz"])
    def test_damaged_gzip_exits_1_naming_the_file(self, tmp_path, capsys, mnist_gz_dir, name, damage):
        bad = mnist_gz_dir / name
        bad.write_bytes(damage_gzip(gzip.decompress(bad.read_bytes()), damage))
        doc = {"dataset": {"kind": "mnist", "data_dir": str(mnist_gz_dir), "n_clients": 2},
               "model": {"kind": "logistic"}, "algorithm": {"name": "fedavg"}, "rounds": 1,
               "out_dir": str(tmp_path / "out")}
        assert main(["run", write_json(tmp_path / "cfg.json", doc)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: unreadable gzip file: ")


class TestFetchMnist:
    NAMES = sorted(f + ".gz" for f in cli._MNIST_FILES.values())

    def test_a_failed_transfer_leaves_nothing_and_the_rerun_fetches_again(
        self, tmp_path, capsys, monkeypatch, mnist_gz_dir
    ):
        def cut_off(url, dest):
            with open(dest, "wb") as fh:
                fh.write(b"\x1f\x8b partial")
            raise OSError("connection reset")

        out = tmp_path / "fetched"
        monkeypatch.setattr(urllib.request, "urlretrieve", cut_off)
        assert main(["fetch-mnist", "--out", str(out)]) == 1
        assert "could not fetch train-images-idx3-ubyte: connection reset" in capsys.readouterr().err
        assert list(out.iterdir()) == []

        def first_mirror_cut_off(url, dest):
            if url.startswith(cli._MNIST_MIRRORS[0]):
                cut_off(url, dest)
            shutil.copyfile(mnist_gz_dir / url.rsplit("/", 1)[1], dest)

        monkeypatch.setattr(urllib.request, "urlretrieve", first_mirror_cut_off)
        assert main(["fetch-mnist", "--out", str(out)]) == 0
        assert "already present" not in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == self.NAMES
        for name in self.NAMES:
            assert (out / name).read_bytes() == (mnist_gz_dir / name).read_bytes()

        monkeypatch.setattr(urllib.request, "urlretrieve", None)  # a third run fetches nothing
        assert main(["fetch-mnist", "--out", str(out)]) == 0
        assert capsys.readouterr().out.count("already present") == 4

    @pytest.mark.parametrize("name", NAMES)
    def test_a_damaged_file_already_present_exits_1_naming_it(
        self, capsys, monkeypatch, mnist_gz_dir, name
    ):
        bad = mnist_gz_dir / name
        bad.write_bytes(damage_gzip(gzip.decompress(bad.read_bytes()), "cut-halfway"))

        def no_transfer(url, dest):
            raise AssertionError(f"fetched {url} although every file is present")

        monkeypatch.setattr(urllib.request, "urlretrieve", no_transfer)
        assert main(["fetch-mnist", "--out", str(mnist_gz_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("already present") == 4 and "ok:" not in captured.out
        assert captured.err.startswith(f"error: {bad}: ")


# (command, change to a valid document, field the error names): each value
# but the last has the wrong JSON type, and the two before the last were
# once read as 2 and 1. The last is a partial ablation of an algorithm
# without correction terms to ablate, which was once ignored. OUT_OF_RANGE
# values have the right type, and the dataclass that rejects them names
# its field, which the CLI prefixes with the section; each key is a test
# id whose part before the first "-" is that dotted path.
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
    ("run", {"algorithm": {"name": "fedprox", "ablation": "le"}}, "algorithm.ablation"),
]
WRONG_TYPE_IDS = [f for _, _, f in WRONG_TYPES[:-1]] + ["algorithm.ablation-fedprox"]
OUT_OF_RANGE = {
    "algorithm.lr-negative": {"algorithm": {"lr": -1}},
    "algorithm.lr_decay-zero": {"algorithm": {"lr_decay": 0}},
    "algorithm.local_epochs-zero": {"algorithm": {"local_epochs": 0}},
    "algorithm.batch_size-zero": {"algorithm": {"batch_size": 0}},
    "algorithm.participation-above-1": {"algorithm": {"participation": 1.5}},
    "algorithm.aggregation_weighting-unknown": {"algorithm": {"aggregation_weighting": "max"}},
    "algorithm.mu-negative": {"algorithm": {"mu": -0.5}},
    "algorithm.alpha-feddyn-zero": {"algorithm": {"name": "feddyn", "alpha": 0}},
    "algorithm.alpha-feddc-negative": {"algorithm": {"name": "feddc", "alpha": -1}},
    "model.kind-unknown": {"model": {"kind": "cnn"}},
    "model.num_classes-zero": {"model": {"num_classes": 0}},
    "model.hidden_dims-zero": {"model": {"kind": "mlp", "hidden_dims": [4, 0]}},
    "model.weight_decay-negative": {"model": {"weight_decay": -1}},
    "rounds-zero": {"rounds": 0},
    "eval_every-zero": {"eval_every": 0},
    "target_accuracies-above-1": {"target_accuracies": [0.5, 1.5]},
    "stop_at_target-zero": {"stop_at_target": 0},
    "dataset.n_clients-zero": {"dataset": {"n_clients": 0}},
    "dataset.samples_per_client_mean-zero": {"dataset": {"samples_per_client_mean": 0}},
    "dataset.gamma1-negative": {"dataset": {"gamma1": -1}},
    "dataset.gamma2-negative": {"dataset": {"gamma2": -0.5}},
    # One past the stream key's range, refused before any data is generated.
    "dataset.n_clients-above-2**24": {"dataset": {"n_clients": 2**24 + 1}},
    "rounds-above-2**24": {"rounds": 2**24 + 1},
}


@pytest.mark.parametrize(
    "command,change,field",
    WRONG_TYPES + [("run", change, i.split("-")[0]) for i, change in OUT_OF_RANGE.items()],
    ids=WRONG_TYPE_IDS + list(OUT_OF_RANGE),
)
def test_wrongly_typed_value_exits_2_naming_its_field(tmp_path, capsys, command, change, field):
    out = tmp_path / "out"
    base = tiny_synth_config(out)
    if command == "sweep":
        base = {"out_dir": str(out), "settings": ["synthetic-00"], "algorithms": ["fedavg"]}
    path = write_json(tmp_path / "doc.json", merge_under(change, base))
    assert main([command, path]) == 2
    assert f"error: {field}: expected" in capsys.readouterr().err
    assert not out.exists()


# The MNIST section's range errors, each raised before any file is read.
MNIST_OUT_OF_RANGE = {
    "dataset.partition.conc-dirichlet-without-conc": {"partition": {"mode": "dirichlet"}},
    "dataset.partition.conc-negative": {"partition": {"mode": "dirichlet", "conc": -1}},
    "dataset.partition.mode-unknown": {"partition": {"mode": "shards"}},
    "dataset.partition.mode-named-unknown": {"partition": {"mode": "d3"}},
    "dataset.partition.balance-unknown": {"partition": {"balance": "zipf"}},
    "dataset.partition.lognormal_var-negative": {"partition": {"lognormal_var": -0.1}},
    "dataset.n_clients-zero": {"n_clients": 0},
    "dataset.subsample-zero": {"subsample": 0},
    "dataset.n_clients-above-2**24": {"n_clients": 2**24 + 1},
}


@pytest.mark.parametrize(
    "change,field",
    [(change, i.split("-")[0]) for i, change in MNIST_OUT_OF_RANGE.items()],
    ids=list(MNIST_OUT_OF_RANGE),
)
def test_mnist_value_out_of_range_exits_2_naming_its_field(tmp_path, capsys, change, field):
    out = tmp_path / "out"
    doc = {"dataset": {"kind": "mnist", "data_dir": str(tmp_path), **change},
           "algorithm": {"name": "fedavg"}, "out_dir": str(out)}
    assert main(["run", write_json(tmp_path / "doc.json", doc)]) == 2
    assert f"error: {field}: expected" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_partition_mode_lists_every_mode(tmp_path, capsys):
    doc = {"dataset": {"kind": "mnist", "data_dir": str(tmp_path), "partition": {"mode": "d3"}},
           "algorithm": {"name": "fedavg"}}
    assert main(["run", write_json(tmp_path / "doc.json", doc)]) == 2
    assert capsys.readouterr().err == (
        "error: dataset.partition.mode: expected one of "
        "('iid', 'dirichlet', 'd1', 'd2'), got 'd3'\n"
    )


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


# Any JSON value: null, booleans, integers of any size, finite numbers,
# strings, and arrays and objects of these.
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)
# Values a key's schema accepts, so that many documents resolve.
NAMED = {
    "preset": sorted(PRESETS),
    "name": list(ALGORITHMS),
    "mode": ["iid", "dirichlet", "d1", "d2"],
    "balance": ["equal", "lognormal"],
    "aggregation_weighting": ["uniform", "by_samples"],
    "ablation": ["le", "lelg", "lelp", "lelglp"],
    "data_dir": ["/nonexistent"],
    "out_dir": ["out"],
}


def _typed_values(key, kind):
    if key in NAMED:
        return st.sampled_from(NAMED[key])
    if kind is int or kind == int | None:
        return st.integers(-2, 300)
    if kind is float or kind == float | None:
        return st.floats(-1, 2, allow_nan=False) | st.integers(-2, 300)
    if kind == list[int]:
        return st.lists(st.integers(-2, 300), max_size=3)
    if kind == list[float]:
        return st.lists(st.floats(0, 1), max_size=3)
    if kind is str:
        return st.text(max_size=6)
    return ANY_JSON


def _section(schema, sections=None, required=()):
    """Objects over `schema`'s keys, each key absent unless `required`, and a value
    its type takes or, one time in eight, any JSON value; a key in `sections`
    holds that section's objects."""
    sections = sections or {}
    values = {
        key: st.sampled_from([sections.get(key, _typed_values(key, kind))] * 7 + [ANY_JSON])
        .flatmap(lambda chosen: chosen)
        for key, kind in schema.items()
    }
    return st.fixed_dictionaries(
        {k: v for k, v in values.items() if k in required},
        optional={k: v for k, v in values.items() if k not in required},
    )


CONFIG_DOCS = _section(cli._TOP, {
    "algorithm": _section(cli._ALGORITHM, required=("name",)),
    "dataset": _section(cli._DATASET["synthetic"], {"kind": st.just("synthetic")}, ("kind",))
    | _section(cli._DATASET["mnist"], {"kind": st.just("mnist"),
                                       "partition": _section(cli._PARTITION)}, ("kind",)),
    "model": _section(cli._MODEL, {"kind": st.sampled_from(["logistic", "mlp"])}),
}, required=("algorithm", "dataset"))


@settings(max_examples=300, deadline=None)
@given(CONFIG_DOCS)
def test_any_config_document_resolves_or_names_its_key(doc):
    """Resolving builds no dataset, so any document is cheap to try."""
    try:
        build_experiment(copy.deepcopy(doc))
    except ConfigError as exc:
        head = exc.field.split(".")[0].split("[")[0]
        assert head in (*cli._TOP, "<run>", "<root>"), exc.field
        assert str(exc).startswith(f"{exc.field}: ")


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
        assert "error: dataset.gamma1: expected gamma1 >= 0" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_bad_seed_is_checked_before_any_runs(self, tmp_path, capsys):
        path = self.manifest(tmp_path, seeds=[0, -1])
        assert main(["sweep", path]) == 2
        assert "error: seeds[1]: expected a seed in [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_partial_ablation_is_checked_before_any_runs(self, tmp_path, capsys):
        path = self.manifest(tmp_path, overrides={"algorithm": {"ablation": "lelg"}})
        assert main(["sweep", path]) == 2
        assert "error: algorithm.ablation: expected the full ablation for fedavg" in (
            capsys.readouterr().err
        )
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
            (["--model", "mlp"], "error: --hidden: an mlp needs at least one hidden layer"),
            (["--model", "mlp", "--hidden", "0"], "error: --hidden: expected hidden_dims > 0"),
            (["--hidden", "4"], "error: --hidden: a logistic model has no hidden layers"),
            (["--input-dim", "0"], "error: --input-dim: expected input_dim >= 1, got 0"),
            (["--classes", "0"], "error: --classes: expected num_classes >= 1, got 0"),
            (["--weight-decay", "-1"], "error: --weight-decay: expected weight_decay >= 0"),
        ],
        ids=["hidden-not-an-int", "batch-negative", "batch-zero", "seed-negative",
             "hidden-missing-for-mlp", "hidden-zero", "hidden-for-logistic", "input-dim-zero",
             "classes-zero", "weight-decay-negative"],
    )
    def test_bad_flag_exits_2_naming_it(self, flags, message, capsys):
        assert main(["gradcheck", *flags]) == 2
        assert message in capsys.readouterr().err

    def test_corrupted_gradient_fails(self, monkeypatch, capsys):
        """Each check fails on its own: 1e-3 added to one gradient fails that check alone."""
        exact_loss_and_grad = cli.loss_and_grad
        exact_objective_grad = cli.feddc_local_objective_grad

        def loss_and_grad(*args):
            loss, grad = exact_loss_and_grad(*args)
            return loss, grad + 1e-3

        def objective_grad(*args):
            return exact_objective_grad(*args) + 1e-3

        checks = {"model loss gradient": ("loss_and_grad", loss_and_grad),
                  "drift objective gradient": ("feddc_local_objective_grad", objective_grad)}
        for failing, (name, corrupted) in checks.items():
            with monkeypatch.context() as patch:
                patch.setattr(cli, name, corrupted)
                assert main(["gradcheck", "--model", "logistic", "--batch", "3"]) == 1
            out = capsys.readouterr().out
            errors = {line.split(" max rel err")[0].strip(): float(line.split(": ")[1])
                      for line in out.splitlines() if "max rel err" in line}
            assert set(errors) == set(checks)
            for check, err in errors.items():
                assert (err > cli.GRADCHECK_TOLERANCE) == (check == failing), (check, err)
            assert "gradcheck FAIL" in out
