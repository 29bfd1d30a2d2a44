"""Golden outputs: pinned digests of records.csv, summary.json and config.json.

Each run case runs one preset for five rounds (seed 0) and hashes two
output files: records.csv without its wall_ms column, which is the one
field outside the determinism contract, and summary.json as written.
The digests were taken from the per-client training loop, so they are
the oracle that any faster training path must reproduce bit for bit.

Each config case resolves one preset for one algorithm (the mnist
presets with a fixed data_dir that does not exist) and hashes the
config.json it echoes; the digests were taken from the config layer
that listed every key and default by hand.

The sweep case runs a small manifest (two presets and one inline
setting with a target, all five algorithms, two seeds, five rounds)
through `feddrift sweep` and hashes the table.csv and table.md it
writes; the digests were taken from the sweep that recomputed
rounds-to-target from the records and had its own median.

The run and sweep digests hash float64 results of BLAS matrix products,
so they hold on OpenBLAS kernels with fused multiply-add (SkylakeX and
Haswell, and Zen, which runs the Haswell kernels); kernels without FMA
round differently. A mismatch names the kernel and the numpy version
that ran.

The thread case runs a short MLP whose first layer is the
(50, 784) @ (784, 200) product, which OpenBLAS rounds differently on
two threads than on one: the run sets one thread itself, so it writes
the same records.csv whatever count the caller set, and restores that
count, also after a round that fails.

The MLP case pins that run's records.csv. Its 159,010 parameters train
one client per chunk, the chunks on the thread pool, and the drift and
upload rows are derived one client at a time. The MLP records differ
between the SkylakeX and Haswell kernels, so the case holds one digest
per runtime kernel and skips on any other.

To regenerate after an intended change of results:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os

import numpy as np
import pytest

from feddrift import cli, federation
from feddrift.data import FederatedDataset, SyntheticConfig
from feddrift.engine import (
    ExperimentConfig,
    build_dataset,
    dataset_label,
    run_experiment,
    write_json,
    write_records_csv,
    write_summary_json,
)
from feddrift.errors import RunError
from feddrift.federation import ALGORITHMS, AlgoConfig
from feddrift.models import ModelSpec
from feddrift.presets import PRESETS
from feddrift.rng import stream

SETTINGS = ("synthetic-00", "synthetic-10", "synthetic-01")
PARTICIPATIONS = (1.0, 0.5)
ROUNDS = 5

# (setting, algorithm, participation) -> (records.csv digest, summary.json digest)
GOLDEN = {
    ("synthetic-00", "fedavg", 1.0): ("f9deac070cf936a5d5fc858fd816f1cdfa28c7b181c147212911a144203b2a00", "26ba4d38500e92bb8c97facc4a2075236187f8bcea64b5fc9dfbc6c21ba53581"),
    ("synthetic-00", "fedavg", 0.5): ("5935bece6d217ea1f38b27fd93e41a393b5053d5b80a523ec8910be2b47c5254", "7d4cc17e8612e76b7adaa7bf5507cacb8f4e3ddcef447281fb73bc8e136d1e06"),
    ("synthetic-00", "fedprox", 1.0): ("a5cb693216f31617a040cd207527e0095aa378fd2910f12459169994b79d8bef", "26ba4d38500e92bb8c97facc4a2075236187f8bcea64b5fc9dfbc6c21ba53581"),
    ("synthetic-00", "fedprox", 0.5): ("8123cc5028ab1035df8a9aad73db22d0b7b072407d4944f83dcdcd19c9bbf571", "7d4cc17e8612e76b7adaa7bf5507cacb8f4e3ddcef447281fb73bc8e136d1e06"),
    ("synthetic-00", "scaffold", 1.0): ("5666f7de6be910c78275c0dee89f0e564ca09fe415127d1b2cf9f77bc95f4028", "42f92d8fadc14c888e653c3cdc1eb11cc2485f011bf779cf1d87fda9a7fe98a4"),
    ("synthetic-00", "scaffold", 0.5): ("c1b82e1cbb490abdf8ab5b7165e8ae615cece64906a1d1b92d05d51570be3308", "54168f21c8f0b64dc940707582be0bfcfd294f07865afb029a73ca51354a188e"),
    ("synthetic-00", "feddyn", 1.0): ("2fb50a00b6ab75b6226a37f556d6d0335a92df84813ca0e8a462c13abc2da9a4", "0ef82c09f390c594c55e18a0b3820c700fb98154458f67db3a4ba79f17e2122c"),
    ("synthetic-00", "feddyn", 0.5): ("2cd490012fb682c90e26be827b7028240bcbbb056487a1cea8bdc0af015cd95d", "14bffce96e1b14022e12a19695caa69fb4875268c2b4446b79ad8fdb272fed62"),
    ("synthetic-00", "feddc", 1.0): ("e297b4644e162c35f8347768b0a4912b0662d505499d3529888b4be4c0472534", "e7afb4d661a0a67755745d8a679a0049ff17d2b7d456558abf77a35c9f349304"),
    ("synthetic-00", "feddc", 0.5): ("66142ad6648f7656081f131ffaef52746a9e08f1de83c7ae42dd0c0a8fedc559", "65f8ad39d0ba25f05b4f1c45b2fb93c7621a4b9a86c70b5e3e8e33d9786363e0"),
    ("synthetic-10", "fedavg", 1.0): ("111ac066043d82f8d25361082db8025785c490a78bb7ca4e5de560301e26bd65", "26ba4d38500e92bb8c97facc4a2075236187f8bcea64b5fc9dfbc6c21ba53581"),
    ("synthetic-10", "fedavg", 0.5): ("c40eec82f17d2a3ceddfbb904235cbfc4ca64b3a55fdaf0c76f9917d5e491b3d", "7d4cc17e8612e76b7adaa7bf5507cacb8f4e3ddcef447281fb73bc8e136d1e06"),
    ("synthetic-10", "fedprox", 1.0): ("908e4c74addbd1ebee46d0146ff6cc6242a7c1a67f3ac4418209c1ea35361b0f", "26ba4d38500e92bb8c97facc4a2075236187f8bcea64b5fc9dfbc6c21ba53581"),
    ("synthetic-10", "fedprox", 0.5): ("885609668857d9d8774e1da1e6651e92e2fd8d801cacffdf423bbcae9533825a", "7d4cc17e8612e76b7adaa7bf5507cacb8f4e3ddcef447281fb73bc8e136d1e06"),
    ("synthetic-10", "scaffold", 1.0): ("d10307fcbcea9b35d0e789f3f35722aa9b3856d2aa39a3be7189f1bcc67a6244", "42f92d8fadc14c888e653c3cdc1eb11cc2485f011bf779cf1d87fda9a7fe98a4"),
    ("synthetic-10", "scaffold", 0.5): ("494ae7b020a43718d4de7b2726c50c18da9e9f959750ff44b79b70d4c5197404", "54168f21c8f0b64dc940707582be0bfcfd294f07865afb029a73ca51354a188e"),
    ("synthetic-10", "feddyn", 1.0): ("7ff62ba039df7fb79343f0733ee838c25cb64f49eab1a68c54804f9e79731832", "0ef82c09f390c594c55e18a0b3820c700fb98154458f67db3a4ba79f17e2122c"),
    ("synthetic-10", "feddyn", 0.5): ("42b1a8a94db877b90f56473487e1eb5896c1474427a853fe142f53967353bac1", "14bffce96e1b14022e12a19695caa69fb4875268c2b4446b79ad8fdb272fed62"),
    ("synthetic-10", "feddc", 1.0): ("593e8dee4bab26c3e45ae96a22bf64ea4f9319ad6bf30f35ec1040b47be6e7db", "e7afb4d661a0a67755745d8a679a0049ff17d2b7d456558abf77a35c9f349304"),
    ("synthetic-10", "feddc", 0.5): ("ccae696095f27b2946726ba720b4212ad06a568adf637f82a198149083c0416c", "65f8ad39d0ba25f05b4f1c45b2fb93c7621a4b9a86c70b5e3e8e33d9786363e0"),
    ("synthetic-01", "fedavg", 1.0): ("54286a224275c05c41aa775ae691a09a3d7a3d7621253cc4136504df059e814c", "8aa9e8ddac0bf8b4f59cdb6610424fd1ea5a2d5b52dab1f467937e648d262195"),
    ("synthetic-01", "fedavg", 0.5): ("7c2623baca7895cd6db1201e0e2c126c2f118f6394bd0538538cd9e1b4dcd79a", "2a63d83cb5fb671d7975bca9ba71a92511c5bfda49d954975930d883a2499935"),
    ("synthetic-01", "fedprox", 1.0): ("0a4b237a9d02003d6c6025d95860473782c7dff0991432cdf442f47b3346c9aa", "8aa9e8ddac0bf8b4f59cdb6610424fd1ea5a2d5b52dab1f467937e648d262195"),
    ("synthetic-01", "fedprox", 0.5): ("60f0a24b32f76a69285eaecf9040c4f4d8ae8d5a615cfdf550c7c8fdf6df79c3", "2a63d83cb5fb671d7975bca9ba71a92511c5bfda49d954975930d883a2499935"),
    ("synthetic-01", "scaffold", 1.0): ("22d82f127c428d2923e1b0cf65378b43c80e82bec49111996c43ffdf9af4a045", "15194551dd13909030b8db335fd9932d4c798a203a3dc953caaf4bcca843745a"),
    ("synthetic-01", "scaffold", 0.5): ("87c57b3a70a3ce8c378376ff302de0194e82e24f2f3741c6c06d250b6c14aca5", "8aa9e8ddac0bf8b4f59cdb6610424fd1ea5a2d5b52dab1f467937e648d262195"),
    ("synthetic-01", "feddyn", 1.0): ("7b70150e9183e249a1e70d97c301ecdf61f99d7c931a87d6acde0294a0aded41", "7d3a0982ef8a798909b4599459a8e8e86ecaf37d9bc4c2d1736a5dba7cda5a10"),
    ("synthetic-01", "feddyn", 0.5): ("00de899529b95e6e77ab9980cc0af0b6363f76bdd535890545b0a126618b1d90", "f1a502365781a6a962832a6d4c7ce786beeafd7f5c0e6afdaca02de1aea8de73"),
    ("synthetic-01", "feddc", 1.0): ("bed619f69840280d8b1cd6795b264dc33f70bf329bb7fd038179bafd460553a8", "60eec8361cd3d93b8da54425e48f6019b89303122e7931969ffd8ba1dd920e05"),
    ("synthetic-01", "feddc", 0.5): ("e73ac3f93cd476d2291d9ad3bcc708151aa7fff466822319a3852445397ea1cd", "13ac2c82d75a4ecb99e3b40c40bc6dacba0e5eba5d73462236aa4367fbc0edde"),
}

# (preset, algorithm) -> config.json digest
CONFIG_GOLDEN = {
    ("synthetic-00", "fedavg"): "24bba9bf5c5bca5d769cbd322dbf3fdda34f77aa1da145993b04d06d558db52b",
    ("synthetic-00", "fedprox"): "7d33e652e67bb4ce9ee6d2c5138eb66de803a6af69b65e6f3a0efc234508fd70",
    ("synthetic-00", "scaffold"): "6a06331fcc84894e4cb8acfe4cf4a259e74b0434744af72f18b37fdf0b3692f2",
    ("synthetic-00", "feddyn"): "fceefeffd1cbe49c3c7154ab35be6e3fd005a94915a4eff9572ab78810bcd180",
    ("synthetic-00", "feddc"): "335b5a57d77c76f87da016b72ba238157a59346e5078b173f9213c3a986cabe4",
    ("synthetic-10", "fedavg"): "2140f448767e2a1a38d6beb061b267f1e1b5325540f8593e583747c2298aef91",
    ("synthetic-10", "fedprox"): "20c46d6d5156654d7d33fb3a6163ba9fc5c2d356b916850969e222fe2de3c57a",
    ("synthetic-10", "scaffold"): "2658924f465bebf99d57ba9c51204337f172a63c98b7f482dd2f38124b69dc04",
    ("synthetic-10", "feddyn"): "3845df1e21b803172b30e8b1ec5c5d56003c24a2f1054e0f07405b14c281b57d",
    ("synthetic-10", "feddc"): "ab6ed93eb5db4c505e69c387ccb18c2d8782e70258145eab966813dfa283f04d",
    ("synthetic-01", "fedavg"): "9f92adf11dd40b12668d6c8d16e0d9e31d6e2dfd20e95e6c4407179b66cc7f47",
    ("synthetic-01", "fedprox"): "40efb7b1b38e2c028851c747bd6a61b6aa4112dc6a96dd93a74e0a2d25a71213",
    ("synthetic-01", "scaffold"): "3cd7f641fdc14265fce0f19b91a76e374f4cee88212ec9f9900596594d3bc025",
    ("synthetic-01", "feddyn"): "faddfa3793f6d2fadccdcc7143e434a63b2cd638d789e3e5500a70a25d3fc17c",
    ("synthetic-01", "feddc"): "7cac03e8cf534460bb4ce3a945bda05ca9fc3cdc3380def61248047212dcac55",
    ("mnist-iid", "fedavg"): "4bb1cbfd1cacba6e16287386a660189367aad31e837656b506769aa79da3d7f2",
    ("mnist-iid", "fedprox"): "4d25c9f23289177f236a1be4cdd33e87d18a9c5acbf35fd43da9a41c995ff21a",
    ("mnist-iid", "scaffold"): "869317f8f461573a7d0b4cb49e0f6c065f7ad4c32d04e383f4d62bbeee6bbb5f",
    ("mnist-iid", "feddyn"): "95fcc91a172fae5abb063472514e6c44da4dfbf390210db2e7ffd9000f75342c",
    ("mnist-iid", "feddc"): "7d3812df62d85549c188cc3f151c69a627df8fff0bbdaecaf62f0ed76dd47ed4",
    ("mnist-d1", "fedavg"): "bd6622592f2118654aecd1fe39a9362b671f8a8b60a47dfbf8d1aa9406e9c6dd",
    ("mnist-d1", "fedprox"): "44c1cf54011756547f20d10c0c17d68561a93435d09f2149db48499b72715682",
    ("mnist-d1", "scaffold"): "d3b10ae5478c3c97d0c1516580318d131770530dc0deeef3c6a1a002de0ae1ca",
    ("mnist-d1", "feddyn"): "34f62aeba89a9ab315fdd15c98b0bcfbe8ca96f0e1b5ab73262df1034802f429",
    ("mnist-d1", "feddc"): "9c7fdf1da200a0f5ceacc41b65d533cd8ce66f69e8ff3bb3a686ad053c66b47b",
    ("mnist-d2", "fedavg"): "ae375376a0afa10a8d6dbb1e9a5c457308c741fe4bc47fdc97710cc35fd75fb7",
    ("mnist-d2", "fedprox"): "536c3ee609619e2e0c4743c1bb3481efd184d16f67bab60452e340a252db6cce",
    ("mnist-d2", "scaffold"): "becdf372caa4030a865fb5c3d7b33d53b0d5a77bd95b971dec8fd228341cffad",
    ("mnist-d2", "feddyn"): "1f9df1d47c416839e425f3ea586130e23c10d1b1eca7b89cf631fae2146a6753",
    ("mnist-d2", "feddc"): "1de60fe76640b343271b445979039738b8500d4c15701c1cf2540f38957e103b",
    ("unbalanced-0.3", "fedavg"): "2eb328fc0830769f1380c004cb007c9a0f230f9feebeec5e10b50a67fcfde0de",
    ("unbalanced-0.3", "fedprox"): "54366c5ede10e5b6d57f3b9c7fcc9a127921710e2a14fe018690fe9e699e57be",
    ("unbalanced-0.3", "scaffold"): "5f43b1a018abb40a16159bb6d9fb4fe5dbed80ad848393299d8818613ed8d498",
    ("unbalanced-0.3", "feddyn"): "09416ec3f23c36f4ce254c57c1cec8a4ab22a0916ccd06c9600afe3b41794d15",
    ("unbalanced-0.3", "feddc"): "5d56e8da86943e09acf6b3c4fc52f8d62be743350e7fc4d9cfa5195ab3913b34",
}

# A sweep whose inline setting reaches its target on some seeds and not
# others, so the tables hold empty cells, even-count medians, speedups and
# a rounds median that is a miss (table.md counts a miss as +inf).
SWEEP_MANIFEST = {
    "settings": [
        "synthetic-00",
        "synthetic-01",
        {
            "name": "inline",
            "dataset": {
                "kind": "synthetic",
                "gamma2": 1.0,
                "n_clients": 6,
                "samples_per_client_mean": 40,
            },
            "target_accuracies": [0.4],
        },
    ],
    "algorithms": list(ALGORITHMS),
    "seeds": [0, 1],
    "rounds": ROUNDS,
    "overrides": {"algorithm": {"local_epochs": 1}},
}

# (table.csv digest, table.md digest)
SWEEP_GOLDEN = (
    "d60d87571e2396c1ee339d2ca70de6382cb95d82ae305d096e3ced6985a742db",
    "74f771c810eff703b4e1e4642276a33ab99b5ead52bce52035d1aff8dfd04665",
)


def _outputs(setting, algorithm, participation, out_dir):
    exp, _ = cli.build_experiment({
        "preset": setting,
        "algorithm": {"name": algorithm, "participation": participation},
        "rounds": ROUNDS,
        "seed": 0,
    })
    ds = build_dataset(exp.dataset)
    records, summary = run_experiment(exp, dataset=ds)
    records_path = os.path.join(out_dir, "records.csv")
    summary_path = os.path.join(out_dir, "summary.json")
    write_records_csv(records_path, records, algorithm, dataset_label(ds), exp.seed)
    write_summary_json(summary_path, summary)
    return _digest_without_wall_ms(records_path), _digest(summary_path)


def _config_digest(preset, algorithm, out_dir):
    raw = {"preset": preset, "algorithm": {"name": algorithm}}
    if PRESETS[preset]["dataset"]["kind"] == "mnist":
        raw["dataset"] = {"data_dir": "/nonexistent/mnist"}
    _, resolved = cli.build_experiment(raw)
    path = os.path.join(out_dir, "config.json")
    write_json(path, resolved)
    return _digest(path)


def _sweep_digests(out_dir):
    out = os.path.join(out_dir, "sweep")
    manifest = os.path.join(out_dir, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({**SWEEP_MANIFEST, "out_dir": out}, fh)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", manifest]) == 0
    return _digest(os.path.join(out, "table.csv")), _digest(os.path.join(out, "table.md"))


def _blas_core():
    """The OpenBLAS kernel set numpy runs on, e.g. "SkylakeX", or None if it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return None


def _mismatch():
    return (f"digests differ on OpenBLAS core {_blas_core()} with numpy {np.__version__}; "
            "they were taken on FMA kernels (SkylakeX, Haswell)")


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digest_without_wall_ms(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    col = lines[0].split(",").index("wall_ms")
    kept = [",".join(c for j, c in enumerate(line.split(",")) if j != col) for line in lines]
    return hashlib.sha256("\n".join(kept).encode("utf-8")).hexdigest()


CASES = [(s, a, p) for s in SETTINGS for a in ALGORITHMS for p in PARTICIPATIONS]


@pytest.mark.parametrize("setting,algorithm,participation", CASES)
def test_outputs_match_golden_digests(setting, algorithm, participation, tmp_path):
    got = _outputs(setting, algorithm, participation, tmp_path)
    assert got == GOLDEN[(setting, algorithm, participation)], _mismatch()


@pytest.mark.parametrize("preset,algorithm", [(p, a) for p in PRESETS for a in ALGORITHMS])
def test_config_json_matches_golden_digests(preset, algorithm, tmp_path):
    assert _config_digest(preset, algorithm, tmp_path) == CONFIG_GOLDEN[(preset, algorithm)]


def test_sweep_tables_match_golden_digests(tmp_path):
    assert _sweep_digests(tmp_path) == SWEEP_GOLDEN, _mismatch()


def _mnist_shaped_run(lr, out_dir):
    """Three rounds of a 784-200-10 MLP over four in-memory clients of 100 samples, batch 50."""
    rng = stream(0, "testing")
    x, y = rng.random((400, 784)), rng.integers(0, 10, 400)
    ds = FederatedDataset(x, y, rng.random((100, 784)), rng.integers(0, 10, 100),
                          tuple(np.arange(i, i + 100) for i in range(0, 400, 100)), 10)
    cfg = ExperimentConfig(
        dataset=SyntheticConfig(input_dim=784, num_classes=10),  # unread: the data is given
        model=ModelSpec("mlp", 784, 10, hidden_dims=(200,), weight_decay=1e-3),
        algo=AlgoConfig("feddc", alpha=0.1, lr=lr, local_epochs=1, batch_size=50),
        rounds=3,
    )
    records, _ = run_experiment(cfg, dataset=ds)
    path = os.path.join(out_dir, "records.csv")
    write_records_csv(path, records, "feddc", ds.label, cfg.seed)
    return _digest_without_wall_ms(path)


# OpenBLAS runtime core -> records.csv digest of _mnist_shaped_run(0.05, ...)
MLP_GOLDEN = {
    "SkylakeX": "8b2c3da3a8f9066d12930e24bb43e34196a6620c500c384dd88cc75dd33a21c7",
    "Haswell": "cef17671b748bed57fb0567c21b4694c0a32bb851c9f6730643c3870d1bec625",
}


def test_mlp_records_match_golden_digests(tmp_path):
    core = _blas_core()
    if core not in MLP_GOLDEN:
        pytest.skip(f"MLP digests are pinned on OpenBLAS cores {sorted(MLP_GOLDEN)}, not {core}")
    assert _mnist_shaped_run(0.05, tmp_path) == MLP_GOLDEN[core], _mismatch()


def test_mlp_records_do_not_depend_on_the_callers_blas_threads(tmp_path):
    if federation._openblas() is None:
        pytest.skip("this numpy bundles no OpenBLAS thread setter, so the caller's count holds")
    get, put = federation._openblas()
    before = get()
    try:
        digests = []
        for threads in (1, 2):
            put(threads)
            digests.append(_mnist_shaped_run(0.05, tmp_path))
            assert get() == threads
        assert digests[0] == digests[1]
        with pytest.raises(RunError, match="round 1: "):
            _mnist_shaped_run(1e308, tmp_path)
        assert get() == 2
    finally:
        put(before)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            setting, algorithm, participation = case
            records, summary = _outputs(*case, tmp)
            print(f'    ("{setting}", "{algorithm}", {participation}): ("{records}", "{summary}"),')
        for preset in PRESETS:
            for algorithm in ALGORITHMS:
                print(f'    ("{preset}", "{algorithm}"): "{_config_digest(preset, algorithm, tmp)}",')
        csv_digest, md_digest = _sweep_digests(tmp)
        print(f'    "{csv_digest}",\n    "{md_digest}",')
        print(f'    "{_blas_core()}": "{_mnist_shaped_run(0.05, tmp)}",')
