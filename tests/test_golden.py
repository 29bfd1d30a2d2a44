"""Golden outputs: pinned digests of records.csv and summary.json.

Each case runs one preset for five rounds (seed 0) and hashes the two
output files: records.csv without its wall_ms column, which is the one
field outside the determinism contract, and summary.json as written.
The digests were taken from the per-client training loop, so they are
the oracle that any faster training path must reproduce bit for bit.

To regenerate after an intended change of results:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import os

import pytest

from feddrift import cli
from feddrift.engine import (
    build_dataset,
    dataset_label,
    run_experiment,
    write_records_csv,
    write_summary_json,
)
from feddrift.federation import ALGORITHMS

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
    assert got == GOLDEN[(setting, algorithm, participation)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            setting, algorithm, participation = case
            records, summary = _outputs(*case, tmp)
            print(f'    ("{setting}", "{algorithm}", {participation}): ("{records}", "{summary}"),')
