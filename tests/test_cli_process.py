"""Console runs in a fresh process, the way a user starts them.

Each check runs `python -m feddrift.cli` in a child process, so a run
sets up its BLAS pin, thread pool and CPU share from a clean start, as
it does under the installed `feddrift` script.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from feddrift.data import save_mnist_idx


def _feddrift(args, cpus=None):
    """Run `python -m feddrift.cli args`, on `cpus` alone if given (set in the child)."""
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-m", "feddrift.cli", *map(str, args)], env=env,
                          preexec_fn=pin, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_a_pooled_image_run_writes_the_same_outputs_on_one_cpu_and_on_all(tmp_path):
    """A 784-100-10 MLP (P = 79,510 > BUDGET // 2) on 4,200 training rows of
    pixels trains, evaluates (two slices of 4,096 rows), derives its rows and
    writes its clients on the round's thread pool. Half the clients train each
    round, so rounds 2 and 3 read stored rows in place and give new clients
    their first slots. On one CPU and on every CPU it writes the same
    records.csv apart from wall_ms (column 10) and the same summary.json."""
    rng = np.random.default_rng(0)
    for split, n in (("train", 4200), ("t10k", 50)):
        save_mnist_idx(rng.integers(0, 256, (n, 784), dtype=np.uint8), rng.integers(0, 10, n),
                       tmp_path / f"{split}-images-idx3-ubyte",
                       tmp_path / f"{split}-labels-idx1-ubyte")
    config = tmp_path / "pool.json"
    config.write_text(json.dumps({
        "dataset": {"kind": "mnist", "data_dir": str(tmp_path), "n_clients": 10},
        "algorithm": {"name": "feddc", "participation": 0.5},
        "model": {"hidden_dims": [100]},
    }))
    one_cpu = {min(os.sched_getaffinity(0))}
    outputs = {}
    for name, cpus in (("pool-one", one_cpu), ("pool-all", None)):
        _feddrift(["run", config, "--rounds", 3, "--out", tmp_path / name], cpus)
        lines = (tmp_path / name / "records.csv").read_text().splitlines()
        assert len(lines) == 4
        assert all(len(line.split(",")) == 10 for line in lines)  # the header's 10 cells
        outputs[name] = ([line.rsplit(",", 1)[0] for line in lines],
                         (tmp_path / name / "summary.json").read_bytes())
    assert outputs["pool-one"] == outputs["pool-all"]
