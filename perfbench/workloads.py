"""The benchmark's three workloads and the checks on their outputs.

One operation of a workload is one complete experiment, from config to
written records.csv, driven only through the program's public entry
points. Every operation's outputs are checked, and a failed check makes
the operation count as failed.

Why these three (see README.md for the layers each one stresses):

- synth-feddc-full: the paper's synthetic benchmark, feddc at full
  participation; nearly all time is tiny Python-bound SGD steps.
- mnist-feddc-partial: MNIST-shaped MLP at 10% participation with a
  mid-run checkpoint and resume; BLAS-bound steps, and set-up,
  evaluation, aggregation, client-state memory and checkpoint I/O all
  show.
- sweep-synth-algos: the CLI sweep over all five algorithms, the only
  workload that reaches scaffold, feddyn and fedprox, config resolution
  and several runs per process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field

from feddrift import cli, engine, federation, presets, rng

import hostclock
import stats
import surrogate

# Inputs are drawn from seed % REFERENCE_SEEDS, and reference.json holds
# the records digest of an uninterrupted run for each of these data seeds.
REFERENCE_SEEDS = 10
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

BYTES_PER_PARAM = 8  # float64 on the wire
FEDAVG_VECTORS = 2  # fedavg sends one vector down and one up per active client


def data_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def load_reference(workload: str, seed: int):
    """The reference digest for a workload and workload seed, or None if absent."""
    try:
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            table = json.load(fh)
    except OSError:
        return None
    return table.get(workload, {}).get(str(data_seed(seed)))


@dataclass
class OpResult:
    run_s: float  # host-speed corrected (see hostclock.py)
    round_s: list  # host-speed corrected
    samples: int
    best_accuracy: float
    digest: str
    errors: list = field(default_factory=list)
    wall_s: float = 0.0  # run_s as plain wall time


def local_samples(exp, ds) -> int:
    """Training samples all local rounds of one run process."""
    sizes = [len(p) for p in ds.partitions]
    total = 0
    for t in range(exp.rounds):
        active = federation.sample_active_set(
            ds.n_clients, exp.algo.participation, t,
            rng.stream(exp.seed, "participation", round_index=t),
        )
        total += exp.algo.local_epochs * sum(sizes[i] for i in active)
    return total


def _timed_rounds(run, rounds: int, clock) -> None:
    """Run rounds, each in a segment of its own; their times land in clock.intervals."""
    for _ in range(rounds):
        with clock.interval():
            run.run_round()
        clock.lap()


def _fedavg_bytes(exp, n_clients: int) -> int:
    """What fedavg would move in one round at this participation."""
    active = min(n_clients, max(1, round(exp.algo.participation * n_clients)))
    return active * FEDAVG_VECTORS * BYTES_PER_PARAM * exp.model.param_count


def check_feddc_traffic(rows, fedavg_round_bytes) -> list:
    """feddc must move exactly 1.5x fedavg's bytes, round by round."""
    errors = []
    for row, base in zip(rows, fedavg_round_bytes):
        moved = int(row["bytes_up"]) + int(row["bytes_down"])
        if 2 * moved != 3 * base:
            errors.append(f"round {row['round']}: feddc moved {moved} bytes, fedavg {base}")
    return errors


def check_accuracy(best: float, num_classes: int, what: str) -> list:
    chance = 1.0 / num_classes
    if not best > chance:
        return [f"{what}: best accuracy {best!r} is not above chance {chance:g}"]
    return []


class Workload:
    name = ""
    setup_reps = 1  # timed set-ups before each operation; setup_s is their median
    probe_kind = None  # the hostclock probe shaped like this workload's hot loop

    def __init__(self, work_dir, seed: int, reference=None, overrides=None, correct=True):
        self.dir = work_dir
        self.seed = data_seed(seed)
        self.reference = reference
        self.overrides = overrides or {}
        self.correct = correct  # False: plain wall time, no probes
        self.samples = None

    def clock(self):
        return hostclock.HostClock(self.probe_kind if self.correct else None)

    def prepare(self) -> None:
        """Write the benchmark-side inputs; not timed."""
        os.makedirs(self.dir, exist_ok=True)

    def configs(self) -> list:
        """Raw run configs of one operation, in run order."""
        raise NotImplementedError

    def setup_once(self) -> float:
        """Seconds to resolve, build the dataset and construct every run of an operation."""
        built = []
        clock = self.clock()
        clock.start()
        for raw in self.configs():
            exp, _ = cli.build_experiment(raw)
            ds = engine.build_dataset(exp.dataset)
            engine.FederatedRun(exp, ds)
            built.append((exp, ds))
            clock.lap()
        total = clock.stop()
        self.samples = sum(local_samples(exp, ds) for exp, ds in built)
        return total

    def op(self) -> OpResult:
        raise NotImplementedError

    def _check_digest(self, digest: str) -> list:
        """A reference of None skips the check; an empty one is missing and fails."""
        if self.reference is None or digest == self.reference:
            return []
        return [f"records digest {digest[:12]} != reference {self.reference[:12] or 'missing'}"]

    def _write(self, exp, ds, records) -> str:
        out = os.path.join(self.dir, "out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, "records.csv")
        engine.write_records_csv(path, records, exp.algo.algorithm,
                                 engine.dataset_label(ds), exp.seed)
        engine.write_summary_json(os.path.join(out, "summary.json"),
                                  engine.summarize(records, exp.target_accuracies))
        return path

    def _finish_single(self, exp, ds, path, clock) -> OpResult:
        rows = stats.read_records(path)
        digest = stats.records_digest(path)
        best = stats.best_accuracy(rows)
        fedavg = [_fedavg_bytes(exp, ds.n_clients)] * len(rows)
        errors = (
            self._check_digest(digest)
            + check_feddc_traffic(rows, fedavg)
            + check_accuracy(best, exp.model.num_classes, exp.algo.algorithm)
        )
        if len(rows) != exp.rounds:
            errors.append(f"{len(rows)} records for {exp.rounds} rounds")
        return OpResult(clock.total, clock.intervals, self.samples, best, digest, errors,
                        clock.wall)


class SynthFeddcFull(Workload):
    name = "synth-feddc-full"
    setup_reps = 3
    probe_kind = "sgd"
    rounds = 20

    def configs(self):
        base = {"preset": "synthetic-10", "algorithm": {"name": "feddc"},
                "rounds": self.rounds, "seed": self.seed}
        return [presets.merge_under(self.overrides, base)]

    def op(self) -> OpResult:
        clock = self.clock()
        clock.start()
        exp, _ = cli.build_experiment(self.configs()[0])
        ds = engine.build_dataset(exp.dataset)
        run = engine.FederatedRun(exp, ds)
        clock.lap()
        _timed_rounds(run, exp.rounds, clock)
        path = self._write(exp, ds, run.records)
        clock.stop()
        return self._finish_single(exp, ds, path, clock)


class MnistFeddcPartial(Workload):
    name = "mnist-feddc-partial"
    probe_kind = "mlp"
    rounds = 10
    n_train = 20_000
    n_test = 2_000

    def __init__(self, work_dir, seed, reference=None, overrides=None,
                 n_train=None, n_test=None, resume=True, correct=True):
        super().__init__(work_dir, seed, reference, overrides, correct)
        self.n_train = n_train or self.n_train
        self.n_test = n_test or self.n_test
        self.resume = resume  # False gives the uninterrupted oracle run
        self.paths = None

    def prepare(self):
        super().prepare()
        self.paths = surrogate.write_surrogate(
            os.path.join(self.dir, "idx"), self.seed, self.n_train, self.n_test
        )

    def configs(self):
        base = {
            "preset": "mnist-d2",  # Dirichlet conc 0.3, 100 clients, 784-200-200-10
            "dataset": {"kind": "mnist", **self.paths},
            "algorithm": {"name": "feddc", "participation": 0.1},
            "rounds": self.rounds,
            "seed": self.seed,
        }
        return [presets.merge_under(self.overrides, base)]

    def op(self) -> OpResult:
        ckpt = os.path.join(self.dir, "run.ckpt")
        clock = self.clock()
        clock.start()
        exp, _ = cli.build_experiment(self.configs()[0])
        ds = engine.build_dataset(exp.dataset)
        run = engine.FederatedRun(exp, ds)
        clock.lap()
        if self.resume:
            half = exp.rounds // 2
            _timed_rounds(run, half, clock)
            engine.checkpoint_save(ckpt, run.server, run.clients)
            records = run.records
            del run  # the resumed run starts from the file alone
            clock.lap()
            run = engine.FederatedRun(exp, ds)
            engine.checkpoint_restore(run, ckpt)
            clock.lap()
            _timed_rounds(run, exp.rounds - half, clock)
            records = records + run.records
        else:
            _timed_rounds(run, exp.rounds, clock)
            records = run.records
        path = self._write(exp, ds, records)
        clock.stop()
        del run
        if os.path.exists(ckpt):
            os.remove(ckpt)
        return self._finish_single(exp, ds, path, clock)


class SweepSynthAlgos(Workload):
    name = "sweep-synth-algos"
    setup_reps = 3
    probe_kind = "sgd"
    rounds = 10

    def _manifest_overrides(self):
        base = {"rounds": self.rounds, "algorithm": {"participation": 0.5}}
        return presets.merge_under(self.overrides, base)

    def prepare(self):
        super().prepare()
        self.out = os.path.join(self.dir, "sweep")
        self.manifest = os.path.join(self.dir, "manifest.json")
        doc = {
            "out_dir": self.out,
            "settings": ["synthetic-01"],
            "algorithms": list(federation.ALGORITHMS),
            "seeds": [self.seed],
            "overrides": self._manifest_overrides(),
        }
        with open(self.manifest, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)

    def configs(self):
        # The same configs the CLI expands the manifest into.
        base = presets.merge_under(self._manifest_overrides(), {"preset": "synthetic-01"})
        return [
            presets.merge_under({"algorithm": {"name": a}, "seed": self.seed}, base)
            for a in federation.ALGORITHMS
        ]

    def op(self) -> OpResult:
        shutil.rmtree(self.out, ignore_errors=True)  # no output of an earlier operation counts
        clock = self.clock()
        clock.start()
        with _round_timer(clock), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["sweep", self.manifest])
        clock.stop()
        errors = [] if rc == 0 else [f"sweep exited with {rc}"]
        h = hashlib.sha256()
        rows_by_algo, best = {}, []
        classes = presets.get_preset("synthetic-01")["model"]["num_classes"]
        for algo in federation.ALGORITHMS:
            path = os.path.join(self.out, "synthetic-01", f"{algo}-s{self.seed}", "records.csv")
            if not os.path.exists(path):
                errors.append(f"{algo}: no records.csv")
                continue
            h.update(stats.records_digest(path).encode())
            rows_by_algo[algo] = stats.read_records(path)
            acc = stats.best_accuracy(rows_by_algo[algo])
            best.append(acc)
            errors += check_accuracy(acc, classes, algo)
        table = os.path.join(self.out, "table.csv")
        if os.path.exists(table):
            with open(table, "rb") as fh:
                h.update(fh.read())
        else:
            errors.append("no table.csv")
        digest = h.hexdigest()
        errors += self._check_digest(digest)
        if "feddc" in rows_by_algo and "fedavg" in rows_by_algo:
            fedavg = [int(r["bytes_up"]) + int(r["bytes_down"]) for r in rows_by_algo["fedavg"]]
            errors += check_feddc_traffic(rows_by_algo["feddc"], fedavg)
        mean_best = sum(best) / len(best) if best else float("nan")
        return OpResult(clock.total, clock.intervals, self.samples, mean_best, digest, errors,
                        clock.wall)


@contextlib.contextmanager
def _round_timer(clock):
    """Time FederatedRun.run_round calls made inside the CLI, one segment each."""
    orig = engine.FederatedRun.run_round

    def timed(self):
        try:
            with clock.interval():
                return orig(self)
        finally:
            clock.lap()

    engine.FederatedRun.run_round = timed
    try:
        yield
    finally:
        engine.FederatedRun.run_round = orig


WORKLOADS = {w.name: w for w in (SynthFeddcFull, MnistFeddcPartial, SweepSynthAlgos)}
