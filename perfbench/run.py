"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload synth-feddc-full --seed 0 --seconds 40 --trace 0

Run from the root of a checkout. The program under test is imported
from that checkout's ``src/``; without it the benchmark exits with
status 2 and prints no result. BLAS is pinned to one thread before
numpy loads. After one warm-up set-up, operations (whole experiments)
run back to back for ``--seconds``, each after its timed set-ups. With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics, whose times are corrected for the host's speed (hostclock.py).
With ``--trace 1`` untraced and traced operations alternate on plain
wall time, and the JSON holds the per-layer metrics and the tracing
overhead. Reports, traces and work files go under ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

# name -> unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "round_s_p50": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "best_accuracy": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class ProgramMissing(Exception):
    pass


def import_program():
    """Import feddrift from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "feddrift" / "__init__.py").is_file():
        raise ProgramMissing(f"no program to measure: {src / 'feddrift'} is missing")
    sys.path.insert(0, str(src))
    import feddrift

    if Path(feddrift.__file__).resolve().parent.parent != src.resolve():
        raise ProgramMissing(f"feddrift was imported from {feddrift.__file__}, not {src}")


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child, whichever is larger."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb * 1024 / 1e6


def measure(step, seconds: float) -> None:
    """Call step() back to back; stop before one more call would overrun `seconds`."""
    calls = 0
    start = perf_counter()
    while True:
        step()
        calls += 1
        elapsed = perf_counter() - start
        if elapsed * (calls + 1) / calls > seconds:
            return


def end_to_end(results, setup) -> dict:
    rounds = [s for r in results for s in r.round_s]
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(r.run_s for r in results),
        "round_s_p50": statistics.median(rounds),
        "samples_per_s": statistics.median(r.samples / r.run_s for r in results),
        "peak_rss_mb": peak_rss_mb(),
        "best_accuracy": statistics.median(r.best_accuracy for r in results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import machine
    import stats
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    facts = machine.facts(ROOT)
    facts["calibration_s"] = machine.calibration_probe()
    tag = f"{args.workload}-s{args.seed}"
    wl = workloads.WORKLOADS[args.workload](
        OUT / "work" / tag, args.seed,
        reference=workloads.load_reference(args.workload, args.seed) or "",
        correct=args.trace == 0,
    )
    wl.prepare()
    wl.setup_once()  # warm-up; also counts the samples an operation trains on
    setup = []

    if args.trace == 0:
        # Set-ups are timed before every operation, so setup_s is sampled
        # across the whole run, under the same host conditions.
        results = []

        def step():
            setup.extend(wl.setup_once() for _ in range(wl.setup_reps))
            results.append(wl.op())

        measure(step, args.seconds)
        metrics = end_to_end(results, setup)
        units = END_TO_END
    else:
        # Traced and untraced operations alternate, so the overhead ratio
        # compares them under the same host conditions.
        plain, traced = [], []
        tracer = tracing.Tracer()

        def step():
            plain.append(wl.op())
            traced.append(tracer.trace(wl.op, run_id=len(traced)))

        measure(step, args.seconds)
        tracer.write(OUT / "traces" / f"{tag}.json")
        per_op = [tracer.layer_metrics(i) for i in range(len(traced))]
        metrics = {m: statistics.median(op[m] for op in per_op) for m in tracing.LAYER_METRICS}
        metrics[tracing.OVERHEAD_METRIC] = (
            statistics.median(r.run_s for r in traced)
            / statistics.median(r.run_s for r in plain)
        )
        units = {m: layer_unit(m) for m in metrics}
        results = plain + traced

    facts["calibration_end_s"] = machine.calibration_probe()
    failed = [r for r in results if r.errors]
    for r in failed[:3]:
        print(f"check failed: {'; '.join(r.errors[:3])}", file=sys.stderr)

    run_summary = stats.summarize([r.run_s for r in results])
    round_summary = stats.summarize([s for r in results for s in r.round_s])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "data_seed": wl.seed,
        "trace": args.trace,
        "facts": facts,
        "setup_s": setup,
        "run_s": [r.run_s for r in results],
        "run_wall_s": [r.wall_s for r in results],
        "run_s_summary": run_summary,
        "round_s_summary": round_summary,
        "errors": [r.errors for r in results],
        "metrics": metrics,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{tag}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    print(f"# {args.workload} seed {args.seed} (data seed {wl.seed}), "
          f"trace {args.trace}, {len(results)} operations, {len(failed)} failed "
          f"(failed_ratio {len(failed) / len(results):g})")
    print(f"# host: nproc {facts['nproc']}, python {facts['python']}, numpy {facts['numpy']}, "
          f"blas {facts['blas'].get('version')} x{facts['blas_threads']} threads, "
          f"load {facts['loadavg_start'][0]:.2f}, calibration {facts['calibration_s']:.4f} s, "
          f"git {facts['git_sha'] or 'n/a'}")
    print(f"# calibration at end {facts['calibration_end_s']:.4f} s; "
          f"setup_s n={len(setup)}; run_s n={run_summary['n']}, "
          f"wall median {statistics.median(r.wall_s for r in results):.4f} s; "
          f"round_s n={round_summary['n']}"
          + (f", p{round_summary['tail_pct']:g}={round_summary['tail']:.6f} s"
             if "tail" in round_summary else ""))
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
