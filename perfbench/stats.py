"""Summaries of timing samples, and digests of the program's outputs."""

from __future__ import annotations

import hashlib
import math
import statistics
from fractions import Fraction

# The tail percentiles a timing may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# A tail percentile is reported only when this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of a percentile; exact for decimal percentiles."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def nearest_rank(sorted_values, pct: float):
    """The nearest-rank percentile of an ascending, nonempty sequence."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(n: int):
    """Highest of TAIL_PERCENTILES with TAIL_MIN_BEYOND samples beyond it, else None."""
    for pct in TAIL_PERCENTILES:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            return pct
    return None


def summarize(values) -> dict:
    """Median, sample count, and the highest well-supported tail percentile."""
    vals = sorted(values)
    if not vals:
        raise ValueError("no samples to summarize")
    out = {"n": len(vals), "median": statistics.median(vals)}
    pct = tail_percentile(len(vals))
    if pct is not None:
        out["tail_pct"] = pct
        out["tail"] = nearest_rank(vals, pct)
    return out


def records_digest(path) -> str:
    """SHA-256 of a records.csv with the wall_ms column removed.

    Every other column is covered by the determinism contract, so two
    runs of the same config must give the same digest.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    drop = lines[0].split(",").index("wall_ms")
    h = hashlib.sha256()
    for line in lines:
        cells = line.split(",")
        del cells[drop]
        h.update(",".join(cells).encode("utf-8") + b"\n")
    return h.hexdigest()


def read_records(path):
    """records.csv rows as dicts of strings."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def best_accuracy(rows) -> float:
    accs = [float(r["test_accuracy"]) for r in rows if r["test_accuracy"]]
    return max(accs) if accs else float("nan")
