"""Wall-clock timing corrected for the host's speed at the moment.

The benchmark's host does not run at one speed: its vCPUs share a
machine, and the same work can take twice as long for a few seconds and
then speed up again, with CPU time tracking wall time. A plain wall-clock
median then says more about the hour than about the program.

A :class:`HostClock` splits an operation into segments (a round, a
set-up, a checkpoint) and runs a short fixed-work probe between them.
The probe is the benchmark's own code, shaped like the workload's hot
loop, so the program under test never changes it. Each segment's wall
time is scaled by ``REF_S[kind] / probe``, where ``probe`` is the median
of the probes around the segment. That gives the seconds the segment
would have taken with the probe at its reference time. Probe time is
never part of a segment.

With no probe kind, the clock reports plain wall time.
"""

from __future__ import annotations

import contextlib
import statistics
from time import perf_counter

import numpy as np

# Fixed reference times of the probes, near their median on a 2-vCPU
# Xeon at 2.0 GHz with OpenBLAS on one thread. Corrected seconds equal
# wall seconds whenever a probe takes exactly its reference time. Only
# the ratio of a run's probes to these matters, so they never change.
REF_S = {"sgd": 0.0016, "mlp": 0.005}
# A probe is the median of this many timed repetitions of its kernel,
# about 5 ms in all for "sgd" and 15 ms for "mlp".
PROBE_REPS = 3

_rng = np.random.default_rng(0x5EED)
# "sgd": minibatch SGD on a 30->5 softmax model, batch 10, as in the
# synthetic presets: many tiny numpy calls, interpreter-bound.
_SX = _rng.standard_normal((200, 30))
_SY = np.eye(5)[_rng.integers(0, 5, 200)]
# "mlp": one SGD step of a 784-200-200-10 ReLU network on a batch of 50,
# as in the MNIST presets: a forward and backward pass (BLAS-bound), then
# a drift-corrected update of the flat parameter vector (memory-bound).
_MX = _rng.random((50, 784))
_MW = [_rng.standard_normal(s) * 0.05 for s in ((784, 200), (200, 200), (200, 10))]
_MY = np.eye(10)[_rng.integers(0, 10, 50)]
_MP = 784 * 200 + 200 + 200 * 200 + 200 + 200 * 10 + 10
_MTHETA, _MANCHOR, _MEXTRA, _MGRAD = (_rng.standard_normal(_MP) for _ in range(4))


def _sgd_kernel(steps: int = 50) -> None:
    w = np.zeros((30, 5))
    b = np.zeros(5)
    for s in range(steps):
        i = (s * 10) % 200
        xb, yb = _SX[i:i + 10], _SY[i:i + 10]
        z = xb @ w + b
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = p - yb
        w -= 0.01 * (xb.T @ g) / 10
        b -= 0.01 * g.mean(axis=0)


def _mlp_kernel() -> None:
    w1, w2, w3 = _MW
    h1 = np.maximum(_MX @ w1, 0.0)
    h2 = np.maximum(h1 @ w2, 0.0)
    z = h2 @ w3
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    g = (p - _MY) / 50
    _ = h2.T @ g
    d2 = (g @ w3.T) * (h2 > 0)
    _ = h1.T @ d2
    d1 = (d2 @ w2.T) * (h1 > 0)
    _ = _MX.T @ d1
    theta = _MTHETA.copy()
    grad = _MGRAD.copy()
    grad += 0.1 * (theta - _MANCHOR)
    grad += _MEXTRA
    theta -= 0.01 * grad


KERNELS = {"sgd": _sgd_kernel, "mlp": _mlp_kernel}


def probe(kind: str) -> float:
    """Median seconds of PROBE_REPS runs of one probe kernel."""
    kernel = KERNELS[kind]
    times = []
    for _ in range(PROBE_REPS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class HostClock:
    """Times one operation as a sequence of host-speed-corrected segments.

    ``start()`` opens the first segment, ``lap()`` closes the current one
    and opens the next, ``stop()`` closes the last and computes the
    results: ``total`` (corrected seconds of the whole operation),
    ``wall`` (its plain wall seconds) and ``intervals``, the corrected
    seconds of each part timed with ``interval()``, in order.

    Segment i lies between probes i and i+1. Its host speed is the median
    of probes i-1 to i+2: one probe on each side damps the probe's own
    jitter, and the window is still short next to the host's phases.
    """

    def __init__(self, kind: str | None = None):
        self.kind = kind
        self.total = 0.0
        self.wall = 0.0
        self.intervals: list[float] = []
        self._segments: list[float] = []
        self._probes: list[float] = []
        self._parts: list[tuple[int, float]] = []  # (segment, wall seconds)
        self._t0 = None

    def _probe(self) -> None:
        if self.kind:
            self._probes.append(probe(self.kind))

    def start(self) -> None:
        self._segments, self._probes, self._parts = [], [], []
        self._probe()
        self._t0 = perf_counter()

    def lap(self) -> None:
        """Close the current segment and open the next."""
        self._segments.append(perf_counter() - self._t0)
        self._probe()
        self._t0 = perf_counter()

    def stop(self) -> float:
        self.lap()
        self._t0 = None
        factors = [self.factor(i) for i in range(len(self._segments))]
        self.total = sum(f * s for f, s in zip(factors, self._segments))
        self.wall = sum(self._segments)
        self.intervals = [factors[i] * t for i, t in self._parts]
        return self.total

    def factor(self, i: int) -> float:
        """Scale factor of segment i: REF_S over the host speed around it."""
        if not self.kind:
            return 1.0
        window = self._probes[max(0, i - 1):i + 3]
        return REF_S[self.kind] / statistics.median(window)

    @contextlib.contextmanager
    def interval(self):
        """Time a part of the current segment."""
        t0 = perf_counter()
        try:
            yield
        finally:
            self._parts.append((len(self._segments), perf_counter() - t0))
