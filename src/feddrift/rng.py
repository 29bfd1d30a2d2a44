"""Counter-based random streams keyed by (seed, purpose, client, round).

Replayability is the whole point: any stream can be reconstructed from
its key alone, so checkpoint/resume and out-of-order client execution
reproduce exactly the draws an uninterrupted sequential run would make.
Streams are backed by the Philox counter-based generator, whose output
for a given key is identical across platforms and processes.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

__all__ = ["RngStream", "stream", "stream_id_for", "PURPOSES"]

# Registry of stream purposes. Order is part of the determinism contract:
# appending is safe, reordering silently changes every derived stream.
PURPOSES = (
    "global-init",
    "participation",
    "batch-shuffle",
    "synthetic-model",
    "synthetic-shift",
    "synthetic-train",
    "synthetic-test",
    "partition-permute",
    "partition-ratio",
    "partition-pool",
    "partition-fill",
    "partition-balance",
    "testing",
)

_PURPOSE_CODES = {name: idx for idx, name in enumerate(PURPOSES)}

_MAX_CLIENT = 1 << 24
_MAX_ROUND = 1 << 24
_MAX_U64 = 1 << 64


def stream_id_for(purpose: str, client: int = 0, round_index: int = 0) -> int:
    """Pack (purpose, client, round) into one collision-free 64-bit id."""
    if purpose not in _PURPOSE_CODES:
        raise ParameterError(f"unknown stream purpose {purpose!r}")
    if not 0 <= client < _MAX_CLIENT:
        raise ParameterError(f"client index out of range: {client}")
    if not 0 <= round_index < _MAX_ROUND:
        raise ParameterError(f"round index out of range: {round_index}")
    return (_PURPOSE_CODES[purpose] << 48) | (client << 24) | round_index


class RngStream:
    """One deterministic draw sequence, identified by (seed, stream_id).

    Two streams with the same identity produce byte-identical draw
    sequences; streams with different identities are independent by
    construction of the underlying counter-based generator.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        if not 0 <= int(seed) < _MAX_U64:
            raise ParameterError(f"seed must be a 64-bit unsigned int, got {seed!r}")
        if not 0 <= int(stream_id) < _MAX_U64:
            raise ParameterError(
                f"stream_id must be a 64-bit unsigned int, got {stream_id!r}"
            )
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = (self.seed << 64) | self.stream_id
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def uniform01(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def gaussian(self, size=None):
        """Standard normal draws; callers apply their own scale and shift."""
        return self._gen.standard_normal(size)

    def dirichlet(self, k: int, conc: float) -> np.ndarray:
        """A length-k probability vector with symmetric concentration."""
        if not (isinstance(k, (int, np.integer)) and k >= 1):
            raise ParameterError(f"dirichlet: k must be a positive int, got {k!r}")
        if not (np.isfinite(conc) and conc > 0):
            raise ParameterError(f"dirichlet: conc must be positive, got {conc!r}")
        return self._gen.dirichlet(np.full(k, float(conc)))

    def lognormal(self, mu: float, var: float, size=None):
        """exp(mu + sqrt(var) * N(0,1)); var == 0 degenerates to exp(mu)."""
        if not (np.isfinite(var) and var >= 0):
            raise ParameterError(f"lognormal: var must be >= 0, got {var!r}")
        if not np.isfinite(mu):
            raise ParameterError(f"lognormal: mu must be finite, got {mu!r}")
        return self._gen.lognormal(mean=float(mu), sigma=float(np.sqrt(var)), size=size)

    def permutation(self, n: int) -> np.ndarray:
        if not (isinstance(n, (int, np.integer)) and n >= 0):
            raise ParameterError(f"permutation: n must be a nonnegative int, got {n!r}")
        return self._gen.permutation(int(n))


def stream(seed: int, purpose: str, client: int = 0, round_index: int = 0) -> RngStream:
    """The stream owned by (purpose, client, round) under a run seed."""
    return RngStream(seed, stream_id_for(purpose, client, round_index))
