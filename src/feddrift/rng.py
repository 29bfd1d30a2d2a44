"""Counter-based random streams keyed by (seed, purpose, client, round).

Replayability is the whole point: any stream can be reconstructed from
its key alone, so checkpoint/resume and out-of-order client execution
reproduce exactly the draws an uninterrupted sequential run would make.
A stream is a numpy `Generator` over the Philox counter-based bit
generator, whose output for a given key is identical across platforms
and processes.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox  # now: a Ctrl-C in a lazy import can be lost

from .errors import ParameterError

__all__ = ["stream", "PURPOSES"]

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
MAX_SEED = 1 << 64  # seeds are 64-bit unsigned ints


def _stream_id(purpose: str, client: int = 0, round_index: int = 0) -> int:
    """Pack (purpose, client, round) into one collision-free 64-bit id."""
    if purpose not in _PURPOSE_CODES:
        raise ParameterError(f"unknown stream purpose {purpose!r}")
    if not 0 <= client < _MAX_CLIENT:
        raise ParameterError(f"client index out of range: {client}")
    if not 0 <= round_index < _MAX_ROUND:
        raise ParameterError(f"round index out of range: {round_index}")
    return (_PURPOSE_CODES[purpose] << 48) | (client << 24) | round_index


def stream(seed: int, purpose: str, client: int = 0, round_index: int = 0) -> Generator:
    """The stream owned by (purpose, client, round) under a run seed."""
    # Checked before int(seed), which would map 1.5 or True to seed 1.
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < MAX_SEED:
        raise ParameterError(f"seed must be a 64-bit unsigned int, got {seed!r}")
    key = (int(seed) << 64) | _stream_id(purpose, client, round_index)
    return Generator(Philox(key=key))
