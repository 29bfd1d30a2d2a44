"""The finiteness check, a frozen vector type, and the finite-difference gradient oracle.

Federated state itself is plain float64 arrays: (P,) vectors and (C, P)
blocks of one row per client.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericError, ParameterError

__all__ = [
    "ParamVector",
    "finite_diff_grad",
    "max_relative_error",
]


def _require_finite(arr: np.ndarray, context: str) -> None:
    """Raise NumericError naming the first offending index."""
    if np.isfinite(arr).all():
        return
    bad = int(np.flatnonzero(~np.isfinite(arr))[0])
    raise NumericError(f"{context}: non-finite value {arr.flat[bad]!r} at index {bad}")


class ParamVector:
    """Read-only copy of a finite 1-D float64 vector of positive length."""

    __slots__ = ("_values",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise DimensionError(f"expected a 1-D vector, got shape {arr.shape}")
        if arr.size == 0:
            raise DimensionError("a ParamVector must have positive length")
        _require_finite(arr, "ParamVector")
        arr.flags.writeable = False
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        """Read-only view of the underlying float64 array."""
        return self._values


def finite_diff_grad(f, x, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of a (P,) array, one probe per axis.

    The step along coordinate j is scaled to h * max(1, |x_j|), which
    balances truncation against round-off for both small and large
    coordinates. Intended as an independent oracle for analytic
    gradients, so it deliberately shares no code with them. f must not
    keep or change the array it is given.
    """
    if not (np.isfinite(h) and h > 0):
        raise ParameterError(f"finite_diff_grad: step must be positive, got {h!r}")
    base = np.asarray(x, dtype=np.float64)
    grad = np.empty(base.size)
    probe = base.copy()
    for j in range(base.size):
        step = h * max(1.0, abs(base[j]))
        probe[j] = base[j] + step
        f_plus = float(f(probe))
        probe[j] = base[j] - step
        f_minus = float(f(probe))
        probe[j] = base[j]
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(
                f"finite_diff_grad: non-finite objective at coordinate {j}"
            )
        grad[j] = (f_plus - f_minus) / (2.0 * step)
    _require_finite(grad, "finite_diff_grad")
    return grad


def max_relative_error(approx, exact) -> float:
    """max_j |approx_j - exact_j| / max(1, |exact_j|)."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    if approx.shape != exact.shape:
        raise DimensionError(
            f"max_relative_error: shape mismatch {approx.shape} vs {exact.shape}"
        )
    denom = np.maximum(1.0, np.abs(exact))
    return float(np.max(np.abs(approx - exact) / denom))
