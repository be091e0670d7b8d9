"""Deterministic floating point reductions.

Every reduction in the package is np.add.reduce over a C-contiguous operand:
the helpers here normalize layout with np.ascontiguousarray before reducing,
and the channel kernel reduces products it has just allocated in C order.
For a fixed numpy build the result is then a pure function of the operand
values and shape: repeated evaluation is bit-identical, and so is evaluation
of the same values behind a different layout (a strided or Fortran-ordered
view).  The grouping itself is numpy's: pairwise along the contiguous last
axis, strictly row after row along axis 0 of a 2-D array.  No reduction goes
through BLAS, whose thread splits can change rounding.

All public quantities in the package are float64 nats.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ordered_sum", "ordered_sum_along", "ordered_dot", "logsumexp"]


def ordered_sum(values: np.ndarray) -> float:
    """Sum of all entries, taken over their C-order flattening, as a float.

    An empty array sums to 0.0.
    """
    return float(np.add.reduce(np.ascontiguousarray(values, dtype=float).ravel()))


def ordered_sum_along(values: np.ndarray, axis: int) -> np.ndarray:
    """Sum along one axis of a 2-D array, after normalizing it to C order.

    A zero-length axis sums to zeros.
    """
    return np.add.reduce(np.ascontiguousarray(values, dtype=float), axis=axis)


def ordered_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product, reduced like ordered_sum."""
    return ordered_sum(np.asarray(a, dtype=float) * np.asarray(b, dtype=float))


def logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))) without overflow.

    The largest entry is factored out before exponentiating, which keeps the
    arguments of exp in [large negative, 0] and makes the result invariant
    (to rounding) under adding a constant to every entry.  Inputs must be
    finite and non-empty.
    """
    a = np.asarray(values, dtype=float).ravel()
    if a.size == 0:
        raise ValueError("logsumexp of an empty array")
    m = float(a.max())
    return m + float(np.log(ordered_sum(np.exp(a - m))))


def _tilt(log_weights: np.ndarray, exponents: np.ndarray) -> tuple[np.ndarray, float]:
    """exp(log w + e - L) and L = logsumexp(log w + e), given log w and e.

    Every multiplicative reweighting in the package: the Arimoto step and the
    backward member tilt by +d, the e-projection by -d.  Entries may
    underflow to 0.
    """
    logits = log_weights + exponents
    log_norm = logsumexp(logits)
    return np.exp(logits - log_norm), log_norm
