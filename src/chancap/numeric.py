"""Deterministic floating point reductions.

Every reduction in the package is np.add.reduce or _contract, over
C-contiguous operands, and never BLAS, whose thread splits can change
rounding.  _contract is numpy's c_einsum, the C function that np.einsum
without optimize hands its operands to unchanged (numpy/_core/einsumfunc.py:
"if optimize is False: return c_einsum(*operands)"); calling it directly
skips the array-function dispatcher and the Python wrapper and computes
the same bits.  The helpers here normalize layout with np.ascontiguousarray
before reducing; the channel kernel contracts the C-ordered channel matrix
with _contract, which reduces in its own loops and builds no n x m
temporary.  For a fixed numpy build the result is then a pure function of
the operand values and shape: repeated evaluation is bit-identical, and so
is evaluation of the same values behind a different layout (a strided or
Fortran-ordered view) or at a different alignment.  The grouping itself is
numpy's: np.add.reduce sums pairwise along the contiguous last axis and
strictly row after row along axis 0 of a 2-D array; the contraction
"x,xy->y" adds row after row too, and its row contractions group as its
inner loops do.

The hot minima and maxima call np.minimum.reduce and np.maximum.reduce,
the ufunc reductions that ndarray.min and ndarray.max reach through
numpy's Python-level _methods module; a minimum or maximum is exact, so
skipping that frame changes no bit either.

Two exceptions remain, both deterministic for a fixed build.  The Newton
step of the exact backward m-step (see backward_em._inner_step), on
channels of at most 32 outputs, solves a system of at most 32x32 with
_solve, and the support-Newton route (arimoto._support_newton) one of
at most 65x65: LAPACK's gesv through numpy's solve1 gufunc, in the error state
np.linalg.solve gives it (_solving, entered once per loop of solves), so
that a singular system raises LinAlgError.
np.linalg.solve calls that gufunc for a 1-D right-hand side; calling it
directly skips about 14 Python-level calls of its wrapper and computes the
same bits.  c_einsum and solve1 are private names; on a numpy without them
_contract is np.einsum and _solve np.linalg.solve, with the same bits.
verify.brute_force_capacity forms its grid product with @ on channels of
at most 4 inputs.  Results stay bit-identical across runs and
across BLAS thread counts; the tests check this at 1 and 2 threads.

All public quantities in the package are float64 nats.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDistribution

# c_einsum moved from numpy.core to numpy._core in numpy 2.0; solve1 is in
# numpy.linalg._umath_linalg on 1.24 and 2.x alike.  Both are private: a
# numpy that moves either one gets the public function that wraps it,
# which computes the same bits a few microseconds slower.
try:
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        from numpy._core.multiarray import c_einsum as _contract
    else:
        from numpy.core.multiarray import c_einsum as _contract
except ImportError:
    _contract = np.einsum
try:
    from numpy.linalg._umath_linalg import solve1 as _solve1
except ImportError:
    _solve1 = None

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
    finite; an empty one raises InvalidDistribution.
    """
    a = np.asarray(values, dtype=float).ravel()
    if a.size == 0:
        raise InvalidDistribution("logsumexp of an empty array")
    m = float(np.maximum.reduce(a))
    return m + float(np.log(ordered_sum(np.exp(a - m))))


def _log_tilt(log_weights: np.ndarray, exponents: np.ndarray) -> tuple[np.ndarray, float]:
    """log w + e - L and L = logsumexp(log w + e), given log w and e.

    The multiplicative reweighting in the natural coordinates log w, where
    it is a shift: the backward solver's exact step tilts its iterate's
    log-weights this way (see backward_em._point), and _tilt takes exp of
    the result.  The Arimoto step needs no L, so it shifts its logits by
    their maximum and divides the exponentials by their sum instead (see
    arimoto._arimoto_stepper).  The
    log-sum-exp is logsumexp's, inline: the same operations in the same
    order, without its layout normalization and empty-input guard, which a
    fresh non-empty 1-D sum does not need.
    """
    logits = log_weights + exponents
    m = float(np.maximum.reduce(logits))
    log_norm = m + float(np.log(float(np.add.reduce(np.exp(logits - m)))))
    return logits - log_norm, log_norm


def _tilt(log_weights: np.ndarray, exponents: np.ndarray) -> tuple[np.ndarray, float]:
    """exp(log w + e - L) and L = logsumexp(log w + e), given log w and e.

    The reweightings that start from weights and keep no log-weights:
    family members tilt by +d, the e-projection by -d.  Entries may
    underflow to 0.
    """
    tilted, log_norm = _log_tilt(log_weights, exponents)
    return np.exp(tilted), log_norm


def _singular(error: str, flag: int) -> None:
    raise np.linalg.LinAlgError("singular matrix")


def _solving() -> np.errstate:
    """The error state np.linalg.solve gives its gufunc, in which _solve runs.

    solve1 flags a singular system as "invalid", which raises LinAlgError,
    and every other flag is ignored.  A caller enters it once around a loop
    of solves, not once per solve, which costs about 2 us.  Inside it an
    invalid operation of any other numpy call raises LinAlgError too, so
    the loops that enter it take logs and quotients of positive numbers
    only.
    """
    return np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore")


# np.linalg.solve(a, b) for a float64 square a and 1-D b, through its
# gufunc, called inside _solving(); without solve1, np.linalg.solve itself.
_solve = np.linalg.solve if _solve1 is None else _solve1
