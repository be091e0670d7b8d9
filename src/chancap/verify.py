"""Independent checks on capacity claims.

brute_force_capacity evaluates mutual information on a dense simplex grid
with its own inline formula so it can serve as an oracle for the iterative
solvers.  It deliberately does not use the channel kernel (the cached
Channel.row_negentropy and per_input_divergences) that the solvers and the
other two checks run on, so a fault in the kernel cannot hide in both the
answer and its check.  circumcenter_check
tests the optimality condition that all supported inputs sit at one common
divergence from the optimal output law, and converse_check certifies
capacity outright when every input does.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite

import numpy as np

from .channel import Channel, _check_channel, output_marginal, per_input_divergences
from .errors import ParameterOutOfRange, TooManyInputs, _check_probability, _check_real
from .numeric import ordered_dot, ordered_sum_along
from .probability import Distribution

__all__ = [
    "brute_force_capacity",
    "CircumcenterReport",
    "circumcenter_check",
    "converse_check",
]

_MAX_GRID_POINTS = 5_000_000


def _compositions(total: int, parts: int) -> np.ndarray:
    """Every way to write total as an ordered sum of `parts` (two or three)
    non-negative integers, one per row of a float array, in lexicographic
    order."""
    first = np.arange(total + 1)
    if parts == 2:
        return np.column_stack([first, total - first]).astype(float)
    # One run of rows per first part, total - first + 1 rows long, in which
    # the second part counts up from 0.
    runs = total + 1 - first
    first = np.repeat(first, runs)
    second = np.arange(len(first)) - np.repeat(np.cumsum(runs) - runs, runs)
    return np.column_stack([first, second, total - first - second]).astype(float)


def _grid_blocks(n: int, steps: int):
    """Integer compositions of `steps` into n parts, lexicographic order.

    Yields 2-D blocks, one per value of the first coordinate with every later
    coordinate vectorized; with at most two parts the whole grid is one
    block.
    """
    if n == 1:
        yield np.array([[steps]], dtype=float)
    elif n == 2:
        yield _compositions(steps, 2)
    else:
        for first in range(steps + 1):
            rest = _compositions(steps - first, n - 1)
            yield np.column_stack([np.full(len(rest), float(first)), rest])


def _xlogx(a: np.ndarray) -> np.ndarray:
    """a log a entrywise, with 0 log 0 = 0; the log never sees a zero."""
    return np.where(a > 0.0, a * np.log(np.where(a > 0.0, a, 1.0)), 0.0)


def brute_force_capacity(ch: Channel, grid_step: float) -> tuple[float, Distribution]:
    """Exhaustive capacity estimate over a simplex grid of pitch grid_step.

    Mutual information is evaluated as (output negentropy) minus (mean row
    negentropy), a formula independent of the divergence code the solvers
    use.  Ties break to the lexicographically first grid point.  Only
    channels with at most 4 inputs are accepted, and the grid must stay below
    five million points.
    """
    _check_channel(ch)
    n = ch.num_inputs
    if n > 4:
        raise TooManyInputs(f"exhaustive search supports at most 4 inputs, got {n}")
    _check_real("grid_step", grid_step)
    if grid_step > 0.1:
        raise ParameterOutOfRange(f"grid_step must be in (0, 0.1], got {grid_step!r}")
    # A pitch below 1 / (the largest float) has no finite reciprocal, so no grid.
    scale = 1.0 / float(grid_step)
    if not isfinite(scale):
        raise ParameterOutOfRange(f"grid_step {grid_step!r} is too small: 1 / grid_step overflows")
    steps = round(scale)
    if comb(steps + n - 1, n - 1) > _MAX_GRID_POINTS:
        raise ParameterOutOfRange(
            f"grid_step {grid_step!r} with {n} inputs exceeds {_MAX_GRID_POINTS} points"
        )

    m = ch.matrix
    row_negentropy = ordered_sum_along(_xlogx(m), axis=1)

    best_value = -np.inf
    best_point: np.ndarray | None = None
    for block in _grid_blocks(n, steps):
        q_block = block / steps
        info = ordered_sum_along(q_block * row_negentropy[None, :], axis=1) - ordered_sum_along(
            _xlogx(q_block @ m), axis=1
        )
        info = np.maximum(info, 0.0)
        idx = int(np.argmax(info))
        if info[idx] > best_value:
            best_value = float(info[idx])
            best_point = q_block[idx]
    return best_value, Distribution(best_point)


def _divergences_at(q: Distribution, ch: Channel) -> np.ndarray:
    """Every input's divergence from the output marginal of q, +inf where it is infinite."""
    return per_input_divergences(ch, output_marginal(q, ch).weights, infinite="inf")


@dataclass(frozen=True)
class CircumcenterReport:
    """Outcome of the equal-divergence optimality check.

    support marks inputs whose mass exceeds the support threshold; those must
    have divergences within tol of the capacity estimate, the rest must not
    exceed it by more than tol.
    """

    passed: bool
    capacity_estimate: float
    divergences: np.ndarray
    support: np.ndarray
    support_threshold: float
    tol: float
    max_support_deviation: float
    max_off_support_excess: float


def circumcenter_check(
    q: Distribution,
    ch: Channel,
    support_threshold: float = 1e-7,
    tol: float = 1e-6,
) -> CircumcenterReport:
    """Test whether q looks like a capacity achiever.

    At an optimum every supported input is at the same divergence from the
    optimal output law (that common value being capacity), and every
    unsupported input is at no more than that divergence.  Boundary inputs
    whose divergences are infinite are reported as failures rather than
    raised.  support_threshold must be a real number in [0, 1).
    """
    _check_real("tolerance", tol)
    _check_probability("support_threshold", support_threshold)
    if support_threshold == 1.0:
        raise ParameterOutOfRange(f"support_threshold must be in [0, 1), got {support_threshold!r}")
    d = _divergences_at(q, ch)
    support = q.weights > support_threshold
    # Inputs with no mass contribute nothing to the weighted mean even when
    # their divergence is infinite, so mask them out before the dot product;
    # an infinite divergence at an input with mass makes the estimate inf.
    estimate = ordered_dot(q.weights, np.where(q.weights > 0.0, d, 0.0))
    support_deviation = off_excess = np.inf
    if np.isfinite(estimate):
        support_deviation = float(np.max(np.abs(d[support] - estimate), initial=0.0))
        off_excess = float(np.max(d[~support] - estimate, initial=0.0))
    passed = bool(np.isfinite(estimate) and support_deviation <= tol and off_excess <= tol)
    return CircumcenterReport(
        passed=passed,
        capacity_estimate=estimate,
        divergences=d,
        support=support,
        support_threshold=support_threshold,
        tol=tol,
        max_support_deviation=support_deviation,
        max_off_support_excess=off_excess,
    )


def converse_check(ch: Channel, q: Distribution, tol: float = 1e-6) -> float | None:
    """Certify capacity when all inputs share one divergence value.

    If every input's divergence from the output marginal of q lies within
    tol of every other, their midpoint value is capacity (the equal-distance
    point is simultaneously achievable and worst case) and is returned.
    Otherwise returns None; returning None is not a refutation, merely a
    failure to certify, since optima supported on a strict subset of inputs
    never satisfy the all-inputs hypothesis.
    """
    # With a NaN tolerance `high - low > tol` would be false, certifying any law.
    _check_real("tolerance", tol)
    d = _divergences_at(q, ch)
    if not np.all(np.isfinite(d)):
        return None
    high, low = float(np.max(d)), float(np.min(d))
    if high - low > tol:
        return None
    return 0.5 * (high + low)
