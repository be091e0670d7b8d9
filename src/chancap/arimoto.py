"""Capacity of a discrete memoryless channel by multiplicative iteration.

One sweep computes, for the current input law q, the per-input divergences

    d(x) = D( p(.|x) || r_q ),    r_q = output marginal of q,

then reweights q(x) proportionally to q(x) * exp(d(x)).  Mutual information
never decreases along the iteration, and every sweep yields a certified
two-sided bracket on capacity:

    sum_x q(x) d(x)  <=  C  <=  max_x d(x).

The lower bound is the mutual information of the current iterate; the upper
bound is the minimax-redundancy bound (capacity is the smallest worst-case
divergence achievable by any output law, and r_q is one candidate).  The
solver stops when the bracket gap falls below the tolerance and reports the
bracket midpoint as capacity.

All updates run in log space so that extreme divergences cannot overflow;
a weight that still underflows is clamped to the smallest positive normal
float and the iterate renormalized, flagged on the trace record.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .channel import Channel, _check_interior_input, _divergences, _marginal, per_input_divergences
from .errors import ParameterOutOfRange
from .numeric import _tilt, ordered_dot, ordered_sum
from .probability import Distribution

__all__ = [
    "Termination",
    "Bracket",
    "TraceRecord",
    "IterationTrace",
    "CapacityResult",
    "arimoto_step",
    "capacity_bracket",
    "solve_arimoto",
]

_TINY = float(np.finfo(np.float64).tiny)


class Termination(str, enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"


class Bracket(NamedTuple):
    lower: float
    upper: float


@dataclass(frozen=True)
class TraceRecord:
    """State of the solver at one iteration, before stepping.

    step_status, inner_residual and inner_iterations describe the step that
    produced this iterate; they are populated only by solvers whose step has
    an inner loop.  clamped marks an iterate that needed the underflow clamp
    when it was produced.
    """

    iteration: int
    lower_bound: float
    upper_bound: float
    per_input_divergence: np.ndarray
    input_distribution: Distribution
    clamped: bool = False
    step_status: str | None = None
    inner_residual: float | None = None
    inner_iterations: int | None = None

    @property
    def mutual_info(self) -> float:
        """The mutual information of the iterate, which is lower_bound."""
        return self.lower_bound

    @property
    def gap(self) -> float:
        return self.upper_bound - self.lower_bound


@dataclass(frozen=True)
class IterationTrace:
    """The full bracket history of one solver run."""

    records: tuple[TraceRecord, ...]

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass(frozen=True)
class CapacityResult:
    """Capacity estimate with its certificate bracket."""

    capacity: float
    bracket: Bracket
    optimal_input: Distribution
    iterations: int
    termination: Termination


def _sweep(q: Distribution, ch: Channel) -> tuple[Distribution, np.ndarray, Bracket]:
    """r_q, the per-input divergences from it, and the bracket they certify at q.

    Every caller has checked q.  A marginal entry that underflowed to zero
    goes to the checking per_input_divergences, which raises
    AbsoluteContinuityViolation; otherwise the kernel runs unchecked.
    """
    r = Distribution._trusted(_marginal(q.weights, ch))
    if r.weights.min() > 0.0:
        d = _divergences(ch, r.weights)
    else:
        d = per_input_divergences(ch, r.weights)
    lower = ordered_dot(q.weights, d)
    return r, d, Bracket(lower, max(lower, float(d.max())))


def _clamp(weights: np.ndarray) -> tuple[np.ndarray, bool]:
    """Lift underflowed weights to the smallest positive normal float.

    Returns the (renormalized) weights and whether any entry was lifted.
    """
    clamped = bool((weights == 0.0).any())
    if clamped:
        weights = np.maximum(weights, _TINY)
        weights = weights / ordered_sum(weights)
    return weights, clamped


def arimoto_step(q: Distribution, ch: Channel) -> Distribution:
    """One multiplicative reweighting of the input law.

    Requires an interior q.  The exponent is invariant under shifting all
    divergences by a constant, which the normalization absorbs.
    """
    _check_interior_input(q, ch)
    _, d, _ = _sweep(q, ch)
    fresh, _ = _clamp(_tilt(np.log(q.weights), d)[0])
    return Distribution(fresh)


def capacity_bracket(q: Distribution, ch: Channel) -> Bracket:
    """Certified capacity bracket at the input law q.

    lower is the mutual information of q; upper is the worst-case divergence
    against r_q.  The weighted mean of the divergences can land a few ulp
    above their maximum when all of them coincide, so upper is floored at
    lower to keep the bracket ordered.
    """
    _check_interior_input(q, ch)
    return _sweep(q, ch)[2]


def _check_real(name: str, value, upper: float = math.inf) -> None:
    """Raise ParameterOutOfRange unless value is a real number in (0, upper].

    `not 0 < value` rejects NaN too, which would never stop an iteration; a
    string or None would otherwise reach the comparison and raise a bare
    TypeError.
    """
    if not (isinstance(value, numbers.Real) and 0.0 < value <= upper):
        allowed = "positive" if upper == math.inf else f"in (0, {upper:g}]"
        raise ParameterOutOfRange(f"{name} must be a real number {allowed}, got {value!r}")


def _check_limit(name: str, value) -> None:
    """Raise ParameterOutOfRange unless value is an integer of at least 1.

    Any integer type numpy or Python provides passes; a float, even a whole
    one, does not, since range() would reject it later with a bare TypeError.
    """
    try:
        operator.index(value)
    except TypeError:
        raise ParameterOutOfRange(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ParameterOutOfRange(f"{name} must be at least 1, got {value!r}")


# Maps the current iterate q, its output marginal r_q and its divergences d to
# the raw next weights, plus the step's inner status, residual and iteration
# count (None for single-sweep steps).  _iterate clamps the weights and
# records the rest on the next trace record.
Stepper = Callable[
    [Distribution, Distribution, np.ndarray],
    tuple[np.ndarray, str | None, float | None, int | None],
]


def _iterate(
    ch: Channel,
    tol: float,
    max_iters: int,
    initial: Distribution | None,
    stepper: Stepper,
) -> tuple[CapacityResult, IterationTrace]:
    _check_real("tolerance", tol)
    _check_limit("max_iters", max_iters)
    q = Distribution.uniform(ch.num_inputs) if initial is None else initial
    _check_interior_input(q, ch)

    records: list[TraceRecord] = []
    previous = -math.inf
    clamped = False
    status: str | None = None
    residual: float | None = None
    inner: int | None = None
    termination = Termination.MAX_ITERATIONS
    for iteration in range(1, max_iters + 1):
        r, d, (lower, upper) = _sweep(q, ch)
        # Brackets are ordered and mutual information never falls, up to a
        # 1e-12 rounding slack; a NaN bound fails the comparison too.
        if not previous - 1e-12 <= lower <= upper:
            raise AssertionError(
                f"iteration {iteration}: bracket ({lower!r}, {upper!r}) is unordered "
                f"or below the previous lower bound {previous!r}"
            )
        previous = lower
        records.append(
            TraceRecord(
                iteration=iteration,
                lower_bound=lower,
                upper_bound=upper,
                per_input_divergence=d,
                input_distribution=q,
                clamped=clamped,
                step_status=status,
                inner_residual=residual,
                inner_iterations=inner,
            )
        )
        if upper - lower <= tol:
            termination = Termination.CONVERGED
            break
        if iteration == max_iters:
            break
        fresh, status, residual, inner = stepper(q, r, d)
        fresh, clamped = _clamp(fresh)
        q = Distribution._trusted(fresh)

    last = records[-1]
    result = CapacityResult(
        capacity=0.5 * (last.lower_bound + last.upper_bound),
        bracket=Bracket(last.lower_bound, last.upper_bound),
        optimal_input=last.input_distribution,
        iterations=len(records),
        termination=termination,
    )
    return result, IterationTrace(tuple(records))


def _arimoto_stepper(q: Distribution, r: Distribution, d: np.ndarray):
    return _tilt(np.log(q.weights), d)[0], None, None, None


def solve_arimoto(
    ch: Channel,
    tol: float = 1e-9,
    max_iters: int = 100000,
    initial: Distribution | None = None,
) -> tuple[CapacityResult, IterationTrace]:
    """Iterate multiplicative sweeps until the bracket gap is at most tol.

    Starts from the uniform input unless an interior initial law is given.
    The divergence vector of each iterate is computed once and reused for the
    update, the bracket, and the trace record.
    """
    return _iterate(ch, tol, max_iters, initial, _arimoto_stepper)
