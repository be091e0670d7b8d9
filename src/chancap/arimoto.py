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
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .channel import Channel, _check_interior_input, _divergences, _marginal, per_input_divergences
from .errors import _check_limit, _check_real
from .numeric import _tilt, ordered_dot, ordered_sum
from .probability import Distribution, _normalized

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


def _sweep(q: np.ndarray, ch: Channel) -> tuple[np.ndarray, np.ndarray, Bracket]:
    """r_q, the per-input divergences from it, and the bracket they certify at q.

    q and r_q are raw weights; every caller has checked q.  A marginal entry
    that underflowed to zero goes to the checking per_input_divergences,
    which raises AbsoluteContinuityViolation; else the kernel runs unchecked.
    The check and the choice share one minimum: renormalizing by a sum
    within 1e-9 of one keeps a positive entry positive.
    """
    r = _marginal(q, ch)
    smallest = r.min()
    r = _normalized(r, smallest=smallest)
    d = _divergences(ch, r) if smallest > 0.0 else per_input_divergences(ch, r)
    lower = ordered_dot(q, d)
    return r, d, Bracket(lower, max(lower, float(d.max())))


def _multiplicative(q: Distribution, d: np.ndarray) -> Distribution:
    """q reweighted by exp(d) and normalized: the multiplicative update.

    The exponent is invariant under shifting all divergences by a constant,
    which the normalization absorbs.  A weight may underflow to 0; see _lift.
    """
    return Distribution(_tilt(np.log(q.weights), d)[0])


def _lift(q: Distribution) -> Distribution:
    """q with underflowed weights lifted to the smallest positive normal float.

    For a q that is not interior; the lifted weights are renormalized.
    """
    weights = np.maximum(q.weights, _TINY)
    return Distribution(weights / ordered_sum(weights))


def arimoto_step(q: Distribution, ch: Channel) -> Distribution:
    """One multiplicative reweighting of the input law.

    Requires an interior q, and returns an interior law.
    """
    _check_interior_input(q, ch)
    _, d, _ = _sweep(q.weights, ch)
    stepped = _multiplicative(q, d)
    return stepped if stepped.is_interior else _lift(stepped)


def capacity_bracket(q: Distribution, ch: Channel) -> Bracket:
    """Certified capacity bracket at the input law q.

    lower is the mutual information of q; upper is the worst-case divergence
    against r_q.  The weighted mean of the divergences can land a few ulp
    above their maximum when all of them coincide, so upper is floored at
    lower to keep the bracket ordered.
    """
    _check_interior_input(q, ch)
    return _sweep(q.weights, ch)[2]


class Step(NamedTuple):
    """What a stepper returns: the next iterate, and how the step made it.

    A stepper maps the current iterate q, its raw output marginal r_q and
    its divergences d to a Step.  route, residual and inner are the step's
    route, last inner residual and inner sweep count, None for a step with
    no inner loop.  _iterate lifts an iterate that is not interior and
    records the rest on the next trace record.
    """

    iterate: Distribution
    route: str | None = None
    residual: float | None = None
    inner: int | None = None


Stepper = Callable[[Distribution, np.ndarray, np.ndarray], Step]


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
    step = Step(q)
    clamped = False
    termination = Termination.MAX_ITERATIONS
    for iteration in range(1, max_iters + 1):
        r, d, (lower, upper) = _sweep(q.weights, ch)
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
                step_status=step.route,
                inner_residual=step.residual,
                inner_iterations=step.inner,
            )
        )
        if upper - lower <= tol:
            termination = Termination.CONVERGED
            break
        if iteration == max_iters:
            break
        step = stepper(q, r, d)
        clamped = not step.iterate.is_interior
        q = _lift(step.iterate) if clamped else step.iterate

    last = records[-1]
    result = CapacityResult(
        capacity=0.5 * (last.lower_bound + last.upper_bound),
        bracket=Bracket(last.lower_bound, last.upper_bound),
        optimal_input=last.input_distribution,
        iterations=len(records),
        termination=termination,
    )
    return result, IterationTrace(tuple(records))


def _arimoto_stepper(q: Distribution, r: np.ndarray, d: np.ndarray) -> Step:
    return Step(_multiplicative(q, d))


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
