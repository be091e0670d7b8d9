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

All updates run in log space so that extreme divergences cannot overflow.
The state of the iteration is the log-weights log q, up to an additive
constant, in which the update is a shift (Arimoto's step is affine in
these natural coordinates):

    l'(x) = l(x) + d(x) - max_x' (l(x') + d(x')),    q'(x) = exp(l'(x)) / sum_x' exp(l'(x')).

The tilt is the same whatever constant the log-weights l carry, so the
stepper keeps none: l' is the logits l + d shifted so that their largest
entry is exactly 0, one exp gives weights in (0, 1] with a largest of 1,
and q' is those divided by their sum.  That takes no log of the sum, and
the weights' rounding does not grow with the size of the logits, as that
of exp(l - log Z) does: they sum to 1 up to the rounding of one division,
so a bracket can close to a gap of exactly 0.  The stepper takes l from
the Step that made q and hands l' on in the Step it returns, so np.log
runs on the start weights only, for the start's Step.  A weight whose
shifted log falls below that of the smallest subnormal float is an exact
0 in q', while its log stays finite and keeps evolving: the input regains
weight if its divergence rises.  No weight is rebuilt from the log of its
own rounding, which would keep it in the subnormal range, where the
channel kernel's products run many times slower; and no iterate is
clamped.  A zero weight adds nothing to the output marginal.  Were every
row that reaches some output at weight 0, that marginal entry would be 0
and the checking per_input_divergences raises
AbsoluteContinuityViolation, never a wrong bracket.  Near an optimum this
cannot happen: by the Kuhn-Tucker conditions every input has
D(p(.|x) || r*) <= C, finite, so r*(y) > 0 for every output y that some
row reaches.

The backward solver carries log-weights the same way: its exact step
tilts them by the step size times the divergences from a solved output
factor, with numeric._log_tilt, and hands on its induced input's
normalized log-weights; its fallback is this step.  So in both solvers
an underflowed weight is an exact 0 whose log keeps evolving.  Only the
public arimoto_step, which promises an interior law, lifts such a weight
of its result to the smallest positive normal float and renormalizes.

The iteration is one generator, _run, over raw weight arrays: it yields
each iterate with its divergences, bounds and the Step that made it.  Both
solvers are deterministic maps from one iterate, and the Step that made
it, to the next, so the trace keeps only each iterate's scalars (bounds,
route, inner residual, inner count, step size, rejected candidates and
their inner steps), and no array: _row spells them once, _COLUMNS names
them by the TraceRecord fields they fill, and one flat list keeps one row
per iterate.  Each solver keeps the columns its steps fill: the backward
solver all of _COLUMNS, about 145 bytes per iterate, and solve_arimoto,
whose step has no inner loop, the bounds alone (_ARIMOTO_COLUMNS), about
67 bytes.  The first read of IterationTrace.records runs _run again from
the same start, checks every replayed row against the kept one bit for bit, and
builds the TraceRecords, with each iterate's divergences and Distribution, from the
replay; len(trace) and IterationTrace._column build nothing.  A stepper
that has already swept the iterate it returns hands the sweep on in its
Step, and the loop does not sweep it again.  A stepper's own state (the
log-weights, the backward solver's step size) lives on its Step: _run
hands each stepper the Step that made the current iterate, so a replay,
which starts from the same Step, takes the same steps.  The backward
solver's Step also carries the gap below which its next support-Newton
try may run, so a replay takes the same tries.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .channel import (
    Channel, _check_channel, _check_interior_input, _divergences, _marginal, per_input_divergences,
)
from .errors import _check_limit, _check_real
from .numeric import ordered_sum
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
    """Why a solver stopped: the bracket gap reached tol, or max_iters ran out."""

    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"


class Bracket(NamedTuple):
    """Lower and upper bounds on capacity in nats, lower <= upper."""

    lower: float
    upper: float


@dataclass(frozen=True)
class TraceRecord:
    """State of the solver at one iteration, before stepping.

    step_status, inner_residual, inner_iterations, step_size,
    rejected_candidates and rejected_inner_iterations describe the step
    that produced this iterate; they are populated only by solvers whose
    step has an inner loop, and step_size is None for the backward
    solver's support-Newton route, which has no step size.  clamped is
    always False: both solvers carry log-weights, so no iterate is
    clamped; the field stays for the callers that read it, perfbench's
    traced run among them.  Records are built on the first read of
    IterationTrace.records, from a replay of the run checked against the
    trace's columns.
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
    step_size: float | None = None
    rejected_candidates: int | None = None
    rejected_inner_iterations: int | None = None

    @property
    def mutual_info(self) -> float:
        """The mutual information of the iterate, which is lower_bound."""
        return self.lower_bound

    @property
    def gap(self) -> float:
        return self.upper_bound - self.lower_bound


# The scalars a trace can keep of each iterate, named by the TraceRecord
# fields they fill, in the order _row gives them.  A trace keeps a leading
# run of them: the backward solver all, solve_arimoto the bounds alone.
_COLUMNS = (
    "lower_bound", "upper_bound", "step_status", "inner_residual", "inner_iterations", "step_size",
    "rejected_candidates", "rejected_inner_iterations",
)
_ARIMOTO_COLUMNS = _COLUMNS[:2]


def _row(lower: float, upper: float, step: Step, columns: tuple) -> tuple:
    """The trace's row for one iterate of _run: its bounds and the Step that
    made it, one entry per name in columns, which is _COLUMNS or
    _ARIMOTO_COLUMNS.

    _iterate keeps it and IterationTrace.records checks the replay against
    it.
    """
    if columns is _ARIMOTO_COLUMNS:
        return lower, upper
    return (
        lower, upper, step.route, step.residual, step.inner, step.step_size, step.rejected, step.rejected_inner,
    )


class IterationTrace:
    """The full bracket history of one solver run, stored as one flat list of scalars.

    The solver hands over kept, the _row of each iteration one after
    another, replay, a callable that restarts the run (arimoto._run) from
    the same start weights, channel and stepper, and columns, the names of
    a row's entries.  No divergences or input weights are kept.  records
    replays the run for len(trace) iterates on first access, raises
    AssertionError if a replayed row differs from the kept one in any bit,
    builds the TraceRecords, each with its divergences and a Distribution
    of its input weights and None in every field not in columns, caches
    them and drops replay; len builds nothing.  Inside the package a column
    is read by its TraceRecord field name with _column: the CLI writes its
    trace CSV from them.
    """

    __slots__ = ("_kept", "_replay", "_records", "_columns")

    def __init__(self, kept, replay, columns):
        self._kept: list = kept
        self._replay: Callable[[], Iterator[tuple]] | None = replay
        self._records: tuple[TraceRecord, ...] | None = None
        self._columns: tuple[str, ...] = columns

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        if self._records is None:
            # kept's rows come first, so zip stops without asking the replay
            # for one more iterate, which would take one more step.
            columns = self._columns
            rows = zip(*[iter(self._kept)] * len(columns))
            records = []
            for iteration, (row, (q, d, lower, upper, step)) in enumerate(zip(rows, self._replay()), 1):
                replayed = _row(lower, upper, step, columns)
                # repr tells every float apart bit for bit, -0.0 from 0.0 too.
                if repr(replayed) != repr(row):
                    raise AssertionError(
                        f"iteration {iteration}: the replay gives {replayed!r}, the trace kept {row!r}"
                    )
                fields = dict(zip(columns, replayed), per_input_divergence=d, input_distribution=Distribution(q))
                records.append(TraceRecord(iteration, **fields))
            self._records = tuple(records)
            self._replay = None
        return self._records

    def _column(self, name: str) -> list:
        """The kept entries of the TraceRecord field name, one per iteration;
        None for each iteration when the trace does not keep that field."""
        if name not in self._columns:
            return [None] * len(self)
        return self._kept[self._columns.index(name)::len(self._columns)]

    def __len__(self):
        return len(self._kept) // len(self._columns)

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


def _sweep(
    q: np.ndarray, ch: Channel, r: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """r_q, the per-input divergences from it, and the bracket (lower, upper) they certify at q.

    q and r_q are raw weights; every caller has checked q.  r is r_q when
    the caller already holds it, checked by probability._normalized, and
    the marginal is then not computed again.  A marginal entry that
    underflowed to zero goes to the checking per_input_divergences, which
    raises AbsoluteContinuityViolation; else the kernel runs unchecked.  The
    check and the choice share one minimum: renormalizing by a sum within
    1e-9 of one keeps a positive entry positive.  lower is
    numeric.ordered_dot(q, d), written out: the product of two C-contiguous
    vectors needs no layout normalization.
    """
    if r is None:
        r = _marginal(q, ch)
        smallest = np.minimum.reduce(r)
        r = _normalized(r, smallest=smallest)
    else:
        smallest = np.minimum.reduce(r)
    d = _divergences(ch, r) if smallest > 0.0 else per_input_divergences(ch, r)
    lower = float(np.add.reduce(q * d))
    return r, d, lower, max(lower, float(np.maximum.reduce(d)))


def _lifted(q: np.ndarray) -> np.ndarray:
    """Raw weights q with underflowed entries lifted to the smallest positive
    normal float, renormalized and checked again."""
    weights = np.maximum(q, _TINY)
    return _normalized(weights / ordered_sum(weights))


def arimoto_step(q: Distribution, ch: Channel) -> Distribution:
    """One multiplicative reweighting of the input law.

    Requires an interior q, and returns an interior law: the solvers' step
    from the log of q's weights, with any weight that underflowed lifted.
    """
    _check_interior_input(q, ch)
    start = Step(q.weights, np.log(q.weights))
    stepped = _arimoto_stepper(q.weights, _sweep(q.weights, ch), start).iterate
    return Distribution(stepped if np.minimum.reduce(stepped) > 0.0 else _lifted(stepped))


def capacity_bracket(q: Distribution, ch: Channel) -> Bracket:
    """Certified capacity bracket at the input law q.

    lower is the mutual information of q; upper is the worst-case divergence
    against r_q.  The weighted mean of the divergences can land a few ulp
    above their maximum when all of them coincide, so upper is floored at
    lower to keep the bracket ordered.
    """
    _check_interior_input(q, ch)
    return Bracket(*_sweep(q.weights, ch)[2:])


class Step(NamedTuple):
    """What a stepper returns: the next iterate, and how the step made it.

    A stepper maps the current iterate q, the _sweep tuple (r_q, d, lower,
    upper) at q and the Step that made q to a Step.  iterate is a raw weight
    array the stepper has passed through probability._normalized.
    log_weights is the iterate's log-weights up to an additive constant,
    which no step depends on: an entry far below the largest is an exact 0
    in iterate and a finite number here.  The start's Step carries np.log
    of the start weights; the Arimoto step hands on its logits shifted so
    that their maximum is exactly 0, of which iterate is exp divided by its
    sum, and an exact backward step its induced input's log-weights, of
    which iterate is exp.  A stepper steps from the log-weights it is
    handed and returns its iterate's.  route, residual, inner, step_size,
    rejected and rejected_inner are the step's route, last inner residual,
    inner sweep count, step size, the candidates it rejected before its
    last inner solve and the inner steps those rejected solves took, None
    for a step with no inner loop; the backward solver's trace keeps them,
    through _row, as step_status, inner_residual, inner_iterations,
    step_size, rejected_candidates and rejected_inner_iterations.  sweep is
    _sweep's tuple at iterate when the stepper has computed it, None otherwise, and
    becomes the next iterate's.  retry_below is the backward solver's
    state that no trace column keeps: the next step tries its
    support-Newton route only at a gap below it, inf until a try is
    refused.  _run yields each Step with the iterate it made.
    """

    iterate: np.ndarray
    log_weights: np.ndarray
    route: str | None = None
    residual: float | None = None
    inner: int | None = None
    sweep: tuple | None = None
    step_size: float | None = None
    rejected: int | None = None
    rejected_inner: int | None = None
    retry_below: float = math.inf


Stepper = Callable[[np.ndarray, tuple, Step], Step]


def _run(ch: Channel, q: np.ndarray, stepper: Stepper) -> Iterator[tuple]:
    """The iteration from the raw start weights q: one (q, d, lower, upper,
    step) per iterate, without end.

    d, lower and upper are _sweep's at q, and step is the Step that made q
    (for the start, one that carries np.log(q) and nothing else), which the
    stepper is handed with q.  q may hold exact zeros, at weights whose
    log-weights fell below the subnormal range.  The next step is taken
    only when the next iterate is asked for.  This is the only loop body:
    _iterate runs it once to stop and keep the trace's scalars, and
    IterationTrace.records runs it again for the arrays.
    """
    step = Step(q, np.log(q))
    while True:
        _, d, lower, upper = sweep = _sweep(q, ch) if step.sweep is None else step.sweep
        yield q, d, lower, upper, step
        step = stepper(q, sweep, step)
        q = step.iterate


def _iterate(
    ch: Channel,
    tol: float,
    max_iters: int,
    initial: Distribution | None,
    stepper: Stepper,
    columns: tuple[str, ...],
) -> tuple[CapacityResult, IterationTrace]:
    """The solver loop: steps with stepper from initial (uniform when None)
    until the gap is at most tol or max_iters iterates, keeping each
    iterate's _row over columns."""
    _check_channel(ch)
    _check_real("tolerance", tol)
    _check_limit("max_iters", max_iters)
    start = Distribution.uniform(ch.num_inputs) if initial is None else initial
    _check_interior_input(start, ch)

    # The trace's rows, one after another.
    kept = []
    previous = -math.inf
    termination = Termination.MAX_ITERATIONS
    for iteration, (q, _, lower, upper, step) in enumerate(_run(ch, start.weights, stepper), 1):
        # Brackets are ordered and mutual information never falls, up to a
        # 1e-12 rounding slack; a NaN bound fails the comparison too.
        if not previous - 1e-12 <= lower <= upper:
            raise AssertionError(
                f"iteration {iteration}: bracket ({lower!r}, {upper!r}) is unordered "
                f"or below the previous lower bound {previous!r}"
            )
        previous = lower
        kept.extend(_row(lower, upper, step, columns))
        if upper - lower <= tol:
            termination = Termination.CONVERGED
            break
        if iteration == max_iters:
            break

    result = CapacityResult(
        capacity=0.5 * (lower + upper),
        bracket=Bracket(lower, upper),
        optimal_input=Distribution(q),
        iterations=iteration,
        termination=termination,
    )
    # start's weights are read-only, so the replay starts where this run did.
    replay = partial(_run, ch, start.weights, stepper)
    return result, IterationTrace(kept, replay, columns)


def _arimoto_stepper(q: np.ndarray, sweep: tuple, previous: Step) -> Step:
    """The multiplicative update of the log-weights that previous carries:
    the logits log q + d, shifted so that their maximum is 0, are the
    next Step's log-weights, and q' is exp of them divided by its sum."""
    logits = previous.log_weights + sweep[1]
    logits -= np.maximum.reduce(logits)
    weights = np.exp(logits)
    weights /= np.add.reduce(weights)
    return Step(_normalized(weights), logits)


def solve_arimoto(
    ch: Channel,
    tol: float = 1e-9,
    max_iters: int = 100000,
    initial: Distribution | None = None,
) -> tuple[CapacityResult, IterationTrace]:
    """Iterate multiplicative sweeps until the bracket gap is at most tol.

    Starts from the uniform input unless an interior initial law is given.
    The iterates, and optimal_input, may hold exact zeros at inputs whose
    weight underflowed (see the module docstring); a warm start from
    optimal_input needs an interior law.  The divergence vector of each
    iterate is computed once and reused for the update and the bracket; the
    trace recomputes it when its records are first read.
    """
    return _iterate(ch, tol, max_iters, initial, _arimoto_stepper, _ARIMOTO_COLUMNS)
