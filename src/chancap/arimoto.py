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
an underflowed weight is an exact 0 whose log keeps evolving.  The public
arimoto_step is the solvers' step from the log of its argument's weights,
so its result, like approximate_m_step's, may hold such an exact 0.

The sweeps find the support of a capacity-achieving input long before
the weights off it have decayed: perfbench's slow32 takes 11,357 sweeps
to a gap of 1e-7 and 72,554 to 1e-9.  So solve_arimoto, like the
backward solver's adaptive default, tries a route that finishes the run:
Newton on the Kuhn-Tucker conditions restricted to the support, d_x(q_S)
= C for x in S with sum q_S = 1 (Gallager 1968, sec. 4.5).  The try is
the iteration loop's, not a stepper's: before a step, _run may try with
_try_finish, which solves with _support_newton and decides whether a
candidate ends the run.  The conditions say that at the optimum d_x = C
on the support and d_x <= C off it, and they alone pick S: the inputs
whose d_x is at least 2L - U, within the gap U - L of the lower bound L.
Near an optimum every input of the support has d_x within about the gap
of L, while an unused input's d_x stays below C by a margin, so the test
leaves it out long before the sweeps have decayed its weight.  A try
runs only when |S| is at most min(m, _MAX_SUPPORT), m the number of
outputs, and the gap is below the loop's retry_below.  The conditions
also say which inputs S lacks or holds wrongly.  So when a Newton step
sends weights to 0 or below, the most negative input leaves S, and so
does every other such input whose d_x at the iterate is below its lower
bound, a weight the sweeps are shrinking; the rest stay.  And when a
candidate's sweep gives the largest d_x to an input off S, above the
candidate's lower bound, that input re-enters S, at most once per try,
and the solve starts again from the candidate.  A solve stops at a
correction of at most sqrt(eps), about 1.5e-8, where the next would be at
the rounding floor.  Each candidate is swept over every row, like any
iterate, and accepted only when its lower bound does not fall below the
iterate's and its gap is at most tol, so it is the run's last record, in
place of the step, and a wrong support costs a refused try, never a
wrong bracket.  A refused try adds no record and changes
nothing, and the next waits until the gap is below _RETRY_FRACTION (0.1)
times the gap at the refused one.  So every solve_arimoto record before the last
is the multiplicative sweep's, bit for bit.  The per-step progress bound
C - I(q_t) <= sum_x q*(x) log(q_{t+1}(x) / q_t(x)) still holds at the
last step, where q_{t+1} is the finished law q*: there it reads C - I(q)
<= D(q* || q), which Arimoto's inequality (IEEE Trans. Inform. Theory
18(1), 1972) gives for every interior q; an input off the support of q*
adds nothing to either side.  The finished law is exactly 0 off the
support it solved, so optimal_input holds exact zeros there, and a warm
start from it needs an interior law.

The iteration is one generator, _run, over raw weight arrays: it yields
each iterate with its divergences, bounds and the Step that made it.  Both
solvers are deterministic maps from one iterate, and the Step that made
it, to the next, so the trace keeps only each iterate's scalars (bounds,
route, inner residual, inner count, step size, rejected candidates and
their inner steps), and no array.  The Step fields after sweep are named
for the TraceRecord fields they fill, so _COLUMNS is the two bounds and
those names, _row slices a row from the bounds and the Step, and one flat
list keeps one row per iterate.  Each solver keeps the columns its steps
fill: the backward solver all of _COLUMNS, about 145 bytes per iterate,
and solve_arimoto, whose step has no inner loop, the bounds and the
route (_ARIMOTO_COLUMNS), about 75 bytes; the route is None on every
sweep and "support_newton" on a finish.  The first read of
IterationTrace.records runs _run again from the same start, checks every
replayed row against the kept one bit for bit, and builds the
TraceRecords, with each iterate's divergences and Distribution, from the
replay; len(trace) and IterationTrace._column build nothing.  A stepper
that has already swept the iterate it returns hands the sweep on in its
Step, and the loop does not sweep it again.  A stepper's own state (the
log-weights, the backward solver's step size) lives on its Step: _run
hands each stepper the Step that made the current iterate, so a replay,
which starts from the same Step, takes the same steps.  The gap below
which the next support-Newton try may run is a local of the loop, so a
replay, which restarts the loop, takes the same tries, and no Step
carries it.  A finish's Step carries no log-weights: it is the run's last
record, so no stepper is handed it.
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
from .numeric import _contract, _solve, _solving
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
    step has an inner loop, and step_size is None for the support-Newton
    route, which has no step size.  solve_arimoto fills step_status
    alone: None on a sweep, "support_newton" on the run's finish.
    clamped is always False: both solvers carry log-weights, so no iterate is
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


class Step(NamedTuple):
    """What a stepper returns: the next iterate, and how the step made it.

    A stepper maps the _sweep tuple (r_q, d, lower, upper) at the current
    iterate q and the Step that made q to a Step: q is that Step's iterate.
    iterate is a raw weight array the stepper has passed through
    probability._normalized.
    log_weights is the iterate's log-weights up to an additive constant,
    which no step depends on: an entry far below the largest is an exact 0
    in iterate and a finite number here.  The start's Step carries np.log
    of the start weights; the Arimoto step hands on its logits shifted so
    that their maximum is exactly 0, of which iterate is exp divided by its
    sum, and an exact backward step its induced input's log-weights, of
    which iterate is exp.  A stepper steps from the log-weights it is
    handed and returns its iterate's.  sweep is _sweep's tuple at iterate
    when the stepper has computed it, None otherwise, and becomes the next
    iterate's.  The fields after sweep fill the TraceRecord fields of the
    same names: the step's route, last inner residual, inner sweep count,
    step size, the candidates it rejected before its last inner solve and
    the inner steps those rejected solves took, None for a step with no
    inner loop.  A support-Newton finish, which _run makes in place of a
    step, is a Step too, with step_status "support_newton" and log_weights
    None, since no step follows it.  _run yields each Step with the
    iterate it made.
    """

    iterate: np.ndarray
    log_weights: np.ndarray | None
    sweep: tuple | None = None
    step_status: str | None = None
    inner_residual: float | None = None
    inner_iterations: int | None = None
    step_size: float | None = None
    rejected_candidates: int | None = None
    rejected_inner_iterations: int | None = None


# The scalars a trace can keep of each iterate, in the order _row gives
# them: the bounds, then the Step fields after sweep.  A trace keeps a
# leading run of them: the backward solver all, solve_arimoto the bounds
# and the route, which is None but on a support-Newton finish.
_COLUMNS = ("lower_bound", "upper_bound", *Step._fields[3:])
_ARIMOTO_COLUMNS = _COLUMNS[:3]


def _row(lower: float, upper: float, step: Step, columns: tuple) -> tuple:
    """The trace's row for one iterate of _run: its bounds, then the fields
    of the Step that made it after sweep, one entry per name in columns,
    which is _COLUMNS or _ARIMOTO_COLUMNS.

    _iterate keeps it and IterationTrace.records checks the replay against
    it.
    """
    return (lower, upper) + step[3:len(columns) + 1]


class IterationTrace:
    """The full bracket history of one solver run, stored as one flat list of scalars.

    The solver hands over kept, the _row of each iteration one after
    another, replay, a callable that restarts the run (arimoto._run) from
    the same start weights, channel, stepper and tol, and columns, the names of
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


def arimoto_step(q: Distribution, ch: Channel) -> Distribution:
    """One multiplicative reweighting of the input law.

    Requires an interior q, and returns the solvers' step from the log of
    q's weights.  Like the solvers' iterates and approximate_m_step's
    result, it may hold an exact 0 at a weight that underflowed.
    """
    _check_interior_input(q, ch)
    start = Step(q.weights, np.log(q.weights))
    return Distribution(_arimoto_stepper(_sweep(q.weights, ch), start).iterate)


def capacity_bracket(q: Distribution, ch: Channel) -> Bracket:
    """Certified capacity bracket at the input law q.

    lower is the mutual information of q; upper is the worst-case divergence
    against r_q.  The weighted mean of the divergences can land a few ulp
    above their maximum when all of them coincide, so upper is floored at
    lower to keep the bracket ordered.
    """
    _check_interior_input(q, ch)
    return Bracket(*_sweep(q.weights, ch)[2:])


Stepper = Callable[[tuple, Step], Step]


def _run(ch: Channel, q: np.ndarray, stepper: Stepper, tol: float | None = None) -> Iterator[tuple]:
    """The iteration from the raw start weights q: one (q, d, lower, upper,
    step) per iterate, without end.

    d, lower and upper are _sweep's at q, and step is the Step that made q
    (for the start, one that carries np.log(q) and nothing else).  The
    stepper is handed the sweep and step, not q, which is step.iterate.  q
    may hold exact zeros, at weights whose log-weights fell below the
    subnormal range.  The next step is taken only when the next iterate is
    asked for.  This is the only loop body: _iterate runs it once to stop
    and keep the trace's scalars, and IterationTrace.records runs it again
    for the arrays.

    With tol, a support-Newton try comes before each step while the gap is
    below retry_below, inf until a try is refused and then _RETRY_FRACTION
    times the gap at the refused one.  Its support S is the inputs whose
    d_x is at least 2L - U, L and U the bounds the sweep gave (the
    Kuhn-Tucker test; see the module docstring).  It runs when |S| is at
    most min(m, _MAX_SUPPORT), m the number of outputs, from q with the d
    and lower the sweep gave, and its accepted candidate (see _try_finish)
    is the next Step, in place of the stepper's.  A try that does not run
    leaves retry_below as it is.  retry_below is the loop's own, so a
    replay, which restarts the loop, takes the same tries.

    S always holds an input of positive weight, so the try's w / sum(w)
    never divides by zero: L is the q-weighted mean of d, so some input of
    positive weight has d_x >= L >= 2L - U.  (A try runs only at a gap
    above tol, so U is the largest d_x; were L rounded above every d_x of
    positive weight, that gap would be within the rounding of L and the
    largest d_x at an input of weight 0, which a weight reaches only by
    underflow, after hundreds of sweeps with its d_x below L.)
    """
    step = Step(q, np.log(q))
    # -inf without tol: no gap is below it, so no try runs.
    retry_below = -math.inf if tol is None else math.inf
    while True:
        _, d, lower, upper = sweep = _sweep(q, ch) if step.sweep is None else step.sweep
        yield q, d, lower, upper, step
        finished = None
        if upper - lower < retry_below:
            support = (d >= 2.0 * lower - upper).nonzero()[0]
            if support.size <= min(ch.num_outputs, _MAX_SUPPORT):
                finished = _try_finish(q, d, lower, support, ch, tol)
                if finished is None:
                    retry_below = _RETRY_FRACTION * (upper - lower)
        step = stepper(sweep, step) if finished is None else finished
        q = step.iterate


def _iterate(
    ch: Channel,
    tol: float,
    max_iters: int,
    initial: Distribution | None,
    stepper: Stepper,
    columns: tuple[str, ...],
    finishes: bool = False,
) -> tuple[CapacityResult, IterationTrace]:
    """The solver loop: steps with stepper from initial (uniform when None)
    until the gap is at most tol or max_iters iterates, keeping each
    iterate's _row over columns.  finishes says whether the run tries the
    support-Newton route (see _run)."""
    _check_channel(ch)
    _check_real("tolerance", tol)
    _check_limit("max_iters", max_iters)
    start = Distribution.uniform(ch.num_inputs) if initial is None else initial
    _check_interior_input(start, ch)
    run = partial(_run, ch, start.weights, stepper, tol if finishes else None)

    # The trace's rows, one after another.
    kept = []
    previous = -math.inf
    termination = Termination.MAX_ITERATIONS
    for iteration, (q, _, lower, upper, step) in enumerate(run(), 1):
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
    return result, IterationTrace(kept, run, columns)


# The support-Newton route is tried only when its support S (see _run)
# has at most min(m, _MAX_SUPPORT) inputs: its system is (|S| + 1) x
# (|S| + 1), and more inputs than outputs make it singular.  A try makes
# at most _MAX_SUPPORT_STEPS Newton steps, restarts and re-admissions
# included, and its solves stop at a correction of at most _SETTLED, the
# square root of the float64 epsilon: Newton's next correction, about
# its square, would be at the rounding floor.  After a refused try, the next
# waits until the gap is below _RETRY_FRACTION times the gap at the
# refused one.
_MAX_SUPPORT = 64
_MAX_SUPPORT_STEPS = 128
_SETTLED = math.sqrt(np.finfo(float).eps)
_RETRY_FRACTION = 0.1


class _Finish(NamedTuple):
    """What _support_newton found: the solved weights, raw and checked,
    the support they are positive on, the max-norm of the last Newton
    correction and the Newton steps the try has taken, restarts included."""

    weights: np.ndarray
    support: np.ndarray
    residual: float
    steps: int


def _support_newton(
    q: np.ndarray, d: np.ndarray, lower: float, support: np.ndarray, ch: Channel, steps: int = 0
) -> _Finish | None:
    """Newton on the Kuhn-Tucker conditions restricted to a support S, or None.

    support holds the sorted indices of S; d and lower are _sweep's
    divergences and lower bound L at q.  With r = q_S P_S and d_x = D(P_x
    || r), the conditions are d_x(q_S) = C for every x in S, with sum q_S
    = 1 (Gallager, Information Theory and Reliable Communication, 1968,
    sec. 4.5).  The Jacobian of d_S is -M, M = P_S diag(1/r) P_S^T, so each
    step solves the symmetric system bordered by the C column

        [M   1] [delta]   [d_S]
        [1^T 0] [  C  ] = [ 0 ],    q_S <- q_S + delta,

    with numeric._solve, inside the caller's numeric._solving(), from q's
    weights on S divided by their sum.  When a weight goes non-positive,
    the most negative input leaves S, and so does every other input whose
    weight went non-positive and whose d_x at q is below L: at the optimum
    d_x <= C off the support, and the sweeps shrink the weight of an input
    with d_x below the mean L.  An input whose d_x is at least L stays, as
    it may belong to the support.  The steps then restart from q's weights
    on the smaller S.  They stop at the first correction of at most
    _SETTLED, or no smaller than the one before.  None when a solve is
    singular, an r has a zero entry, a weight is not finite or the try
    reaches _MAX_SUPPORT_STEPS steps, steps of them taken before this
    call: no least-squares solve stands in.  The result is a guess, not a
    certificate; _try_finish sweeps it over every row.
    """
    while True:
        rows, negentropy, k = ch.matrix[support], ch.row_negentropy[support], support.size
        w = q[support]
        w = w / np.add.reduce(w)
        system = np.zeros((k + 1, k + 1))
        system[k, :k] = system[:k, k] = 1.0
        rhs = np.zeros(k + 1)
        last = math.inf
        while steps < _MAX_SUPPORT_STEPS:
            r = _contract("x,xy->y", w, rows)
            if not np.minimum.reduce(r) > 0.0:
                return None
            rhs[:k] = negentropy - _contract("xy,y->x", rows, np.log(r))
            system[:k, :k] = _contract("xy,zy->xz", rows / r, rows)
            try:
                delta = _solve(system, rhs)[:k]
            except np.linalg.LinAlgError:
                return None
            steps += 1
            change = float(np.maximum.reduce(np.abs(delta)))
            # A NaN or infinite correction fails this test.
            if not change < math.inf:
                return None
            w = w + delta
            if not np.minimum.reduce(w) > 0.0:
                break
            if change <= _SETTLED or not change < last:
                weights = np.zeros(q.size)
                weights[support] = w / np.add.reduce(w)
                return _Finish(_normalized(weights), support, change, steps)
            last = change
        else:
            # The try took _MAX_SUPPORT_STEPS steps.
            return None
        keep = (w > 0.0) | (d[support] >= lower)
        keep[w.argmin()] = False
        support = support[keep]


def _try_finish(
    q: np.ndarray, d: np.ndarray, lower: float, support: np.ndarray, ch: Channel, tol: float
) -> Step | None:
    """The Step that ends the run from the iterate q, or None when the try is refused.

    d and lower are _sweep's at q, and support the S that _run picked by
    the divergences.  _support_newton solves on S = support, and its
    candidate is swept over every row and accepted only when its lower
    bound is at least lower and its gap is at most tol.  A refused
    candidate's sweep is the Kuhn-Tucker test: an input off S with d_x
    above the candidate's lower bound C_S raises the mutual information
    when it gains weight, so it belongs in S.  When the input with the
    largest d_x is such an input, has not re-entered S in this try and S
    has room for it under min(m, _MAX_SUPPORT), it re-enters S, and the
    solve starts again from the candidate, at weight 0 for it, with the
    candidate's d and lower bound for the drop rule.  Otherwise, or when a
    solve gives up, the try is refused.  The accepted Step,
    step_status "support_newton", is the run's last record: _iterate stops
    on the same test of the same bounds, and a replay stops at the kept
    rows, so no stepper is handed it, and it carries no log-weights.  The
    whole try, solves and sweeps, runs in one numeric._solving() state.
    """
    readmitted = []
    candidate_lower, steps = lower, 0
    with _solving():
        while True:
            finish = _support_newton(q, d, candidate_lower, support, ch, steps)
            if finish is None:
                return None
            _, d, candidate_lower, upper = swept = _sweep(finish.weights, ch)
            if candidate_lower >= lower and upper - candidate_lower <= tol:
                return Step(finish.weights, None, swept, "support_newton", finish.residual, finish.steps, None, 0, 0)
            top = int(d.argmax())
            on = finish.weights > 0.0
            full = finish.support.size >= min(ch.num_outputs, _MAX_SUPPORT)
            if on[top] or top in readmitted or not d[top] > candidate_lower or full:
                return None
            readmitted.append(top)
            on[top] = True
            q, support, steps = finish.weights, on.nonzero()[0], finish.steps


def _arimoto_stepper(sweep: tuple, previous: Step) -> Step:
    """The multiplicative update of the log-weights that previous carries,
    those of its iterate q: the logits log q + d, d the divergences in
    sweep, shifted so that their maximum is 0, are the next Step's
    log-weights, and q' is exp of them divided by its sum."""
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
    Before each sweep the iteration loop may try the support-Newton route
    (see the module docstring): Newton on the Kuhn-Tucker conditions
    restricted to S, the inputs whose divergence is within the gap of the
    lower bound (d_x >= 2L - U), when there are at most min(m, 64) of
    them.  Within the try, inputs leave S by their weights and
    divergences, and re-enter it by the divergences a refused candidate's
    sweep gives.  A candidate is accepted only when its lower bound does
    not fall and its gap is at most tol, so it is the run's last record,
    whose step_status is "support_newton", and every record before it is
    the plain sweep's.
    The per-step progress bound holds at that record too, by Arimoto's
    inequality C - I(q) <= D(q* || q).  On perfbench's pinned squares the
    first try finishes every run in 2 records: r4, r8 and r16 to 1e-9,
    where the sweeps alone take 137, 932 and 1,042 (r8's first solve
    settles on four of its five support inputs, and the fifth re-enters),
    slow32 to 1e-7 or 1e-9 (11,357 and 72,554 sweeps) in 18 Newton steps,
    and r64 to 1e-9 (10,315).  The test does not wait for unused weights
    to decay: to 1e-9 a random 256x8 channel takes 261 records and a
    random 64x4 channel 45, where a try that waited for them took 10,364
    and 790.  A try costs, per Newton step, two k-row kernel passes, a k
    x k contraction over the outputs and a (k + 1)-square solve at a
    support of k inputs, then one sweep of each candidate.
    While the next try waits for the gap to fall, the loop adds one
    comparison to each sweep; while more than min(m, 64) inputs pass the
    test, it also compares every d_x with 2L - U.

    The iterates, and optimal_input, may hold exact zeros: at inputs whose
    weight underflowed, and, after the route, at every input off the
    support it solved (see the module docstring).  A warm start from
    optimal_input needs an interior law.  The divergence vector of each
    iterate is computed once and reused for the update and the bracket; the
    trace recomputes it when its records are first read.
    """
    return _iterate(ch, tol, max_iters, initial, _arimoto_stepper, _ARIMOTO_COLUMNS, True)
