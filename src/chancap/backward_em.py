"""Capacity by running the em alternation backward.

Forward em alternates two projections between the channel family (joints
q(x) p(y|x)) and the product family (joints q x r).  The backward variant
asks, at each outer iteration t with current joint p_t = q_t(x) p(y|x): which
product laws q x r have p_t as their e-projection back onto the channel
family?  For a fixed output factor r the answer is unique and closed-form:

    q(x) proportional to q_t(x) * exp(+d_r(x)),   d_r(x) = D(p(.|x) || r),

with log normalizer log sum_x q_t(x) exp(d_r(x)) >= 0.  These members, one
per output factor r, form an exponential family; the induced-input map above
is the inverse of the e-projection (which carries exp(-d) in its exponent),
and the divergence from p_t to any member equals the member's log normalizer.

A backward m-step then picks the member whose m-projection returns the next
channel point.  Exactly, that means solving the fixed-point condition

    sum_x q[r](x) p(y|x) = r(y)   for all y,

which exact_backward_m_step solves by Newton's method, with each step halved
until the residual falls, started at the output marginal of q_t (a damped
fixed-point sweep on channels with many outputs).
For every interior q_t the condition has exactly one solution: its induced
input is the maximizer of the strictly concave I(q) - D(q || q_t), since
dI/dq(x) = d_{r_q}(x) - 1.  Non-convergence is therefore numerical only (a
rejected inner step, or the step limit), a reported status rather than an
error, and the caller falls back to approximate_m_step: freeze the output
factor at the current output marginal.  That approximation is exactly one
multiplicative capacity sweep (see arimoto_step), which is what ties the
backward alternation to the classical iteration: solve_backward_em's
fallback is the multiplicative update the classical solver steps with.

The exact step is an entropic proximal-point step (Teboulle, "Entropic
proximal mappings", Math. Oper. Res. 17(3), 1992; for Blahut-Arimoto, Naja,
Alberge & Duhamel, ICASSP 2009).  With a step size lambda, the induced input
of the fixed point of

    q(x) proportional to q_t(x) * exp(lambda * d_r(x)),   sum_x q(x) p(y|x) = r(y),

is the maximizer of I(q) - D(q || q_t) / lambda, so I(q_{t+1}) >= I(q_t) for
every lambda > 0, and lambda = 1 is the paper's step above.  A larger
lambda moves further: as lambda grows, the step's target tends to the
capacity-achieving input itself, and its inner solve gets harder.

solve_backward_em adapts lambda by default.  Its inner solve at step size
lambda stops at a residual of max(_INNER_TOL, gap) / lambda, where gap is
the bracket gap upper - lower of the iterate it steps from.  The tilt
multiplies the divergences, and with them the error a residual leaves in
the step, by lambda, and inexact proximal-point steps converge when the
inner error shrinks as the step size grows and the iterates near the
optimum (Rockafellar, "Monotone operators and the proximal point
algorithm", SIAM J. Control Optim. 14(5), 1976; for Bregman steps,
Eckstein, Math. Program. 83, 1998); the gap is the step's own measure of
that distance.  No record depends on the inner accuracy: a candidate's
bracket is the one its own output marginal gives, so every record
certifies its own iterate, and the candidate test below guards the
ascent.  Once the gap is below _INNER_TOL the stop is _INNER_TOL /
lambda.  The paper's step size and exact_backward_m_step stop at
_INNER_TOL itself, the paper's tolerance.  lambda starts at 1 and
doubles after an exact step whose inner solve took at most _CHEAP_INNER
(3) steps (never past _MAX_STEP_SIZE).
An exact candidate is accepted when its lower bound does not fall below
the current one, or when its bracket gap is narrower than the current
one: at the rounding floor a candidate that narrows the gap may carry a
lower bound one ulp lower, and rejecting it would quarter lambda for
nothing.  A step whose inner solve fails, or whose candidate passes
neither test, is rejected and taken again from the same iterate at a
quarter of lambda (never below 1); at lambda = 1 it falls back to the
multiplicative step instead.  Each step's lambda is kept on its Step, so
a replay of the trace takes the same steps, and so are the number of
candidates it rejected and their inner steps.  Channels with more than
_NEWTON_MAX_OUTPUTS outputs take the paper's step, lambda = 1 with an
inner tolerance of _INNER_TOL: their damped inner blend diverges above
lambda of about 1.5.  step_size=1.0, the only other step size, runs the
paper's iteration, and exact_backward_m_step is always the lambda = 1
step.

The proximal steps spend most of their records after the support of the
capacity-achieving input is known, so the adaptive default, at every
width, tries a third route that finishes the run: Newton on the
Kuhn-Tucker conditions restricted to the support, d_x(q_S) = C for x in S
with sum q_S = 1 (Gallager 1968, sec. 4.5), a (|S| + 1)-square solve.
The stepper does not make the try: the iteration loop both solvers
share, arimoto._run, makes it before a step, here only when step_size is
None, and an accepted try takes the step's place.  S is the inputs whose
divergence is within the gap of the lower bound, d_x >= 2L - U (see
arimoto._run), and a try runs only when |S| is at most min(m, 64), m the
number of outputs.  Its candidate is swept over every row,
like any other, and accepted only when its lower bound does not fall and
its gap is at most tol: an accepted candidate is the run's last record,
and a wrong support costs one refused try, never a wrong bracket.  A
refused candidate's sweep may call an input back into S, and the try
solves again (see arimoto._try_finish).  The
rule is strict on purpose.  Accepting candidates that raise the lower
bound and narrow the gap without reaching tol left the inputs the route
dropped at exactly 0, where no later step revives them, and held a 64x64
channel at a gap of 1e-3.  A refused try adds no record and changes
nothing, so every record before the last is the one the run without the
route makes; the next try waits until the gap is below 0.1 times the gap
at the refused one, a threshold the loop keeps, so a replay, which
restarts the loop, takes the same tries.

The exact m-step's loop, _inner_solve, runs on raw arrays and checks
nothing.  exact_backward_m_step is its public form: it checks its
arguments and builds the member the loop converged to.  solve_backward_em
calls the loop directly, because its iterate is already a checked raw
array and it needs no member, only the next iterate, its log-weights and
its output marginal.  Like solve_arimoto, it carries the log-weights
log q_t from step to step: the loop tilts them, not the log of the
rounded weights, so a weight that underflows is an exact 0 whose log
keeps evolving, and no iterate is clamped.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arimoto import (
    _COLUMNS, CapacityResult, IterationTrace, Step, _arimoto_stepper, _iterate, _sweep,
)
from .channel import (
    Channel,
    _check_channel,
    _check_interior_input,
    _divergences,
    _marginal,
    output_marginal,
    per_input_divergences,
)
from .errors import (
    InvalidDistribution, ParameterOutOfRange, _check_limit, _check_probability, _check_real, _check_type, _plain,
)
from .numeric import _contract, _log_tilt, _solve, _solving, _tilt, logsumexp
from .probability import Distribution, _normalized

__all__ = [
    "BackwardFamilyMember",
    "MStepStatus",
    "MStepOutcome",
    "GeometricMixtureResult",
    "backward_e_member",
    "exact_backward_m_step",
    "approximate_m_step",
    "geometric_mixture_check",
    "solve_backward_em",
]


@dataclass(frozen=True)
class BackwardFamilyMember:
    """One product law whose e-projection onto the channel family is p_t.

    base_input is q_t; output_factor is the r that indexes the member;
    induced_input is the matching q; log_normalizer is both the normalization
    constant of the induced input and D(p_t || induced_input x output_factor).
    """

    base_input: Distribution
    output_factor: Distribution
    induced_input: Distribution
    log_normalizer: float

    def product_weights(self) -> np.ndarray:
        """The member's joint law, materialized on demand."""
        return np.outer(self.induced_input.weights, self.output_factor.weights)


class MStepStatus(str, enum.Enum):
    """Whether the exact m-step's inner loop reached its fixed point or gave up,
    leaving the caller to fall back to the approximate step."""

    EXACT_CONVERGED = "exact_converged"
    NOT_CONVERGED_FALLBACK = "not_converged_fallback"


@dataclass(frozen=True)
class MStepOutcome:
    """Result of attempting the exact backward m-step.

    solution is None exactly when status says the fixed point was not
    reached; residual is the last max-norm defect of the fixed-point
    condition either way.
    """

    solution: BackwardFamilyMember | None
    residual: float
    inner_iterations: int
    status: MStepStatus


@dataclass(frozen=True)
class GeometricMixtureResult:
    """What geometric_mixture_check measured.

    member is the family member at the mixed output factor; max_deviation is
    the largest entrywise gap between the normalized geometric mixture of the
    two endpoint joints and the mixed member's joint; normalizer_gap measures
    the normalization identity tying the three log normalizers together (see
    geometric_mixture_check), as a relative deviation from 1.
    """

    member: BackwardFamilyMember
    max_deviation: float
    normalizer_gap: float


def backward_e_member(
    base_input: Distribution, output_factor: Distribution, ch: Channel
) -> BackwardFamilyMember:
    """The unique family member with the given output factor.

    Computed in log space: log q(x) = log q_t(x) + d_r(x) - log_normalizer.
    The log normalizer log sum_x q_t(x) exp(d_r(x)) is also D(p_t || member),
    and is non-negative by Jensen's inequality since sum_x q_t(x) d_r(x) >= 0.
    Raises AbsoluteContinuityViolation when some channel row has mass outside
    the support of the output factor.
    """
    _check_interior_input(base_input, ch)
    _check_type("output factor", output_factor, Distribution)
    d = per_input_divergences(ch, output_factor.weights)
    induced, log_norm = _tilt(np.log(base_input.weights), d)
    return BackwardFamilyMember(base_input, output_factor, Distribution(induced), log_norm)


# The damping of every inner step on a channel wider than
# _NEWTON_MAX_OUTPUTS.  It keeps each error factor 1 - 0.8 * (1 + s) of
# that step in [-0.6, 0.2]; see exact_backward_m_step.
_DAMPING = 0.8
# The most outputs a channel may have for its inner steps to be Newton's;
# see exact_backward_m_step, and CHANGES.md for the measurement.
_NEWTON_MAX_OUTPUTS = 32
# The max-norm residual of T(r) = r at which the exact m-step has converged.
_INNER_TOL = 1e-10
# The most times one Newton step is halved before the m-step gives up.
_MAX_HALVINGS = 10


class _Point(NamedTuple):
    """The fixed-point map evaluated at one output factor r.

    induced is the induced input q[r] at step size lambda, log_induced its
    log-weights, of which induced is the rounding, log_norm its log
    normalizer, marginal its output marginal T(r) and residual the max-norm
    of T(r) - r.  induced, marginal and factor have passed
    probability._normalized.
    """

    factor: np.ndarray
    induced: np.ndarray
    log_induced: np.ndarray
    log_norm: float
    marginal: np.ndarray
    residual: float


def _point(log_base: np.ndarray, r: np.ndarray, d: np.ndarray, step_size: float, ch: Channel) -> _Point:
    """T at r, given log q_t and the divergences d from r.

    The tilt is by step_size * d, shifted by a constant that the
    normalization absorbs: by step_size * (d - max d), so that the logits
    stay at most 0 and log_norm keeps its absolute precision however large
    the step size.  At step size 1 it is by d itself, with no shift or
    multiply, so the paper's step keeps its arithmetic and its log
    normalizer.
    """
    shifted = d if step_size == 1.0 else step_size * (d - np.maximum.reduce(d))
    log_induced, log_norm = _log_tilt(log_base, shifted)
    induced = _normalized(np.exp(log_induced))
    mapped = _normalized(_marginal(induced, ch))
    residual = float(np.maximum.reduce(np.abs(mapped - r)))
    return _Point(r, induced, log_induced, log_norm, mapped, residual)


def _trial(log_base: np.ndarray, r: np.ndarray, step_size: float, ch: Channel) -> _Point | None:
    """T at r, or None unless r is an interior weight vector that probability._normalized accepts."""
    smallest = np.minimum.reduce(r)
    # A NaN entry fails this test; an infinite one, or a sum too far from
    # one, fails the check.
    if not smallest > 0.0:
        return None
    try:
        r = _normalized(r, smallest=smallest)
    except InvalidDistribution:
        return None
    # r has no zero entry, so the unchecked kernel applies.
    return _point(log_base, r, _divergences(ch, r), step_size, ch)


def _inner_step(point: _Point, log_base: np.ndarray, step_size: float, ch: Channel) -> _Point | None:
    """T at the next output factor for T(r) = r, or None where no usable step is found.

    Every trial output factor goes through _trial, which evaluates T there
    or refuses the trial.  Up to _NEWTON_MAX_OUTPUTS outputs the step is
    Newton's: with q the induced input at r, t = T(r) and B = diag(sqrt
    q)(P - 1 t^T), B^T B is the covariance Cov_q(P), and the step solves
    the symmetric positive definite system (diag(r) + lambda B^T B) u = t -
    r for the relative correction u.  The step r*u is halved, at most
    _MAX_HALVINGS times, until _trial accepts r + r*u with a residual below
    the one at r; the evaluation of that trial is the next point, so a
    full step does no extra work.  Wider channels have one trial, the
    damped blend, and return what _trial makes of it.  None when the solve
    fails or no trial passes.
    """
    q, r, t = point.induced, point.factor, point.marginal
    if ch.num_outputs > _NEWTON_MAX_OUTPUTS:
        return _trial(log_base, (1.0 - _DAMPING) * r + _DAMPING * t, step_size, ch)
    b = np.sqrt(q)[:, None] * (ch.matrix - t)
    # The contraction reduces in its own loops, not through BLAS.
    system = _contract("xy,xz->yz", b, b)
    # Exact at step size 1, so the paper's step keeps its bits.
    system *= step_size
    # diag(r) added through a view of the diagonal: adding it whole would
    # add an exact 0.0 to every other entry.
    diagonal = system.reshape(-1)[:: ch.num_outputs + 1]
    diagonal += r
    try:
        step = r * _solve(system, t - r)
    except np.linalg.LinAlgError:
        return None
    for _ in range(_MAX_HALVINGS + 1):
        trial = _trial(log_base, r + step, step_size, ch)
        # A NaN residual fails this test too.
        if trial is not None and trial.residual < point.residual:
            return trial
        step = 0.5 * step
    return None


class _InnerSolve(NamedTuple):
    """Where _inner_solve stopped.

    residual is the last max-norm defect of the fixed-point condition and
    sweeps the inner steps taken; point is the fixed point reached, None
    when it was not.
    """

    residual: float
    sweeps: int
    point: _Point | None = None


def _inner_solve(
    log_base: np.ndarray,
    r: np.ndarray,
    d: np.ndarray,
    ch: Channel,
    max_inner: int,
    inner_tol: float,
    step_size: float = 1.0,
) -> _InnerSolve:
    """The exact m-step at a step size on raw arrays, checking nothing; see exact_backward_m_step.

    log_base is the finite log-weights log q_t of the base input, r its
    output marginal and d the per-input divergences from r, as _sweep
    returns them, max_inner is a usable limit and step_size at least 1 and
    at most _MAX_STEP_SIZE.  The solve has converged at a residual of
    inner_tol: _INNER_TOL for exact_backward_m_step and the paper's step,
    and the adaptive rule's scaled tolerance in solve_backward_em.
    """
    point = _point(log_base, r, d, step_size, ch)
    # One error state for every Newton solve of the loop.
    with _solving():
        for sweep in range(max_inner + 1):
            if point.residual <= inner_tol:
                return _InnerSolve(point.residual, sweep, point)
            following = _inner_step(point, log_base, step_size, ch) if sweep < max_inner else None
            if following is None:
                break
            point = following
    return _InnerSolve(point.residual, sweep)


def exact_backward_m_step(base_input: Distribution, ch: Channel, max_inner: int = 10000) -> MStepOutcome:
    """Best-effort solve of the backward fixed-point condition.

    The condition is T(r) = r, where

        T(r)(y) = sum_x q[r](x) p(y|x)

    and q[r] is the induced input of the member at r.  Starting from r_0 =
    output marginal of q_t, each inner step evaluates t = T(r_k) and moves
    to r_{k+1}.  Success means the max-norm residual |T(r) - r| fell to
    _INNER_TOL (1e-10); the member at that r is the step's solution and its
    induced input is the next iterate.  Failure to converge within
    max_inner steps, or a step for which _inner_step finds no usable
    iterate, ends the m-step and is reported via the status, never raised.

    The step is Newton's.  The Jacobian of T at r is -C diag(1/r), with C =
    Cov_{q[r]}(P) the covariance over inputs x of the rows P(.|x).  Newton
    on T(r) - r = 0 solves (I + C diag(1/r)) delta = t - r; with delta = r*u
    this is the symmetric positive definite system

        (diag(r) + C) u = t - r,    r_{k+1} = r + r*u.

    C = B^T B with B = diag(sqrt q[r]) (P - 1 t^T).  At the fixed point the
    eigenvalues of I + C diag(1/r) lie in [1, 2], because the covariance is
    at most diag(r); away from it diag(r) alone keeps the system
    nonsingular.  C has the constant vector in its kernel, so sum_y r*u = 0
    and the step keeps r on the simplex.  On the benchmark's backward-em
    channels Newton takes 1.06 inner steps per outer step where a damped
    sweep took 4.16, with the same outer steps, and a 6x2 channel whose
    spectrum the damped sweep contracts slowly takes 0.82 where it took
    4.80.

    Forming C costs m kernel passes on a channel with m outputs, and the
    solve is m x m, so channels with more than _NEWTON_MAX_OUTPUTS (32)
    outputs take the damped sweep

        r_{k+1} = (1 - _DAMPING) * r_k + _DAMPING * t,    _DAMPING = 0.8,

    instead.  It multiplies the error along an eigenvalue -s of the
    Jacobian (s in [0, 1]) by 1 - 0.8 * (1 + s), which lies in [-0.6, 0.2].

    Every trial iterate r_{k+1}, Newton's or damped, meets one rule: it is
    usable when it has no entry <= 0, no non-finite entry and a sum the
    Distribution check accepts, and only a usable trial is evaluated.  A
    Newton step r*u is halved, at most _MAX_HALVINGS (10) times, until r +
    r*u is usable and its residual is below the one at r_k; a full step
    that passes is the undamped Newton step.  The damped step is one
    trial, taken when it is usable.  The m-step ends when the Newton solve
    fails or no trial passes.

    This is the step at step size 1.  At a step size lambda, which
    solve_backward_em takes, the tilt is by lambda * d_r, the system is
    (diag(r) + lambda C) u = t - r and the m-step has converged at a
    residual of max(_INNER_TOL, gap) / lambda, gap being the bracket gap
    of the base input.

    This function checks its arguments, runs the loop on raw arrays and
    builds the member from the arrays it converged to.  solve_backward_em
    runs the same loop, _inner_solve, without this wrapper: its iterate is
    already a checked raw array with its output marginal and divergences
    computed, and it needs no member, only the induced input and its
    output marginal.
    """
    _check_interior_input(base_input, ch)
    _check_limit("max_inner", max_inner)
    q = base_input.weights
    inner = _inner_solve(np.log(q), *_sweep(q, ch)[:2], ch, max_inner, _INNER_TOL)
    point = inner.point
    if point is None:
        return MStepOutcome(None, inner.residual, inner.sweeps, MStepStatus.NOT_CONVERGED_FALLBACK)
    factor, induced = Distribution(point.factor), Distribution(point.induced)
    member = BackwardFamilyMember(base_input, factor, induced, point.log_norm)
    return MStepOutcome(member, inner.residual, inner.sweeps, MStepStatus.EXACT_CONVERGED)


def approximate_m_step(base_input: Distribution, ch: Channel) -> Distribution:
    """Backward step with the output factor frozen at the current marginal.

    Skipping the fixed-point solve and using r = r_{q_t} directly yields the
    member whose induced input is exactly one multiplicative capacity sweep
    of q_t.
    """
    member = backward_e_member(base_input, output_marginal(base_input, ch), ch)
    return member.induced_input


def geometric_mixture_check(
    base_input: Distribution,
    r1: Distribution,
    r2: Distribution,
    weight: float,
    ch: Channel,
) -> GeometricMixtureResult:
    """Numerical witness that the backward family is an exponential family.

    Let m_i be the joint of the member at r_i and let r_3 be the normalized
    geometric mixture r_1^w * r_2^(1-w).  The normalized entrywise mixture
    m_1^w * m_2^(1-w) should coincide with the joint of the member at r_3
    (closure under geometric mixing); max_deviation measures how far it is
    off.  The unnormalized mixture mass obeys

        log sum m_1^w m_2^(1-w) = logN_3 - w logN_1 - (1-w) logN_2

    with logN_i the members' log normalizers; normalizer_gap is the relative
    defect of that identity.  Both quantities are reported, not asserted.
    """
    # Each member checks its arguments.
    m1 = backward_e_member(base_input, r1, ch)
    m2 = backward_e_member(base_input, r2, ch)
    _check_probability("mixture weight", weight)
    if weight == 0.0 or weight == 1.0:
        # Endpoint mixtures are the endpoint members themselves; both
        # reported quantities are identically zero.
        return GeometricMixtureResult(m1 if weight == 1.0 else m2, 0.0, 0.0)

    # Every member's joint is the product q[r] x r, so the mixture of two
    # joints is the product of the factors' mixtures: normalized, it is
    # (normalized q1^w q2^(1-w)) x r_3, and its log mass is the sum of the
    # two factor mixtures' log masses.  Its deviation from q3 x r_3 is
    # max_x |mixed input - q3(x)| * max_y r_3(y).  No n x m array is built.
    with np.errstate(divide="ignore"):
        log_mix_input = weight * np.log(m1.induced_input.weights) + (1.0 - weight) * np.log(
            m2.induced_input.weights
        )
        log_mix_factor = weight * np.log(r1.weights) + (1.0 - weight) * np.log(r2.weights)
    input_mass, factor_mass = logsumexp(log_mix_input), logsumexp(log_mix_factor)
    r3 = Distribution(np.exp(log_mix_factor - factor_mass))
    m3 = backward_e_member(base_input, r3, ch)

    input_deviation = np.max(np.abs(np.exp(log_mix_input - input_mass) - m3.induced_input.weights))
    max_deviation = float(input_deviation * np.max(r3.weights))
    log_defect = input_mass + factor_mass + weight * m1.log_normalizer + (1.0 - weight) * m2.log_normalizer
    normalizer_gap = abs(float(np.expm1(log_defect - m3.log_normalizer)))
    return GeometricMixtureResult(m3, max_deviation, normalizer_gap)


# The adaptive rule's step size doubles after an exact step whose inner
# solve took at most _CHEAP_INNER steps: from the warm start, Newton
# needs at most 3 to reach the scaled tolerance on most steps.  It never
# passes _MAX_STEP_SIZE, which keeps it finite however long a run lasts.
# (On the pinned squares it reaches 2**9-2**12, and 2**15 on slow32, at a
# gap of 1e-9 or 1e-13 alike: further up, the scaled tolerance nears the
# rounding floor and rejected candidates hold it back.)
_CHEAP_INNER = 3
_MAX_STEP_SIZE = 2.0**40


def _adapted(previous: Step) -> float:
    """The adaptive rule's first step size for the step after previous."""
    if previous.step_size is None:
        return 1.0
    if previous.step_status == "exact" and previous.inner_iterations <= _CHEAP_INNER:
        return min(2.0 * previous.step_size, _MAX_STEP_SIZE)
    return previous.step_size


def solve_backward_em(
    ch: Channel,
    tol: float = 1e-9,
    max_iters: int = 100000,
    max_inner: int = 10000,
    initial: Distribution | None = None,
    step_size: float | None = None,
) -> tuple[CapacityResult, IterationTrace]:
    """Backward alternation with the same bracket stopping rule as the
    classical solver.

    Each outer iteration attempts the exact backward m-step at a step size
    lambda, the maximizer of I(q) - D(q || q_t) / lambda, and falls back to
    the approximate step when the inner solve does not converge; the trace
    records which route produced every iterate ("exact" or "fallback")
    together with the inner residual reached, the inner steps taken and
    the step size, all of the inner solve that made it, the number of
    candidates the step rejected before it, and the inner steps those
    rejected candidates took.  Under the default the last iterate may
    come from a third route, "support_newton" (see the module docstring),
    whose record carries the max-norm of its last Newton correction as
    the residual, its Newton steps as the inner steps, no step size and
    no rejected candidate.

    step_size has two values.  1.0 is the paper's iteration,
    exact_backward_m_step's step, on every step.  The default, None, adapts
    lambda (see the module docstring): each inner solve stops at a residual
    of max(1e-10, gap) / lambda, gap being the bracket gap of the iterate
    it steps from; lambda starts at 1 and doubles after an exact step of at
    most three inner steps; a candidate is accepted when its lower
    bound does not fall or its bracket gap is narrower than the current
    one; a failed inner solve, or any other candidate, is rejected and
    retried from the same iterate at a quarter of lambda, and at lambda = 1
    the step falls back instead.  A channel with more than
    _NEWTON_MAX_OUTPUTS (32) outputs takes the paper's step, lambda = 1
    with inner solves to 1e-10.  Any other step_size raises
    ParameterOutOfRange.  The default also tries the support-Newton
    route, at every width, which finishes the run.  On perfbench's pinned
    r8 and r16 it finishes at the first step, so the run has 2 records to
    a gap of 1e-9 or 1e-13.  slow32 takes 2 records to 1e-13, where the
    exact steps alone took 81, and r64, above the Newton cap, 2 to 1e-9,
    where they took 10,324.  Without the route
    the default takes 14 outer steps on r8 and r16 to 1e-9, and lambda = 1
    about 1,000.

    Each step runs exact_backward_m_step's loop, _inner_solve, on the
    log-weights of the iterate that the previous Step carries (np.log of
    the start weights at the first step, as exact_backward_m_step takes
    them), starting from the output marginal and divergences the iteration
    has already computed there.  The fallback is solve_arimoto's step, the
    multiplicative tilt of those log-weights by those divergences, so it
    costs no further pass over the channel.  An exact step's induced input,
    a raw array, is the candidate iterate, and its log-weights are the ones
    the step hands on; the output marginal its last inner step computed
    gives the candidate's divergences and bounds in one divergence pass,
    and an accepted candidate hands them to the next iteration, so the
    solver builds no member or Distribution.  An outer step whose inner
    solve takes k steps thus makes k + 1 marginal passes, k + 1 divergence
    passes and k covariances and m x m Newton solves; a halved trial adds
    one marginal and one divergence pass, and a rejected candidate repeats
    the step.  k is about 1 at lambda = 1 and about 1.5-2 under the
    adaptive rule on the pinned squares, so an adaptive step costs about
    1.3 times a paper step, and the adaptive rule takes about 70 times
    fewer.  A support-Newton try at a support of k inputs costs, per
    Newton step, two k-row kernel passes, a k x k contraction over the
    outputs and a (k + 1)-square solve, then one sweep of each candidate.
    Each inner solve, and each try, enters numeric._solving() once.

    max_inner bounds each inner solve (see exact_backward_m_step).
    """

    # Checked here, before the first record: a run that converges there
    # never takes a step, and _inner_solve checks nothing.
    _check_channel(ch)
    _check_limit("max_inner", max_inner)
    if step_size is not None:
        _check_real("step_size", step_size)
        if step_size != 1.0:
            raise ParameterOutOfRange(f"step_size must be None or 1, got {_plain(step_size)}")
    adaptive = step_size is None and ch.num_outputs <= _NEWTON_MAX_OUTPUTS

    def stepper(sweep: tuple, previous: Step) -> Step:
        r, d, lower, upper = sweep
        size = _adapted(previous) if adaptive else 1.0
        # The residual each inner solve stops at, before the division by
        # the step size: the current gap, never below _INNER_TOL.
        scale = max(_INNER_TOL, upper - lower) if adaptive else _INNER_TOL
        rejected = rejected_inner = 0
        while True:
            inner = _inner_solve(previous.log_weights, r, d, ch, max_inner, scale / size, size)
            point = inner.point
            if point is not None:
                swept = _sweep(point.induced, ch, point.marginal)
                if not adaptive or swept[2] >= lower or swept[3] - swept[2] < upper - lower:
                    return Step(
                        point.induced, point.log_induced, swept, "exact", inner.residual, inner.sweeps, size,
                        rejected, rejected_inner,
                    )
            # A run that does not adapt always has size 1.
            if size == 1.0:
                return _arimoto_stepper(sweep, previous)._replace(
                    step_status="fallback", inner_residual=inner.residual, inner_iterations=inner.sweeps,
                    step_size=size, rejected_candidates=rejected, rejected_inner_iterations=rejected_inner,
                )
            size = max(0.25 * size, 1.0)
            rejected += 1
            rejected_inner += inner.sweeps

    return _iterate(ch, tol, max_iters, initial, stepper, _COLUMNS, step_size is None)
