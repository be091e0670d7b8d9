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

which exact_backward_m_step solves by Newton's method started at the output
marginal of q_t (a damped fixed-point sweep on channels with many outputs).
For every interior q_t the condition has exactly one solution: its induced
input is the maximizer of the strictly concave I(q) - D(q || q_t), since
dI/dq(x) = d_{r_q}(x) - 1.  Non-convergence is therefore numerical only (a
rejected inner step, or the step limit), a reported status rather than an
error, and the caller falls back to approximate_m_step: freeze the output
factor at the current output marginal.  That approximation is exactly one
multiplicative capacity sweep (see arimoto_step), which is what ties the
backward alternation to the classical iteration: solve_backward_em's
fallback is the multiplicative update the classical solver steps with.

The exact m-step's loop, _inner_solve, runs on raw arrays and checks
nothing.  exact_backward_m_step is its public form: it checks its
arguments and builds the member the loop converged to.  solve_backward_em
calls the loop directly, because its iterate is already a checked raw
array and it needs no member, only the next iterate and its output
marginal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arimoto import CapacityResult, IterationTrace, Step, _iterate, _reweighted, _sweep
from .channel import (
    Channel,
    _check_interior_input,
    _divergences,
    _marginal,
    output_marginal,
    per_input_divergences,
)
from .errors import (
    DimensionMismatch, InvalidDistribution, _check_limit, _check_probability, _check_type,
)
from .numeric import _tilt, logsumexp
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


def _inner_step(q: np.ndarray, r: np.ndarray, t: np.ndarray, ch: Channel) -> np.ndarray | None:
    """The next output factor for T(r) = r, checked, or None where it is unusable.

    q is the induced input at r and t = T(r).  Up to _NEWTON_MAX_OUTPUTS
    outputs the step is Newton's: with B = diag(sqrt q)(P - 1 t^T), B^T B
    is the covariance Cov_q(P), and the step solves the symmetric positive
    definite system (diag(r) + B^T B) u = t - r for the relative correction
    u and moves to r + r*u.  Wider channels take the damped blend.  None
    when the solve fails or the step is not an interior weight vector that
    probability._normalized accepts.
    """
    if ch.num_outputs <= _NEWTON_MAX_OUTPUTS:
        b = np.sqrt(q)[:, None] * (ch.matrix - t)
        # einsum without optimize reduces in its own loops, not through BLAS.
        system = np.einsum("xy,xz->yz", b, b)
        # diag(r) added through a view of the diagonal: adding it whole would
        # add an exact 0.0 to every other entry.
        diagonal = system.reshape(-1)[:: ch.num_outputs + 1]
        diagonal += r
        try:
            r_next = r + r * np.linalg.solve(system, t - r)
        except np.linalg.LinAlgError:
            return None
    else:
        r_next = (1.0 - _DAMPING) * r + _DAMPING * t
    smallest = r_next.min()
    # A NaN entry fails this test; an infinite one, or a sum too far from
    # one, fails the check.
    if not smallest > 0.0:
        return None
    try:
        return _normalized(r_next, smallest=smallest)
    except InvalidDistribution:
        return None


class _InnerSolve(NamedTuple):
    """Where _inner_solve stopped.

    residual is the last max-norm defect of the fixed-point condition and
    sweeps the inner steps taken.  The other fields are set only when the
    fixed point was reached: factor is the output factor r, induced the
    induced input q[r] and log_norm its log normalizer; marginal is the
    output marginal of induced, and interior says whether induced is all
    positive.  Every array has passed probability._normalized.
    """

    residual: float
    sweeps: int
    factor: np.ndarray | None = None
    induced: np.ndarray | None = None
    log_norm: float | None = None
    marginal: np.ndarray | None = None
    interior: bool = False


def _inner_solve(q: np.ndarray, r: np.ndarray, d: np.ndarray, ch: Channel, max_inner: int) -> _InnerSolve:
    """The exact m-step on raw arrays, checking nothing; see exact_backward_m_step.

    q is an interior base input, r its output marginal and d the per-input
    divergences from r, as _sweep returns them, and max_inner is a usable
    limit.
    """
    log_base = np.log(q)
    for sweep in range(max_inner + 1):
        weights, log_norm = _tilt(log_base, d)
        smallest = weights.min()
        induced = _normalized(weights, smallest=smallest)
        mapped = _normalized(_marginal(induced, ch))
        residual = float(np.abs(mapped - r).max())
        if residual <= _INNER_TOL:
            return _InnerSolve(residual, sweep, r, induced, log_norm, mapped, bool(smallest > 0.0))
        r = _inner_step(induced, r, mapped, ch) if sweep < max_inner else None
        if r is None:
            break
        # _inner_step's check leaves r no zero entry, so the unchecked
        # kernel applies.
        d = _divergences(ch, r)
    return _InnerSolve(residual, sweep)


def exact_backward_m_step(base_input: Distribution, ch: Channel, max_inner: int = 10000) -> MStepOutcome:
    """Best-effort solve of the backward fixed-point condition.

    The condition is T(r) = r, where

        T(r)(y) = sum_x q[r](x) p(y|x)

    and q[r] is the induced input of the member at r.  Starting from r_0 =
    output marginal of q_t, each inner step evaluates t = T(r_k) and moves
    to r_{k+1}.  Success means the max-norm residual |T(r) - r| fell to
    _INNER_TOL (1e-10); the member at that r is the step's solution and its
    induced input is the next iterate.  Failure to converge within
    max_inner steps, or a step that _inner_step rejects, ends the m-step
    and is reported via the status, never raised.

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
    Either step is rejected when the Newton solve fails or r_{k+1} has an
    entry <= 0, a non-finite entry or a sum the Distribution check rejects.

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
    inner = _inner_solve(q, *_sweep(q, ch)[:2], ch, max_inner)
    if inner.induced is None:
        return MStepOutcome(None, inner.residual, inner.sweeps, MStepStatus.NOT_CONVERGED_FALLBACK)
    factor, induced = Distribution(inner.factor), Distribution(inner.induced)
    member = BackwardFamilyMember(base_input, factor, induced, inner.log_norm)
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
    _check_interior_input(base_input, ch)
    for r in (r1, r2):
        _check_type("output factor", r, Distribution)
        if r.alphabet_size != ch.num_outputs:
            raise DimensionMismatch(
                f"output factor has {r.alphabet_size} symbols, channel has {ch.num_outputs}"
            )
    _check_probability("mixture weight", weight)

    if weight == 0.0 or weight == 1.0:
        # Endpoint mixtures are the endpoint members themselves; both
        # reported quantities are identically zero.
        member = backward_e_member(base_input, r1 if weight == 1.0 else r2, ch)
        return GeometricMixtureResult(member, 0.0, 0.0)

    m1 = backward_e_member(base_input, r1, ch)
    m2 = backward_e_member(base_input, r2, ch)
    with np.errstate(divide="ignore"):
        log_mix_factor = weight * np.log(r1.weights) + (1.0 - weight) * np.log(r2.weights)
    r3 = Distribution(np.exp(log_mix_factor - logsumexp(log_mix_factor)))
    m3 = backward_e_member(base_input, r3, ch)

    with np.errstate(divide="ignore"):
        log_mixture = weight * np.log(m1.product_weights()) + (1.0 - weight) * np.log(
            m2.product_weights()
        )
    log_mixture_mass = logsumexp(log_mixture)
    mixture = np.exp(log_mixture - log_mixture_mass)
    max_deviation = float(np.max(np.abs(mixture - m3.product_weights())))

    normalizer_gap = abs(
        float(
            np.expm1(
                log_mixture_mass
                + weight * m1.log_normalizer
                + (1.0 - weight) * m2.log_normalizer
                - m3.log_normalizer
            )
        )
    )
    return GeometricMixtureResult(m3, max_deviation, normalizer_gap)


def solve_backward_em(
    ch: Channel,
    tol: float = 1e-9,
    max_iters: int = 100000,
    max_inner: int = 10000,
    initial: Distribution | None = None,
) -> tuple[CapacityResult, IterationTrace]:
    """Backward alternation with the same bracket stopping rule as the
    classical solver.

    Each outer iteration attempts the exact backward m-step and falls back to
    the approximate step when the inner solve does not converge; the trace
    records which route produced every iterate ("exact" or "fallback")
    together with the inner residual reached and the inner steps taken.

    Each step runs exact_backward_m_step's loop, _inner_solve, on the raw
    iterate, starting from the output marginal and divergences the
    iteration has already computed there.  The fallback is the
    multiplicative tilt of those divergences, so it costs no further pass
    over the channel.  An exact step's induced input, a raw array, is the
    next iterate, and the output marginal its last inner step computed is
    the next sweep's, so the next sweep computes only the divergences and
    the solver builds no member or Distribution.  A clamped iterate gets a
    fresh marginal.  Per outer step the solve thus makes about two marginal
    passes, two divergence passes and one Newton solve.

    max_inner bounds the inner solve (see exact_backward_m_step).
    """

    # Checked here, before the first record: a run that converges there
    # never takes a step, and _inner_solve checks nothing.
    _check_limit("max_inner", max_inner)

    def stepper(q: np.ndarray, r: np.ndarray, d: np.ndarray) -> Step:
        inner = _inner_solve(q, r, d, ch, max_inner)
        if inner.induced is None:
            return Step(*_reweighted(q, d), "fallback", inner.residual, inner.sweeps)
        return Step(inner.induced, inner.interior, "exact", inner.residual, inner.sweeps, inner.marginal)

    return _iterate(ch, tol, max_iters, initial, stepper)
