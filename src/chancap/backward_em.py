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

which exact_backward_m_step attacks with a damped fixed-point sweep started
at the output marginal of q_t.  Existence and uniqueness of a solution are
not guaranteed in general, so non-convergence is a reported status rather
than an error, and the caller falls back to approximate_m_step: freeze the
output factor at the current output marginal.  That approximation is exactly
one multiplicative capacity sweep (see arimoto_step), which is what ties the
backward alternation to the classical iteration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .arimoto import CapacityResult, IterationTrace, _check_limit, _iterate, _tilt
from .channel import (
    Channel,
    _check_interior_input,
    _marginal,
    output_marginal,
    per_input_divergences,
)
from .errors import DimensionMismatch, ParameterOutOfRange
from .numeric import logsumexp
from .probability import Distribution

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


def _induced_input(
    log_base: np.ndarray, output_factor: np.ndarray, ch: Channel
) -> tuple[Distribution, float]:
    """The induced input and log normalizer of the member at a raw factor."""
    logits = log_base + per_input_divergences(ch, output_factor)
    log_norm = logsumexp(logits)
    return Distribution._trusted(np.exp(logits - log_norm)), log_norm


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
    induced, log_norm = _induced_input(np.log(base_input.weights), output_factor.weights, ch)
    return BackwardFamilyMember(base_input, output_factor, induced, log_norm)


def _check_inner_parameters(inner_tol: float, max_inner: int, damping: float) -> None:
    """Raise ParameterOutOfRange unless the exact m-step's settings are usable."""
    if not 0.0 < damping <= 1.0:
        raise ParameterOutOfRange(f"damping must be in (0, 1], got {damping!r}")
    if not inner_tol > 0.0:
        raise ParameterOutOfRange(f"inner_tol must be positive, got {inner_tol!r}")
    _check_limit("max_inner", max_inner)


def exact_backward_m_step(
    base_input: Distribution,
    ch: Channel,
    inner_tol: float = 1e-10,
    max_inner: int = 10000,
    damping: float = 0.5,
) -> MStepOutcome:
    """Best-effort solve of the backward fixed-point condition.

    Starting from r_0 = output marginal of q_t, repeat

        r_{k+1} = (1 - damping) * r_k + damping * T(r_k),
        T(r)(y) = sum_x q[r](x) p(y|x),

    where q[r] is the induced input of the member at r.  Success means the
    max-norm residual |T(r) - r| fell to inner_tol; the member at that r is
    the step's solution and its induced input is the next iterate.  Failure
    to converge within max_inner sweeps (or an output factor underflowing to
    the boundary) is reported via the status, never raised.
    """
    _check_interior_input(base_input, ch)
    _check_inner_parameters(inner_tol, max_inner, damping)

    # The sweep runs on raw arrays: log q_t is taken once, and only the
    # converged solution becomes a BackwardFamilyMember.
    log_base = np.log(base_input.weights)
    r = output_marginal(base_input, ch)
    residual = np.inf
    for sweep in range(max_inner + 1):
        induced, log_norm = _induced_input(log_base, r.weights, ch)
        mapped = Distribution._trusted(_marginal(induced.weights, ch)).weights
        residual = float(np.max(np.abs(mapped - r.weights)))
        if residual <= inner_tol:
            member = BackwardFamilyMember(base_input, r, induced, log_norm)
            return MStepOutcome(member, residual, sweep, MStepStatus.EXACT_CONVERGED)
        if sweep == max_inner:
            break
        blended = (1.0 - damping) * r.weights + damping * mapped
        if np.any(blended == 0.0):
            # The sweep is heading for the boundary of the output simplex;
            # the closed forms above stop being finite there.
            break
        r = Distribution._trusted(blended)
    return MStepOutcome(None, residual, min(sweep, max_inner), MStepStatus.NOT_CONVERGED_FALLBACK)


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
        if r.alphabet_size != ch.num_outputs:
            raise DimensionMismatch(
                f"output factor has {r.alphabet_size} symbols, channel has {ch.num_outputs}"
            )
    if not 0.0 <= weight <= 1.0:
        raise ParameterOutOfRange(f"mixture weight must be in [0, 1], got {weight!r}")

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
    inner_tol: float = 1e-10,
    damping: float = 0.5,
    max_inner: int = 10000,
    initial: Distribution | None = None,
) -> tuple[CapacityResult, IterationTrace]:
    """Backward alternation with the same bracket stopping rule as the
    classical solver.

    Each outer iteration attempts the exact backward m-step and falls back to
    the approximate step when the inner solve does not converge; the trace
    records which route produced every iterate ("exact" or "fallback")
    together with the inner residual reached.  The approximate step is the
    multiplicative tilt of the divergences the iteration already computed at
    r_{q_t}, so the fallback costs no further pass over the channel.
    """

    # Checked here as well as in every m-step, since a run that converges at
    # its first record never takes a step.
    _check_inner_parameters(inner_tol, max_inner, damping)

    def stepper(q: Distribution, d: np.ndarray):
        outcome = exact_backward_m_step(q, ch, inner_tol, max_inner, damping)
        if outcome.status is MStepStatus.EXACT_CONVERGED:
            return outcome.solution.induced_input.weights, "exact", outcome.residual
        return _tilt(q.weights, d), "fallback", outcome.residual

    return _iterate(ch, tol, max_iters, initial, stepper)
