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
backward alternation to the classical iteration: solve_backward_em's
fallback is the multiplicative update the classical solver steps with, and
its exact step hands the converged member's induced input on as the next
iterate itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .arimoto import CapacityResult, IterationTrace, Step, _iterate, _multiplicative, _sweep
from .channel import (
    Channel,
    _check_interior_input,
    _divergences,
    _marginal,
    output_marginal,
    per_input_divergences,
)
from .errors import DimensionMismatch, _check_limit, _check_probability, _check_real
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
    d = per_input_divergences(ch, output_factor.weights)
    induced, log_norm = _tilt(np.log(base_input.weights), d)
    return BackwardFamilyMember(base_input, output_factor, Distribution(induced), log_norm)


# The default inner damping; see exact_backward_m_step for why 0.8.
_DAMPING = 0.8


def _check_inner_parameters(inner_tol: float, max_inner: int, damping: float) -> None:
    """Raise ParameterOutOfRange unless the exact m-step's settings are usable."""
    _check_real("damping", damping, upper=1.0)
    _check_real("inner_tol", inner_tol)
    _check_limit("max_inner", max_inner)


def exact_backward_m_step(
    base_input: Distribution,
    ch: Channel,
    inner_tol: float = 1e-10,
    max_inner: int = 10000,
    damping: float = _DAMPING,
    *,
    _outer_sweep: tuple[np.ndarray, np.ndarray] | None = None,
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

    Why the default damping is 0.8: at a fixed point r* the Jacobian of T is
    -Cov_{q[r*]}(P) diag(1/r*), the covariance taken over inputs x of the
    rows P(.|x).  Its spectrum lies in [-1, 0], because the covariance is at
    most diag(r*).  A damped sweep multiplies the error along an eigenvalue
    -s by 1 - damping * (1 + s).  Damping 0.8 keeps every factor in
    [-0.6, 0.2], so the sweep always contracts; damping 0.5 gives [0, 0.5].
    Noisy channels have most of their spectrum near s = 0, where 0.8
    contracts by 0.2 and 0.5 only by 0.5.  Measured on random channels of
    2-16 inputs, 0.8 takes about half the inner sweeps per outer step that
    0.5 takes, with no non-converged step.  Channels with two outputs can
    sit near s = 1 instead, where 0.8 is the slower of the two.

    _outer_sweep is the pair of raw arrays (output marginal of base_input,
    per-input divergences from it) when the caller has just computed them,
    as the solver's iteration has; the first sweep then starts from them.
    """
    _check_interior_input(base_input, ch)
    _check_inner_parameters(inner_tol, max_inner, damping)

    # The sweep runs on raw arrays: log q_t is taken once, and only the
    # converged solution becomes a BackwardFamilyMember.
    log_base = np.log(base_input.weights)
    if _outer_sweep is None:
        r, d, _ = _sweep(base_input.weights, ch)
    else:
        r, d = _outer_sweep
    residual = np.inf
    for sweep in range(max_inner + 1):
        weights, log_norm = _tilt(log_base, d)
        induced = _normalized(weights)
        mapped = _normalized(_marginal(induced, ch))
        residual = float(np.abs(mapped - r).max())
        if residual <= inner_tol:
            member = BackwardFamilyMember(base_input, Distribution(r), Distribution(induced), log_norm)
            return MStepOutcome(member, residual, sweep, MStepStatus.EXACT_CONVERGED)
        if sweep == max_inner:
            break
        blended = (1.0 - damping) * r + damping * mapped
        if (blended == 0.0).any():
            # The sweep is heading for the boundary of the output simplex;
            # the closed forms above stop being finite there.  Past this
            # test r has no zero entry, so the unchecked kernel applies.
            break
        r = _normalized(blended)
        d = _divergences(ch, r)
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
    inner_tol: float = 1e-10,
    damping: float = _DAMPING,
    max_inner: int = 10000,
    initial: Distribution | None = None,
) -> tuple[CapacityResult, IterationTrace]:
    """Backward alternation with the same bracket stopping rule as the
    classical solver.

    Each outer iteration attempts the exact backward m-step and falls back to
    the approximate step when the inner solve does not converge; the trace
    records which route produced every iterate ("exact" or "fallback")
    together with the inner residual reached and the inner sweeps taken.  The
    m-step starts from the output marginal and divergences the iteration has
    already computed at q_t, and the approximate step is the multiplicative
    tilt of those divergences, so neither costs a further pass over the
    channel.
    """

    # Checked here as well as in every m-step, since a run that converges at
    # its first record never takes a step.
    _check_inner_parameters(inner_tol, max_inner, damping)

    def stepper(q: Distribution, r: np.ndarray, d: np.ndarray) -> Step:
        # Called by its module-level name, so a wrapper installed there sees
        # every m-step.
        outcome = exact_backward_m_step(
            q, ch, inner_tol, max_inner, damping, _outer_sweep=(r, d)
        )
        if outcome.status is MStepStatus.EXACT_CONVERGED:
            iterate, route = outcome.solution.induced_input, "exact"
        else:
            iterate, route = _multiplicative(q, d), "fallback"
        return Step(iterate, route, outcome.residual, outcome.inner_iterations)

    return _iterate(ch, tol, max_iters, initial, stepper)
