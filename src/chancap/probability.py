"""Finite probability distributions and their divergences.

Conventions used throughout:

* weights are float64, non-negative, and sum to one.  Construction accepts a
  sum within 1e-9 of one and renormalizes it; anything farther off is
  rejected.  Sums already within 1e-12 of one are kept bit for bit so that
  serialization round trips exactly.
* all divergences are in nats.
* zero-mass terms are skipped before the reference weight is inspected, which
  realizes the 0*log(0/q) = 0 and 0*log(0/0) = 0 conventions.

Trust boundary: validate on the way in, trust internally.  Every vector
that arrives from outside the package is validated by the constructor,
which copies it, and every public function checks its arguments.  The
private Distribution._trusted is only for 1-D float arrays the package has
just allocated from checked inputs (a solver's iterate, an output marginal,
an inner-loop blend); it takes no copy and checks the sum and the minimum
only, which still rejects every vector the constructor rejects, with the
same error.  The solver loops call the channel kernel (channel._marginal and
channel._divergences) the same way, past its checking wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AbsoluteContinuityViolation, DimensionMismatch, InvalidDistribution
from .numeric import ordered_sum, ordered_sum_along

__all__ = [
    "Distribution",
    "JointDistribution",
    "kl_divergence",
    "marginals",
    "mutual_information",
]

# Construction tolerances.  REJECT is the documented contract; KEEP exists so
# that normalization is idempotent (a vector whose sum is already this close
# to one is stored unchanged, so loading a saved object never perturbs it).
_SUM_REJECT = 1e-9
_SUM_KEEP = 1e-12


def _validated_weights(raw, ndim: int, what: str) -> np.ndarray:
    a = np.array(raw, dtype=float)
    if a.ndim != ndim:
        raise InvalidDistribution(f"{what} must be {ndim}-dimensional, got shape {a.shape}")
    if a.size == 0:
        raise InvalidDistribution(f"{what} must have at least one entry")
    if not np.isfinite(a).all():
        raise InvalidDistribution(f"{what} entries must be finite")
    if (a < 0.0).any():
        raise InvalidDistribution(f"{what} entries must be non-negative")
    total = ordered_sum(a)
    deviation = abs(total - 1.0)
    if deviation > _SUM_REJECT:
        raise InvalidDistribution(
            f"{what} sums to {total!r}, off from 1 by {deviation:.3e} (limit {_SUM_REJECT:.0e})"
        )
    if deviation > _SUM_KEEP:
        a = a / total
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Distribution:
    """An immutable probability vector."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _validated_weights(self.weights, 1, "distribution"))

    @classmethod
    def _trusted(cls, weights: np.ndarray) -> "Distribution":
        """Wrap a 1-D float array the package has just allocated, without a copy.

        One sum and one minimum stand in for the constructor's checks: a NaN
        or infinite entry makes the sum non-finite, so any array the
        constructor would reject is handed to it, and it raises.  Otherwise
        the weights are renormalized (or kept) exactly as the constructor
        would, and the array is made read-only.  The array is fresh, 1-D and
        contiguous, so np.add.reduce sums it exactly as ordered_sum would.
        """
        total = float(np.add.reduce(weights))
        deviation = abs(total - 1.0)
        if not deviation <= _SUM_REJECT or weights.min() < 0.0:
            return cls(weights)
        if deviation > _SUM_KEEP:
            weights = weights / total
        weights.flags.writeable = False
        dist = object.__new__(cls)
        object.__setattr__(dist, "weights", weights)
        return dist

    @property
    def alphabet_size(self) -> int:
        return self.weights.shape[0]

    @property
    def is_interior(self) -> bool:
        """True when every symbol has strictly positive mass."""
        return bool((self.weights > 0.0).all())

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        if n < 1:
            raise InvalidDistribution("alphabet size must be positive")
        return cls(np.full(n, 1.0 / n))

    def __repr__(self):
        return f"Distribution({np.array2string(self.weights, separator=', ')})"


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """An immutable joint distribution over an input-output product alphabet.

    Rows index inputs, columns index outputs.
    """

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _validated_weights(self.weights, 2, "joint distribution"))

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape

    def __repr__(self):
        return f"JointDistribution(shape={self.weights.shape})"


def _kl_weights(p: np.ndarray, q: np.ndarray, what: str = "divergence") -> float:
    """KL divergence of raw weight vectors, skipping zero-mass terms first."""
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        raise AbsoluteContinuityViolation(
            f"{what} is infinite: reference has zero mass where the argument does not"
        )
    pm = p[mask]
    qm = q[mask]
    total = ordered_sum(pm * (np.log(pm) - np.log(qm)))
    # Rounding can drag a near-zero divergence a few ulp below zero.
    return total if total > 0.0 else 0.0


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """D(p || q) in nats.

    Raises AbsoluteContinuityViolation when q gives zero mass to a symbol p
    uses, and DimensionMismatch when the alphabets differ.
    """
    if p.alphabet_size != q.alphabet_size:
        raise DimensionMismatch(
            f"alphabets differ: {p.alphabet_size} vs {q.alphabet_size}"
        )
    return _kl_weights(p.weights, q.weights)


def marginals(p: JointDistribution) -> tuple[Distribution, Distribution]:
    """Input and output marginals of a joint distribution."""
    input_marginal = ordered_sum_along(p.weights, axis=1)
    output_marginal = ordered_sum_along(p.weights, axis=0)
    return Distribution(input_marginal), Distribution(output_marginal)


def mutual_information(p: JointDistribution) -> float:
    """I(X; Y) in nats, computed literally as D(p || q x r).

    q and r are the marginals of p, and the divergence is taken between the
    flattened joint and the flattened product, so mutual information inherits
    the zero conventions and determinism of kl_divergence by construction.
    """
    q, r = marginals(p)
    product = np.outer(q.weights, r.weights)
    return kl_divergence(
        Distribution(p.weights.ravel()), Distribution(product.ravel())
    )
