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
which copies it, and every public function checks the types and sizes of
its arguments.  Inside the solver loops vectors stay raw arrays: each one
the package computes (an output marginal, an inner-loop blend, an induced
input) goes through _normalized, the constructor's own check, which takes
no copy and decides in one sum and one minimum.  The private functions
those loops call, the channel kernel (channel._marginal and
channel._divergences) and the backward m-step's loop, check nothing; the
public functions that share them check first.  A Distribution is built
only where one is handed out: a public result, a family member, or a trace
record on the first read of the records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AbsoluteContinuityViolation, DimensionMismatch, InvalidDistribution, _check_limit, _check_type, _sized,
)
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


def _normalized(a: np.ndarray, what: str = "distribution", smallest: float | None = None) -> np.ndarray:
    """Check a C-contiguous float weight array the caller owns, without a copy.

    One sum and one minimum decide; a NaN or infinite entry makes the sum
    non-finite, so it cannot pass.  smallest is a's minimum when the caller has
    already taken it.  A failing array is scanned again so that the first
    broken rule raises: finite, then non-negative, then the sum.  The sum is
    ordered_sum's, taken without its layout normalization, which a
    C-contiguous array does not need.
    """
    total = float(np.add.reduce(a, axis=None))
    deviation = abs(total - 1.0)
    if smallest is None:
        smallest = np.minimum.reduce(a, axis=None)
    if not (deviation <= _SUM_REJECT and smallest >= 0.0):
        if not np.isfinite(a).all():
            raise InvalidDistribution(f"{what} entries must be finite")
        if (a < 0.0).any():
            raise InvalidDistribution(f"{what} entries must be non-negative")
        raise InvalidDistribution(
            f"{what} sums to {total!r}, off from 1 by {deviation:.3e} (limit {_SUM_REJECT:.0e})"
        )
    if deviation > _SUM_KEEP:
        a = a / total
    a.flags.writeable = False
    return a


def _real_array(raw, what: str) -> np.ndarray:
    """A C-ordered float64 copy of raw; InvalidDistribution unless its entries are real numbers.

    Booleans read as 0 and 1.  Strings, bytes, complex numbers and other
    objects are rejected, where a float cast would parse "0.5" or raise a
    bare ValueError or TypeError.  An array's entries are not scanned: its
    dtype decides.
    """
    try:
        a = np.asarray(raw)
    except (TypeError, ValueError):  # ragged nesting, for one
        raise InvalidDistribution(f"{what} entries must be real numbers") from None
    if a.dtype.kind not in "biuf":
        raise InvalidDistribution(f"{what} entries must be real numbers, got dtype {a.dtype}")
    return np.array(a, dtype=float, order="C")


def _validated_weights(raw, ndim: int, what: str) -> np.ndarray:
    a = _real_array(raw, what)
    if a.ndim != ndim:
        raise InvalidDistribution(f"{what} must be {ndim}-dimensional, got shape {a.shape}")
    if a.size == 0:
        raise InvalidDistribution(f"{what} must have at least one entry")
    return _normalized(a, what)


@dataclass(frozen=True, eq=False)
class Distribution:
    """An immutable probability vector."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _validated_weights(self.weights, 1, "distribution"))

    @property
    def alphabet_size(self) -> int:
        return self.weights.shape[0]

    @property
    def is_interior(self) -> bool:
        """True when every symbol has strictly positive mass."""
        return bool(np.minimum.reduce(self.weights) > 0.0)

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        _check_limit("alphabet size", n)
        # Sized before 1.0 / n is taken, which overflows for a size no array can have.
        weights = _sized(np.empty, n)
        weights.fill(1.0 / n)
        return cls(weights)

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
    _check_type("distribution", p, Distribution)
    _check_type("distribution", q, Distribution)
    if p.alphabet_size != q.alphabet_size:
        raise DimensionMismatch(
            f"alphabets differ: {p.alphabet_size} vs {q.alphabet_size}"
        )
    return _kl_weights(p.weights, q.weights)


def marginals(p: JointDistribution) -> tuple[Distribution, Distribution]:
    """Input and output marginals of a joint distribution."""
    _check_type("joint distribution", p, JointDistribution)
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
