"""Projections between joint laws and product laws.

The two families in play are the products q x r (input law times output law,
independence) and the laws q(x) p(y|x) obtained by pushing an input law
through a fixed channel.  Projecting a joint onto the products in divergence
(an m-projection) just takes its marginals; projecting a product point back
onto the channel family in the opposite divergence order (an e-projection)
has the closed form implemented here.  Mutual information is exactly the
divergence from a joint to its m-projection, which is what makes capacity a
maximal distance from the independence family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Channel, _check_interior_input, per_input_divergences
from .errors import _check_type
from .numeric import _tilt
from .probability import Distribution, JointDistribution, marginals

__all__ = [
    "ProductPoint",
    "m_project_to_independence",
    "e_project_to_channel",
]


@dataclass(frozen=True)
class ProductPoint:
    """A product law stored by its two factors, each a Distribution.

    The expanded matrix is never stored; materialize it on demand with
    to_joint() when a computation genuinely needs all n*m entries.
    """

    input_factor: Distribution
    output_factor: Distribution

    def __post_init__(self):
        _check_type("input factor", self.input_factor, Distribution)
        _check_type("output factor", self.output_factor, Distribution)

    def to_joint(self) -> JointDistribution:
        return JointDistribution(
            np.outer(self.input_factor.weights, self.output_factor.weights)
        )


def m_project_to_independence(p: JointDistribution) -> ProductPoint:
    """Divergence-minimizing product law for a joint: the pair of marginals."""
    q, r = marginals(p)
    return ProductPoint(q, r)


def e_project_to_channel(point: ProductPoint, ch: Channel) -> Distribution:
    """Input law minimizing D(q_hat * p(y|x) || q x r) over q_hat.

    Expanding the objective gives D(q_hat || q) + sum_x q_hat(x) d(x) with
    d(x) = D(p(.|x) || r), whose unique minimizer is

        q_hat(x) proportional to q(x) * exp(-d(x)).

    Computed in log space.  The base input law must be interior, and r must
    carry mass wherever some channel row does (else some d(x) is infinite and
    AbsoluteContinuityViolation is raised).
    """
    _check_type("product point", point, ProductPoint)
    q = point.input_factor
    _check_interior_input(q, ch)
    d = per_input_divergences(ch, point.output_factor.weights)
    return Distribution(_tilt(np.log(q.weights), -d)[0])
