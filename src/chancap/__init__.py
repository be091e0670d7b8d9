"""Discrete memoryless channel capacity with certified brackets.

Two solvers (the classical multiplicative iteration and a backward
em-alternation), exhaustive and algebraic cross-checks, and the projection
machinery connecting capacity to divergence geometry.

The public names are each module's own __all__, re-exported here; the
package's __all__ is their sorted union.  numeric's ordered reductions stay
in chancap.numeric.
"""

from . import arimoto, backward_em, channel, errors, infogeo, probability, verify
from .arimoto import *  # noqa: F403
from .backward_em import *  # noqa: F403
from .channel import *  # noqa: F403
from .errors import *  # noqa: F403
from .infogeo import *  # noqa: F403
from .probability import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (arimoto, backward_em, channel, errors, infogeo, probability, verify)
    for name in module.__all__
)
