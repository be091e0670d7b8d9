"""Discrete memoryless channel capacity with certified brackets.

Two solvers (the classical multiplicative iteration and a backward
em-alternation), exhaustive and algebraic cross-checks, and the projection
machinery connecting capacity to divergence geometry.
"""

from .arimoto import (
    Bracket,
    CapacityResult,
    IterationTrace,
    Termination,
    TraceRecord,
    arimoto_step,
    capacity_bracket,
    solve_arimoto,
)
from .backward_em import (
    BackwardFamilyMember,
    GeometricMixtureResult,
    MStepOutcome,
    MStepStatus,
    approximate_m_step,
    backward_e_member,
    exact_backward_m_step,
    geometric_mixture_check,
    solve_backward_em,
)
from .channel import (
    Channel,
    bec,
    bsc,
    canonical,
    identity_channel,
    joint,
    load_channel,
    noisy_typewriter,
    output_marginal,
    per_input_divergences,
    save_channel,
    uniform_rows,
    z_channel,
)
from .errors import (
    AbsoluteContinuityViolation,
    ChancapError,
    DimensionMismatch,
    DroppedOutputColumnWarning,
    InvalidDistribution,
    NegativeEntry,
    NonInteriorInput,
    ParameterOutOfRange,
    ParseError,
    RowNotStochastic,
    TooManyInputs,
)
from .infogeo import (
    ProductPoint,
    e_project_to_channel,
    m_project_to_independence,
)
from .probability import (
    Distribution,
    JointDistribution,
    kl_divergence,
    marginals,
    mutual_information,
)
from .verify import (
    CircumcenterReport,
    brute_force_capacity,
    circumcenter_check,
    converse_check,
)

__version__ = "0.1.0"

__all__ = [
    "AbsoluteContinuityViolation",
    "BackwardFamilyMember",
    "Bracket",
    "CapacityResult",
    "ChancapError",
    "Channel",
    "CircumcenterReport",
    "DimensionMismatch",
    "Distribution",
    "DroppedOutputColumnWarning",
    "GeometricMixtureResult",
    "InvalidDistribution",
    "IterationTrace",
    "JointDistribution",
    "MStepOutcome",
    "MStepStatus",
    "NegativeEntry",
    "NonInteriorInput",
    "ParameterOutOfRange",
    "ParseError",
    "ProductPoint",
    "RowNotStochastic",
    "Termination",
    "TooManyInputs",
    "TraceRecord",
    "approximate_m_step",
    "arimoto_step",
    "backward_e_member",
    "bec",
    "brute_force_capacity",
    "bsc",
    "canonical",
    "capacity_bracket",
    "circumcenter_check",
    "converse_check",
    "e_project_to_channel",
    "exact_backward_m_step",
    "geometric_mixture_check",
    "identity_channel",
    "joint",
    "kl_divergence",
    "load_channel",
    "m_project_to_independence",
    "marginals",
    "mutual_information",
    "noisy_typewriter",
    "output_marginal",
    "per_input_divergences",
    "save_channel",
    "solve_arimoto",
    "solve_backward_em",
    "uniform_rows",
    "z_channel",
]
