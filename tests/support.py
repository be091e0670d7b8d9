"""Shared random generators and reference loops for the test suite.

Everything is driven by caller-provided numpy Generators so each test pins
its own seed.
"""

from __future__ import annotations

import numpy as np

from chancap import (
    Channel,
    Distribution,
    InvalidDistribution,
    MStepOutcome,
    MStepStatus,
    backward_e_member,
    output_marginal,
)
from chancap.backward_em import _DAMPING, _INNER_TOL, _NEWTON_MAX_OUTPUTS


def random_channel(rng: np.random.Generator, n_in: int, n_out: int, alpha: float = 1.0) -> Channel:
    """A channel with rows drawn from a flat Dirichlet."""
    return Channel(rng.dirichlet(np.full(n_out, alpha), size=n_in))


def random_interior(rng: np.random.Generator, n: int, alpha: float = 1.0) -> Distribution:
    """An interior input law drawn from a flat Dirichlet."""
    return Distribution(rng.dirichlet(np.full(n, alpha)))


def newton_output_factor(q: np.ndarray, r: np.ndarray, t: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """r + r*u, where (diag(r) + Cov_q(P)) u = t - r, written with numpy alone."""
    b = np.sqrt(q)[:, None] * (matrix - t)
    u = np.linalg.solve(np.einsum("xy,xz->yz", b, b) + np.diag(r), t - r)
    return r + r * u


def reference_m_step(base, ch, max_inner=10000):
    """The exact m-step written from the public member and marginal.

    Each inner step builds a validated member and marginal; the library's
    loop runs the same arithmetic on raw arrays and must match it bit for
    bit.  A step is Newton's up to the cap on outputs and the damped blend
    past it; a step whose solve fails or whose output factor is not an
    interior Distribution ends the m-step.
    """
    r = output_marginal(base, ch)
    for sweep in range(max_inner + 1):
        member = backward_e_member(base, r, ch)
        mapped = output_marginal(member.induced_input, ch)
        residual = float(np.max(np.abs(mapped.weights - r.weights)))
        if residual <= _INNER_TOL:
            return MStepOutcome(member, residual, sweep, MStepStatus.EXACT_CONVERGED)
        if sweep == max_inner:
            break
        try:
            if ch.num_outputs <= _NEWTON_MAX_OUTPUTS:
                step = newton_output_factor(member.induced_input.weights, r.weights, mapped.weights, ch.matrix)
            else:
                step = (1.0 - _DAMPING) * r.weights + _DAMPING * mapped.weights
            r = Distribution(step)
        except (np.linalg.LinAlgError, InvalidDistribution):
            break
        if not r.is_interior:
            break
    return MStepOutcome(None, residual, sweep, MStepStatus.NOT_CONVERGED_FALLBACK)
