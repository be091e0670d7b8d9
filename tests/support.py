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
from chancap.backward_em import _DAMPING


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


def reference_m_step(base, ch, inner_tol=1e-10, max_inner=10000, newton=True, routes=None):
    """The exact m-step written from the public member and marginal.

    Each inner step builds a validated member and marginal; the library's
    loop runs the same arithmetic on raw arrays and must match it bit for
    bit.  With newton, a step is Newton's unless its solve fails or its
    output factor is not an interior Distribution, and then the damped
    blend; without, every step is the damped blend.  routes, a list, gets
    "newton" or "damped" appended for each step taken.
    """
    r = output_marginal(base, ch)
    residual = np.inf
    for sweep in range(max_inner + 1):
        member = backward_e_member(base, r, ch)
        mapped = output_marginal(member.induced_input, ch)
        residual = float(np.max(np.abs(mapped.weights - r.weights)))
        if residual <= inner_tol:
            return MStepOutcome(member, residual, sweep, MStepStatus.EXACT_CONVERGED)
        if sweep == max_inner:
            break
        step = None
        if newton:
            try:
                step = Distribution(
                    newton_output_factor(member.induced_input.weights, r.weights, mapped.weights, ch.matrix)
                )
            except (np.linalg.LinAlgError, InvalidDistribution):
                pass
            if step is not None and not step.is_interior:
                step = None
        if routes is not None:
            routes.append("damped" if step is None else "newton")
        if step is None:
            blended = (1.0 - _DAMPING) * r.weights + _DAMPING * mapped.weights
            if np.any(blended == 0.0):
                break
            step = Distribution(blended)
        r = step
    return MStepOutcome(None, residual, min(sweep, max_inner), MStepStatus.NOT_CONVERGED_FALLBACK)
