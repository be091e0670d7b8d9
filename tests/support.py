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
    bec,
    bsc,
    identity_channel,
    noisy_typewriter,
    output_marginal,
    uniform_rows,
    z_channel,
)
from chancap.backward_em import _DAMPING, _INNER_TOL, _MAX_HALVINGS, _NEWTON_MAX_OUTPUTS


# One example per canonical kind: its constructor, the parameters and the
# CLI's --param text for them.
CANONICAL_EXAMPLES = {
    "bsc": (bsc, (0.2,), "0.2"),
    "bec": (bec, (0.3,), "0.3"),
    "z": (z_channel, (0.4,), "0.4"),
    "typewriter": (noisy_typewriter, (5,), "5"),
    "identity": (identity_channel, (3,), "3"),
    "uniform": (uniform_rows, (2, 4), "2,4"),
}


def random_channel(rng: np.random.Generator, n_in: int, n_out: int, alpha: float = 1.0) -> Channel:
    """A channel with rows drawn from a flat Dirichlet."""
    return Channel(rng.dirichlet(np.full(n_out, alpha), size=n_in))


def pinned_squares() -> dict[str, Channel]:
    """perfbench's pinned squares r4, r8, r16 and r32 (its slow32), unrelabelled:
    the successive default_rng(1) flat-Dirichlet squares at 4, 8, 16 and 32 inputs."""
    rng = np.random.default_rng(1)
    return {f"r{n}": random_channel(rng, n, n) for n in (4, 8, 16, 32)}


def random_interior(rng: np.random.Generator, n: int, alpha: float = 1.0) -> Distribution:
    """An interior input law drawn from a flat Dirichlet."""
    return Distribution(rng.dirichlet(np.full(n, alpha)))


def newton_step(q: np.ndarray, r: np.ndarray, t: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """r*u, where (diag(r) + Cov_q(P)) u = t - r, written with numpy alone."""
    b = np.sqrt(q)[:, None] * (matrix - t)
    return r * np.linalg.solve(np.einsum("xy,xz->yz", b, b) + np.diag(r), t - r)


def newton_output_factor(q: np.ndarray, r: np.ndarray, t: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """The full Newton iterate r + r*u."""
    return r + newton_step(q, r, t, matrix)


def _at(base, r, ch):
    """The member at output factor r, its output marginal and the max-norm residual."""
    member = backward_e_member(base, r, ch)
    mapped = output_marginal(member.induced_input, ch)
    return member, mapped, float(np.max(np.abs(mapped.weights - r.weights)))


def _usable(weights):
    """weights as an interior Distribution, or None."""
    try:
        r = Distribution(weights)
    except InvalidDistribution:
        return None
    return r if r.is_interior else None


def reference_m_step(base, ch, max_inner=10000):
    """The exact m-step written from the public member and marginal.

    Each inner step builds a validated member and marginal; the library's
    loop runs the same arithmetic on raw arrays and must match it bit for
    bit.  Up to the cap on outputs a step is Newton's, halved at most
    _MAX_HALVINGS times until it gives an interior Distribution with a
    smaller residual; past the cap it is the damped blend, taken when it
    gives an interior Distribution.  A step whose solve fails, or that
    finds no such Distribution, ends the m-step.
    """
    r = output_marginal(base, ch)
    member, mapped, residual = _at(base, r, ch)
    for sweep in range(max_inner + 1):
        if residual <= _INNER_TOL:
            return MStepOutcome(member, residual, sweep, MStepStatus.EXACT_CONVERGED)
        if sweep == max_inner:
            break
        if ch.num_outputs > _NEWTON_MAX_OUTPUTS:
            following = _usable((1.0 - _DAMPING) * r.weights + _DAMPING * mapped.weights)
            if following is None:
                break
            r = following
            member, mapped, residual = _at(base, r, ch)
            continue
        try:
            step = newton_step(member.induced_input.weights, r.weights, mapped.weights, ch.matrix)
        except np.linalg.LinAlgError:
            break
        for _ in range(_MAX_HALVINGS + 1):
            trial = _usable(r.weights + step)
            if trial is not None:
                at = _at(base, trial, ch)
                if at[2] < residual:
                    r, (member, mapped, residual) = trial, at
                    break
            step = 0.5 * step
        else:
            break
    return MStepOutcome(None, residual, sweep, MStepStatus.NOT_CONVERGED_FALLBACK)
