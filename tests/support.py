"""Shared random generators and reference loops for the test suite.

Everything is driven by caller-provided numpy Generators so each test pins
its own seed.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from chancap import (
    BackwardFamilyMember,
    Channel,
    Distribution,
    InvalidDistribution,
    JointDistribution,
    MStepOutcome,
    MStepStatus,
    arimoto,
    backward_em,
    bec,
    bsc,
    identity_channel,
    kl_divergence,
    m_project_to_independence,
    noisy_typewriter,
    output_marginal,
    per_input_divergences,
    uniform_rows,
    z_channel,
)
from chancap.backward_em import _DAMPING, _INNER_TOL, _MAX_HALVINGS, _NEWTON_MAX_OUTPUTS
from chancap.numeric import logsumexp

ROOT = Path(__file__).resolve().parent.parent


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


def fresh_python(code: str, *argv: str) -> str:
    """Run code in a fresh interpreter with the checkout's src/ first on
    PYTHONPATH, from the repository root; return its standard output and
    fail the test when it exits nonzero."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


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


def mutual_information(p: JointDistribution) -> float:
    """I(X; Y) in nats, computed literally as D(p || q x r): the divergence
    between the flattened joint and the flattened outer product of its
    marginals q and r, so it keeps kl_divergence's zero conventions."""
    point = m_project_to_independence(p)
    product = np.outer(point.input_factor.weights, point.output_factor.weights)
    return kl_divergence(Distribution(p.weights.ravel()), Distribution(product.ravel()))


def newton_step(q: np.ndarray, r: np.ndarray, t: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """r*u, where (diag(r) + Cov_q(P)) u = t - r, written with numpy alone."""
    b = np.sqrt(q)[:, None] * (matrix - t)
    return r * np.linalg.solve(np.einsum("xy,xz->yz", b, b) + np.diag(r), t - r)


def newton_output_factor(q: np.ndarray, r: np.ndarray, t: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """The full Newton iterate r + r*u."""
    return r + newton_step(q, r, t, matrix)


def replayed(trace) -> list:
    """(q, d, lower, upper, step) for each of the trace's iterates, from a replay of its run.

    step is the arimoto.Step that made q, with the log-weights it carries:
    np.log(q) for the first.  Reading trace.records drops the replay, so
    call this first.
    """
    return list(itertools.islice(trace._replay(), len(trace)))


def without_support_newton(monkeypatch) -> None:
    """Turn the support-Newton route off in both solvers: every try is
    refused, and a refused try changes no record, so solve_arimoto's run
    is the multiplicative sweeps alone and solve_backward_em's the adaptive
    rule's exact and fallback steps alone."""
    monkeypatch.setattr(arimoto, "_support_newton", lambda q, support, ch: None)


def record_inner_solves(monkeypatch) -> list:
    """Patch backward_em._inner_solve to append (log_base, result) per call to the returned list."""
    calls = []
    inner_solve = backward_em._inner_solve

    def recording(log_base, *args):
        calls.append((log_base, inner_solve(log_base, *args)))
        return calls[-1][1]

    monkeypatch.setattr(backward_em, "_inner_solve", recording)
    return calls


def inner_solves_per_step(calls) -> list:
    """record_inner_solves's calls grouped by outer step: one (log_base, [results]) each.

    A step's solves share its log base, the previous Step's log-weights;
    every solve but a step's last made a rejected candidate.  Reading a
    trace's records replays the run and records more calls, so group
    before that.
    """
    steps = []
    for base, solve in calls:
        if not steps or steps[-1][0] is not base:
            steps.append((base, []))
        steps[-1][1].append(solve)
    return steps


def tilt(log_base: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, float]:
    """log q + d - log Z and log Z = logsumexp(log q + d), from log q: the
    multiplicative step in log-weights, and the induced input of a family
    member, written with numpy and numeric's public logsumexp."""
    logits = log_base + d
    log_norm = logsumexp(logits)
    return logits - log_norm, log_norm


def multiplicative_step(log_base: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The multiplicative step from the log-weights log_base by the
    divergences d, written with numpy: its log-weights, the logits
    log_base + d shifted so that their maximum is 0, and its weights, exp
    of those divided by their sum."""
    logits = log_base + d
    logits = logits - np.max(logits)
    weights = np.exp(logits)
    return logits, weights / np.sum(weights)


def _at(base, log_base, r, ch):
    """The member at output factor r, tilted from the base's log-weights
    log_base, its output marginal and the max-norm residual."""
    log_induced, log_norm = tilt(log_base, per_input_divergences(ch, r.weights))
    member = BackwardFamilyMember(base, r, Distribution(np.exp(log_induced)), log_norm)
    mapped = output_marginal(member.induced_input, ch)
    return member, mapped, float(np.max(np.abs(mapped.weights - r.weights)))


def _usable(weights):
    """weights as an interior Distribution, or None."""
    try:
        r = Distribution(weights)
    except InvalidDistribution:
        return None
    return r if r.is_interior else None


def reference_m_step(base, ch, max_inner=10000, log_base=None, inner_tol=_INNER_TOL):
    """The exact m-step from q_t = base, written from public functions.

    The member at each output factor is tilted from log_base, the
    log-weights log q_t a solver carries, or np.log of base's weights when
    it is None, as the public exact_backward_m_step starts.  The m-step has
    converged at a residual of inner_tol, the public m-step's _INNER_TOL
    unless the adaptive rule's scaled tolerance is given.  Each inner
    step builds a validated member and marginal; the library's loop runs
    the same arithmetic on raw arrays and must match it bit for bit.  Up to
    the cap on outputs a step is Newton's, halved at most _MAX_HALVINGS
    times until it gives an interior Distribution with a smaller residual;
    past the cap it is the damped blend, taken when it gives an interior
    Distribution.  A step whose solve fails, or that
    finds no such Distribution, ends the m-step.
    """
    if log_base is None:
        log_base = np.log(base.weights)
    r = output_marginal(base, ch)
    member, mapped, residual = _at(base, log_base, r, ch)
    for sweep in range(max_inner + 1):
        if residual <= inner_tol:
            return MStepOutcome(member, residual, sweep, MStepStatus.EXACT_CONVERGED)
        if sweep == max_inner:
            break
        if ch.num_outputs > _NEWTON_MAX_OUTPUTS:
            following = _usable((1.0 - _DAMPING) * r.weights + _DAMPING * mapped.weights)
            if following is None:
                break
            r = following
            member, mapped, residual = _at(base, log_base, r, ch)
            continue
        try:
            step = newton_step(member.induced_input.weights, r.weights, mapped.weights, ch.matrix)
        except np.linalg.LinAlgError:
            break
        for _ in range(_MAX_HALVINGS + 1):
            trial = _usable(r.weights + step)
            if trial is not None:
                at = _at(base, log_base, trial, ch)
                if at[2] < residual:
                    r, (member, mapped, residual) = trial, at
                    break
            step = 0.5 * step
        else:
            break
    return MStepOutcome(None, residual, sweep, MStepStatus.NOT_CONVERGED_FALLBACK)
