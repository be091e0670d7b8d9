"""The exact m-step's Newton inner solve: its rejected steps, its sweep counts and its determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chancap import (
    Channel,
    Distribution,
    MStepOutcome,
    MStepStatus,
    Termination,
    arimoto_step,
    backward_e_member,
    exact_backward_m_step,
    output_marginal,
    solve_backward_em,
)
from support import newton_output_factor, random_channel, reference_m_step

# Three inputs, the last two almost unused: the first Newton iterate at this
# base input has a negative entry.
LEAVING_CHANNEL = Channel(np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.9, 0.1]]))
LEAVING_BASE = Distribution(np.array([1.0 - 2e-6, 1e-6, 1e-6]))


class TestSafeguard:
    def test_newton_iterate_leaving_the_simplex_ends_the_m_step(self):
        base, ch = LEAVING_BASE, LEAVING_CHANNEL
        r = output_marginal(base, ch)
        member = backward_e_member(base, r, ch)
        mapped = output_marginal(member.induced_input, ch)
        first = newton_output_factor(member.induced_input.weights, r.weights, mapped.weights, ch.matrix)
        assert first.min() < 0.0

        want = reference_m_step(base, ch)
        got = exact_backward_m_step(base, ch)
        assert isinstance(got, MStepOutcome)
        assert got.status is want.status is MStepStatus.NOT_CONVERGED_FALLBACK
        assert got.solution is None
        assert (got.residual, got.inner_iterations) == (want.residual, 0)

    def test_solver_runs_through_the_safeguarded_step(self):
        # The rejected Newton step hands the first outer step to the
        # multiplicative fallback; the exact steps take over after it.
        result, trace = solve_backward_em(LEAVING_CHANNEL, initial=LEAVING_BASE, tol=1e-9)
        assert result.termination is Termination.CONVERGED
        assert result.bracket.upper - result.bracket.lower <= 1e-9
        first = trace.records[1]
        assert (first.step_status, first.inner_iterations) == ("fallback", 0)
        expected = arimoto_step(LEAVING_BASE, LEAVING_CHANNEL).weights
        assert np.array_equal(first.input_distribution.weights, expected)
        assert all(rec.step_status == "exact" for rec in trace.records[2:])

    @pytest.mark.parametrize("failure", ["singular", "inf", "nan", "sum"])
    def test_unusable_newton_steps_end_the_m_step(self, monkeypatch, failure):
        # No system here is singular and no iterate non-finite, so the
        # solve is replaced by one that fails, or whose every step is
        # infinite, NaN or sums to 2: the first step is then rejected and
        # the m-step ends there, as the reference loop's does.
        def unusable(a, b):
            if failure == "singular":
                raise np.linalg.LinAlgError("singular matrix")
            return np.full(len(b), {"inf": np.inf, "nan": np.nan, "sum": 1.0}[failure])

        rng = np.random.default_rng(67)
        ch = random_channel(rng, 5, 4)
        base = Distribution(rng.dirichlet(np.ones(5)))
        monkeypatch.setattr(np.linalg, "solve", unusable)
        want = reference_m_step(base, ch)
        got = exact_backward_m_step(base, ch)
        assert isinstance(got, MStepOutcome)
        assert got.status is want.status is MStepStatus.NOT_CONVERGED_FALLBACK
        assert got.solution is None
        assert (got.residual, got.inner_iterations) == (want.residual, 0)


def test_exact_step_reaches_its_fixed_point_with_the_default_settings():
    # The fixed point exists and is unique for every interior base input,
    # so with the default inner settings no step of criterion 04's solves
    # should fall back.
    rng = np.random.default_rng(41)
    for _ in range(200):
        n, m = int(rng.integers(2, 17)), int(rng.integers(2, 17))
        _, trace = solve_backward_em(random_channel(rng, n, m), tol=1e-14, max_iters=40)
        assert all(rec.step_status == "exact" for rec in trace.records[1:])


def test_two_output_channel_needs_at_most_one_inner_sweep_per_step():
    # The 6x2 channel among these draws sat near the eigenvalue where damping
    # 0.8 contracts worst: 4.80 inner sweeps per outer step, against 3.34 at
    # damping 0.5.  Newton's rate does not depend on the spectrum.
    rng = np.random.default_rng(65)
    channels = [random_channel(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9))) for _ in range(10)]
    ch = next(ch for ch in channels if ch.matrix.shape == (6, 2))
    _, trace = solve_backward_em(ch, tol=1e-9)
    steps = trace.records[1:]
    assert all(rec.step_status == "exact" for rec in steps)
    assert sum(rec.inner_iterations for rec in steps) <= 1.0 * len(steps)


_TRACE_BYTES = """
import sys
import numpy as np
from chancap import Channel, solve_arimoto, solve_backward_em
rng = np.random.default_rng(68)
for n, m in ((32, 32), (9, 5)):
    _, trace = solve_backward_em(Channel(rng.dirichlet(np.ones(m), size=n)), tol=1e-6)
    for rec in trace:
        sys.stdout.buffer.write(rec.input_distribution.weights.tobytes())
_, trace = solve_arimoto(Channel(rng.dirichlet(np.full(256, 0.3), size=256)), max_iters=300)
for rec in trace:
    sys.stdout.buffer.write(rec.per_input_divergence.tobytes())
    sys.stdout.buffer.write(rec.input_distribution.weights.tobytes())
"""


def test_traces_do_not_depend_on_the_blas_thread_count():
    # The covariance and the channel kernel are reduced by einsum outside
    # BLAS, and the linear solves are at most 32x32; a 32-output channel
    # takes the largest, and a 256x256 channel gives the kernel rows long
    # enough for BLAS to have split them across threads.
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _TRACE_BYTES], env=env, capture_output=True, timeout=120
        )
        assert done.returncode == 0, done.stderr.decode()
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1]
