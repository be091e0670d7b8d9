"""The exact m-step's Newton inner solve: its halved and rejected steps, its sweep counts and its determinism."""

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
    backward_e_member,
    exact_backward_m_step,
    output_marginal,
    solve_backward_em,
)
import chancap.backward_em
import support
from support import newton_output_factor, random_channel, reference_m_step

# Three inputs, the last two almost unused: the first Newton iterate at this
# base input has a negative entry, and halving the step brings it inside.
LEAVING_CHANNEL = Channel(np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.9, 0.1]]))
LEAVING_BASE = Distribution(np.array([1.0 - 2e-6, 1e-6, 1e-6]))


class TestSafeguard:
    def test_newton_iterate_leaving_the_simplex_is_halved_back_inside(self):
        # The full Newton step leaves the simplex; halved, it comes back
        # inside, and the m-step reaches its fixed point as the reference does.
        base, ch = LEAVING_BASE, LEAVING_CHANNEL
        r = output_marginal(base, ch)
        member = backward_e_member(base, r, ch)
        mapped = output_marginal(member.induced_input, ch)
        first = newton_output_factor(member.induced_input.weights, r.weights, mapped.weights, ch.matrix)
        assert first.min() < 0.0

        want = reference_m_step(base, ch)
        got = exact_backward_m_step(base, ch)
        assert isinstance(got, MStepOutcome)
        assert got.status is want.status is MStepStatus.EXACT_CONVERGED
        assert (got.residual, got.inner_iterations) == (want.residual, want.inner_iterations)
        assert got.inner_iterations > 1
        assert np.array_equal(got.solution.induced_input.weights, want.solution.induced_input.weights)

    def test_solver_runs_through_the_safeguarded_step(self):
        # The first outer step is at step size 1 under either rule.  At the
        # paper's step size it is the m-step above, whose halved Newton
        # steps reach the fixed point at 1e-10.  The default stops it at the
        # start's bracket gap, 13.4 nats, which the start's own output
        # marginal already meets, so the reference loop at that tolerance
        # gives its bits.  Every later step is exact too, but the default's
        # last, which the support-Newton route takes: its try at the first
        # step is refused, and the step is the exact one.
        for step_size in (1.0, None):
            result, trace = solve_backward_em(LEAVING_CHANNEL, initial=LEAVING_BASE, tol=1e-9, step_size=step_size)
            assert result.termination is Termination.CONVERGED
            assert result.bracket.upper - result.bracket.lower <= 1e-9
            start, first = trace.records[:2]
            if step_size is None:
                want = reference_m_step(LEAVING_BASE, LEAVING_CHANNEL, inner_tol=start.gap)
            else:
                want = exact_backward_m_step(LEAVING_BASE, LEAVING_CHANNEL)
            assert (first.step_status, first.step_size) == ("exact", 1.0)
            assert (first.inner_residual, first.inner_iterations) == (want.residual, want.inner_iterations)
            assert np.array_equal(first.input_distribution.weights, want.solution.induced_input.weights)
            routes = trace._column("step_status")
            assert all(route == "exact" for route in routes[2:-1])
            assert routes[-1] == ("exact" if step_size else "support_newton")

    @pytest.mark.parametrize("failure", ["singular", "inf", "nan", "sum", "wide-blend"])
    def test_unusable_newton_steps_end_the_m_step(self, monkeypatch, failure):
        # No system here is singular and no iterate non-finite, so the
        # library's solve, and the np.linalg.solve of the reference loop,
        # are replaced by ones that solve a zero system, or whose every step
        # is infinite, NaN or sums to 2: the first step is then rejected and
        # the m-step ends there, as the reference loop's does.  The zero
        # system goes to the real solve, whose singular error the m-step
        # must take without a RuntimeWarning, which fails the suite.  A
        # channel wider than the Newton cap takes one damped blend instead;
        # at a damping of 50 the blend -49 r + 50 T(r) has a negative entry,
        # so its one trial is refused and the m-step ends there too.
        def unusable(solve):
            def solved(a, b):
                if failure == "singular":
                    return solve(np.zeros_like(a), b)
                return np.full(len(b), {"inf": np.inf, "nan": np.nan, "sum": 1.0}[failure])
            return solved

        rng = np.random.default_rng(67)
        if failure == "wide-blend":
            ch = random_channel(rng, 4, 33)
            for module in (chancap.backward_em, support):
                monkeypatch.setattr(module, "_DAMPING", 50.0)
        else:
            ch = random_channel(rng, 5, 4)
            monkeypatch.setattr(chancap.backward_em, "_solve", unusable(chancap.backward_em._solve))
            monkeypatch.setattr(np.linalg, "solve", unusable(np.linalg.solve))
        base = Distribution(rng.dirichlet(np.ones(ch.num_inputs)))
        want = reference_m_step(base, ch)
        got = exact_backward_m_step(base, ch)
        assert isinstance(got, MStepOutcome)
        assert got.status is want.status is MStepStatus.NOT_CONVERGED_FALLBACK
        assert got.solution is None
        assert (got.residual, got.inner_iterations) == (want.residual, 0)


def test_exact_step_reaches_its_fixed_point_with_the_default_settings():
    # The fixed point exists and is unique for every interior base input,
    # so with the default inner settings no step of criterion 04's solves
    # at the paper's step size should fall back.  (The adaptive rule falls
    # back near the rounding floor, where it rejects candidates whose lower
    # bound falls by an ulp.)
    rng = np.random.default_rng(41)
    for _ in range(200):
        n, m = int(rng.integers(2, 17)), int(rng.integers(2, 17))
        _, trace = solve_backward_em(random_channel(rng, n, m), tol=1e-14, max_iters=40, step_size=1.0)
        assert all(rec.step_status == "exact" for rec in trace.records[1:])


def test_two_output_channel_needs_at_most_one_inner_sweep_per_step():
    # The 6x2 channel among these draws sat near the eigenvalue where damping
    # 0.8 contracts worst: 4.80 inner sweeps per outer step, against 3.34 at
    # damping 0.5.  Newton's rate at the paper's step size does not depend
    # on the spectrum.
    rng = np.random.default_rng(65)
    channels = [random_channel(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9))) for _ in range(10)]
    ch = next(ch for ch in channels if ch.matrix.shape == (6, 2))
    _, trace = solve_backward_em(ch, tol=1e-9, step_size=1.0)
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
# perfbench's r64: the support-Newton route's first try solves bordered
# systems of up to 65x65.
_, trace = solve_backward_em(Channel(np.random.default_rng(5).dirichlet(np.ones(64), size=64)))
sys.stdout.buffer.write(repr(trace._kept).encode())
sys.stdout.buffer.write(trace.records[-1].input_distribution.weights.tobytes())
"""


def test_traces_do_not_depend_on_the_blas_thread_count():
    # The covariance and the channel kernel are reduced by einsum outside
    # BLAS, and the linear solves are at most 32x32 in the inner loop and
    # 65x65 in the support-Newton route; a 32-output channel takes the
    # inner loop's largest, r64 the route's, and a 256x256 channel gives
    # the kernel rows long enough for BLAS to have split them across
    # threads.
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
