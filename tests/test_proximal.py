"""The backward solver's two step sizes: the adaptive proximal rule, and the paper's step.

An exact backward step at step size lambda moves from q_t to the maximizer
of I(q) - D(q || q_t) / lambda.  step_size=1.0 is the paper's iteration;
the default adapts lambda, which cuts the outer steps to a 1e-9 gap from
about 1,000 to about 30 on perfbench's pinned squares.
"""

import math

import numpy as np
import pytest

from chancap import (
    ParameterOutOfRange,
    Termination,
    arimoto_step,
    bsc,
    solve_arimoto,
    solve_backward_em,
)
from chancap.arimoto import _COLUMNS
from chancap.backward_em import _CHEAP_INNER, _MAX_STEP_SIZE, _NEWTON_MAX_OUTPUTS
from support import pinned_squares, random_channel, reference_m_step


def random_channels(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    return [random_channel(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9))) for _ in range(count)]


def test_criterion_04_design_never_descends():
    # Criterion 04's channels and settings on the adaptive default.  A
    # candidate whose lower bound falls is rejected, so an exact step onto an
    # interior iterate never lowers the bound, not even by an ulp; the
    # fallbacks near the rounding floor stay within criterion 04's 1e-12.
    rng = np.random.default_rng(41)
    steps = descents = 0
    for _ in range(200):
        n, m = int(rng.integers(2, 17)), int(rng.integers(2, 17))
        _, trace = solve_backward_em(random_channel(rng, n, m), tol=1e-14, max_iters=40, max_inner=300)
        lowers, routes, clamped = map(trace._column, ("lower_bound", "step_status", "clamped"))
        for k in range(1, len(trace)):
            steps += 1
            descents += lowers[k] < lowers[k - 1] - 1e-12
            if routes[k] == "exact" and not clamped[k]:
                assert lowers[k] >= lowers[k - 1]
    assert steps > 5000
    assert descents == 0


@pytest.mark.parametrize("name", ["r4", "r8", "r16", "r32"], ids=["r4", "r8", "r16", "slow32"])
def test_pinned_squares_reach_1e_9_in_at_most_100_outer_steps(name):
    # At step size 1 these take 140, 949, 1,053 and (slow32) tens of
    # thousands of outer steps.
    ch = pinned_squares()[name]
    result, _ = solve_backward_em(ch, tol=1e-9)
    assert result.termination is Termination.CONVERGED
    assert result.iterations <= 100
    # Both brackets are certified, so both contain capacity and they meet:
    # the backward bracket lies within 1e-9 of solve_arimoto's capacity.
    # slow32 takes 72,554 Arimoto sweeps to 1e-9, so its reference stops at 1e-7.
    reference, _ = solve_arimoto(ch, tol=1e-7 if name == "r32" else 1e-9)
    assert max(result.bracket.lower, reference.bracket.lower) <= min(result.bracket.upper, reference.bracket.upper)


def test_step_size_follows_the_adaptive_rule():
    # lambda starts at 1 and doubles after an exact step of at most two inner
    # steps, up to its cap; a rejected candidate quarters it, never below 1,
    # and only a step at lambda = 1 falls back.
    channels = [*random_channels(70, 8), pinned_squares()["r16"], bsc(0.3)]
    doubled = quartered = 0
    for ch in channels:
        _, trace = solve_backward_em(ch, tol=1e-12, max_iters=60)
        sizes, routes, inner = map(trace._column, ("step_size", "step_status", "inner_iterations"))
        assert sizes[0] is None
        previous = (None, None, None)
        for k in range(1, len(trace)):
            size, route, count = previous
            if size is None:
                start = 1.0
            elif route == "exact" and count <= _CHEAP_INNER:
                start = min(2.0 * size, _MAX_STEP_SIZE)
            else:
                start = size
            assert sizes[k] in {max(start / 4**j, 1.0) for j in range(40)}
            if routes[k] == "fallback":
                assert sizes[k] == 1.0
            doubled += size is not None and sizes[k] == 2.0 * size
            quartered += sizes[k] < start
            previous = (sizes[k], routes[k], inner[k])
    assert doubled > 0 and quartered > 0


def test_paper_step_size_takes_the_reference_steps():
    # step_size=1.0 is the paper's iteration: every step is the reference
    # m-step's, or the multiplicative step where that does not converge.
    # The last channel is wider than the Newton cap, so its steps are damped.
    channels = [*random_channels(71, 5), random_channel(np.random.default_rng(69), 3, _NEWTON_MAX_OUTPUTS + 1)]
    routes = set()
    for ch in channels:
        for settings in ({}, {"max_inner": 2}):
            _, trace = solve_backward_em(ch, tol=1e-7, step_size=1.0, **settings)
            for before, after in zip(trace.records, trace.records[1:]):
                want = reference_m_step(before.input_distribution, ch, **settings)
                assert after.step_size == 1.0
                assert (after.inner_residual, after.inner_iterations) == (want.residual, want.inner_iterations)
                if want.solution is None:
                    expected = arimoto_step(before.input_distribution, ch).weights
                    assert after.step_status == "fallback"
                else:
                    expected = want.solution.induced_input.weights
                    assert after.step_status == "exact"
                assert not after.clamped
                assert np.array_equal(after.input_distribution.weights, expected)
                routes.add(after.step_status)
    assert routes == {"exact", "fallback"}


def test_records_replay_an_adaptive_run():
    # The step size lives on each Step, not in the stepper, so the replay
    # takes the same steps; the lambda column is compared like the others.
    ch = pinned_squares()["r16"]
    _, trace = solve_backward_em(ch, tol=1e-9)
    sizes = trace._column("step_size")
    records = trace.records
    assert [rec.step_size for rec in records] == sizes
    assert sizes[0] is None and max(sizes[1:]) > 1000.0
    _, tampered = solve_backward_em(ch, tol=1e-9)
    # The step size of iteration 4, in the kept list of rows.
    tampered._kept[3 * len(_COLUMNS) + _COLUMNS.index("step_size")] *= 2.0
    with pytest.raises(AssertionError, match="iteration 4"):
        tampered.records


def test_channels_wider_than_the_cap_keep_the_paper_step_size():
    # Their damped inner blend diverges above a step size of about 1.5.
    ch = random_channel(np.random.default_rng(73), 4, _NEWTON_MAX_OUTPUTS + 8)
    _, adaptive = solve_backward_em(ch)
    _, paper = solve_backward_em(ch, step_size=1.0)
    assert len(adaptive) > 2
    assert [rec.step_size for rec in adaptive.records[1:]] == [1.0] * (len(adaptive) - 1)
    for column in ("lower_bound", "upper_bound", "step_status", "inner_residual", "inner_iterations", "step_size"):
        assert adaptive._column(column) == paper._column(column)
    with pytest.raises(ParameterOutOfRange):
        solve_backward_em(ch, step_size=2.0)


@pytest.mark.parametrize(
    "step_size",
    [True, False, "2", 2j, math.nan, math.inf, -math.inf, 0, 0.0, -1.0, 2.0, 16, 0.5,
     pytest.param(np.float64(2.0), id="np.float64(2.0)")],
)
def test_step_size_is_checked_before_the_first_record(step_size):
    # bsc(0.1) converges at its first record, so no step ever runs.  Only
    # None and 1 are step sizes.
    with pytest.raises(ParameterOutOfRange):
        solve_backward_em(bsc(0.1), step_size=step_size)


def test_every_spelling_of_the_paper_step_size_takes_the_same_steps():
    ch = pinned_squares()["r4"]
    _, paper = solve_backward_em(ch, tol=1e-7, step_size=1.0)
    for spelling in (1, np.float64(1.0)):
        _, trace = solve_backward_em(ch, tol=1e-7, step_size=spelling)
        for column in _COLUMNS:
            # Bit for bit: a float's repr round-trips, and -0.0 keeps its sign.
            assert repr(trace._column(column)) == repr(paper._column(column))
    assert paper._column("step_size")[1:] == [1.0] * (len(paper) - 1)


def _stall_cases() -> dict:
    squares = pinned_squares()
    return {
        "r8-1e-13": (squares["r8"], 1e-13),
        "r16-1e-13": (squares["r16"], 1e-13),
        "slow32-1e-11": (squares["r32"], 1e-11),
        "random16-1e-12": (random_channel(np.random.default_rng(3), 16, 16), 1e-12),
    }


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: at tight tolerances the adaptive step stalls, ending as "
    "MAX_ITERATIONS with a final gap above one it passed",
)
@pytest.mark.parametrize("case", list(_stall_cases()))
def test_the_default_reaches_a_tight_tolerance_within_200_outer_steps(case):
    # Each run passes a record whose gap is 10 to 400 times narrower than
    # the one it ends at after 200 steps (below tol for all but slow32).
    ch, tol = _stall_cases()[case]
    result, _ = solve_backward_em(ch, tol=tol, max_iters=200)
    assert result.termination is Termination.CONVERGED
