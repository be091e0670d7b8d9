"""The backward solver's two step sizes: the adaptive proximal rule, and the paper's step.

An exact backward step at step size lambda moves from q_t to the maximizer
of I(q) - D(q || q_t) / lambda.  step_size=1.0 is the paper's iteration;
the default adapts lambda, which cuts the outer steps to a 1e-9 gap from
about 1,000 to 14 on perfbench's pinned r8 and r16.
"""

import math

import numpy as np
import pytest

from chancap import (
    Distribution,
    ParameterOutOfRange,
    Termination,
    arimoto_step,
    bsc,
    exact_backward_m_step,
    output_marginal,
    per_input_divergences,
    solve_arimoto,
    solve_backward_em,
)
from chancap import arimoto
from chancap.backward_em import _CHEAP_INNER, _MAX_STEP_SIZE, _NEWTON_MAX_OUTPUTS
from support import (
    inner_solves_per_step, multiplicative_step, pinned_squares, random_channel, record_inner_solves, reference_m_step,
    refused_square, replayed, without_support_newton,
)


def random_channels(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    return [random_channel(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9))) for _ in range(count)]


def test_criterion_04_design_never_descends():
    # Criterion 04's channels and settings on the adaptive default.  An
    # exact candidate is accepted when its lower bound does not fall or its
    # bracket gap is narrower than the current one, so every exact step
    # keeps the bound or narrows the gap; at the rounding floor the bound
    # may fall by an ulp, never by criterion 04's 1e-12.  A test of the
    # bound alone rejected those candidates down to 434 fallbacks, and 53
    # of the 200 runs reached 1e-14; this rule took 1 fallback and 127
    # with inner solves to 1e-10 / lambda, and 0 and 133 in 5,660 steps
    # with inner solves to the gap over lambda.  The support-Newton route
    # is accepted only when its lower bound does not fall and its gap is at
    # most tol, so it is each run's last step: with it all 200 runs reach
    # 1e-14, in 457 steps, 200 of them the route's (916 and 198 when a try
    # waited for the unused weights to fall below 1e-12).
    rng = np.random.default_rng(41)
    steps = descents = fallbacks = converged = finished = 0
    for _ in range(200):
        n, m = int(rng.integers(2, 17)), int(rng.integers(2, 17))
        result, trace = solve_backward_em(random_channel(rng, n, m), tol=1e-14, max_iters=40, max_inner=300)
        converged += result.termination is Termination.CONVERGED
        lowers, uppers, routes = map(trace._column, ("lower_bound", "upper_bound", "step_status"))
        for k in range(1, len(trace)):
            steps += 1
            descents += lowers[k] < lowers[k - 1] - 1e-12
            fallbacks += routes[k] == "fallback"
            if routes[k] == "exact":
                assert lowers[k] >= lowers[k - 1] or uppers[k] - lowers[k] < uppers[k - 1] - lowers[k - 1]
            elif routes[k] == "support_newton":
                assert k == len(trace) - 1 and lowers[k] >= lowers[k - 1] and uppers[k] - lowers[k] <= 1e-14
                finished += 1
    assert 400 < steps < 1000
    assert descents == 0
    assert fallbacks <= 10
    assert converged == finished == 200


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


def test_step_size_follows_the_adaptive_rule(monkeypatch):
    # lambda starts at 1 and doubles after an exact step of at most three
    # inner steps, up to its cap; each rejected candidate quarters it, never
    # below 1, and only a step at lambda = 1 falls back.  The support-Newton
    # route, off here, would end most of these runs before any rejection.
    without_support_newton(monkeypatch)
    channels = [*random_channels(70, 8), pinned_squares()["r16"], bsc(0.3)]
    doubled = quartered = 0
    for ch in channels:
        _, trace = solve_backward_em(ch, tol=1e-12, max_iters=60)
        sizes, routes, inner, rejected = map(
            trace._column, ("step_size", "step_status", "inner_iterations", "rejected_candidates")
        )
        assert sizes[0] is None and rejected[0] is None
        previous = (None, None, None)
        for k in range(1, len(trace)):
            size, route, count = previous
            if size is None:
                start = 1.0
            elif route == "exact" and count <= _CHEAP_INNER:
                start = min(2.0 * size, _MAX_STEP_SIZE)
            else:
                start = size
            assert sizes[k] == max(start / 4 ** rejected[k], 1.0)
            if routes[k] == "fallback":
                assert sizes[k] == 1.0
            doubled += size is not None and sizes[k] == 2.0 * size
            quartered += rejected[k]
            previous = (sizes[k], routes[k], inner[k])
    assert doubled > 0 and quartered > 0


def test_paper_step_size_takes_the_reference_steps():
    # step_size=1.0 is the paper's iteration: every step is the reference
    # m-step's from the log-weights the previous Step carries, or the
    # multiplicative step of those log-weights where that does not
    # converge.  An exact step hands on the log-weights its iterate is exp
    # of, a fallback the shifted logits, whose maximum is 0.  The first step
    # starts from the log of the start weights, as the public calls do, so
    # there it is theirs too.  The last channel
    # is wider than the Newton cap, so its steps are damped.
    channels = [*random_channels(71, 5), random_channel(np.random.default_rng(69), 3, _NEWTON_MAX_OUTPUTS + 1)]
    routes = set()
    for ch in channels:
        for settings in ({}, {"max_inner": 2}):
            _, trace = solve_backward_em(ch, tol=1e-7, step_size=1.0, **settings)
            iterates = replayed(trace)
            for k, ((q, _, _, _, before), (stepped, _, _, _, after)) in enumerate(zip(iterates, iterates[1:])):
                base, log_base = Distribution(q), before.log_weights
                want = reference_m_step(base, ch, log_base=log_base, **settings)
                assert (after.step_size, after.rejected_candidates) == (1.0, 0)
                assert (after.inner_residual, after.inner_iterations) == (want.residual, want.inner_iterations)
                if want.solution is None:
                    d = per_input_divergences(ch, output_marginal(base, ch).weights)
                    log_expected, expected = multiplicative_step(log_base, d)
                    public = arimoto_step(base, ch).weights if k == 0 else expected
                    assert after.step_status == "fallback"
                    assert np.array_equal(after.log_weights, log_expected) and np.max(after.log_weights) == 0.0
                else:
                    expected = want.solution.induced_input.weights
                    public = expected
                    if k == 0:
                        public = exact_backward_m_step(base, ch, **settings).solution.induced_input.weights
                    assert after.step_status == "exact"
                    assert np.array_equal(np.exp(after.log_weights), stepped)
                assert np.array_equal(stepped, expected) and np.array_equal(public, expected)
                routes.add(after.step_status)
    # The paper's step size never takes the support-Newton route.
    assert routes == {"exact", "fallback"}


@pytest.mark.parametrize("step_size", [None, 1.0], ids=["default", "paper"])
def test_each_inner_solve_stops_at_the_gap_over_the_step_size(step_size, monkeypatch):
    # The default stops each inner solve at max(1e-10, gap) / lambda, the
    # gap being the one of the iterate it steps from; the paper's step size
    # stops it at 1e-10, as the public m-step does.  Read from the trace:
    # each exact record's residual against the record before it.  The
    # support-Newton route is off, so that the default takes enough exact
    # steps to show the rule.
    without_support_newton(monkeypatch)
    channels = [*(pinned_squares()[name] for name in ("r4", "r8", "r16", "r32")), *random_channels(75, 6)]
    exact = looser = 0
    for ch in channels:
        _, trace = solve_backward_em(ch, tol=1e-12, max_iters=300, step_size=step_size)
        lowers, uppers, routes, residuals, sizes = map(
            trace._column, ("lower_bound", "upper_bound", "step_status", "inner_residual", "step_size")
        )
        for k in range(1, len(trace)):
            if routes[k] != "exact":
                continue
            scale = max(1e-10, uppers[k - 1] - lowers[k - 1]) if step_size is None else 1e-10
            assert residuals[k] <= scale / sizes[k]
            exact += 1
            looser += residuals[k] > 1e-10 / sizes[k]
    assert exact > 100
    # The gap-scaled stop is used: under the default many solves stop
    # above 1e-10 / lambda.
    assert (looser > 10) == (step_size is None)
    for ch in random_channels(76, 4):
        outcome = exact_backward_m_step(Distribution.uniform(ch.num_inputs), ch)
        assert outcome.solution is not None and outcome.residual <= 1e-10


def test_rejected_candidates_count_their_inner_steps(monkeypatch):
    # slow32 to 1e-13 without the support-Newton route, which finishes it
    # at its first step, rejects candidates at large step sizes.  A step's
    # rejected_inner_iterations is the sum of the inner steps of its
    # solves but the last.  The paper's step size rejects nothing.
    without_support_newton(monkeypatch)
    calls = record_inner_solves(monkeypatch)
    _, trace = solve_backward_em(pinned_squares()["r32"], tol=1e-13)
    steps = inner_solves_per_step(calls)
    assert len(steps) == len(trace) - 1
    rejected, rejected_inner, inner = map(
        trace._column, ("rejected_candidates", "rejected_inner_iterations", "inner_iterations")
    )
    assert rejected[0] is None and rejected_inner[0] is None
    for k, (_, tried) in enumerate(steps, 1):
        assert rejected[k] == len(tried) - 1
        assert rejected_inner[k] == sum(solve.sweeps for solve in tried[:-1])
        assert inner[k] == tried[-1].sweeps
    assert sum(rejected[1:]) > 10 and sum(rejected_inner[1:]) > sum(rejected[1:])
    _, paper = solve_backward_em(pinned_squares()["r8"], tol=1e-9, step_size=1.0)
    assert paper._column("rejected_inner_iterations")[1:] == [0] * (len(paper) - 1)
    _, plain = solve_arimoto(pinned_squares()["r8"], tol=1e-9)
    assert set(plain._column("rejected_inner_iterations")) == {None}


def test_records_replay_an_adaptive_run(monkeypatch):
    # The step size lives on each Step, not in the stepper, and the gap the
    # next support-Newton try waits for is a local of the loop the replay
    # restarts, so the replay takes the same steps and the same tries; the
    # lambda column is compared like the others.  The refused square's
    # first try is refused, so its second waits for the gap to fall
    # tenfold, three exact steps later.  A replay that tried at every step
    # would finish earlier and fail the check.
    ch = refused_square()
    tries = []
    try_finish = arimoto._try_finish
    monkeypatch.setattr(arimoto, "_try_finish", lambda *args: tries.append(1) or try_finish(*args))
    _, trace = solve_backward_em(ch, tol=1e-9)
    sizes, routes = trace._column("step_size"), trace._column("step_status")
    assert len(tries) == 2
    records = trace.records
    assert len(tries) == 4
    assert [rec.step_size for rec in records] == sizes
    assert [rec.step_status for rec in records] == routes
    assert routes[1:] == ["exact"] * 3 + ["support_newton"]
    assert sizes[0] is sizes[-1] is None and sizes[1:-1] == [1.0, 2.0, 4.0]
    _, tampered = solve_backward_em(ch, tol=1e-9)
    # The step size of iteration 4, in the kept list of rows.
    tampered._kept[3 * len(tampered._columns) + tampered._columns.index("step_size")] *= 2.0
    with pytest.raises(AssertionError, match="iteration 4"):
        tampered.records


def test_channels_wider_than_the_cap_keep_the_paper_step_size(monkeypatch):
    # Their damped inner blend diverges above a step size of about 1.5.  The
    # support-Newton route, which the default takes at every width, finishes
    # this channel at its first step; without it the default is the paper's
    # iteration record for record.
    ch = random_channel(np.random.default_rng(73), 4, _NEWTON_MAX_OUTPUTS + 8)
    _, paper = solve_backward_em(ch, step_size=1.0)
    _, finished = solve_backward_em(ch)
    assert finished._column("step_status") == [None, "support_newton"]
    without_support_newton(monkeypatch)
    _, adaptive = solve_backward_em(ch)
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
        for column in paper._columns:
            # Bit for bit: a float's repr round-trips, and -0.0 keeps its sign.
            assert repr(trace._column(column)) == repr(paper._column(column))
    assert paper._column("step_size")[1:] == [1.0] * (len(paper) - 1)


def _tight_cases() -> dict:
    squares = pinned_squares()
    return {
        "r8-1e-13": (squares["r8"], 1e-13),
        "r16-1e-13": (squares["r16"], 1e-13),
        "slow32-1e-11": (squares["r32"], 1e-11),
        "slow32-1e-13": (squares["r32"], 1e-13),
        "random16-1e-12": (random_channel(np.random.default_rng(3), 16, 16), 1e-12),
    }


@pytest.mark.parametrize("case", list(_tight_cases()))
def test_the_default_reaches_a_tight_tolerance_within_200_outer_steps(case):
    # An inner tolerance of 1e-10 at every step size left each of these at
    # MAX_ITERATIONS after 200 steps, with a final gap 10 to 400 times wider
    # than one it had passed.  The tolerance 1e-10 / lambda took r8 and r16
    # there in 19 and 20 records, the random 16x16 in 28 and slow32 in 76
    # and 127; max(1e-10, gap) / lambda takes 17, 18, 20, 48 and 81, with
    # no fallback, and the support-Newton route finishes each sooner.
    ch, tol = _tight_cases()[case]
    result, trace = solve_backward_em(ch, tol=tol, max_iters=200)
    assert result.termination is Termination.CONVERGED
    assert "fallback" not in trace._column("step_status")


@pytest.mark.parametrize("name", ["r8", "r16"])
def test_the_default_reaches_1e_9_on_the_pinned_squares_within_20_records(name):
    # Doubling lambda after inner solves of at most three Newton steps, each
    # to a tolerance of max(1e-10, gap) / lambda, takes 14 records on
    # either; to 1e-10 / lambda it took 17, and doubling after two at a
    # fixed 1e-10 took 31 and 30.  The support-Newton route finishes both
    # at record 2.
    result, _ = solve_backward_em(pinned_squares()[name], tol=1e-9)
    assert result.termination is Termination.CONVERGED
    assert result.iterations <= 20
