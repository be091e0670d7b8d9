"""The multiplicative capacity iteration and its certificate bracket."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancap import (
    Channel,
    Distribution,
    NonInteriorInput,
    ParameterOutOfRange,
    Termination,
    approximate_m_step,
    arimoto_step,
    bsc,
    capacity_bracket,
    joint,
    solve_arimoto,
    solve_backward_em,
    uniform_rows,
    z_channel,
)
from chancap import arimoto, numeric, probability
from chancap.arimoto import _ARIMOTO_COLUMNS, Step, _arimoto_stepper, _iterate, _run
from chancap.probability import _normalized
from support import (
    multiplicative_step, mutual_information, pinned_squares, random_channel, random_interior, without_support_newton,
)

BSC01_CAPACITY = math.log(2.0) + 0.1 * math.log(0.1) + 0.9 * math.log(0.9)


class TestStep:
    def test_symmetric_fixed_point(self):
        q = Distribution.uniform(2)
        stepped = arimoto_step(q, bsc(0.1))
        assert np.max(np.abs(stepped.weights - 0.5)) <= 1e-15

    def test_z_channel_single_sweep(self):
        # Oracle: with uniform input on the half-flip z channel the
        # divergences are log(4/3) and log(4/3)/2, so the reweighted law is
        # (4/3, 2/sqrt(3)) normalized.
        w0 = 0.5 * (4.0 / 3.0)
        w1 = 0.5 * (2.0 / math.sqrt(3.0))
        oracle = np.array([w0, w1]) / (w0 + w1)
        assert oracle[0] == pytest.approx(0.5358983848622455, abs=1e-15)
        stepped = arimoto_step(Distribution.uniform(2), z_channel(0.5))
        assert np.max(np.abs(stepped.weights - oracle)) <= 1e-12
        # mass moves toward the noiseless input
        assert stepped.weights[0] > 0.5

    def test_requires_interior(self):
        with pytest.raises(NonInteriorInput):
            arimoto_step(Distribution(np.array([1.0, 0.0])), bsc(0.1))

    def test_never_increases_then_decreases_information(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            ch = random_channel(rng, n, m)
            q = random_interior(rng, n)
            before = mutual_information(joint(q, ch))
            after = mutual_information(joint(arimoto_step(q, ch), ch))
            assert after >= before - 1e-12

    def test_step_output_is_interior_distribution(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            ch = random_channel(rng, n, m)
            stepped = arimoto_step(random_interior(rng, n), ch)
            assert stepped.is_interior
            assert abs(float(np.sum(stepped.weights)) - 1.0) <= 1e-12

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=200)
    def test_update_ignores_constant_divergence_shifts(self, shift):
        rng = np.random.default_rng(77)
        q = rng.dirichlet(np.ones(5))
        d = rng.uniform(0.0, 3.0, size=5)
        base = _arimoto_stepper((None, d, None, None), Step(q, np.log(q))).iterate
        shifted = _arimoto_stepper((None, d + shift, None, None), Step(q, np.log(q))).iterate
        assert np.max(np.abs(base - shifted)) <= 1e-12

    def test_an_underflowed_weight_is_the_solvers_exact_zero(self):
        # The last input starts at the smallest subnormal and its step
        # underflows to an exact 0.  The public step is the solvers' step,
        # so it keeps that 0, bit for bit, and so does approximate_m_step.
        ch = Channel(np.vstack([np.eye(4), np.full(4, 0.25)]))
        q = Distribution(np.array([0.4, 0.3, 0.2, 0.1, 5e-324]))
        run = _run(ch, q.weights, _arimoto_stepper)
        next(run)
        solver = next(run)[0]
        assert solver[4] == 0.0
        stepped = arimoto_step(q, ch).weights
        assert np.array_equal(stepped, solver)
        assert np.array_equal(stepped, approximate_m_step(q, ch).weights)

    def test_the_solver_step_carries_log_weights_past_underflow(self):
        # The third input's log-weight lies far below log(tiny): its weight
        # is an exact 0, and the step moves its log like any other.  The
        # step's log-weights are the logits log q + d shifted to a maximum
        # of exactly 0, and its iterate is exp of them over their sum.
        log_q = np.array([math.log(0.5), math.log(0.5), -800.0])
        q = _normalized(np.exp(log_q))
        assert math.log(np.finfo(float).tiny) > log_q[2] and q[2] == 0.0
        d = np.array([0.1, 0.2, 0.3])
        step = _arimoto_stepper((None, d, None, None), Step(q, log_q))
        log_stepped, stepped = multiplicative_step(log_q, d)
        assert np.array_equal(step.log_weights, log_stepped) and np.max(step.log_weights) == 0.0
        assert step.iterate[2] == 0.0 and np.isfinite(step.log_weights).all()
        assert np.array_equal(step.iterate, stepped)
        # Its divergence rises far above the others': the input regains weight.
        d = np.array([0.0, 0.0, 900.0])
        again = _arimoto_stepper((None, d, None, None), step)
        assert again.iterate[2] > 0.5 and again.log_weights[2] == 0.0
        assert np.array_equal(again.iterate, multiplicative_step(step.log_weights, d)[1])

    def test_the_solver_step_starts_from_the_log_of_the_weights(self):
        # The start's Step carries np.log of the start weights, so the first
        # step tilts log q, as the public arimoto_step does; the log-weights
        # it hands on have their maximum at exactly 0.
        ch = z_channel(0.5)
        q = _normalized(np.array([0.2, 0.8]))
        run = _run(ch, q, _arimoto_stepper)
        (_, d, _, _, start), (stepped, _, _, _, step) = next(run), next(run)
        assert start.iterate is q and np.array_equal(start.log_weights, np.log(q))
        log_stepped, weights = multiplicative_step(np.log(q), d)
        assert np.array_equal(step.log_weights, log_stepped) and np.max(step.log_weights) == 0.0
        assert np.array_equal(stepped, weights)
        assert np.array_equal(stepped, arimoto_step(Distribution(q), ch).weights)

    def test_a_step_takes_one_exponential_and_no_logarithm(self, monkeypatch):
        # The step exponentiates the shifted logits once and divides by
        # their sum: no log-sum-exp, so no np.log and no second np.exp.
        calls = []

        class CountingNumpy:
            def __getattr__(self, name):
                value = getattr(np, name)
                if name in ("exp", "log"):
                    def counted(*args, **kwargs):
                        calls.append(name)
                        return value(*args, **kwargs)
                    return counted
                return value

        rng = np.random.default_rng(12)
        q = _normalized(rng.dirichlet(np.ones(6)))
        d = rng.uniform(0.0, 2.0, size=6)
        previous = Step(q, np.log(q))
        # The modules the step reaches: its own, the log-sum-exp's and the check's.
        for module in (arimoto, numeric, probability):
            monkeypatch.setattr(module, "np", CountingNumpy())
        step = _arimoto_stepper((None, d, None, None), previous)
        monkeypatch.undo()
        assert calls == ["exp"]
        assert np.array_equal(step.iterate, multiplicative_step(np.log(q), d)[1])


class TestBracket:
    def test_bracket_contains_capacity_of_bsc(self):
        rng = np.random.default_rng(4)
        ch = bsc(0.1)
        for _ in range(100):
            lower, upper = capacity_bracket(random_interior(rng, 2), ch)
            assert lower <= BSC01_CAPACITY + 1e-12
            assert upper >= BSC01_CAPACITY - 1e-12
            assert lower <= upper

    def test_lower_is_mutual_information(self):
        rng = np.random.default_rng(9)
        ch = random_channel(rng, 4, 5)
        q = random_interior(rng, 4)
        lower, _ = capacity_bracket(q, ch)
        assert lower == pytest.approx(mutual_information(joint(q, ch)), abs=1e-13)


class TestSolve:
    def test_bsc_capacity_matches_closed_form(self):
        result, trace = solve_arimoto(bsc(0.1))
        assert result.termination is Termination.CONVERGED
        assert result.capacity == pytest.approx(BSC01_CAPACITY, abs=1e-8)
        assert result.bracket.lower <= result.capacity <= result.bracket.upper
        assert result.capacity == 0.5 * (result.bracket.lower + result.bracket.upper)
        assert len(trace) == result.iterations

    def test_useless_channel_terminates_immediately(self):
        result, trace = solve_arimoto(uniform_rows(3, 4))
        assert result.iterations == 1
        assert result.capacity == 0.0

    def test_gap_at_termination(self):
        result, _ = solve_arimoto(z_channel(0.5), tol=1e-9)
        assert result.bracket.upper - result.bracket.lower <= 1e-9

    def test_trace_brackets_are_ordered_and_monotone(self):
        _, trace = solve_arimoto(z_channel(0.3), tol=1e-10)
        previous = -np.inf
        for rec in trace:
            assert rec.lower_bound <= rec.upper_bound
            assert rec.mutual_info >= previous - 1e-12
            assert rec.inner_iterations is None
            previous = rec.mutual_info

    def test_a_noiseless_channel_closes_its_gap_exactly(self):
        # A noiseless 10-symbol channel plus a useless input.  The step
        # divides the tilted weights by their sum, so the ten live weights
        # come out equal to the bit and the bracket closes to a gap of
        # exactly 0: even a 1e-300 tolerance converges, within 20 sweeps.
        ch = Channel(np.vstack([np.eye(10), np.full(10, 0.1)]))
        result, _ = solve_arimoto(ch, tol=1e-300)
        assert result.termination is Termination.CONVERGED and result.iterations <= 20
        assert result.bracket.upper - result.bracket.lower == 0.0
        assert result.capacity == pytest.approx(math.log(10.0), abs=1e-15)

    def test_max_iters_termination(self, monkeypatch):
        # The support-Newton route finishes z at its first step.
        without_support_newton(monkeypatch)
        result, trace = solve_arimoto(z_channel(0.5), tol=1e-15, max_iters=3)
        assert result.termination is Termination.MAX_ITERATIONS
        assert result.iterations == 3

    def test_explicit_initial_law(self):
        start = Distribution(np.array([0.9, 0.1]))
        result, trace = solve_arimoto(bsc(0.2), initial=start)
        assert np.array_equal(trace.records[0].input_distribution.weights, start.weights)
        assert result.capacity == pytest.approx(
            math.log(2.0) + 0.2 * math.log(0.2) + 0.8 * math.log(0.8), abs=1e-8
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterOutOfRange):
            solve_arimoto(bsc(0.1), tol=0.0)
        with pytest.raises(ParameterOutOfRange):
            solve_arimoto(bsc(0.1), tol=float("nan"))
        # Non-numbers used to reach a comparison and raise a bare TypeError.
        for tol in ("1e-9", None):
            with pytest.raises(ParameterOutOfRange):
                solve_arimoto(z_channel(0.5), tol=tol)
        with pytest.raises(ParameterOutOfRange):
            solve_arimoto(bsc(0.1), max_iters=0)
        # Non-integers used to reach range() and raise a bare TypeError.
        for limit in (float("nan"), 2.5, 10.0, "10"):
            with pytest.raises(ParameterOutOfRange):
                solve_arimoto(z_channel(0.5), max_iters=limit)
        with pytest.raises(NonInteriorInput):
            solve_arimoto(bsc(0.1), initial=Distribution(np.array([1.0, 0.0])))

    def test_numpy_integer_limits_are_accepted(self, monkeypatch):
        # The support-Newton route finishes z at its first step.
        without_support_newton(monkeypatch)
        result, _ = solve_arimoto(z_channel(0.5), max_iters=np.int64(3))
        assert result.iterations == 3
        result, _ = solve_backward_em(z_channel(0.5), max_inner=np.int32(50))
        assert result.termination is Termination.CONVERGED

    @pytest.mark.parametrize("solve", [solve_arimoto, solve_backward_em])
    def test_an_underflowing_weight_is_an_exact_zero_and_never_clamped(self, solve):
        # The last input starts at the smallest subnormal; its first step
        # underflows it to 0.  Both solvers' state is the log-weights, so
        # the iterate keeps the zero, whose log stays finite, and nothing is
        # lifted.
        ch = Channel(np.vstack([np.eye(4), np.full(4, 0.25)]))
        start = Distribution(np.array([0.4, 0.3, 0.2, 0.1, 5e-324]))
        result, trace = solve(ch, initial=start)
        assert not any(rec.clamped for rec in trace.records)
        assert trace.records[1].input_distribution.weights[4] == 0.0
        assert result.optimal_input.weights[4] == 0.0
        assert result.termination is Termination.CONVERGED
        assert result.capacity == pytest.approx(math.log(4.0), abs=1e-9)

    def test_few_iterates_carry_subnormal_weights(self):
        # Along the pinned slow32 to 1e-7, weights rebuilt from the log of
        # their own rounding kept 39,084 subnormal entries over 8,827 of its
        # 11,357 iterates; carried log-weights drop below the subnormals to
        # an exact 0 (2,852 entries with numpy 2.4).  The bound leaves room
        # for other numpy builds' einsum rounding.
        ch = pinned_squares()["r32"]
        tiny = np.finfo(float).tiny
        subnormal = 0
        for iteration, (q, _, lower, upper, step) in enumerate(
            _run(ch, Distribution.uniform(32).weights, _arimoto_stepper), 1
        ):
            subnormal += int(np.count_nonzero((q > 0.0) & (q < tiny)))
            assert np.isfinite(step.log_weights).all()
            if upper - lower <= 1e-7 or iteration == 20000:
                break
        assert upper - lower <= 1e-7
        assert subnormal <= 39084 // 10

    def test_a_falling_lower_bound_fails_the_bracket_check(self):
        # No solver's step lowers the mutual information, so a stepper that
        # always jumps to a worse law than the uniform start stands in for
        # a faulty one: the loop stops at the second iterate.
        def stepper(sweep, previous):
            weights = _normalized(np.array([0.95, 0.05]))
            return Step(weights, np.log(weights))

        with pytest.raises(AssertionError, match=r"^iteration 2: bracket \(.*\) is unordered or below the previous"):
            _iterate(z_channel(0.5), 1e-9, 10, None, stepper, _ARIMOTO_COLUMNS)

    def test_deterministic_across_runs(self):
        first, _ = solve_arimoto(z_channel(0.4))
        second, _ = solve_arimoto(z_channel(0.4))
        assert first.capacity == second.capacity
        assert np.array_equal(first.optimal_input.weights, second.optimal_input.weights)
