"""The backward alternation: family members, both m-steps, and the solver."""

import itertools

import numpy as np
import pytest

from chancap import (
    Channel,
    DimensionMismatch,
    Distribution,
    MStepStatus,
    NonInteriorInput,
    ParameterOutOfRange,
    ProductPoint,
    Termination,
    approximate_m_step,
    arimoto_step,
    backward_e_member,
    bec,
    bsc,
    e_project_to_channel,
    exact_backward_m_step,
    geometric_mixture_check,
    joint,
    kl_divergence,
    output_marginal,
    per_input_divergences,
    solve_arimoto,
    solve_backward_em,
    uniform_rows,
    z_channel,
)
from chancap import backward_em
from chancap.arimoto import _sweep
from chancap.backward_em import _NEWTON_MAX_OUTPUTS
from support import (
    inner_solves_per_step, multiplicative_step, pinned_squares, random_channel, random_interior, record_inner_solves,
    reference_m_step, refused_square, replayed, without_support_newton,
)


def member_divergence(base, ch, member):
    """D(joint of base || member's product law), flattened."""
    return kl_divergence(
        Distribution(joint(base, ch).weights.ravel()),
        Distribution(member.product_weights().ravel()),
    )


class TestFamilyMember:
    def test_induced_input_is_normalized_and_interior(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            ch = random_channel(rng, n, m)
            member = backward_e_member(
                random_interior(rng, n), random_interior(rng, m), ch
            )
            assert member.induced_input.is_interior
            assert abs(float(np.sum(member.induced_input.weights)) - 1.0) <= 1e-12

    def test_log_normalizer_is_non_negative(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            ch = random_channel(rng, n, m)
            base = random_interior(rng, n)
            r = random_interior(rng, m)
            assert backward_e_member(base, r, ch).log_normalizer >= -1e-12

    def test_member_at_output_marginal_reproduces_sweep(self):
        # Freezing r at the output marginal makes the induced input exactly
        # one multiplicative sweep of the base.
        rng = np.random.default_rng(45)
        ch = random_channel(rng, 3, 3)
        base = random_interior(rng, 3)
        member = backward_e_member(base, output_marginal(base, ch), ch)
        assert np.max(np.abs(member.induced_input.weights - arimoto_step(base, ch).weights)) <= 1e-15

    def test_requires_interior_base(self):
        with pytest.raises(NonInteriorInput):
            backward_e_member(
                Distribution(np.array([1.0, 0.0])), Distribution.uniform(2), bsc(0.1)
            )

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            backward_e_member(Distribution.uniform(3), Distribution.uniform(2), bsc(0.1))
        with pytest.raises(DimensionMismatch):
            backward_e_member(Distribution.uniform(2), Distribution.uniform(3), bsc(0.1))

    def test_inverts_e_projection(self):
        # Round trip: e-projecting the member's product law back onto the
        # channel family recovers the base input.
        rng = np.random.default_rng(46)
        for _ in range(500):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            ch = random_channel(rng, n, m)
            base = random_interior(rng, n)
            r = random_interior(rng, m)
            member = backward_e_member(base, r, ch)
            recovered = e_project_to_channel(ProductPoint(member.induced_input, r), ch)
            assert np.max(np.abs(recovered.weights - base.weights)) <= 1e-10

    def test_divergence_to_member_is_log_normalizer(self):
        rng = np.random.default_rng(47)
        for _ in range(500):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            ch = random_channel(rng, n, m)
            base = random_interior(rng, n)
            member = backward_e_member(base, random_interior(rng, m), ch)
            assert member_divergence(base, ch, member) == pytest.approx(
                member.log_normalizer, abs=1e-10
            )


class TestExactMStep:
    def test_reports_fixed_point_residual(self):
        outcome = exact_backward_m_step(Distribution.uniform(2), z_channel(0.5))
        assert outcome.status is MStepStatus.EXACT_CONVERGED
        assert outcome.solution is not None
        assert outcome.residual <= 1e-10
        member = outcome.solution
        mapped = output_marginal(member.induced_input, z_channel(0.5))
        assert np.max(np.abs(mapped.weights - member.output_factor.weights)) <= 1e-10

    def test_residual_vanishes_at_an_optimum(self):
        for ch in (bsc(0.1), bec(0.5), z_channel(0.5)):
            ref, _ = solve_arimoto(ch, tol=1e-10)
            outcome = exact_backward_m_step(ref.optimal_input, ch)
            assert outcome.status is MStepStatus.EXACT_CONVERGED
            assert outcome.residual <= 1e-8

    def test_non_convergence_is_a_status_not_an_error(self):
        outcome = exact_backward_m_step(Distribution(np.array([0.9, 0.1])), z_channel(0.5), max_inner=1)
        assert outcome.status is MStepStatus.NOT_CONVERGED_FALLBACK
        assert outcome.solution is None
        assert outcome.inner_iterations == 1
        assert np.isfinite(outcome.residual)

    def test_parameter_validation(self):
        q = Distribution.uniform(2)
        # Non-integers used to reach range() and raise a bare TypeError.
        for limit in (0, -3, float("nan"), 2.5, "10", None):
            with pytest.raises(ParameterOutOfRange):
                exact_backward_m_step(q, bsc(0.1), max_inner=limit)

    @pytest.mark.parametrize(
        "settings, expected",
        [
            ({}, MStepStatus.EXACT_CONVERGED),
            ({"max_inner": 2}, MStepStatus.NOT_CONVERGED_FALLBACK),
        ],
        ids=["default", "not-converged"],
    )
    def test_bit_identical_to_the_reference_loop(self, settings, expected):
        rng = np.random.default_rng(61)
        statuses = set()
        for _ in range(50):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            ch = random_channel(rng, n, m)
            base = random_interior(rng, n)
            got = exact_backward_m_step(base, ch, **settings)
            want = reference_m_step(base, ch, **settings)
            assert got.status is want.status
            assert got.residual == want.residual
            assert got.inner_iterations == want.inner_iterations
            statuses.add(got.status)
            if want.solution is None:
                assert got.solution is None
                continue
            assert np.array_equal(
                got.solution.output_factor.weights, want.solution.output_factor.weights
            )
            assert np.array_equal(
                got.solution.induced_input.weights, want.solution.induced_input.weights
            )
            assert got.solution.log_normalizer == want.solution.log_normalizer
        assert expected in statuses

    @pytest.mark.parametrize("outputs", [_NEWTON_MAX_OUTPUTS, _NEWTON_MAX_OUTPUTS + 1])
    def test_channels_wider_than_the_cap_keep_the_damped_loop(self, outputs):
        # Up to the cap the inner steps are Newton's; past it every step is
        # the damped blend, bit for bit.
        rng = np.random.default_rng(66)
        for n in (2, 5):
            ch = random_channel(rng, n, outputs)
            base = random_interior(rng, n)
            got = exact_backward_m_step(base, ch)
            want = reference_m_step(base, ch)
            assert got.status is want.status is MStepStatus.EXACT_CONVERGED
            assert (got.residual, got.inner_iterations) == (want.residual, want.inner_iterations)
            assert np.array_equal(got.solution.induced_input.weights, want.solution.induced_input.weights)

    def test_pythagorean_chain_at_exact_steps(self):
        # With the member in the backward family and the new joint on the
        # channel family, divergences add along the projection path.
        rng = np.random.default_rng(48)
        done = 0
        while done < 100:
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            ch = random_channel(rng, n, m)
            base = random_interior(rng, n)
            outcome = exact_backward_m_step(base, ch)
            if outcome.status is not MStepStatus.EXACT_CONVERGED:
                continue
            member = outcome.solution
            p_next = Distribution(joint(member.induced_input, ch).weights.ravel())
            p_base = Distribution(joint(base, ch).weights.ravel())
            lhs = kl_divergence(p_next, Distribution(member.product_weights().ravel()))
            rhs = kl_divergence(p_next, p_base) + member_divergence(base, ch, member)
            assert lhs == pytest.approx(rhs, abs=1e-9)
            done += 1


class TestApproximateMStep:
    def test_coincides_with_multiplicative_sweep(self):
        rng = np.random.default_rng(49)
        for _ in range(500):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            ch = random_channel(rng, n, m)
            q = random_interior(rng, n)
            assert np.max(
                np.abs(approximate_m_step(q, ch).weights - arimoto_step(q, ch).weights)
            ) <= 1e-12


class TestGeometricMixture:
    def test_family_closed_under_geometric_mixing(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            ch = random_channel(rng, n, m)
            result = geometric_mixture_check(
                random_interior(rng, n),
                random_interior(rng, m),
                random_interior(rng, m),
                float(rng.uniform()),
                ch,
            )
            assert result.max_deviation <= 1e-8
            assert result.normalizer_gap <= 1e-8

    def test_endpoint_weights_return_the_endpoints(self):
        rng = np.random.default_rng(51)
        ch = random_channel(rng, 3, 4)
        base = random_interior(rng, 3)
        r1 = random_interior(rng, 4)
        r2 = random_interior(rng, 4)
        at_zero = geometric_mixture_check(base, r1, r2, 0.0, ch)
        assert np.array_equal(at_zero.member.output_factor.weights, r2.weights)
        assert at_zero.max_deviation == 0.0
        at_one = geometric_mixture_check(base, r1, r2, 1.0, ch)
        assert np.array_equal(at_one.member.output_factor.weights, r1.weights)

    def test_weight_out_of_range(self):
        ch = bsc(0.1)
        u = Distribution.uniform(2)
        for weight in (1.5, float("nan"), "0.5"):
            with pytest.raises(ParameterOutOfRange):
                geometric_mixture_check(u, u, u, weight, ch)

    def test_factor_sizes_must_match_the_outputs(self):
        ch = bsc(0.1)
        u2, u3 = Distribution.uniform(2), Distribution.uniform(3)
        for r1, r2 in ((u3, u2), (u2, u3)):
            with pytest.raises(DimensionMismatch):
                geometric_mixture_check(u2, r1, r2, 0.5, ch)


class TestSolver:
    def test_matches_classical_solver_on_canonical_channels(self):
        for ch in (bsc(0.1), bsc(0.3), bec(0.5), z_channel(0.5)):
            classical, _ = solve_arimoto(ch)
            backward, _ = solve_backward_em(ch)
            assert backward.termination is Termination.CONVERGED
            assert backward.capacity == pytest.approx(classical.capacity, abs=2e-9)

    def test_trace_records_step_route_and_residual(self):
        # Every step is exact or a fallback but the last, which the
        # support-Newton route makes: it is accepted only at a gap of at
        # most tol, so it ends the run.  z finishes at its first step; the
        # refused square's first try is refused, and its route finishes
        # after three exact steps.
        for ch, steps in ((z_channel(0.5), 1), (refused_square(), 4)):
            _, trace = solve_backward_em(ch)
            records = trace.records
            routes = [rec.step_status for rec in records[1:]]
            assert len(routes) == steps and routes[-1] == "support_newton"
            assert all(route in ("exact", "fallback") for route in routes[:-1])
            assert all(rec.inner_residual is not None for rec in records[1:])
            assert all(rec.inner_iterations >= 0 for rec in records[1:])
            last = records[-1]
            # The route has no step size and rejects no candidate; its inner
            # count is its Newton steps and its residual the last correction,
            # at most the square root of the float64 epsilon, where its
            # solves stop.
            assert last.gap <= 1e-9 and last.step_size is None
            assert (last.rejected_candidates, last.rejected_inner_iterations) == (0, 0)
            assert last.inner_iterations >= 1 and 0.0 <= last.inner_residual <= np.finfo(float).eps ** 0.5
            assert records[0].step_status is None
            assert records[0].inner_iterations is None

    def test_useless_channel_terminates_in_one_iteration(self):
        result, _ = solve_backward_em(uniform_rows(2, 3))
        assert result.iterations == 1
        assert result.capacity == 0.0

    def test_monotone_with_forced_fallback_steps(self):
        # max_inner=1 starves the fixed point solve at the paper's step size,
        # whose inner tolerance is 1e-10, forcing the fallback route on 16
        # of z's 49 steps; information must still climb.  The default stops
        # each inner solve at the bracket gap, which one Newton step reaches
        # here, so it takes no fallback.
        result, trace = solve_backward_em(z_channel(0.5), max_inner=1, max_iters=200, step_size=1.0)
        routes = {rec.step_status for rec in trace.records[1:]}
        assert "fallback" in routes
        for before, after in zip(trace.records, trace.records[1:]):
            assert after.mutual_info >= before.mutual_info - 1e-12
        assert result.capacity == pytest.approx(np.log(1.25), abs=1e-8)

    def test_rejects_nan_tolerance(self):
        with pytest.raises(ParameterOutOfRange):
            solve_backward_em(bsc(0.1), tol=float("nan"))
        with pytest.raises(ParameterOutOfRange):
            solve_backward_em(z_channel(0.5), tol="1e-9")

    @pytest.mark.parametrize(
        "settings",
        [
            {"max_inner": float("nan")},
            {"max_inner": -3},
            {"max_inner": 2.5},
            {"max_inner": None},
        ],
    )
    def test_inner_parameters_checked_before_the_first_step(self, settings):
        # bsc(0.1) converges at its first record, so no m-step ever runs.
        with pytest.raises(ParameterOutOfRange):
            solve_backward_em(bsc(0.1), **settings)

    def test_inner_parameters_are_checked_once_per_solve(self, monkeypatch):
        # The solver checks max_inner once; its inner solves check
        # nothing, and a standalone m-step still makes the check.
        calls = []
        check = backward_em._check_limit

        def counting(name, *args):
            calls.append(name)
            check(name, *args)

        monkeypatch.setattr(backward_em, "_check_limit", counting)
        # The refused square takes exact steps and two support-Newton tries.
        result, _ = solve_backward_em(refused_square())
        assert result.iterations > 2
        assert calls == ["max_inner"]
        exact_backward_m_step(Distribution.uniform(2), z_channel(0.5))
        assert calls == ["max_inner"] * 2

    def test_fallback_is_bit_identical_to_the_multiplicative_step(self):
        # The fallback is the multiplicative step of the log-weights the
        # previous Step carries, with the divergences a fresh public sweep
        # gives: its log-weights are the logits shifted to a maximum of 0,
        # and its iterate exp of them over their sum.  The first step starts
        # from the log of the start weights, as the public arimoto_step
        # does, so there the two coincide.  At the paper's step size
        # max_inner=1 starves the inner solve, first step included; the
        # default's gap-scaled inner tolerance does not.
        rng = np.random.default_rng(60)
        ch = random_channel(rng, 6, 5)
        _, trace = solve_backward_em(ch, tol=1e-7, max_inner=1, step_size=1.0)
        iterates = replayed(trace)
        fallbacks = firsts = 0
        for k, ((q, _, _, _, before), (stepped, _, _, _, after)) in enumerate(zip(iterates, iterates[1:])):
            if after.step_status == "fallback":
                base = Distribution(q)
                d = per_input_divergences(ch, output_marginal(base, ch).weights)
                log_stepped, weights = multiplicative_step(before.log_weights, d)
                assert np.array_equal(after.log_weights, log_stepped) and np.max(after.log_weights) == 0.0
                assert np.array_equal(stepped, weights)
                if k == 0:
                    assert np.array_equal(stepped, arimoto_step(base, ch).weights)
                    firsts += 1
                fallbacks += 1
        assert fallbacks > 1 and firsts == 1

    def test_exact_steps_match_the_standalone_m_step(self):
        # The solver starts each m-step from the output marginal and
        # divergences its own sweep computed; the reference m-step, started
        # afresh from the log-weights the previous Step carries, must give
        # the same step to the bit, and so must the public m-step on the
        # first step, which starts from the log of the start weights.  The
        # last channel is wider than the Newton cap, so its inner steps are
        # all damped sweeps.
        rng = np.random.default_rng(62)
        channels = [random_channel(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9))) for _ in range(6)]
        channels.append(random_channel(np.random.default_rng(69), 3, _NEWTON_MAX_OUTPUTS + 1))
        exact = firsts = 0
        for ch in channels:
            _, trace = solve_backward_em(ch, tol=1e-7, step_size=1.0)
            iterates = replayed(trace)
            for k, ((q, _, _, _, before), (stepped, _, _, _, after)) in enumerate(zip(iterates, iterates[1:])):
                assert after.step_status == "exact"
                base = Distribution(q)
                want = reference_m_step(base, ch, log_base=before.log_weights)
                if k == 0:
                    outcome = exact_backward_m_step(base, ch)
                    assert (outcome.residual, outcome.inner_iterations) == (want.residual, want.inner_iterations)
                    assert np.array_equal(outcome.solution.induced_input.weights, want.solution.induced_input.weights)
                    firsts += 1
                assert np.array_equal(stepped, want.solution.induced_input.weights)
                assert np.array_equal(np.exp(after.log_weights), stepped)
                assert (after.inner_residual, after.inner_iterations) == (want.residual, want.inner_iterations)
                exact += 1
        assert exact > len(channels) and firsts == len(channels)

    def test_exact_steps_hand_the_member_input_through(self, monkeypatch):
        # The next iterate of an exact step is the inner solve's own raw
        # induced input, not a copy validated again, and its log-weights
        # are the ones the solve computed: that array is the next solve's
        # log base, and the induced input is the recorded iterate.  A
        # rejected candidate is solved again from the same base, so the
        # step's accepted solve is the last of the solves on its base.
        # The support-Newton route makes no inner solve; off, every step has one.
        without_support_newton(monkeypatch)
        calls = record_inner_solves(monkeypatch)
        rng = np.random.default_rng(64)
        handed = 0
        for _ in range(3):
            ch = random_channel(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            calls.clear()
            _, trace = solve_backward_em(ch, tol=1e-7)
            # The calls of the solve itself: reading the records replays the
            # run, which calls the patched loop again.
            steps = inner_solves_per_step(calls)
            assert len(steps) == len(trace) - 1
            routes = trace._column("step_status")
            for k, (_, tried) in enumerate(steps[:-1]):
                if routes[k + 1] == "exact":
                    assert steps[k + 1][0] is tried[-1].point.log_induced
                    handed += 1
            for rec, (_, tried) in zip(trace.records[1:], steps):
                if rec.step_status == "exact":
                    assert rec.input_distribution.weights.tobytes() == tried[-1].point.induced.tobytes()
        assert handed > 0

    @pytest.mark.parametrize(
        "case",
        ["random", "z", "wide", "fallback", "clamp"],
    )
    def test_every_record_is_the_bracket_of_its_iterate(self, case, monkeypatch):
        # A sweep after an exact step reuses the output marginal the m-step
        # computed, and one after the support-Newton route hands its own
        # sweep on; every record must still be, bit for bit, the bracket and
        # divergences a fresh sweep gives at the recorded iterate.  A record
        # may hold an exact zero weight, which capacity_bracket refuses, so
        # the bracket is _sweep's, the one capacity_bracket returns.  Each
        # channel runs with the route and without it: the exact steps, and
        # the underflows, are those of the run without.
        settings, initial = {}, None
        if case == "random":
            rng = np.random.default_rng(72)
            channels = [random_channel(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9))) for _ in range(3)]
        elif case == "z":
            channels = [z_channel(0.5)]
        elif case == "wide":
            # Wider than the Newton cap: every inner step is damped.
            channels = [random_channel(np.random.default_rng(73), 4, _NEWTON_MAX_OUTPUTS + 8)]
        elif case == "fallback":
            # The default's gap-scaled inner tolerance takes every step of
            # this channel exactly; at the paper's step size some fall back.
            channels = [random_channel(np.random.default_rng(74), 6, 5)]
            settings = {"max_inner": 2, "step_size": 1.0}
        else:
            # tools/trace_hash.py's underflow run: the last input starts at
            # the smallest subnormal, and its first step underflows to 0.
            channels = [Channel(np.vstack([np.eye(4), np.full(4, 0.25)]))]
            initial = Distribution(np.array([0.4, 0.3, 0.2, 0.1, 5e-324]))
        routes, finished, zeros = set(), set(), False
        for ch, route in itertools.product(channels, (True, False)):
            with monkeypatch.context() as patch:
                if not route:
                    without_support_newton(patch)
                _, trace = solve_backward_em(ch, initial=initial, **settings)
                records = trace.records
            for rec in records:
                q = rec.input_distribution
                bracket = np.array(_sweep(q.weights, ch)[2:])
                assert np.array([rec.lower_bound, rec.upper_bound]).tobytes() == bracket.tobytes()
                fresh = per_input_divergences(ch, output_marginal(q, ch).weights)
                assert rec.per_input_divergence.tobytes() == fresh.tobytes()
                assert not rec.clamped
                (routes if not route else finished).add(rec.step_status)
                zeros |= not route and bool((q.weights == 0.0).any())
        assert "exact" in routes
        # The paper's step size never takes the route.
        assert ("support_newton" in finished) == (case != "fallback")
        assert ("fallback" in routes) == (case == "fallback")
        # The random case's 8x7 channel underflows a weight too, at record
        # 15 with a step size of 2048: one of its inputs has zero optimal
        # weight, and that long a step takes it below the subnormals.
        assert zeros == (case in ("clamp", "random"))

    def test_newton_takes_about_one_inner_sweep_per_step(self):
        # A count, not a timing, at the paper's step size: Newton's inner
        # solve converges quadratically.  On this corpus it takes 1.28 inner
        # sweeps per outer step, where the damped sweep at 0.8 took 7.21.
        rng = np.random.default_rng(63)
        outer = inner = 0
        for _ in range(10):
            ch = random_channel(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            _, trace = solve_backward_em(ch, tol=1e-6, step_size=1.0)
            assert all(rec.step_status == "exact" for rec in trace.records[1:])
            outer += len(trace) - 1
            inner += sum(rec.inner_iterations for rec in trace.records[1:])
        assert inner <= 1.6 * outer

    def test_bracket_stopping_rule(self):
        result, trace = solve_backward_em(z_channel(0.5), tol=1e-9)
        assert result.bracket.upper - result.bracket.lower <= 1e-9
        for rec in trace:
            assert rec.lower_bound <= rec.upper_bound
