"""The backward alternation: family members, both m-steps, and the solver."""

import numpy as np
import pytest

from chancap import (
    DimensionMismatch,
    Distribution,
    MStepOutcome,
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
    solve_arimoto,
    solve_backward_em,
    uniform_rows,
    z_channel,
)
from chancap.backward_em import _DAMPING
from support import random_channel, random_interior


def reference_m_step(base, ch, inner_tol=1e-10, max_inner=10000, damping=_DAMPING):
    """The exact m-step written from the public member and marginal.

    Each sweep builds a validated member and marginal; the library's loop
    runs the same arithmetic on raw arrays and must match it bit for bit.
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
        blended = (1.0 - damping) * r.weights + damping * mapped.weights
        if np.any(blended == 0.0):
            break
        r = Distribution(blended)
    return MStepOutcome(None, residual, min(sweep, max_inner), MStepStatus.NOT_CONVERGED_FALLBACK)


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
        outcome = exact_backward_m_step(
            Distribution(np.array([0.9, 0.1])), z_channel(0.5), inner_tol=1e-16, max_inner=2
        )
        assert outcome.status is MStepStatus.NOT_CONVERGED_FALLBACK
        assert outcome.solution is None
        assert outcome.inner_iterations == 2
        assert np.isfinite(outcome.residual)

    def test_parameter_validation(self):
        q = Distribution.uniform(2)
        with pytest.raises(ParameterOutOfRange):
            exact_backward_m_step(q, bsc(0.1), damping=0.0)
        with pytest.raises(ParameterOutOfRange):
            exact_backward_m_step(q, bsc(0.1), damping=1.5)
        with pytest.raises(ParameterOutOfRange):
            exact_backward_m_step(q, bsc(0.1), inner_tol=0.0)
        with pytest.raises(ParameterOutOfRange):
            exact_backward_m_step(q, bsc(0.1), max_inner=0)
        # A NaN inner_tol used to run every inner solve to max_inner.
        with pytest.raises(ParameterOutOfRange):
            exact_backward_m_step(q, bsc(0.1), inner_tol=float("nan"))
        for limit in (float("nan"), 2.5, "10"):
            with pytest.raises(ParameterOutOfRange):
                exact_backward_m_step(q, bsc(0.1), max_inner=limit)
        # Non-numbers used to reach a comparison and raise a bare TypeError.
        for value in ("0.5", None):
            with pytest.raises(ParameterOutOfRange):
                exact_backward_m_step(q, bsc(0.1), damping=value)
            with pytest.raises(ParameterOutOfRange):
                exact_backward_m_step(q, bsc(0.1), inner_tol=value)

    @pytest.mark.parametrize(
        "settings, expected",
        [
            ({}, MStepStatus.EXACT_CONVERGED),
            ({"damping": 1.0}, MStepStatus.EXACT_CONVERGED),
            ({"inner_tol": 1e-16, "max_inner": 2}, MStepStatus.NOT_CONVERGED_FALLBACK),
        ],
        ids=["default", "undamped", "not-converged"],
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
        with pytest.raises(ParameterOutOfRange):
            geometric_mixture_check(u, u, u, 1.5, ch)


class TestSolver:
    def test_matches_classical_solver_on_canonical_channels(self):
        for ch in (bsc(0.1), bsc(0.3), bec(0.5), z_channel(0.5)):
            classical, _ = solve_arimoto(ch)
            backward, _ = solve_backward_em(ch)
            assert backward.termination is Termination.CONVERGED
            assert backward.capacity == pytest.approx(classical.capacity, abs=2e-9)

    def test_trace_records_step_route_and_residual(self):
        _, trace = solve_backward_em(z_channel(0.5))
        routes = [rec.step_status for rec in trace.records[1:]]
        assert routes and all(route in ("exact", "fallback") for route in routes)
        assert all(
            rec.inner_residual is not None for rec in trace.records[1:]
        )
        assert all(rec.inner_iterations >= 0 for rec in trace.records[1:])
        assert trace.records[0].step_status is None
        assert trace.records[0].inner_iterations is None

    def test_useless_channel_terminates_in_one_iteration(self):
        result, _ = solve_backward_em(uniform_rows(2, 3))
        assert result.iterations == 1
        assert result.capacity == 0.0

    def test_monotone_with_forced_fallback_steps(self):
        # max_inner=1 starves the fixed point solve, forcing the fallback
        # route; information must still climb.
        result, trace = solve_backward_em(
            z_channel(0.5), max_inner=1, inner_tol=1e-14, max_iters=200
        )
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
            {"inner_tol": float("nan")},
            {"damping": 7.0},
            {"max_inner": -3},
            {"max_inner": 2.5},
            {"damping": "0.5"},
            {"inner_tol": None},
        ],
    )
    def test_inner_parameters_checked_before_the_first_step(self, settings):
        # bsc(0.1) converges at its first record, so no m-step ever runs.
        with pytest.raises(ParameterOutOfRange):
            solve_backward_em(bsc(0.1), **settings)

    def test_fallback_is_bit_identical_to_the_multiplicative_step(self):
        rng = np.random.default_rng(60)
        ch = random_channel(rng, 6, 5)
        _, trace = solve_backward_em(ch, max_inner=1)
        records = trace.records
        fallbacks = 0
        for before, after in zip(records, records[1:]):
            if after.step_status == "fallback":
                expected = arimoto_step(before.input_distribution, ch).weights
                assert np.array_equal(after.input_distribution.weights, expected)
                fallbacks += 1
        assert fallbacks > 0

    def test_exact_steps_match_the_standalone_m_step(self):
        # The solver starts each m-step from the output marginal and
        # divergences its own sweep computed; a fresh standalone m-step on
        # the same iterate must give the same step to the bit.
        rng = np.random.default_rng(62)
        exact = 0
        for _ in range(6):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            ch = random_channel(rng, n, m)
            _, trace = solve_backward_em(ch, tol=1e-7)
            for before, after in zip(trace.records, trace.records[1:]):
                assert after.step_status == "exact"
                outcome = exact_backward_m_step(before.input_distribution, ch)
                assert np.array_equal(
                    after.input_distribution.weights, outcome.solution.induced_input.weights
                )
                assert after.inner_residual == outcome.residual
                assert after.inner_iterations == outcome.inner_iterations
                exact += 1
        assert exact > 0

    def test_default_damping_halves_the_inner_sweeps(self):
        # A count, not a timing: the spectral argument in the m-step's
        # docstring predicts about half the inner sweeps of damping 0.5.
        # Channels with two outputs can sit near s = 1 and gain less or even
        # lose; this corpus has one, as drawn.
        rng = np.random.default_rng(63)
        channels = [
            random_channel(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            for _ in range(10)
        ]

        def inner_sweeps(damping):
            total = 0
            for ch in channels:
                _, trace = solve_backward_em(ch, tol=1e-6, damping=damping)
                assert all(rec.step_status == "exact" for rec in trace.records[1:])
                total += sum(rec.inner_iterations for rec in trace.records[1:])
            return total

        assert inner_sweeps(_DAMPING) <= 0.55 * inner_sweeps(0.5)

    def test_bracket_stopping_rule(self):
        result, trace = solve_backward_em(z_channel(0.5), tol=1e-9)
        assert result.bracket.upper - result.bracket.lower <= 1e-9
        for rec in trace:
            assert rec.lower_bound <= rec.upper_bound
