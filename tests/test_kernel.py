"""The channel kernel: output marginal and per-input divergences.

Every solver and check computes r = qP and d = negH - P log r with one
kernel.  The public output_marginal and per_input_divergences validate their
arguments before calling it; the solvers call it directly on the arrays they
build.  These tests pin the kernel against the plain divergence definition
and its determinism contract, and the solvers' unchecked path against the
public one, bit for bit and error for error.
"""

import numpy as np
import pytest

from chancap import (
    AbsoluteContinuityViolation,
    Channel,
    DimensionMismatch,
    Distribution,
    ProductPoint,
    RowNotStochastic,
    arimoto_step,
    backward_e_member,
    capacity_bracket,
    circumcenter_check,
    converse_check,
    e_project_to_channel,
    exact_backward_m_step,
    joint,
    kl_divergence,
    output_marginal,
    per_input_divergences,
    solve_arimoto,
    solve_backward_em,
)
from chancap.numeric import ordered_dot
from support import random_channel, random_interior


def sparse_channel(rng: np.random.Generator, n_in: int, n_out: int) -> Channel:
    """A random channel with about a third of its entries exactly zero."""
    m = rng.dirichlet(np.ones(n_out), size=n_in)
    m[rng.random(m.shape) < 0.3] = 0.0
    m[-1, 0] = 0.0
    # No row is left empty, and no column either, so no output is dropped.
    m[np.arange(n_in), rng.integers(1, n_out, size=n_in)] += 0.5
    m[0] += 1e-3
    return Channel(m / m.sum(axis=1, keepdims=True))


class TestDivergences:
    def test_matches_kl_divergence_row_by_row(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n, m = (int(v) for v in rng.integers(2, 24, size=2))
            ch = sparse_channel(rng, n, m)
            assert np.any(ch.matrix == 0.0)
            q = random_interior(rng, n)
            r = output_marginal(q, ch)
            d = per_input_divergences(ch, r.weights)
            expected = [kl_divergence(ch.row(x), r) for x in range(n)]
            assert np.max(np.abs(d - expected)) <= 1e-12

    def test_reference_with_zeros(self):
        ch = Channel(np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 1.0, 0.0]]))
        reference = np.array([0.5, 0.5, 0.0])
        with pytest.raises(AbsoluteContinuityViolation):
            per_input_divergences(ch, reference)
        d = per_input_divergences(ch, reference, infinite="inf")
        assert d[1] == np.inf
        assert d[0] == 0.0
        assert d[2] == pytest.approx(np.log(2.0), abs=1e-15)

    def test_row_negentropy_is_cached_and_read_only(self):
        ch = sparse_channel(np.random.default_rng(5), 6, 9)
        assert ch.row_negentropy is ch.row_negentropy
        with pytest.raises(ValueError):
            ch.row_negentropy[0] = 0.0


class TestInputSize:
    @pytest.mark.parametrize(
        "call",
        [
            lambda q, ch: joint(q, ch),
            lambda q, ch: output_marginal(q, ch),
            lambda q, ch: arimoto_step(q, ch),
            lambda q, ch: capacity_bracket(q, ch),
            lambda q, ch: backward_e_member(q, Distribution.uniform(ch.num_outputs), ch),
            lambda q, ch: exact_backward_m_step(q, ch),
            lambda q, ch: e_project_to_channel(
                ProductPoint(q, Distribution.uniform(ch.num_outputs)), ch
            ),
            lambda q, ch: circumcenter_check(q, ch),
            lambda q, ch: converse_check(ch, q),
        ],
    )
    def test_every_entry_point_rejects_a_mismatched_input_law(self, call):
        ch = Channel(np.array([[0.9, 0.1], [0.2, 0.8]]))
        with pytest.raises(DimensionMismatch):
            call(Distribution.uniform(3), ch)


class TestValidation:
    def test_first_bad_row_is_reported(self):
        m = np.full((5, 4), 0.25)
        m[2, 0] = 0.3
        m[4, 1] = 0.5
        with pytest.raises(RowNotStochastic) as exc:
            Channel(np.asfortranarray(m))
        assert exc.value.row == 2
        assert exc.value.deviation == pytest.approx(0.05)

    def test_rows_within_tolerance_are_renormalized(self):
        m = np.full((3, 4), 0.25)
        m[1] *= 1.0 + 1e-10
        ch = Channel(m)
        assert np.array_equal(ch.matrix[[0, 2]], m[[0, 2]])
        assert abs(float(np.sum(ch.matrix[1])) - 1.0) <= 1e-15


class TestMarginal:
    def test_bit_identical_to_running_row_sum(self):
        rng = np.random.default_rng(23)
        for n, m in [(1, 4), (2, 2), (3, 17), (40, 5), (64, 64), (300, 2), (2, 300)]:
            ch = sparse_channel(rng, n, m) if n > 1 else Channel(rng.dirichlet(np.ones(m), size=1))
            q = random_interior(rng, n)
            expected = np.cumsum(q.weights[:, None] * ch.matrix, axis=0)[-1]
            assert np.array_equal(output_marginal(q, ch).weights, Distribution(expected).weights)


class TestDeterminism:
    def test_fortran_order_input_is_bit_identical(self):
        rng = np.random.default_rng(31)
        m = rng.dirichlet(np.ones(33), size=47)
        ch_c = Channel(m)
        ch_f = Channel(np.asfortranarray(m))
        assert ch_f.matrix.flags.c_contiguous
        assert np.array_equal(ch_c.matrix, ch_f.matrix)
        q = random_interior(rng, 47)
        r_c = output_marginal(q, ch_c)
        r_f = output_marginal(q, ch_f)
        assert np.array_equal(r_c.weights, r_f.weights)
        assert np.array_equal(
            per_input_divergences(ch_c, r_c.weights), per_input_divergences(ch_f, r_f.weights)
        )

    def test_repeated_evaluation_on_a_large_channel(self):
        rng = np.random.default_rng(37)
        ch = Channel(rng.dirichlet(np.ones(256), size=256))
        q = random_interior(rng, 256)
        r = output_marginal(q, ch).weights
        d = per_input_divergences(ch, r)
        for _ in range(3):
            # A fresh channel recomputes its cached negentropies.
            again = Channel(ch.matrix)
            assert np.array_equal(output_marginal(q, again).weights, r)
            assert np.array_equal(per_input_divergences(again, r), d)
            assert np.array_equal(per_input_divergences(ch, r), d)


class TestTrustBoundary:
    @pytest.mark.parametrize(
        "call",
        [
            lambda q, ch: solve_arimoto(ch, initial=q),
            lambda q, ch: solve_backward_em(ch, initial=q),
            lambda q, ch: capacity_bracket(q, ch),
            lambda q, ch: arimoto_step(q, ch),
        ],
    )
    def test_underflowing_output_marginal_is_a_typed_error(self, call):
        # q is interior, but its output marginal underflows to (1, 0) while
        # row 1 keeps mass on output 1: the divergence there is infinite.
        ch = Channel(np.array([[1.0, 0.0], [1.0 - 1e-300, 1e-300]]))
        q = Distribution(np.array([1.0, 5e-324]))
        assert q.is_interior
        with pytest.raises(AbsoluteContinuityViolation):
            call(q, ch)

    @pytest.mark.parametrize("solve", [solve_arimoto, solve_backward_em])
    def test_solver_records_match_the_public_kernel(self, solve):
        rng = np.random.default_rng(71)
        records = 0
        for _ in range(4):
            n, m = (int(v) for v in rng.integers(2, 9, size=2))
            ch = random_channel(rng, n, m)
            _, trace = solve(ch, tol=1e-7)
            for rec in trace:
                q = rec.input_distribution
                d = per_input_divergences(ch, output_marginal(q, ch).weights)
                assert np.array_equal(rec.per_input_divergence, d)
                assert rec.lower_bound == ordered_dot(q.weights, d)
                records += 1
        assert records > 4
