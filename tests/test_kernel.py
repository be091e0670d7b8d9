"""The channel kernel: output marginal and per-input divergences.

Every solver and check computes r = qP and d = negH - P log r with one
kernel.  The public output_marginal and per_input_divergences validate their
arguments before calling it; the solvers call it directly on the arrays they
build.  These tests pin the kernel against the plain divergence definition
and its determinism contract, and the solvers' unchecked path against the
public one, bit for bit and error for error.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from chancap import (
    AbsoluteContinuityViolation,
    Channel,
    DimensionMismatch,
    Distribution,
    InvalidDistribution,
    ProductPoint,
    RowNotStochastic,
    arimoto_step,
    backward_e_member,
    capacity_bracket,
    circumcenter_check,
    converse_check,
    e_project_to_channel,
    exact_backward_m_step,
    geometric_mixture_check,
    joint,
    kl_divergence,
    m_project_to_independence,
    marginals,
    mutual_information,
    output_marginal,
    per_input_divergences,
    solve_arimoto,
    solve_backward_em,
)
from chancap.channel import _divergences, _marginal
from chancap.numeric import ordered_dot, ordered_sum, ordered_sum_along
from chancap.verify import brute_force_capacity
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


# The unit roundoff of float64.
_U = 2.0**-53


def exact_divergences(matrix: np.ndarray, r: np.ndarray) -> list[Decimal]:
    """sum_y P(ln P - ln r) over P > 0 for every row, floored at 0, at 40 digits.

    Taken from the float P and the float r, so only the kernel's own
    rounding separates it from the kernel.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        log_r = [Decimal(v).ln() for v in r]
        rows = []
        for row in matrix:
            total = Decimal(0)
            for p, lr in zip(row, log_r):
                if p > 0.0:
                    p = Decimal(p)
                    total += p * (p.ln() - lr)
            rows.append(max(total, Decimal(0)))
    return rows


def exact_marginal(weights: np.ndarray, matrix: np.ndarray) -> list[Decimal]:
    """sum_x q(x) P(x, y) for every output, at 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        q = [Decimal(v) for v in weights]
        return [sum((qx * Decimal(p) for qx, p in zip(q, column)), Decimal(0)) for column in matrix.T]


def _error(computed: float, exact: Decimal) -> float:
    with localcontext() as ctx:
        ctx.prec = 40
        return float(abs(Decimal(computed) - exact))


class TestAccuracy:
    """The kernel against an exact reference, within bounds that hold for any summation order.

    For n nonnegative products the rounding error of their sum is at most
    gamma_n = n u / (1 - n u) times the sum (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., ch. 3).  A divergence is two such sums
    of length m over logarithms a few ulp off, and a subtraction; the bound
    (2m + 8) u sum_y P (|ln P| + |ln r|) covers all of it.
    """

    SHAPES = [(2, 2), (3, 17), (40, 5), (16, 16), (64, 64), (8, 256), (256, 8)]

    @staticmethod
    def channels():
        # Rows whose entries span many orders of magnitude (Dirichlet 0.1),
        # rows with exact zeros, and, on the small shapes only (the exact
        # logarithms take most of the time), dense flat rows.
        rng = np.random.default_rng(97)
        for n, m in TestAccuracy.SHAPES:
            yield random_channel(rng, n, m, 0.1), random_interior(rng, n, 0.5).weights
            yield sparse_channel(rng, n, m), random_interior(rng, n, 0.5).weights
            if n * m <= 256:
                yield random_channel(rng, n, m), random_interior(rng, n, 0.5).weights

    def test_divergences_within_the_rounding_bound(self):
        for ch, q in self.channels():
            m = ch.num_outputs
            r = output_marginal(Distribution(q), ch).weights
            d = _divergences(ch, r)
            p = ch.matrix
            log_p = np.log(np.where(p > 0.0, p, 1.0))
            scale = np.add.reduce(p * (np.abs(log_p) + np.abs(np.log(r))), axis=1)
            bound = (2 * m + 8) * _U * scale
            errors = [_error(v, e) for v, e in zip(d, exact_divergences(p, r))]
            assert np.all(np.array(errors) <= bound), (ch, max(np.array(errors) / bound))

    def test_marginal_within_the_rounding_bound(self):
        for ch, q in self.channels():
            n = ch.num_inputs
            exact = exact_marginal(q, ch.matrix)
            gamma = n * _U / (1.0 - n * _U)
            errors = [_error(v, e) for v, e in zip(_marginal(q, ch), exact)]
            assert np.all(np.array(errors) <= gamma * np.array([float(e) for e in exact])), ch


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

    @pytest.mark.parametrize(
        "call",
        [
            lambda ch: solve_arimoto(ch, initial=np.array([0.5, 0.5])),
            lambda ch: solve_backward_em(ch, initial=[0.5, 0.5]),
            lambda ch: exact_backward_m_step(np.array([0.5, 0.5]), ch),
            lambda ch: capacity_bracket([0.5, 0.5], ch),
            lambda ch: circumcenter_check(np.array([0.5, 0.5]), ch),
            lambda ch: converse_check(ch, [0.5, 0.5]),
            lambda ch: arimoto_step(Distribution.uniform(2), ch.matrix),
            lambda ch: output_marginal(Distribution.uniform(2), ch.matrix),
            lambda ch: solve_arimoto(np.eye(2)),
            lambda ch: solve_backward_em(ch.matrix),
            lambda ch: solve_backward_em(ch.matrix, step_size=2.0),
            lambda ch: per_input_divergences(ch.matrix, np.array([0.5, 0.5])),
            lambda ch: brute_force_capacity(ch.matrix, 0.1),
            lambda ch: backward_e_member(Distribution.uniform(2), np.array([0.5, 0.5]), ch),
            lambda ch: geometric_mixture_check(
                Distribution.uniform(2), np.array([0.5, 0.5]), Distribution.uniform(2), 0.5, ch
            ),
            lambda ch: e_project_to_channel((Distribution.uniform(2), Distribution.uniform(2)), ch),
            lambda ch: e_project_to_channel(ProductPoint(Distribution.uniform(2), np.array([0.5, 0.5])), ch),
            lambda ch: kl_divergence(np.array([0.5, 0.5]), Distribution.uniform(2)),
            lambda ch: kl_divergence(Distribution.uniform(2), np.array([0.5, 0.5])),
            lambda ch: m_project_to_independence(np.full((2, 2), 0.25)),
            lambda ch: marginals(np.full((2, 2), 0.25)),
            lambda ch: mutual_information(np.full((2, 2), 0.25)),
        ],
        ids=[
            "solve_arimoto-initial", "solve_backward_em-initial", "exact_backward_m_step", "capacity_bracket",
            "circumcenter_check", "converse_check", "arimoto_step-channel", "output_marginal-channel",
            "solve_arimoto-channel", "solve_backward_em-channel", "solve_backward_em-channel-step_size",
            "per_input_divergences", "brute_force_capacity",
            "backward_e_member", "geometric_mixture_check", "e_project_to_channel-tuple",
            "e_project_to_channel-array-output-factor",
            "kl_divergence-first", "kl_divergence-second", "m_project_to_independence", "marginals",
            "mutual_information",
        ],
    )
    def test_every_entry_point_rejects_a_wrong_argument_type(self, call):
        # An array where a Distribution or a Channel belongs is a typed
        # error, not an AttributeError from deep inside the call.
        with pytest.raises(InvalidDistribution):
            call(Channel(np.array([[0.9, 0.1], [0.2, 0.8]])))


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

    def test_kernel_bits_do_not_depend_on_alignment(self):
        # The constructor copies the matrix into a fresh array, so the test
        # places it itself: once at the start of a buffer and once one
        # element (8 bytes) in, where vector loops peel differently.
        rng = np.random.default_rng(41)
        n, m = 257, 253
        values = rng.dirichlet(np.ones(m), size=n)
        q = random_interior(rng, n).weights
        matrix_buffer, weight_buffer = np.empty(n * m + 1), np.empty(n + 1)
        results = []
        for offset in (0, 1):
            matrix = matrix_buffer[offset : offset + n * m].reshape(n, m)
            weights = weight_buffer[offset : offset + n]
            matrix[...], weights[...] = values, q
            ch = Channel(values)
            object.__setattr__(ch, "matrix", matrix)
            r = _marginal(weights, ch)
            results.append(
                (
                    r,
                    _divergences(ch, r / ordered_sum(r)),
                    ch.row_negentropy,
                    ordered_sum_along(matrix, axis=0),
                    ordered_sum_along(matrix, axis=1),
                )
            )
        for at_start, one_in in zip(*results):
            assert np.array_equal(at_start, one_in)


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
