"""The channel kernel: output marginal and per-input divergences.

Every solver and check computes r = qP and d = negH - P log r with one
kernel.  The public output_marginal and per_input_divergences validate their
arguments before calling it; the solvers call it directly on the arrays they
build.  These tests pin the kernel against the plain divergence definition
and its determinism contract, and the solvers' unchecked path against the
public one, bit for bit and error for error.
"""

import inspect
import math
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import chancap
from chancap import (
    AbsoluteContinuityViolation,
    ChancapError,
    Channel,
    DimensionMismatch,
    Distribution,
    InvalidDistribution,
    JointDistribution,
    ParameterOutOfRange,
    ProductPoint,
    RowNotStochastic,
    approximate_m_step,
    arimoto_step,
    backward_e_member,
    bec,
    bsc,
    capacity_bracket,
    circumcenter_check,
    converse_check,
    e_project_to_channel,
    exact_backward_m_step,
    geometric_mixture_check,
    identity_channel,
    joint,
    kl_divergence,
    load_channel,
    m_project_to_independence,
    noisy_typewriter,
    output_marginal,
    per_input_divergences,
    save_channel,
    solve_arimoto,
    solve_backward_em,
    uniform_rows,
    z_channel,
)
from chancap.channel import _divergences, _marginal
from chancap.numeric import (
    _contract, _solve, _solve1, _solving, logsumexp, ordered_dot, ordered_sum, ordered_sum_along,
)
from chancap.verify import brute_force_capacity
from support import pinned_squares, random_channel, random_interior, without_support_newton


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

LAYOUTS = ("C", "strided", "fortran", "offset", "unaligned")


def laid_out(values: np.ndarray, layout: str) -> np.ndarray:
    """A fresh array equal to values, entry for entry, behind the named memory layout.

    "strided" takes every other element of each row of a twice-as-wide
    buffer; "offset" starts one element (8 bytes) into a buffer, where
    vector loops peel differently; "unaligned" starts one byte in, so no
    float sits on an 8-byte boundary.
    """
    if layout == "C":
        return np.array(values, order="C")
    if layout == "fortran":
        return np.asfortranarray(values)
    if layout == "strided":
        wide = np.empty(values.shape[:-1] + (2 * values.shape[-1],))
        placed = wide[..., ::2]
    elif layout == "offset":
        placed = np.empty(values.size + 1)[1:].reshape(values.shape)
    elif layout == "unaligned":
        placed = np.empty(values.nbytes + 1, dtype=np.uint8)[1:].view(np.float64).reshape(values.shape)
        assert not placed.flags.aligned
    else:
        raise ValueError(layout)
    placed[...] = values
    return placed


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
            expected = [kl_divergence(Distribution(ch.matrix[x]), r) for x in range(n)]
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
            lambda ch: m_project_to_independence(Distribution.uniform(4)),
            lambda ch: m_project_to_independence([[0.25, 0.25], [0.25, 0.25]]),
            lambda ch: save_channel(None),
            lambda ch: save_channel(ch.matrix),
            lambda ch: ProductPoint(Distribution.uniform(2), None).to_joint(),
        ],
        ids=[
            "solve_arimoto-initial", "solve_backward_em-initial", "exact_backward_m_step", "capacity_bracket",
            "circumcenter_check", "converse_check", "arimoto_step-channel", "output_marginal-channel",
            "solve_arimoto-channel", "solve_backward_em-channel", "solve_backward_em-channel-step_size",
            "per_input_divergences", "brute_force_capacity",
            "backward_e_member", "geometric_mixture_check", "e_project_to_channel-tuple",
            "e_project_to_channel-array-output-factor",
            "kl_divergence-first", "kl_divergence-second", "m_project_to_independence",
            "m_project_to_independence-distribution", "m_project_to_independence-list",
            "save_channel-none", "save_channel-array", "ProductPoint-none",
        ],
    )
    def test_every_entry_point_rejects_a_wrong_argument_type(self, call):
        # An array where a Distribution or a Channel belongs is a typed
        # error, not an AttributeError from deep inside the call.
        with pytest.raises(InvalidDistribution):
            call(Channel(np.array([[0.9, 0.1], [0.2, 0.8]])))


# Every numeric parameter, called with a bool b in its place.
_NUMERIC_PARAMETERS = {
    "solve_arimoto-tol": lambda ch, q, b: solve_arimoto(ch, tol=b),
    "solve_backward_em-tol": lambda ch, q, b: solve_backward_em(ch, tol=b),
    "circumcenter_check-tol": lambda ch, q, b: circumcenter_check(q, ch, tol=b),
    "converse_check-tol": lambda ch, q, b: converse_check(ch, q, tol=b),
    "solve_arimoto-max_iters": lambda ch, q, b: solve_arimoto(ch, max_iters=b),
    "solve_backward_em-max_iters": lambda ch, q, b: solve_backward_em(ch, max_iters=b),
    "solve_backward_em-max_inner": lambda ch, q, b: solve_backward_em(ch, max_inner=b),
    "solve_backward_em-step_size": lambda ch, q, b: solve_backward_em(ch, step_size=b),
    "exact_backward_m_step-max_inner": lambda ch, q, b: exact_backward_m_step(q, ch, max_inner=b),
    "bsc": lambda ch, q, b: bsc(b),
    "bec": lambda ch, q, b: bec(b),
    "z_channel": lambda ch, q, b: z_channel(b),
    "noisy_typewriter": lambda ch, q, b: noisy_typewriter(b),
    "identity_channel": lambda ch, q, b: identity_channel(b),
    "uniform_rows-inputs": lambda ch, q, b: uniform_rows(b, 2),
    "uniform_rows-outputs": lambda ch, q, b: uniform_rows(2, b),
    "Distribution.uniform": lambda ch, q, b: Distribution.uniform(b),
    "geometric_mixture_check-weight": lambda ch, q, b: geometric_mixture_check(q, q, q, b, ch),
    "circumcenter_check-support_threshold": lambda ch, q, b: circumcenter_check(q, ch, support_threshold=b),
    "brute_force_capacity-grid_step": lambda ch, q, b: brute_force_capacity(ch, b),
}


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("call", _NUMERIC_PARAMETERS.values(), ids=_NUMERIC_PARAMETERS.keys())
def test_every_numeric_parameter_rejects_a_bool(call, flag):
    # A bool used to run as 1 or 0 in most of these, and to raise a bare
    # TypeError from numpy in the sizes.
    ch = Channel(np.array([[0.9, 0.1], [0.2, 0.8]]))
    with pytest.raises(ParameterOutOfRange):
        call(ch, Distribution.uniform(2), flag)


_CH = Channel(np.array([[0.9, 0.1], [0.2, 0.8]]))
_Q = Distribution.uniform(2)
# Each public function, constructor and method, with a valid value for
# every parameter; the test below gives each parameter in turn each of
# _ODD_VALUES.
_PROBED = {
    "approximate_m_step": (approximate_m_step, {"base_input": _Q, "ch": _CH}),
    "arimoto_step": (arimoto_step, {"q": _Q, "ch": _CH}),
    "backward_e_member": (backward_e_member, {"base_input": _Q, "output_factor": _Q, "ch": _CH}),
    "bec": (bec, {"eps": 0.1}),
    "brute_force_capacity": (brute_force_capacity, {"ch": _CH, "grid_step": 0.1}),
    "bsc": (bsc, {"p": 0.1}),
    "capacity_bracket": (capacity_bracket, {"q": _Q, "ch": _CH}),
    "circumcenter_check": (
        circumcenter_check, {"q": _Q, "ch": _CH, "support_threshold": 1e-7, "tol": 1e-6}
    ),
    "converse_check": (converse_check, {"ch": _CH, "q": _Q, "tol": 1e-6}),
    "e_project_to_channel": (e_project_to_channel, {"point": ProductPoint(_Q, _Q), "ch": _CH}),
    "exact_backward_m_step": (exact_backward_m_step, {"base_input": _Q, "ch": _CH, "max_inner": 100}),
    "geometric_mixture_check": (
        geometric_mixture_check, {"base_input": _Q, "r1": _Q, "r2": _Q, "weight": 0.5, "ch": _CH}
    ),
    "identity_channel": (identity_channel, {"n": 2}),
    "joint": (joint, {"q": _Q, "ch": _CH}),
    "kl_divergence": (kl_divergence, {"p": _Q, "q": _Q}),
    "load_channel": (load_channel, {"source": b'{"matrix": [[0.9, 0.1], [0.2, 0.8]]}', "format": "json"}),
    "m_project_to_independence": (m_project_to_independence, {"p": joint(_Q, _CH)}),
    "noisy_typewriter": (noisy_typewriter, {"n": 3}),
    "output_marginal": (output_marginal, {"q": _Q, "ch": _CH}),
    "per_input_divergences": (
        per_input_divergences, {"ch": _CH, "reference": np.array([0.5, 0.5]), "infinite": "raise"}
    ),
    "save_channel": (save_channel, {"ch": _CH}),
    "solve_arimoto": (solve_arimoto, {"ch": _CH, "tol": 1e-6, "max_iters": 100, "initial": _Q}),
    "solve_backward_em": (
        solve_backward_em,
        {"ch": _CH, "tol": 1e-6, "max_iters": 100, "max_inner": 100, "initial": _Q, "step_size": 1.0},
    ),
    "uniform_rows": (uniform_rows, {"n": 2, "m": 2}),
    "z_channel": (z_channel, {"p": 0.1}),
    "Channel": (Channel, {"matrix": _CH.matrix}),
    "Distribution": (Distribution, {"weights": np.array([0.5, 0.5])}),
    "Distribution.uniform": (Distribution.uniform, {"n": 2}),
    "JointDistribution": (JointDistribution, {"weights": np.full((2, 2), 0.25)}),
    "ProductPoint": (ProductPoint, {"input_factor": _Q, "output_factor": _Q}),
}
# 5e-324 and 1e308 are the smallest and about the largest floats: a
# subnormal grid_step used to raise a bare OverflowError.  2**62 and 2**63
# are sizes numpy refuses before it allocates ("array is too big", "Maximum
# allowed dimension exceeded"), which the size constructors used to raise
# bare; a size numpy accepts is never probed, as it may allocate.  10**400
# is a size too large for a float: 1.0 / 10**400 raises OverflowError.
_ODD_VALUES = (
    None, True, "x", np.array([0.5, 0.5]), np.array(["bsc"]), [[0.5], [0.5, 0.5]], -1, math.nan, 2.5,
    math.inf, 5e-324, 1e308, 2**62, 2**63, 10**400,
)


def test_the_probe_covers_every_public_function():
    functions = {
        name for name in chancap.__all__
        if callable(getattr(chancap, name)) and not isinstance(getattr(chancap, name), type)
    }
    assert functions <= _PROBED.keys()


@pytest.mark.parametrize("name", _PROBED)
def test_every_parameter_given_an_odd_value_returns_or_raises_a_typed_error(name):
    # A string option handed an array used to raise numpy's bare ValueError
    # ("truth value of an array ... is ambiguous").
    call, valid = _PROBED[name]
    assert valid.keys() == inspect.signature(call).parameters.keys()
    escaped = []
    for parameter in valid:
        for value in _ODD_VALUES:
            try:
                call(**{**valid, parameter: value})
            except ChancapError:
                pass
            except Exception as exc:
                escaped.append(f"{parameter}={value!r}: {type(exc).__name__}: {exc}")
    assert escaped == []


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
        # places it itself: once in a fresh array and once one element
        # (8 bytes) into a buffer, where vector loops peel differently.
        rng = np.random.default_rng(41)
        n, m = 257, 253
        values = rng.dirichlet(np.ones(m), size=n)
        q = random_interior(rng, n).weights
        results = []
        for layout in ("C", "offset"):
            matrix, weights = laid_out(values, layout), laid_out(q, layout)
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


class TestContract:
    """numeric._contract is the c_einsum np.einsum calls without optimize, so it must give its bits."""

    def test_is_the_function_np_einsum_dispatches_to(self):
        # np.einsum's implementation calls the c_einsum of its own module's
        # globals when optimize is False: numpy._core.einsumfunc on numpy
        # 2.x, numpy.core.einsumfunc on 1.x.
        assert _contract is np.einsum._implementation.__globals__["c_einsum"]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_bit_equal_to_np_einsum_for_the_kernel_subscripts(self, layout):
        rng = np.random.default_rng(43)
        n, m = 37, 29
        matrix = rng.dirichlet(np.full(m, 0.3), size=n)
        q = rng.dirichlet(np.ones(n))
        log_r = np.log(rng.dirichlet(np.ones(m)))
        b = np.sqrt(q)[:, None] * (matrix - rng.dirichlet(np.ones(m)))
        for subscripts, operands in (
            ("x,xy->y", (q, matrix)),
            ("xy,y->x", (matrix, log_r)),
            ("xy,xz->yz", (b, b)),
        ):
            placed = [laid_out(a, layout) for a in operands]
            if subscripts == "xy,xz->yz":
                placed[1] = placed[0]  # the Newton system contracts one array with itself
            got, expected = _contract(subscripts, *placed), np.einsum(subscripts, *placed)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), (subscripts, layout)

    def test_solve_is_the_gufunc_np_linalg_solve_calls(self):
        # np.linalg.solve hands a 1-D right-hand side to its module's
        # _umath_linalg.solve1, on numpy 1.x and 2.x alike.
        assert _solve1 is np.linalg.solve._implementation.__globals__["_umath_linalg"].solve1

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_solve_gives_np_linalg_solve_bits_and_its_singular_error(self, layout):
        rng = np.random.default_rng(44)
        for m in (2, 8, 32):
            b = rng.standard_normal((m + 3, m))
            system = laid_out(b.T @ b + np.diag(rng.dirichlet(np.ones(m))), layout)
            rhs = laid_out(rng.standard_normal(m), layout)
            with _solving():
                assert _solve(system, rhs).tobytes() == np.linalg.solve(system, rhs).tobytes()
        # In _solving's error state, which its callers enter once around
        # their loops of solves, a singular system raises, and warns
        # nothing: a RuntimeWarning fails the suite.
        with pytest.raises(np.linalg.LinAlgError), _solving():
            _solve(np.zeros((3, 3)), np.ones(3))

    @pytest.mark.parametrize("solve", [solve_arimoto, solve_backward_em])
    def test_a_solve_makes_no_python_level_call_into_numpy_wrappers(self, solve, monkeypatch):
        # The sweep's contractions call c_einsum, its minima and maxima the
        # ufunc reductions and the Newton step the solve1 gufunc directly,
        # so no frame of np.einsum's wrapper, of ndarray.min/max's _methods
        # module or of np.linalg.solve's module runs, on any call of the
        # solve.  Deterministic: this counts calls, it times nothing.
        wrappers = {
            ("numpy", package, module) for package in ("_core", "core") for module in ("_methods.py", "einsumfunc.py")
        } | {("numpy", "linalg", module) for module in ("_linalg.py", "linalg.py")}
        landed, sweeps = [], 0

        def profile(frame, event, arg):
            nonlocal sweeps
            if event != "call":
                return
            path = Path(frame.f_code.co_filename)
            if path.parts[-3:] in wrappers:
                landed.append((path.name, frame.f_code.co_name, frame.f_back.f_code.co_name))
            elif frame.f_code.co_name == "_sweep" and path.name == "arimoto.py":
                sweeps += 1

        # The backward solver finishes slow32 to 1e-11 at its first step,
        # with the support-Newton route and its bordered solve; without the
        # route it takes 48 records, each with its inner Newton solves.
        # solve_arimoto runs without the route, whose solve the backward
        # case covers: with it, r8 takes 10 records.
        ch, tol = (pinned_squares()["r8"], 1e-9) if solve is solve_arimoto else (pinned_squares()["r32"], 1e-11)
        iterations, routes = 0, []
        for route_off in (True,) if solve is solve_arimoto else (False, True):
            with monkeypatch.context() as patch:
                if route_off:
                    without_support_newton(patch)
                sys.setprofile(profile)
                try:
                    result, trace = solve(ch, tol=tol)
                finally:
                    sys.setprofile(None)
            iterations += result.iterations
            routes += trace._column("step_status")
        # The profile saw the package's own calls: the sweeps, and enough of them.
        assert iterations > 20 and sweeps > 20
        assert ("support_newton" in routes) == (solve is solve_backward_em)
        assert landed == []


class TestLogsumexp:
    @pytest.mark.parametrize("values", [[], np.array([]), np.empty((0, 3))], ids=["list", "1-d", "2-d"])
    def test_an_empty_input_is_a_typed_error(self, values):
        with pytest.raises(InvalidDistribution, match="^logsumexp of an empty array$"):
            logsumexp(values)


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
