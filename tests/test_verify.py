"""Independent verification layer: grid search, circumcenter test, converse."""

import itertools

import numpy as np
import pytest

from chancap import (
    Channel,
    Distribution,
    ParameterOutOfRange,
    TooManyInputs,
    brute_force_capacity,
    bsc,
    circumcenter_check,
    converse_check,
    identity_channel,
    solve_arimoto,
    uniform_rows,
    z_channel,
)
from chancap.verify import _grid_blocks
from support import random_channel

BSC01_CAPACITY = np.log(2.0) + 0.9 * np.log(0.9) + 0.1 * np.log(0.1)
Z05_CAPACITY = np.log(1.25)
# An interior law whose output marginal underflows to (1, 0).
UNDERFLOW_CHANNEL = Channel(np.array([[1.0, 0.0], [0.5, 0.5]]))
UNDERFLOW_LAW = Distribution(np.array([1.0, 5e-324]))


class TestBruteForce:
    def test_finds_the_asymmetric_optimum(self):
        value, q = brute_force_capacity(z_channel(0.5), grid_step=1e-3)
        # [0.6, 0.4] lies exactly on the grid and is the unique maximizer.
        assert np.max(np.abs(q.weights - np.array([0.6, 0.4]))) <= 1e-12
        assert value == pytest.approx(Z05_CAPACITY, abs=1e-12)

    def test_symmetric_channel_on_coarse_grid(self):
        value, q = brute_force_capacity(bsc(0.1), grid_step=1e-2)
        assert q.weights[0] == 0.5 and q.weights[1] == 0.5
        assert value == pytest.approx(BSC01_CAPACITY, abs=1e-12)

    def test_single_input_channel(self):
        value, q = brute_force_capacity(Channel(np.array([[0.3, 0.7]])), grid_step=0.1)
        assert value == 0.0
        assert q.weights[0] == 1.0

    def test_ties_break_to_the_first_grid_point(self):
        # On a noiseless binary channel the score is the input entropy.  An
        # odd grid straddles the uniform optimum, and the two straddling
        # points score bit-identically (float addition commutes), so the
        # reported argmax must be the lexicographically earlier one.
        value, q = brute_force_capacity(identity_channel(2), grid_step=1.0 / 11.0)
        a, b = 5.0 / 11.0, 6.0 / 11.0
        assert q.weights[0] == a and q.weights[1] == b
        assert value == -(a * np.log(a) + b * np.log(b))

    def test_three_input_channel_brackets_the_solver(self):
        rng = np.random.default_rng(52)
        for _ in range(5):
            ch = random_channel(rng, 3, 4)
            result, _ = solve_arimoto(ch, tol=1e-10)
            value, _ = brute_force_capacity(ch, grid_step=0.02)
            assert value <= result.bracket.upper + 1e-10
            # A pitch-h grid point sits within h of the optimum in every
            # coordinate, and information is Lipschitz on the simplex away
            # from the corners, so the grid cannot undershoot by much.
            assert value >= result.bracket.lower - 0.05

    @pytest.mark.parametrize("n, steps", [(1, 10), (2, 100), (3, 60), (4, 24)])
    def test_grid_blocks_are_the_lexicographic_grid(self, n, steps):
        # Bit for bit the grid a plain enumeration gives, in its order, so
        # the first-point tie rule sees the points in the same sequence.
        expected = [p for p in itertools.product(range(steps + 1), repeat=n) if sum(p) == steps]
        blocks = list(_grid_blocks(n, steps))
        assert np.concatenate(blocks).tobytes() == np.array(expected, dtype=float).tobytes()
        if n > 2:
            # One block per first coordinate, every later one vectorized.
            assert [b[0, 0] for b in blocks] == list(range(steps + 1))
            assert all((b[:, 0] == b[0, 0]).all() for b in blocks)

    def test_rejects_more_than_four_inputs(self):
        with pytest.raises(TooManyInputs):
            brute_force_capacity(uniform_rows(5, 2), grid_step=0.1)

    def test_rejects_bad_grid_step(self):
        # A grid_step without a finite reciprocal (5e-324, 1e-310) used to
        # raise a bare OverflowError from round(1 / grid_step), on a
        # one-input channel too.
        for ch in (bsc(0.1), Channel(np.array([[0.3, 0.7]]))):
            for step in (0.0, -0.01, 0.2, "0.1", None, 5e-324, 1e-310, np.float64(5e-324)):
                with pytest.raises(ParameterOutOfRange):
                    brute_force_capacity(ch, grid_step=step)

    def test_rejects_oversized_grids(self):
        with pytest.raises(ParameterOutOfRange):
            brute_force_capacity(uniform_rows(4, 2), grid_step=1.0 / 400.0)


class TestCircumcenter:
    def test_passes_at_a_solver_optimum(self):
        for ch in (bsc(0.1), z_channel(0.5), bsc(0.45)):
            result, _ = solve_arimoto(ch, tol=1e-11)
            report = circumcenter_check(result.optimal_input, ch)
            assert report.passed
            assert report.max_support_deviation <= report.tol
            assert report.capacity_estimate == pytest.approx(result.capacity, abs=1e-9)

    def test_passes_on_random_channels(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            ch = random_channel(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            result, _ = solve_arimoto(ch, tol=1e-11, max_iters=300000)
            assert circumcenter_check(result.optimal_input, ch).passed

    def test_fails_away_from_the_optimum(self):
        # Uniform input on the asymmetric channel: the two divergences are
        # ln(4/3) and ln(4/3)/2, nowhere near equal.
        report = circumcenter_check(Distribution.uniform(2), z_channel(0.5))
        assert not report.passed
        assert report.max_support_deviation == pytest.approx(
            0.25 * np.log(4.0 / 3.0), abs=1e-12
        )
        assert bool(np.all(report.support))

    def test_boundary_support_optimum_passes(self):
        # The third input is useless; the optimum puts no mass on it and the
        # check must only require its divergence not to exceed the estimate.
        ch = Channel(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
        report = circumcenter_check(Distribution(np.array([0.5, 0.5, 0.0])), ch)
        assert report.passed
        assert report.capacity_estimate == pytest.approx(np.log(2.0), abs=1e-12)
        assert report.support.tolist() == [True, True, False]
        assert report.max_off_support_excess == 0.0

    def test_rejects_nan_tolerance(self):
        with pytest.raises(ParameterOutOfRange):
            circumcenter_check(Distribution.uniform(2), z_channel(0.5), tol=float("nan"))
        with pytest.raises(ParameterOutOfRange):
            circumcenter_check(Distribution.uniform(2), z_channel(0.5), tol="1e-6")
        with pytest.raises(ParameterOutOfRange):
            circumcenter_check(Distribution.uniform(2), z_channel(0.5), support_threshold="1e-7")

    @pytest.mark.parametrize(
        "threshold",
        [float("nan"), float("inf"), float("-inf"), -1e-9, 1.0],
        ids=["nan", "inf", "-inf", "negative", "one"],
    )
    def test_rejects_a_support_threshold_outside_the_unit_interval(self, threshold):
        # These used to make the support empty or whole and run the check anyway.
        with pytest.raises(ParameterOutOfRange, match="^support_threshold must be in"):
            circumcenter_check(Distribution.uniform(2), z_channel(0.5), support_threshold=threshold)

    def test_zero_support_threshold_is_allowed(self):
        report = circumcenter_check(Distribution.uniform(2), bsc(0.1), support_threshold=0.0)
        assert report.passed and report.support.all()

    def test_underflowing_output_marginal_fails_cleanly(self):
        # Output 1's marginal, 0.5 * 5e-324, underflows to 0 while input 1
        # keeps mass there: its divergence is infinite, a failure, not an error.
        report = circumcenter_check(UNDERFLOW_LAW, UNDERFLOW_CHANNEL)
        assert not report.passed
        assert report.capacity_estimate == np.inf
        assert report.max_support_deviation == np.inf and report.max_off_support_excess == np.inf

    def test_infinite_divergence_off_support_fails_cleanly(self):
        # All mass on the first input of a noiseless channel: the unused
        # input sits at infinite divergence, which is a failure, not an
        # error, and must not poison the estimate.
        report = circumcenter_check(
            Distribution(np.array([1.0, 0.0])), identity_channel(2)
        )
        assert not report.passed
        assert report.capacity_estimate == 0.0
        assert np.isinf(report.max_off_support_excess)


class TestConverse:
    def test_certifies_symmetric_channel_at_uniform(self):
        certified = converse_check(bsc(0.1), Distribution.uniform(2))
        assert certified is not None
        assert certified == pytest.approx(BSC01_CAPACITY, abs=1e-15)

    def test_certifies_asymmetric_channel_at_its_optimum(self):
        result, _ = solve_arimoto(z_channel(0.5), tol=1e-11)
        certified = converse_check(z_channel(0.5), result.optimal_input)
        assert certified is not None
        assert certified == pytest.approx(Z05_CAPACITY, abs=1e-9)

    def test_declines_away_from_the_optimum(self):
        assert converse_check(z_channel(0.5), Distribution.uniform(2)) is None

    def test_declines_when_support_is_partial(self):
        # The circumcenter check accepts this optimum; the converse route
        # cannot, because one input sits strictly below the common value.
        ch = Channel(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
        q = Distribution(np.array([0.5, 0.5, 0.0]))
        assert circumcenter_check(q, ch).passed
        assert converse_check(ch, q) is None

    def test_declines_on_infinite_divergence(self):
        assert converse_check(identity_channel(2), Distribution(np.array([1.0, 0.0]))) is None

    def test_declines_when_the_output_marginal_underflows(self):
        assert converse_check(UNDERFLOW_CHANNEL, UNDERFLOW_LAW) is None

    def test_rejects_nan_tolerance(self):
        # A NaN tolerance used to certify a value below capacity here.
        with pytest.raises(ParameterOutOfRange):
            converse_check(z_channel(0.5), Distribution.uniform(2), tol=float("nan"))
        with pytest.raises(ParameterOutOfRange):
            converse_check(z_channel(0.5), Distribution.uniform(2), tol="1e-6")

    def test_tolerance_widens_the_certificate(self):
        q = Distribution(np.array([0.55, 0.45]))
        ch = bsc(0.2)
        assert converse_check(ch, q, tol=1e-9) is None
        loose = converse_check(ch, q, tol=1.0)
        assert loose is not None
