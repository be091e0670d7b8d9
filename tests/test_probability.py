"""Distribution construction, divergences, and mutual information."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancap import (
    AbsoluteContinuityViolation,
    DimensionMismatch,
    Distribution,
    InvalidDistribution,
    JointDistribution,
    ParameterOutOfRange,
    joint,
    kl_divergence,
    m_project_to_independence,
)
from chancap.channel import CANONICAL_KINDS
from chancap.probability import _normalized
from support import CANONICAL_EXAMPLES, mutual_information, random_interior


def dist(*weights):
    return Distribution(np.array(weights, dtype=float))


class TestConstruction:
    def test_exact_weights_kept_bit_for_bit(self):
        w = np.array([0.3, 0.7])
        d = Distribution(w)
        assert np.array_equal(d.weights, w)

    def test_small_deviation_is_normalized(self):
        d = dist(0.3, 0.7 + 5e-10)
        assert abs(float(np.sum(d.weights)) - 1.0) <= 1e-12

    def test_large_deviation_rejected(self):
        with pytest.raises(InvalidDistribution):
            dist(0.3, 0.7 + 1e-8)

    def test_negative_rejected(self):
        with pytest.raises(InvalidDistribution):
            dist(-0.1, 1.1)

    def test_nan_rejected(self):
        with pytest.raises(InvalidDistribution):
            dist(float("nan"), 1.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidDistribution):
            Distribution(np.array([]))

    def test_weights_are_immutable(self):
        d = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            d.weights[0] = 1.0

    def test_interior_flag(self):
        assert dist(0.5, 0.5).is_interior
        assert not dist(1.0, 0.0).is_interior

    def test_repr_lists_the_weights(self):
        assert repr(dist(0.25, 0.75)) == "Distribution([0.25, 0.75])"

    def test_uniform(self):
        u = Distribution.uniform(4)
        assert u.alphabet_size == 4
        assert np.array_equal(u.weights, np.full(4, 0.25))
        # A size is a parameter, so a size below 1 is out of range.
        with pytest.raises(ParameterOutOfRange, match="^alphabet size must be at least 1, got 0$"):
            Distribution.uniform(0)
        # A non-integer size used to raise a bare TypeError from np.full.
        with pytest.raises(ParameterOutOfRange):
            Distribution.uniform(2.5)

    def test_normalization_is_idempotent(self):
        # Renormalizing must be a fixed point, otherwise serialization would
        # drift by an ulp on every round trip.
        first = Distribution(np.array([0.2, 0.3, 0.5 + 3e-10]))
        second = Distribution(first.weights)
        assert np.array_equal(first.weights, second.weights)

    def test_joint_requires_matrix(self):
        with pytest.raises(InvalidDistribution):
            JointDistribution(np.array([0.5, 0.5]))

    def test_fortran_ordered_joint_is_stored_in_c_order(self):
        # The constructor's sum runs over memory order, so the copy is made
        # in C order: both layouts then check and store the same bits.
        w = np.random.default_rng(3).dirichlet(np.ones(12)).reshape(3, 4)
        p = JointDistribution(np.asfortranarray(w))
        assert p.weights.flags.c_contiguous
        assert p.weights.tobytes() == JointDistribution(w).weights.tobytes()


class TestTrusted:
    """Arrays the package computes are trusted after _normalized, the
    constructor's own check: both reject with the same message, or give the
    same bits.  Entries that are not real numbers never reach _normalized,
    which takes float arrays: the constructors reject them as they convert."""

    @pytest.mark.parametrize(
        "raw, outcome",
        [
            ([float("nan"), 1.0], "entries must be finite"),
            ([float("inf"), 0.5], "entries must be finite"),
            ([float("-inf"), 1.0], "entries must be finite"),
            ([-0.25, 1.25], "entries must be non-negative"),
            ([0.3, 0.7 + 2e-9], "sums to"),
            ([0.3, 0.7 + 5e-12], "renormalized"),
            ([0.25, 0.75], "kept"),
            ([True, False], "kept"),
            ("ab", "not real"),
            (["0.5", "0.5"], "not real"),
            ([b"0.5", b"0.5"], "not real"),
            ([{"a": 1}, 0.5], "not real"),
            ([0.5 + 1j, 0.5], "not real"),
            ([1 + 0j, 0], "not real"),
            ([[0.5], 0.5], "not real"),
        ],
        ids=[
            "nan", "+inf", "-inf", "negative", "sum-2e-9-off", "sum-5e-12-off", "exact",
            "booleans", "string", "numeric-strings", "bytes", "dict", "complex", "real-complex",
            "ragged",
        ],
    )
    def test_matches_the_constructor(self, raw, outcome):
        if outcome == "not real":
            # These used to raise a bare ValueError or TypeError, or to be
            # parsed as numbers.
            for build in (Distribution, lambda w: JointDistribution([w])):
                with pytest.raises(InvalidDistribution, match="entries must be real numbers"):
                    build(raw)
            return
        if outcome not in ("renormalized", "kept"):
            for build in (Distribution, _normalized):
                with pytest.raises(InvalidDistribution, match=f"^distribution {outcome}"):
                    build(np.array(raw))
            return
        fresh = np.array(raw, dtype=float)
        got = _normalized(fresh)
        assert got.tobytes() == Distribution(np.array(raw)).weights.tobytes()
        assert got.tobytes() == Distribution(raw).weights.tobytes()
        assert not got.flags.writeable
        # Kept weights are the caller's array itself, unchanged bit for bit.
        assert (got is fresh) == (outcome == "kept")
        assert np.array_equal(got, np.array(raw)) == (outcome == "kept")


class TestKLDivergence:
    def test_point_mass_against_fair_coin(self):
        assert kl_divergence(dist(1.0, 0.0), dist(0.5, 0.5)) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_swapped_pair_value(self):
        # D([1/4, 3/4] || [3/4, 1/4]) reduces to (3/4 - 1/4) log 3.
        oracle = 0.5 * math.log(3.0)
        assert oracle == pytest.approx(0.5493061443340549, abs=1e-15)
        got = kl_divergence(dist(0.25, 0.75), dist(0.75, 0.25))
        assert got == pytest.approx(oracle, abs=1e-14)

    def test_identical_inputs_give_exact_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_interior(rng, 6)
            assert kl_divergence(p, p) == 0.0

    def test_zero_mass_terms_are_skipped(self):
        # 0 * log(0/q) contributes nothing regardless of q.
        assert kl_divergence(dist(0.0, 1.0), dist(0.0, 1.0)) == 0.0

    def test_absolute_continuity_enforced(self):
        with pytest.raises(AbsoluteContinuityViolation):
            kl_divergence(dist(0.5, 0.5), dist(1.0, 0.0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kl_divergence(dist(1.0), dist(0.5, 0.5))

    def test_positive_iff_different(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            p = random_interior(rng, n)
            q = random_interior(rng, n)
            value = kl_divergence(p, q)
            assert value >= 0.0
            if np.max(np.abs(p.weights - q.weights)) > 1e-12:
                assert value > 0.0

    @given(
        st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=8),
        st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=8),
    )
    @settings(max_examples=300)
    def test_non_negative_property(self, raw_p, raw_q):
        n = min(len(raw_p), len(raw_q))
        p = Distribution(np.array(raw_p[:n]) / sum(raw_p[:n]))
        q = Distribution(np.array(raw_q[:n]) / sum(raw_q[:n]))
        assert kl_divergence(p, q) >= 0.0

    def test_repeated_evaluation_bit_identical(self):
        rng = np.random.default_rng(99)
        p = random_interior(rng, 16)
        q = random_interior(rng, 16)
        first = kl_divergence(p, q)
        assert all(kl_divergence(p, q) == first for _ in range(5))

    def test_layout_independent(self):
        # The same values behind a strided view must sum identically.
        rng = np.random.default_rng(3)
        p = random_interior(rng, 8)
        q = random_interior(rng, 8)
        strided_p = Distribution(np.asfortranarray(np.tile(p.weights, (3, 1)))[1])
        assert kl_divergence(strided_p, q) == kl_divergence(p, q)


class TestMarginals:
    def test_joint_gives_its_shape(self):
        p = JointDistribution(np.full((2, 3), 1.0 / 6.0))
        assert p.shape == (2, 3)
        assert repr(p) == "JointDistribution(shape=(2, 3))"

    def test_diagonal_joint_has_exact_marginals(self):
        # The m-projection of a joint is its pair of marginals.
        point = m_project_to_independence(JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]])))
        assert np.array_equal(point.input_factor.weights, [0.5, 0.5])
        assert np.array_equal(point.output_factor.weights, [0.5, 0.5])

    def test_marginals_sum_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            p = JointDistribution(rng.dirichlet(np.ones(n * m)).reshape(n, m))
            point = m_project_to_independence(p)
            assert abs(float(np.sum(point.input_factor.weights)) - 1.0) <= 1e-12
            assert abs(float(np.sum(point.output_factor.weights)) - 1.0) <= 1e-12


class TestMutualInformation:
    # support.mutual_information, the suite's oracle for I(X; Y), built from
    # kl_divergence and the m-projection's marginals.

    def test_known_2x2_value(self):
        # Oracle: direct double loop over the four cells.
        cells = [[0.4, 0.1], [0.1, 0.4]]
        qm = [sum(row) for row in cells]
        rm = [cells[0][y] + cells[1][y] for y in range(2)]
        oracle = sum(
            cells[x][y] * math.log(cells[x][y] / (qm[x] * rm[y]))
            for x in range(2)
            for y in range(2)
        )
        assert oracle == pytest.approx(0.19274475702175753, abs=1e-15)
        got = mutual_information(JointDistribution(np.array(cells)))
        assert got == pytest.approx(oracle, abs=1e-13)

    def test_independent_joint_has_zero_information(self):
        q = np.array([0.3, 0.7])
        r = np.array([0.2, 0.5, 0.3])
        assert mutual_information(JointDistribution(np.outer(q, r))) == 0.0

    def test_non_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            p = JointDistribution(rng.dirichlet(np.ones(12)).reshape(3, 4))
            assert mutual_information(p) >= 0.0

    @pytest.mark.parametrize("kind", CANONICAL_KINDS)
    def test_matches_the_closed_form_at_the_uniform_input(self, kind):
        # Each example's I(X; Y) at the uniform input, by hand from
        # H(Y) - H(Y | X); the zero cells of bec, z and typewriter add nothing.
        def h(p):
            return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)

        closed_form = {
            "bsc": math.log(2.0) - h(0.2),
            "bec": 0.7 * math.log(2.0),
            "z": h(0.3) - 0.5 * h(0.4),
            "typewriter": math.log(5.0) - math.log(2.0),
            "identity": math.log(3.0),
            "uniform": 0.0,
        }
        build, params, _ = CANONICAL_EXAMPLES[kind]
        ch = build(*params)
        got = mutual_information(joint(Distribution.uniform(ch.num_inputs), ch))
        assert got == pytest.approx(closed_form[kind], abs=1e-14)
