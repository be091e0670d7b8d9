"""Projection operations between joint and product laws."""

import math

import numpy as np
import pytest

from chancap import (
    Distribution,
    JointDistribution,
    NonInteriorInput,
    ProductPoint,
    e_project_to_channel,
    kl_divergence,
    m_project_to_independence,
    bsc,
)
from chancap.channel import per_input_divergences
from chancap.numeric import ordered_dot
from support import random_channel, random_interior


def random_joint(rng, n, m):
    return JointDistribution(rng.dirichlet(np.ones(n * m)).reshape(n, m))


def divergence_to_product(p: JointDistribution, point: ProductPoint) -> float:
    flat = Distribution(p.weights.ravel())
    prod = Distribution(
        np.outer(point.input_factor.weights, point.output_factor.weights).ravel()
    )
    return kl_divergence(flat, prod)


class TestMProjection:
    def test_projection_is_the_marginal_pair(self):
        rng = np.random.default_rng(21)
        p = random_joint(rng, 3, 4)
        point = m_project_to_independence(p)
        rows = [math.fsum(row) for row in p.weights]
        columns = [math.fsum(column) for column in p.weights.T]
        assert np.max(np.abs(point.input_factor.weights - rows)) <= 1e-15
        assert np.max(np.abs(point.output_factor.weights - columns)) <= 1e-15

    def test_projection_minimizes_divergence(self):
        # Any other product law is farther from p, by the decomposition
        # D(p || q x r) = D(p || marginals) + D(marg_q || q) + D(marg_r || r)
        rng = np.random.default_rng(22)
        for _ in range(1000):
            n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            p = random_joint(rng, n, m)
            best = m_project_to_independence(p)
            other = ProductPoint(random_interior(rng, n), random_interior(rng, m))
            base = divergence_to_product(p, best)
            competitor = divergence_to_product(p, other)
            decomposition = (
                base
                + kl_divergence(best.input_factor, other.input_factor)
                + kl_divergence(best.output_factor, other.output_factor)
            )
            assert competitor >= base - 1e-12
            assert competitor == pytest.approx(decomposition, abs=1e-10)

    def test_distance_to_projection_is_mutual_information(self):
        rng = np.random.default_rng(24)
        p = random_joint(rng, 4, 4)
        # Oracle: sum p(x, y) log(p(x, y) / (p(x) p(y))), summed exactly.
        w = p.weights
        rows, columns = w.sum(axis=1), w.sum(axis=0)
        oracle = math.fsum(w[x, y] * math.log(w[x, y] / (rows[x] * columns[y])) for x in range(4) for y in range(4))
        assert divergence_to_product(p, m_project_to_independence(p)) == pytest.approx(oracle, abs=1e-13)

    def test_to_joint_materializes_outer_product(self):
        point = ProductPoint(
            Distribution(np.array([0.25, 0.75])), Distribution(np.array([0.5, 0.5]))
        )
        assert np.array_equal(
            point.to_joint().weights, [[0.125, 0.125], [0.375, 0.375]]
        )


class TestEProjection:
    def test_closed_form_matches_direct_objective_minimization(self):
        # The projection minimizes F(qh) = D(qh || q) + sum_x qh(x) d(x);
        # perturbing the result along simplex directions must not reduce F.
        rng = np.random.default_rng(25)
        for _ in range(50):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            ch = random_channel(rng, n, m)
            point = ProductPoint(random_interior(rng, n), random_interior(rng, m))
            qh = e_project_to_channel(point, ch)
            d = per_input_divergences(ch, point.output_factor.weights)

            def objective(weights):
                return kl_divergence(
                    Distribution(weights), point.input_factor
                ) + ordered_dot(weights, d)

            base = objective(qh.weights)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    bumped = qh.weights.copy()
                    bumped[i] += 1e-6
                    bumped[j] -= 1e-6
                    if np.any(bumped <= 0.0):
                        continue
                    assert objective(bumped / np.sum(bumped)) >= base - 1e-10

    def test_requires_interior_input_factor(self):
        point = ProductPoint(
            Distribution(np.array([1.0, 0.0])), Distribution(np.array([0.5, 0.5]))
        )
        with pytest.raises(NonInteriorInput):
            e_project_to_channel(point, bsc(0.1))

    def test_result_is_normalized_and_interior(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            n, m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            ch = random_channel(rng, n, m)
            point = ProductPoint(random_interior(rng, n), random_interior(rng, m))
            qh = e_project_to_channel(point, ch)
            assert qh.is_interior
            assert abs(float(np.sum(qh.weights)) - 1.0) <= 1e-12

