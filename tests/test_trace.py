"""The columnar solver trace: what a solve builds, and what reading its records builds.

Counts, not timings: a solve keeps its trace as columns and builds no
TraceRecord, and no Distribution per sweep beyond what a step hands out.
"""

import numpy as np
import pytest

from chancap import Distribution, TraceRecord, solve_arimoto, solve_backward_em
from support import random_channel


def r16():
    """The benchmark's r16 channel, unrelabelled: the third of the successive
    default_rng(1) flat-Dirichlet squares at 4, 8 and 16 inputs."""
    rng = np.random.default_rng(1)
    for n in (4, 8):
        random_channel(rng, n, n)
    return random_channel(rng, 16, 16)


@pytest.fixture
def built(monkeypatch):
    """Running counts of Distribution and TraceRecord constructions."""
    counts = {"Distribution": 0, "TraceRecord": 0}
    post_init, init = Distribution.__post_init__, TraceRecord.__init__

    def counting_post_init(self):
        counts["Distribution"] += 1
        post_init(self)

    def counting_init(self, *args, **kwargs):
        counts["TraceRecord"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Distribution, "__post_init__", counting_post_init)
    monkeypatch.setattr(TraceRecord, "__init__", counting_init)
    return counts


def test_arimoto_solve_builds_no_record(built):
    ch = r16()
    result, trace = solve_arimoto(ch, tol=1e-9)
    assert result.iterations == len(trace) == 1042
    # The uniform start and the optimal input, where one of each per sweep
    # was built before.
    assert built["Distribution"] <= 2
    assert built["TraceRecord"] == 0


def test_backward_solve_builds_at_most_two_distributions_per_outer_step(built):
    ch = r16()
    result, trace = solve_backward_em(ch, tol=1e-9)
    assert result.iterations == len(trace) == 1053
    # Each exact step's member (its output factor and induced input); the
    # induced input is the next step's base, not validated again.
    assert built["Distribution"] <= 2 * result.iterations
    assert built["TraceRecord"] == 0


@pytest.mark.parametrize("solve", [solve_arimoto, solve_backward_em])
def test_records_are_built_once_on_first_read(built, solve):
    result, trace = solve(r16(), tol=1e-6)
    records = trace.records
    assert built["TraceRecord"] == len(trace) == len(records) == result.iterations
    assert trace.records is records
    assert all(a is b for a, b in zip(trace, records))
    assert built["TraceRecord"] == len(trace)
    assert [rec.iteration for rec in records] == list(range(1, len(trace) + 1))
    last = records[-1]
    assert result.bracket == (last.lower_bound, last.upper_bound)
    assert result.optimal_input.weights.tobytes() == last.input_distribution.weights.tobytes()
