"""The columnar solver trace: what a solve builds and keeps, and what reading its records builds.

Counts and bytes, not timings: a solve keeps its trace as scalar columns
and builds no TraceRecord, and no Distribution or family member per sweep,
only the start and the optimal input; the records are rebuilt by replaying
the run on their first read.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from chancap import (
    BackwardFamilyMember,
    Distribution,
    TraceRecord,
    arimoto,
    backward_em,
    solve_arimoto,
    solve_backward_em,
)
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


def test_backward_solve_builds_no_member_and_reuses_each_exact_marginal(built, monkeypatch):
    # The m-steps build no member and no Distribution, and a sweep after an
    # exact step takes its output marginal from the m-step's last inner
    # evaluation, so the solve makes at most two marginal passes per record.
    members = marginals = 0
    member_init, marginal = BackwardFamilyMember.__init__, arimoto._marginal

    def counting_member_init(self, *args):
        nonlocal members
        members += 1
        member_init(self, *args)

    def counting_marginal(*args):
        nonlocal marginals
        marginals += 1
        return marginal(*args)

    monkeypatch.setattr(BackwardFamilyMember, "__init__", counting_member_init)
    monkeypatch.setattr(arimoto, "_marginal", counting_marginal)
    monkeypatch.setattr(backward_em, "_marginal", counting_marginal)
    ch = r16()
    result, trace = solve_backward_em(ch, tol=1e-9)
    assert result.iterations == len(trace) == 1053
    # The start and the optimal input.
    assert built["Distribution"] <= 2
    assert built["TraceRecord"] == 0
    assert members == 0
    assert marginals <= 2 * result.iterations


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


@pytest.mark.parametrize("solve", [solve_arimoto, solve_backward_em])
@pytest.mark.parametrize("inputs", [16, 64])
def test_a_trace_retains_no_array_per_record(solve, inputs):
    # Kept per iterate: two float bounds, a clamp flag, a route, a residual
    # and an inner count, about 100-130 B with the list slots.  A column of
    # divergences and one of input weights took about 600 B per record at
    # 16 inputs and 1,390 B at 64.
    if inputs == 16:
        ch, tol = r16(), 1e-9
    else:
        ch, tol = random_channel(np.random.default_rng(64), 64, 64), 1e-5
    # A first short run fills the channel's caches outside the measurement.
    solve(ch, tol=tol, max_iters=2)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result, trace = solve(ch, tol=tol)
        del result
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) > 1000
    assert retained <= 160 * len(trace)


@pytest.mark.parametrize("solve", [solve_arimoto, solve_backward_em])
def test_records_refuse_a_kept_scalar_the_replay_does_not_give(solve):
    _, trace = solve(r16(), tol=1e-6)
    trace._upper[3] = math.nextafter(trace._upper[3], math.inf)
    with pytest.raises(AssertionError, match="iteration 4"):
        trace.records
