"""The solver trace: what a solve builds and keeps, and what reading its records builds.

Counts and bytes, not timings: a solve keeps its trace as one flat list of
scalar rows and builds no TraceRecord, and no Distribution or family
member per sweep, only the start and the optimal input; the records are
rebuilt by replaying the run on their first read.
"""

import dataclasses
import gc
import math
from functools import partial
import tracemalloc

import numpy as np
import pytest

from chancap import (
    BackwardFamilyMember,
    Channel,
    Distribution,
    TraceRecord,
    arimoto,
    backward_em,
    solve_arimoto,
    solve_backward_em,
)
from chancap.arimoto import _ARIMOTO_COLUMNS, _COLUMNS, Step
from support import pinned_squares, random_channel, refused_square, without_support_newton


def r16():
    """The benchmark's r16 channel, unrelabelled."""
    return pinned_squares()["r16"]


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


def test_arimoto_solve_builds_no_record(built, monkeypatch):
    # The plain sweeps: the support-Newton route finishes r16 at its first step.
    without_support_newton(monkeypatch)
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
    # evaluation, so at the paper's step size, about one inner step per
    # record, the solve makes at most two marginal passes per record.
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
    result, trace = solve_backward_em(ch, tol=1e-9, step_size=1.0)
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
def test_a_trace_retains_no_array_per_record(solve, inputs, monkeypatch):
    # Kept per iterate in one flat list, with the list slots: two float
    # bounds and a route for Arimoto, about 75 B on r16; the bounds, a route, a
    # residual, an inner count, a step size, a count of rejected candidates
    # and a count of their inner steps for the backward solver, about
    # 144 B.  A column of divergences and one of input weights took about
    # 600 B per record at 16 inputs and 1,390 B at 64.  The backward solver
    # runs at the paper's step size, which takes over 1,000 records on r16
    # (the 64-output channel keeps it anyway).  solve_arimoto runs without
    # the support-Newton route, which finishes r16 at its first step.
    bound = 100 if solve is solve_arimoto else 160
    if solve is solve_backward_em:
        solve = partial(solve, step_size=1.0)
    else:
        without_support_newton(monkeypatch)
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
    assert retained <= bound * len(trace)


@pytest.mark.parametrize("solve", [solve_arimoto, solve_backward_em])
def test_records_refuse_a_kept_scalar_the_replay_does_not_give(solve, monkeypatch):
    # Both solvers finish r16 at their first step with the support-Newton
    # route, so solve_arimoto runs without it; the backward solver takes
    # four steps on the refused square to 1e-9.
    if solve is solve_arimoto:
        without_support_newton(monkeypatch)
    _, trace = solve(r16(), tol=1e-6) if solve is solve_arimoto else solve(refused_square(), tol=1e-9)
    # The upper bound of iteration 4, in the kept list of rows.
    k = 3 * len(trace._columns) + trace._columns.index("upper_bound")
    trace._kept[k] = math.nextafter(trace._kept[k], math.inf)
    with pytest.raises(AssertionError, match="iteration 4"):
        trace.records


def test_the_columns_are_the_bounds_and_the_step_fields_after_sweep():
    # A column is one Step field and the TraceRecord field of its name.
    assert _COLUMNS[:2] == ("lower_bound", "upper_bound") and _COLUMNS[2:] == Step._fields[3:]
    assert _ARIMOTO_COLUMNS == _COLUMNS[:3]
    assert set(_COLUMNS) <= {field.name for field in dataclasses.fields(TraceRecord)}


@pytest.mark.parametrize(
    "case",
    ["arimoto-underflow", "backward-underflow", "backward-max-inner-2", "backward-rejections", "backward-finish"],
)
def test_the_kept_columns_are_the_records_fields(case, monkeypatch):
    # Each column the trace keeps reads, bit for bit, as the TraceRecord
    # field it is named by.  The last input of the underflow channel starts
    # at the smallest subnormal; its first step underflows it to zero.  Both
    # solvers' state is the log-weights, so they keep the zero and clamp
    # nothing.  At max_inner=2 some backward steps fall back at the paper's
    # step size (the default's gap-scaled inner tolerance takes r16 without
    # one), and slow32 to 1e-13 rejects candidates under the default
    # without the support-Newton route, which otherwise finishes it at the
    # first step.  With the route, r8's last record has no step size.
    if case == "backward-rejections":
        without_support_newton(monkeypatch)
    underflow_channel = Channel(np.vstack([np.eye(4), np.full(4, 0.25)]))
    start = Distribution(np.array([0.4, 0.3, 0.2, 0.1, 5e-324]))
    _, trace = {
        "arimoto-underflow": lambda: solve_arimoto(underflow_channel, initial=start),
        "backward-underflow": lambda: solve_backward_em(underflow_channel, initial=start),
        "backward-max-inner-2": lambda: solve_backward_em(r16(), max_inner=2, step_size=1.0),
        "backward-rejections": lambda: solve_backward_em(pinned_squares()["r32"], tol=1e-13),
        "backward-finish": lambda: solve_backward_em(pinned_squares()["r8"]),
    }[case]()
    columns = {name: trace._column(name) for name in _COLUMNS}
    for name, column in columns.items():
        assert repr(column) == repr([getattr(rec, name) for rec in trace.records]), name
    assert not any(rec.clamped for rec in trace.records)
    if case.endswith("underflow"):
        assert trace.records[-1].input_distribution.weights[4] == 0.0
    elif case.endswith("rejections"):
        assert sum(columns["rejected_inner_iterations"][1:]) > 0
    elif case.endswith("finish"):
        assert columns["step_status"][-1] == "support_newton" and columns["step_size"][-1] is None
    else:
        assert "fallback" in columns["step_status"]
