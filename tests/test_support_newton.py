"""The support-Newton route: Newton on the Kuhn-Tucker conditions restricted
to the support, tried by solve_arimoto and by the backward solver's
adaptive default, and accepted only as the run's last record."""

import math
import warnings

import numpy as np
import pytest

from chancap import Channel, Termination, solve_arimoto, solve_backward_em, z_channel
from chancap import arimoto
from chancap.arimoto import _sweep
from support import pinned_squares, random_channel, without_support_newton

ASYMMETRIC_BINARY = Channel(np.array([[0.9, 0.1], [0.3, 0.7]]))


def solve_both(ch, monkeypatch, **settings):
    """solve_backward_em with the route, then without it."""
    _, finished = solve_backward_em(ch, **settings)
    with monkeypatch.context() as patch:
        without_support_newton(patch)
        _, plain = solve_backward_em(ch, **settings)
    return finished, plain


def rows(trace) -> list:
    """The trace's kept rows, as reprs, which tell every float apart bit for bit."""
    width = len(trace._columns)
    return [repr(trace._kept[k:k + width]) for k in range(0, len(trace._kept), width)]


def counted_tries(monkeypatch) -> list:
    """Patch arimoto._support_newton to append each try's result to the returned list."""
    tries = []
    support_newton = arimoto._support_newton

    def counting(*args):
        tries.append(support_newton(*args))
        return tries[-1]

    monkeypatch.setattr(arimoto, "_support_newton", counting)
    return tries


def symmetric(size: int, eps: float) -> np.ndarray:
    """The size-ary symmetric channel that keeps its symbol with probability 1 - eps."""
    matrix = np.full((size, size), eps / (size - 1))
    np.fill_diagonal(matrix, 1.0 - eps)
    return matrix


def kronecker_256() -> Channel:
    """perfbench's large-loose asym_x_sym128 shape: the asymmetric binary
    channel times a 128-ary symmetric channel, unrelabelled."""
    return Channel(np.kron(ASYMMETRIC_BINARY.matrix, symmetric(128, 0.1)))


def _corpus() -> dict:
    squares = pinned_squares()
    rng = np.random.default_rng(77)
    cases = {
        "z": (z_channel(0.5), 1e-9),
        "asym": (ASYMMETRIC_BINARY, 1e-9),
        **{f"{name}-1e-9": (ch, 1e-9) for name, ch in squares.items()},
        **{f"{name}-1e-13": (ch, 1e-13) for name, ch in squares.items()},
    }
    for k in range(12):
        cases[f"random-{k}"] = (random_channel(rng, int(rng.integers(2, 17)), int(rng.integers(2, 17))), 1e-12)
    return cases


@pytest.mark.parametrize("case", list(_corpus()))
def test_records_before_the_finish_are_those_of_the_run_without_the_route(case, monkeypatch):
    # A refused try adds no record and changes nothing, and an accepted one
    # is the run's last record: every record before it is, bit for bit,
    # the record the run without the route has there.
    ch, tol = _corpus()[case]
    finished, plain = solve_both(ch, monkeypatch, tol=tol)
    routes = finished._column("step_status")
    assert "support_newton" not in routes[:-1]
    if routes[-1] == "support_newton":
        assert len(finished) <= len(plain)
        assert rows(finished)[:-1] == rows(plain)[:len(finished) - 1]
        last = finished.records[-1]
        assert last.gap <= tol and last.lower_bound >= finished.records[-2].lower_bound
    else:
        assert rows(finished) == rows(plain)


@pytest.mark.parametrize("case", ["duplicate-rows", "kronecker-256x256", "paper-step-size"])
def test_runs_the_route_cannot_finish_keep_their_records(case, monkeypatch):
    # Duplicate rows in the support make the bordered system singular: each
    # try is refused, without a least-squares solve and without a
    # RuntimeWarning (which fails the suite), and the run is the one
    # without the route.  The 256x256 Kronecker channel has more inputs
    # than the route's cap, so no try runs; neither does one at the paper's
    # step size.
    settings = {}
    if case == "duplicate-rows":
        matrix = random_channel(np.random.default_rng(78), 4, 6).matrix
        ch, tries_expected = Channel(np.vstack([matrix, matrix[:1]])), True
    elif case == "kronecker-256x256":
        ch, tries_expected, settings = kronecker_256(), False, {"tol": 1e-6}
    else:
        ch, tries_expected, settings = pinned_squares()["r8"], False, {"step_size": 1.0, "tol": 1e-7}
    tries = counted_tries(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        finished, plain = solve_both(ch, monkeypatch, **settings)
    assert rows(finished) == rows(plain)
    assert "support_newton" not in finished._column("step_status")
    assert bool(tries) == tries_expected and not any(tries)


def test_a_refused_try_waits_for_the_gap_to_fall_tenfold(monkeypatch):
    # r8's first try, at the start's gap, settles on four of the five
    # inputs of the optimal support and is refused.  The next try runs at
    # the first record whose gap is below a tenth of that gap, and finishes.
    gaps = []
    support_newton = arimoto._support_newton

    def recording(q, support, ch):
        gaps.append(_sweep(q, ch)[3] - _sweep(q, ch)[2])
        return support_newton(q, support, ch)

    monkeypatch.setattr(arimoto, "_support_newton", recording)
    _, trace = solve_backward_em(pinned_squares()["r8"])
    record_gaps = [upper - lower for lower, upper in zip(trace._column("lower_bound"), trace._column("upper_bound"))]
    assert gaps == [record_gaps[0], record_gaps[4]]
    assert all(gap >= 0.1 * gaps[0] for gap in record_gaps[1:4]) and record_gaps[4] < 0.1 * gaps[0]
    assert trace._column("step_status")[-1] == "support_newton" and len(trace) == 6


def test_an_input_whose_weight_goes_negative_leaves_the_support():
    # slow32's optimal support has 13 of its 32 inputs.  From the uniform
    # start the route drops the most negative input and restarts, one input
    # at a time, until the solve keeps every weight positive.
    ch = pinned_squares()["r32"]
    q = np.full(32, 1.0 / 32)
    finish = arimoto._support_newton(q, np.arange(32), ch)
    assert finish is not None and finish.support.size == 13
    assert finish.steps > 19
    off = np.ones(32, dtype=bool)
    off[finish.support] = False
    assert (finish.weights[off] == 0.0).all() and (finish.weights[finish.support] > 0.0).all()
    _, d, lower, upper = _sweep(finish.weights, ch)
    assert upper - lower <= 1e-14


def test_a_zero_output_refuses_the_try():
    # With the third input off the support, nothing reaches the third
    # output: the try is refused rather than dividing by zero.
    ch = Channel(np.eye(3))
    q = np.array([0.5, 0.5 - 1e-13, 1e-13])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert arimoto._support_newton(q, np.array([0, 1]), ch) is None


def test_the_noiseless_channel_closes_its_gap_below_the_floor():
    # The noiseless 10-symbol channel plus a useless input, at a tolerance
    # no float gap but 0 meets: the exact steps rest at a gap of 4.4e-16
    # for all 5,000 records.  Once the useless weight is below 1e-12 the
    # route solves the ten noiseless inputs to the uniform law, whose gap
    # is exactly 0.
    ch = Channel(np.vstack([np.eye(10), np.full(10, 0.1)]))
    result, trace = solve_backward_em(ch, tol=1e-300, max_iters=5000)
    assert result.termination is Termination.CONVERGED and result.iterations <= 10
    assert result.bracket.lower == result.bracket.upper
    assert trace._column("step_status")[-1] == "support_newton"
    assert list(result.optimal_input.weights) == [0.1] * 10 + [0.0]


@pytest.mark.parametrize(
    "case", ["z", "asym", "r4", "slow32"],
)
def test_tolerances_near_the_floor_converge_without_rejections(case):
    # At tol=1e-15 the exact steps of z, asym and r4 ran all 200 records
    # with 92-94 rejected candidates, and slow32 to 1e-13 took 81 records
    # with 28.  The route finishes each at its first step.
    ch, tol = {
        "z": (z_channel(0.5), 1e-15),
        "asym": (ASYMMETRIC_BINARY, 1e-15),
        "r4": (pinned_squares()["r4"], 1e-15),
        "slow32": (pinned_squares()["r32"], 1e-13),
    }[case]
    result, trace = solve_backward_em(ch, tol=tol, max_iters=200)
    assert result.termination is Termination.CONVERGED and result.iterations == 2
    assert trace._column("step_status")[-1] == "support_newton"
    assert sum(trace._column("rejected_candidates")[1:]) == 0


def test_r64_finishes_above_the_newton_cap():
    # 64 outputs: the adaptive rule keeps lambda = 1, which took 10,324
    # records to 1e-9.  The route's first try is refused; its second, 50
    # records later, finishes.
    ch = Channel(np.random.default_rng(5).dirichlet(np.ones(64), size=64))
    result, trace = solve_backward_em(ch, tol=1e-9)
    assert result.termination is Termination.CONVERGED and result.iterations <= 60
    assert trace._column("step_status")[-1] == "support_newton"


# solve_arimoto takes the same route, through the same try.  Its records
# before the last are the multiplicative sweeps.


def solve_arimoto_both(ch, monkeypatch, **settings):
    """solve_arimoto with the route, then without it for as many records:
    the plain sweeps can take hundreds of thousands to a tight tol."""
    _, finished = solve_arimoto(ch, **settings)
    with monkeypatch.context() as patch:
        without_support_newton(patch)
        _, plain = solve_arimoto(ch, **{**settings, "max_iters": len(finished)})
    return finished, plain


@pytest.mark.parametrize("case", list(_corpus()))
def test_arimoto_records_before_the_finish_are_the_plain_sweeps(case, monkeypatch):
    ch, tol = _corpus()[case]
    finished, plain = solve_arimoto_both(ch, monkeypatch, tol=tol)
    routes = finished._column("step_status")
    assert set(routes[:-1]) == {None}
    assert len(plain) == len(finished)
    assert rows(finished)[:-1] == rows(plain)[:-1]
    if routes[-1] == "support_newton":
        last = finished.records[-1]
        assert last.gap <= tol and last.lower_bound >= finished.records[-2].lower_bound
    else:
        assert rows(finished) == rows(plain)


@pytest.mark.parametrize("case", ["slow32", "r64"])
def test_arimoto_finishes_the_slow_channels(case):
    # The plain sweeps take 11,357 records on slow32 to 1e-7 and 10,315 on
    # r64 to 1e-9.  slow32's first try, from the uniform start, drops 19
    # of its 32 inputs and finishes; r64's is refused, and a later one
    # finishes.
    ch, tol, most = {
        "slow32": (pinned_squares()["r32"], 1e-7, 2),
        "r64": (Channel(np.random.default_rng(5).dirichlet(np.ones(64), size=64)), 1e-9, 60),
    }[case]
    result, trace = solve_arimoto(ch, tol=tol)
    assert result.termination is Termination.CONVERGED and result.iterations <= most
    assert trace._column("step_status")[-1] == "support_newton"
    assert (result.optimal_input.weights == 0.0).any()


def test_arimoto_records_replay_a_run_with_a_refused_try(monkeypatch):
    # r8's first try, from the uniform start, settles on four of the five
    # inputs of the optimal support, and its candidate is refused; the
    # second waits for the gap to fall tenfold and finishes at record 10.
    # retry_below lives on each Step, so the replay takes the same two
    # tries; a replay that tried at every step would finish at the second
    # record and fail the check.
    ch = pinned_squares()["r8"]
    tries = counted_tries(monkeypatch)
    _, trace = solve_arimoto(ch, tol=1e-9)
    assert len(trace) == 10 and [finish.support.size for finish in tries] == [4, 5]
    records = trace.records
    assert [finish.support.size for finish in tries] == [4, 5, 4, 5]
    assert [rec.step_status for rec in records] == [None] * 9 + ["support_newton"]
    _, tampered = solve_arimoto(ch, tol=1e-9)
    # The upper bound of iteration 4, in the kept list of rows.
    k = 3 * len(tampered._columns) + tampered._columns.index("upper_bound")
    tampered._kept[k] = math.nextafter(tampered._kept[k], math.inf)
    with pytest.raises(AssertionError, match="iteration 4"):
        tampered.records


@pytest.mark.parametrize("case", ["r8", "r16", "slow32"])
def test_arimoto_keeps_the_per_step_progress_bound_through_the_finish(case):
    # Criterion 13 on wider channels: C - I(q_t) <= sum_x q*(x) log(q_{t+1}(x) / q_t(x)).
    # At the last step this is Arimoto's inequality C - I(q) <= D(q* || q),
    # which holds for any interior q; an input off the optimal support adds
    # nothing to the sum.
    ch = pinned_squares()[{"slow32": "r32"}.get(case, case)]
    result, trace = solve_arimoto(ch, tol=1e-9)
    assert trace._column("step_status")[-1] == "support_newton"
    q_star = result.optimal_input.weights
    on = q_star > 0.0
    records = trace.records
    for before, after in zip(records, records[1:]):
        shortfall = result.capacity - before.lower_bound
        ratio = after.input_distribution.weights[on] / before.input_distribution.weights[on]
        assert shortfall <= float(np.dot(q_star[on], np.log(ratio))) + 1e-9


@pytest.mark.parametrize("case", ["z_x_sym512", "asym_x_sym128", "asym_x_column"])
def test_arimoto_keeps_the_large_loose_records(case, monkeypatch):
    # perfbench's large-loose shapes, unrelabelled: 1024 and 256 inputs are
    # above the route's cap, and the 512 inputs of asym_x_column above its
    # 2 outputs, so no try runs and every record is the plain sweep's.
    matrix = {
        "z_x_sym512": lambda: np.kron(z_channel(0.5).matrix, symmetric(512, 0.05)),
        "asym_x_sym128": lambda: kronecker_256().matrix,
        "asym_x_column": lambda: np.kron(ASYMMETRIC_BINARY.matrix, np.ones((256, 1))),
    }[case]()
    ch = Channel(matrix)
    tries = counted_tries(monkeypatch)
    _, finished = solve_arimoto(ch, tol=1e-6)
    with monkeypatch.context() as patch:
        without_support_newton(patch)
        _, plain = solve_arimoto(ch, tol=1e-6)
    assert tries == []
    assert 20 <= len(finished) <= 30
    assert rows(finished) == rows(plain)


def test_arimoto_criterion_04_design_never_descends():
    # Criterion 04's channels and Arimoto settings: 300 sweeps to 1e-14.
    # The plain sweeps reached 1e-14 on 30 of the 200; the route, tried at
    # most once per tenfold fall of the gap and accepted only as the last
    # record, finishes 181.
    rng = np.random.default_rng(41)
    steps = descents = converged = finished = 0
    for _ in range(200):
        n, m = int(rng.integers(2, 17)), int(rng.integers(2, 17))
        result, trace = solve_arimoto(random_channel(rng, n, m), tol=1e-14, max_iters=300)
        converged += result.termination is Termination.CONVERGED
        lowers, uppers, routes = map(trace._column, ("lower_bound", "upper_bound", "step_status"))
        for k in range(1, len(trace)):
            steps += 1
            descents += lowers[k] < lowers[k - 1] - 1e-12
            if routes[k] == "support_newton":
                assert k == len(trace) - 1 and lowers[k] >= lowers[k - 1] and uppers[k] - lowers[k] <= 1e-14
                finished += 1
            else:
                assert routes[k] is None
    assert descents == 0
    assert converged >= finished >= 175
    assert steps < 20000


def test_arimoto_tries_no_support_wider_than_the_outputs(monkeypatch):
    # More inputs than outputs make the bordered system singular, so a try
    # waits until at most m inputs keep a weight above 1e-12.
    sizes = []
    support_newton = arimoto._support_newton

    def recording(q, support, ch):
        sizes.append((support.size, ch.num_outputs))
        return support_newton(q, support, ch)

    monkeypatch.setattr(arimoto, "_support_newton", recording)
    rng = np.random.default_rng(79)
    for _ in range(10):
        solve_arimoto(random_channel(rng, int(rng.integers(5, 13)), int(rng.integers(2, 5))), tol=1e-9)
    assert len(sizes) >= 2
    assert all(size <= outputs for size, outputs in sizes)
