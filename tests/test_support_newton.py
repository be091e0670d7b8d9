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
from chancap.numeric import _solving
from support import pinned_squares, random_channel, refused_square, without_support_newton

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
    """Patch arimoto._try_finish to append each try's result, its finishing
    Step or None, to the returned list."""
    tries = []
    try_finish = arimoto._try_finish

    def counting(*args):
        tries.append(try_finish(*args))
        return tries[-1]

    monkeypatch.setattr(arimoto, "_try_finish", counting)
    return tries


def first_newton_weights(q: np.ndarray, ch: Channel) -> np.ndarray:
    """The weights one support-Newton step from q makes on every input,
    written with numpy: the bordered system's solution added to q."""
    n = q.size
    r = q @ ch.matrix
    system = np.ones((n + 1, n + 1))
    system[:n, :n] = (ch.matrix / r) @ ch.matrix.T
    system[n, n] = 0.0
    rhs = np.append(ch.row_negentropy - ch.matrix @ np.log(r), 0.0)
    return q + np.linalg.solve(system, rhs)[:n]


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


@pytest.mark.parametrize("solve", [solve_arimoto, solve_backward_em], ids=["arimoto", "backward"])
@pytest.mark.parametrize("name", ["r8", "r16", "r32"], ids=["r8", "r16", "slow32"])
def test_no_step_follows_a_finish(solve, name, monkeypatch):
    # A finish's Step carries no log-weights, which is sound only because
    # no stepper is ever handed it: the run stops at it, and so does the
    # replay that reading the records makes.
    handed = []

    def guarded(stepper):
        def step(sweep, previous):
            assert previous.step_status != "support_newton", "a stepper was handed a finish"
            handed.append(previous.step_status)
            return stepper(sweep, previous)
        return step

    run = arimoto._run
    monkeypatch.setattr(arimoto, "_run", lambda ch, q, stepper, tol=None: run(ch, q, guarded(stepper), tol))
    _, trace = solve(pinned_squares()[name])
    records = trace.records
    assert records[-1].step_status == "support_newton"
    # The finish takes the last step's place, and the solve and the replay
    # each hand the stepper every Step before it.
    assert len(handed) == 2 * (len(records) - 2)


@pytest.mark.parametrize(
    "case", ["duplicate-rows", "non-finite-correction", "step-cap", "kronecker-256x256", "paper-step-size"],
)
def test_runs_the_route_cannot_finish_keep_their_records(case, monkeypatch):
    # Duplicate rows in the support make the bordered system singular: each
    # try is refused, without a least-squares solve and without a
    # RuntimeWarning (which fails the suite), and the run is the one
    # without the route.  So is each try on r8 when the solve returns NaN,
    # or when one Newton step is the cap.  The 256x256 Kronecker channel
    # has more inputs than the route's cap, so no try runs; neither does
    # one at the paper's step size.
    settings = {}
    if case == "duplicate-rows":
        matrix = random_channel(np.random.default_rng(78), 4, 6).matrix
        ch, tries_expected = Channel(np.vstack([matrix, matrix[:1]])), True
    elif case == "non-finite-correction":
        monkeypatch.setattr(arimoto, "_solve", lambda system, rhs: np.full(rhs.size, math.nan))
        ch, tries_expected = pinned_squares()["r8"], True
    elif case == "step-cap":
        monkeypatch.setattr(arimoto, "_MAX_SUPPORT_STEPS", 1)
        ch, tries_expected = pinned_squares()["r8"], True
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
    # The refused square's first try, at the start's gap, is refused.  The
    # next try runs at the first record whose gap is below a tenth of that
    # gap, and finishes.
    gaps = []
    try_finish = arimoto._try_finish

    def recording(q, d, lower, support, ch, tol):
        gaps.append(_sweep(q, ch)[3] - _sweep(q, ch)[2])
        return try_finish(q, d, lower, support, ch, tol)

    monkeypatch.setattr(arimoto, "_try_finish", recording)
    _, trace = solve_backward_em(refused_square())
    record_gaps = [upper - lower for lower, upper in zip(trace._column("lower_bound"), trace._column("upper_bound"))]
    assert gaps == [record_gaps[0], record_gaps[3]]
    assert all(gap >= 0.1 * gaps[0] for gap in record_gaps[1:3]) and record_gaps[3] < 0.1 * gaps[0]
    assert trace._column("step_status")[-1] == "support_newton" and len(trace) == 5


def test_an_input_whose_weight_goes_negative_leaves_the_support():
    # slow32's optimal support has 13 of its 32 inputs.  From the uniform
    # start the try drops, at each restart, the most negative input and
    # every other non-positive one whose divergence is below the lower
    # bound, re-admits the inputs the candidates' sweeps call for, and
    # finishes on the 13 in 18 Newton steps, where dropping one input at a
    # time took 27.
    ch = pinned_squares()["r32"]
    q = np.full(32, 1.0 / 32)
    _, d, lower, _ = _sweep(q, ch)
    step = arimoto._try_finish(q, d, lower, np.arange(32), ch, 1e-14)
    assert step is not None and step.inner_iterations == 18
    support = step.iterate > 0.0
    assert support.sum() == 13 and (step.iterate[~support] == 0.0).all()
    _, _, lower, upper = _sweep(step.iterate, ch)
    assert upper - lower <= 1e-14


def test_an_input_whose_divergence_is_at_least_the_lower_bound_stays():
    # From r16's uniform start the first Newton step sends 10 of the 16
    # weights non-positive.  Five of them have a divergence at least the
    # start's lower bound: they stay in S, while the most negative input
    # and the four others below it leave.  The solve keeps all five and
    # finishes on the optimal support of 8 inputs.
    ch = pinned_squares()["r16"]
    q = np.full(16, 1.0 / 16)
    _, d, lower, _ = _sweep(q, ch)
    w = first_newton_weights(q, ch)
    out = w <= 0.0
    out[w.argmin()] = False
    stays, leaves = (out & (d >= lower)).nonzero()[0], (out & (d < lower)).nonzero()[0]
    assert list(stays) == [1, 6, 11, 12, 15] and list(leaves) == [2, 3, 5, 9]
    with _solving():
        finish = arimoto._support_newton(q, d, lower, np.arange(16), ch)
    assert set(stays) <= set(finish.support) and not set(leaves) & set(finish.support)
    assert finish.support.size == 8
    _, _, lower, upper = _sweep(finish.weights, ch)
    assert upper - lower <= 1e-14


def test_r8s_first_try_re_admits_the_input_its_solve_dropped(monkeypatch):
    # From the uniform start r8's first solve settles on four of the five
    # inputs of the optimal support.  Its candidate's sweep gives the fifth
    # the largest divergence, above the candidate's lower bound, so the
    # input re-enters S and the solve, started from the candidate, finishes
    # on all five: the first try ends the run at record 2.
    solves = []
    support_newton = arimoto._support_newton

    def recording(*args):
        solves.append(support_newton(*args))
        return solves[-1]

    monkeypatch.setattr(arimoto, "_support_newton", recording)
    ch = pinned_squares()["r8"]
    q = np.full(8, 1.0 / 8)
    _, d, lower, _ = _sweep(q, ch)
    step = arimoto._try_finish(q, d, lower, np.arange(8), ch, 1e-9)
    assert [finish.support.size for finish in solves] == [4, 5]
    (added,) = set(solves[1].support) - set(solves[0].support)
    assert _sweep(solves[0].weights, ch)[1].argmax() == added
    assert step is not None and (step.iterate > 0.0).sum() == 5
    for solve in (solve_arimoto, solve_backward_em):
        result, trace = solve(ch, tol=1e-9)
        assert result.iterations == 2 and trace._column("step_status")[-1] == "support_newton"


def test_a_zero_output_refuses_the_try():
    # With the third input off the support, nothing reaches the third
    # output: the try is refused rather than dividing by zero.
    ch = Channel(np.eye(3))
    q = np.array([0.5, 0.5 - 1e-13, 1e-13])
    _, d, lower, _ = _sweep(q, ch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert arimoto._support_newton(q, d, lower, np.array([0, 1]), ch) is None


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
    # records to 1e-9.  The route's first try re-admits two inputs its
    # solves dropped and finishes on 19.
    ch = Channel(np.random.default_rng(5).dirichlet(np.ones(64), size=64))
    result, trace = solve_backward_em(ch, tol=1e-9)
    assert result.termination is Termination.CONVERGED and result.iterations <= 3
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
    # r64 to 1e-9.  The first try of each, from the uniform start, drops
    # 19 of slow32's 32 inputs and 45 of r64's 64, and finishes.
    ch, tol, most = {
        "slow32": (pinned_squares()["r32"], 1e-7, 2),
        "r64": (Channel(np.random.default_rng(5).dirichlet(np.ones(64), size=64)), 1e-9, 3),
    }[case]
    result, trace = solve_arimoto(ch, tol=tol)
    assert result.termination is Termination.CONVERGED and result.iterations <= most
    assert trace._column("step_status")[-1] == "support_newton"
    assert (result.optimal_input.weights == 0.0).any()


@pytest.mark.parametrize(
    "solver, routes",
    [
        (solve_arimoto, [None] * 9 + ["support_newton"]),
        (solve_backward_em, [None] + ["exact"] * 3 + ["support_newton"]),
    ],
    ids=["arimoto", "backward"],
)
def test_arimoto_records_replay_a_run_with_a_refused_try(solver, routes, monkeypatch):
    # The refused square's first try, from the uniform start, is refused;
    # the second waits for the gap to fall tenfold and finishes, at record
    # 10 of solve_arimoto and record 5 of solve_backward_em.  The gap the
    # next try waits for is a local of the loop, which the replay restarts,
    # so the replay takes the same two tries; a replay that tried at every
    # step would finish earlier and fail the check there.
    ch = refused_square()
    tries = counted_tries(monkeypatch)
    _, trace = solver(ch, tol=1e-9)
    assert len(trace) == len(routes) and [step is not None for step in tries] == [False, True]
    records = trace.records
    assert [step is not None for step in tries] == [False, True] * 2
    assert [rec.step_status for rec in records] == routes
    _, tampered = solver(ch, tol=1e-9)
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
    # A re-admission keeps to the same bound.
    sizes = []
    support_newton = arimoto._support_newton

    def recording(q, d, lower, support, ch, *steps):
        sizes.append((support.size, ch.num_outputs))
        return support_newton(q, d, lower, support, ch, *steps)

    monkeypatch.setattr(arimoto, "_support_newton", recording)
    rng = np.random.default_rng(79)
    for _ in range(10):
        solve_arimoto(random_channel(rng, int(rng.integers(5, 13)), int(rng.integers(2, 5))), tol=1e-9)
    assert len(sizes) >= 2
    assert all(size <= outputs for size, outputs in sizes)
