"""End-to-end command line tests, driven through main() with real files."""

import json
import math

import numpy as np
import pytest

from chancap import Channel, load_channel, save_channel, solve_arimoto, solve_backward_em
from chancap.cli import (
    EXIT_BAD_INPUT,
    EXIT_CHECK_FAILED,
    EXIT_ITERATION_LIMIT,
    EXIT_OK,
    _TRACE_HEADER,
    _read_channel,
    _write_trace,
    main,
)
from chancap.channel import CANONICAL_KINDS
from chancap.errors import InvalidDistribution, NegativeEntry, RowNotStochastic
from support import CANONICAL_EXAMPLES, pinned_squares, random_channel, refused_square, without_support_newton

BSC01_BITS = 0.5310044064107188
Z05_BITS = np.log2(1.25)


def write_bsc(tmp_path, capsys, p="0.1"):
    path = tmp_path / "bsc.json"
    assert main(["generate", "--kind", "bsc", "--param", p, "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    return path


def write_z(tmp_path, capsys):
    path = tmp_path / "z.json"
    assert main(["generate", "--kind", "z", "--param", "0.5", "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    return path


def run_json(capsys, argv, expected_code=EXIT_OK):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    return json.loads(out)


class TestCapacity:
    def test_reports_bits_by_default(self, tmp_path, capsys):
        path = write_bsc(tmp_path, capsys)
        payload = run_json(capsys, ["capacity", "--channel", str(path)])
        assert payload["units"] == "bits"
        assert payload["capacity"] == pytest.approx(BSC01_BITS, abs=1e-9)
        assert payload["termination"] == "converged"
        assert payload["lower"] <= payload["capacity"] <= payload["upper"]
        assert payload["optimal_input"] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert "inner_sweeps" not in payload

    def test_nats_option(self, tmp_path, capsys):
        path = write_bsc(tmp_path, capsys)
        payload = run_json(
            capsys, ["capacity", "--channel", str(path), "--units", "nats"]
        )
        assert payload["units"] == "nats"
        assert payload["capacity"] == pytest.approx(BSC01_BITS * np.log(2.0), abs=1e-9)

    def test_backward_em_algorithm(self, tmp_path, capsys):
        path = write_z(tmp_path, capsys)
        payload = run_json(
            capsys, ["capacity", "--channel", str(path), "--algorithm", "backward-em"]
        )
        assert payload["capacity"] == pytest.approx(Z05_BITS, abs=1e-8)
        assert payload["inner_sweeps"] > 0

    def test_iteration_limit_exit_code(self, tmp_path, capsys, monkeypatch):
        # The support-Newton route finishes z at its first step.
        without_support_newton(monkeypatch)
        path = write_z(tmp_path, capsys)
        payload = run_json(
            capsys,
            ["capacity", "--channel", str(path), "--tol", "1e-15", "--max-iters", "3"],
            expected_code=EXIT_ITERATION_LIMIT,
        )
        assert payload["termination"] == "max_iterations"
        assert payload["iterations"] == 3

    def test_csv_channel_input(self, tmp_path, capsys):
        path = tmp_path / "z.csv"
        path.write_text("1.0,0.0\n0.5,0.5\n")
        payload = run_json(
            capsys, ["capacity", "--channel", str(path), "--format", "csv"]
        )
        assert payload["capacity"] == pytest.approx(Z05_BITS, abs=1e-9)

    def test_writes_iteration_trace(self, tmp_path, capsys, monkeypatch):
        # The plain sweeps' rows: the support-Newton route finishes z at its
        # first step, on a row whose status reads support_newton.
        without_support_newton(monkeypatch)
        path = write_z(tmp_path, capsys)
        trace_path = tmp_path / "trace.csv"
        run_json(capsys, ["capacity", "--channel", str(path), "--trace", str(trace_path)])
        lines = trace_path.read_text().splitlines()
        assert lines[0] == _TRACE_HEADER
        assert len(lines) > 2
        # the classical solver has no inner loop, so both trailing columns
        # stay empty on every data row
        assert all(line.endswith(",,") for line in lines[1:])
        gaps = [float(line.split(",")[4]) for line in lines[1:]]
        assert gaps[-1] <= 1e-9

    def test_backward_trace_carries_step_route(self, tmp_path, capsys):
        # The refused square's exact steps, then the support-Newton route on
        # the last row.
        path = tmp_path / "refused.json"
        path.write_bytes(save_channel(refused_square()))
        trace_path = tmp_path / "trace_bem.csv"
        run_json(
            capsys,
            [
                "capacity",
                "--channel",
                str(path),
                "--algorithm",
                "backward-em",
                "--trace",
                str(trace_path),
            ],
        )
        lines = trace_path.read_text().splitlines()
        assert lines[0] == _TRACE_HEADER
        assert lines[1].endswith(",,")
        routes = [line.split(",")[5] for line in lines[2:]]
        assert routes[-1] == "support_newton"
        assert set(routes[:-1]) <= {"exact", "fallback"} and "exact" in routes

    @pytest.mark.parametrize("algorithm", ["arimoto", "backward-em"])
    def test_trace_csv_keeps_the_row_by_row_format(self, tmp_path, algorithm, monkeypatch):
        # The rows are written in one writelines call with one repr per
        # value; the bytes must be those of the format one write per row
        # gave, lower bound twice and an empty residual for None.
        ch = pinned_squares()["r16"]
        if algorithm == "arimoto":
            # The plain sweeps' 1,042 rows: the support-Newton route
            # finishes r16 at its first step.
            without_support_newton(monkeypatch)
            _, trace = solve_arimoto(ch)
        else:
            # The paper's step size with a starved inner solve falls back on
            # some steps, so the route column holds both routes.
            _, trace = solve_backward_em(ch, tol=1e-12, max_inner=1, step_size=1.0)
            assert {"exact", "fallback"} <= set(trace._column("step_status"))
        path = tmp_path / "trace.csv"
        _write_trace(str(path), trace)
        expected = [_TRACE_HEADER + "\n"]
        rows = zip(*map(trace._column, ("lower_bound", "upper_bound", "step_status", "inner_residual")))
        for iteration, (lower, upper, route, residual) in enumerate(rows, 1):
            residual = "" if residual is None else repr(residual)
            expected.append(f"{iteration},{lower!r},{lower!r},{upper!r},{upper - lower!r},{route or ''},{residual}\n")
        assert len(expected) == len(trace) + 1 > 100
        assert path.read_bytes() == "".join(expected).encode("utf-8")

    def test_arimoto_trace_marks_the_support_newton_finish(self, tmp_path, capsys):
        # The refused square's plain sweeps leave status empty; the route
        # finishes it at record 10, whose row reads support_newton, with no
        # inner residual.
        path = tmp_path / "refused.json"
        path.write_bytes(save_channel(refused_square()))
        trace_path = tmp_path / "trace.csv"
        payload = run_json(capsys, ["capacity", "--channel", str(path), "--trace", str(trace_path)])
        statuses = [line.split(",")[5:] for line in trace_path.read_text().splitlines()[1:]]
        assert payload["iterations"] == len(statuses) == 10
        assert statuses == [["", ""]] * 9 + [["support_newton", ""]]
        assert payload["support_newton_steps"] == 1

    @pytest.mark.parametrize("algorithm", ["arimoto", "backward-em"])
    @pytest.mark.parametrize("kind", ["z", "random"])
    def test_trace_csv_is_the_records_text(self, tmp_path, capsys, algorithm, kind):
        # The CLI writes its trace from the trace's columns; the file must be
        # the text the records give, byte for byte, with mutual_info the
        # lower bound and gap upper - lower.
        if kind == "z":
            path = write_z(tmp_path, capsys)
        else:
            path = tmp_path / "random.json"
            path.write_bytes(save_channel(random_channel(np.random.default_rng(70), 5, 4)))
        trace_path = tmp_path / "trace.csv"
        argv = ["capacity", "--channel", str(path), "--algorithm", algorithm, "--units", "nats"]
        payload = run_json(capsys, [*argv, "--trace", str(trace_path)])
        solve = solve_arimoto if algorithm == "arimoto" else solve_backward_em
        _, trace = solve(load_channel(path.read_bytes()))
        rows = [
            f"{rec.iteration},{rec.mutual_info!r},{rec.lower_bound!r},{rec.upper_bound!r},"
            f"{rec.gap!r},{rec.step_status or ''},"
            f"{'' if rec.inner_residual is None else repr(rec.inner_residual)}"
            for rec in trace.records
        ]
        assert trace_path.read_text(encoding="utf-8") == "\n".join([_TRACE_HEADER, *rows]) + "\n"
        assert payload["iterations"] == len(trace)
        if algorithm == "backward-em":
            assert payload["inner_sweeps"] == sum(rec.inner_iterations or 0 for rec in trace.records)

    @pytest.mark.parametrize("limit", [[], ["--max-iters", "3"]])
    def test_backward_em_counts_step_routes(self, tmp_path, capsys, limit):
        # The route counts are read from the trace's columns; they must be
        # the records' own, and cover every iterate after the first.  The
        # refused square takes three exact steps, then the support-Newton
        # route finishes it; stopped at 3 records, it has taken two exact
        # steps and no route.
        path = tmp_path / "refused.json"
        path.write_bytes(save_channel(refused_square()))
        argv = ["capacity", "--channel", str(path), "--algorithm", "backward-em", *limit]
        code = EXIT_ITERATION_LIMIT if limit else EXIT_OK
        payload = run_json(capsys, argv, expected_code=code)
        max_iters = int(limit[1]) if limit else 100000
        _, trace = solve_backward_em(load_channel(path.read_bytes()), max_iters=max_iters)
        routes = [rec.step_status for rec in trace.records]
        assert payload["iterations"] == len(trace) == min(max_iters, len(trace))
        assert payload["exact_steps"] == routes.count("exact") > 0
        assert payload["fallback_steps"] == routes.count("fallback")
        assert payload["support_newton_steps"] == routes.count("support_newton") == (0 if limit else 1)
        steps = payload["exact_steps"] + payload["fallback_steps"] + payload["support_newton_steps"]
        assert steps == len(trace) - 1
        assert payload["clamped_steps"] == sum(rec.clamped for rec in trace.records)
        assert payload["max_step_size"] == max(filter(None, (rec.step_size for rec in trace.records[1:]))) > 1.0
        assert payload["rejected_candidates"] == sum(rec.rejected_candidates for rec in trace.records[1:])
        assert payload["rejected_inner_sweeps"] == sum(rec.rejected_inner_iterations for rec in trace.records[1:])
        # solve_arimoto's support-Newton route finishes it at record 10.
        arimoto = run_json(capsys, ["capacity", "--channel", str(path), *limit], expected_code=code)
        keys = {
            "inner_sweeps", "exact_steps", "fallback_steps", "max_step_size", "rejected_candidates",
            "rejected_inner_sweeps",
        }
        assert not keys & arimoto.keys()
        assert arimoto["clamped_steps"] == 0
        assert arimoto["support_newton_steps"] == (0 if limit else 1)

    def test_backward_em_counts_rejected_candidates(self, tmp_path, capsys, monkeypatch):
        # The z channel's steps reject none, and neither do the pinned r8's
        # to 1e-9.  To 1e-13, without the support-Newton route that
        # finishes it at record 2, r8's steps at step sizes of 8192 and
        # 4096 each reject one candidate, whose inner solves took 4 and 3
        # steps, and retry at a quarter of it.
        without_support_newton(monkeypatch)
        path = tmp_path / "r8.json"
        ch = pinned_squares()["r8"]
        path.write_bytes(save_channel(ch))
        argv = ["capacity", "--channel", str(path), "--algorithm", "backward-em", "--tol", "1e-13"]
        payload = run_json(capsys, argv)
        _, trace = solve_backward_em(ch, tol=1e-13)
        rejected = trace._column("rejected_candidates")
        assert payload["rejected_candidates"] == sum(rejected[1:]) == 2
        assert payload["rejected_inner_sweeps"] == sum(trace._column("rejected_inner_iterations")[1:]) == 7
        assert payload["iterations"] == len(trace) == 17

    @pytest.mark.parametrize("units", ["bits", "nats"])
    @pytest.mark.parametrize("algorithm", ["arimoto", "backward-em"])
    def test_reports_the_bracket_gap(self, tmp_path, capsys, algorithm, units):
        path = write_bsc(tmp_path, capsys)
        argv = ["capacity", "--channel", str(path), "--algorithm", algorithm, "--units", units, "--tol", "1e-6"]
        payload = run_json(capsys, argv)
        solve = solve_arimoto if algorithm == "arimoto" else solve_backward_em
        result, _ = solve(load_channel(path.read_bytes()), tol=1e-6)
        gap = result.bracket.upper - result.bracket.lower
        # Taken in nats, as the stopping test takes it, then scaled.
        assert payload["gap"] == (gap / np.log(2.0) if units == "bits" else gap)
        assert payload["gap"] == pytest.approx(payload["upper"] - payload["lower"], abs=1e-15)
        assert 0.0 <= gap <= 1e-6

    @pytest.mark.parametrize(
        "algorithm, symbols", [("arimoto", 7), ("backward-em", 10)], ids=["arimoto", "backward-em"]
    )
    def test_underflows_to_an_exact_zero_without_a_clamp(self, tmp_path, capsys, monkeypatch, algorithm, symbols):
        # A noiseless channel plus a useless input, whose weight shrinks
        # every step until it underflows (at sweep 383 of the Arimoto
        # iteration on 7 symbols, at record 10 of the backward one on 10).
        # Both solvers carry log-weights, so the weight becomes an exact 0
        # and nothing is clamped.  On these channels the gap settles at one
        # ulp, not at 0 (by sweep 19, and by record 5), so a 1e-300 gap is
        # out of reach: the run stops at the iteration limit, with the
        # bracket at its rounding floor.  The backward solver's
        # support-Newton route would close the gap at record 2 (see
        # test_the_support_newton_route_closes_the_noiseless_gap), so it is
        # off here: the underflow is the exact steps'.
        without_support_newton(monkeypatch)
        path = tmp_path / "underflow.json"
        path.write_bytes(save_channel(Channel(np.vstack([np.eye(symbols), np.full(symbols, 1.0 / symbols)]))))
        argv = ["capacity", "--channel", str(path), "--algorithm", algorithm, "--tol", "1e-300", "--max-iters", "400",
                "--units", "nats"]
        payload = run_json(capsys, argv, expected_code=EXIT_ITERATION_LIMIT)
        assert payload["clamped_steps"] == 0
        assert payload["termination"] == "max_iterations"
        assert payload["optimal_input"][symbols] == 0.0
        assert all(w > 0.0 for w in payload["optimal_input"][:symbols])
        capacity = np.log(float(symbols))
        assert payload["lower"] <= capacity + 1e-15 and payload["upper"] >= capacity - 1e-15
        assert 0.0 < payload["gap"] <= 1e-15

    def test_the_support_newton_route_closes_the_noiseless_gap(self, tmp_path, capsys):
        # The backward case above with the route on: at the start the
        # useless input's divergence is already below the support test's
        # 2L - U, so the first try's support is the ten noiseless inputs,
        # and one Newton solve on it lands on ten equal weights one ulp
        # below 0.1, whose gap is exactly 0.  The useless input, off the
        # support, weighs exactly 0.
        path = tmp_path / "noiseless.json"
        path.write_bytes(save_channel(Channel(np.vstack([np.eye(10), np.full(10, 0.1)]))))
        argv = ["capacity", "--channel", str(path), "--algorithm", "backward-em", "--tol", "1e-300", "--max-iters",
                "5000", "--units", "nats"]
        payload = run_json(capsys, argv)
        assert payload["termination"] == "converged" and payload["iterations"] == 2
        assert payload["gap"] == 0.0 and payload["support_newton_steps"] == 1
        assert payload["optimal_input"] == [math.nextafter(0.1, 0.0)] * 10 + [0.0]
        assert payload["lower"] == payload["upper"] == pytest.approx(np.log(10.0), abs=1e-15)

    def test_missing_file_is_bad_input(self, tmp_path, capsys):
        code = main(["capacity", "--channel", str(tmp_path / "absent.json")])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INPUT
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_malformed_channel_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code = main(["capacity", "--channel", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_BAD_INPUT
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


    @pytest.mark.parametrize(
        "doc",
        [
            '{"matrix": [["a", "b"]]}',
            '{"matrix": [[{"a": 1}, 0.5]]}',
            '{"matrix": [[true, false], [false, true]]}',
            '{"matrix": [["0.5", "0.5"], ["1e-1", "0.9"]]}',
            # An integer beyond the float range used to end in a traceback.
            pytest.param('{"matrix": [[%s, 0.5], [0.5, 0.5]]}' % ("1" * 400), id="huge-integer"),
            # So did nesting beyond the recursion limit.
            pytest.param("[" * 100000, id="deep-array"),
            pytest.param('{"matrix": ' + "[" * 100000, id="deep-matrix"),
        ],
    )
    def test_non_numeric_channel_is_bad_input(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code = main(["capacity", "--channel", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_BAD_INPUT
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "labels",
        [
            pytest.param({"input_labels": ["0", "1"], "output_labels": ["0", "1"]}, id="two"),
            # These two were bad input while the channel kept its labels.
            pytest.param({"input_labels": 5}, id="int"),
            pytest.param({"output_labels": ["a"]}, id="too-few"),
        ],
    )
    def test_labels_leave_the_output_unchanged(self, tmp_path, capsys, labels):
        path = write_bsc(tmp_path, capsys)
        assert main(["capacity", "--channel", str(path)]) == EXIT_OK
        bare = capsys.readouterr()
        labelled = tmp_path / "labelled.json"
        labelled.write_text(json.dumps({**labels, **json.loads(path.read_text())}))
        assert main(["capacity", "--channel", str(labelled)]) == EXIT_OK
        assert capsys.readouterr() == bare

    @pytest.mark.parametrize(
        "flags",
        [["--tol", "abc"], ["--damping", "0.5"], ["--inner-tol", "1e-12"], ["--algorithm", "newton"]],
        ids=["non-numeric-tol", "no-damping-flag", "no-inner-tol-flag", "unknown-algorithm"],
    )
    def test_usage_error_is_bad_input(self, tmp_path, capsys, flags):
        # argparse's own exit status, 2, is the iteration-limit code here.
        path = write_z(tmp_path, capsys)
        code = main(["capacity", "--channel", str(path), *flags])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INPUT
        assert "error:" in captured.err
        assert captured.out == ""

    def test_missing_subcommand_is_bad_input_and_help_is_ok(self, capsys):
        assert main([]) == EXIT_BAD_INPUT
        assert main(["capacity", "-h"]) == EXIT_OK
        usage = capsys.readouterr().out
        assert "--max-iters" in usage and "--damping" not in usage and "--inner-tol" not in usage

    def test_nan_tolerance_is_bad_input(self, tmp_path, capsys):
        path = write_z(tmp_path, capsys)
        code = main(["capacity", "--channel", str(path), "--tol", "nan"])
        assert code == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error:")


class TestVerify:
    def test_round_trip_from_capacity_output(self, tmp_path, capsys):
        channel_path = write_z(tmp_path, capsys)
        payload = run_json(capsys, ["capacity", "--channel", str(channel_path)])
        law_path = tmp_path / "law.json"
        law_path.write_text(json.dumps(payload))
        code = main(
            ["verify", "--channel", str(channel_path), "--input", str(law_path)]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "verdict: PASS" in out
        assert "circumcenter check: pass" in out
        assert "brute force" in out

    def test_round_trip_through_exact_zeros(self, tmp_path, capsys):
        # solve_arimoto finishes perfbench's r64 with the support-Newton
        # route, whose optimal input is exactly 0 off the support it solved.
        channel_path = tmp_path / "r64.json"
        channel_path.write_bytes(save_channel(Channel(np.random.default_rng(5).dirichlet(np.ones(64), size=64))))
        payload = run_json(capsys, ["capacity", "--channel", str(channel_path)])
        assert payload["support_newton_steps"] == 1 and 0.0 in payload["optimal_input"]
        law_path = tmp_path / "law.json"
        law_path.write_text(json.dumps(payload))
        code = main(["verify", "--channel", str(channel_path), "--input", str(law_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "verdict: PASS" in out

    def test_fresh_solve_when_no_input_given(self, tmp_path, capsys):
        path = write_bsc(tmp_path, capsys)
        code = main(["verify", "--channel", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "from a fresh solver run" in out
        assert "verdict: PASS" in out

    def test_suboptimal_law_fails(self, tmp_path, capsys):
        channel_path = write_z(tmp_path, capsys)
        law_path = tmp_path / "uniform.json"
        law_path.write_text("[0.5, 0.5]")
        code = main(
            ["verify", "--channel", str(channel_path), "--input", str(law_path)]
        )
        out = capsys.readouterr().out
        assert code == EXIT_CHECK_FAILED
        assert "verdict: FAIL" in out

    @pytest.mark.parametrize(
        "doc",
        [
            '[{"a": 1}, 0.5]',
            "[true, false]",
            '["0.5", "0.5"]',
            '{"weights": [0.5, "0.5"]}',
            "[0.5,",
            "5",
            pytest.param("[%s, 0.5]" % ("1" * 400), id="huge-integer"),
            # Nesting beyond the recursion limit used to end in a traceback.
            pytest.param("[" * 100000, id="deep"),
            pytest.param("[%s]" % ("1" * 5000), id="too-many-digits"),
        ],
    )
    def test_non_numeric_input_law_is_bad_input(self, tmp_path, capsys, doc):
        # load_channel's rule for matrix entries applies to the weights too,
        # and a document that is no JSON array of weights is bad input.
        channel_path = write_z(tmp_path, capsys)
        law_path = tmp_path / "bad.json"
        law_path.write_text(doc)
        code = main(["verify", "--channel", str(channel_path), "--input", str(law_path)])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INPUT
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""

    def test_input_law_that_is_not_utf8_is_a_parse_error(self, tmp_path, capsys):
        # As for a channel file, the error names the fault, here with the
        # path, and is not a bare UnicodeDecodeError.
        channel_path = write_z(tmp_path, capsys)
        law_path = tmp_path / "law.json"
        law_path.write_bytes(b"\xff[0.5, 0.5]")
        code = main(["verify", "--channel", str(channel_path), "--input", str(law_path)])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INPUT
        assert captured.err.startswith(f"error: {law_path}: not valid UTF-8: ")
        assert captured.out == ""

    def test_brute_force_skipped_above_four_inputs(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        assert (
            main(["generate", "--kind", "uniform", "--param", "5,3", "--out", str(path)])
            == EXIT_OK
        )
        capsys.readouterr()
        code = main(["verify", "--channel", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "skipped" in out

    def test_underflowing_output_marginal_fails(self, tmp_path, capsys):
        # Output 1's marginal, 0.5 * 5e-324, underflows to 0 while input 1
        # keeps mass there: its divergence is infinite, a failed check.
        channel_path = tmp_path / "ch.json"
        channel_path.write_bytes(save_channel(Channel(np.array([[1.0, 0.0], [0.5, 0.5]]))))
        law_path = tmp_path / "law.json"
        law_path.write_text("[1.0, 5e-324]")
        code = main(["verify", "--channel", str(channel_path), "--input", str(law_path)])
        out = capsys.readouterr().out
        assert code == EXIT_CHECK_FAILED
        assert "capacity estimate: inf nats" in out
        assert "converse certificate: not applicable" in out
        assert "verdict: FAIL" in out

    def test_rejects_law_of_wrong_length(self, tmp_path, capsys):
        channel_path = write_z(tmp_path, capsys)
        law_path = tmp_path / "bad.json"
        law_path.write_text("[0.2, 0.3, 0.5]")
        code = main(
            ["verify", "--channel", str(channel_path), "--input", str(law_path)]
        )
        assert code == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error:")

    def test_rejects_law_without_weights(self, tmp_path, capsys):
        channel_path = write_z(tmp_path, capsys)
        law_path = tmp_path / "odd.json"
        law_path.write_text('{"something": 1}')
        code = main(
            ["verify", "--channel", str(channel_path), "--input", str(law_path)]
        )
        assert code == EXIT_BAD_INPUT


class TestCompare:
    def test_summarizes_both_solvers(self, tmp_path, capsys):
        channel_path = write_z(tmp_path, capsys)
        prefix = str(tmp_path / "cmp")
        payload = run_json(
            capsys,
            ["compare", "--channel", str(channel_path), "--trace-prefix", prefix],
        )
        assert payload["capacity_a"] == pytest.approx(Z05_BITS, abs=1e-8)
        assert payload["capacity_b"] == pytest.approx(Z05_BITS, abs=1e-8)
        assert payload["max_capacity_diff"] <= 1e-8
        assert payload["iters_a"] >= 1 and payload["iters_b"] >= 1
        for suffix in ("_arimoto.csv", "_backward_em.csv"):
            lines = (tmp_path / f"cmp{suffix}").read_text().splitlines()
            assert lines[0] == _TRACE_HEADER
            assert len(lines) > 1



@pytest.mark.parametrize(
    "argv",
    [["capacity", "--trace", "trace.csv"], ["verify"], ["compare", "--trace-prefix", "cmp"]],
    ids=["capacity", "verify", "compare"],
)
def test_a_channel_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, monkeypatch, argv):
    # Every command that reads a channel reports the fault in one line, exits
    # with the bad-input code and writes nothing.
    # The error names the file, as the input-law reader's does, for a
    # document that is not UTF-8 and for one that is not JSON.
    monkeypatch.chdir(tmp_path)
    for doc, fault in ((b'\xff{"matrix": [[1.0]]}', "not valid UTF-8"), (b'{"matrix": [[1.0]]', "invalid JSON")):
        (tmp_path / "ch.json").write_bytes(doc)
        code = main([argv[0], "--channel", "ch.json", *argv[1:]])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INPUT
        assert captured.err.startswith("error: ch.json: ") and fault in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""
        assert [f.name for f in tmp_path.iterdir()] == ["ch.json"]


@pytest.mark.parametrize(
    "doc, error, attributes",
    [
        ('{"matrix": [[0.5, 0.3], [0.5, 0.5]]}', RowNotStochastic, {"row": 0, "deviation": pytest.approx(0.2)}),
        ('{"matrix": [[1.5, -0.5], [0.5, 0.5]]}', NegativeEntry, {}),
        ('{"matrix": [[NaN, 1.0], [0.5, 0.5]]}', InvalidDistribution, {}),
    ],
    ids=["not-stochastic", "negative", "not-finite"],
)
def test_a_channel_file_that_fails_validation_names_the_file(tmp_path, capsys, monkeypatch, doc, error, attributes):
    # A document that parses but whose matrix is no channel is reported like
    # a parse fault: one line that names the file, and the bad-input code.
    # The error keeps its class and attributes.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ch.json").write_text(doc)
    with pytest.raises(error) as raised:
        _read_channel("ch.json", "json")
    assert str(raised.value).startswith("ch.json: ")
    assert {name: getattr(raised.value, name) for name in attributes} == attributes
    code = main(["capacity", "--channel", "ch.json"])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_INPUT and captured.out == ""
    assert captured.err == f"error: {raised.value}\n"
    unprefixed = str(raised.value).removeprefix("ch.json: ")
    with pytest.raises(error) as direct:
        load_channel(doc.encode())
    assert str(direct.value) == unprefixed


@pytest.mark.parametrize(
    "doc, error, message",
    [
        ('{"matrix": [[]]}', InvalidDistribution,
         "channel matrix must have at least one row and one column, got shape (1, 0)"),
        ('{"matrix": [[1.5, -0.5], [0.5, 0.5]]}', NegativeEntry, "matrix entry (0, 1) is negative: -0.5"),
    ],
    ids=["empty-row", "negative"],
)
def test_a_channel_file_error_gives_plain_values(tmp_path, capsys, monkeypatch, doc, error, message):
    # An empty row used to be reported as "must be 2-dimensional", and a
    # negative entry as np.float64(-0.5).
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ch.json").write_text(doc)
    with pytest.raises(error) as raised:
        load_channel(doc.encode())
    assert str(raised.value) == message
    code = main(["capacity", "--channel", "ch.json"])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_INPUT and captured.err == f"error: ch.json: {message}\n"


class TestGenerate:
    @pytest.mark.parametrize("kind", CANONICAL_KINDS)
    def test_each_kind_loads_back_as_its_constructor(self, tmp_path, capsys, kind):
        build, params, text = CANONICAL_EXAMPLES[kind]
        path = tmp_path / f"{kind}.json"
        code = main(["generate", "--kind", kind, "--param", text, "--out", str(path)])
        capsys.readouterr()
        assert code == EXIT_OK
        assert np.array_equal(load_channel(path.read_bytes()).matrix, build(*params).matrix)

    @pytest.mark.parametrize("kind", CANONICAL_KINDS)
    def test_each_kind_rejects_a_wrong_param_count(self, tmp_path, capsys, kind):
        path = tmp_path / "x.json"
        text = CANONICAL_EXAMPLES[kind][2] + ",1"
        code = main(["generate", "--kind", kind, "--param", text, "--out", str(path)])
        assert code == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: bad parameters")
        assert not path.exists()

    def test_uniform_takes_a_size_pair(self, tmp_path, capsys):
        path = tmp_path / "uniform.json"
        code = main(["generate", "--kind", "uniform", "--param", "2,3", "--out", str(path)])
        capsys.readouterr()
        assert code == EXIT_OK
        ch = load_channel(path.read_bytes())
        assert ch.num_inputs == 2 and ch.num_outputs == 3
        assert np.allclose(ch.matrix, 1.0 / 3.0)

    def test_typewriter_size(self, tmp_path, capsys):
        path = tmp_path / "tw.json"
        code = main(["generate", "--kind", "typewriter", "--param", "4", "--out", str(path)])
        capsys.readouterr()
        assert code == EXIT_OK
        assert load_channel(path.read_bytes()).num_inputs == 4

    @pytest.mark.parametrize("kind", ["mystery", "BSC", "z_channel"])
    def test_an_unknown_kind_is_a_usage_error(self, tmp_path, capsys, kind):
        # --kind takes only the canonical kinds, spelled exactly, so no
        # unknown kind reaches the dispatch.
        path = tmp_path / "x.json"
        code = main(["generate", "--kind", kind, "--param", "1", "--out", str(path)])
        assert code == EXIT_BAD_INPUT
        assert f"invalid choice: '{kind}'" in capsys.readouterr().err
        assert not path.exists()

    def test_unparseable_param(self, tmp_path, capsys):
        code = main(["generate", "--kind", "bsc", "--param", "abc", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error:")

    def test_out_of_range_param(self, tmp_path, capsys):
        code = main(["generate", "--kind", "bsc", "--param", "1.5", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error:")

    def test_uniform_param_must_be_a_pair(self, tmp_path, capsys):
        code = main(["generate", "--kind", "uniform", "--param", "3", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error:")
