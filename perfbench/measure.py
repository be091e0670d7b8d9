"""Measures one workload in a fresh process and writes the result as JSON.

Warm-up, repeated set-up, then timed passes over every operation of the
workload until --seconds is spent.  An operation is one solve to the
workload's gap or one CLI command; each is checked against the oracles in the
manifest that prepare.py wrote, and a failure is counted, never raised.

With --trace 1 it times one untraced pass, installs the tracer, and repeats
set-up once and one pass traced.  The CLI workload then runs chancap.cli.main
in-process for both passes, so that the two are comparable.

run.py starts this with BLAS and OpenMP pinned to one thread and the
checkout's src/ first on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import chancap
import chancap.cli
from baseline import bare_arimoto
from tracer import Tracer

LN2 = float(np.log(2.0))
SLACK = 1e-10  # nats of rounding allowed when a bracket meets an oracle
TRACE_HEADER = "iter,mutual_info,lower,upper,gap,status,inner_residual"
WARM_DOC = b'{"matrix": [[0.9, 0.1], [0.2, 0.8]]}'
COMMAND_TIMEOUT_S = 60
MIN_SETUP_REPS = 5
SETUP_BUDGET_S = 1.0


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {error}")


def describe(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def bracket_error(lower: float, upper: float, case: dict) -> str | None:
    """None when [lower, upper] (nats) is ordered and agrees with the oracle."""
    if not lower <= upper:
        return f"bracket unordered: {lower!r} > {upper!r}"
    if case["capacity"] is not None:
        c = case["capacity"]
        if not lower - SLACK <= c <= upper + SLACK:
            return f"bracket [{lower!r}, {upper!r}] misses the closed form {c!r}"
        return None
    lo, hi = case["baseline"]
    if max(lower, lo) > min(upper, hi) + SLACK:
        return f"bracket [{lower!r}, {upper!r}] misses the baseline bracket [{lo!r}, {hi!r}]"
    return None


def trace_error(path: Path, rows: int) -> str | None:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        return f"{path.name} header is {lines[:1]!r}"
    if len(lines) - 1 != rows:
        return f"{path.name} has {len(lines) - 1} rows for {rows} iterations"
    return None


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------

class Library:
    """small-tight, large-loose and backward-em: solves through the public API."""

    def __init__(self, manifest: dict) -> None:
        self.cases = manifest["cases"]
        self.solver = manifest["solver"]
        self.docs = {c["name"]: Path(c["path"]).read_bytes() for c in self.cases}
        # The bare loop's own copy of each matrix, written by prepare.py.
        self.matrices = {c["name"]: np.load(c["matrix"]) for c in self.cases}
        self.channels: dict[str, chancap.Channel] = {}
        self.solve_s = 0.0  # seconds inside solve calls, for arimoto.sweep_us

    def solve(self, ch, tol: float):
        # Looked up on each call so that the tracer's wrappers are used.
        if self.solver == "arimoto":
            return chancap.solve_arimoto(ch, tol=tol)
        return chancap.solve_backward_em(ch, tol=tol)

    def warm_up(self) -> None:
        ch = chancap.load_channel(WARM_DOC)
        chancap.solve_arimoto(ch)
        chancap.solve_backward_em(ch)

    def setup(self, tally: Tally) -> float:
        """Load every document once; seconds spent in load_channel."""
        total = 0.0
        for case in list(self.cases):
            start = time.perf_counter()
            try:
                ch = chancap.load_channel(self.docs[case["name"]], case["format"])
            except Exception as exc:  # a case that cannot load is one failed operation
                tally.record(f"load {case['name']}", describe(exc))
                self.cases.remove(case)
                continue
            total += time.perf_counter() - start
            self.channels[case["name"]] = ch
        return total

    def run_pass(self, tally: Tally, in_process: bool = True, reference: bool = False) -> list[tuple]:
        """(wall, cpu, reference wall) seconds of every operation, in order.

        With reference, each solve is followed by the bare loop on the same
        channel and gap; otherwise the reference time is 0.
        """
        times = []
        for case in self.cases:
            ch = self.channels[case["name"]]
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result, error = self.solve(ch, case["tol"])[0], None
            except Exception as exc:  # includes IterationTrace.validate()'s AssertionError
                result, error = None, describe(exc)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            self.solve_s += wall
            bare = bare_arimoto(self.matrices[case["name"]], case["tol"])["seconds"] if reference else 0.0
            times.append((wall, cpu, bare))
            if result is not None:
                if result.termination is not chancap.Termination.CONVERGED:
                    error = f"did not converge in {result.iterations} iterations"
                else:
                    error = bracket_error(*result.bracket, case)
            tally.record(case["name"], error)
        return times

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def operations(self) -> int:
        return len(self.cases)


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

class Cli:
    """The command script, run as `python -m chancap.cli` subprocesses."""

    def __init__(self, manifest: dict, workdir: Path, root: Path) -> None:
        self.root = root
        self.dir = workdir
        cases = {c["name"]: c for c in manifest["cases"]}
        d = workdir
        z, tw4 = d / "z.json", d / "tw4.json"
        r64, small, bsc_csv = (cases[n]["path"] for n in ("r64", "small", "bsc_csv"))
        self.r64_result = d / "r64_capacity.json"
        r64_trace, bem_trace, compare = d / "r64_trace.csv", d / "bem_trace.csv", d / "compare"
        self.traces = [r64_trace, bem_trace, d / "compare_arimoto.csv", d / "compare_backward_em.csv"]
        self.outputs = [z, tw4, self.r64_result, *self.traces]
        z_case = {"capacity": manifest["z_capacity"]}
        tw4_case = {"capacity": manifest["tw4_capacity"]}

        def created(path):
            return lambda out: None if path.is_file() else f"{path.name} was not written"

        self.script = [
            ("generate z", ["generate", "--kind", "z", "--param", "0.5", "--out", str(z)], created(z)),
            (
                "generate typewriter",
                ["generate", "--kind", "typewriter", "--param", "4", "--out", str(tw4)],
                created(tw4),
            ),
            ("capacity z", ["capacity", "--channel", str(z)], lambda out: self.capacity_error(out, z_case)),
            (
                "capacity typewriter",
                ["capacity", "--channel", str(tw4)],
                lambda out: self.capacity_error(out, tw4_case),
            ),
            (
                "capacity csv",
                ["capacity", "--channel", bsc_csv, "--format", "csv"],
                lambda out: self.capacity_error(out, cases["bsc_csv"]),
            ),
            (
                "capacity --trace r64",
                ["capacity", "--channel", r64, "--trace", str(r64_trace)],
                lambda out: self.capacity_error(out, cases["r64"], trace=r64_trace, keep=self.r64_result),
            ),
            (
                "capacity backward-em --trace",
                ["capacity", "--channel", small, "--algorithm", "backward-em", "--units", "nats",
                 "--trace", str(bem_trace)],
                lambda out: self.capacity_error(out, cases["small"], units="nats", trace=bem_trace),
            ),
            (
                "verify typewriter (brute force)",
                ["verify", "--channel", str(tw4), "--input", str(d / "tw4_input.json")],
                self.verify_error,
            ),
            (
                "verify r64",
                ["verify", "--channel", r64, "--input", str(self.r64_result)],
                self.verify_error,
            ),
            (
                "compare",
                ["compare", "--channel", small, "--trace-prefix", str(compare)],
                lambda out: self.compare_error(out, cases["small"], compare),
            ),
        ]
        self.trace_bytes = 0

    @staticmethod
    def capacity_error(out, case, units="bits", trace=None, keep=None):
        doc = json.loads(out)
        if doc["termination"] != "converged":
            return f"termination {doc['termination']!r}"
        scale = LN2 if units == "bits" else 1.0
        error = bracket_error(doc["lower"] * scale, doc["upper"] * scale, case)
        if error is None and trace is not None:
            error = trace_error(trace, doc["iterations"])
        if keep is not None:
            keep.write_text(out, encoding="utf-8")
        return error

    @staticmethod
    def verify_error(out):
        return None if "verdict: PASS" in out.splitlines() else "verify did not print 'verdict: PASS'"

    @staticmethod
    def compare_error(out, case, prefix):
        doc = json.loads(out)
        for key in ("capacity_a", "capacity_b"):
            c = doc[key] * LN2
            # a midpoint of a bracket of width at most the 1e-9 tolerance
            error = bracket_error(c - 1e-9, c + 1e-9, case)
            if error is not None:
                return f"{key}: {error}"
        return trace_error(Path(f"{prefix}_arimoto.csv"), doc["iters_a"]) or trace_error(
            Path(f"{prefix}_backward_em.csv"), doc["iters_b"]
        )

    def python(self, args: list[str], check: bool = False) -> tuple[int, str]:
        """Run a fresh interpreter in the checkout; (exit code, stdout).

        The timeout is a watchdog thread, not communicate(timeout=...), whose
        polling wait rounds a short child's lifetime up in steps of 50 ms.
        """
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=self.root,
        )
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out, _ = proc.communicate()
        finally:
            watchdog.cancel()
        if check and proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, args)
        return proc.returncode, out

    def subprocess_command(self, argv):
        return self.python(["-m", "chancap.cli", *argv])

    @staticmethod
    def in_process_command(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = chancap.cli.main(argv)
            except SystemExit as exc:  # argparse rejects a command line this way
                code = exc.code
        return code, out.getvalue()

    @staticmethod
    def children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def warm_up(self) -> None:
        ch = chancap.load_channel(WARM_DOC)
        chancap.solve_arimoto(ch)
        warm = self.dir / "warm.json"
        self.subprocess_command(["generate", "--kind", "bsc", "--param", "0.1", "--out", str(warm)])
        self.subprocess_command(["capacity", "--channel", str(warm)])

    def bare_start(self) -> float:
        start = time.perf_counter()
        self.python(["-c", "import numpy"], check=True)
        return time.perf_counter() - start

    def import_seconds(self) -> float:
        """One fresh interpreter importing chancap.cli."""
        start = time.perf_counter()
        self.python(["-c", "import chancap.cli"], check=True)
        return time.perf_counter() - start

    def setup(self, tally: Tally) -> float:
        try:
            return self.import_seconds()
        except (subprocess.SubprocessError, OSError) as exc:
            tally.record("import chancap.cli", describe(exc))
            return float("nan")

    def run_pass(self, tally: Tally, in_process: bool = False, reference: bool = False) -> list[tuple]:
        """(wall, cpu, reference wall) seconds of every command, in order.

        With reference, each command is followed by a fresh interpreter that
        imports numpy and exits; otherwise the reference time is 0.
        """
        for path in self.outputs:
            path.unlink(missing_ok=True)
        if in_process:
            command, cpu_clock = self.in_process_command, time.process_time
        else:
            command, cpu_clock = self.subprocess_command, self.children_cpu
        times = []
        for label, argv, check in self.script:
            w0, c0 = time.perf_counter(), cpu_clock()
            try:
                code, out = command(argv)
            except Exception as exc:  # a command that cannot run is a failed operation
                code, out, error = None, "", describe(exc)
            times.append((time.perf_counter() - w0, cpu_clock() - c0, self.bare_start() if reference else 0.0))
            if code is not None:
                try:
                    error = f"exit code {code}, expected 0" if code != 0 else check(out)
                except Exception as exc:  # unreadable output is a failed operation
                    error = describe(exc)
            tally.record(label, error)
        self.trace_bytes = sum(p.stat().st_size for p in self.traces if p.is_file())
        return times

    def peak_rss_mib(self) -> float:
        # Largest of the commands this process has run and waited for.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def operations(self) -> int:
        return len(self.script)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def setup_reps(runner, tally: Tally) -> list[float]:
    reps: list[float] = []
    start = time.perf_counter()
    while len(reps) < MIN_SETUP_REPS or (time.perf_counter() - start < SETUP_BUDGET_S and len(reps) < 25):
        reps.append(runner.setup(tally))
    return reps


def timed_passes(runner, tally: Tally, seconds: float, setups: list[float]) -> list[list[tuple]]:
    """Whole passes while the next one is expected to end within seconds.

    One more set-up follows each pass, so that the set-up times sample the
    whole run and not only its first second.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(tally, reference=True))
        setups.append(runner.setup(tally))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def undisturbed(passes: list[list[tuple]], which: int) -> float:
    """Sum over operations of each one's fastest repetition.

    Noise on a shared machine is bimodal: neighbours slow a core by up to
    1.8x in spells from about a second to a whole run.  The median of a
    bimodal sample jumps between the modes; the minimum over repetitions
    of a deterministic computation removes the spells shorter than a run.
    """
    return sum(min(op[which] for op in column) for column in zip(*passes))


def versus_reference(passes: list[list[tuple]]) -> float:
    """Total operation time over total interleaved reference time.

    The reference runs right after each operation, so both totals see the
    same mixture of fast and slowed spells and the ratio cancels it.
    """
    return sum(op[0] for p in passes for op in p) / sum(op[2] for p in passes for op in p)


class Counts:
    """Exact counts read from the objects chancap's solvers return."""

    def __init__(self) -> None:
        self.sweeps = 0
        self.sweeps_to = {1e-6: 0, 1e-9: 0}
        self.records = 0
        self.trace_bytes = 0
        self.clamped = 0
        self.outer = 0
        self.m_steps = 0
        self.inner = 0
        self.exact = 0

    def _trace(self, trace) -> None:
        records = trace.records
        self.records += len(records)
        self.trace_bytes += sum(
            r.per_input_divergence.nbytes + r.input_distribution.weights.nbytes for r in records
        )
        self.clamped += sum(1 for r in records if r.clamped)

    def arimoto(self, out) -> None:
        result, trace = out
        self._trace(trace)
        self.sweeps += result.iterations
        for gap in self.sweeps_to:
            first = next((r.iteration for r in trace.records if r.gap <= gap), 0)
            self.sweeps_to[gap] += first

    def backward_em(self, out) -> None:
        result, trace = out
        self._trace(trace)
        self.outer += result.iterations

    def m_step(self, outcome) -> None:
        self.m_steps += 1
        self.inner += outcome.inner_iterations
        self.exact += outcome.status is chancap.MStepStatus.EXACT_CONVERGED

    def observers(self) -> dict:
        return {
            "arimoto.solve": self.arimoto,
            "backward_em.solve": self.backward_em,
            "backward_em.exact_backward_m_step": self.m_step,
        }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(runner, tally: Tally, manifest: dict, spans_path: Path) -> tuple[dict, list[str]]:
    if isinstance(runner, Library):
        runner.setup(tally)
    untraced_wall = sum(op[0] for op in runner.run_pass(tally, in_process=True))
    untraced_solve_s = getattr(runner, "solve_s", 0.0)
    import_s = statistics.median(runner.import_seconds() for _ in range(3)) if isinstance(runner, Cli) else 0.0
    counts = Counts()
    tracer = Tracer()
    tracer.install(counts.observers())
    try:
        if isinstance(runner, Library):
            runner.setup(tally)
        traced_wall = sum(op[0] for op in runner.run_pass(tally, in_process=True))
    finally:
        tracer.uninstall()
    tracer.dump(spans_path)
    stats = tracer.stats()

    def span(name: str, key: str) -> float:
        return stats[name][key]

    arimoto_sweep_us = (
        1e6 * ratio(untraced_solve_s, counts.sweeps) if manifest["solver"] == "arimoto" else 0.0
    )
    metrics = {
        "channel.load_channel.calls": (span("channel.load_channel", "calls"), "count"),
        "channel.load_channel.s": (span("channel.load_channel", "s"), "s"),
        "channel.output_marginal.calls": (span("channel.output_marginal", "calls"), "count"),
        "channel.output_marginal.self_s": (span("channel.output_marginal", "self_s"), "s"),
        "channel.per_input_divergences.calls": (span("channel.per_input_divergences", "calls"), "count"),
        "channel.per_input_divergences.self_s": (span("channel.per_input_divergences", "self_s"), "s"),
        "numeric.ordered_sum_along.self_s": (span("numeric.ordered_sum_along", "self_s"), "s"),
        "numeric.ordered_sum.calls": (span("numeric.ordered_sum", "calls"), "count"),
        "numeric.ordered_sum.self_s": (span("numeric.ordered_sum", "self_s"), "s"),
        "numeric.logsumexp.self_s": (span("numeric.logsumexp", "self_s"), "s"),
        "probability.Distribution.constructions": (span("probability.Distribution", "calls"), "count"),
        "probability.Distribution.self_s": (span("probability.Distribution", "self_s"), "s"),
        "arimoto.sweeps": (counts.sweeps, "count"),
        "arimoto.sweeps_to_1e-6": (counts.sweeps_to[1e-6], "count"),
        "arimoto.sweeps_to_1e-9": (counts.sweeps_to[1e-9], "count"),
        "arimoto.sweep_us": (arimoto_sweep_us, "us"),
        "arimoto.solve.self_s": (span("arimoto.solve", "self_s"), "s"),
        "arimoto.trace_records": (counts.records, "count"),
        "arimoto.trace_bytes": (counts.trace_bytes, "B"),
        "arimoto.clamped_records": (counts.clamped, "count"),
        "backward_em.outer_iterations": (counts.outer, "count"),
        "backward_em.inner_sweeps": (counts.inner, "count"),
        "backward_em.inner_per_outer": (ratio(counts.inner, counts.m_steps), "ratio"),
        "backward_em.exact_ratio": (ratio(counts.exact, counts.m_steps), "ratio"),
        "backward_em.approximate_m_step.calls": (span("backward_em.approximate_m_step", "calls"), "count"),
        "backward_em.exact_backward_m_step.self_s": (span("backward_em.exact_backward_m_step", "self_s"), "s"),
        "backward_em.backward_e_member.calls": (span("backward_em.backward_e_member", "calls"), "count"),
        "backward_em.backward_e_member.self_s": (span("backward_em.backward_e_member", "self_s"), "s"),
        "verify.brute_force_capacity.s": (span("verify.brute_force_capacity", "s"), "s"),
        "verify.circumcenter_check.s": (span("verify.circumcenter_check", "s"), "s"),
        "verify.converse_check.s": (span("verify.converse_check", "s"), "s"),
        "cli.import_s": (import_s, "s"),
        "cli.write_trace.s": (span("cli.write_trace", "s"), "s"),
        "cli.trace_bytes": (getattr(runner, "trace_bytes", 0), "B"),
        "cli.commands": (runner.operations() if isinstance(runner, Cli) else 0, "count"),
        "baseline.sweep_us": (manifest["baseline_sweep_us"], "us"),
        "arimoto.sweep_vs_baseline": (ratio(arimoto_sweep_us, manifest["baseline_sweep_us"]), "ratio"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
    # A layer is off this workload's path when none of its spans ran and all
    # of its metrics are zero; its zeros are then not measurements.
    ran = {name.split(".")[0] for name, st in stats.items() if st["calls"]}
    ran |= {name.split(".")[0] for name, (value, _) in metrics.items() if value}
    off_path = [name for name in metrics if name.split(".")[0] not in ran]
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, off_path


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        # glibc answers this from cpuid on x86
        getconf = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10)
        env["llc_bytes"] = int(getconf.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        env["llc_bytes"] = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        env["blas"] = None
    return env


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    manifest = json.loads((args.workdir / "manifest.json").read_text())
    runner = Cli(manifest, args.workdir, args.root) if args.workload == "cli" else Library(manifest)
    tally = Tally()
    runner.warm_up()
    detail: dict = {"operations_per_pass": runner.operations()}
    if args.trace:
        metrics, detail["off_path"] = traced_run(runner, tally, manifest, args.spans)
        detail["passes"] = 2
    else:
        setups = setup_reps(runner, tally)
        passes = timed_passes(runner, tally, args.seconds, setups)
        metrics = {
            "wall_vs_bare": {"value": versus_reference(passes), "unit": "ratio"},
            "wall_s": {"value": undisturbed(passes, 0), "unit": "s"},
            "cpu_s": {"value": undisturbed(passes, 1), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": runner.peak_rss_mib(), "unit": "MiB"},
        }
        detail.update(
            passes=len(passes),
            pass_wall_s=[sum(op[0] for op in p) for p in passes],
            op_wall_s=[[op[0] for op in p] for p in passes],
            op_reference_s=[[op[2] for op in p] for p in passes],
            setup_reps_s=setups,
        )
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": metrics,
        "detail": detail,
        "environment": environment(),
        "cases": [{k: c[k] for k in ("name", "shape", "why")} for c in manifest["cases"]],
    }
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
