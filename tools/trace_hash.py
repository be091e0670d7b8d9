"""Hash the solvers' arithmetic, so that two checkouts can be compared bit for bit.

    python3 tools/trace_hash.py --seed 1
    python3 tools/trace_hash.py --seed 1 --against HEAD~1

Run it from anywhere; it imports the chancap of its own checkout (src/) and
the channel corpus of perfbench/corpus.py, which it only reads.  It hashes:

* every trace record of solve_arimoto and solve_backward_em on the
  small-tight, large-loose and backward-em corpora at the given seed, each
  case at its benchmark tolerance (slow32 under backward-em at 1e-6, where
  the paper's step size takes seconds rather than minutes).  Both solvers
  try the support-Newton route, which finishes most of these runs in a few
  records; solve_arimoto's records before the last are its plain sweeps;
* solve_backward_em on the backward-em corpus at max_inner=2: at
  step_size=1.0 it takes the fallback route on a few steps, while the
  default's support-Newton route finishes every case at the first step;
* solve_backward_em on a random 4x40 channel at max_inner=2: wider than the
  Newton cap, it takes the paper's step size, and at step_size=1.0 the
  fallback route on about half its steps, while the default's
  support-Newton route finishes it at the first step;
* solve_backward_em at the default step size alone on perfbench's r64 to
  1e-9 and slow32 to 1e-13, each finished at the first step by a
  support-Newton try that re-admits inputs its solves dropped; at
  step_size=1.0 either takes minutes;
* solve_arimoto on r64 and slow32 to 1e-9: 2 records each, where the
  plain sweeps alone take 10,315 and 72,554;
* both solvers on the 6x6 default_rng(103) flat-Dirichlet square to
  1e-9, whose first support-Newton try is refused: solve_arimoto
  finishes at record 10 and solve_backward_em's default at record 5, so
  the refused try's path, and the retry threshold it sets, stay hashed;
* both solvers on the subnormal-start channel, whose first step underflows
  a weight, which each keeps as an exact 0, its state being the
  log-weights; and both solvers on a noiseless 10-symbol channel plus a
  useless input to a gap of 1e-300, stopped at 400 records: both solvers
  close the gap to exactly 0 once the useless weight is below the route's
  1e-12 support floor, where the support-Newton route solves the ten
  noiseless inputs and gives the useless one a weight of exactly 0,
  solve_arimoto at record 13 and solve_backward_em's default at record 6
  (without the route, solve_arimoto's step, which divides the tilted
  weights by their sum, closes the gap at sweep 17 with the useless weight
  at about 1e-17), while at step_size=1.0 solve_backward_em reaches an
  exact 0 at record 324 and rests at a one-ulp gap to the 400th;
* every solve_backward_em run above again at step_size=1.0, the paper's
  iteration;
* direct arimoto_step, approximate_m_step, capacity_bracket and
  exact_backward_m_step calls (default and max_inner=2) on seeded random
  channels, and direct arimoto_step and approximate_m_step calls from the
  subnormal-start channel's start, both of which give the underflowed
  weight as an exact 0;
* a fixed list of chancap.cli.main(argv) calls, run in-process in a
  temporary directory: generate, capacity, verify and compare on channel
  files it writes, and on malformed ones;
* load_channel on JSON documents shorter and longer than 2**20
  characters (the small-tight and large-loose corpora at the given seed,
  and a seeded 300x300 channel plain, with "input_labels" and
  "output_labels" keys, which load_channel reads past and ignores, and
  changed in one place each: a bad entry, a syntax fault, a short last
  row, an "input_labels" that is not a list, a second "matrix") and on
  short malformed ones, and on seeded CSV documents of both sizes, broken
  ones too.  Documents nested past the recursion limit, or holding an
  integer of more than 4300 digits, are left out: load_channel raised a
  bare RecursionError or ValueError on them before it raised ParseError.

A trace record contributes its bounds, divergences, input weights, clamp
flag (always False, since both solvers carry log-weights), step route,
inner residual, inner iteration count and step size, and its count of
rejected candidates and of their inner steps, each when it is not 0 or
None.  A CLI call
contributes its label and exit code, its stdout and stderr with
the temporary directory's path replaced by <tmp>, each warning it raised as
its category and message (not the source path and line the default
warning text carries), and the bytes of every file it wrote.  A document
that loads contributes its label, the matrix's shape and bits, and each
warning as its category and message; one that fails, its label and the
error's type and message.  The script prints the number of hashed
items and the SHA-256 over all of them; equal lines from two checkouts
mean the change left every number and every CLI byte unchanged.  It then
prints the same for seven groups of those items: the solve_arimoto traces,
the solve_backward_em traces at the default step size, the direct calls,
the solve_backward_em traces at step_size=1.0, the CLI calls that exit
with a status other than 1, those that exit with 1 (bad input, which no
solver reaches) and the loads, so a change meant to touch one solver can
show the other's numbers unchanged.  The step_size=1.0 group hashes the same labels and record
fields as the default group, so its line can be compared with a
default-group line of a checkout whose default step size was 1.

--against REV extracts REV's src/ with git archive into a temporary
directory, next to copies of this script and of perfbench/corpus.py, and
hashes it there in a second interpreter, so both sides run the same script
on the same corpus.  It prints both sets of lines, then whether the two
match, for the total and for each group, and exits with status 1 when any
line differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import corpus  # noqa: E402
from chancap import (  # noqa: E402
    Channel,
    Distribution,
    arimoto_step,
    capacity_bracket,
    load_channel,
    solve_arimoto,
    solve_backward_em,
)
from chancap.backward_em import approximate_m_step, exact_backward_m_step  # noqa: E402
from chancap.cli import main as cli_main  # noqa: E402

CORPORA = ("small-tight", "large-loose", "backward-em")
# Inner settings each backward run or direct m-step is repeated with.
INNER_SETTINGS = ({}, {"max_inner": 2})


GROUPS = ("arimoto", "backward", "direct", "step_size=1.0", "cli", "cli-error", "load")

# The files the CLI calls read, written into the temporary directory first.
CLI_FILES = {
    "q.json": b"[0.5, 0.5]",
    "boundary.json": b"[0.5, 0.5, 0.0]",
    "skew.csv": b"0.7,0.2,0.1\n0.1,0.8,0.1\n0.3,0.3,0.4\n",
    "zero-column.json": b'{"matrix": [[0.5, 0.0, 0.5], [0.25, 0.0, 0.75]]}',
    "ragged.json": b'{"matrix": [[0.5, 0.5], [1.0]]}',
    "true.json": b'{"matrix": [[true, 0], [0, 1]]}',
    "string.json": b'{"matrix": [["0.5", 0.5], [0.5, 0.5]]}',
    "no-matrix.json": b'{"rows": [[1.0]]}',
    "empty.csv": b"",
    "latin1.csv": b"0.5,0.5\n0.2,0.8\xe9\n",
}
# Each CLI call: a label and its argv, with {tmp} for the temporary directory.
CLI_CALLS = (
    *((f"generate {kind}", f"generate --kind {kind} --param {param} --out {{tmp}}/{kind}.json")
      for kind, param in (("bsc", "0.1"), ("bec", "0.2"), ("z", "0.3"), ("typewriter", "5"),
                          ("identity", "3"), ("uniform", "3,4"))),
    ("generate with a wrong --param count", "generate --kind uniform --param 3 --out {tmp}/bad.json"),
    ("capacity arimoto bits json", "capacity --channel {tmp}/z.json --trace {tmp}/z-arimoto.csv"),
    ("capacity backward nats json",
     "capacity --channel {tmp}/z.json --algorithm backward-em --units nats --trace {tmp}/z-backward.csv"),
    ("capacity arimoto nats csv",
     "capacity --channel {tmp}/skew.csv --format csv --units nats --trace {tmp}/skew-arimoto.csv"),
    ("capacity backward bits csv",
     "capacity --channel {tmp}/skew.csv --format csv --algorithm backward-em --trace {tmp}/skew-backward.csv"),
    ("capacity at the iteration limit", "capacity --channel {tmp}/skew.csv --format csv --max-iters 3"),
    ("capacity with a dropped column", "capacity --channel {tmp}/zero-column.json"),
    ("verify an input file", "verify --channel {tmp}/bsc.json --input {tmp}/q.json"),
    ("verify a boundary input law", "verify --channel {tmp}/identity.json --input {tmp}/boundary.json"),
    ("verify a fresh solve", "verify --channel {tmp}/z.json"),
    ("verify more than 4 inputs", "verify --channel {tmp}/typewriter.json"),
    ("compare", "compare --channel {tmp}/skew.csv --format csv --trace-prefix {tmp}/compare"),
    *((f"capacity on {name}", f"capacity --channel {{tmp}}/{name} --format {name.rsplit('.', 1)[1]}")
      for name in ("ragged.json", "true.json", "string.json", "no-matrix.json", "empty.csv", "latin1.csv")),
    ("capacity on a missing file", "capacity --channel {tmp}/missing.json"),
)


def encode(v) -> bytes:
    """One float, int, str, bytes, bool, None or float array, tagged by kind."""
    if v is None:
        return b"N"
    if isinstance(v, (bool, np.bool_)):
        return b"T" if v else b"F"
    if isinstance(v, str):
        return b"S" + v.encode() + b"\0"
    if isinstance(v, bytes):
        return b"B" + struct.pack("<q", len(v)) + v
    if isinstance(v, np.ndarray):
        return b"A" + struct.pack("<q", v.size) + np.ascontiguousarray(v, dtype="<f8").tobytes()
    if isinstance(v, (int, np.integer)):
        return b"I" + struct.pack("<q", int(v))
    return b"D" + struct.pack("<d", float(v))


class Hasher:
    """A SHA-256 and an item count over everything, and one of each per group."""

    def __init__(self) -> None:
        self.sha = {name: hashlib.sha256() for name in ("total", *GROUPS)}
        self.items = dict.fromkeys(self.sha, 0)

    def item(self, group: str, *values) -> None:
        data = b"".join(encode(v) for v in values)
        for name in ("total", group):
            self.sha[name].update(data)
            self.items[name] += 1

    def trace(self, group: str, label: str, run) -> None:
        result, trace = run
        self.item(group, label, result.capacity, result.bracket.lower, result.bracket.upper, result.iterations)
        for rec in trace:
            self.item(
                group,
                rec.lower_bound,
                rec.upper_bound,
                rec.per_input_divergence,
                rec.input_distribution.weights,
                rec.clamped,
                rec.step_status,
                rec.inner_residual,
                rec.inner_iterations,
                rec.step_size,
                # Only when nonzero: a run that rejects no candidate hashes
                # as it did before the trace had these columns, so a
                # checkout without them can be compared.
                *filter(None, [getattr(rec, "rejected_candidates", None)]),
                *filter(None, [getattr(rec, "rejected_inner_iterations", None)]),
            )


def solver_runs(h: Hasher, seed: int) -> None:
    for workload in CORPORA:
        _, tol, build = corpus.WORKLOADS[workload]
        for case in build(seed):
            ch = Channel(case.matrix)
            case_tol = case.tol or tol
            h.trace("arimoto", f"{workload}/{case.name}/arimoto", solve_arimoto(ch, tol=case_tol))
            backward_tol = max(case_tol, 1e-6) if case.name == "slow32" else case_tol
            backward_runs(h, f"{workload}/{case.name}/backward", ch, tol=backward_tol)
            if workload == "backward-em":
                for settings in INNER_SETTINGS[1:]:
                    backward_runs(h, f"{workload}/{case.name}/{settings}", ch, tol=tol, **settings)


def backward_runs(h: Hasher, label: str, ch: Channel, **settings) -> None:
    """solve_backward_em at the default step size, then at step_size=1.0."""
    h.trace("backward", label, solve_backward_em(ch, **settings))
    h.trace("step_size=1.0", label, solve_backward_em(ch, step_size=1.0, **settings))


def long_runs(h: Hasher) -> None:
    # The backward solver at the default step size alone: the paper's takes
    # minutes on either.
    r64, slow32 = Channel(corpus.pinned_r64()), Channel(corpus.pinned_squares()["r32"])
    h.trace("backward", "r64/1e-9/backward", solve_backward_em(r64, tol=1e-9))
    h.trace("backward", "slow32/1e-13/backward", solve_backward_em(slow32, tol=1e-13))
    h.trace("arimoto", "r64/1e-9/arimoto", solve_arimoto(r64, tol=1e-9))
    h.trace("arimoto", "slow32/1e-9/arimoto", solve_arimoto(slow32, tol=1e-9))
    # A first try that is refused: the route finishes at a later one.
    refused = Channel(np.random.default_rng(103).dirichlet(np.ones(6), size=6))
    h.trace("arimoto", "refused-square/1e-9/arimoto", solve_arimoto(refused, tol=1e-9))
    h.trace("backward", "refused-square/1e-9/backward", solve_backward_em(refused, tol=1e-9))


def wide_runs(h: Hasher, seed: int) -> None:
    # More than 32 outputs: the default keeps the paper's step, whose inner
    # solve max_inner=2 starves on many steps.
    ch = Channel(np.random.default_rng(seed).dirichlet(np.ones(40), size=4))
    backward_runs(h, "wide/{'max_inner': 2}", ch, max_inner=2)


def subnormal_start() -> tuple[Channel, Distribution]:
    """A channel and a start whose last input is at the smallest subnormal;
    its first step underflows that weight to an exact zero."""
    ch = Channel(np.vstack([np.eye(4), np.full(4, 0.25)]))
    return ch, Distribution(np.array([0.4, 0.3, 0.2, 0.1, 5e-324]))


def underflow_runs(h: Hasher) -> None:
    # Both solvers keep the underflowed weight as an exact zero.
    ch, start = subnormal_start()
    h.trace("arimoto", "subnormal-start/arimoto", solve_arimoto(ch, initial=start))
    backward_runs(h, "subnormal-start/backward", ch, initial=start)
    # The useless input's weight shrinks every step: the backward solver's
    # until it is an exact zero, while solve_arimoto converges first.
    useless = Channel(np.vstack([np.eye(10), np.full(10, 0.1)]))
    h.trace("arimoto", "useless-input/arimoto", solve_arimoto(useless, tol=1e-300, max_iters=400))
    backward_runs(h, "useless-input/backward", useless, tol=1e-300, max_iters=400)


def direct_steps(h: Hasher, seed: int, channels: int = 20) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(channels):
        n, m = (int(v) for v in rng.integers(2, 9, size=2))
        ch = Channel(rng.dirichlet(np.ones(m), size=n))
        q = Distribution(rng.dirichlet(np.ones(n)))
        h.item("direct", "arimoto_step", arimoto_step(q, ch).weights)
        h.item("direct", "approximate_m_step", approximate_m_step(q, ch).weights)
        h.item("direct", "capacity_bracket", *capacity_bracket(q, ch))
        for settings in INNER_SETTINGS:
            outcome = exact_backward_m_step(q, ch, **settings)
            member = outcome.solution
            h.item("direct", str(settings), outcome.status.value, outcome.residual, outcome.inner_iterations)
            if member is not None:
                h.item("direct", member.output_factor.weights, member.induced_input.weights, member.log_normalizer)
    ch, start = subnormal_start()
    h.item("direct", "subnormal-start/arimoto_step", arimoto_step(start, ch).weights)
    h.item("direct", "subnormal-start/approximate_m_step", approximate_m_step(start, ch).weights)


def cli_runs(h: Hasher) -> None:
    """Each of CLI_CALLS through chancap.cli.main, in order, in one temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in CLI_FILES.items():
            Path(tmp, name).write_bytes(data)
        for label, argv in CLI_CALLS:
            before = {path.name: path.read_bytes() for path in Path(tmp).iterdir()}
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = cli_main([part.format(tmp=tmp) for part in argv.split()])
            group = "cli-error" if code == 1 else "cli"
            h.item(group, label, code, out.getvalue().replace(tmp, "<tmp>"), err.getvalue().replace(tmp, "<tmp>"))
            for warning in caught:
                h.item(group, warning.category.__name__, str(warning.message))
            for path in sorted(Path(tmp).iterdir()):
                if before.get(path.name) != path.read_bytes():
                    h.item(group, path.name, path.read_bytes())


def load_documents(seed: int) -> list[tuple[str, bytes, str]]:
    """(label, document, format) for each load_channel call of load_runs."""
    docs = [
        (f"{workload}/{case.name}", corpus.json_document(case.matrix), "json")
        for workload in ("small-tight", "large-loose")
        for case in corpus.WORKLOADS[workload][2](seed)
    ]
    rng = np.random.default_rng(seed)
    small, big = rng.dirichlet(np.ones(7), size=5), rng.dirichlet(np.ones(300), size=300)
    # About 1.8 MB as JSON and as CSV.
    text, csv_text = corpus.json_document(big), corpus.csv_document(big)
    labels = {"input_labels": [f"x{i}" for i in range(300)], "output_labels": [f"y{j}" for j in range(300)]}
    docs.append(("labelled", json.dumps({**labels, "matrix": big.tolist()}, indent=1).encode(), "json"))
    # The first entry, and the last row's last entry with what follows it.
    first = slice(text.index(b"[[") + 2, text.index(b",", text.index(b"[[")))
    last = text.rindex(b",")
    for name, broken in {
        "true": b"true", "string": b'"0.5"', "not-stochastic": b"5", "nan": b"NaN", "null": b"null",
    }.items():
        docs.append((f"entry {name}", text[:first.start] + broken + text[first.stop:], "json"))
    for name, doc in {
        "truncated": text[:-10],
        "trailing comma": text[:-2] + b",]}",
        "ragged": text[:last] + b"]]}",
        "trailing data": text + b" x",
        "labels not a list": text[:-1] + b', "input_labels": 5}',
        "second matrix": text[:-1] + b', "matrix": [[1.0]]}',
    }.items():
        docs.append((name, doc, "json"))
    for name, doc in {
        "empty matrix": b'{"matrix": []}',
        "bom": b"\xef\xbb\xbf" + corpus.json_document(small),
        "array": b"[[1.0]]",
        **{f"cli {name}": data for name, data in CLI_FILES.items() if name.endswith(".json")},
    }.items():
        docs.append((name, doc, "json"))
    docs += [
        ("csv small", corpus.csv_document(small), "csv"),
        ("csv 300x300", csv_text, "csv"),
        ("csv crlf", csv_text.replace(b"\n", b"\r\n"), "csv"),
        ("csv bad number", csv_text[:-3] + b"x\n", "csv"),
        ("csv ragged", csv_text[:csv_text.rindex(b",")] + b"\n", "csv"),
        *((f"cli {name}", data, "csv") for name, data in CLI_FILES.items() if name.endswith(".csv")),
    ]
    return docs


def load_runs(h: Hasher, seed: int) -> None:
    for label, doc, fmt in load_documents(seed):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                ch = load_channel(doc, fmt)
            except ValueError as exc:
                h.item("load", label, type(exc).__name__, str(exc))
                continue
        h.item("load", label, *ch.matrix.shape, ch.matrix)
        for warning in caught:
            h.item("load", warning.category.__name__, str(warning.message))


def hash_lines(seed: int) -> list[str]:
    """The total line and one line per group."""
    h = Hasher()
    solver_runs(h, seed)
    long_runs(h)
    wide_runs(h, seed)
    underflow_runs(h)
    direct_steps(h, seed)
    cli_runs(h)
    load_runs(h, seed)
    lines = [f"seed {seed}: {h.items['total']} items, sha256 {h.sha['total'].hexdigest()}"]
    return lines + [f"  {name}: {h.items[name]} items, sha256 {h.sha[name].hexdigest()}" for name in GROUPS]


def against(seed: int, rev: str) -> int:
    """Print this checkout's lines and REV's, then whether each pair matches."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], check=True, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        for part in ("tools/trace_hash.py", "perfbench/corpus.py"):
            (Path(tmp) / part).parent.mkdir()
            shutil.copy(ROOT / part, Path(tmp) / part)
        command = [sys.executable, str(Path(tmp) / "tools" / "trace_hash.py"), "--seed", str(seed)]
        theirs = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()
    ours = hash_lines(seed)
    print("this checkout:", *ours, f"{rev}:", *theirs, sep="\n")
    print("match:")
    for mine, other in zip(ours, theirs):
        print(f"  {mine.split(':')[0].strip()}: {'yes' if mine == other else 'NO'}")
    return 0 if ours == theirs else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="corpus and random-channel seed")
    parser.add_argument("--against", metavar="REV", help="also hash REV's src/ and compare the two")
    args = parser.parse_args()
    if args.against:
        return against(args.seed, args.against)
    print(*hash_lines(args.seed), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
