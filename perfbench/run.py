"""chancap benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload small-tight --seed 1 --seconds 25 --trace 0

Run it from the root of a chancap checkout; the checkout's src/ is what gets
measured.  Each run uses two fresh child processes, both with BLAS and OpenMP
pinned to one thread and src/ first on PYTHONPATH: prepare.py writes the
seeded channel documents and oracles, and measure.py measures.  Human-readable
lines come first on standard output, and the last line is the JSON object
{"correct", "attempted", "failed", "metrics"}: the metrics BENCHMARK.json
declares as end-to-end with --trace 0, and as per-layer with --trace 1.  The full result,
including the environment, goes to .perfbench_out/results/ and the traced
run's spans to .perfbench_out/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("small-tight", "large-loose", "backward-em", "cli")
PREPARE_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 150


def run_child(argv: list[str], env: dict, timeout: float) -> str:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return out


def summary(workload: str, seed: int, trace: int, result: dict) -> list[str]:
    detail, env = result["detail"], result["environment"]
    attempted, failed = result["attempted"], result["failed"]
    lines = [
        f"perfbench {workload} seed={seed} trace={trace}: {detail['passes']} pass(es) of "
        f"{detail['operations_per_pass']} operations"
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    lines.append(
        f"  {'failed_frac':42s} {failed / attempted if attempted else 1.0:.6g}"
        f" ({failed} failed of {attempted} attempted operations)"
    )
    if detail.get("off_path"):
        lines.append(f"  not applicable, layer not on this workload's path (reported as 0): {', '.join(detail['off_path'])}")
    lines.append("  waiting time: not applicable (single-threaded, no queues)")
    llc = env.get("llc_bytes")
    lines.append(
        f"  env: nproc={env['nproc']} llc={llc / 2**20 if llc else 'unknown'} MiB"
        f" numpy={env['numpy']} blas={env['blas']} threads={env['threads']}"
    )
    lines.extend(f"  FAILED {e}" for e in result["errors"])
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "chancap" / "__init__.py").is_file():
        print("perfbench: no src/chancap here; run from the root of a chancap checkout", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    for sub in ("results", "spans"):
        (out_dir / sub).mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    try:
        run_child(
            [sys.executable, str(HERE / "prepare.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--workdir", str(work)],
            env,
            PREPARE_TIMEOUT_S,
        )
        out = run_child(
            [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(work),
             "--root", str(root), "--spans", str(out_dir / "spans" / f"{tag}.npz")],
            env,
            MEASURE_TIMEOUT_S,
        )
        result = json.loads(out)
    except (subprocess.SubprocessError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result.update(workload=args.workload, seed=args.seed, trace=args.trace, seconds=args.seconds)
    (out_dir / "results" / f"{tag}.json").write_text(json.dumps(result, indent=1))
    print("\n".join(summary(args.workload, args.seed, args.trace, result)))
    # The JSON line carries exactly the metrics BENCHMARK.json declares.
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        print(f"perfbench: no value for declared metric(s) {missing}", file=sys.stderr)
        return 1
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
