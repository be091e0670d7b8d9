"""Writes one workload's channel documents and oracles for measure.py.

Runs in its own process, before the measuring process starts, so that
generating the documents and running the bare baseline loop set neither the
measured peak memory nor any import state.  Every case also gets a baseline
bracket; a closed form that falls outside it means the benchmark is wrong, and
preparation stops.

    python3 perfbench/prepare.py --workload NAME --seed N --workdir DIR
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

import corpus
from baseline import bare_arimoto

SLACK = 1e-10  # nats of rounding allowed between two certified brackets


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    solver, tol, build = corpus.WORKLOADS[args.workload]
    cases = []
    baseline_seconds = 0.0
    baseline_sweeps = 0
    for case in build(args.seed):
        fmt = "csv" if case.name.endswith("_csv") else "json"
        doc = corpus.csv_document(case.matrix) if fmt == "csv" else corpus.json_document(case.matrix)
        path = args.workdir / f"{case.name}.{fmt}"
        path.write_bytes(doc)
        np.save(args.workdir / f"{case.name}.npy", case.matrix)
        case_tol = case.tol or tol
        base = bare_arimoto(case.matrix, case_tol)
        if not base["converged"]:
            raise SystemExit(f"baseline did not converge on {case.name}")
        if case.capacity is not None and not (
            base["lower"] - SLACK <= case.capacity <= base["upper"] + SLACK
        ):
            raise SystemExit(f"closed form for {case.name} is outside the baseline bracket")
        baseline_seconds += base["seconds"]
        baseline_sweeps += base["sweeps"]
        cases.append(
            {
                "name": case.name,
                "path": str(path),
                "matrix": str(args.workdir / f"{case.name}.npy"),
                "format": fmt,
                "tol": case_tol,
                "shape": list(case.matrix.shape),
                "capacity": case.capacity,
                "baseline": [base["lower"], base["upper"]],
                "why": case.why,
            }
        )
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "solver": solver,
        "tol": tol,
        "cases": cases,
        "baseline_sweep_us": 1e6 * baseline_seconds / baseline_sweeps,
    }
    if args.workload == "cli":
        # The law verify checks on the 4-input typewriter: uniform is optimal.
        (args.workdir / "tw4_input.json").write_text(json.dumps([0.25] * 4))
        manifest["z_capacity"] = corpus.z_capacity(0.5)
        manifest["tw4_capacity"] = corpus.typewriter_capacity(4)
    (args.workdir / "manifest.json").write_text(json.dumps(manifest, indent=1))


if __name__ == "__main__":
    main()
