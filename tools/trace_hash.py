"""Hash the solvers' arithmetic, so that two checkouts can be compared bit for bit.

    python3 tools/trace_hash.py --seed 1

Run it from anywhere; it imports the chancap of its own checkout (src/) and
the channel corpus of perfbench/corpus.py, which it only reads.  It hashes:

* every trace record of solve_arimoto and solve_backward_em on the
  small-tight, large-loose and backward-em corpora at the given seed, each
  case at its benchmark tolerance (slow32 under backward-em at 1e-6, where
  the paper's step size takes seconds rather than minutes);
* solve_backward_em on the backward-em corpus at max_inner=2, which takes
  the fallback route on a few steps;
* both solvers on a channel whose first step underflows and is clamped;
* every solve_backward_em run above again at step_size=1.0, the paper's
  iteration;
* direct arimoto_step, approximate_m_step, capacity_bracket and
  exact_backward_m_step calls (default and max_inner=2) on seeded random
  channels.

A trace record contributes its bounds, divergences, input weights, clamp
flag, step route, inner residual and inner iteration count.  The script
prints the number of hashed items and the SHA-256 over all of them; equal
lines from two checkouts mean the change left every number unchanged.  It
then prints the same for four groups of those items: the solve_arimoto
traces, the solve_backward_em traces at the default step size, the direct
calls, and the solve_backward_em traces at step_size=1.0, so a change
meant to touch one solver can show the other's numbers unchanged.  The
step_size=1.0 group hashes the same labels and record fields as the
default group, so its line can be compared with a default-group line of a
checkout whose default step size was 1.
"""

from __future__ import annotations

import argparse
import hashlib
import struct
import sys
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
    solve_arimoto,
    solve_backward_em,
)
from chancap.backward_em import approximate_m_step, exact_backward_m_step  # noqa: E402

CORPORA = ("small-tight", "large-loose", "backward-em")
# Inner settings each backward run or direct m-step is repeated with.
INNER_SETTINGS = ({}, {"max_inner": 2})


GROUPS = ("arimoto", "backward", "direct", "step_size=1.0")


def encode(v) -> bytes:
    """One float, int, str, bool, None or float array, tagged by kind."""
    if v is None:
        return b"N"
    if isinstance(v, (bool, np.bool_)):
        return b"T" if v else b"F"
    if isinstance(v, str):
        return b"S" + v.encode() + b"\0"
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


def clamp_runs(h: Hasher) -> None:
    # The last input starts at the smallest subnormal; its first reweighting
    # underflows to zero and is lifted back.
    ch = Channel(np.vstack([np.eye(4), np.full(4, 0.25)]))
    start = Distribution(np.array([0.4, 0.3, 0.2, 0.1, 5e-324]))
    h.trace("arimoto", "clamp/arimoto", solve_arimoto(ch, initial=start))
    backward_runs(h, "clamp/backward", ch, initial=start)


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="corpus and random-channel seed")
    args = parser.parse_args()
    h = Hasher()
    solver_runs(h, args.seed)
    clamp_runs(h)
    direct_steps(h, args.seed)
    print(f"seed {args.seed}: {h.items['total']} items, sha256 {h.sha['total'].hexdigest()}")
    for name in GROUPS:
        print(f"  {name}: {h.items[name]} items, sha256 {h.sha[name].hexdigest()}")


if __name__ == "__main__":
    main()
