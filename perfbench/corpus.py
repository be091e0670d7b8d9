"""Channel corpus, oracles and workload definitions for the chancap benchmark.

Every workload is a list of cases.  A case is one channel matrix plus its
oracle: a closed-form capacity in nats, or None when the only oracle is the
certified bracket of the bare loop in baseline.py.  The seed changes the
documents chancap receives (parameters and input/output labelling) but not
the difficulty of a case: sweep counts to a gap are what make wall time
move, and for plain random channels they are heavy-tailed (a flat-Dirichlet
4x4 can need more than 100,000 sweeps, past the solver's default iteration
limit).  So the random squares are pinned draws shown under a seeded random
relabelling; Arimoto's update is equivariant under relabelling, so their
sweep counts stay fixed while no document repeats between seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

LN2 = float(np.log(2.0))

# An asymmetric binary channel with no zero entry; its capacity comes from
# the square-channel formula in square_capacity.
ASYMMETRIC_BINARY = np.array([[0.9, 0.1], [0.3, 0.7]])


@dataclass
class Case:
    name: str
    matrix: np.ndarray
    capacity: float | None  # closed-form nats; None: baseline bracket is the oracle
    why: str
    tol: float | None = None  # gap to solve to, when not the workload's


# ---------------------------------------------------------------------------
# closed-form channels and their capacities (nats)
# ---------------------------------------------------------------------------

def bsc(p: float) -> np.ndarray:
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def bec(eps: float) -> np.ndarray:
    return np.array([[1.0 - eps, eps, 0.0], [0.0, eps, 1.0 - eps]])


def z_channel(p: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [p, 1.0 - p]])


def typewriter(n: int) -> np.ndarray:
    m = np.zeros((n, n))
    for x in range(n):
        m[x, x] = 0.5
        m[x, (x + 1) % n] = 0.5
    return m


def symmetric(q: int, eps: float) -> np.ndarray:
    """q-ary symmetric channel: keep the symbol w.p. 1-eps, else any other."""
    m = np.full((q, q), eps / (q - 1))
    np.fill_diagonal(m, 1.0 - eps)
    return m


def _entropy_rows(m: np.ndarray) -> np.ndarray:
    safe = np.where(m > 0.0, m, 1.0)
    return -(m * np.log(safe)).sum(axis=1)


def square_capacity(m: np.ndarray) -> float:
    """Capacity of a nonsingular square channel whose optimum is interior.

    Equal divergences D(row_x || r) = C for every x give P log r = -H - C,
    so log r = -P^{-1} H - C and normalizing r gives C = log sum exp(-P^{-1} H).
    Every binary channel that is not useless has an interior optimum.
    """
    c = -np.linalg.inv(m) @ _entropy_rows(m)
    top = float(np.max(c))
    return top + float(np.log(np.exp(c - top).sum()))


def bsc_capacity(p: float) -> float:
    return LN2 + (1.0 - p) * np.log(1.0 - p) + p * np.log(p)


def bec_capacity(eps: float) -> float:
    return (1.0 - eps) * LN2


def z_capacity(p: float) -> float:
    return float(np.log1p((1.0 - p) * p ** (p / (1.0 - p))))


def typewriter_capacity(n: int) -> float:
    return float(np.log(n / 2.0))


def symmetric_capacity(q: int, eps: float) -> float:
    return float(np.log(q) + (1.0 - eps) * np.log(1.0 - eps) + eps * np.log(eps / (q - 1)))


# ---------------------------------------------------------------------------
# pinned random channels
# ---------------------------------------------------------------------------

def _dirichlet_square(rng: np.random.Generator, n: int) -> np.ndarray:
    # The same draw as random_channel in the test suite's support module.
    return rng.dirichlet(np.full(n, 1.0), size=n)


def pinned_squares() -> dict[str, np.ndarray]:
    """Successive default_rng(1) draws at 4, 8, 16 and 32 inputs.

    To a 1e-9 gap they need 137, 932, 1,042 and 72,554 Arimoto sweeps.  The
    32x32 draw is slow32: only 14 of its inputs are in the optimal support.
    """
    rng = np.random.default_rng(1)
    return {f"r{n}": _dirichlet_square(rng, n) for n in (4, 8, 16, 32)}


def pinned_r64() -> np.ndarray:
    """The first default_rng(5) 64x64 draw: 10,315 sweeps to a 1e-9 gap."""
    return _dirichlet_square(np.random.default_rng(5), 64)


def relabel(m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Permute inputs and outputs; capacity and sweep counts are invariant."""
    return m[rng.permutation(m.shape[0])][:, rng.permutation(m.shape[1])]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def small_tight(seed: int) -> list[Case]:
    """solve_arimoto to 1e-9 (slow32: 1e-7) on arrays of at most 32x32.

    Fixed cost per sweep and the number of sweeps dominate; the kernel
    barely matters.  slow32 is about three quarters of the time.
    """
    rng = np.random.default_rng(seed)
    sq = pinned_squares()
    return [
        Case("bsc", relabel(bsc(0.1), rng), bsc_capacity(0.1), "symmetric: one sweep, pure fixed cost"),
        Case("bec", relabel(bec(0.5), rng), bec_capacity(0.5), "zero entries and a 2x3 shape"),
        Case("z", relabel(z_channel(0.5), rng), z_capacity(0.5), "asymmetric optimum, zero entry"),
        Case("typewriter5", relabel(typewriter(5), rng), typewriter_capacity(5), "weakly symmetric, odd size"),
        Case("r4", relabel(sq["r4"], rng), None, "random 4x4, 137 sweeps"),
        Case("r8", relabel(sq["r8"], rng), None, "random 8x8, 932 sweeps"),
        Case("r16", relabel(sq["r16"], rng), None, "random 16x16, 1,042 sweeps"),
        # Pinned and not relabelled: the regression case for sweep count.  To
        # 1e-9 it is one 9 s solve (72,554 sweeps), which no statistic times
        # steadily on a shared machine; 1e-7 keeps 11,357 sweeps.
        Case("slow32", sq["r32"], None, "boundary optimum: the stepper's workload", tol=1e-7),
    ]


def large_loose(seed: int) -> list[Case]:
    """solve_arimoto to 1e-6 on channels of up to 1024x1024.

    Each is a Kronecker product of a closed-form binary channel with a
    q-ary symmetric channel, a constant column or a constant row, so
    capacity is additive and known exactly, and the sweep count is the
    binary factor's (22-25).  Each sweep touches up to 1M entries, so the
    output marginal and the divergences do nearly all the work.  Every
    matrix is at most 8 MiB and fits in the last-level cache: this is
    in-cache compute and temporaries, not DRAM bandwidth.
    """
    rng = np.random.default_rng(seed)
    z = z_channel(0.5)
    eps_big, eps_mid = rng.uniform(0.05, 0.15, size=2)
    return [
        Case(
            "z_x_sym512",
            relabel(np.kron(z, symmetric(512, eps_big)), rng),
            z_capacity(0.5) + symmetric_capacity(512, eps_big),
            "1024x1024: the kernel's largest operand",
        ),
        Case(
            "asym_x_sym128",
            relabel(np.kron(ASYMMETRIC_BINARY, symmetric(128, eps_mid)), rng),
            square_capacity(ASYMMETRIC_BINARY) + symmetric_capacity(128, eps_mid),
            "256x256, no zero entries",
        ),
        Case(
            "asym_x_column",
            relabel(np.kron(ASYMMETRIC_BINARY, np.ones((256, 1))), rng),
            square_capacity(ASYMMETRIC_BINARY),
            "512x2: tall, duplicate rows",
        ),
        Case(
            "z_x_row",
            relabel(np.kron(z, np.full((1, 256), 1.0 / 256)), rng),
            z_capacity(0.5),
            "2x512: wide, reductions along long rows",
        ),
    ]


def backward_em(seed: int) -> list[Case]:
    """solve_backward_em to 1e-9 with default inner settings.

    The exact m-step's inner fixed-point loop (about 10 inner sweeps per
    outer step) does the work here and nowhere else.  slow32 is left out:
    it would take about 27 s.
    """
    rng = np.random.default_rng(seed)
    sq = pinned_squares()
    return [
        Case("bsc", relabel(bsc(0.1), rng), bsc_capacity(0.1), "converges at the first record"),
        Case("bec", relabel(bec(0.5), rng), bec_capacity(0.5), "converges at the first record"),
        Case("z", relabel(z_channel(0.5), rng), z_capacity(0.5), "exact steps next to a zero entry"),
        Case("asym", relabel(ASYMMETRIC_BINARY, rng), square_capacity(ASYMMETRIC_BINARY), "exact steps, no zeros"),
        Case("r4", relabel(sq["r4"], rng), None, "random 4x4, 139 outer steps"),
        Case("r8", relabel(sq["r8"], rng), None, "random 8x8, 948 outer steps"),
        Case("r16", relabel(sq["r16"], rng), None, "random 16x16, 1,052 outer steps"),
    ]


def cli(seed: int) -> list[Case]:
    """Channels the CLI command script reads that the benchmark writes itself.

    The z and typewriter documents are written by the CLI's own generate
    command during each pass.
    """
    rng = np.random.default_rng(seed)
    p = float(rng.uniform(0.05, 0.2))
    return [
        Case("bsc_csv", relabel(bsc(p), rng), bsc_capacity(p), "the CSV reader"),
        Case("r64", relabel(pinned_r64(), rng), None, "10,315 trace records: trace I/O and verify at size"),
        Case("small", relabel(pinned_squares()["r4"], rng), None, "backward-em and compare on a cheap channel"),
    ]


WORKLOADS = {
    "small-tight": ("arimoto", 1e-9, small_tight),
    "large-loose": ("arimoto", 1e-6, large_loose),
    "backward-em": ("backward_em", 1e-9, backward_em),
    "cli": ("cli", 1e-9, cli),
}


def json_document(m: np.ndarray) -> bytes:
    """chancap's JSON channel form; Python's float repr round-trips exactly."""
    return json.dumps({"matrix": m.tolist()}).encode("utf-8")


def csv_document(m: np.ndarray) -> bytes:
    return "".join(",".join(repr(v) for v in row) + "\n" for row in m.tolist()).encode("utf-8")
