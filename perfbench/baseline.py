"""The bare single-threaded numpy loop the library is measured against.

The same arithmetic as chancap's multiplicative sweep, with nothing else:

    r = q P,   d(x) = sum_y P log(P / r),   q <- q exp(d) / norm,

and the certified bracket sum_x q(x) d(x) <= C <= max_x d(x) at every sweep.
Like chancap's sweep, it takes log(P / r) over the whole matrix every time, so
that both touch as much memory per sweep.  chancap never imports this module,
and it runs outside every timed region.
"""

from __future__ import annotations

import time

import numpy as np


def bare_arimoto(p: np.ndarray, tol: float, max_iters: int = 100000) -> dict:
    """Sweep from the uniform input until the bracket gap is at most tol."""
    start = time.perf_counter()
    n = p.shape[0]
    support = p > 0.0
    q = np.full(n, 1.0 / n)
    for sweep in range(1, max_iters + 1):
        r = q @ p
        d = (p * np.log(np.where(support, p / r, 1.0))).sum(axis=1)  # 0 log 0 = 0
        lower = float(q @ d)
        upper = max(lower, float(d.max()))
        if upper - lower <= tol:
            break
        q = q * np.exp(d - d.max())
        q /= q.sum()
    return {
        "lower": lower,
        "upper": upper,
        "sweeps": sweep,
        "converged": upper - lower <= tol,
        "seconds": time.perf_counter() - start,
    }
