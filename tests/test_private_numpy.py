"""chancap on a numpy without the private names numeric imports.

numeric calls numpy's c_einsum and the solve1 gufunc directly, skipping
the Python wrappers np.einsum and np.linalg.solve.  Both names are
private, so a numpy release may move them; numeric then falls back to the
public wrappers, which compute the same bits.  Each test hides one name
in a fresh interpreter before chancap is imported there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chancap import Channel, save_channel, solve_arimoto, solve_backward_em

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Replaces the module in sys.modules by a copy without the name, so that
# importing the name from it fails; numpy's own modules keep the real one.
_HIDE = """
import importlib, sys, types
module_name, name = sys.argv[1], sys.argv[2]
real = importlib.import_module(module_name)
stand_in = types.ModuleType(module_name)
vars(stand_in).update((key, value) for key, value in vars(real).items() if key != name)
sys.modules[module_name] = stand_in
sys.argv[1:] = sys.argv[3:]
"""

_KEPT = _HIDE + """
sys.path.insert(0, {tests!r})
import numpy as np
import chancap.numeric
from test_private_numpy import kept_columns
print(chancap.numeric._contract is np.einsum, chancap.numeric._solve1 is None)
print(kept_columns())
"""

_CLI = _HIDE + """
import runpy
runpy.run_module("chancap.cli", run_name="__main__", alter_sys=True)
"""

_C_EINSUM = ("numpy._core.multiarray" if np.lib.NumpyVersion(np.__version__) >= "2.0.0"
             else "numpy.core.multiarray", "c_einsum")
_SOLVE1 = ("numpy.linalg._umath_linalg", "solve1")


def kept_columns() -> str:
    """The repr of the kept columns of a few solves that reach both names.

    The Arimoto run and the wide backward run contract through c_einsum;
    the backward run on 8 outputs takes Newton steps through solve1.
    """
    rng = np.random.default_rng(1)
    square = Channel(rng.dirichlet(np.ones(8), size=8))
    wide = Channel(rng.dirichlet(np.ones(40), size=6))
    runs = (solve_arimoto(square), solve_backward_em(square), solve_backward_em(wide, tol=1e-7))
    return repr([trace._kept for _, trace in runs])


def run_hidden(code: str, hidden: tuple[str, str], *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code, *hidden, *argv], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("hidden", [_C_EINSUM, _SOLVE1], ids=["c_einsum", "solve1"])
def test_solves_keep_their_bits_without_the_private_name(hidden):
    done = run_hidden(_KEPT.format(tests=str(TESTS)), hidden)
    assert done.returncode == 0, done.stderr
    fallbacks, kept = done.stdout.splitlines()
    # The fallback was taken, for the hidden name only.
    assert fallbacks == ("True False" if hidden == _C_EINSUM else "False True")
    assert kept == kept_columns()


@pytest.mark.parametrize("hidden", [_C_EINSUM, _SOLVE1], ids=["c_einsum", "solve1"])
def test_the_cli_runs_without_the_private_name(hidden, tmp_path):
    path = tmp_path / "r8.json"
    path.write_bytes(save_channel(Channel(np.random.default_rng(1).dirichlet(np.ones(8), size=8))))
    done = run_hidden(_CLI, hidden, "capacity", "--channel", str(path), "--algorithm", "backward-em")
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    # The support-Newton route finishes this channel; its contractions and
    # its solves go through the stand-ins too.
    assert payload["termination"] == "converged" and payload["support_newton_steps"] == 1
