"""What each command loads: every subcommand imports only the chancap modules
it runs, and perfbench's tracer still finds every module it wraps.

Each case runs in a fresh interpreter, since this process has imported the
whole package already.
"""

import json

import pytest

from chancap import bsc, save_channel
from support import fresh_python

# The modules parsing and reading a channel need, which every subcommand loads.
READING = {"chancap", "chancap.cli", "chancap.channel", "chancap.errors", "chancap.numeric", "chancap.probability"}

# Runs one command through chancap.cli.main; its last line of output is the
# exit code, the chancap modules loaded and whether csv is loaded.
_COMMAND = """
import json, sys
from chancap.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "chancap"), "csv" in sys.modules]))
"""


@pytest.fixture
def files(tmp_path):
    ch = bsc(0.1)
    (tmp_path / "bsc.json").write_bytes(save_channel(ch))
    (tmp_path / "bsc.csv").write_text("\n".join(",".join(str(float(p)) for p in row) for row in ch.matrix) + "\n")
    (tmp_path / "law.json").write_text("[0.5, 0.5]")
    return tmp_path


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["generate", "--kind", "z", "--param", "0.5", "--out", "{dir}/z.json"], set()),
        (["capacity", "--channel", "{dir}/bsc.json"], {"chancap.arimoto"}),
        (["capacity", "--channel", "{dir}/bsc.csv", "--format", "csv"], {"chancap.arimoto"}),
        (
            ["capacity", "--channel", "{dir}/bsc.json", "--algorithm", "backward-em"],
            {"chancap.arimoto", "chancap.backward_em"},
        ),
        (["verify", "--channel", "{dir}/bsc.json", "--input", "{dir}/law.json"], {"chancap.verify"}),
        (["compare", "--channel", "{dir}/bsc.json", "--trace-prefix", "{dir}/cmp"], {"chancap.arimoto", "chancap.backward_em"}),
    ],
    ids=["generate", "capacity", "capacity-csv", "capacity-backward-em", "verify-input", "compare"],
)
def test_each_subcommand_loads_only_the_modules_it_runs(files, argv, loads):
    out = fresh_python(_COMMAND, *(arg.format(dir=files) for arg in argv))
    code, modules, csv_loaded = json.loads(out.splitlines()[-1])
    assert code == 0
    assert set(modules) == READING | loads
    assert csv_loaded == ("csv" in argv)


# measure.py's order: the package, the CLI, a warm-up that reads a channel
# and solves it both ways, then the tracer.  The traced CLI calls must still
# reach the wrapped solver, checks and trace writer.
_TRACED = """
import json, sys
sys.path.insert(0, "perfbench")
import chancap
import chancap.cli
ch = chancap.load_channel(b'{"matrix": [[0.9, 0.1], [0.2, 0.8]]}')
chancap.solve_arimoto(ch)
chancap.solve_backward_em(ch)
from tracer import Tracer
tracer = Tracer()
tracer.install()
try:
    codes = [chancap.cli.main(argv.split()) for argv in sys.argv[1:]]
finally:
    tracer.uninstall()
stats = tracer.stats()
print(json.dumps([codes, {name: stats[name]["calls"] for name in stats}]))
"""


def test_perfbench_tracer_installs_after_the_warm_up(files):
    capacity = f"capacity --channel {files}/bsc.json --trace {files}/trace.csv"
    verify = f"verify --channel {files}/bsc.json --input {files}/law.json"
    out = fresh_python(_TRACED, capacity, verify)
    codes, calls = json.loads(out.splitlines()[-1])
    assert codes == [0, 0]
    for name in ("arimoto.solve", "cli.write_trace", "verify.brute_force_capacity",
                 "verify.circumcenter_check", "verify.converse_check"):
        assert calls[name] == 1, name
    assert calls["channel.load_channel"] == 2
    assert calls["probability.Distribution"] > 0
