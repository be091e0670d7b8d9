"""The committed performance records: every BENCH_*.json at the repository root.

Each record holds, for every workload BENCHMARK.json declares and every
end-to-end metric it gates, the parent's and the change's value per run,
with their medians and quartiles; the seeds and run length; the
tools/trace_hash.py lines at both seeds; and the line count of src/.
"""

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_at_least_one_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_has_every_metric_per_run(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record["run_seconds"], (int, float)) and record["run_seconds"] > 0
    assert isinstance(record["src_lines"]["parent"], int)
    assert isinstance(record["src_lines"]["change"], int)
    hashes = record["trace_hash"]
    assert set(hashes) == {"seed 1", "seed 2"}
    for seed, line in hashes.items():
        assert line.startswith(f"{seed}: ") and "items, sha256 " in line
    workloads = record["workloads"]
    assert set(workloads) == {w["name"] for w in BENCHMARK["workloads"]}
    for name, workload in workloads.items():
        seeds = workload["seeds"]
        assert seeds and all(isinstance(s, int) for s in seeds)
        assert workload["correct"] is True
        assert workload["failed"] == {"parent": 0, "change": 0}
        for metric in BENCHMARK["end_to_end"]:
            values = workload["metrics"][metric["name"]]
            assert values["unit"] == metric["unit"]
            for side in ("parent", "change"):
                runs = values[side]
                assert len(runs) == len(seeds), (name, metric["name"], side)
                q1, median, q3 = np.percentile(runs, [25, 50, 75])
                assert values[f"{side}_median"] == pytest.approx(median)
                assert values[f"{side}_quartiles"] == pytest.approx([q1, q3])
