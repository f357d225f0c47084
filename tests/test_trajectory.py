"""scripts/bench_trajectory.py: the schema of the BENCH_*.json files it writes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ("query-history", "commit-history", "eval-branching", "cold-start")
END_TO_END = {"latency_p50_ms", "latency_p90_ms", "ops_per_s", "setup_s", "peak_rss_mb"}


def check_schema(path: Path, quick: bool) -> dict:
    doc = json.loads(path.read_text())
    assert doc["benchmark"] == path.stem.removeprefix("BENCH_")
    assert doc["quick"] is quick and doc["commit"] and doc["python"] and doc["cpu_count"] >= 1
    assert doc["seeds"] and all(isinstance(seed, int) for seed in doc["seeds"])
    for metric in (doc["calibration_s"], *doc["metrics"].values()):
        assert metric["unit"] and metric["n"] == len(metric["values"]) > 0
        assert metric["q1"] <= metric["median"] <= metric["q3"]
    if doc["benchmark"] == "cold-start":
        names = set(doc["metrics"])
        assert {"startup.python-S.wall_ms", "startup.import-vgstore-cli.max_rss_mib"} <= names
        for kind in ("query.accessible-pairs", "commit", "log"):
            assert any(name.startswith(kind + ".") for name in names)
        assert any(name.startswith("layers.") and name.endswith(".load_ms") for name in names)
        # every wall time has a figure scaled by the same run's bare start
        startup = doc["metrics"]["startup.python-S.wall_ms"]["median"]
        for name in (name for name in names if name.endswith(".wall_ms")):
            scaled = doc["metrics"][name.removesuffix("_ms") + "_scaled"]
            assert scaled["unit"] == "x startup.python-S"
            assert scaled["values"] == pytest.approx(
                [ms / startup for ms in doc["metrics"][name]["values"]])
    else:
        assert set(doc["metrics"]) == END_TO_END
        assert all(metric["n"] == len(doc["seeds"]) for metric in doc["metrics"].values())
    return doc


def test_the_quick_trajectory_writes_the_four_files(tmp_path):
    out = tmp_path / "out"
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_trajectory.py"), "--quick",
         "--out", str(out), "--work", str(tmp_path / "work")],
        check=True, capture_output=True, timeout=600,
    )
    assert sorted(p.name for p in out.iterdir()) == sorted(f"BENCH_{n}.json" for n in BENCHMARKS)
    for name in BENCHMARKS:
        check_schema(out / f"BENCH_{name}.json", quick=True)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_the_committed_trajectory_files_hold_a_full_run(name):
    doc = check_schema(ROOT / f"BENCH_{name}.json", quick=False)
    if name != "cold-start":
        assert doc["seeds"] == [42, 1009, 3, 5, 7]
