#!/usr/bin/env python3
"""Record the benchmark trajectory: the BENCH_*.json files at the repo root.

    python3 scripts/bench_trajectory.py            # full size, a few minutes
    python3 scripts/bench_trajectory.py --quick --out DIR   # seconds

It measures the vgstore sources of the checkout it lives in, and writes:

- BENCH_query-history.json, BENCH_commit-history.json and
  BENCH_eval-branching.json: perfbench/run.py, run as a subprocess for
  PERFBENCH_SECONDS once per seed in SEEDS, with each run's end-to-end
  metrics read from the JSON line it prints last;
- BENCH_cold-start.json: what perfbench cannot see, because it calls
  cli.run in one process on histories of at most 200 versions.  Every vg
  command runs as its own process, through cli.main as the installed vg
  does, with bytecode caching on; a first run that compiles is discarded.
  Wall time and the process's max RSS are taken for `vg query
  accessible-pairs` in both encodings, a one-triple `vg commit` onto a fresh
  copy and `vg log`, on linear 400, linear 2,000 and branching 2,000
  (buildings=500, stations=50, churn=0.01, generator seed 42), and for
  `python -S -c pass` and `python -S -c "import vgstore.cli"`.  One process
  per scenario also splits that query into load, evaluation and TSV
  formatting.  Beside each *.wall_ms metric, *.wall_scaled holds its
  samples divided by the median of startup.python-S.wall_ms, the same run's
  bare interpreter start, so files refreshed on hosts of other speeds can be
  compared.

Each file holds the commit, the Python version, the CPU count, the
calibration (perfbench's fixed dict workload, timed around the runs), the
seeds, and the median and quartiles of every metric with its samples.
--quick runs perfbench at its tiny size for one seed and one tiny
scenario per shape, so a test can check the schema in seconds.
Generated scenarios are kept under --work and reused while their
parameters match.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("query-history", "commit-history", "eval-branching")
SEEDS = (42, 1009, 3, 5, 7)
PERFBENCH_SECONDS = 10  # measuring time of each perfbench run
CITY = dict(buildings=500, stations=50, churn=0.01, seed=42)
# scenario -> (generator parameters beyond CITY, timed runs per command)
SCENARIOS = {
    "linear-400": (dict(versions=400, branch_prob=0.0), 5),
    "linear-2000": (dict(versions=2000, branch_prob=0.0), 5),
    "branching-2000": (dict(versions=2000, branch_prob=0.2), 4),
}
QUICK_SCENARIOS = {
    "linear-tiny": (dict(versions=8, branch_prob=0.0, buildings=20, stations=5), 1),
    "branching-tiny": (dict(versions=8, branch_prob=0.3, buildings=20, stations=5), 1),
}
STARTUP_RUNS = 7
PATCH = 'A <http://example.org/trajectory> <http://example.org/note> "one triple" .\n'
VG = "import sys; from vgstore.cli import main; sys.argv[0] = 'vg'; main()"
LAYERS = """
import json, sys, time
from vgstore.bench import QUERIES
from vgstore.engine import eval_annotated, format_results
from vgstore.repo import load_repository
from vgstore.sparql import parse_query
text, domain = QUERIES["accessible-pairs"]
t0 = time.perf_counter()
store, dag = load_repository(sys.argv[1])
t1 = time.perf_counter()
table = eval_annotated(store, dag, parse_query(text), domain)
t2 = time.perf_counter()
format_results(table, "tsv")
t3 = time.perf_counter()
print(json.dumps({"load_ms": (t1 - t0) * 1e3, "eval_ms": (t2 - t1) * 1e3,
                  "format_ms": (t3 - t2) * 1e3}))
"""
# runs argv with stdout discarded; prints its wall ms and max RSS MiB
LAUNCH = """
import json, os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.argv[1], sys.argv[1:])
_, status, usage = os.wait4(pid, 0)
wall = (time.perf_counter() - start) * 1e3
code = os.waitstatus_to_exitcode(status)
if code == 0:
    print(json.dumps([wall, usage.ru_maxrss / 1024]))
sys.exit(code)
"""
# perfbench at its tiny size, for --quick: the same summary line, from run.run
TINY_RUN = """
import sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import run
run.report(sys.argv[2], int(sys.argv[3]), run.run(sys.argv[2], int(sys.argv[3]), 0.05, False, size="tiny"))
"""


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _timed(argv: list[str]) -> tuple[float, float]:
    """Wall ms and max RSS MiB of one process, which must exit 0.

    A small launcher starts it: Linux counts the memory of the process that
    forks a child in the child's max RSS, and this one holds vgstore.
    """
    proc = subprocess.run([sys.executable, "-S", "-c", LAUNCH, *argv], env=_env(),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[3:5]} exited {proc.returncode}: {proc.stderr}")
    wall, rss = json.loads(proc.stdout)
    return wall, rss


def _output(argv: list[str]) -> str:
    return subprocess.run(argv, env=_env(), check=True, capture_output=True, text=True).stdout


def summary(values: list[float], unit: str) -> dict:
    """Median, quartiles and samples of one metric."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def _calibration() -> float:
    """perfbench's calibration workload, timed once, in seconds."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.calibrate()


def _commit() -> str:
    try:
        head = _output(["git", "-C", str(ROOT), "rev-parse", "HEAD"]).strip()
        dirty = _output(["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"])
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("-dirty" if dirty.strip() else "")


def perfbench(workload: str, seeds: tuple[int, ...], quick: bool) -> dict:
    """Each end-to-end metric over the seeds, one perfbench run per seed."""
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in seeds:
        if quick:
            argv = [sys.executable, "-c", TINY_RUN, str(ROOT), workload, str(seed)]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(PERFBENCH_SECONDS)]
        result = json.loads(_output(argv).strip().splitlines()[-1])
        if result["correct"] is not True or result["failed"]:
            raise RuntimeError(f"{workload} seed {seed}: {result}")
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    return {name: summary(values, units[name]) for name, values in samples.items()}


def _scenario(work: Path, name: str, params: dict) -> Path:
    """The scenario's repository under work, generated unless it is there."""
    repo, stamp = work / name, work / f"{name}.json"
    wanted = json.dumps({**CITY, **params}, sort_keys=True)
    if not (stamp.is_file() and stamp.read_text() == wanted):
        shutil.rmtree(repo, ignore_errors=True)
        _output([sys.executable, "-c",
                 "import json, sys\nfrom vgstore.bench import ScenarioParams, generate\n"
                 "generate(ScenarioParams(**json.loads(sys.argv[1])), sys.argv[2])",
                 wanted, str(repo)])
        stamp.write_text(wanted)
    return repo


def cold_start(work: Path, scenarios: dict, startup_runs: int) -> dict:
    """Wall time and max RSS of each vg command, as its own process."""
    from vgstore.bench import QUERIES

    text, domain = QUERIES["accessible-pairs"]
    samples: dict[str, list[float]] = {}

    def record(name: str, argv: list[str], runs: int, before=None) -> None:
        for i in range(runs + 1):  # the first run may compile: it is discarded
            if before is not None:
                before()
            wall, rss = _timed(argv)
            if i:
                samples.setdefault(f"{name}.wall_ms", []).append(wall)
                samples.setdefault(f"{name}.max_rss_mib", []).append(rss)

    record("startup.python-S", [sys.executable, "-S", "-c", "pass"], startup_runs)
    record("startup.import-vgstore-cli",
           [sys.executable, "-S", "-c", "import vgstore.cli"], startup_runs)
    with tempfile.TemporaryDirectory() as tmp:
        patch = Path(tmp) / "one.patch"
        patch.write_text(PATCH)
        copy = Path(tmp) / "copy"
        for name, (params, runs) in scenarios.items():
            repo = _scenario(work, name, params)
            vg = [sys.executable, "-c", VG]
            for encoding in ("extension", "interval"):
                record(f"query.accessible-pairs.{name}.{encoding}",
                       vg + ["query", "--repo", str(repo), "--inline", text, "--versions",
                             domain, "--encoding", encoding], runs)

            def fresh_copy(repo=repo):
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(repo, copy)

            record(f"commit.{name}", vg + ["commit", "--repo", str(copy), "--branch", "main",
                                           "--patch", str(patch)], runs, fresh_copy)
            record(f"log.{name}", vg + ["log", "--repo", str(repo)], runs)
            for _ in range(runs):
                split = json.loads(_output([sys.executable, "-c", LAYERS, str(repo)]))
                for layer, ms in split.items():
                    samples.setdefault(f"layers.{name}.{layer}", []).append(ms)
    startup = summary(samples["startup.python-S.wall_ms"], "ms")["median"]
    for name in [name for name in samples if name.endswith(".wall_ms")]:
        samples[name.removesuffix("_ms") + "_scaled"] = [ms / startup for ms in samples[name]]
    units = {"_mib": "MiB", "_scaled": "x startup.python-S"}
    return {name: summary(values, units.get(name[name.rindex("_"):], "ms"))
            for name, values in sorted(samples.items())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes and one seed: seconds, for a schema check")
    parser.add_argument("--out", type=Path, default=ROOT, help="where the BENCH files go")
    parser.add_argument("--work", type=Path, default=ROOT / ".bench_trajectory_work",
                        help="where generated scenarios are kept")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    seeds = SEEDS[:1] if args.quick else SEEDS
    args.work.mkdir(parents=True, exist_ok=True)
    args.out.mkdir(parents=True, exist_ok=True)
    header = {"commit": _commit(), "python": platform.python_version(),
              "cpu_count": os.cpu_count(), "quick": args.quick}
    results = {}
    calibrations = [_calibration()]
    for workload in WORKLOADS:
        results[workload] = (perfbench(workload, seeds, args.quick), seeds)
        calibrations.append(_calibration())
    scenarios = QUICK_SCENARIOS if args.quick else SCENARIOS
    results["cold-start"] = (cold_start(args.work, scenarios, 1 if args.quick else STARTUP_RUNS),
                             (CITY["seed"],))
    calibrations.append(_calibration())
    for name, (metrics, used) in results.items():
        document = {"benchmark": name, **header,
                    "calibration_s": summary(calibrations, "s"), "seeds": list(used),
                    "metrics": metrics}
        path = args.out / f"BENCH_{name}.json"
        path.write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
