#!/usr/bin/env python3
"""Run one benchmark workload against the vgstore sources of this checkout.

    python3 perfbench/run.py --workload query-history --seed 42 --seconds 30 --trace 0

Load model: one process, one thread, a closed loop with one client; one
warm-up operation is discarded; the interpreter keeps its defaults. The
loop runs whole rotations over the workload's operation kinds until
`--seconds` of wall time have passed. Set-up runs in child processes, so
`peak_rss_mb` is the memory of the operations alone; the repeated set-ups
behind the `setup_s` median pause the loop at even intervals. Every time
is reported at a reference machine speed: see `calibrate`.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` the
per-layer metrics of a traced run, whose spans and counters are written to
`.perfbench_out/`. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# An untraced run sets up MIN_SETUPS to MAX_SETUPS times: as many as fit,
# beyond the first, in SETUP_SHARE of the measuring time. A cheap set-up
# lands in one stretch of fast or slow machine time, so it needs more
# samples for a steady median.
MIN_SETUPS, MAX_SETUPS = 4, 15
SETUP_SHARE = 0.2
# At least this many timed operations per run, so that ten or more samples
# lie beyond latency_p90_ms; the last segment runs on until they are done.
MIN_OPERATIONS = 100
# A fixed pure-Python dict workload gauges the machine's momentary speed,
# and every timed span is scaled by REFERENCE_S / (that workload's time
# around it): times read as on a machine that runs it in exactly REFERENCE_S.
CALIBRATION_KEYS = 32_768
REFERENCE_S = 0.010
END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def calibrate() -> float:
    """Wall time of filling and probing a dict of CALIBRATION_KEYS ints.

    The loop touches no vgstore code and leaves nothing behind, so its time
    moves only with the speed the machine gives this process, which on a
    shared host drifts by a third or more within a minute. Hashing into a
    dict that outgrows the L1 cache tracks that drift in vgstore's
    dict-heavy code better than pure arithmetic does.
    """
    start = perf_counter()
    table = {}
    for k in range(CALIBRATION_KEYS):
        table[k * 7919 % 65521] = k
    total = 0
    for k in range(CALIBRATION_KEYS):
        total += table.get(k, 0)
    return perf_counter() - start


def at_reference(elapsed: float, before: float, after: float) -> float:
    """`elapsed` scaled to the reference speed by the calibrations around it."""
    return elapsed * REFERENCE_S / ((before + after) / 2.0)


def _snapshot(directory: Path | None) -> dict[str, tuple[int, int]]:
    if directory is None or not directory.is_dir():
        return {}
    out = {}
    for path in directory.rglob("*"):
        if path.is_file():
            st = path.stat()
            out[str(path.relative_to(directory))] = (st.st_size, st.st_mtime_ns)
    return out


def _written(before: dict, after: dict) -> tuple[int, int]:
    """(files, bytes) that are new or whose size or mtime changed."""
    changed = [key for key, stat in after.items() if before.get(key) != stat]
    return len(changed), sum(after[key][0] for key in changed)


def measure(workload, seconds: float, tracer=None, pauses=()) -> dict:
    """Warm up once, then run whole rotations for `seconds` of wall time.

    The time is cut into len(pauses) + 1 equal segments, and each callable
    in `pauses` runs, untimed, between two segments. Each segment runs at
    least one rotation, and the last one runs on until MIN_OPERATIONS have
    been attempted. Each timed call sits between two calibrations.
    Returns the number attempted, the latency of each operation that
    succeeded (at the reference speed, and as measured) and the message of
    each that did not.
    """
    errors: list[str] = []

    def one(i: int, tag: object):
        act = workload.prepare(i)
        before = _snapshot(workload.repo_dir) if tracer is not None else None
        if tracer is not None:
            tracer.op = tag
        before_s = calibrate()
        start = perf_counter()
        try:
            result = act()
        except Exception:  # an operation that raises is a failed operation
            return None, traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
        times = (at_reference(elapsed, before_s, calibrate()), elapsed)
        if tracer is not None:
            tracer.op = "check"
            files, size = _written(before, _snapshot(workload.repo_dir))
            tracer.counts["repo.files_written"] += files
            tracer.counts["repo.bytes_written"] += size
        try:
            return times, workload.check(i, result)
        except Exception:  # output too broken to check, e.g. an unreadable manifest
            return times, traceback.format_exc(limit=3)

    one(0, "warmup")  # discarded
    if tracer is not None:
        tracer.counts.clear()
    latencies: list[float] = []
    raw: list[float] = []
    i = 0
    segment = seconds / (len(pauses) + 1)
    for k, pause in enumerate((None, *pauses)):
        last = k == len(pauses)
        if pause is not None:
            pause()
        begin = perf_counter()
        while True:
            for _ in range(workload.cycle):
                times, error = one(i, i)
                i += 1
                if error is None:
                    latencies.append(times[0])
                    raw.append(times[1])
                else:
                    errors.append(error)
                    if len(errors) <= 3:
                        print(f"operation {i - 1} failed: {error}", file=sys.stderr)
            if perf_counter() - begin >= segment and (not last or i >= MIN_OPERATIONS):
                break
    return {"attempted": i, "latencies": latencies, "raw": raw, "errors": errors}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, by statistics.quantiles' exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def in_child(fn):
    """Run `fn()` in a forked child process and return its picklable result.

    The child's memory does not count in this process's `ru_maxrss`. The
    child is always waited for; if this process is interrupted, it is
    killed first.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never return into the caller's code
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, fn()))
            except BaseException:
                payload = pickle.dumps((False, traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as f:
                f.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    data = None
    try:
        with os.fdopen(read_fd, "rb") as f:
            data = f.read()
    finally:
        if data is None:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"set-up failed in its child process:\n{value}")
    return value


def timed_in_child(fn) -> tuple:
    """`in_child(fn)`, whose result starts with an elapsed time, with that
    time scaled to the reference speed by calibrations in this process."""
    before_s = calibrate()
    result = in_child(fn)
    return (at_reference(result[0], before_s, calibrate()), *result[1:])


def _timed_build(workload, tracer) -> tuple[float, dict, tuple | None]:
    """In the child: build, timed, plus the spans and counters it traced."""
    start = perf_counter()
    state = workload.build()
    elapsed = perf_counter() - start
    return elapsed, state, (tracer.spans, tracer.counts) if tracer is not None else None


def set_up(workload_name: str, seed: int, size: str, work_root: Path, tracer=None):
    """Build the workload in a child process and adopt it here.

    Returns the workload, the build's state (with its set-up mismatches
    under "errors") and its wall time at the reference speed. A traced
    build's spans and counters replace `tracer`'s: the child's started as a
    copy of them.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, work_root / "setup0", size, tracer)
    elapsed, state, traced = timed_in_child(lambda: _timed_build(workload, tracer))
    if traced is not None:
        tracer.spans[:] = traced[0]
        tracer.counts.clear()
        tracer.counts.update(traced[1])
    workload.adopt(state)
    return workload, state, elapsed


def _inputs(state: dict) -> dict:
    return {key: value for key, value in state.items() if key != "errors"}


def rebuild(workload_name: str, seed: int, size: str, work_dir: Path, first: dict):
    """One more timed set-up, in a child, for the `setup_s` median.

    Its state must equal the first set-up's (`first`), since the seed alone
    decides the inputs; its scratch directory is removed afterwards.
    Returns the wall time at the reference speed and any mismatches.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, work_dir, size)
    try:
        elapsed, state, _ = timed_in_child(lambda: _timed_build(workload, None))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    errors = list(state["errors"])
    if _inputs(state) != _inputs(first):
        errors.append(f"set-up in {work_dir.name} gave other inputs than the first")
    return elapsed, errors


def end_to_end(result: dict, setup_times: list[float]) -> dict[str, float]:
    latencies = result["latencies"] or [0.0]  # every operation failed
    return {
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_p90_ms": percentile(latencies, 90) * 1000.0,
        "ops_per_s": ops_per_s(latencies),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def ops_per_s(latencies: list[float]) -> float:
    """Completed operations over the time spent inside them (calibrations
    and untimed per-operation work are outside)."""
    busy = sum(latencies)
    return len(latencies) / busy if busy else 0.0


def summarize(result: dict, setup_errors: list[str]) -> dict:
    attempted, failed = result["attempted"], len(result["errors"])
    return {
        "correct": failed == 0 and not setup_errors,
        "attempted": attempted,
        "failed": failed,
        "samples": len(result["latencies"]),
        "error_rate": failed / attempted,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up and measure one workload; return the result and its metrics.

    An untraced run sets up once before the timed loop and again in pauses
    spread evenly through it (see MIN_SETUPS), so that the `setup_s` median
    samples the same stretch of machine time as the operations. A traced
    run sets up once.
    """
    from tracer import Tracer, layer_metrics, metric_units
    from workloads import ALL_QUERIES

    work_root = ROOT / ".perfbench_work" / f"{workload_name}-{os.getpid()}"
    tracer = Tracer() if trace else None
    setup_times: list[float] = []
    setup_errors: list[str] = []

    def again(k: int):
        def pause():
            elapsed, errors = rebuild(workload_name, seed, size, work_root / f"setup{k}", first)
            setup_times.append(elapsed)
            setup_errors.extend(errors)
        return pause

    try:
        if tracer is not None:
            tracer.install_spans()
        workload, first, elapsed = set_up(workload_name, seed, size, work_root, tracer)
        setup_times.append(elapsed)
        setup_errors.extend(first["errors"])
        if tracer is not None:
            tracer.install_counts()
            pauses = []
        else:
            fit = 1 + int(SETUP_SHARE * seconds / elapsed)
            pauses = [again(k) for k in range(1, min(MAX_SETUPS, max(MIN_SETUPS, fit)))]
        result = measure(workload, seconds, tracer, pauses)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_root, ignore_errors=True)
    for message in setup_errors:
        print(message, file=sys.stderr)
    summary = summarize(result, setup_errors)
    summary["versions"] = workload.versions
    summary["setups"] = len(setup_times)
    summary["measured_p50_ms"] = statistics.median(result["raw"] or [0.0]) * 1000.0
    if tracer is not None:
        units = metric_units(ALL_QUERIES)
        values = layer_metrics(
            tracer, result["attempted"], list(workload.expected), ops_per_s(result["latencies"])
        )
        values = {name: values.get(name, 0.0) for name in units}
        spans_path = ROOT / ".perfbench_out" / f"spans-{workload_name}-seed{seed}.jsonl"
        tracer.write(spans_path)
    else:
        units = END_TO_END_UNITS
        values = end_to_end(result, setup_times)
    summary["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    return summary


def report(workload_name: str, seed: int, summary: dict) -> None:
    print(f"workload {workload_name} seed {seed}: {summary['versions']} versions, "
          f"{summary['samples']} samples of {summary['attempted']} operations, "
          f"{summary['setups']} set-ups")
    print(f"latency_p50_ms as measured, not scaled: {summary['measured_p50_ms']} ms")
    print(f"error_rate {summary['error_rate']} ratio")
    for name, metric in summary["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({key: summary[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("query-history", "commit-history", "eval-branching"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vgstore" / "__init__.py").is_file():
        print(f"perfbench: no vgstore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, summary)
    return 0


if __name__ == "__main__":
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    sys.exit(main())
