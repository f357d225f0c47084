"""Tests of the benchmark's own code, at tiny input sizes.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench_run
import vgstore.engine
import vgstore.repo
from tracer import Tracer, metric_units
from vgstore.bench import EX
from vgstore.terms import RDF_TYPE, XSD_BOOLEAN, Iri, Literal
from workloads import ALL_QUERIES, WORKLOADS, EvalBranching

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_each_workload_prints_every_metric_with_its_unit(workload, trace, capsys):
    summary = bench_run.run(workload, 3, 0.05, trace=trace == "1", size="tiny")
    bench_run.report(workload, 3, summary)
    out = capsys.readouterr().out
    result = _last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= WORKLOADS[workload].cycle
    units = bench_run.END_TO_END_UNITS if trace == "0" else metric_units(ALL_QUERIES)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    lines = set(out.splitlines())
    for name, metric in result["metrics"].items():
        assert f"{name} {metric['value']} {metric['unit']}" in lines
    assert "error_rate 0.0 ratio" in lines


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units(ALL_QUERIES)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_parse_patch_calls_equal_versions_loaded():
    summary = bench_run.run("query-history", 5, 0.05, trace=True, size="tiny")
    metrics = summary["metrics"]
    assert metrics["repo.parse_patch.calls"]["value"] == summary["versions"]
    assert metrics["store.apply_commit.calls"]["value"] == summary["versions"]


def test_rows_out_and_match_yielded_equal_direct_counts(tmp_path):
    tracer = Tracer()
    tracer.install_spans()
    try:
        workload = EvalBranching(11, tmp_path, "tiny", tracer)
        state = workload.build()
        assert state["errors"] == []
        workload.adopt(state)
        tracer.install_counts()
        tracer.counts.clear()
        tracer.op = 0
        store, dag = workload.stores["extension"], workload.dags["extension"]
        query, domain = workload.parsed["accessible-stations"]
        table = vgstore.engine.eval_annotated(store, dag, query, version_domain=domain)
    finally:
        tracer.uninstall()
    assert tracer.counts["engine.rows_out"] == len(table.rows) > 0
    # pattern 1 yields every station type triple ever stored; pattern 2 then
    # probes each station once and yields its accessible=true triple if stored
    d = store.dictionary
    stored = set().union(*(store.materialize(v) for v in range(store.n_versions)))
    type_id, station_id = d.lookup(Iri(RDF_TYPE)), d.lookup(Iri(EX + "MetroStation"))
    accessible_id = d.lookup(Iri(EX + "accessible"))
    true_id = d.lookup(Literal("true", XSD_BOOLEAN))
    stations = {t.s for t in stored if (t.p, t.o) == (type_id, station_id)}
    accessible = {t.s for t in stored if (t.p, t.o) == (accessible_id, true_id)}
    assert tracer.counts["store.match.calls"] == 1 + len(stations)
    assert tracer.counts["store.match.yielded"] == len(stations) + len(stations & accessible)


def test_tracer_restores_every_patched_name():
    before = (vgstore.repo.parse_patch, vgstore.engine.format_term,
              vgstore.engine.eval_annotated)
    tracer = Tracer()
    tracer.install_spans()
    tracer.install_counts()
    tracer.uninstall()
    after = (vgstore.repo.parse_patch, vgstore.engine.format_term,
             vgstore.engine.eval_annotated)
    assert before == after


@pytest.mark.parametrize("workload", ["query-history", "eval-branching"])
def test_wrong_oracle_hash_counts_as_errors(workload, tmp_path):
    wl, state, _elapsed = bench_run.set_up(workload, 9, "tiny", tmp_path)
    setup_errors = state["errors"]
    assert setup_errors == []
    qid = next(iter(wl.expected))
    wl.expected[qid] = "0" * 64
    result = bench_run.measure(wl, 0.0)
    summary = bench_run.summarize(result, setup_errors)
    assert summary["error_rate"] > 0
    assert summary["correct"] is False
    assert summary["failed"] == summary["attempted"] - summary["samples"]


def test_wrong_commit_expectation_counts_as_error(tmp_path):
    wl, _state, _elapsed = bench_run.set_up("commit-history", 9, "tiny", tmp_path)
    wl.head -= 1  # expect the new version one number too low
    summary = bench_run.summarize(bench_run.measure(wl, 0.0), [])
    assert summary["error_rate"] == 1.0


def test_commit_that_alters_an_earlier_patch_counts_as_error(tmp_path):
    wl, _state, _elapsed = bench_run.set_up("commit-history", 9, "tiny", tmp_path)
    name = sorted(wl.old_deltas)[0]
    wl.old_deltas[name] += b"# not what the pristine repository holds\n"
    summary = bench_run.summarize(bench_run.measure(wl, 0.0), [])
    assert summary["error_rate"] == 1.0


def test_untraced_run_sets_up_repeatedly_with_equal_inputs():
    summary = bench_run.run("eval-branching", 6, 0.05, trace=False, size="tiny")
    assert summary["setups"] == bench_run.MIN_SETUPS
    assert summary["correct"] is True


def test_cheap_set_up_is_repeated_more_often():
    # a tiny set-up takes milliseconds, so a fifth of a second fits many
    summary = bench_run.run("commit-history", 6, 1.0, trace=False, size="tiny")
    assert bench_run.MIN_SETUPS < summary["setups"] <= bench_run.MAX_SETUPS
    assert summary["correct"] is True


def test_rebuild_with_other_inputs_is_a_set_up_error(tmp_path):
    _wl, state, _elapsed = bench_run.set_up("query-history", 2, "tiny", tmp_path)
    other = dict(state, versions=state["versions"] + 1)
    _elapsed, errors = bench_run.rebuild("query-history", 2, "tiny", tmp_path / "again", other)
    assert len(errors) == 1 and not (tmp_path / "again").exists()


def test_peak_rss_leaves_out_set_up_memory(tmp_path):
    """A build that holds a large block leaves the parent's peak unchanged."""
    before = bench_run.resource.getrusage(bench_run.resource.RUSAGE_SELF).ru_maxrss
    size = bench_run.in_child(lambda: len(bytearray(128 * 1024 * 1024)))
    after = bench_run.resource.getrusage(bench_run.resource.RUSAGE_SELF).ru_maxrss
    assert size == 128 * 1024 * 1024
    assert after - before < 32 * 1024  # KiB


def test_error_in_child_set_up_is_raised_in_the_parent():
    with pytest.raises(RuntimeError, match="ZeroDivisionError"):
        bench_run.in_child(lambda: 1 / 0)


def test_same_seed_same_inputs_and_other_seed_differs(tmp_path):
    def expected(seed, sub):
        wl, _state, _elapsed = bench_run.set_up("eval-branching", seed, "tiny", tmp_path / sub)
        return wl.expected

    assert expected(4, "a") == expected(4, "b")
    assert expected(4, "a") != expected(5, "c")


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-branching",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_are_scaled_by_the_calibrations_around_them(tmp_path, monkeypatch):
    wl, _state, _elapsed = bench_run.set_up("query-history", 2, "tiny", tmp_path)
    # a machine at half the reference speed: every time reads half as long
    monkeypatch.setattr(bench_run, "calibrate", lambda: 2 * bench_run.REFERENCE_S)
    result = bench_run.measure(wl, 0.0)
    assert result["latencies"] == pytest.approx([t / 2 for t in result["raw"]])
    elapsed, value = bench_run.timed_in_child(lambda: (3.0, "state"))
    assert (elapsed, value) == (1.5, "state")


def test_run_completes_the_minimum_number_of_operations(tmp_path):
    wl, _state, _elapsed = bench_run.set_up("query-history", 2, "tiny", tmp_path)
    pauses = [lambda: None, lambda: None]
    assert bench_run.measure(wl, 0.0, pauses=pauses)["attempted"] >= bench_run.MIN_OPERATIONS
