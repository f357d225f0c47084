"""Scenario generator determinism and benchmark harness contracts."""

import csv
import io
import math

import pytest

from vgstore import BenchError, ValidationError
from vgstore.bench import (
    REPORT_HEADER,
    BenchRow,
    ScenarioParams,
    _check_hashes,
    generate,
    report_text,
    run,
    write_report,
)


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        ({"buildings": 0}, ">= 1"),
        ({"stations": 0}, ">= 1"),
        ({"versions": 0}, ">= 1"),
        ({"branch_prob": 1.5}, "[0, 1]"),
        ({"churn": -0.1}, "[0, 1]"),
    ],
)
def test_params_are_validated(kwargs, fragment):
    with pytest.raises(ValidationError) as exc:
        ScenarioParams(**kwargs)
    assert fragment in str(exc.value)


def test_minimal_scenario_has_four_root_triples():
    store, dag = generate(ScenarioParams(buildings=1, stations=1, versions=1), None)
    assert len(dag) == 1
    assert len(store.materialize(0)) == 4  # type + value for b1 and st1


def test_zero_branch_probability_gives_a_linear_main_history():
    params = ScenarioParams(buildings=4, stations=2, versions=20, branch_prob=0.0)
    store, dag = generate(params, None)
    assert len(dag) == 20
    assert dag.branches == {"main": 19}
    assert dag.heads() == {19}
    for seq in range(1, 20):
        assert dag.commit_meta(seq).parents == (seq - 1,)


def test_same_seed_writes_byte_identical_repositories(tmp_path):
    params = ScenarioParams(buildings=5, stations=3, versions=6, seed=11)
    a, b = tmp_path / "a", tmp_path / "b"
    generate(params, a)
    generate(params, b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_different_seeds_diverge(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate(ScenarioParams(buildings=8, stations=2, versions=2, seed=1), a)
    generate(ScenarioParams(buildings=8, stations=2, versions=2, seed=2), b)
    root_a = (a / "deltas" / "0.patch").read_bytes()
    root_b = (b / "deltas" / "0.patch").read_bytes()
    assert root_a != root_b


def test_churn_edits_exactly_the_documented_fraction():
    params = ScenarioParams(
        buildings=20, stations=4, versions=2, branch_prob=0.0, churn=0.05
    )
    store, _dag = generate(params, None)
    m0, m1 = store.materialize(0), store.materialize(1)
    expected = math.ceil(params.churn * len(m0))
    assert len(m0 - m1) == expected == 3
    assert len(m1 - m0) == expected  # every edit is a remove+add pair


def test_interval_encoding_is_cheaper_on_a_low_churn_linear_history():
    params = ScenarioParams(
        buildings=50, stations=8, versions=30, branch_prob=0.0, churn=0.01, seed=3
    )
    ext, _ = generate(params, None, encoding="extension")
    inter, _ = generate(params, None, encoding="interval")
    ext_stats, inter_stats = ext.stats(), inter.stats()
    assert ext_stats.triples_sum_over_versions == inter_stats.triples_sum_over_versions
    assert ext_stats.scalar_cost_total == ext_stats.triples_sum_over_versions
    assert inter_stats.scalar_cost_total < ext_stats.scalar_cost_total


@pytest.fixture(scope="module")
def small_repo(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "city"
    generate(ScenarioParams(buildings=4, stations=2, versions=4, seed=5), out)
    return out


def test_run_needs_three_timed_runs(small_repo):
    with pytest.raises(BenchError, match=">= 3"):
        run(small_repo, runs=2)


def test_run_produces_one_row_per_configuration(small_repo):
    rows = run(small_repo, runs=3)
    assert len(rows) == 20  # 2 encodings x 2 evaluators x 5 queries
    combos = {(r.encoding, r.evaluator, r.query) for r in rows}
    assert len(combos) == 20
    for row in rows:
        assert row.scenario == "city"
        assert row.build_ms > 0
        assert row.latency_ms >= 0
        assert len(row.result_hash) == 64


def test_run_hashes_are_invariant_across_configurations(small_repo):
    rows = run(small_repo, runs=3)
    by_query = {}
    for row in rows:
        by_query.setdefault(row.query, set()).add(row.result_hash)
    assert set(by_query) == {
        "accessible-stations",
        "max-height-all",
        "max-height-heads",
        "station-types",
        "accessible-pairs",
    }
    for query, hashes in by_query.items():
        assert len(hashes) == 1, query


def test_report_header_is_frozen():
    assert REPORT_HEADER == (
        "scenario,encoding,evaluator,query,build_ms,scalar_cost_total,"
        "triples_sum_over_versions,latency_ms,result_hash"
    )


def _fake_row(query="q", result_hash="h" * 64, evaluator="annotated"):
    return BenchRow(
        scenario="s",
        encoding="extension",
        evaluator=evaluator,
        query=query,
        build_ms=1.0,
        scalar_cost_total=10,
        triples_sum_over_versions=10,
        latency_ms=0.5,
        result_hash=result_hash,
    )


def test_hash_check_rejects_disagreeing_configurations():
    rows = [
        _fake_row(result_hash="a" * 64),
        _fake_row(result_hash="b" * 64, evaluator="checkout"),
    ]
    with pytest.raises(BenchError, match="mismatch") as exc:
        _check_hashes(rows)
    assert "q" in str(exc.value)
    _check_hashes([_fake_row(), _fake_row(evaluator="checkout")])


def test_report_text_round_trips_through_a_csv_reader():
    rows = [_fake_row(query="q1"), _fake_row(query="q2")]
    text = report_text(rows)
    assert text.startswith(REPORT_HEADER + "\r\n")
    parsed = list(csv.reader(io.StringIO(text)))
    assert len(parsed) == 3
    assert parsed[0] == REPORT_HEADER.split(",")
    assert parsed[1][3] == "q1"
    assert parsed[2][8] == "h" * 64


def test_report_for_no_rows_is_header_only():
    assert report_text([]) == REPORT_HEADER + "\r\n"


def test_write_report_matches_report_text(tmp_path, small_repo):
    rows = run(small_repo, runs=3)
    path = tmp_path / "report.csv"
    write_report(rows, path)
    # bytes, not read_text: universal newlines would fold the CRLFs
    assert path.read_bytes().decode("utf-8") == report_text(rows)
