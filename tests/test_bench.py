"""Scenario generator determinism and benchmark harness contracts."""

import csv
import hashlib
import io
import math
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from vgstore import BenchError, ValidationError, bench, ntriples
from vgstore.bench import (
    EX,
    REPORT_HEADER,
    BenchRow,
    ScenarioParams,
    _check_hashes,
    _decimal,
    _boolean,
    generate,
    report_text,
    run,
    write_report,
)
from vgstore.ntriples import format_triple
from vgstore.store import AnnotatedStore, Delta
from vgstore.terms import Iri, Triple


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
    # histories with merges, which leave slots with several values
    merges = crowded = 0
    for params in (
        ScenarioParams(buildings=20, stations=4, versions=60, branch_prob=0.5, churn=0.05),
        ScenarioParams(buildings=6, stations=3, versions=60, branch_prob=0.5, churn=1.0, seed=7),
    ):
        store, dag = generate(params, None)
        d = store.dictionary
        slots = params.buildings + params.stations
        for meta in dag.commits()[1:]:
            if len(meta.parents) > 1:
                merges += 1
                continue
            parent = store.materialize(meta.parents[0])
            delta = store.delta(meta.seq)
            assert len(delta.removals) == min(math.ceil(params.churn * len(parent)), slots)
            by_slot: dict[tuple[int, int], list[str]] = {}
            for t in parent:
                by_slot.setdefault(t[:2], []).append(format_triple(t, d))
            crowded += sum(len(lines) > 1 for lines in by_slot.values())
            removed_slots = [t[:2] for t in delta.removals]
            assert len(set(removed_slots)) == len(removed_slots)
            for t in delta.removals:
                assert format_triple(t, d) == min(by_slot[t[:2]])
            # one addition per removed slot; one a parent already holds is
            # not recorded
            added_slots = [t[:2] for t in delta.additions]
            assert len(set(added_slots)) == len(added_slots)
            assert set(added_slots) <= set(removed_slots)
    assert merges and crowded


# (params, sha256 of every patch in seq order, sha256 of manifest.json): the
# two scenarios perfbench generates, so a change to what the generator writes
# is a change to what the benchmark measures and shows here first
PINNED = [
    (
        ScenarioParams(buildings=500, stations=50, versions=60, branch_prob=0.0, churn=0.01),
        "f9479338a1cd3576082feeb6d95b849e1e5cf5738009b5186159fc025d7d697a",
        "9614a252f4682267c524a796cb56fc16b1a84ee8aadcbbc05f6c99f82016b406",
    ),
    (
        ScenarioParams(buildings=50, stations=8, versions=200, branch_prob=0.2, churn=0.02),
        "cb7d170e82cfa27d8b32fdf6831be96c7607a4654cdc4d2331b3bb80b1c32be3",
        "12c82684e7890ec5250ab446e857401d46d015b2c3c71f806a9a179b4c653e9f",
    ),
]


@pytest.mark.parametrize("params, patches, manifest", PINNED, ids=["linear", "branching"])
def test_generated_bytes_are_pinned(tmp_path, params, patches, manifest):
    out = tmp_path / "city"
    _store, dag = generate(params, out)
    joined = b"".join((out / "deltas" / f"{seq}.patch").read_bytes() for seq in range(len(dag)))
    assert hashlib.sha256(joined).hexdigest() == patches
    assert hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest() == manifest


def _reference_churn_delta(
    params: ScenarioParams,
    store: AnnotatedStore,
    parent: int,
    slots: list[tuple[int, int]],
    rng: random.Random,
) -> Delta:
    """The churn step as first written: it formats and sorts every value
    triple of the parent, and ignores the slot order it is given."""
    d = store.dictionary
    height = d.lookup(Iri(EX + "height"))
    accessible = d.lookup(Iri(EX + "accessible"))
    graph = store.materialize(parent)
    by_slot: dict[tuple[int, int], tuple[str, Triple]] = {}
    for t in graph:
        if t.p in (height, accessible):
            key = (t.s, t.p)
            entry = (format_triple(t, d), t)
            if key not in by_slot or entry < by_slot[key]:
                by_slot[key] = entry
    eligible = [t for _, t in sorted(by_slot.values())]
    edits = min(math.ceil(params.churn * len(graph)), len(eligible))
    removals: set[Triple] = set()
    additions: set[Triple] = set()
    for old in rng.sample(eligible, edits):
        value = d.resolve(old.o)
        if old.p == height:
            drift = rng.choice((0.5, 1.0, 2.5, 5.0)) * rng.choice((-1, 1))
            new_h = round(float(value.lex) + drift, 1)
            if new_h <= 0:
                new_h = round(float(value.lex) + abs(drift), 1)
            new_id = d.intern(_decimal(new_h))
        else:
            new_id = d.intern(_boolean(value.lex != "true"))
        removals.add(old)
        additions.add(Triple(old.s, old.p, new_id))
    return Delta(frozenset(additions), frozenset(removals))


_fractions = st.one_of(st.just(1.0), st.floats(0.0, 1.0))


@given(
    st.builds(
        ScenarioParams,
        buildings=st.integers(1, 12),
        stations=st.integers(1, 4),
        versions=st.integers(1, 40),
        branch_prob=_fractions,
        churn=_fractions,
        seed=st.integers(0, 10_000),
    )
)
@settings(max_examples=150, deadline=None)
def test_generate_matches_the_format_and_sort_churn_step(params):
    store, dag = generate(params, None)
    with mock.patch.object(bench, "_churn_delta", _reference_churn_delta):
        ref_store, ref_dag = generate(params, None)
    assert dag.commits() == ref_dag.commits()
    for seq in range(len(dag)):
        assert store.delta(seq) == ref_store.delta(seq), seq


def test_generate_formats_no_triple(monkeypatch):
    calls = []

    def counted(triple, dictionary):
        calls.append(triple)
        return format_triple(triple, dictionary)

    for name, module in list(sys.modules.items()):
        if name.startswith("vgstore") and getattr(module, "format_triple", None) is format_triple:
            monkeypatch.setattr(module, "format_triple", counted)
    assert ntriples.format_triple is counted
    generate(PINNED[0][0], None)
    assert calls == []


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
