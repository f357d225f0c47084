"""Patch format and repository save/load round trips."""

import gc
import json
import random
import shutil
import tempfile
from collections import Counter
from datetime import timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from vgstore import (
    EMPTY_DELTA,
    BlankNode,
    Delta,
    Dictionary,
    Iri,
    Literal,
    RepositoryError,
    StateError,
    ValidationError,
    VersionDag,
    load_repository,
    parse_patch,
    repack,
    save_repository,
    serialize_ntriples,
    serialize_patch,
)
from vgstore import engine, ntriples, terms
from vgstore.bench import ScenarioParams, generate
from vgstore.cli import run as vg
from vgstore.engine import eval_annotated
from vgstore.dag import Provenance
from vgstore.repo import _format_timestamp, _manifest_bytes, read_history
from vgstore.sparql import parse_query
from vgstore.store import AnnotatedStore, replay
from vgstore.versionsets import ExtensionSet, IntervalSet

from helpers import (
    assert_versions_are_scans,
    random_repo,
    reference_delta,
    reference_interning,
    terms_by_id,
)


def test_parse_patch_single_addition():
    d = Dictionary()
    delta = parse_patch("A <urn:s> <urn:p> <urn:o> .\n", d)
    assert len(delta.additions) == 1 and not delta.removals
    t = next(iter(delta.additions))
    assert d.resolve(t.s) == Iri("urn:s")


def test_parse_patch_mixed_lines():
    d = Dictionary()
    text = (
        "# setup\n"
        "A <urn:s> <urn:p> <urn:o1> .\n"
        "\n"
        'D <urn:s> <urn:p> "gone" .\n'
        "A <urn:s> <urn:p> <urn:o2> .\n"
    )
    delta = parse_patch(text, d)
    assert len(delta.additions) == 2 and len(delta.removals) == 1


def test_parse_patch_rejects_add_and_remove_of_same_triple():
    d = Dictionary()
    text = "A <urn:s> <urn:p> <urn:o> .\nD <urn:s> <urn:p> <urn:o> .\n"
    with pytest.raises(ValidationError):
        parse_patch(text, d)


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("X <urn:s> <urn:p> <urn:o> .\n", 1),
        ("A <urn:s> <urn:p> <urn:o> .\nB <urn:s> <urn:p> <urn:o> .\n", 2),
        ("A<urn:s> <urn:p> <urn:o> .\n", 1),
        ("A <urn:s> <urn:p> .\n", 1),
    ],
)
def test_parse_patch_bad_lines_carry_numbers(text, lineno):
    with pytest.raises(ValidationError, match=f"line {lineno}"):
        parse_patch(text, Dictionary())


def test_patch_round_trip():
    d = Dictionary()
    original = parse_patch(
        'A <urn:s> <urn:p> "x" .\n'
        "A <urn:a> <urn:b> <urn:c> .\n"
        'D <urn:s> <urn:p> "old"@en .\n',
        d,
    )
    text = serialize_patch(original, d)
    again = parse_patch(text, d)
    assert again == original
    # removals precede additions, each group sorted
    lines = text.splitlines()
    assert [ln[0] for ln in lines] == ["D", "A", "A"]
    assert lines == sorted(lines[:1]) + sorted(lines[1:])


def test_serialize_patch_empty_delta():
    assert serialize_patch(Delta(frozenset(), frozenset()), Dictionary()) == ""


def repo_checks(tmp_path, seed, encoding="extension", allow_blanks=False):
    store, dag = random_repo(random.Random(seed), allow_blanks=allow_blanks)
    outdir = tmp_path / f"repo{seed}"
    save_repository(store, dag, outdir)
    loaded_store, loaded_dag = load_repository(outdir, encoding=encoding)
    return store, dag, loaded_store, loaded_dag, outdir


def test_save_load_preserves_materializations(tmp_path):
    store, dag, loaded_store, loaded_dag, _ = repo_checks(tmp_path, seed=7)
    assert loaded_store.n_versions == store.n_versions
    for v in range(store.n_versions):
        assert serialize_ntriples(
            loaded_store.materialize(v), loaded_store.dictionary
        ) == serialize_ntriples(store.materialize(v), store.dictionary)


def test_save_load_preserves_metadata(tmp_path):
    _, dag, _, loaded_dag, _ = repo_checks(tmp_path, seed=8)
    assert loaded_dag.branches == dag.branches
    for before, after in zip(dag.commits(), loaded_dag.commits()):
        assert after.seq == before.seq
        assert after.iri == before.iri
        assert after.parents == before.parents
        assert after.branch == before.branch
        assert after.message == before.message
        assert after.author == before.author
        assert after.timestamp == before.timestamp
        assert after.provenance == before.provenance


def test_saved_timestamps_are_iso_utc_z(tmp_path):
    *_, outdir = repo_checks(tmp_path, seed=9)
    manifest = json.loads((outdir / "manifest.json").read_text())
    for record in manifest["commits"]:
        assert record["timestamp"].endswith("Z")
        assert "T" in record["timestamp"]


def test_blank_labels_survive_reload_byte_for_byte(tmp_path):
    store, dag, loaded_store, _, outdir = repo_checks(
        tmp_path, seed=10, allow_blanks=True
    )
    had_blanks = False
    for v in range(store.n_versions):
        before = serialize_ntriples(store.materialize(v), store.dictionary)
        after = serialize_ntriples(loaded_store.materialize(v), loaded_store.dictionary)
        assert after == before
        had_blanks = had_blanks or "_:" in before
    assert had_blanks  # seed chosen so the repo actually contains blank nodes


def _files(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in directory.rglob("*") if p.is_file()
    }


def test_blank_labels_across_patches_reload_byte_identically(tmp_path):
    store, dag = AnnotatedStore(), VersionDag()
    d = store.dictionary
    # b0 and b1 are labels a scope hands out when it renames
    b0, b1, n = BlankNode("b0"), BlankNode("b1"), BlankNode("n")
    p, x = Iri("urn:p"), Iri("urn:x")
    steps = [
        ({(b0, x), (n, b1)}, set()),
        ({(b1, b0), (x, Literal("1"))}, {(b0, x)}),
        ({(b0, x), (x, n)}, {(n, b1)}),
    ]
    for seq, (added, removed) in enumerate(steps):
        delta = Delta(
            frozenset(d.triple(s, p, o) for s, o in added),
            frozenset(d.triple(s, p, o) for s, o in removed),
        )
        store.apply_commit(dag, [seq - 1] if seq else [], "main", delta)
    save_repository(store, dag, tmp_path / "a")
    loaded, loaded_dag = load_repository(tmp_path / "a")
    save_repository(loaded, loaded_dag, tmp_path / "b")
    assert _files(tmp_path / "b") == _files(tmp_path / "a")
    texts = [(tmp_path / "a" / "deltas" / f"{v}.patch").read_text() for v in range(3)]
    assert "D _:b0 <urn:p> <urn:x> ." in texts[1] and "D _:n " in texts[2]
    assert terms_by_id(loaded.dictionary) == terms_by_id(reference_interning(texts))
    for v in range(3):
        assert serialize_ntriples(loaded.materialize(v), loaded.dictionary) == (
            serialize_ntriples(store.materialize(v), d)
        )


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=25, deadline=None)
def test_term_ids_after_a_load_equal_those_of_a_reference_interning(seed, blanks):
    store, dag = random_repo(random.Random(seed), allow_blanks=blanks)
    with tempfile.TemporaryDirectory() as tmp:
        save_repository(store, dag, tmp)
        texts = [
            (Path(tmp) / "deltas" / f"{v}.patch").read_text(encoding="utf-8")
            for v in range(len(dag))
        ]
        loaded, _ = load_repository(tmp)
    assert terms_by_id(loaded.dictionary) == terms_by_id(reference_interning(texts))


def test_second_save_is_byte_identical(tmp_path):
    store, dag, loaded_store, loaded_dag, outdir = repo_checks(tmp_path, seed=11)
    second = tmp_path / "again"
    save_repository(loaded_store, loaded_dag, second)
    assert (second / "manifest.json").read_bytes() == (
        outdir / "manifest.json"
    ).read_bytes()
    patches = sorted(p.name for p in (outdir / "deltas").iterdir())
    assert patches == sorted(p.name for p in (second / "deltas").iterdir())
    for name in patches:
        assert (second / "deltas" / name).read_bytes() == (
            outdir / "deltas" / name
        ).read_bytes()


# non-ASCII, quotes, backslashes, control characters and lone surrogates
MANIFEST_TEXTS = st.text(
    st.characters() | st.sampled_from('\u00e9"\\\t\n\x00\x1f\x7f\u2028\ud800\udfff'), max_size=8
)


@st.composite
def manifest_dags(draw) -> VersionDag:
    """A history of up to six commits, with merges and several branches,
    some of which have no commit of their own."""
    dag = VersionDag()
    for seq in range(draw(st.integers(0, 6))):
        parents, branch = [], "main"
        if seq:
            parents = draw(st.lists(st.integers(0, seq - 1), min_size=1, max_size=3, unique=True))
            branch = draw(st.sampled_from(sorted(dag.branches)) | MANIFEST_TEXTS.filter(bool))
            if branch not in dag.branches:
                dag.create_branch(branch, at=parents[0])
        dag.commit(parents, branch, message=draw(MANIFEST_TEXTS), author=draw(MANIFEST_TEXTS),
                   timestamp=draw(st.datetimes(timezones=st.none() | st.just(timezone.utc))),
                   provenance=Provenance(draw(MANIFEST_TEXTS), draw(MANIFEST_TEXTS)))
        name = draw(MANIFEST_TEXTS.filter(bool))
        if draw(st.booleans()) and name not in dag.branches:
            dag.create_branch(name, at=draw(st.integers(0, seq)))
    return dag


@given(manifest_dags())
@settings(max_examples=100, deadline=None)
def test_a_save_writes_the_manifest_json_dumps_writes(dag):
    """The manifest writer lays out the bytes of json.dumps with indent=2."""
    manifest = {
        "branches": {name: head for name, head in sorted(dag.branches.items())},
        "commits": [
            {
                "seq": meta.seq,
                "iri": meta.iri,
                "parents": list(meta.parents),
                "branch": meta.branch,
                "message": meta.message,
                "author": meta.author,
                "timestamp": _format_timestamp(meta.timestamp),
                "provenance": {"code_ref": meta.provenance.code_ref, "tool": meta.provenance.tool},
                "patch": f"deltas/{meta.seq}.patch",
            }
            for meta in dag.commits()
        ],
    }
    assert _manifest_bytes(dag) == (json.dumps(manifest, indent=2) + "\n").encode("utf-8")


def test_load_rebuilds_annotations_in_requested_encoding(tmp_path):
    store, dag, loaded_store, _, _ = repo_checks(tmp_path, seed=12, encoding="interval")
    assert loaded_store.encoding == "interval"
    assert (
        loaded_store.stats().triples_sum_over_versions
        == store.stats().triples_sum_over_versions
    )


def test_load_empty_directory(tmp_path):
    with pytest.raises(RepositoryError, match="manifest"):
        load_repository(tmp_path)


def test_load_missing_patch_names_the_path(tmp_path):
    store, dag = random_repo(random.Random(13))
    outdir = tmp_path / "broken"
    save_repository(store, dag, outdir)
    (outdir / "deltas" / "3.patch").unlink()
    with pytest.raises(RepositoryError, match=r"deltas[/\\]3\.patch"):
        load_repository(outdir)


def corrupt(tmp_path, mutate):
    store, dag = random_repo(random.Random(14))
    outdir = tmp_path / "c"
    save_repository(store, dag, outdir)
    path = outdir / "manifest.json"
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest))
    return outdir


def test_manifest_missing_key(tmp_path):
    outdir = corrupt(tmp_path, lambda m: m["commits"][1].pop("author"))
    with pytest.raises(RepositoryError, match="author"):
        load_repository(outdir)


def test_manifest_non_dense_seq(tmp_path):
    def mutate(m):
        m["commits"][1]["seq"] = 5

    with pytest.raises(RepositoryError, match="dense"):
        load_repository(corrupt(tmp_path, mutate))


def test_manifest_iri_mismatch(tmp_path):
    def mutate(m):
        m["commits"][2]["iri"] = "urn:vg:version:99"

    with pytest.raises(RepositoryError, match="iri"):
        load_repository(corrupt(tmp_path, mutate))


def test_manifest_parent_not_smaller(tmp_path, capsys):
    def mutate(m):
        m["commits"][2]["parents"] = [2]

    outdir = corrupt(tmp_path, mutate)
    shutil.rmtree(outdir / "deltas")
    with pytest.raises(RepositoryError, match="commit 2: unknown version: 2"):
        load_repository(outdir)
    assert vg(["log", "--repo", str(outdir)]) == 2
    capsys.readouterr()


def test_manifest_missing_main_branch(tmp_path):
    def mutate(m):
        m["branches"] = {k: v for k, v in m["branches"].items() if k != "main"}

    with pytest.raises(RepositoryError, match="main"):
        load_repository(corrupt(tmp_path, mutate))


def test_manifest_bad_timestamp(tmp_path):
    def mutate(m):
        m["commits"][0]["timestamp"] = "yesterday"

    with pytest.raises(RepositoryError, match="timestamp"):
        load_repository(corrupt(tmp_path, mutate))


def test_manifest_not_json(tmp_path):
    outdir = tmp_path / "r"
    store, dag = random_repo(random.Random(15))
    save_repository(store, dag, outdir)
    (outdir / "manifest.json").write_text("{nope")
    with pytest.raises(RepositoryError, match="manifest"):
        load_repository(outdir)


def _set(index, key, value):
    def mutate(m, tmp_path):
        m["commits"][index][key] = value

    return mutate


def _patch_outside(m, tmp_path):
    outside = tmp_path / "outside.patch"
    outside.write_bytes((tmp_path / "c" / "deltas" / "1.patch").read_bytes())
    m["commits"][1]["patch"] = str(outside)


def _record_list(m, tmp_path):
    m["commits"][1] = ["not", "an", "object"]


def _record_int(m, tmp_path):
    m["commits"][1] = 1


def _branch(name, head):
    def mutate(m, tmp_path):
        m["branches"][name] = head(len(m["commits"]))

    return mutate


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        pytest.param(_set(1, "timestamp", 1772323260), "timestamp", id="timestamp-int"),
        pytest.param(_set(1, "patch", 1), "patch", id="patch-int"),
        pytest.param(_set(1, "branch", 7), "branch", id="branch-int"),
        pytest.param(_set(1, "branch", ["side"]), "branch", id="branch-list"),
        pytest.param(_set(1, "message", None), "message", id="message-null"),
        pytest.param(_set(1, "author", ["gen"]), "author", id="author-list"),
        pytest.param(_set(1, "seq", True), "dense", id="seq-bool"),
        pytest.param(_set(2, "parents", [True]), "parents", id="parent-bool"),
        pytest.param(_set(2, "parents", [1, 1]), "parents", id="parents-duplicate"),
        pytest.param(_set(1, "branch", ""), "branch", id="branch-empty"),
        pytest.param(_set(1, "provenance", "gen"), "provenance", id="provenance-str"),
        pytest.param(
            _set(1, "provenance", {"code_ref": "step:1", "tool": 3}),
            "provenance",
            id="provenance-tool-int",
        ),
        pytest.param(
            _set(1, "patch", "deltas/../deltas/1.patch"), "deltas/1.patch", id="patch-respelled"
        ),
        pytest.param(_patch_outside, "deltas/1.patch", id="patch-outside"),
        pytest.param(_record_list, "object", id="record-list"),
        pytest.param(_record_int, "object", id="record-int"),
        pytest.param(_set(0, "branch", "dev"), 'first commit, on "main"', id="root-branch"),
        pytest.param(_branch("main", lambda n: True), "branch map", id="head-bool"),
        pytest.param(_branch("main", lambda n: n), "branch map", id="head-past-last"),
        pytest.param(_branch("side", lambda n: -1), "branch map", id="head-negative"),
        pytest.param(_branch("", lambda n: 0), "branch map", id="name-empty"),
    ],
)
def test_manifest_field_types_and_patch_path(tmp_path, capsys, mutate, fragment):
    outdir = corrupt(tmp_path, lambda m: mutate(m, tmp_path))
    # the whole manifest is checked before any patch is read
    shutil.rmtree(outdir / "deltas")
    with pytest.raises(RepositoryError, match=fragment):
        load_repository(outdir)
    assert vg(["log", "--repo", str(outdir)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("vg: error:")


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=25, deadline=None)
def test_save_load_round_trip_property(seed, blanks):
    store, dag = random_repo(random.Random(seed), allow_blanks=blanks)
    with tempfile.TemporaryDirectory() as tmp:
        save_repository(store, dag, tmp)
        loaded_store, loaded_dag = load_repository(tmp)
        assert loaded_dag.branches == dag.branches
        for v in range(store.n_versions):
            assert serialize_ntriples(
                loaded_store.materialize(v), loaded_store.dictionary
            ) == serialize_ntriples(store.materialize(v), store.dictionary)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_read_history_is_the_history_a_load_replays(seed):
    store, dag = random_repo(random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        save_repository(store, dag, tmp)
        recorded = read_history(tmp)
        _store, loaded = load_repository(tmp)
        assert recorded.commits() == loaded.commits() == dag.commits()
        assert recorded.branches == loaded.branches == dag.branches


@given(st.integers(0, 10_000), st.sampled_from(["extension", "interval"]))
@settings(max_examples=30, deadline=None)
def test_save_writes_the_reference_patch_of_every_version(seed, encoding):
    """The history as built, then repacked and saved to a fresh directory."""
    store, dag = random_repo(random.Random(seed), encoding=encoding, allow_blanks=True)
    for repacked in (False, True):
        if repacked:
            repack(dag, store)
        with tempfile.TemporaryDirectory() as tmp:
            save_repository(store, dag, tmp)
            deltas = Path(tmp) / "deltas"
            names = sorted(p.name for p in deltas.iterdir())
            assert names == sorted(f"{v}.patch" for v in range(store.n_versions))
            for v in range(store.n_versions):
                expected = serialize_patch(reference_delta(store, dag, v), store.dictionary)
                assert (deltas / f"{v}.patch").read_bytes() == expected.encode("utf-8")


def _count_calls(monkeypatch, counts: Counter, name: str, owner, attr: str) -> None:
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


@pytest.mark.parametrize("encoding", ["extension", "interval"])
def test_replay_and_save_cost_does_not_grow_with_history(tmp_path, monkeypatch, encoding):
    """A commit writes no run; the first read writes each run commits closed
    and each open run once.  A run is written by an insert into a stored
    triple's set, or handed to _from_runs with the other runs of a triple
    new to the store."""
    counts: Counter = Counter()
    _count_calls(monkeypatch, counts, "materialize", AnnotatedStore, "materialize")
    for cls in (ExtensionSet, IntervalSet):
        _count_calls(monkeypatch, counts, "contains", cls, "contains")
        _count_calls(monkeypatch, counts, "written", cls, "insert")
        from_runs = cls._from_runs

        def counted_from_runs(runs, from_runs=from_runs):
            counts["written"] += len(runs)
            return from_runs(runs)

        monkeypatch.setattr(cls, "_from_runs", staticmethod(counted_from_runs))
    commit_runs: dict[int, int] = {}
    apply_commit = AnnotatedStore.apply_commit

    def counted_apply(self, *args, **kwargs):
        before = counts["written"]
        seq = apply_commit(self, *args, **kwargs)
        commit_runs[seq] = counts["written"] - before
        return seq

    monkeypatch.setattr(AnnotatedStore, "apply_commit", counted_apply)
    first_read_runs, reread_runs = [], []
    for n in (10, 40):
        params = ScenarioParams(
            buildings=30, stations=6, versions=n, branch_prob=0.0, churn=0.1, seed=n
        )
        generate(params, tmp_path / f"linear{n}")
        counts.clear()
        commit_runs.clear()
        store, dag = load_repository(tmp_path / f"linear{n}", encoding=encoding)
        save_repository(store, dag, tmp_path / f"saved{n}")
        assert counts["materialize"] == 0
        assert counts["contains"] == 0
        # nothing is read during the replay, so no commit writes a run: each
        # removal closes one run, which waits for the first read
        assert commit_runs == dict.fromkeys(range(n), 0)
        assert len(store._closed) == sum(len(store.delta(v).removals) for v in range(n))
        # the first read writes each closed run and each open run once
        closed, open_runs = len(store._closed), len(store._open)
        counts.clear()
        store.stats()
        assert counts["written"] == closed + open_runs and store._closed == []
        first_read_runs.append(counts["written"])
        # those runs are written now: closing three of them writes nothing,
        # and the next read writes only the open runs' new version
        leaving = frozenset(sorted(store.delta(n - 1).additions, key=str)[:3])
        store.apply_commit(dag, [n - 1], "main", Delta(frozenset(), leaving))
        assert len(leaving) == 3 and commit_runs[n] == 0
        counts.clear()
        store.stats()
        reread_runs.append(counts["written"])
    # churn edits ceil(0.1 x 72) values in place, and every version holds the
    # root's 72 triples: each commit after the root closes 8 runs
    assert first_read_runs == [8 * 9 + 72, 8 * 39 + 72]
    assert reread_runs == [69, 69]


def test_a_load_commits_each_record_once_and_a_write_parses_the_manifest_once(
    tmp_path, monkeypatch, capsys
):
    repo = tmp_path / "repo"
    generate(ScenarioParams(buildings=5, stations=2, versions=6, branch_prob=0.0,
                            churn=0.1, seed=3), repo)
    counts: Counter = Counter()
    _count_calls(monkeypatch, counts, "commit", VersionDag, "commit")
    _count_calls(monkeypatch, counts, "loads", json, "loads")
    store, dag = load_repository(repo)
    assert counts == {"commit": 6, "loads": 1}
    patch = tmp_path / "one.patch"
    patch.write_text('A <urn:a> <urn:p> "x" .\n', encoding="utf-8")
    for versions, argv in ((6, ["commit", "--branch", "main", "--patch", str(patch)]),
                           (7, ["merge", "--branch", "main", "--from", "2"])):
        counts.clear()
        assert vg([argv[0], "--repo", str(repo), *argv[1:]]) == 0
        # the load commits each record once, then the command its new commit
        assert counts == {"commit": versions + 1, "loads": 1}
    capsys.readouterr()


@pytest.mark.parametrize("other", ["appended", "rewritten"])
def test_a_loaded_history_is_not_saved_over_another_writer_s(tmp_path, other):
    """A save that finds other manifest bytes than its load read checks the
    history they list, and refuses it."""
    repo = tmp_path / "r"
    save_repository(*random_repo(random.Random(27)), repo)
    store, dag = load_repository(repo)
    if other == "appended":
        theirs, their_dag = load_repository(repo)
        theirs.apply_commit(their_dag, [their_dag.branch_head("main")], "main",
                            EMPTY_DELTA, message="theirs")
        save_repository(theirs, their_dag, repo)
    else:  # the same number of commits, one with another message
        path = repo / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["commits"][1]["message"] = "rewritten"
        path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    before = _files(repo)
    store.apply_commit(dag, [dag.branch_head("main")], "main", EMPTY_DELTA, message="ours")
    with pytest.raises(StateError, match="new directory"):
        save_repository(store, dag, repo)
    assert _files(repo) == before


def _replay_states(source: AnnotatedStore, source_dag: VersionDag, dag: VersionDag):
    """Replay source's recorded history onto dag; return the store and what
    it keeps after each commit, then after the replay."""
    store = AnnotatedStore(source.dictionary, source.encoding)
    states = []

    def kept():
        return (dict(store._open), list(store._closed), store._written,
                list(store._steps))

    def history():
        for meta in source_dag.commits():
            yield meta, source.delta(meta.seq)
            states.append((*kept(), store.delta(meta.seq)))

    replay(store, dag, history(), source_dag.branches)
    states.append(kept())
    return store, states


@given(st.integers(0, 10_000), st.sampled_from(["extension", "interval"]))
@settings(max_examples=30, deadline=None)
def test_a_replay_onto_the_loaded_dag_keeps_what_one_onto_an_empty_dag_keeps(seed, encoding):
    source, source_dag = random_repo(
        random.Random(seed), encoding=encoding, max_versions=16, allow_blanks=True
    )
    with tempfile.TemporaryDirectory() as tmp:
        save_repository(source, source_dag, tmp)
        loaded = read_history(tmp)
        on_empty, empty_states = _replay_states(source, source_dag, VersionDag())
        on_loaded, loaded_states = _replay_states(source, source_dag, loaded)
        assert loaded_states == empty_states
        assert loaded.commits() == source_dag.commits()
        assert loaded.branches == source_dag.branches
        store, dag = load_repository(tmp, encoding=encoding)
        assert_versions_are_scans(store)
        repack(dag, store)
        assert_versions_are_scans(store)


def test_a_load_builds_no_term_and_writes_no_text(tmp_path):
    """A load interns the texts it reads as they are; a query that filters on
    ?h reads a term, and not into the dictionary, only for each ?h it compares.
    Blank labels that patches reuse across commits are read as labels too:
    the load builds no BlankNode, and a save writes the history back."""
    generate(ScenarioParams(buildings=40, stations=6, versions=60, branch_prob=0.0,
                            churn=0.05, seed=3), tmp_path / "repo")
    read = mock.patch.object(engine, "read_term", wraps=engine.read_term)
    with mock.patch.object(terms, "term_text", wraps=terms.term_text) as term_text:
        store, dag = load_repository(tmp_path / "repo")
        assert term_text.call_count == 0
        assert len(store.dictionary) > 0 and store.dictionary._terms == {}
        height = store.dictionary.lookup(Iri("http://ex.org/height"))
        heights = {t.o for t, _ in store.match(None, height, None)}
        query = parse_query("PREFIX ex: <http://ex.org/> SELECT ?b ?h WHERE "
                            "{ GRAPH ?v { ?b ex:height ?h } FILTER (?h > 50.0) }")
        with read as read_term:
            assert eval_annotated(store, dag, query).texts
        assert read_term.call_count == len(heights) > 0
        assert store.dictionary._terms == {}

    blanks = tmp_path / "blanks"
    patches = ['A _:n <urn:p> _:m .\nA _:m <urn:p> "x" .\n',
               'A _:n <urn:q> <urn:x> .\nD _:m <urn:p> "x" .\nA _:k <urn:p> _:n .\n',
               'A _:m <urn:q> _:n .\nD _:k <urn:p> _:n .\n']
    for i, text in enumerate(patches):
        (tmp_path / f"{i}.patch").write_text(text)
        argv = ["init"] if i == 0 else ["commit", "--branch", "main"]
        assert vg([*argv, "--repo", str(blanks), "--patch", str(tmp_path / f"{i}.patch")]) == 0
    with mock.patch.object(ntriples, "BlankNode", wraps=ntriples.BlankNode) as blank_node:
        store, dag = load_repository(blanks)
    assert blank_node.call_count == 0
    assert store.dictionary._terms == {}
    save_repository(store, dag, tmp_path / "resaved")
    saved = _files(blanks)
    assert saved.pop(".vglock") == b""  # the CLI's lock file, which a save does not write
    assert b"A _:m <urn:q> _:n ." in saved["deltas/2.patch"]  # the labels of commit 0
    assert _files(tmp_path / "resaved") == saved


@pytest.mark.parametrize("fail", [False, True])
def test_a_load_and_a_command_leave_the_collector_as_they_found_it(tmp_path, fail):
    generate(ScenarioParams(buildings=5, stations=2, versions=3, branch_prob=0.0,
                            churn=0.1, seed=3), tmp_path / "repo")
    if fail:
        (tmp_path / "repo" / "deltas" / "1.patch").write_text("A <urn:a> .\n")
    before = (gc.isenabled(), gc.get_threshold())
    try:
        gc.set_threshold(500, 7, 9)
        expected = (gc.isenabled(), gc.get_threshold())
        if fail:
            with pytest.raises(RepositoryError):
                load_repository(tmp_path / "repo")
        else:
            load_repository(tmp_path / "repo")
        assert (gc.isenabled(), gc.get_threshold()) == expected
        query = "SELECT ?s WHERE { ?s ?p ?o }"
        code = vg(["query", "--repo", str(tmp_path / "repo"), "--inline", query])
        assert code == (2 if fail else 0)
        assert (gc.isenabled(), gc.get_threshold()) == expected
    finally:
        gc.set_threshold(*before[1])
