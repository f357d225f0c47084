"""Patch format and repository save/load round trips."""

import json
import random
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vgstore import (
    Delta,
    Dictionary,
    Iri,
    RepositoryError,
    ValidationError,
    load_repository,
    parse_patch,
    repack,
    save_repository,
    serialize_ntriples,
    serialize_patch,
)
from vgstore.bench import ScenarioParams, generate
from vgstore.cli import run as vg
from vgstore.store import AnnotatedStore
from vgstore.versionsets import ExtensionSet, IntervalSet

from helpers import random_repo, reference_delta


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


def test_manifest_parent_not_smaller(tmp_path):
    def mutate(m):
        m["commits"][2]["parents"] = [2]

    with pytest.raises(RepositoryError, match="parents"):
        load_repository(corrupt(tmp_path, mutate))


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


def _head_bool(m, tmp_path):
    m["branches"]["main"] = True


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
        pytest.param(_set(0, "branch", "dev"), "root", id="root-branch"),
        pytest.param(_head_bool, "branch map", id="head-bool"),
    ],
)
def test_manifest_field_types_and_patch_path(tmp_path, capsys, mutate, fragment):
    outdir = corrupt(tmp_path, lambda m: mutate(m, tmp_path))
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


@given(st.integers(0, 10_000), st.sampled_from(["extension", "interval"]), st.booleans())
@settings(max_examples=30, deadline=None)
def test_save_writes_the_reference_patch_of_every_version(seed, encoding, repacked):
    store, dag = random_repo(random.Random(seed), encoding=encoding, allow_blanks=True)
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
    """On a linear history a commit writes only the runs its removals close."""
    counts: Counter = Counter()
    _count_calls(monkeypatch, counts, "materialize", AnnotatedStore, "materialize")
    for cls in (ExtensionSet, IntervalSet):
        _count_calls(monkeypatch, counts, "contains", cls, "contains")
        _count_calls(monkeypatch, counts, "insert", cls, "insert")
    inserts: dict[int, int] = {}
    apply_commit = AnnotatedStore.apply_commit

    def counted_apply(self, *args, **kwargs):
        before = counts["insert"]
        seq = apply_commit(self, *args, **kwargs)
        inserts[seq] = counts["insert"] - before
        return seq

    monkeypatch.setattr(AnnotatedStore, "apply_commit", counted_apply)
    last_inserts, read_inserts = [], []
    for n in (10, 40):
        params = ScenarioParams(
            buildings=30, stations=6, versions=n, branch_prob=0.0, churn=0.1, seed=n
        )
        generate(params, tmp_path / f"linear{n}")
        counts.clear()
        inserts.clear()
        store, dag = load_repository(tmp_path / f"linear{n}", encoding=encoding)
        save_repository(store, dag, tmp_path / f"saved{n}")
        assert counts["materialize"] == 0
        assert counts["contains"] == 0
        assert len(inserts) == n
        # nothing is read during the replay, so each removal closes one
        # unwritten run with one insert, and nothing else is written
        assert [inserts[v] for v in range(n)] == [
            len(store.delta(v).removals) for v in range(n)
        ]
        last_inserts.append(inserts[n - 1])
        # the first read writes each open run once: one insert per triple
        # of the last version
        counts.clear()
        store.stats()
        read_inserts.append(counts["insert"])
        # those runs are written now, so closing them writes nothing
        leaving = frozenset(sorted(store.delta(n - 1).additions, key=str)[:3])
        store.apply_commit(dag, [n - 1], "main", Delta(frozenset(), leaving))
        assert len(leaving) == 3 and inserts[n] == 0
    # churn edits ceil(0.1 x 72) values in place, and every version holds the
    # root's 72 triples
    assert last_inserts == [8, 8]
    assert read_inserts == [72, 72]
