"""End-to-end command-line sessions driven through run(argv).

Everything goes through the public entry point: no reaching into command
internals, and byte-level comparisons against the library wherever the
output is specified to round-trip.
"""

import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from vgstore import format_triple, load_repository, parse_patch, save_repository, serialize_ntriples
from vgstore.bench import QUERIES, REPORT_HEADER, ScenarioParams, generate
import vgstore.cli
import vgstore.repo
from vgstore.repo import read_history
from vgstore.store import AnnotatedStore, TripleIndex
from vgstore.versionsets import ExtensionSet, IntervalSet, set_class
from vgstore.cli import run as vg

from helpers import INVALID_CONSTANTS, assert_versions_are_scans

XSD = "http://www.w3.org/2001/XMLSchema#"
BOOL = f"^^<{XSD}boolean>"
DEC = f"^^<{XSD}decimal>"


def stmt(s, p, o):
    return f"<urn:ex:{s}> <urn:ex:{p}> {o} ."


CITY0 = "\n".join([
    "A " + stmt("st1", "type0", "<urn:ex:Station>"),
    "A " + stmt("st1", "accessible", f'"true"{BOOL}'),
    "A " + stmt("b1", "height", f'"10.5"{DEC}'),
]) + "\n"

CITY1 = "\n".join([
    "D " + stmt("st1", "accessible", f'"true"{BOOL}'),
    "A " + stmt("st1", "accessible", f'"false"{BOOL}'),
]) + "\n"

SIDE = "A " + stmt("b2", "height", f'"7.5"{DEC}') + "\n"

ACCESSIBLE_Q = (
    "SELECT ?v WHERE { GRAPH ?v { "
    "?st <urn:ex:type0> <urn:ex:Station> . "
    f'?st <urn:ex:accessible> "true"{BOOL} '
    "} }"
)


def ok(capsys, *argv):
    code = vg(list(argv))
    out, err = capsys.readouterr()
    assert code == 0, err
    return out


def fails(capsys, expected_code, *argv):
    code = vg(list(argv))
    _out, err = capsys.readouterr()
    assert code == expected_code, err
    return err


@pytest.fixture
def patches(tmp_path):
    paths = {}
    for name, text in [("city0", CITY0), ("city1", CITY1), ("side", SIDE)]:
        p = tmp_path / f"{name}.patch"
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


@pytest.fixture
def repo(tmp_path, capsys, patches):
    """Four versions: 0 -> 1 on main, 2 on side (from 0), 3 = merge of 1+2."""
    r = str(tmp_path / "r")
    ok(capsys, "init", "--repo", r, "--patch", patches["city0"],
       "-m", "seed city", "--author", "alice",
       "--code-ref", "gen:1", "--tool", "gen")
    ok(capsys, "commit", "--repo", r, "--branch", "main",
       "--patch", patches["city1"], "-m", "toggle access", "--author", "alice")
    ok(capsys, "branch", "--repo", r, "side", "--at", "0")
    ok(capsys, "commit", "--repo", r, "--branch", "side",
       "--patch", patches["side"], "-m", "new building")
    ok(capsys, "merge", "--repo", r, "--branch", "main", "--from", "2")
    return r


def test_command_confirmations(tmp_path, capsys, patches):
    r = str(tmp_path / "r")
    out = ok(capsys, "init", "--repo", r, "--patch", patches["city0"])
    assert out == f"initialized {r} at urn:vg:version:0\n"
    out = ok(capsys, "commit", "--repo", r, "--branch", "main",
             "--patch", patches["city1"])
    assert out == "committed urn:vg:version:1 on main\n"
    out = ok(capsys, "branch", "--repo", r, "side", "--at", "0")
    assert out == "created branch side at urn:vg:version:0\n"
    out = ok(capsys, "commit", "--repo", r, "--branch", "side",
             "--patch", patches["side"])
    assert out == "committed urn:vg:version:2 on side\n"
    out = ok(capsys, "merge", "--repo", r, "--branch", "main", "--from", "2")
    assert out == "merged as urn:vg:version:3 on main\n"


def test_checkout_matches_library_serialization(repo, capsys):
    store, _dag = load_repository(repo)
    for v in range(4):
        out = ok(capsys, "checkout", "--repo", repo, "--version", str(v))
        assert out == serialize_ntriples(store.materialize(v), store.dictionary)


def test_init_checkout_round_trips_the_patch(tmp_path, capsys, patches):
    r = str(tmp_path / "r")
    ok(capsys, "init", "--repo", r, "--patch", patches["city0"])
    out = ok(capsys, "checkout", "--repo", r, "--version", "0")
    store, _dag = load_repository(r)
    delta = parse_patch(CITY0, store.dictionary)
    assert out == serialize_ntriples(set(delta.additions), store.dictionary)


def test_checkout_to_file(repo, tmp_path, capsys):
    target = tmp_path / "v3.nt"
    out = ok(capsys, "checkout", "--repo", repo, "--version", "3",
             "--out", str(target))
    assert out == f"wrote {target}\n"
    piped = ok(capsys, "checkout", "--repo", repo, "--version", "3")
    assert target.read_text(encoding="utf-8") == piped


def test_query_tsv_over_all_versions(repo, capsys):
    out = ok(capsys, "query", "--repo", repo, "--inline", ACCESSIBLE_Q)
    assert out == (
        "?v\n"
        "<urn:vg:version:0>\n"
        "<urn:vg:version:2>\n"
        "<urn:vg:version:3>\n"
    )


def test_query_heads_domain(repo, capsys):
    out = ok(capsys, "query", "--repo", repo, "--inline", ACCESSIBLE_Q,
             "--versions", "heads")
    assert out == "?v\n<urn:vg:version:2>\n<urn:vg:version:3>\n"


def test_query_evaluators_agree_byte_for_byte(repo, capsys):
    runs = {}
    for evaluator in ("annotated", "checkout"):
        for fmt in ("tsv", "csv"):
            runs[evaluator, fmt] = ok(
                capsys, "query", "--repo", repo, "--inline", ACCESSIBLE_Q,
                "--evaluator", evaluator, "--format", fmt,
            )
    assert runs["annotated", "tsv"] == runs["checkout", "tsv"]
    assert runs["annotated", "csv"] == runs["checkout", "csv"]
    assert runs["annotated", "csv"] == (
        "v\r\n"
        "urn:vg:version:0\r\n"
        "urn:vg:version:2\r\n"
        "urn:vg:version:3\r\n"
    )


def test_query_from_file(repo, tmp_path, capsys):
    qfile = tmp_path / "q.rq"
    qfile.write_text(ACCESSIBLE_Q, encoding="utf-8")
    assert ok(capsys, "query", "--repo", repo, "--file", str(qfile)) == ok(
        capsys, "query", "--repo", repo, "--inline", ACCESSIBLE_Q
    )


def test_query_with_no_matches_prints_header_only(repo, capsys):
    out = ok(capsys, "query", "--repo", repo, "--inline",
             "SELECT ?v WHERE { GRAPH ?v { <urn:x> <urn:p> <urn:o> } }")
    assert out == "?v\n"


@pytest.mark.parametrize("encoding", ["extension", "interval"])
@pytest.mark.parametrize("evaluator", ["annotated", "checkout"])
def test_min_or_max_over_a_lone_unparsed_number_prints_header_only(
    tmp_path, capsys, encoding, evaluator
):
    """A numeric literal that does not parse is incomparable with itself, so
    a group holding only it is dropped, as a group with an incomparable pair
    is."""
    repo, patch = str(tmp_path / "r"), tmp_path / "p.patch"
    patch.write_text(f'A <urn:a> <urn:h> "NaN"^^<{XSD}double> .\n', encoding="utf-8")
    ok(capsys, "init", "--repo", repo, "--patch", str(patch))
    for func in ("MIN", "MAX"):
        out = ok(capsys, "query", "--repo", repo, "--encoding", encoding,
                 "--evaluator", evaluator, "--inline",
                 f"SELECT ({func}(?h) AS ?m) WHERE {{ GRAPH ?v {{ ?s <urn:h> ?h }} }}")
        assert out == "?m\n"


def test_an_internal_fault_exits_4_not_the_usage_code(repo, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(vgstore.cli, "_cmd_log", broken)
    err = fails(capsys, 4, "log", "--repo", repo)
    assert err == "vg: internal error: RuntimeError: boom\n"


def test_a_command_leaves_no_cyclic_garbage(repo, tmp_path, capsys, monkeypatch):
    """With one parser per process, reference counting frees all that a
    command which reaches its handler built, whatever exit it takes."""
    patch = tmp_path / "new.patch"
    patch.write_text("A " + stmt("b3", "height", f'"3.5"{DEC}') + "\n", encoding="utf-8")

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(vgstore.cli, "_cmd_stats", broken)
    cases = [
        (0, ["query", "--repo", repo, "--inline", ACCESSIBLE_Q]),
        (0, ["commit", "--repo", repo, "--branch", "main", "--patch", str(patch)]),
        (0, ["log", "--repo", repo]),
        (2, ["log", "--repo", str(tmp_path / "nowhere")]),
        (3, ["query", "--repo", repo, "--inline", "SELECT ?v WHERE {"]),
        (4, ["stats", "--repo", repo]),
    ]
    for code, argv in cases:
        gc.collect()
        assert vg(argv) == code
        assert gc.collect() == 0, argv
    capsys.readouterr()


def test_two_runs_build_the_parser_once(repo, capsys):
    vgstore.cli._parser.cache_clear()
    ok(capsys, "log", "--repo", repo)
    fails(capsys, 1, "log")
    info = vgstore.cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("command", [None, "init", "commit", "branch", "merge", "checkout",
                                     "query", "log", "stats", "bench"])
def test_help_from_the_shared_parser_matches_a_fresh_parser(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    fails(capsys, 1, "log")  # the shared parser has parsed before
    assert vg(argv) == 0
    shared = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        vgstore.cli.build_parser().parse_args(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == shared and shared.out.startswith("usage: vg")


def test_vg_runs_a_command_with_a_first_generation_threshold_of_50000(repo, capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(vgstore.cli, "_cmd_log",
                        lambda args: seen.append(gc.get_threshold()[0]) or 0)
    monkeypatch.setattr(gc, "freeze", lambda: None)  # leave this process's objects collectable
    monkeypatch.setattr(sys, "argv", ["vg", "log", "--repo", repo])
    threshold = gc.get_threshold()
    try:
        with pytest.raises(SystemExit) as exc:
            vgstore.cli.main()
    finally:
        gc.set_threshold(*threshold)
    assert exc.value.code == 0 and seen == [50_000]


def test_nested_and_concurrent_runs_share_the_parser(repo, tmp_path, capsys, monkeypatch):
    """A handler that runs other commands, and two threads running commands
    at once, get the exit codes of a serial run and leave the collector as
    they found it."""
    argvs = [
        ["query", "--repo", repo, "--inline", ACCESSIBLE_Q],
        ["log", "--repo", repo],
        ["log"],
        ["checkout", "--repo", str(tmp_path / "nowhere"), "--version", "0"],
        ["query", "--repo", repo, "--inline", "SELECT ?v WHERE {"],
    ]
    serial = [vg(argv) for argv in argvs]
    assert serial == [0, 0, 1, 2, 3]
    stats = vgstore.cli._cmd_stats
    nested = []

    def stats_running_others(args):
        nested.extend(vg(argv) for argv in argvs)
        return stats(args)

    monkeypatch.setattr(vgstore.cli, "_cmd_stats", stats_running_others)
    collector = (gc.isenabled(), gc.get_threshold())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert vg(["stats", "--repo", repo]) == 0
        assert nested == serial
        barrier = threading.Barrier(2, timeout=30)
        codes: dict[int, list[int]] = {0: [], 1: []}

        def commands(i):
            barrier.wait()
            codes[i].extend(vg(argv) for argv in argvs * 4)

        threads = [threading.Thread(target=commands, args=(i,)) for i in codes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert codes == {0: serial * 4, 1: serial * 4}
    finally:
        sys.setswitchinterval(interval)
    assert (gc.isenabled(), gc.get_threshold()) == collector
    capsys.readouterr()


def test_log_is_newest_first_with_branch_markers(repo, capsys):
    out = ok(capsys, "log", "--repo", repo)
    headers = [l for l in out.splitlines() if l.startswith("commit ")]
    assert headers == [
        "commit urn:vg:version:3 [main]",
        "commit urn:vg:version:2 [side]",
        "commit urn:vg:version:1",
        "commit urn:vg:version:0",
    ]
    blocks = out.split("\n\n")
    assert len(blocks) == 4
    assert "parents:  urn:vg:version:1 urn:vg:version:2" in blocks[0]
    assert "message:  merge urn:vg:version:2 into main" in blocks[0]
    assert "parents:  (root)" in blocks[3]
    assert out.count("code-ref: gen:1") == 1
    assert out.count("tool:     gen") == 1
    for line in out.splitlines():
        if line.startswith("date:"):
            assert line.endswith("Z")


def test_init_commit_and_merge_record_the_utc_time_of_the_command(tmp_path, capsys, patches):
    """The dag stamps each commit with UTC now: a version's timestamp falls
    between two clock reads taken around the command that made it."""
    r = str(tmp_path / "r")

    def timed(*argv):
        before = datetime.now(timezone.utc)
        ok(capsys, *argv)
        return before, datetime.now(timezone.utc)

    windows = {
        0: timed("init", "--repo", r, "--patch", patches["city0"]),
        1: timed("commit", "--repo", r, "--branch", "main", "--patch", patches["city1"]),
    }
    ok(capsys, "branch", "--repo", r, "side", "--at", "0")
    windows[2] = timed("commit", "--repo", r, "--branch", "side", "--patch", patches["side"])
    windows[3] = timed("merge", "--repo", r, "--branch", "main", "--from", "2")
    _store, dag = load_repository(r)
    for seq, (before, after) in windows.items():
        stamp = dag.commit_meta(seq).timestamp
        assert stamp.utcoffset() == timedelta(0)
        assert before <= stamp <= after


def test_stats_reports_the_five_counters(repo, capsys):
    out = ok(capsys, "stats", "--repo", repo)
    lines = out.splitlines()
    assert [l.split(":")[0] for l in lines] == [
        "encoding",
        "distinct_triples",
        "versions",
        "scalar_cost_total",
        "triples_sum_over_versions",
    ]
    values = dict(l.split(": ") for l in lines)
    assert values["encoding"] == "extension"
    assert values["distinct_triples"] == "5"
    assert values["versions"] == "4"
    # extension scalar cost is exactly the per-version triple total: 3+3+4+5
    assert values["scalar_cost_total"] == "15"
    assert values["triples_sum_over_versions"] == "15"


def test_stats_with_interval_encoding(repo, capsys):
    out = ok(capsys, "stats", "--repo", repo, "--encoding", "interval")
    lines = dict(l.split(": ") for l in out.splitlines())
    assert lines["encoding"] == "interval"
    assert lines["triples_sum_over_versions"] == "15"
    assert int(lines["scalar_cost_total"]) < 15


def test_commit_with_explicit_parents_makes_a_merge(repo, tmp_path, capsys):
    extra = tmp_path / "extra.patch"
    extra.write_text("A " + stmt("b3", "height", f'"9.0"{DEC}') + "\n",
                     encoding="utf-8")
    out = ok(capsys, "commit", "--repo", repo, "--branch", "main",
             "--patch", str(extra), "--parent", "1", "--parent", "2")
    assert out == "committed urn:vg:version:4 on main\n"
    store, dag = load_repository(repo)
    assert dag.commit_meta(4).parents == (1, 2)
    merged = store.materialize(1) | store.materialize(2)
    assert store.materialize(4) > merged  # union plus the new building


def test_commit_with_a_parent_moves_the_branch_off_its_old_head(tmp_path, capsys):
    """--parent moves the branch to the new commit whatever its old head
    was, so the old head can be left on no branch."""
    params = ScenarioParams(buildings=6, stations=3, versions=2, branch_prob=0.0, churn=0.3)
    generate(params, tmp_path / "gen")
    station = tmp_path / "station.patch"
    station.write_text(
        "A <http://ex.org/st9> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
        "<http://ex.org/MetroStation> .\n"
        f'A <http://ex.org/st9> <http://ex.org/accessible> "true"{BOOL} .\n',
        encoding="utf-8",
    )
    r = str(tmp_path / "r")
    ok(capsys, "init", "--repo", r, "--patch", str(tmp_path / "gen" / "deltas" / "0.patch"))
    ok(capsys, "commit", "--repo", r, "--branch", "main",
       "--patch", str(tmp_path / "gen" / "deltas" / "1.patch"))
    out = ok(capsys, "commit", "--repo", r, "--branch", "main", "--parent", "0",
             "--patch", str(station))
    assert out == "committed urn:vg:version:2 on main\n"
    store, dag = load_repository(r)
    assert dag.branches == {"main": 2} and dag.commit_meta(2).parents == (0,)
    assert_versions_are_scans(store)
    out = ok(capsys, "query", "--repo", r, "--inline", "SELECT ?v WHERE { GRAPH ?v { } }",
             "--versions", "heads")
    assert out == "?v\n<urn:vg:version:2>\n"
    for encoding in ("extension", "interval"):
        for text, versions in QUERIES.values():
            args = ("query", "--repo", r, "--inline", text, "--versions", versions,
                    "--encoding", encoding)
            annotated = ok(capsys, *args)
            assert annotated == ok(capsys, *args, "--evaluator", "checkout")


def test_strict_commit_rejects_spurious_removal(repo, tmp_path, capsys):
    ghost = tmp_path / "ghost.patch"
    ghost.write_text("D " + stmt("ghost", "p", "<urn:ex:o>") + "\n",
                     encoding="utf-8")
    err = fails(capsys, 2, "commit", "--repo", repo, "--branch", "main",
                "--patch", str(ghost))
    assert "removal" in err
    store, dag = load_repository(repo)
    assert len(dag) == 4  # nothing was committed
    out = ok(capsys, "commit", "--repo", repo, "--branch", "main",
             "--patch", str(ghost), "--permissive")
    assert out == "committed urn:vg:version:4 on main\n"


def test_commit_removes_loaded_terms_and_builds_no_index(tmp_path, capsys, patches, monkeypatch):
    """vg commit reads its patch in the loaded history's scope: the
    removal's terms keep their ids, spelled however the patch spells them;
    and a commit on a linear history reads nothing, so it builds no index
    permutation."""
    repo = str(tmp_path / "r")
    ok(capsys, "init", "--repo", repo, "--patch", patches["city0"])
    ok(capsys, "commit", "--repo", repo, "--branch", "main", "--patch", patches["city1"])
    terms = len(load_repository(repo)[0].dictionary)
    edit = tmp_path / "edit.patch"
    edit.write_text(
        f'# spelled otherwise\r\n\r\nD\t<urn:ex:\\u0062\\u0031>\t<urn:ex:height>"10.5"{DEC}.\r\n',
        encoding="utf-8",
    )
    built: list = []
    permutation = TripleIndex._permutation

    def recorded_permutation(self, name):
        built.append(name)
        return permutation(self, name)

    monkeypatch.setattr(TripleIndex, "_permutation", recorded_permutation)
    ok(capsys, "commit", "--repo", repo, "--branch", "main", "--patch", str(edit))
    assert built == []
    monkeypatch.undo()
    store, _dag = load_repository(repo)
    assert len(store.dictionary) == terms
    gone = store.materialize(1) - store.materialize(2)
    assert [format_triple(x, store.dictionary) + " ." for x in gone] == [
        stmt("b1", "height", f'"10.5"{DEC}')
    ]


@pytest.mark.parametrize("encoding", ["extension", "interval"])
def test_a_commit_onto_a_saved_history_builds_no_version_set(
    tmp_path, capsys, monkeypatch, encoding
):
    """vg commit replays the history without writing a run or constructing a
    VersionSet; a later load's first read writes the sets one replay that
    wrote every run at once would hold."""
    repo = tmp_path / "r"
    generate(ScenarioParams(buildings=20, stations=6, versions=12, branch_prob=0.0,
                            churn=0.1, seed=9), repo)
    store, dag = load_repository(repo)
    gone = min(format_triple(x, store.dictionary) for x in store.materialize(11))
    edit = tmp_path / "edit.patch"
    edit.write_text(f"D {gone} .\nA <urn:ex:new> <urn:ex:p> \"v\" .\n", encoding="utf-8")
    counts = {"insert": 0, "construct": 0}
    for cls in (ExtensionSet, IntervalSet):
        for name, attr in (("insert", "insert"), ("construct", "__init__")):
            def counted(self, *args, _original=getattr(cls, attr), _name=name):
                counts[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, attr, counted)
    ok(capsys, "commit", "--repo", str(repo), "--branch", "main", "--patch", str(edit),
       "--encoding", encoding)
    assert counts == {"insert": 0, "construct": 0}
    monkeypatch.undo()
    store, dag = load_repository(repo, encoding=encoding)
    assert len(dag) == 13 and store._sets == {}
    content: dict[int, set] = {}
    for meta in dag.commits():
        delta = store.delta(meta.seq)
        union = set().union(*(content[p] for p in meta.parents))
        content[meta.seq] = (union - delta.removals) | delta.additions
    versions: dict = {}
    for v, triples in content.items():
        for x in triples:
            versions.setdefault(x, []).append(v)
    cls = set_class(encoding)
    assert dict(store.match()) == {x: cls.from_iterable(vs) for x, vs in versions.items()}


def test_commit_and_merge_patches_name_the_history_s_blank_nodes(tmp_path, capsys):
    """A blank label the history holds names that node in a later patch; a
    new label is kept as written."""
    repo, patch = str(tmp_path / "r"), tmp_path / "p.patch"

    def commit(text, *extra, code=0):
        patch.write_text(text, encoding="utf-8")
        argv = ("commit", "--repo", repo, "--branch", "main", "--patch", str(patch), *extra)
        return fails(capsys, code, *argv) if code else ok(capsys, *argv)

    patch.write_text('A _:b <urn:p> "x" .\n', encoding="utf-8")
    ok(capsys, "init", "--repo", repo, "--patch", str(patch))
    commit('D _:b <urn:p> "x" .\nA _:b <urn:q> "y" .\nA _:new <urn:q> "z" .\n')
    store, dag = load_repository(repo)
    assert serialize_ntriples(store.materialize(1), store.dictionary) == (
        '_:b <urn:q> "y" .\n_:new <urn:q> "z" .\n'
    )
    assert (Path(repo) / "deltas" / "1.patch").read_text(encoding="utf-8") == (
        'D _:b <urn:p> "x" .\nA _:b <urn:q> "y" .\nA _:new <urn:q> "z" .\n'
    )
    # a strict removal of a blank node the history lacks is still refused
    err = commit('D _:other <urn:q> "y" .\n', code=2)
    assert "removal(s) not present" in err and "_:other" in err
    # a merge reads its patch in the same scope
    patch.write_text('D _:b <urn:p> "x" .\n', encoding="utf-8")
    ok(capsys, "merge", "--repo", repo, "--branch", "main", "--from", "0",
       "--patch", str(patch))
    store, dag = load_repository(repo)
    assert len(dag) == 3
    assert store.materialize(2) == store.materialize(1)


HEIGHTS_Q = "SELECT ?v ?b ?h WHERE { GRAPH ?v { ?b <urn:ex:height> ?h } }"


def _files(repo_dir):
    root = Path(repo_dir)
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture
def long_repo(tmp_path, capsys, patches):
    """Versions 0-3 on main, so version 1 is no head."""
    r = str(tmp_path / "long")
    ok(capsys, "init", "--repo", r, "--patch", patches["city0"])
    ok(capsys, "commit", "--repo", r, "--branch", "main", "--patch", patches["city1"])
    ok(capsys, "commit", "--repo", r, "--branch", "main", "--patch", patches["side"])
    tall = tmp_path / "tall.patch"
    tall.write_text("A " + stmt("b3", "height", f'"120.0"{DEC}') + "\n", encoding="utf-8")
    ok(capsys, "commit", "--repo", r, "--branch", "main", "--patch", str(tall))
    return r


def test_branch_from_an_old_version_commits_and_merges_back(
    long_repo, tmp_path, capsys, monkeypatch
):
    from vgstore.store import AnnotatedStore

    r = long_repo
    ok(capsys, "branch", "--repo", r, "side", "--at", "1")
    low = tmp_path / "low.patch"
    low.write_text("A " + stmt("b4", "height", f'"2.0"{DEC}') + "\n", encoding="utf-8")
    scans = []
    materialize = AnnotatedStore.materialize

    def counted(self, v):
        scans.append(v)
        return materialize(self, v)

    monkeypatch.setattr(AnnotatedStore, "materialize", counted)
    ok(capsys, "commit", "--repo", r, "--branch", "side", "--patch", str(low))
    assert scans == []  # a commit reads no version's content
    monkeypatch.undo()
    ok(capsys, "merge", "--repo", r, "--branch", "main", "--from", "4")
    _store, dag = load_repository(r)
    assert dag.commit_meta(5).parents == (3, 4)
    for encoding in ("extension", "interval"):
        for versions in ("all", "heads"):
            for q in (ACCESSIBLE_Q, HEIGHTS_Q):
                args = ("query", "--repo", r, "--inline", q, "--versions", versions,
                        "--encoding", encoding)
                annotated = ok(capsys, *args)
                assert annotated == ok(capsys, *args, "--evaluator", "checkout")
    out = ok(capsys, "query", "--repo", r, "--inline", HEIGHTS_Q, "--versions", "heads")
    assert out.splitlines()[1:] == [
        '<urn:vg:version:4>\t<urn:ex:b1>\t"10.5"^^<http://www.w3.org/2001/XMLSchema#decimal>',
        '<urn:vg:version:4>\t<urn:ex:b4>\t"2.0"^^<http://www.w3.org/2001/XMLSchema#decimal>',
        '<urn:vg:version:5>\t<urn:ex:b1>\t"10.5"^^<http://www.w3.org/2001/XMLSchema#decimal>',
        '<urn:vg:version:5>\t<urn:ex:b2>\t"7.5"^^<http://www.w3.org/2001/XMLSchema#decimal>',
        '<urn:vg:version:5>\t<urn:ex:b3>\t"120.0"^^<http://www.w3.org/2001/XMLSchema#decimal>',
        '<urn:vg:version:5>\t<urn:ex:b4>\t"2.0"^^<http://www.w3.org/2001/XMLSchema#decimal>',
    ]


def test_strict_removal_absent_from_an_old_branch_point_changes_nothing(
    long_repo, tmp_path, capsys
):
    r = long_repo
    ok(capsys, "branch", "--repo", r, "side", "--at", "1")
    before = _files(r)
    # b2 arrived in version 2, so version 1 does not hold it
    gone = tmp_path / "gone.patch"
    gone.write_text("D " + stmt("b2", "height", f'"7.5"{DEC}') + "\n", encoding="utf-8")
    err = fails(capsys, 2, "commit", "--repo", r, "--branch", "side", "--patch", str(gone))
    assert "removal" in err
    assert _files(r) == before
    ok(capsys, "commit", "--repo", r, "--branch", "main", "--patch", str(gone))


@pytest.mark.parametrize("escape", ["\\UFFFFFFFF", "\\uD800"])
def test_commit_with_an_escape_outside_unicode_fails_cleanly(repo, tmp_path, capsys, escape):
    before = _files(repo)
    bad = tmp_path / "bad.patch"
    bad.write_text("A " + stmt("b9", "name", f'"x{escape}"') + "\n", encoding="utf-8")
    err = fails(capsys, 2, "commit", "--repo", repo, "--branch", "main", "--patch", str(bad))
    assert "line 1" in err
    assert _files(repo) == before


def test_repeated_init_fails(repo, patches, capsys):
    err = fails(capsys, 2, "init", "--repo", repo, "--patch", patches["city0"])
    assert "already initialized" in err


def test_usage_errors_exit_1(tmp_path, capsys):
    r = str(tmp_path / "r")
    assert vg(["frobnicate", "--repo", r]) == 1
    assert vg([]) == 1
    assert vg(["checkout", "--repo", r]) == 1  # missing --version
    assert vg(["query", "--repo", r, "--file", "a", "--inline", "b"]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert vg(["-h"]) == 0
    out, _err = capsys.readouterr()
    assert "COMMAND" in out


def test_query_error_exits_3(repo, capsys):
    err = fails(capsys, 3, "query", "--repo", repo,
                "--inline", "SELECT ?v WHERE {")
    assert err.startswith("vg: query error:")


@pytest.mark.parametrize(
    "text", [pytest.param(text, id=name) for name, text, _ in INVALID_CONSTANTS]
)
def test_a_constant_outside_the_term_grammar_exits_3(repo, capsys, text):
    code = vg(["query", "--repo", repo, "--inline", text])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("vg: query error:") and "(line " in err


def test_a_query_iri_escape_names_the_term_a_patch_wrote(tmp_path, capsys):
    r = str(tmp_path / "r")
    patch = tmp_path / "a.patch"
    patch.write_text('A <urn:A> <urn:p> "x" .\n', encoding="utf-8")
    ok(capsys, "init", "--repo", r, "--patch", str(patch))
    out = ok(capsys, "query", "--repo", r, "--inline",
             "SELECT ?o WHERE { <urn:\\u0041> <urn:p> ?o }")
    assert out.splitlines()[1:] == ['"x"']
    assert out == ok(capsys, "query", "--repo", r, "--inline",
                     "SELECT ?o WHERE { <urn:A> <urn:p> ?o }")


def test_data_errors_exit_2(repo, tmp_path, capsys):
    err = fails(capsys, 2, "checkout", "--repo", repo, "--version", "99")
    assert err.startswith("vg: error:")
    fails(capsys, 2, "commit", "--repo", str(tmp_path / "nowhere"),
          "--branch", "main", "--patch", "x.patch")
    fails(capsys, 2, "commit", "--repo", repo, "--branch", "main",
          "--patch", str(tmp_path / "missing.patch"))


def test_importing_the_cli_leaves_the_bench_imports_out():
    """Only `vg bench` imports the bench module and what it pulls in."""
    code = (
        "import sys, vgstore.cli; "
        "print(*(m for m in ('random', 'statistics', 'hashlib', 'csv') if m in sys.modules))"
    )
    src = Path(vgstore.cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "\n"


# another process holding the repository's exclusive lock until its stdin
# closes, as a writer in the middle of a command does
_HOLD_LOCK = """
import fcntl, sys
with open(sys.argv[1], "a") as f:
    fcntl.flock(f, fcntl.LOCK_EX)
    print("held", flush=True)
    sys.stdin.read()
"""


def _lock_holder(repo):
    holder = subprocess.Popen(
        [sys.executable, "-c", _HOLD_LOCK, str(Path(repo) / ".vglock")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    assert holder.stdout.readline() == "held\n"
    return holder


def _reads(repo):
    return [
        ["query", "--repo", repo, "--inline", ACCESSIBLE_Q],
        ["log", "--repo", repo],
        ["stats", "--repo", repo],
        ["checkout", "--repo", repo, "--version", "1"],
        ["bench", "--repo", repo, "--runs", "3"],
    ]


def _writes(repo, patches):
    return [
        ["commit", "--repo", repo, "--branch", "main", "--patch", patches["side"]],
        ["branch", "--repo", repo, "other", "--at", "0"],
        ["merge", "--repo", repo, "--branch", "side", "--from", "1"],
        ["init", "--repo", repo, "--patch", patches["city0"]],
    ]


def test_locked_repository_fails_fast(repo, patches, capsys):
    before = _files(repo)
    with _lock_holder(repo) as holder:
        for argv in _writes(repo, patches):
            assert "locked" in fails(capsys, 2, *argv)
        holder.stdin.close()
        assert holder.wait() == 0
    assert _files(repo) == before
    ok(capsys, *_writes(repo, patches)[0])


def test_readers_run_while_a_writer_holds_the_lock(repo, capsys):
    with _lock_holder(repo) as holder:
        for argv in _reads(repo):
            ok(capsys, *argv)
        holder.stdin.close()
        assert holder.wait() == 0
    # readers take no lock, so they do not create the lock file either
    lock = Path(repo) / ".vglock"
    lock.unlink()
    for argv in _reads(repo):
        ok(capsys, *argv)
    assert not lock.exists()


def test_a_killed_lock_holder_leaves_the_repository_usable(repo, capsys):
    with _lock_holder(repo) as holder:
        holder.send_signal(signal.SIGKILL)
        assert holder.wait() == -signal.SIGKILL
    # the lock file stays behind, but the lock died with its holder
    assert (Path(repo) / ".vglock").is_file()
    ok(capsys, "branch", "--repo", repo, "other", "--at", "0")


def test_missing_patch_file_in_repo_dir(repo, capsys):
    victim = Path(repo) / "deltas" / "2.patch"
    victim.unlink()
    err = fails(capsys, 2, "stats", "--repo", repo)
    assert "2.patch" in err


@pytest.mark.parametrize("case", ["missing", "directory"])
@pytest.mark.parametrize("command", ["stats", "commit"])
def test_a_patch_that_is_no_file_is_reported_as_missing(repo, capsys, patches, case, command):
    victim = Path(repo) / "deltas" / "2.patch"
    victim.unlink()
    if case == "directory":
        victim.mkdir()
    argv = {"stats": ["stats", "--repo", repo],
            "commit": ["commit", "--repo", repo, "--branch", "main", "--patch", patches["side"]]}
    manifest = (Path(repo) / "manifest.json").read_bytes()
    code = vg(argv[command])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"vg: error: missing patch file: {victim}\n")
    assert (Path(repo) / "manifest.json").read_bytes() == manifest


def test_log_and_branch_read_only_the_manifest(repo, tmp_path, capsys, monkeypatch):
    """log and branch parse no patch and build no store, so neither needs deltas/;
    the manifest branch writes is the one a save of the loaded history writes."""
    sound = ok(capsys, "log", "--repo", repo)
    before = tmp_path / "before"
    shutil.copytree(repo, before)

    def boom(*args, **kwargs):
        raise AssertionError("a history-only command read a patch or built a store")

    with monkeypatch.context() as m:
        m.setattr(vgstore.repo, "parse_patch", boom)
        m.setattr(AnnotatedStore, "__init__", boom)
        assert ok(capsys, "log", "--repo", repo) == sound
        ok(capsys, "branch", "--repo", repo, "first", "--at", "1")
    deltas, aside = Path(repo) / "deltas", tmp_path / "deltas.aside"
    deltas.rename(aside)
    ok(capsys, "branch", "--repo", repo, "second", "--at", "2")
    assert not deltas.exists()
    aside.rename(deltas)
    with_branches = ok(capsys, "log", "--repo", repo)
    deltas.rename(aside)
    assert ok(capsys, "log", "--repo", repo) == with_branches
    aside.rename(deltas)
    store, dag = load_repository(before)
    dag.create_branch("first", at=1)
    dag.create_branch("second", at=2)
    save_repository(store, dag, before)
    assert _files(repo) == _files(before)


def _argv(command, repo):
    """A complete command line for each command, short of running it."""
    return {
        "init": ["init", "--repo", repo, "--patch", "p"],
        "commit": ["commit", "--repo", repo, "--branch", "main", "--patch", "p"],
        "merge": ["merge", "--repo", repo, "--branch", "main", "--from", "1"],
        "checkout": ["checkout", "--repo", repo, "--version", "0"],
        "query": ["query", "--repo", repo, "--inline", "q"],
        "stats": ["stats", "--repo", repo],
        "log": ["log", "--repo", repo],
        "branch": ["branch", "--repo", repo, "other", "--at", "0"],
        "bench": ["bench", "--repo", repo],
    }[command]


@pytest.mark.parametrize("command", ["log", "branch", "bench"])
def test_commands_that_build_no_chosen_store_take_no_encoding(repo, capsys, command):
    before = _files(repo)
    err = fails(capsys, 1, *_argv(command, repo), "--encoding", "extension")
    assert "unrecognized arguments: --encoding" in err
    assert _files(repo) == before


@pytest.mark.parametrize("command", ["init", "commit", "merge", "checkout", "query", "stats"])
def test_commands_that_build_a_store_take_an_encoding(command):
    args = vgstore.cli.build_parser().parse_args(
        _argv(command, "r") + ["--encoding", "interval"]
    )
    assert args.encoding == "interval"


NOT_UTF8 = b'A <urn:ex:b9> <urn:ex:name> "\xff" .\n'


@pytest.mark.parametrize("case", ["commit-patch", "query-file", "repo-patch", "manifest"])
def test_a_file_that_is_not_utf8_exits_2(repo, tmp_path, capsys, case):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    root = Path(repo)
    if case == "commit-patch":
        argv = ["commit", "--repo", repo, "--branch", "main", "--patch", str(bad)]
    elif case == "query-file":
        argv = ["query", "--repo", repo, "--file", str(bad)]
    elif case == "repo-patch":
        (root / "deltas" / "1.patch").write_bytes(NOT_UTF8)
        argv = ["stats", "--repo", repo]
    else:
        (root / "manifest.json").write_bytes(b"\xff" + (root / "manifest.json").read_bytes())
        argv = ["log", "--repo", repo]
    before = _files(repo)
    code = vg(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("vg: error:")
    # a refused commit leaves the patches and the manifest as they were
    assert _files(repo) == before
    if case in ("commit-patch", "query-file"):  # a file the command line names is named
        assert err.startswith(f"vg: error: {bad}: 'utf-8' codec can't decode byte 0xff")
    if case == "repo-patch":
        assert "1.patch" in err
    if case == "manifest":
        assert "unreadable manifest" in err


def test_a_timestamp_without_an_offset_is_read_as_utc(repo, capsys, monkeypatch):
    path = Path(repo) / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["commits"][1]["timestamp"] = "2026-01-01T00:01:00"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    expected = datetime(2026, 1, 1, 0, 1, tzinfo=timezone.utc)
    logs = []
    try:
        with monkeypatch.context() as m:
            for zone in ("Europe/Paris", "America/New_York"):
                m.setenv("TZ", zone)
                time.tzset()
                stamp = read_history(repo).commit_meta(1).timestamp
                assert stamp == expected and stamp.utcoffset() == timedelta(0)
                logs.append(ok(capsys, "log", "--repo", repo))
    finally:
        time.tzset()
    assert "date:     2026-01-01T00:01:00Z" in logs[0]
    assert logs[0] == logs[1]


def test_bench_subcommand_writes_a_report(tmp_path, capsys):
    r = tmp_path / "city"
    generate(ScenarioParams(buildings=3, stations=2, versions=3, seed=7), r)
    report = tmp_path / "report.csv"
    out = ok(capsys, "bench", "--repo", str(r), "--runs", "3",
             "--out", str(report))
    assert out == f"wrote {report}\n"
    lines = report.read_text(encoding="utf-8").splitlines()
    assert lines[0] == REPORT_HEADER
    assert len(lines) == 21  # 2 encodings x 2 evaluators x 5 queries
    piped = ok(capsys, "bench", "--repo", str(r), "--runs", "3")
    assert piped.splitlines()[0] == REPORT_HEADER
