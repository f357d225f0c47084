"""End-to-end command-line sessions driven through run(argv).

Everything goes through the public entry point: no reaching into command
internals, and byte-level comparisons against the library wherever the
output is specified to round-trip.
"""

import pytest

from vgstore import load_repository, parse_patch, serialize_ntriples
from vgstore.bench import REPORT_HEADER, ScenarioParams, generate
from vgstore.cli import run as vg

from helpers import INVALID_CONSTANTS

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


HEIGHTS_Q = "SELECT ?v ?b ?h WHERE { GRAPH ?v { ?b <urn:ex:height> ?h } }"


def _files(repo_dir):
    from pathlib import Path

    root = Path(repo_dir)
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture
def long_repo(tmp_path, capsys, patches):
    """Versions 0-3 on main, so version 1 is no head and has no snapshot."""
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
    assert scans == [1]  # only the snapshot-less branch point is rebuilt
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


# another process holding the repository's lock until its stdin closes
_HOLD_LOCK = """
import fcntl, sys
with open(sys.argv[1], "a") as f:
    fcntl.flock(f, fcntl.LOCK_EX)
    print("held", flush=True)
    sys.stdin.read()
"""


def _lock_holder(repo):
    import subprocess
    import sys
    from pathlib import Path

    holder = subprocess.Popen(
        [sys.executable, "-c", _HOLD_LOCK, str(Path(repo) / ".vglock")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    assert holder.stdout.readline() == "held\n"
    return holder


def test_locked_repository_fails_fast(repo, capsys):
    with _lock_holder(repo) as holder:
        err = fails(capsys, 2, "stats", "--repo", repo)
        assert "locked" in err
        holder.stdin.close()
        assert holder.wait() == 0
    ok(capsys, "stats", "--repo", repo)


def test_a_killed_lock_holder_leaves_the_repository_usable(repo, capsys):
    import signal
    from pathlib import Path

    with _lock_holder(repo) as holder:
        holder.send_signal(signal.SIGKILL)
        assert holder.wait() == -signal.SIGKILL
    # the lock file stays behind, but the lock died with its holder
    assert (Path(repo) / ".vglock").is_file()
    ok(capsys, "stats", "--repo", repo)


def test_missing_patch_file_in_repo_dir(repo, capsys):
    from pathlib import Path

    victim = Path(repo) / "deltas" / "2.patch"
    victim.unlink()
    err = fails(capsys, 2, "stats", "--repo", repo)
    assert "2.patch" in err


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
