"""On-disk repository layout: manifest.json plus one patch file per commit.

A patch holds the delta of a single commit: lines starting with "A " add the
following N-Triples statement, lines starting with "D " remove it, and # or
blank lines are ignored.  The manifest lists every commit in dense order with
its metadata and patch path, plus the branch map.  Version sets are never
persisted; loading replays all patches through the store, which rebuilds the
annotations and revalidates every delta.  Saving writes the deltas the store
recorded while applying commits, so it never reconstructs a version.

Blank node labels are freshened once per loaded repository, not once per
patch file, so a blank-node triple added by one commit can be removed by a
later one.  Standalone patch parsing keeps per-document freshening.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

from .dag import Provenance, VersionDag, is_int, version_iri
from .errors import RepositoryError, ValidationError
from .ntriples import BlankScope, format_triple, read_statements
from .store import AnnotatedStore, Delta
from .terms import Dictionary

MANIFEST_NAME = "manifest.json"
DELTAS_DIR = "deltas"


def parse_patch(
    text: str, dictionary: Dictionary, scope: BlankScope | None = None
) -> Delta:
    """Parse a patch into a Delta, all or nothing.

    Passing a scope shares blank-label freshening across several patches;
    the default is a fresh scope per call.
    """
    statements = read_statements(text, dictionary, scope, marks="AD")
    return Delta(
        frozenset(triple for mark, triple in statements if mark == "A"),
        frozenset(triple for mark, triple in statements if mark == "D"),
    )


def serialize_patch(delta: Delta, dictionary: Dictionary) -> str:
    """Removals first, then additions, each sorted by term serialization."""
    removed = sorted(format_triple(t, dictionary) for t in delta.removals)
    added = sorted(format_triple(t, dictionary) for t in delta.additions)
    lines = [f"D {stmt} ." for stmt in removed] + [f"A {stmt} ." for stmt in added]
    return "".join(line + "\n" for line in lines)


def _patch_path(seq: int) -> str:
    """Where commit seq's patch lives, relative to the repository."""
    return f"{DELTAS_DIR}/{seq}.patch"


def _format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def _parse_timestamp(text: str) -> datetime:
    try:
        return datetime.fromisoformat(text.replace("Z", "+00:00")).astimezone(
            timezone.utc
        )
    except ValueError:
        raise RepositoryError(f"bad timestamp in manifest: {text!r}") from None


def save_repository(store: AnnotatedStore, dag: VersionDag, repo_dir: str | Path) -> None:
    """Write manifest.json and one canonical patch per commit.

    Each patch is the delta the store recorded for its commit (additions and
    removals relative to the union of parents), so redundant additions and
    ignored removals in the original input are not preserved; every
    version's content and metadata are.
    """
    repo = Path(repo_dir)
    (repo / DELTAS_DIR).mkdir(parents=True, exist_ok=True)
    commits_json = []
    for meta in dag.commits():
        patch_rel = _patch_path(meta.seq)
        (repo / patch_rel).write_text(
            serialize_patch(store.delta(meta.seq), store.dictionary), encoding="utf-8"
        )
        commits_json.append(
            {
                "seq": meta.seq,
                "iri": meta.iri,
                "parents": list(meta.parents),
                "branch": meta.branch,
                "message": meta.message,
                "author": meta.author,
                "timestamp": _format_timestamp(meta.timestamp),
                "provenance": {
                    "code_ref": meta.provenance.code_ref,
                    "tool": meta.provenance.tool,
                },
                "patch": patch_rel,
            }
        )
    manifest = {
        "branches": {name: head for name, head in sorted(dag.branches.items())},
        "commits": commits_json,
    }
    (repo / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )


def _manifest_error(msg: str) -> RepositoryError:
    return RepositoryError(f"{MANIFEST_NAME}: {msg}")


def _check_commit_record(record, expected_seq: int) -> None:
    if not isinstance(record, dict):
        raise _manifest_error(f"commit {expected_seq} is not an object")
    required = (
        "seq",
        "iri",
        "parents",
        "branch",
        "message",
        "author",
        "timestamp",
        "provenance",
        "patch",
    )
    for key in required:
        if key not in record:
            raise _manifest_error(f"commit {expected_seq} is missing {key!r}")
    if not is_int(record["seq"]) or record["seq"] != expected_seq:
        raise _manifest_error(
            f"commit numbers must be dense from 0; found {record['seq']!r} "
            f"at position {expected_seq}"
        )
    if record["iri"] != version_iri(expected_seq):
        raise _manifest_error(f"commit {expected_seq} has wrong iri {record['iri']!r}")
    parents = record["parents"]
    if not isinstance(parents, list) or any(
        not is_int(p) or p < 0 or p >= expected_seq for p in parents
    ):
        raise _manifest_error(f"commit {expected_seq} has bad parents {parents!r}")
    if expected_seq > 0 and not parents:
        raise _manifest_error(f"commit {expected_seq} has no parents")
    for key in ("branch", "message", "author", "timestamp"):
        if not isinstance(record[key], str):
            raise _manifest_error(f"commit {expected_seq} has a non-string {key!r}")
    if expected_seq == 0 and (parents or record["branch"] != "main"):
        raise _manifest_error('the root commit must be on branch "main" with no parents')
    prov = record["provenance"]
    if not isinstance(prov, dict) or not all(isinstance(v, str) for v in prov.values()):
        raise _manifest_error(f"commit {expected_seq} has bad provenance {prov!r}")
    # every save writes this path, so no other one is read
    if record["patch"] != _patch_path(expected_seq):
        raise _manifest_error(
            f"commit {expected_seq} must name patch {_patch_path(expected_seq)!r}, "
            f"found {record['patch']!r}"
        )


def load_repository(
    repo_dir: str | Path, encoding: str = "extension"
) -> tuple[AnnotatedStore, VersionDag]:
    """Rebuild a store and dag by replaying every patch in commit order."""
    repo = Path(repo_dir)
    manifest_path = repo / MANIFEST_NAME
    if not manifest_path.is_file():
        raise RepositoryError(f"not a repository: missing {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise RepositoryError(f"unreadable manifest: {e}") from None
    if not isinstance(manifest, dict):
        raise _manifest_error("top level must be an object")
    commits = manifest.get("commits")
    branches = manifest.get("branches")
    if not isinstance(commits, list) or not commits:
        raise _manifest_error("needs a nonempty commit list")
    if not isinstance(branches, dict) or "main" not in branches:
        raise _manifest_error('needs a branch map including "main"')

    dictionary = Dictionary()
    store = AnnotatedStore(dictionary, encoding=encoding)
    dag = VersionDag()
    scope = BlankScope(dictionary)
    for expected_seq, record in enumerate(commits):
        _check_commit_record(record, expected_seq)
        patch_path = repo / record["patch"]
        if not patch_path.is_file():
            raise RepositoryError(f"missing patch file: {patch_path}")
        try:
            delta = parse_patch(
                patch_path.read_text(encoding="utf-8"), dictionary, scope
            )
        except ValidationError as e:
            raise RepositoryError(f"{patch_path}: {e}") from None
        prov = record["provenance"]
        branch = record["branch"]
        parents = record["parents"]
        if parents and branch not in dag.branches:
            dag.create_branch(branch, at=parents[0])
        seq = store.apply_commit(
            dag,
            parents,
            branch,
            delta,
            message=record["message"],
            author=record["author"],
            timestamp=_parse_timestamp(record["timestamp"]),
            provenance=Provenance(
                code_ref=prov.get("code_ref", ""), tool=prov.get("tool", "")
            ),
        )
        if seq != expected_seq:
            raise _manifest_error(f"replay produced version {seq}, expected {expected_seq}")
    try:
        dag._set_branches({name: head for name, head in branches.items()})
    except Exception as e:
        raise _manifest_error(f"bad branch map: {e}") from None
    return store, dag
