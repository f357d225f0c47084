"""On-disk repository layout: manifest.json plus one patch file per commit.

A patch holds the delta of a single commit: lines starting with "A " add the
following N-Triples statement, lines starting with "D " remove it, and # or
blank lines are ignored.  The manifest lists every commit in dense order with
its metadata and patch path, plus the branch map.  Version sets are never
persisted.  A load reads the whole manifest into a VersionDag (read_history)
before any patch, then replays every patch onto that dag through
store.replay, which rebuilds the annotations and revalidates every delta.
Saved term texts are canonical, so a load interns them as read (ntriples).

Saving appends.  The directory's manifest must list the first k commits of
the history being saved: one that still holds the text the load read lists
the loaded commits and is not parsed again; any other is read and checked.
The save writes only the patches of commits k and later, from the recorded
deltas, then the manifest.  A listed patch is never rewritten, so a repacked
(renumbered) or unrelated history raises StateError and must be saved to a
new directory.  The check compares commit metadata only (parents, branch,
message, author, timestamp, provenance), never content: two histories with
the same metadata and different graphs look like one, so a caller must not
save different contents under the same explicit timestamps and messages into
one directory.  Every file is written to a temp file, fsynced and renamed
into place, patches before the manifest, so a save killed at any point
leaves a manifest that names only complete patches: the directory loads as
the old history or the new one.  A patch file the manifest does not list
yet is not part of the repository, and the next save replaces it.

Blank node labels are freshened once per loaded repository, not once per
patch file, so a blank-node triple added by one commit can be removed by a
later one.  vg commit and vg merge read their patch in the scope such a load
leaves (BlankScope.of_history), where a label the history uses names its
node.  Standalone patch parsing keeps per-document freshening.
"""

from __future__ import annotations

import contextlib
import json
import os
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .dag import Provenance, VersionDag, is_int, version_iri
from .errors import NotFoundError, RepositoryError, StateError, ValidationError
from .ntriples import BlankScope, format_triple, read_statements
from .store import AnnotatedStore, Delta, replay
from .terms import Dictionary

MANIFEST_NAME = "manifest.json"
DELTAS_DIR = "deltas"


def parse_patch(
    text: str, dictionary: Dictionary, scope: BlankScope | None = None
) -> Delta:
    """Parse a patch into a Delta, all or nothing.

    Passing a scope, made for this dictionary, shares blank-label
    freshening and term texts across several patches; the default is a
    fresh scope per call.  A scope made for another dictionary raises
    ValueError.
    """
    sides: dict[str, list] = {"A": [], "D": []}
    for mark, triple in read_statements(text, dictionary, scope, marks="AD"):
        sides[mark].append(triple)
    return Delta(frozenset(sides["A"]), frozenset(sides["D"]))


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
    """A time with no UTC offset stays naive; VersionDag.commit reads it as UTC."""
    try:
        return datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise RepositoryError(f"bad timestamp in manifest: {text!r}") from None


def _write_file(path: Path, data: bytes) -> None:
    """Put data at path so that a reader sees the old file or the new one.

    The data goes to a temp file in the same directory, is fsynced, then
    renamed over path.  The temp file's name is fixed per target, so a killed
    save leaves at most one behind and the next save of path reuses it; a
    save that fails with an exception removes it.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _fsync_dir(path: Path) -> None:
    """Make the renames inside directory path durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _saved_prefix(repo: Path, dag: VersionDag) -> int:
    """How many of dag's commits the manifest in repo already lists.

    The text dag was read from lists its first commits and is not parsed
    again.  Else 0 when there is no manifest, and StateError when the listed
    commits are not dag's first ones: a renumbered or another history.  Only
    metadata is compared: one with the same metadata and other content passes.
    """
    path = repo / MANIFEST_NAME
    with contextlib.suppress(OSError, UnicodeDecodeError):
        if dag._manifest and path.read_text(encoding="utf-8") == dag._manifest[0]:
            return dag._manifest[1]
    if not path.exists():
        return 0
    saved = read_history(repo).commits()
    if saved != dag.commits()[: len(saved)]:
        raise StateError(
            f"{repo} holds another history than the one being saved; "
            "save a renumbered or unrelated history to a new directory"
        )
    return len(saved)


def _manifest_bytes(dag: VersionDag) -> bytes:
    """The manifest.json a save of dag writes: the bytes of json.dumps(manifest,
    indent=2) and a newline, laid out here because indent makes json use its
    pure-Python encoder."""
    q = encode_basestring_ascii
    commits = [_json_block("{}", "    ", [
        f'"seq": {meta.seq}',
        f'"iri": {q(meta.iri)}',
        f'"parents": {_json_block("[]", "      ", map(str, meta.parents))}',
        f'"branch": {q(meta.branch)}',
        f'"message": {q(meta.message)}',
        f'"author": {q(meta.author)}',
        f'"timestamp": {q(_format_timestamp(meta.timestamp))}',
        '"provenance": ' + _json_block("{}", "      ", [
            f'"code_ref": {q(meta.provenance.code_ref)}', f'"tool": {q(meta.provenance.tool)}'
        ]),
        f'"patch": {q(_patch_path(meta.seq))}',
    ]) for meta in dag.commits()]
    branches = (f"{q(name)}: {head}" for name, head in sorted(dag.branches.items()))
    return (_json_block("{}", "", [
        f'"branches": {_json_block("{}", "  ", branches)}',
        f'"commits": {_json_block("[]", "  ", commits)}',
    ]) + "\n").encode("utf-8")


def _json_block(brackets: str, indent: str, items) -> str:
    """A JSON object or array of the given item texts, laid out as json.dumps
    with indent=2 lays it out at that indent."""
    inner = f",\n{indent}  ".join(items)
    return f"{brackets[0]}\n{indent}  {inner}\n{indent}{brackets[1]}" if inner else brackets


def holds_history(store: AnnotatedStore, dag: VersionDag, repo_dir: str | Path) -> bool:
    """Whether repo_dir holds exactly the files a save of this history writes.

    Unlike the check a save makes, this compares content: every patch and
    the manifest, byte for byte.
    """
    repo = Path(repo_dir)
    try:
        return (repo / MANIFEST_NAME).read_bytes() == _manifest_bytes(dag) and all(
            (repo / _patch_path(meta.seq)).read_bytes()
            == serialize_patch(store.delta(meta.seq), store.dictionary).encode("utf-8")
            for meta in dag.commits()
        )
    except OSError:
        return False


def save_repository(store: AnnotatedStore, dag: VersionDag, repo_dir: str | Path) -> None:
    """Append the commits repo_dir does not hold yet, then write manifest.json.

    Each new patch is the delta the store recorded for its commit (additions
    and removals relative to the union of parents), so redundant additions
    and ignored removals in the original input are not preserved; every
    version's content and metadata are.  A patch the manifest already lists
    is never rewritten.  Every file is replaced atomically, patches first and
    the manifest last, so a save cut off at any point leaves the old manifest
    naming only complete patches.

    The directory's history is identified by commit metadata only, not by
    content: do not save histories with different contents but the same
    explicit timestamps and messages into one directory.
    """
    repo = Path(repo_dir)
    saved = _saved_prefix(repo, dag)
    deltas = repo / DELTAS_DIR
    if not deltas.is_dir():
        deltas.mkdir(parents=True)
        _fsync_dir(repo)  # the patches' directory must outlive a crash too
    commits = dag.commits()
    for meta in commits[saved:]:
        patch = serialize_patch(store.delta(meta.seq), store.dictionary)
        _write_file(repo / _patch_path(meta.seq), patch.encode("utf-8"))
    if saved < len(commits):
        _fsync_dir(deltas)
    _write_manifest(repo, dag)


def _write_manifest(repo: Path, dag: VersionDag) -> None:
    """Replace repo's manifest.json with dag's, the last step of every save."""
    _write_file(repo / MANIFEST_NAME, _manifest_bytes(dag))
    _fsync_dir(repo)


def _manifest_error(msg: str) -> RepositoryError:
    return RepositoryError(f"{MANIFEST_NAME}: {msg}")


def _check_commit_record(record, expected_seq: int) -> None:
    """What JSON can get wrong in one record; the dag checks the history's rules."""
    if not isinstance(record, dict):
        raise _manifest_error(f"commit {expected_seq} is not an object")
    required = ("seq", "iri", "parents", "branch", "message", "author", "timestamp",
                "provenance", "patch")
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
    if not isinstance(parents, list) or not all(is_int(p) for p in parents):
        raise _manifest_error(f"commit {expected_seq} has bad parents {parents!r}")
    for key in ("branch", "message", "author", "timestamp"):
        if not isinstance(record[key], str):
            raise _manifest_error(f"commit {expected_seq} has a non-string {key!r}")
    prov = record["provenance"]
    if not isinstance(prov, dict) or not all(isinstance(v, str) for v in prov.values()):
        raise _manifest_error(f"commit {expected_seq} has bad provenance {prov!r}")
    # every save writes this path, so no other one is read
    if record["patch"] != _patch_path(expected_seq):
        raise _manifest_error(
            f"commit {expected_seq} must name patch {_patch_path(expected_seq)!r}, "
            f"found {record['patch']!r}"
        )


def read_history(repo_dir: str | Path) -> VersionDag:
    """The history manifest.json records, as a VersionDag; no patch is read.

    Each record is checked for what JSON can get wrong, then committed to a
    dag, which checks the history's rules.  A fault raises RepositoryError.
    """
    manifest_path = Path(repo_dir) / MANIFEST_NAME
    if not manifest_path.is_file():
        raise RepositoryError(f"not a repository: missing {manifest_path}")
    try:
        text = manifest_path.read_text(encoding="utf-8")
        manifest = json.loads(text)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise RepositoryError(f"unreadable manifest: {e}") from None
    if not isinstance(manifest, dict):
        raise _manifest_error("top level must be an object")
    records = manifest.get("commits")
    branches = manifest.get("branches")
    if not isinstance(records, list) or not records or not isinstance(branches, dict):
        raise _manifest_error("needs a nonempty commit list and a branch map")
    dag = VersionDag()
    try:  # the dag's errors name the commit or the branch map at fault
        for seq, record in enumerate(records):
            _check_commit_record(record, seq)
            parents, branch, prov = record["parents"], record["branch"], record["provenance"]
            where = f"commit {seq}"
            dag.start_branch(branch, parents)
            dag.commit(
                parents, branch, message=record["message"], author=record["author"],
                timestamp=_parse_timestamp(record["timestamp"]),
                provenance=Provenance(prov.get("code_ref", ""), prov.get("tool", "")),
            )
        where = "bad branch map"
        dag._set_branches(branches)
    except (ValidationError, NotFoundError) as e:
        raise _manifest_error(f"{where}: {e}") from None
    dag._manifest = (text, len(dag))
    return dag


def load_repository(
    repo_dir: str | Path, encoding: str = "extension"
) -> tuple[AnnotatedStore, VersionDag]:
    """Read the history into a dag, then replay every patch onto it in order."""
    repo = Path(repo_dir)
    dag = read_history(repo)
    dictionary = Dictionary()
    scope = BlankScope(dictionary)

    def history():  # each commit with its delta, one patch read at a time
        for meta in dag.commits():
            patch_path = repo / _patch_path(meta.seq)
            try:
                delta = parse_patch(patch_path.read_text(encoding="utf-8"), dictionary, scope)
            except OSError:  # only a failed read stats the path
                if patch_path.is_file():
                    raise
                raise RepositoryError(f"missing patch file: {patch_path}") from None
            except (ValidationError, UnicodeDecodeError) as e:
                raise RepositoryError(f"{patch_path}: {e}") from None
            yield meta, delta

    store = AnnotatedStore(dictionary, encoding=encoding)
    replay(store, dag, history(), dag.branches)
    return store, dag
