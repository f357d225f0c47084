"""Command-line interface for versioned graph repositories.

Exit codes: 0 success, 1 usage error, 2 data or repository error, 3 query
error, 4 internal error (a fault of vg itself).  The commands that write (init, commit, branch, merge) take an
exclusive flock on the repository's `.vglock` file; a second concurrent
writer fails fast with exit 2.  The commands that only read (query, log,
stats, checkout, bench) take no lock: a save never rewrites a patch the
manifest lists and replaces the manifest in one rename after its new
patches are durable, so a reader sees the old history or the new one.  The
file stays on disk and the lock dies with the process holding it, so a
killed command leaves nothing to clean up.  flock makes the writing
commands POSIX-only.

log and branch read only manifest.json (repo.read_history), so a bad patch
does not fail them; only the six commands that build a store take --encoding.
"""

from __future__ import annotations

import argparse
import fcntl
import gc
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from .dag import Provenance, VersionDag, version_iri
from .engine import eval_annotated, eval_checkout, format_results
from .errors import QueryError, RepositoryError, StateError, ValidationError, VgError
from .ntriples import BlankScope, serialize_ntriples
from .repo import MANIFEST_NAME, _format_timestamp, _write_manifest, load_repository, parse_patch
from .repo import read_history, save_repository
from .sparql import parse_query
from .store import EMPTY_DELTA, AnnotatedStore
from .versionsets import ENCODINGS


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@contextmanager
def _locked(repo_dir: str, create: bool = False):
    path = Path(repo_dir)
    if create:
        path.mkdir(parents=True, exist_ok=True)
    elif not path.is_dir():
        raise RepositoryError(f"no repository directory: {path}")
    lock = path / ".vglock"
    with open(lock, "a") as f:
        try:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise StateError(f"repository is locked by another process: {lock}") from None
        yield


def _read_text(path: str) -> str:
    """A file's UTF-8 text; a file that is not UTF-8 raises a ValidationError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: {e}") from None


def _commit(args, store: AnnotatedStore, dag: VersionDag, parents: list[int],
            branch: str, message: str, strict: bool = True) -> int:
    """Apply args.patch, or no change, as one commit and save the repository."""
    delta = EMPTY_DELTA
    if args.patch:
        text = _read_text(args.patch)
        delta = parse_patch(text, store.dictionary, BlankScope.of_history(store.dictionary))
    seq = store.apply_commit(
        dag, parents, branch, delta,
        message=message, author=args.author,
        provenance=Provenance(args.code_ref, args.tool), strict=strict,
    )
    save_repository(store, dag, args.repo)
    return seq


def _add_commit_meta(p: argparse.ArgumentParser) -> None:
    p.add_argument("-m", "--message", default="", help="commit message")
    p.add_argument("--author", default="", help="commit author")
    p.add_argument("--code-ref", default="", help="lineage: producing code reference")
    p.add_argument("--tool", default="", help="lineage: producing tool")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vg", description="versioned RDF graph repositories")
    sub = parser.add_subparsers(metavar="COMMAND", required=True)

    def add(name: str, help_text: str, handler: Callable) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--repo", required=True, help="repository directory")
        return p

    def add_store(name: str, help_text: str, handler: Callable) -> argparse.ArgumentParser:
        p = add(name, help_text, handler)  # a command that builds a store picks its encoding
        p.add_argument(
            "--encoding",
            choices=tuple(ENCODINGS),
            default="extension",
            help="version set encoding used in memory",
        )
        return p

    p = add_store("init", "create a repository with a root version from a patch", _cmd_init)
    p.add_argument("--patch", required=True, help="patch file for version 0")
    _add_commit_meta(p)

    p = add_store("commit", "apply a patch as a new version on a branch", _cmd_commit)
    p.add_argument("--branch", required=True, help="branch to commit to")
    p.add_argument("--patch", required=True, help="patch file to apply")
    _add_commit_meta(p)
    p.add_argument(
        "--parent",
        action="append",
        type=int,
        default=None,
        metavar="SEQ",
        help="explicit parent version; repeatable (default: branch head)",
    )
    p.add_argument(
        "--permissive",
        action="store_true",
        help="warn instead of failing on removals absent from every parent",
    )

    p = add("branch", "create a branch pointing at an existing version", _cmd_branch)
    p.add_argument("name", help="new branch name")
    p.add_argument("--at", required=True, type=int, metavar="SEQ", help="version to branch from")

    p = add_store("merge", "merge another version into a branch (two-parent commit)", _cmd_merge)
    p.add_argument("--branch", required=True, help="branch receiving the merge")
    p.add_argument("--from", dest="from_seq", required=True, type=int, metavar="SEQ")
    p.add_argument("--patch", default=None, help="optional patch applied on top of the union")
    _add_commit_meta(p)

    p = add_store("checkout", "write one version's triples as N-Triples", _cmd_checkout)
    p.add_argument("--version", required=True, type=int, metavar="SEQ")
    p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = add_store("query", "evaluate a query against the repository", _cmd_query)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="file containing the query")
    src.add_argument("--inline", help="query text on the command line")
    p.add_argument("--evaluator", choices=("annotated", "checkout"), default="annotated")
    p.add_argument("--versions", choices=("all", "heads"), default="all",
                   help="domain version variables range over")
    p.add_argument("--format", choices=("tsv", "csv"), default="tsv")

    add("log", "print commit metadata, newest first", _cmd_log)

    add_store("stats", "print store statistics", _cmd_stats)

    p = add("bench", "time the canonical queries under every configuration", _cmd_bench)
    p.add_argument("--out", default=None, help="CSV report path (default: stdout)")
    p.add_argument("--runs", type=int, default=3, help="timed runs per configuration")

    return parser


def _cmd_init(args) -> int:
    with _locked(args.repo, create=True):
        if (Path(args.repo) / MANIFEST_NAME).exists():
            raise StateError(f"repository already initialized: {args.repo}")
        store = AnnotatedStore(encoding=args.encoding)
        _commit(args, store, VersionDag(), [], "main", args.message)
    print(f"initialized {args.repo} at {version_iri(0)}")
    return 0


def _cmd_commit(args) -> int:
    with _locked(args.repo):
        store, dag = load_repository(args.repo, encoding=args.encoding)
        parents = args.parent if args.parent else [dag.branch_head(args.branch)]
        seq = _commit(args, store, dag, parents, args.branch, args.message,
                      strict=not args.permissive)
    print(f"committed {version_iri(seq)} on {args.branch}")
    return 0


def _cmd_branch(args) -> int:
    with _locked(args.repo):
        dag = read_history(args.repo)
        dag.create_branch(args.name, at=args.at)
        _write_manifest(Path(args.repo), dag)
    print(f"created branch {args.name} at {version_iri(args.at)}")
    return 0


def _cmd_merge(args) -> int:
    with _locked(args.repo):
        store, dag = load_repository(args.repo, encoding=args.encoding)
        parents = [dag.branch_head(args.branch), args.from_seq]
        message = args.message or f"merge {version_iri(args.from_seq)} into {args.branch}"
        seq = _commit(args, store, dag, parents, args.branch, message)
    print(f"merged as {version_iri(seq)} on {args.branch}")
    return 0


def _cmd_checkout(args) -> int:
    store, _dag = load_repository(args.repo, encoding=args.encoding)
    text = serialize_ntriples(store.materialize(args.version), store.dictionary)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def _cmd_query(args) -> int:
    query = parse_query(args.inline if args.file is None else _read_text(args.file))
    store, dag = load_repository(args.repo, encoding=args.encoding)
    evaluate = eval_annotated if args.evaluator == "annotated" else eval_checkout
    table = evaluate(store, dag, query, version_domain=args.versions)
    sys.stdout.write(format_results(table, args.format))
    return 0


def _cmd_log(args) -> int:
    dag = read_history(args.repo)
    by_head: dict[int, list[str]] = {}
    for name, head in dag.branches.items():
        by_head.setdefault(head, []).append(name)
    blocks = []
    for meta in reversed(dag.commits()):
        markers = "".join(f" [{name}]" for name in sorted(by_head.get(meta.seq, [])))
        lines = [
            f"commit {meta.iri}{markers}",
            f"branch:   {meta.branch}",
            f"parents:  {' '.join(version_iri(p) for p in meta.parents) or '(root)'}",
            f"author:   {meta.author}",
            f"date:     {_format_timestamp(meta.timestamp)}",
        ]
        if meta.provenance.code_ref:
            lines.append(f"code-ref: {meta.provenance.code_ref}")
        if meta.provenance.tool:
            lines.append(f"tool:     {meta.provenance.tool}")
        lines.append(f"message:  {meta.message}")
        blocks.append("\n".join(lines))
    sys.stdout.write("\n\n".join(blocks) + ("\n" if blocks else ""))
    return 0


def _cmd_stats(args) -> int:
    store, _dag = load_repository(args.repo, encoding=args.encoding)
    stats = store.stats()
    print(f"encoding: {store.encoding}")
    print(f"distinct_triples: {stats.distinct_triples}")
    print(f"versions: {stats.versions}")
    print(f"scalar_cost_total: {stats.scalar_cost_total}")
    print(f"triples_sum_over_versions: {stats.triples_sum_over_versions}")
    return 0


def _cmd_bench(args) -> int:
    from . import bench as bench_mod  # here, so other commands skip its imports

    rows = bench_mod.run(args.repo, runs=args.runs)
    if args.out is None:
        sys.stdout.write(bench_mod.report_text(rows))
    else:
        bench_mod.write_report(rows, args.out)
        print(f"wrote {args.out}")
    return 0


def run(argv: list[str] | None = None) -> int:
    """Parse argv, execute one command, and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except QueryError as exc:
        print(f"vg: query error: {exc}", file=sys.stderr)
        return 3
    except (VgError, OSError, UnicodeDecodeError) as exc:
        print(f"vg: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of vg itself, told apart from usage errors
        print(f"vg: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    # one command per process: the collector skips the imported modules and
    # waits for 50,000 new objects, not 700, yet still collects cycles
    gc.freeze()
    gc.set_threshold(50_000)
    sys.exit(run())
