"""Branching commit history over version numbers.

Commits are numbered densely from 0 in global creation order and each one
has the IRI urn:vg:version:<seq>.  The root is an ordinary commit: the first
one, with no parents, on branch "main", which it creates.  Every later commit
lists one or more parents with strictly smaller numbers.  Named branches map
to head commits; creation order is append-only, so history never rewrites,
with one exception: repack() renumbers all versions along a depth-first walk
so that each branch occupies a consecutive run, which is what makes the
interval encoding cheap after heavy branching.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from datetime import datetime, timezone

from .errors import NotFoundError, StateError, ValidationError

VERSION_IRI_PREFIX = "urn:vg:version:"

_VERSION_IRI_RE = re.compile(r"urn:vg:version:(0|[1-9][0-9]*)\Z")


def version_iri(seq: int) -> str:
    return f"{VERSION_IRI_PREFIX}{seq}"


def parse_version_iri(text: str) -> int | None:
    """The version number encoded in an IRI, or None if it is not one."""
    m = _VERSION_IRI_RE.match(text)
    return int(m.group(1)) if m else None


@dataclass(frozen=True)
class Provenance:
    """Where a commit's data came from: a code reference and a tool name."""

    code_ref: str = ""
    tool: str = ""


@dataclass(frozen=True)
class CommitMeta:
    seq: int
    parents: tuple[int, ...]
    branch: str
    message: str
    author: str
    timestamp: datetime
    provenance: Provenance

    @property
    def iri(self) -> str:
        return version_iri(self.seq)


def is_int(value) -> bool:
    """True for an int that is not a bool: the test every version number passes."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_utc(ts: datetime | None) -> datetime:
    if ts is None:
        return datetime.now(timezone.utc)
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


class VersionDag:
    """The commit graph plus the branch-name to head-commit map."""

    def __init__(self):
        self._commits: list[CommitMeta] = []
        self._branches: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._commits)

    @property
    def is_empty(self) -> bool:
        return not self._commits

    @property
    def branches(self) -> dict[str, int]:
        return dict(self._branches)

    def commit_meta(self, seq: int) -> CommitMeta:
        if not is_int(seq) or not 0 <= seq < len(self._commits):
            raise NotFoundError(f"unknown version: {seq}")
        return self._commits[seq]

    def commits(self) -> list[CommitMeta]:
        return list(self._commits)

    def branch_head(self, name: str) -> int:
        try:
            return self._branches[name]
        except KeyError:
            raise NotFoundError(f"unknown branch: {name}") from None

    def heads(self) -> set[int]:
        """The set of branch-head versions, deduplicated."""
        return set(self._branches.values())

    def commit(
        self,
        parents: list[int],
        branch: str,
        *,
        message: str = "",
        author: str = "",
        timestamp: datetime | None = None,
        provenance: Provenance | None = None,
    ) -> int:
        """Append a commit with the given parents and move the branch head.

        Only the first commit, the root, has no parents; it is on "main" and
        creates that branch.
        """
        if not parents and (self._commits or branch != "main"):
            raise ValidationError('only the first commit, on "main", has no parents')
        if len(set(parents)) != len(parents):
            raise ValidationError(f"duplicate parents: {parents}")
        for p in parents:
            self.commit_meta(p)
        if parents and branch not in self._branches:
            raise NotFoundError(f"unknown branch: {branch}")
        seq = len(self._commits)
        meta = CommitMeta(
            seq=seq,
            parents=tuple(parents),
            branch=branch,
            message=message,
            author=author,
            timestamp=_as_utc(timestamp),
            provenance=provenance or Provenance(),
        )
        self._commits.append(meta)
        self._branches[branch] = seq
        return seq

    def create_branch(self, name: str, at: int) -> None:
        if not name:
            raise ValidationError("branch name must be nonempty")
        if name in self._branches:
            raise StateError(f"branch already exists: {name}")
        self.commit_meta(at)
        self._branches[name] = at

    def is_ancestor(self, a: int, b: int) -> bool:
        """True when a lies on some parent path from b (reflexively)."""
        self.commit_meta(a)
        self.commit_meta(b)
        stack = [b]
        seen = set()
        while stack:
            cur = stack.pop()
            if cur == a:
                return True
            if cur in seen or cur < a:  # parents only ever get smaller
                continue
            seen.add(cur)
            stack.extend(self._commits[cur].parents)
        return False

    def _set_branches(self, branches: dict[str, int]) -> None:
        """Replace the branch map wholesale (used by repository load)."""
        if "main" not in branches:
            raise ValidationError('branch map must include "main"')
        for name, head in branches.items():
            if not name:
                raise ValidationError("branch name must be nonempty")
            self.commit_meta(head)
        self._branches = dict(branches)

    def _remap(self, mapping: dict[int, int]) -> None:
        n = len(self._commits)
        renumbered: list[CommitMeta | None] = [None] * n
        for meta in self._commits:
            seq = mapping[meta.seq]
            renumbered[seq] = replace(
                meta, seq=seq, parents=tuple(mapping[p] for p in meta.parents)
            )
        self._commits = renumbered  # type: ignore[assignment]
        self._branches = {name: mapping[head] for name, head in self._branches.items()}


def _repack_order(dag: VersionDag) -> list[int]:
    """Old seqs in their new order: a depth-first pre-order walk from the root.

    At each commit its first-parent children come before children that hang
    off it as a later (merge) parent, oldest first within each group, and a
    child is entered only once all of its parents are already renumbered, so
    parents keep smaller numbers than children.
    """
    chain_children: dict[int, list[int]] = {}
    merge_children: dict[int, list[int]] = {}
    commits = dag.commits()
    for meta in commits:
        if not meta.parents:
            continue
        chain_children.setdefault(meta.parents[0], []).append(meta.seq)
        for p in meta.parents[1:]:
            merge_children.setdefault(p, []).append(meta.seq)

    order: list[int] = []
    numbered: set[int] = set()
    stack = [0]
    while stack:
        cur = stack.pop()
        if cur in numbered:
            continue
        numbered.add(cur)
        order.append(cur)
        ready = [
            child
            for child in chain_children.get(cur, []) + merge_children.get(cur, [])
            if child not in numbered
            and all(p in numbered for p in commits[child].parents)
        ]
        stack.extend(reversed(ready))
    return order


def repack(dag: VersionDag, store) -> dict[int, int]:
    """Renumber all versions for interval locality; returns {old: new}.

    Rewrites commit numbers, parent lists, branch heads, and every version
    set held by the store.  Queries return the same results afterwards modulo
    the returned bijection.  An already depth-first linear history maps to
    itself.
    """
    if dag.is_empty:
        return {}
    order = _repack_order(dag)
    mapping = {old: new for new, old in enumerate(order)}
    dag._remap(mapping)
    store.remap_versions(mapping)
    return mapping
