"""Triple store annotated with the set of versions containing each triple.

Instead of storing one graph per version, the store keeps every distinct
triple once and tags it with a VersionSet.  A commit does not stamp its
number onto everything present in it.  Each triple of the version applied
last has an open run of versions; a commit closes a triple's run with one
range insert when the triple leaves, and opens one when a triple arrives.
A commit's work is therefore its difference from the version applied last,
which on a linear chain is its delta.  Open runs are written up to the last
version on the first read after a commit, under a lock so that concurrent
readers write them once.

Applying a commit also records the version's delta against the union of its
parents and a frozen snapshot of its content.  Snapshots are kept only for
branch heads and the version applied last, so a commit on a head costs time
in proportion to the parents' content and not to the whole store, and a save
writes the recorded deltas.  A parent without a snapshot, such as an old
version a new branch starts from, is rebuilt by scanning the store.

TripleIndex is the package's one permutation index: SPO, POS and OSP over
the same leaf values, read by a bound-prefix walk.  The store's leaves are
its live VersionSets, shared by the three permutations, which keeps them
consistent by construction; the checkout evaluator indexes one materialized
version with the leaf True.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from datetime import datetime
from typing import Iterator

from .dag import Provenance, VersionDag, is_int
from .errors import DeltaError, NotFoundError, StateError, ValidationError
from .ntriples import format_triple
from .terms import Dictionary, TermId, Triple
from .versionsets import VersionSet, set_class

log = logging.getLogger(__name__)

_Index = dict[int, dict[int, dict[int, object]]]


class TripleIndex:
    """Triples indexed three ways (SPO, POS, OSP), each carrying a leaf value."""

    def __init__(self):
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}

    def add(self, t: Triple, leaf: object) -> None:
        """Index t with the given leaf, replacing any leaf it had."""
        self._spo.setdefault(t.s, {}).setdefault(t.p, {})[t.o] = leaf
        self._pos.setdefault(t.p, {}).setdefault(t.o, {})[t.s] = leaf
        self._osp.setdefault(t.o, {}).setdefault(t.s, {})[t.p] = leaf

    def match(
        self,
        s: TermId | None = None,
        p: TermId | None = None,
        o: TermId | None = None,
    ) -> Iterator[tuple[Triple, object]]:
        """All indexed triples matching the bound positions, with their leaves.

        The index is picked by the first bound position: subject uses SPO,
        else predicate uses POS, else object uses OSP, and a fully unbound
        pattern scans SPO.
        """
        if s is not None:
            for pp, oo, leaf in _walk(self._spo, s, p, o):
                yield Triple(s, pp, oo), leaf
        elif p is not None:
            for oo, ss, leaf in _walk(self._pos, p, o, None):
                yield Triple(ss, p, oo), leaf
        elif o is not None:
            for ss, pp, leaf in _walk(self._osp, o, None, None):
                yield Triple(ss, pp, o), leaf
        else:
            for ss, level2 in self._spo.items():
                for pp, level3 in level2.items():
                    for oo, leaf in level3.items():
                        yield Triple(ss, pp, oo), leaf


def _walk(index: _Index, first: int, second: int | None, third: int | None):
    level2 = index.get(first)
    if level2 is None:
        return
    if second is not None:
        items2 = [(second, level2[second])] if second in level2 else []
    else:
        items2 = level2.items()
    for k2, level3 in items2:
        if third is not None:
            if third in level3:
                yield k2, third, level3[third]
        else:
            for k3, leaf in level3.items():
                yield k2, k3, leaf


@dataclass(frozen=True)
class Delta:
    """The change a commit applies: triples added and triples removed."""

    additions: frozenset[Triple]
    removals: frozenset[Triple]

    def __post_init__(self):
        overlap = self.additions & self.removals
        if overlap:
            raise ValidationError(
                f"delta adds and removes the same {len(overlap)} triple(s)"
            )


EMPTY_DELTA = Delta(frozenset(), frozenset())


@dataclass(frozen=True)
class StoreStats:
    distinct_triples: int
    versions: int
    scalar_cost_total: int
    triples_sum_over_versions: int


class AnnotatedStore:
    """All versions of a graph in one set of version-annotated triples.

    The version set encoding ("extension" or "interval") is fixed when the
    store is created.  Reads may run concurrently; commits must be serialized
    by the caller and must not overlap reads.
    """

    def __init__(self, dictionary: Dictionary | None = None, encoding: str = "extension"):
        self.dictionary = dictionary if dictionary is not None else Dictionary()
        self.encoding = encoding
        self._set_cls = set_class(encoding)
        self._sets: dict[Triple, VersionSet] = {}
        self._index = TripleIndex()
        self._n_versions = 0
        self._deltas: dict[int, Delta] = {}
        self._snapshots: dict[int, frozenset[Triple]] = {}
        # the version applied last: its content, and for each of its triples
        # a version from which the triple is in every version up to it;
        # the versions of those runs from _written on are not yet in the sets
        self._last: frozenset[Triple] = frozenset()
        self._open: dict[Triple, int] = {}
        self._written = 0
        self._flush_lock = threading.Lock()

    @property
    def n_versions(self) -> int:
        return self._n_versions

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._sets

    def version_set(self, triple: Triple) -> VersionSet | None:
        """The live version set of a triple, or None if never stored."""
        self._flush()
        return self._sets.get(triple)

    def apply_commit(
        self,
        dag: VersionDag,
        parents: list[int],
        branch: str,
        delta: Delta,
        *,
        message: str = "",
        author: str = "",
        timestamp: datetime | None = None,
        provenance: Provenance | None = None,
        strict: bool = True,
    ) -> int:
        """Create a commit in the dag and record its contents in the store.

        The new version contains (union of parent materializations minus
        removals) plus additions.  In strict mode a removal absent from every
        parent raises DeltaError; with strict=False it is ignored with a
        warning.  Adding a triple some parent already holds is fine either
        way.  Returns the new version number.
        """
        if len(dag) != self._n_versions:
            raise StateError(
                f"store knows {self._n_versions} versions but dag has {len(dag)}"
            )
        parent_union = frozenset().union(*map(self._content, parents))
        spurious = delta.removals - parent_union
        if spurious:
            if strict:
                sample = next(iter(spurious))
                raise DeltaError(
                    f"{len(spurious)} removal(s) not present in any parent, "
                    f"e.g. {format_triple(sample, self.dictionary)}"
                )
            log.warning("ignoring %d removal(s) absent from all parents", len(spurious))
        present = (parent_union - delta.removals) | delta.additions
        seq = dag.commit(
            parents, branch,
            message=message, author=author, timestamp=timestamp, provenance=provenance,
        )
        # seq - 1 was applied last; a triple that leaves closes its run there
        written = self._written
        for triple in self._last - present:
            lo = max(self._open.pop(triple), written)
            if lo < seq:
                self._sets[triple].insert(lo, seq - 1)
        for triple in present - self._last:
            if triple not in self._sets:
                self._register(triple, self._set_cls())
            self._open[triple] = seq
        self._last = present
        self._n_versions = seq + 1
        self._deltas[seq] = Delta(
            delta.additions - parent_union, delta.removals & parent_union
        )
        heads = dag.heads()
        self._snapshots = {v: s for v, s in self._snapshots.items() if v in heads}
        self._snapshots[seq] = present
        return seq

    def materialize(self, v: int) -> set[Triple]:
        """The plain triple set of version v, as a fresh mutable set.

        It is copied from v's snapshot if there is one, else reconstructed
        by scanning every stored triple.
        """
        self._check_version(v)
        snapshot = self._snapshots.get(v)
        if snapshot is not None:
            return set(snapshot)
        self._flush()
        return {t for t, vset in self._sets.items() if vset.contains(v)}

    def delta(self, v: int) -> Delta:
        """What version v added to and removed from the union of its parents.

        Additions already in a parent and removals absent from every parent
        are not part of it, so it is the same whatever input produced v.
        """
        self._check_version(v)
        return self._deltas[v]

    def _check_version(self, v: int) -> None:
        if not is_int(v) or not 0 <= v < self._n_versions:
            raise NotFoundError(f"unknown version: {v}")

    def _content(self, v: int) -> frozenset[Triple]:
        snapshot = self._snapshots.get(v)
        return snapshot if snapshot is not None else frozenset(self.materialize(v))

    def match(
        self,
        s: TermId | None = None,
        p: TermId | None = None,
        o: TermId | None = None,
    ) -> Iterator[tuple[Triple, VersionSet]]:
        """All stored triples matching the bound positions, with their sets.

        Yielded sets are live; callers must not mutate them.
        """
        self._flush()
        return self._index.match(s, p, o)

    def stats(self) -> StoreStats:
        self._flush()
        cost = 0
        total = 0
        for vset in self._sets.values():
            cost += vset.scalar_cost()
            total += vset.cardinality()
        return StoreStats(
            distinct_triples=len(self._sets),
            versions=self._n_versions,
            scalar_cost_total=cost,
            triples_sum_over_versions=total,
        )

    def remap_versions(self, mapping: dict[int, int]) -> None:
        """Rewrite every version set through a renumbering bijection."""
        self._flush()
        for triple, vset in self._sets.items():
            remapped = self._set_cls.from_iterable(mapping[v] for v in vset)
            self._register(triple, remapped)
        # deltas are relative to each commit's parents, so renumbering
        # re-keys them without changing them
        self._deltas = {mapping[v]: d for v, d in self._deltas.items()}
        self._snapshots = {mapping[v]: s for v, s in self._snapshots.items()}
        if self._n_versions:
            # every set is written, so the new last version's runs open there
            last = self._n_versions - 1
            self._last = self._content(last)
            self._open = dict.fromkeys(self._last, last)

    def _flush(self) -> None:
        """Write the open runs up to the version applied last."""
        if self._written == self._n_versions:
            return
        with self._flush_lock:
            n, written = self._n_versions, self._written
            if written == n:
                return  # another reader wrote them first
            sets = self._sets
            for triple, start in self._open.items():
                sets[triple].insert(max(start, written), n - 1)
            self._written = n

    def _register(self, t: Triple, vset: VersionSet) -> None:
        self._sets[t] = vset
        self._index.add(t, vset)
