"""Triple store annotated with the set of versions containing each triple.

Instead of storing one graph per version, the store keeps every distinct
triple once and tags it with a VersionSet.  A commit writes no version set.
Each triple of the version applied last has an open run of versions; a
commit closes a triple's run when the triple leaves, by noting the run, and
opens one when a triple arrives.  A commit's work is therefore its
difference from the version applied last, which on a linear chain is its
delta, in dict operations.  The first read after commits writes, under a lock
so that concurrent readers do it once, every run they closed and every open run
up to the last version: an insert per run into a stored set, or one set from
all the runs of a triple new to the store, which an extension lists only when
read.  So a command that only writes, such as vg commit on a linear history,
builds no set.

Applying a commit also records the version's delta against the union of its
parents, which a save writes, and its step from its first parent: that
parent, the delta and an extra, empty unless the version is a merge, whose
xor is content ^ the parent's content.  A parent's number is below its
child's, so content(a) ^ content(b) is the xor of the steps up from the
higher of the two until they meet.  A read of any version, and a commit,
walk from the keys of the open runs, the content of the version applied
last; a commit on that version walks nothing and costs O(|delta|).  No
version is copied whole, and the store keeps nothing per branch head.

Only apply_commit changes what the store holds; a read only writes out the
runs commits closed or left open and builds the permutations it reads.
replay, the one way a recorded history becomes a store, applies commits
through it, then sets the branch map.  A load replays the parsed patches
onto the dag read from the manifest, which keeps its records; repack
renumbers the versions by emptying the dag and store and replaying the
recorded deltas in a new order.

TripleIndex is the package's one permutation index: a dict from each triple
to its leaf value, and SPO, POS and OSP permutations over it, read by a
bound-prefix walk.  A permutation is built from the leaves by the first match
that reads it, so a query pays only for the permutations it probes.  The
store's leaves dict is its own dict of live VersionSets, shared by every
permutation, and the first read stores a new triple through the index's add,
so every permutation built holds every stored triple; the checkout evaluator
indexes a version with the leaf True and steps it to another version through
discard and add, by the triples of changed, their content difference.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, replace
from datetime import datetime
from itertools import chain
from typing import Iterable, Iterator

from .dag import CommitMeta, Provenance, VersionDag, _repack_order, is_int
from .errors import DeltaError, NotFoundError, StateError, ValidationError
from .ntriples import format_triple
from .terms import Dictionary, TermId, Triple
from .versionsets import VersionSet, set_class

log = logging.getLogger(__name__)

_Index = dict[int, dict[int, dict[int, object]]]

_NOTHING: frozenset[Triple] = frozenset()

# each permutation by name, with the triple positions of its three levels
_ORDERS = {"spo": (0, 1, 2), "pos": (1, 2, 0), "osp": (2, 0, 1)}


class TripleIndex:
    """Triples with their leaf values, read through SPO, POS and OSP
    permutations, each built from the leaves by the first match that needs it.

    leaves, if given, is the triple -> leaf dict the index reads and add
    and discard write.
    """

    def __init__(self, leaves: dict[Triple, object] | None = None):
        self._leaves = {} if leaves is None else leaves
        self._built: dict[str, _Index] = {}
        self._build_lock = threading.Lock()

    def add(self, t: Triple, leaf: object) -> None:
        """Index t with the given leaf, replacing any leaf it had, in every
        permutation built so far."""
        self._leaves[t] = leaf
        for name, perm in self._built.items():
            i, j, k = _ORDERS[name]
            perm.setdefault(t[i], {}).setdefault(t[j], {})[t[k]] = leaf

    def discard(self, t: Triple) -> None:
        """Unindex t, which the index holds, in every permutation built so
        far, dropping the levels it leaves empty, as a fresh build would."""
        del self._leaves[t]
        for name, perm in self._built.items():
            i, j, k = _ORDERS[name]
            level2 = perm[t[i]]
            del level2[t[j]][t[k]]
            if not level2[t[j]]:
                del level2[t[j]]
                if not level2:
                    del perm[t[i]]

    def _permutation(self, name: str) -> _Index:
        """The permutation, built on first use under a lock, so that
        concurrent first readers build it once."""
        if name not in self._built:
            with self._build_lock:
                if name not in self._built:
                    i, j, k = _ORDERS[name]
                    perm: _Index = {}
                    for t, leaf in self._leaves.items():
                        perm.setdefault(t[i], {}).setdefault(t[j], {})[t[k]] = leaf
                    self._built[name] = perm
        return self._built[name]

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
            for pp, oo, leaf in _walk(self._permutation("spo"), s, p, o):
                yield Triple(s, pp, oo), leaf
        elif p is not None:
            for oo, ss, leaf in _walk(self._permutation("pos"), p, o, None):
                yield Triple(ss, p, oo), leaf
        elif o is not None:
            for ss, pp, leaf in _walk(self._permutation("osp"), o, None, None):
                yield Triple(ss, pp, o), leaf
        else:
            for ss, level2 in self._permutation("spo").items():
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
        self._index = TripleIndex(self._sets)
        self._n_versions = 0
        # for each version, its first parent (-1 for the root), its recorded
        # delta, and what its content ^ that parent's holds beyond the delta
        self._steps: list[tuple[int, Delta, frozenset[Triple]]] = []
        # for each triple of the version applied last, a version from which
        # the triple is in every version up to it; then the runs commits
        # closed, as (triple, first, last).  The versions of those runs from
        # _written on are not yet in the sets, nor a triple new to the store
        self._open: dict[Triple, int] = {}
        self._closed: list[tuple[Triple, int, int]] = []
        self._written = 0
        self._flush_lock = threading.Lock()

    @property
    def n_versions(self) -> int:
        return self._n_versions

    def __contains__(self, triple: Triple) -> bool:
        self._flush()
        return triple in self._sets

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
        way.  Returns the new version number.  A dag that already records
        the new version, as a loaded one does, keeps its record, which must
        have these parents and branch, and its branch map as it is.

        One rule serves every commit: with d the parents' union ^ last, the
        version applied last, the new version ^ last is the recorded delta's
        triples ^ d, and d is empty when last is the only parent.
        """
        n = self._n_versions
        record = dag.commit_meta(n) if len(dag) > n else None
        if len(dag) < n or record and (record.parents, record.branch) != (tuple(parents), branch):
            raise StateError(f"store knows {n} versions but dag has {len(dag)}")
        for p in parents:
            self._check_version(p)
        last, open_ = n - 1, self._open
        changes = [self._changed(last, p) for p in parents]
        # d, the parents' union ^ last: what some parent holds and last lacks,
        # and what last holds and every parent lacks (all of it, with no
        # parent).  It is empty on last alone, where the ifs below do nothing
        d = (set().union(*changes).difference(open_) | set.intersection(*changes)
             if changes else set(open_))
        spurious = delta.removals.difference(open_)
        added = delta.additions.difference(open_)
        if d:
            spurious ^= delta.removals & d
            added ^= delta.additions & d
        recorded = Delta(added, delta.removals - spurious)
        leaving, arriving = recorded.removals, recorded.additions
        if d:
            changed = (leaving | arriving) ^ d
            arriving = changed.difference(open_)
            leaving = changed - arriving
        if spurious:
            if strict:
                sample = next(iter(spurious))
                raise DeltaError(
                    f"{len(spurious)} removal(s) not present in any parent, "
                    f"e.g. {format_triple(sample, self.dictionary)}"
                )
            log.warning("ignoring %d removal(s) absent from all parents", len(spurious))
        seq = n if record else dag.commit(parents, branch, message=message, author=author,
                                          timestamp=timestamp, provenance=provenance)
        # a triple that leaves closes its run at last, the old version; the
        # first read writes it
        self._closed.extend((triple, open_.pop(triple), last) for triple in leaving)
        open_.update(dict.fromkeys(arriving, seq))
        self._n_versions = seq + 1
        # a merge's extra: the union ^ its first parent
        extra = frozenset(d ^ changes[0]) if len(changes) > 1 else _NOTHING
        self._steps.append((parents[0] if parents else -1, recorded, extra))
        return seq

    def _changed(self, a: int, b: int) -> set[Triple]:
        """content(a) ^ content(b), as a fresh set: the xor of the steps on
        the tree path between a and b.  A parent's number is below its
        child's, so stepping up from the higher of the two meets the other."""
        out: set[Triple] = set()
        while a != b:
            if a < b:
                a, b = b, a
            a, recorded, extra = self._steps[a]  # step up to a's first parent
            out ^= recorded.additions
            out ^= recorded.removals
            out ^= extra
        return out

    def changed(self, a: int, b: int) -> set[Triple]:
        """content(a) ^ content(b), as a fresh set."""
        self._check_version(a)
        self._check_version(b)
        return self._changed(a, b)

    def materialize(self, v: int) -> set[Triple]:
        """The plain triple set of version v, as a fresh mutable set: the open
        runs' keys ^ the steps between v and the version applied last."""
        return self._open.keys() ^ self.changed(v, self._n_versions - 1)

    def delta(self, v: int) -> Delta:
        """What version v added to and removed from the union of its parents.

        Additions already in a parent and removals absent from every parent
        are not part of it, so it is the same whatever input produced v.
        """
        self._check_version(v)
        return self._steps[v][1]

    def _check_version(self, v: int) -> None:
        if not is_int(v) or not 0 <= v < self._n_versions:
            raise NotFoundError(f"unknown version: {v}")

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

    def _flush(self) -> None:
        """Write the runs commits closed, then the open runs up to the version
        applied last, each from _written on, as an insert into a stored set or
        one set from all the runs of a new triple; every commit adds a
        version, so they wait on it."""
        if self._written == self._n_versions:
            return
        with self._flush_lock:
            n, written = self._n_versions, self._written
            if written == n:
                return  # another reader wrote them first
            sets, new_runs = self._sets, {}
            open_runs = ((triple, start, n - 1) for triple, start in self._open.items())
            for triple, start, end in chain(self._closed, open_runs):
                vset = sets.get(triple)
                if vset is None:
                    new_runs.setdefault(triple, []).append([start, end])
                elif written <= end:
                    vset.insert(max(start, written), end)
            for triple, runs in new_runs.items():
                self._index.add(triple, self._set_cls._from_runs(runs))
            self._closed = []
            self._written = n


def replay(
    store: AnnotatedStore, dag: VersionDag,
    history: Iterable[tuple[CommitMeta, Delta]], branches: dict[str, int],
) -> None:
    """Apply each recorded delta on its meta's parents, with the meta's branch
    and metadata but not its seq, after what the store already holds; a new
    branch starts at its first commit's first parent.  A dag that records
    the commits to come, as a load's does, keeps its records.  Then branches
    becomes the branch map."""
    for meta, delta in history:
        dag.start_branch(meta.branch, meta.parents)
        store.apply_commit(
            dag, list(meta.parents), meta.branch, delta, message=meta.message,
            author=meta.author, timestamp=meta.timestamp, provenance=meta.provenance,
        )
    dag._set_branches(branches)


def repack(dag: VersionDag, store: AnnotatedStore) -> dict[int, int]:
    """Renumber all versions for interval locality; returns {old: new}.

    The dag and store are emptied in place, then the recorded deltas are
    replayed in the new order, with renumbered parents and branch heads.
    Queries return the same results afterwards modulo the returned
    bijection.  A depth-first linear history maps to itself.
    """
    if len(dag) != store.n_versions:
        raise StateError(f"store knows {store.n_versions} versions but dag has {len(dag)}")
    if dag.is_empty:
        return {}
    order = _repack_order(dag)
    mapping = {old: new for new, old in enumerate(order)}
    history = [
        (replace(meta, parents=tuple(mapping[p] for p in meta.parents)), store.delta(meta.seq))
        for meta in sorted(dag.commits(), key=lambda meta: mapping[meta.seq])
    ]
    branches = {name: mapping[head] for name, head in dag.branches.items()}
    dag.__init__()
    store.__init__(store.dictionary, store.encoding)
    replay(store, dag, history, branches)
    return mapping
