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
parents, which a save writes, by one rule over the parents' content.  The
content of the version applied last is the keys of the open runs, so a
commit whose only parent is that version looks up each triple of its delta
there, costs O(|delta|), and changes the open runs by its recorded delta.
Every other branch head keeps a frozen snapshot, taken when it stops being
the version applied last, so a commit on it costs time in proportion to its
content and not to the whole store.  A parent without a snapshot, such as an
old version a new branch starts from, is rebuilt by scanning the store.

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
indexes one materialized version with the leaf True.
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

# each permutation by name, with the triple positions of its three levels
_ORDERS = {"spo": (0, 1, 2), "pos": (1, 2, 0), "osp": (2, 0, 1)}


class TripleIndex:
    """Triples with their leaf values, read through SPO, POS and OSP
    permutations, each built from the leaves by the first match that needs it.

    leaves, if given, is the triple -> leaf dict the index reads and add
    writes.
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
        self._deltas: dict[int, Delta] = {}
        self._snapshots: dict[int, frozenset[Triple]] = {}
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
        way.  Returns the new version number.  A dag that already records
        the new version, as a loaded one does, keeps its record, which must
        have these parents and branch; only the branch's head moves to it.
        """
        n = self._n_versions
        record = dag.commit_meta(n) if len(dag) > n else None
        if len(dag) < n or record and (record.parents, record.branch) != (tuple(parents), branch):
            raise StateError(f"store knows {n} versions but dag has {len(dag)}")
        for p in parents:
            self._check_version(p)
        last, open_ = self._n_versions - 1, self._open
        on_last = len(parents) == 1 and parents[0] == last
        # the parents' content; that of the version applied last is the keys
        # of _open, which difference() probes once per element: O(|delta|)
        content = open_ if on_last else set().union(*map(self.materialize, parents))
        spurious = delta.removals.difference(content)
        recorded = Delta(delta.additions.difference(content), delta.removals - spurious)
        if on_last:
            leaving, arriving = recorded.removals, recorded.additions
        else:
            present = (content - delta.removals) | delta.additions
            leaving, arriving = open_.keys() - present, present.difference(open_)
        if spurious:
            if strict:
                sample = next(iter(spurious))
                raise DeltaError(
                    f"{len(spurious)} removal(s) not present in any parent, "
                    f"e.g. {format_triple(sample, self.dictionary)}"
                )
            log.warning("ignoring %d removal(s) absent from all parents", len(spurious))
        if record is None:
            seq = dag.commit(parents, branch, message=message, author=author,
                             timestamp=timestamp, provenance=provenance)
        else:  # as dag.commit would, move the branch head
            seq = dag._branches[branch] = n
        heads = dag.heads()
        if last in heads:
            self._snapshots[last] = frozenset(open_)
        # a triple that leaves closes its run at last, the old version; the
        # first read writes it
        self._closed.extend((triple, open_.pop(triple), last) for triple in leaving)
        open_.update(dict.fromkeys(arriving, seq))
        self._n_versions = seq + 1
        self._deltas[seq] = recorded
        self._prune_snapshots(heads)
        return seq

    def materialize(self, v: int) -> set[Triple]:
        """The plain triple set of version v, as a fresh mutable set.

        It is copied from the open runs if v was applied last, from v's
        snapshot if there is one, else reconstructed by scanning the store.
        """
        self._check_version(v)
        if v == self._n_versions - 1:
            return set(self._open)
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

    def _prune_snapshots(self, heads: set[int]) -> None:
        """Keep the snapshots of branch heads other than the version applied last."""
        last = self._n_versions - 1
        self._snapshots = {v: s for v, s in self._snapshots.items() if v in heads and v != last}

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
    branch starts at its first commit's first parent.  Then branches becomes
    the branch map, and only its heads keep snapshots.  A dag that records
    the commits to come, as a load's does, keeps its records, and its branch
    map is rebuilt as they are applied, as onto an empty dag."""
    if len(dag) > store.n_versions:
        dag._branches = {meta.branch: meta.seq for meta in dag.commits()[: store.n_versions]}
    for meta, delta in history:
        dag.start_branch(meta.branch, meta.parents)
        store.apply_commit(
            dag, list(meta.parents), meta.branch, delta, message=meta.message,
            author=meta.author, timestamp=meta.timestamp, provenance=meta.provenance,
        )
    dag._set_branches(branches)
    store._prune_snapshots(dag.heads())


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
