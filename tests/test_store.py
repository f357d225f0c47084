"""Annotated store: commit semantics, indexes, materialization, stats."""

import itertools
import logging
import random
import sys
import tempfile
import threading
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from vgstore import (
    AnnotatedStore,
    Delta,
    DeltaError,
    EMPTY_DELTA,
    Iri,
    NotFoundError,
    StateError,
    StoreStats,
    Triple,
    ValidationError,
    VersionDag,
    load_repository,
    repack,
    save_repository,
    serialize_ntriples,
)

from vgstore.bench import QUERIES, ScenarioParams, generate
from vgstore.engine import eval_annotated
from vgstore.sparql import parse_query
from vgstore.store import TripleIndex
from vgstore.versionsets import ExtensionSet, set_class

from helpers import (
    assert_versions_are_scans,
    random_repo,
    reference_delta,
    triple_pool,
    version_set,
)


def fresh():
    return AnnotatedStore(), VersionDag()


def t(store, tag):
    return store.dictionary.triple(
        Iri(f"urn:ex:s:{tag}"), Iri("urn:ex:p"), Iri(f"urn:ex:o:{tag}")
    )


def adds(*triples):
    return Delta(frozenset(triples), frozenset())


def test_delta_rejects_overlap():
    store, _ = fresh()
    x = t(store, "x")
    with pytest.raises(ValidationError):
        Delta(frozenset({x}), frozenset({x}))


def test_root_commit():
    store, dag = fresh()
    t1, t2 = t(store, "1"), t(store, "2")
    seq = store.apply_commit(dag, [], "main", adds(t1, t2))
    assert seq == 0
    assert store.n_versions == 1
    assert store.materialize(0) == {t1, t2}
    assert t1 in store and t2 in store
    assert set(version_set(store, t1)) == {0}


def test_child_is_parent_minus_removals_plus_additions():
    store, dag = fresh()
    t1, t2, t3 = (t(store, x) for x in "123")
    store.apply_commit(dag, [], "main", adds(t1, t2))
    store.apply_commit(dag, [0], "main", Delta(frozenset({t3}), frozenset({t1})))
    assert store.materialize(1) == {t2, t3}
    assert set(version_set(store, t1)) == {0}
    assert set(version_set(store, t2)) == {0, 1}
    assert set(version_set(store, t3)) == {1}


def test_merge_unions_parents_before_the_delta():
    store, dag = fresh()
    t1, t2, t3 = (t(store, x) for x in "123")
    store.apply_commit(dag, [], "main", adds(t1))
    dag.create_branch("side", at=0)
    store.apply_commit(dag, [0], "main", adds(t2))  # 1
    store.apply_commit(dag, [0], "side", adds(t3))  # 2
    store.apply_commit(dag, [1, 2], "main", Delta(frozenset(), frozenset({t1})))
    assert store.materialize(3) == {t2, t3}


def test_re_adding_a_present_triple_is_fine():
    store, dag = fresh()
    t1 = t(store, "1")
    store.apply_commit(dag, [], "main", adds(t1))
    store.apply_commit(dag, [0], "main", adds(t1))
    assert set(version_set(store, t1)) == {0, 1}


def test_strict_spurious_removal_fails_and_leaves_state_alone():
    store, dag = fresh()
    t1, t2, ghost = t(store, "1"), t(store, "2"), t(store, "ghost")
    store.apply_commit(dag, [], "main", adds(t1))
    dag.create_branch("side", at=0)
    store.apply_commit(dag, [0], "main", adds(t2))  # 1; 0 is still side's head

    def state():
        return (
            list(store._steps), dict(store._open), list(store._closed), store._written,
            store.n_versions, dag.commits(), dag.branches,
        )

    before = state()
    # on the version applied last, on another head, and a merge of both
    for parents, branch in (([1], "main"), ([0], "side"), ([1, 0], "main")):
        with pytest.raises(DeltaError):
            store.apply_commit(
                dag, parents, branch, Delta(frozenset({t(store, "3")}), frozenset({ghost}))
            )
        assert state() == before
    assert store.materialize(0) == {t1} and store.materialize(1) == {t1, t2}


def test_permissive_spurious_removal_warns_and_proceeds(caplog):
    store, dag = fresh()
    t1, ghost = t(store, "1"), t(store, "ghost")
    store.apply_commit(dag, [], "main", adds(t1))
    with caplog.at_level(logging.WARNING):
        seq = store.apply_commit(
            dag, [0], "main", Delta(frozenset(), frozenset({ghost})), strict=False
        )
    assert seq == 1
    assert store.materialize(1) == {t1}
    assert any("removal" in r.message for r in caplog.records)


def test_delta_is_relative_to_the_parents_union():
    store, dag = fresh()
    t1, t2, t3, ghost = (t(store, x) for x in ("1", "2", "3", "ghost"))
    store.apply_commit(dag, [], "main", adds(t1, t2))
    # t1 is already present and ghost is absent: neither is part of the delta
    store.apply_commit(
        dag, [0], "main", Delta(frozenset({t1, t3}), frozenset({t2, ghost})),
        strict=False,
    )
    assert store.delta(0) == adds(t1, t2)
    assert store.delta(1) == Delta(frozenset({t3}), frozenset({t2}))
    with pytest.raises(NotFoundError):
        store.delta(2)


def test_every_version_materializes_its_content_as_a_fresh_set():
    store, dag = fresh()
    t1, t2, t3 = t(store, "1"), t(store, "2"), t(store, "3")
    contents = []

    def commit(parents, branch, delta, content):
        store.apply_commit(dag, parents, branch, delta)
        contents.append(content)
        for v, expected in enumerate(contents):
            got = store.materialize(v)
            assert got == expected
            got.add(t(store, "4"))  # a fresh set: the open runs and steps are not touched
            assert store.materialize(v) == expected

    commit([], "main", adds(t1), {t1})
    dag.create_branch("side", at=0)
    commit([0], "main", adds(t2), {t1, t2})
    commit([1], "main", EMPTY_DELTA, {t1, t2})
    commit([0], "side", adds(t3), {t1, t3})
    commit([2, 3], "main", Delta(frozenset(), frozenset({t1})), {t2, t3})
    commit([3], "side", Delta(frozenset({t1}), frozenset({t3})), {t1})
    assert_versions_are_scans(store)


def _linear_commit_peak_bytes(n_triples: int, encoding: str) -> int:
    """The least peak allocation of five one-parent commits of two additions
    and two removals on the version applied last, which holds n_triples."""
    store = AnnotatedStore(encoding=encoding)
    dag = VersionDag()
    pool = [t(store, str(i)) for i in range(n_triples + 10)]
    store.apply_commit(dag, [], "main", adds(*pool[:n_triples]))
    peaks = []
    for i in range(5):
        delta = Delta(
            frozenset(pool[n_triples + 2 * i : n_triples + 2 * i + 2]),
            frozenset(pool[2 * i : 2 * i + 2]),
        )
        tracemalloc.start()
        try:
            store.apply_commit(dag, [i], "main", delta)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


@pytest.mark.parametrize("encoding", ["extension", "interval"])
def test_a_linear_commit_allocates_for_its_delta_not_its_version(encoding):
    # copying a version of 10,000 triples even once allocates about 0.5 MB
    small = _linear_commit_peak_bytes(100, encoding)
    assert _linear_commit_peak_bytes(10_000, encoding) <= small + 1024


def test_store_dag_version_count_mismatch():
    store, _ = fresh()
    other = VersionDag()
    other.commit([], "main")
    with pytest.raises(StateError):
        store.apply_commit(other, [0], "main", EMPTY_DELTA)


def test_materialize_unknown_version():
    store, dag = fresh()
    store.apply_commit(dag, [], "main", adds(t(store, "1")))
    with pytest.raises(NotFoundError):
        store.materialize(1)
    with pytest.raises(NotFoundError):
        store.materialize(-1)
    for v in (False, True):  # a bool is no version number
        with pytest.raises(NotFoundError):
            store.materialize(v)
        with pytest.raises(NotFoundError):
            store.delta(v)


def test_version_set_unknown_triple_is_none():
    store, dag = fresh()
    store.apply_commit(dag, [], "main", adds(t(store, "1")))
    stranger = t(store, "stranger")
    assert version_set(store, stranger) is None
    assert stranger not in store


def test_stats_single_version():
    store, dag = fresh()
    k = 7
    store.apply_commit(dag, [], "main", adds(*(t(store, str(i)) for i in range(k))))
    assert store.stats() == StoreStats(
        distinct_triples=k,
        versions=1,
        scalar_cost_total=k,
        triples_sum_over_versions=k,
    )


@pytest.mark.parametrize("encoding,expected_cost", [("extension", 70), ("interval", 14)])
def test_stats_ten_unchanged_versions(encoding, expected_cost):
    store = AnnotatedStore(encoding=encoding)
    dag = VersionDag()
    k = 7
    store.apply_commit(dag, [], "main", adds(*(t(store, str(i)) for i in range(k))))
    for i in range(1, 10):
        store.apply_commit(dag, [i - 1], "main", EMPTY_DELTA)
    got = store.stats()
    assert got.distinct_triples == k
    assert got.versions == 10
    assert got.triples_sum_over_versions == 10 * k
    assert got.scalar_cost_total == expected_cost


@given(st.integers(0, 10_000), st.sampled_from(["extension", "interval"]))
@settings(max_examples=40, deadline=None)
def test_stats_invariants_on_random_repos(seed, encoding):
    store, dag = random_repo(random.Random(seed), encoding=encoding)
    got = store.stats()
    assert got.versions == len(dag) == store.n_versions
    assert got.distinct_triples <= got.triples_sum_over_versions
    per_triple_cost = sum(
        version_set(store, triple).scalar_cost()
        for triple, _ in store.match()
    )
    assert got.scalar_cost_total == per_triple_cost
    if encoding == "extension":
        assert got.scalar_cost_total == got.triples_sum_over_versions


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_materialize_matches_delta_replay_oracle(seed):
    history: list = []
    store, dag = random_repo(random.Random(seed), history=history)
    mats: list[set] = []
    for parents, delta in history:
        union = set()
        for p in parents:
            union |= mats[p]
        mats.append((union - delta.removals) | delta.additions)
    assert len(mats) == store.n_versions
    present: set[Triple] = set()
    for v, expected in enumerate(mats):
        assert store.materialize(v) == expected
        present |= expected
    # a triple's version set is exactly the versions whose graph holds it
    for triple in present:
        assert set(version_set(store, triple)) == {
            v for v, mat in enumerate(mats) if triple in mat
        }
    assert store.stats().distinct_triples == len(present)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_match_agrees_with_naive_scan(seed):
    rng = random.Random(seed)
    store, _ = random_repo(rng, allow_blanks=True)
    stored = {triple: vset for triple, vset in store.match()}
    ids = sorted({x for triple in stored for x in (triple.s, triple.p, triple.o)})
    absent = max(ids) + 1 if ids else 0
    choices = ids + [absent]
    probes = [(None, None, None)]
    for _ in range(25):
        probes.append(
            tuple(rng.choice(choices) if rng.random() < 0.6 else None for _ in range(3))
        )
    some = rng.choice(sorted(stored, key=lambda x: (x.s, x.p, x.o)))
    probes += [(some.s, some.p, some.o), (some.s, None, some.o), (None, some.p, None)]
    for s, p, o in probes:
        expected = {
            triple
            for triple in stored
            if (s is None or triple.s == s)
            and (p is None or triple.p == p)
            and (o is None or triple.o == o)
        }
        got = list(store.match(s, p, o))
        assert {triple for triple, _ in got} == expected
        assert len(got) == len(expected)
        for triple, vset in got:
            assert vset is stored[triple]  # one live set shared by all indexes


def test_indexes_share_one_version_set_object():
    store, dag = fresh()
    t1 = t(store, "1")
    store.apply_commit(dag, [], "main", adds(t1))
    sets = {id(vset) for _, vset in store.match(s=t1.s)}
    sets |= {id(vset) for _, vset in store.match(p=t1.p)}
    sets |= {id(vset) for _, vset in store.match(o=t1.o)}
    assert sets == {id(version_set(store, t1))}


def test_all_arity_patterns_on_a_small_store():
    store, dag = fresh()
    triples = [t(store, str(i)) for i in range(3)]
    store.apply_commit(dag, [], "main", adds(*triples))
    x = triples[0]
    for mask in itertools.product([False, True], repeat=3):
        pattern = [val if bound else None for bound, val in zip(mask, (x.s, x.p, x.o))]
        got = {triple for triple, _ in store.match(*pattern)}
        expected = {
            triple
            for triple in triples
            if all(
                want is None or have == want
                for want, have in zip(pattern, (triple.s, triple.p, triple.o))
            )
        }
        assert got == expected


_IDS = st.integers(0, 3)  # few ids, so that triples share prefixes and recur
_INDEX_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.tuples(_IDS, _IDS, _IDS), st.integers(0, 2)),
        # the i-th held triple, modulo their count, in sorted order
        st.tuples(st.just("discard"), st.integers(0, 11)),
        st.tuples(st.just("match"), st.tuples(_IDS, _IDS, _IDS)),
    ),
    max_size=30,
)


@given(st.dictionaries(st.tuples(_IDS, _IDS, _IDS), st.integers(0, 2), max_size=12), _INDEX_OPS)
@settings(max_examples=200, deadline=None)
@example({(0, 1, 2): 0}, [("discard", 0), ("add", (0, 1, 2), 1), ("discard", 0)])
@example({(0, 1, 2): 0, (0, 1, 3): 0, (1, 1, 2): 0},
         [("discard", 0), ("discard", 0), ("discard", 0)])
def test_triple_index_agrees_with_a_scan_of_its_leaves(leaves, ops):
    """Adds, some replacing a leaf, and discards, some emptying a level of a
    permutation, each followed by matches of every bound/unbound mask against
    a scan of a plain dict.  Every permutation built equals that of an index
    built afresh from the leaves, so a discard leaves no empty level behind."""
    reference = {Triple(*x): leaf for x, leaf in leaves.items()}
    index = TripleIndex(dict(reference))
    for op in ops:
        if op[0] == "add":
            x, leaf = Triple(*op[1]), op[2]
            index.add(x, leaf)
            reference[x] = leaf
        elif op[0] == "discard":
            if not reference:
                continue
            x = sorted(reference)[op[1] % len(reference)]
            index.discard(x)
            del reference[x]
        else:
            x = Triple(*op[1])
        for mask in itertools.product([False, True], repeat=3):
            pattern = [value if bound else None for bound, value in zip(mask, x)]
            got = list(index.match(*pattern))
            expected = [
                (t, leaf)
                for t, leaf in reference.items()
                if all(want is None or have == want for want, have in zip(pattern, t))
            ]
            assert sorted(got) == sorted(expected)
        fresh = TripleIndex(dict(reference))
        assert {name: fresh._permutation(name) for name in index._built} == index._built
    assert index._leaves == reference


@given(st.integers(0, 10_000), st.sampled_from(["extension", "interval"]))
@settings(max_examples=40, deadline=None)
def test_recorded_deltas_and_snapshots_match_full_scans(seed, encoding):
    store, dag = random_repo(random.Random(seed), encoding=encoding, allow_blanks=True)
    for repacked in (False, True):
        if repacked:
            before = {x: set(vset) for x, vset in store.match()}
            mapping = repack(dag, store)
            assert {x: set(vset) for x, vset in store.match()} == {
                x: {mapping[v] for v in versions} for x, versions in before.items()
            }
        for v in range(store.n_versions):
            assert store.delta(v) == reference_delta(store, dag, v)
        assert_versions_are_scans(store)


def _reference_sets(model: dict[int, set[Triple]]) -> dict[Triple, set[int]]:
    """Each triple's versions, from a plain dict of version -> triple set."""
    out: dict[Triple, set[int]] = {}
    for v, content in model.items():
        for triple in content:
            out.setdefault(triple, set()).add(v)
    return out


def _pending_view(store: AnnotatedStore) -> dict[Triple, set[int]]:
    """What reads would return, taken without a read: the written sets plus
    the versions not yet written of the runs commits closed and of the open
    runs."""
    view = {triple: set(vset) for triple, vset in store._sets.items()}
    last = store.n_versions - 1
    for triple, start, end in [*store._closed, *((x, s, last) for x, s in store._open.items())]:
        view.setdefault(triple, set()).update(range(max(start, store._written), end + 1))
    return view


@pytest.mark.parametrize("encoding", ["extension", "interval"])
def test_repack_reopens_runs_at_the_new_last_version(encoding):
    store = AnnotatedStore(encoding=encoding)
    dag = VersionDag()
    a, b, c, d, e, f = (t(store, x) for x in "abcdef")
    store.apply_commit(dag, [], "main", adds(a, b))  # 0
    dag.create_branch("side", at=0)
    store.apply_commit(dag, [0], "main", adds(c))  # 1
    store.apply_commit(dag, [0], "side", Delta(frozenset({d}), frozenset({a})))  # 2
    store.apply_commit(dag, [1], "main", adds(e))  # 3
    # depth first, main's chain comes first: 0, 1, 3, 2
    assert repack(dag, store) == {0: 0, 1: 1, 3: 2, 2: 3}
    store.apply_commit(dag, [3], "side", adds(f))  # 4 = {b, d, f}
    assert {x: set(vset) for x, vset in store.match()} == {
        a: {0, 1, 2}, b: {0, 1, 2, 3, 4}, c: {1, 2}, d: {3, 4}, e: {2}, f: {4}
    }


EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)
STEPS = ("commit", "branch", "merge", "permissive", "strict-fail", "read", "repack", "save")


@given(
    st.sampled_from(["extension", "interval"]),
    st.integers(0, 10_000),
    st.lists(st.sampled_from(STEPS), min_size=1, max_size=30),
)
# random steps seldom renumber a saved version: this seed's repack does
@example("extension", 5, ["branch", "commit", "commit", "save", "repack", "save", "commit", "save"])
@example("interval", 5, ["branch", "commit", "commit", "save", "repack", "save", "commit", "save"])
# two repacks renumber a saved version between saves of one length of history
@example("extension", 127, ["branch", "commit", "commit", "save", "repack", "commit", "save",
                            "repack", "save"])
@settings(max_examples=80, deadline=None)
def test_open_runs_agree_with_a_reference_model(encoding, seed, steps):
    """Commits leave runs open; whatever the order of commits, branches,
    merges, repacks and reads, every read sees the reference version sets.
    Saves append to one directory until a repack renumbers a version it
    holds; from then on they go to a fresh one."""
    with tempfile.TemporaryDirectory() as tmp:
        _run_reference_model(encoding, seed, steps, Path(tmp))


def _run_reference_model(encoding, seed, steps, tmp: Path):
    rng = random.Random(seed)
    store = AnnotatedStore(encoding=encoding)
    dag = VersionDag()
    pool = sorted(triple_pool(rng, store), key=lambda x: (x.s, x.p, x.o))
    model: dict[int, set[Triple]] = {}

    def commit(parents, branch, spurious=False, strict=True):
        union = set().union(*(model[p] for p in parents))
        adds = set(rng.sample(pool, rng.randint(0, 4)))
        present = sorted(union - adds, key=lambda x: (x.s, x.p, x.o))
        rems = set(rng.sample(present, min(len(present), rng.randint(0, 3))))
        if spurious:
            absent = [x for x in pool if x not in union and x not in adds]
            rems |= set(rng.sample(absent, min(len(absent), 2)))
        delta = Delta(frozenset(adds), frozenset(rems))
        # a distinct timestamp per commit: a renumbered commit never
        # matches the one saved at its new number
        stamp = EPOCH + timedelta(seconds=len(dag))
        seq = store.apply_commit(dag, parents, branch, delta, strict=strict, timestamp=stamp)
        model[seq] = (union - rems) | adds

    def read():
        kind = rng.choice(("match", "version_set", "in", "stats", "materialize"))
        expected = _reference_sets(model)
        if kind == "match":
            assert {x: set(vset) for x, vset in store.match()} == expected
            # a probe through a random permutation, which builds it or
            # reads what the flush added to it
            probe, position = rng.choice(pool), rng.randrange(3)
            pattern = [None, None, None]
            pattern[position] = probe[position]
            assert {x: set(vset) for x, vset in store.match(*pattern)} == {
                x: versions for x, versions in expected.items() if x[position] == probe[position]
            }
        elif kind == "version_set":
            probe = rng.choice(pool)
            got = version_set(store, probe)
            assert (set(got) if got is not None else None) == expected.get(probe)
        elif kind == "in":
            probe = rng.choice(pool)
            assert (probe in store) == (probe in expected)
        elif kind == "stats":
            stats = store.stats()
            assert stats.distinct_triples == len(expected)
            assert stats.triples_sum_over_versions == sum(map(len, model.values()))
        else:
            v = rng.randrange(len(dag))
            assert store.materialize(v) == model[v]

    target = tmp / "0"
    saved = 0  # versions the manifest in target lists
    patches: dict[str, bytes] = {}  # what target's deltas/ held after the last save
    stale = False  # a repack renumbered a version target holds

    def files(directory: Path) -> dict[str, bytes]:
        return {str(p.relative_to(directory)): p.read_bytes()
                for p in directory.rglob("*") if p.is_file()}

    def save():
        nonlocal target, saved, patches, stale
        if stale:
            before = files(target)
            with pytest.raises(StateError):
                save_repository(store, dag, target)
            assert files(target) == before
            # the next directory name: two repacks between saves of one
            # length of history would otherwise reuse the stale one
            target, saved, patches, stale = tmp / str(int(target.name) + 1), 0, {}, False
        save_repository(store, dag, target)
        now = files(target / "deltas")
        assert sorted(now) == sorted(f"{v}.patch" for v in range(len(dag)))
        assert all(now[name] == data for name, data in patches.items())
        saved, patches = len(dag), now
        loaded, loaded_dag = load_repository(target, encoding=encoding)
        assert loaded_dag.branches == dag.branches
        assert_versions_are_scans(loaded)
        assert loaded.n_versions == len(model)
        for v, content in model.items():
            assert serialize_ntriples(loaded.materialize(v), loaded.dictionary) == (
                serialize_ntriples(content, store.dictionary)
            )

    commit([], "main")
    for step in steps:
        branches = sorted(dag.branches)
        if step == "commit":
            branch = rng.choice(branches)
            commit([dag.branch_head(branch)], branch)
        elif step == "branch":
            name = f"b{len(dag)}"
            dag.create_branch(name, at=rng.randrange(len(dag)))
            commit([dag.branch_head(name)], name)
        elif step == "merge" and len(branches) > 1:
            into, other = rng.sample(branches, 2)
            parents = [dag.branch_head(into), dag.branch_head(other)]
            if parents[0] != parents[1]:
                commit(parents, into)
        elif step == "permissive":
            commit([dag.branch_head("main")], "main", spurious=True, strict=False)
        elif step == "strict-fail":
            head = dag.branch_head("main")
            absent = [x for x in pool if x not in model[head]]
            before = _pending_view(store)
            with pytest.raises(DeltaError):
                store.apply_commit(
                    dag, [head], "main", Delta(frozenset(), frozenset(absent[:1]))
                )
            assert len(dag) == store.n_versions == len(model)
            assert _pending_view(store) == before
        elif step == "read":
            read()
        elif step == "repack":
            mapping = repack(dag, store)
            model = {mapping[v]: content for v, content in model.items()}
            stale = stale or any(mapping[v] != v for v in range(saved))
        elif step == "save":
            save()
        assert _pending_view(store) == _reference_sets(model)
        # every version's content, taken without a read so that runs stay open
        assert store._open.keys() == model[store.n_versions - 1]
        assert all(store.materialize(v) == content for v, content in model.items())
        assert store._index._leaves is store._sets
        for held in _built(store).values():
            assert held.keys() == store._sets.keys()
            assert all(vset is store._sets[x] for x, vset in held.items())
    assert_versions_are_scans(store)
    assert {x: set(vset) for x, vset in store.match()} == _reference_sets(model)


def _built(store: AnnotatedStore) -> dict[str, dict[Triple, object]]:
    """Each permutation the store's index has built, as the triples it holds
    with their leaves, taken without a read."""
    out = {}
    for name, perm in store._index._built.items():
        held = out[name] = {}
        for a, level2 in perm.items():
            for b, level3 in level2.items():
                for c, leaf in level3.items():
                    x = [0, 0, 0]
                    for letter, value in zip(name, (a, b, c)):
                        x["spo".index(letter)] = value
                    held[Triple(*x)] = leaf
    return out


def _assert_built_permutations_hold_the_store(store: AnnotatedStore) -> None:
    """Every permutation built holds every stored triple with its live set."""
    for held in _built(store).values():
        assert held.keys() == store._sets.keys()
        assert all(vset is store._sets[x] for x, vset in held.items())


@pytest.mark.parametrize("first_read", ["match", "contains", "stats"])
def test_a_load_indexes_nothing_before_the_first_read(tmp_path, first_read):
    store, dag = fresh()
    for v in range(5):
        gone = frozenset({t(store, str(v - 1))} if v else ())
        delta = Delta(frozenset({t(store, str(v))}), gone)
        store.apply_commit(dag, [v - 1] if v else [], "main", delta)
    save_repository(store, dag, tmp_path)
    store, dag = load_repository(tmp_path)
    assert _built(store) == {} and store._sets == {}
    if first_read == "match":
        next(store.match())
    elif first_read == "contains":
        assert next(iter(store._open)) in store
    else:
        store.stats()
    # a full scan reads SPO; the other reads read no permutation
    assert set(_built(store)) == ({"spo"} if first_read == "match" else set())
    _assert_built_permutations_hold_the_store(store)
    x = next(iter(store._sets))
    for pattern in ((x.s, None, None), (None, x.p, None), (None, None, x.o)):
        assert x in {y for y, _ in store.match(*pattern)}
    assert set(_built(store)) == {"spo", "pos", "osp"}
    _assert_built_permutations_hold_the_store(store)


@pytest.mark.parametrize("encoding", ["extension", "interval"])
def test_a_load_or_a_commit_builds_no_permutation(tmp_path, encoding):
    # a branching history, whose load writes no run
    store, dag = random_repo(random.Random(5), encoding=encoding, allow_blanks=True)
    save_repository(store, dag, tmp_path)
    store, dag = load_repository(tmp_path, encoding=encoding)
    assert store._written == 0
    assert _built(store) == {}
    main = dag.branch_head("main")
    store.apply_commit(dag, [main], "main", adds(t(store, "a")))
    store.apply_commit(dag, [main], "main", adds(t(store, "b")))  # not on the last
    assert _built(store) == {}
    x = t(store, "a")
    assert [y for y, _ in store.match(p=x.p, o=x.o)] == [x]
    assert set(_built(store)) == {"pos"}
    # a commit leaves the permutations already built as they are, and the
    # next read adds what the commit stored to them
    new, built = t(store, "c"), _built(store)
    store.apply_commit(dag, [dag.branch_head("main")], "main", adds(new))
    assert _built(store) == built and new not in built["pos"]
    assert [y for y, _ in store.match(p=new.p, o=new.o)] == [new]
    assert new in _built(store)["pos"]
    assert set(_built(store)) == {"pos"}
    _assert_built_permutations_hold_the_store(store)


@pytest.mark.parametrize("encoding", ["extension", "interval"])
def test_a_commit_on_an_old_version_and_a_merge_read_no_version_set(tmp_path, encoding):
    store, dag = random_repo(random.Random(5), encoding=encoding, allow_blanks=True)
    save_repository(store, dag, tmp_path)
    store, dag = load_repository(tmp_path, encoding=encoding)
    old = min(set(range(store.n_versions)) - dag.heads())
    main, new = dag.branch_head("main"), t(store, "past")
    dag.create_branch("past", at=old)
    content = {old: store.materialize(old), main: store.materialize(main)}
    v = store.apply_commit(dag, [old], "past", adds(new))
    merged = store.apply_commit(dag, [main, v], "main", EMPTY_DELTA)
    assert store._sets == {} and store._written == 0
    assert store.materialize(v) == content[old] | {new}
    assert store.materialize(merged) == content[main] | content[old] | {new}
    assert_versions_are_scans(store)


def test_the_first_accessible_pairs_read_builds_only_pos(tmp_path):
    params = ScenarioParams(buildings=20, stations=6, versions=12, branch_prob=0.3,
                            churn=0.1, seed=4)
    generate(params, tmp_path)
    store, dag = load_repository(tmp_path)
    text, domain = QUERIES["accessible-pairs"]
    table = eval_annotated(store, dag, parse_query(text), domain)
    assert table.rows
    assert set(_built(store)) == {"pos"}
    _assert_built_permutations_hold_the_store(store)


def listed(vset) -> bool:
    try:  # the slot's own descriptor, which lists nothing
        ExtensionSet._members.__get__(vset, ExtensionSet)
    except AttributeError:
        return False
    return True


def test_a_query_lists_the_members_of_only_the_sets_it_matched(tmp_path, monkeypatch):
    """After a load in extension, the first read builds each set from its
    runs; a query lists the members of the sets its patterns matched, and
    stats lists no other."""
    params = ScenarioParams(buildings=30, stations=8, versions=40, branch_prob=0.0,
                            churn=0.1, seed=11)
    generate(params, tmp_path)
    store, dag = load_repository(tmp_path, encoding="extension")
    matched: set = set()
    match = AnnotatedStore.match

    def recorded_match(self, *args, **kwargs):
        for triple, vset in match(self, *args, **kwargs):
            matched.add(triple)
            yield triple, vset

    monkeypatch.setattr(AnnotatedStore, "match", recorded_match)
    text, domain = QUERIES["accessible-pairs"]
    assert eval_annotated(store, dag, parse_query(text), domain).rows

    assert matched and len(matched) < len(store._sets)
    by_query = {x for x, vset in store._sets.items() if listed(vset)}
    assert by_query == matched
    reference, _ = load_repository(tmp_path, encoding="extension")
    assert all(list(vset) for _, vset in reference.match())
    assert all(listed(vset) for vset in reference._sets.values())
    assert store.stats() == reference.stats()
    assert {x for x, vset in store._sets.items() if listed(vset)} == by_query


def test_stats_on_a_fresh_load_lists_no_set(tmp_path):
    """stats counts an extension set built from runs from the runs, and
    reads what a store whose every set is listed reads."""
    generate(ScenarioParams(buildings=30, stations=8, versions=40, branch_prob=0.2,
                            churn=0.1, seed=11), tmp_path)
    store, _ = load_repository(tmp_path, encoding="extension")
    stats = store.stats()
    assert store._sets and not any(listed(vset) for vset in store._sets.values())
    reference, _ = load_repository(tmp_path, encoding="extension")
    assert all(list(vset) for _, vset in reference.match())
    assert all(listed(vset) for vset in reference._sets.values())
    assert stats == reference.stats()


@pytest.mark.parametrize("encoding", ["extension", "interval"])
def test_match_finds_what_a_commit_after_a_read_or_a_repack_stored(encoding):
    store, dag = random_repo(random.Random(5), encoding=encoding)
    before = {x for x, _ in store.match()}
    new = t(store, "new")
    store.apply_commit(dag, [dag.branch_head("main")], "main", adds(new))
    assert [x for x, _ in store.match(s=new.s)] == [new]
    repack(dag, store)  # a replay onto the emptied store
    newer = t(store, "newer")
    store.apply_commit(dag, [dag.branch_head("main")], "main", adds(newer))
    assert {x for x, _ in store.match()} == before | {new, newer}
    assert [x for x, _ in store.match(o=newer.o)] == [newer]


def _linear_store(rng: random.Random, encoding: str, n_triples: int, versions: int):
    """A store with a linear history, its dag and each version's content."""
    store, dag = AnnotatedStore(encoding=encoding), VersionDag()
    d = store.dictionary
    pool = [
        d.triple(Iri(f"urn:ex:s{i}"), Iri("urn:ex:p"), Iri(f"urn:ex:o{i % 7}"))
        for i in range(n_triples)
    ]
    model: dict[int, set[Triple]] = {}
    content: set[Triple] = set()
    for v in range(versions):
        rems = set(rng.sample(sorted(content, key=pool.index), len(content) // 10))
        adds = set(rng.sample(pool, n_triples // 10)) - content
        store.apply_commit(
            dag, [v - 1] if v else [], "main", Delta(frozenset(adds), frozenset(rems))
        )
        content = (content - rems) | adds
        model[v] = content
    return store, dag, model


@pytest.mark.parametrize("encoding", ["extension", "interval"])
def test_concurrent_first_reads_write_open_runs_once(encoding, monkeypatch):
    """Eight threads make the first read after a replay at the same time,
    and again after more commits.  A run is written by an insert into a
    stored triple's set, or handed to _from_runs with the other runs of a
    triple new to the store."""
    set_cls = set_class(encoding)
    writes: list = []
    insert, from_runs = set_cls.insert, set_cls._from_runs

    def counted_insert(self, *args):
        writes.append(args)  # list.append is atomic, so no count is lost
        insert(self, *args)

    def counted_from_runs(runs):
        writes.extend([tuple(run) for run in runs])  # so is extend by a list
        return from_runs(runs)

    monkeypatch.setattr(set_cls, "insert", counted_insert)
    monkeypatch.setattr(set_cls, "_from_runs", staticmethod(counted_from_runs))
    indexed: list = []
    add = TripleIndex.add

    def counted_add(self, triple, leaf):
        indexed.append(triple)
        add(self, triple, leaf)

    monkeypatch.setattr(TripleIndex, "add", counted_add)
    permutations: list = []
    permutation = TripleIndex._permutation

    def recorded_permutation(self, name):
        perm = permutation(self, name)
        permutations.append((name, id(perm)))  # the index keeps perm alive
        return perm

    monkeypatch.setattr(TripleIndex, "_permutation", recorded_permutation)
    rng = random.Random(7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    def read_concurrently(store, expected):
        """Eight threads make the first read at the same time, through
        version_set or through each permutation."""
        barrier = threading.Barrier(8)
        results: list = []

        def first_read(i):
            barrier.wait()
            if i % 2:
                got = {x: set(version_set(store, x)) for x in expected}
            elif i == 0:
                got = {x: set(vset) for x, vset in store.match()}
            else:
                # by subject (SPO, as the full scan), predicate or object
                position, got = i // 2 - 1, {}
                for value in {x[position] for x in expected}:
                    pattern = [None, None, None]
                    pattern[position] = value
                    got.update((x, set(vset)) for x, vset in store.match(*pattern))
            results.append(got)

        threads = [threading.Thread(target=first_read, args=(i,)) for i in range(8)]
        unwritten = sum(end >= store._written for _, _, end in store._closed)
        writes.clear()
        indexed.clear()
        permutations.clear()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        assert all(got == expected for got in results)
        # one thread wrote each run, once: the open runs and the runs commits
        # closed that a read has not written yet
        assert len(writes) == len(store._open) + unwritten

    try:
        for _ in range(5):
            writes.clear()
            indexed.clear()
            permutations.clear()
            store, dag, model = _linear_store(rng, encoding, n_triples=400, versions=30)
            # the commits built no permutation, wrote no run and added no
            # triple
            assert permutations == [] and _built(store) == {}
            assert writes == [] and indexed == []
            # after the replay: the first read added each triple once, and
            # each permutation was built once, from the store's sets whole,
            # and read by every probe
            read_concurrently(store, _reference_sets(model))
            assert sorted(indexed) == sorted(store._sets)
            assert {name for name, _ in permutations} == {"spo", "pos", "osp"}
            assert len(set(permutations)) == 3
            built = set(permutations)
            # commits that store new triples add none of them; the next read
            # adds each of them once, to every permutation built, and builds
            # no permutation again
            new: set = set()
            writes.clear()
            indexed.clear()
            for k in range(3):
                more = {t(store, f"{k}.{i}") for i in range(20)}
                last = len(dag) - 1
                model[last + 1] = model[last] | more
                store.apply_commit(dag, [last], "main", adds(*more))
                new |= more
            assert writes == [] and indexed == []
            _assert_built_permutations_hold_the_store(store)
            read_concurrently(store, _reference_sets(model))
            assert sorted(indexed) == sorted(new)
            assert set(permutations) == built
            _assert_built_permutations_hold_the_store(store)
    finally:
        sys.setswitchinterval(interval)
