"""Annotated store: commit semantics, indexes, materialization, stats."""

import itertools
import logging
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

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
    repack,
)

from vgstore.versionsets import set_class

from helpers import random_repo, reference_delta, scan_version, triple_pool


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
    assert set(store.version_set(t1)) == {0}


def test_child_is_parent_minus_removals_plus_additions():
    store, dag = fresh()
    t1, t2, t3 = (t(store, x) for x in "123")
    store.apply_commit(dag, [], "main", adds(t1, t2))
    store.apply_commit(dag, [0], "main", Delta(frozenset({t3}), frozenset({t1})))
    assert store.materialize(1) == {t2, t3}
    assert set(store.version_set(t1)) == {0}
    assert set(store.version_set(t2)) == {0, 1}
    assert set(store.version_set(t3)) == {1}


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
    assert set(store.version_set(t1)) == {0, 1}


def test_strict_spurious_removal_fails_and_leaves_state_alone():
    store, dag = fresh()
    t1, ghost = t(store, "1"), t(store, "ghost")
    store.apply_commit(dag, [], "main", adds(t1))
    deltas, snapshots = dict(store._deltas), dict(store._snapshots)
    with pytest.raises(DeltaError):
        store.apply_commit(dag, [0], "main", Delta(frozenset(), frozenset({ghost})))
    assert store.n_versions == 1 and len(dag) == 1
    assert store.materialize(0) == {t1}
    assert store._deltas == deltas and store._snapshots == snapshots


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


def test_snapshots_are_kept_for_heads_only():
    store, dag = fresh()
    t1, t2 = t(store, "1"), t(store, "2")
    store.apply_commit(dag, [], "main", adds(t1))
    dag.create_branch("side", at=0)
    store.apply_commit(dag, [0], "main", adds(t2))
    assert set(store._snapshots) == {0, 1}  # 0 is still side's head
    store.apply_commit(dag, [1], "main", EMPTY_DELTA)
    assert set(store._snapshots) == {0, 2}
    got = store.materialize(2)
    got.add(t(store, "3"))  # a fresh set: the snapshot is not touched
    assert store.materialize(2) == {t1, t2}


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
    assert store.version_set(stranger) is None
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
        store.version_set(triple).scalar_cost()
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
        assert set(store.version_set(triple)) == {
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
    assert sets == {id(store.version_set(t1))}


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


@given(st.integers(0, 10_000), st.sampled_from(["extension", "interval"]))
@settings(max_examples=40, deadline=None)
def test_recorded_deltas_and_snapshots_match_full_scans(seed, encoding):
    store, dag = random_repo(random.Random(seed), encoding=encoding, allow_blanks=True)
    for repacked in (False, True):
        if repacked:
            repack(dag, store)
        for v in range(store.n_versions):
            assert store.delta(v) == reference_delta(store, dag, v)
        assert store._snapshots and set(store._snapshots) <= dag.heads()
        for v, snapshot in store._snapshots.items():
            assert snapshot == scan_version(store, v) == store.materialize(v)


def _reference_sets(model: dict[int, set[Triple]]) -> dict[Triple, set[int]]:
    """Each triple's versions, from a plain dict of version -> triple set."""
    out: dict[Triple, set[int]] = {}
    for v, content in model.items():
        for triple in content:
            out.setdefault(triple, set()).add(v)
    return out


def _pending_view(store: AnnotatedStore) -> dict[Triple, set[int]]:
    """What reads would return, taken without a read: the written sets plus
    the open runs not yet written."""
    view = {triple: set(vset) for triple, vset in store._sets.items()}
    for triple, start in store._open.items():
        view[triple] |= set(range(max(start, store._written), store.n_versions))
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


STEPS = ("commit", "branch", "merge", "permissive", "strict-fail", "read", "repack")


@given(
    st.sampled_from(["extension", "interval"]),
    st.integers(0, 10_000),
    st.lists(st.sampled_from(STEPS), min_size=1, max_size=30),
)
@settings(max_examples=80, deadline=None)
def test_open_runs_agree_with_a_reference_model(encoding, seed, steps):
    """Commits leave runs open; whatever the order of commits, branches,
    merges, repacks and reads, every read sees the reference version sets."""
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
        seq = store.apply_commit(dag, parents, branch, delta, strict=strict)
        model[seq] = (union - rems) | adds

    def read():
        kind = rng.choice(("match", "version_set", "stats", "materialize"))
        expected = _reference_sets(model)
        if kind == "match":
            assert {x: set(vset) for x, vset in store.match()} == expected
        elif kind == "version_set":
            probe = rng.choice(pool)
            got = store.version_set(probe)
            assert (set(got) if got is not None else None) == expected.get(probe)
        elif kind == "stats":
            stats = store.stats()
            assert stats.distinct_triples == len(expected)
            assert stats.triples_sum_over_versions == sum(map(len, model.values()))
        else:
            v = rng.randrange(len(dag))
            assert store.materialize(v) == model[v]

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
        assert _pending_view(store) == _reference_sets(model)
    assert {x: set(vset) for x, vset in store.match()} == _reference_sets(model)


def _linear_store(rng: random.Random, encoding: str, n_triples: int, versions: int):
    """A store with a linear history and its reference version sets."""
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
    return store, _reference_sets(model)


@pytest.mark.parametrize("encoding", ["extension", "interval"])
def test_concurrent_first_reads_write_open_runs_once(encoding, monkeypatch):
    """Eight threads make the first read after a replay at the same time."""
    set_cls = set_class(encoding)
    writes: list = []
    insert = set_cls.insert

    def counted_insert(self, *args):
        writes.append(args)  # list.append is atomic, so no count is lost
        insert(self, *args)

    monkeypatch.setattr(set_cls, "insert", counted_insert)
    rng = random.Random(7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            store, expected = _linear_store(rng, encoding, n_triples=400, versions=30)
            barrier = threading.Barrier(8)
            results: list = []

            def first_read(i):
                barrier.wait()
                if i % 2:
                    got = {x: set(store.version_set(x)) for x in expected}
                else:
                    got = {x: set(vset) for x, vset in store.match()}
                results.append(got)

            threads = [
                threading.Thread(target=first_read, args=(i,)) for i in range(8)
            ]
            writes.clear()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(results) == 8
            assert all(got == expected for got in results)
            # one thread wrote each open run, once
            assert len(writes) == len(store._open)
    finally:
        sys.setswitchinterval(interval)
