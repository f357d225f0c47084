"""Annotated store: commit semantics, indexes, materialization, stats."""

import itertools
import logging
import random

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

from helpers import random_repo, reference_delta, scan_version


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
    other.init_root()
    with pytest.raises(StateError):
        store.apply_commit(other, [0], "main", EMPTY_DELTA)


def test_materialize_unknown_version():
    store, dag = fresh()
    store.apply_commit(dag, [], "main", adds(t(store, "1")))
    with pytest.raises(NotFoundError):
        store.materialize(1)
    with pytest.raises(NotFoundError):
        store.materialize(-1)


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
