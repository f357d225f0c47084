"""Commit history: numbering, branches, ancestry, repack renumbering."""

import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from vgstore import (
    AnnotatedStore,
    CommitMeta,
    Delta,
    Iri,
    NotFoundError,
    Provenance,
    StateError,
    ValidationError,
    VersionDag,
    parse_version_iri,
    repack,
    version_iri,
)

from helpers import EPOCH


def chain(n: int) -> VersionDag:
    dag = VersionDag()
    dag.commit([], "main")
    for i in range(1, n):
        dag.commit([i - 1], "main")
    return dag


def reachable(dag: VersionDag, start: int) -> set[int]:
    """Oracle: every version on some parent path from start, reflexively."""
    seen = set()
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        if cur in seen:
            continue
        seen.add(cur)
        frontier.extend(dag.commit_meta(cur).parents)
    return seen


def random_dag(rng: random.Random, n: int) -> VersionDag:
    dag = VersionDag()
    dag.commit([], "main")
    branch_count = 0
    for seq in range(1, n):
        roll = rng.random()
        names = sorted(dag.branches)
        if roll < 0.2 and seq >= 3:
            parents = sorted(rng.sample(range(seq), 2))
            dag.commit(parents, rng.choice(names))
        elif roll < 0.4:
            branch_count += 1
            name = f"b{branch_count}"
            dag.create_branch(name, rng.randrange(seq))
            dag.commit([dag.branch_head(name)], name)
        else:
            name = rng.choice(names)
            dag.commit([dag.branch_head(name)], name)
    return dag


def test_version_iri_round_trip():
    assert version_iri(3) == "urn:vg:version:3"
    for seq in (0, 1, 7, 42, 1000):
        assert parse_version_iri(version_iri(seq)) == seq


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x",
        "urn:vg:version:",
        "urn:vg:version:007",
        "urn:vg:version:-1",
        "urn:vg:version:1.5",
        "urn:vg:version:1 ",
        " urn:vg:version:1",
        "URN:VG:VERSION:1",
        "urn:vg:version:1x",
    ],
)
def test_parse_version_iri_rejects(text):
    assert parse_version_iri(text) is None


def test_init_root():
    # the root is an ordinary commit: the first one, with no parents, on main
    dag = VersionDag()
    assert dag.is_empty and len(dag) == 0
    prov = Provenance("step:0", "gen")
    seq = dag.commit([], "main", message="root", author="t", timestamp=EPOCH,
                     provenance=prov)
    assert seq == 0
    assert not dag.is_empty and len(dag) == 1
    assert dag.branches == {"main": 0}
    assert dag.commit_meta(0) == CommitMeta(
        seq=0, parents=(), branch="main", message="root", author="t",
        timestamp=EPOCH, provenance=prov,
    )
    assert dag.commit_meta(0).iri == "urn:vg:version:0"


def test_init_root_twice_fails():
    # a parentless commit is the root only on an empty dag and on main
    dag = VersionDag()
    with pytest.raises(ValidationError):
        dag.commit([], "side")
    assert dag.is_empty and dag.branches == {}
    dag.commit([], "main")
    with pytest.raises(ValidationError):
        dag.commit([], "main")
    dag.create_branch("side", at=0)
    with pytest.raises(ValidationError):
        dag.commit([], "side")
    assert len(dag) == 1 and dag.branches == {"main": 0, "side": 0}


def test_booleans_are_not_version_numbers():
    dag = chain(2)
    for v in (False, True):
        with pytest.raises(NotFoundError):
            dag.commit_meta(v)
        with pytest.raises(NotFoundError):
            dag.create_branch("x", at=v)
        with pytest.raises(NotFoundError):
            dag.commit([v], "main")
        with pytest.raises(NotFoundError):
            dag._set_branches({"main": v})
    assert len(dag) == 2 and dag.branches == {"main": 1}


def test_naive_timestamps_become_utc():
    dag = VersionDag()
    dag.commit([], "main", timestamp=datetime(2026, 3, 1, 12, 0, 0))
    assert dag.commit_meta(0).timestamp.tzinfo == timezone.utc


def test_commit_chain_numbers_densely():
    dag = chain(5)
    assert len(dag) == 5
    assert [m.seq for m in dag.commits()] == [0, 1, 2, 3, 4]
    assert dag.branch_head("main") == 4
    assert dag.heads() == {4}
    for i in range(1, 5):
        assert dag.commit_meta(i).parents == (i - 1,)


def test_commit_validation():
    dag = chain(2)
    with pytest.raises(ValidationError):
        dag.commit([], "main")
    with pytest.raises(ValidationError):
        dag.commit([1, 1], "main")
    with pytest.raises(NotFoundError):
        dag.commit([9], "main")
    with pytest.raises(NotFoundError):
        dag.commit([1], "nope")


def test_create_branch():
    dag = chain(3)
    dag.create_branch("side", at=1)
    assert dag.branches == {"main": 2, "side": 1}
    assert dag.heads() == {2, 1}
    with pytest.raises(StateError):
        dag.create_branch("side", at=0)
    with pytest.raises(NotFoundError):
        dag.create_branch("other", at=7)
    with pytest.raises(ValidationError):
        dag.create_branch("", at=0)


def test_fork_heads_example():
    dag = chain(2)
    dag.create_branch("side", at=0)
    dag.commit([0], "side")
    dag.commit([1], "main")
    assert dag.heads() == {2, 3}


def test_merge_moves_destination_head():
    dag = chain(2)
    dag.create_branch("side", at=0)
    dag.commit([0], "side")  # 2
    seq = dag.commit([1, 2], "main")
    assert seq == 3
    assert dag.commit_meta(3).parents == (1, 2)
    # the merged-from branch head lingers until something moves it
    assert dag.branches == {"main": 3, "side": 2}
    assert dag.heads() == {3, 2}


def test_interleaved_numbering_is_global():
    dag = VersionDag()
    dag.commit([], "main")
    dag.create_branch("a", at=0)
    dag.create_branch("b", at=0)
    seqs = [
        dag.commit([0], "a"),
        dag.commit([0], "b"),
        dag.commit([1], "a"),
        dag.commit([2], "b"),
    ]
    assert seqs == [1, 2, 3, 4]
    assert dag.branch_head("a") == 3 and dag.branch_head("b") == 4


def test_is_ancestor_examples():
    dag = chain(3)
    dag.create_branch("side", at=1)
    dag.commit([1], "side")  # 3
    assert dag.is_ancestor(0, 3)
    assert dag.is_ancestor(3, 3)
    assert dag.is_ancestor(1, 2)
    assert not dag.is_ancestor(2, 3)
    assert not dag.is_ancestor(3, 2)
    with pytest.raises(NotFoundError):
        dag.is_ancestor(0, 9)


@given(st.integers(0, 10_000), st.integers(2, 14))
@settings(max_examples=60, deadline=None)
def test_is_ancestor_matches_reachability_oracle(seed, n):
    dag = random_dag(random.Random(seed), n)
    for b in range(len(dag)):
        ancestors = reachable(dag, b)
        for a in range(len(dag)):
            assert dag.is_ancestor(a, b) == (a in ancestors)


def triple_of(store, tag):
    d = store.dictionary
    return d.triple(*(Iri(f"urn:ex:{part}:{tag}") for part in ("s", "p", "o")))


def alternating_two_branch_repo():
    """Root plus three commits per branch, strictly alternating in time."""
    store = AnnotatedStore(encoding="interval")
    dag = VersionDag()
    t_root = triple_of(store, "root")
    t_a = triple_of(store, "a")
    t_b = triple_of(store, "b")
    store.apply_commit(dag, [], "main", Delta(frozenset({t_root}), frozenset()))
    dag.create_branch("side", at=0)
    store.apply_commit(dag, [0], "main", Delta(frozenset({t_a}), frozenset()))  # 1
    store.apply_commit(dag, [0], "side", Delta(frozenset({t_b}), frozenset()))  # 2
    store.apply_commit(dag, [1], "main", Delta(frozenset(), frozenset()))  # 3
    store.apply_commit(dag, [2], "side", Delta(frozenset(), frozenset()))  # 4
    store.apply_commit(dag, [3], "main", Delta(frozenset(), frozenset()))  # 5
    store.apply_commit(dag, [4], "side", Delta(frozenset(), frozenset()))  # 6
    return store, dag, t_root, t_a, t_b


def runs_of(members) -> int:
    count, prev = 0, None
    for v in sorted(members):
        if prev is None or v != prev + 1:
            count += 1
        prev = v
    return count


def test_repack_interleaved_branches_drops_interval_cost():
    store, dag, t_root, t_a, t_b = alternating_two_branch_repo()
    assert set(store.version_set(t_a)) == {1, 3, 5}
    assert set(store.version_set(t_b)) == {2, 4, 6}
    assert store.version_set(t_a).scalar_cost() == 2 * runs_of({1, 3, 5}) == 6
    assert store.version_set(t_root).scalar_cost() == 2

    before = {v: store.materialize(v) for v in range(7)}
    mapping = repack(dag, store)

    assert sorted(mapping) == list(range(7))
    assert sorted(mapping.values()) == list(range(7))
    # each branch now occupies one consecutive run
    assert set(store.version_set(t_a)) == {mapping[v] for v in (1, 3, 5)}
    assert store.version_set(t_a).scalar_cost() == 2
    assert store.version_set(t_b).scalar_cost() == 2
    assert store.version_set(t_root).scalar_cost() == 2
    # contents per version survive the renumbering
    for old, new in mapping.items():
        assert store.materialize(new) == before[old]
    # metadata follows the same bijection
    for meta in dag.commits():
        assert meta.iri == version_iri(meta.seq)
    assert dag.branches == {"main": mapping[5], "side": mapping[6]}


def test_repack_linear_history_is_identity():
    store = AnnotatedStore()
    dag = VersionDag()
    store.apply_commit(
        dag, [], "main", Delta(frozenset({triple_of(store, "x")}), frozenset())
    )
    for i in range(1, 5):
        store.apply_commit(dag, [i - 1], "main", Delta(frozenset(), frozenset()))
    mapping = repack(dag, store)
    assert mapping == {i: i for i in range(5)}


def test_repack_orders_first_parent_chain_before_merge_children():
    store = AnnotatedStore()
    dag = VersionDag()
    store.apply_commit(
        dag, [], "main", Delta(frozenset({triple_of(store, "x")}), frozenset())
    )
    dag.create_branch("side", at=0)
    store.apply_commit(dag, [0], "main", Delta(frozenset(), frozenset()))  # 1
    store.apply_commit(dag, [0], "side", Delta(frozenset(), frozenset()))  # 2
    store.apply_commit(dag, [1, 2], "main", Delta(frozenset(), frozenset()))  # 3
    store.apply_commit(dag, [2], "side", Delta(frozenset(), frozenset()))  # 4
    mapping = repack(dag, store)
    # the continuation of side (old 4) hangs off 2 by first parent, the merge
    # (old 3) only as a later parent, so old 4 is numbered first
    assert mapping == {0: 0, 1: 1, 2: 2, 4: 3, 3: 4}


def test_repack_waits_for_all_parents():
    store = AnnotatedStore()
    dag = VersionDag()
    store.apply_commit(
        dag, [], "main", Delta(frozenset({triple_of(store, "x")}), frozenset())
    )
    dag.create_branch("side", at=0)
    store.apply_commit(dag, [0], "main", Delta(frozenset(), frozenset()))  # 1
    store.apply_commit(dag, [0], "side", Delta(frozenset(), frozenset()))  # 2
    store.apply_commit(dag, [1, 2], "main", Delta(frozenset(), frozenset()))  # 3
    mapping = repack(dag, store)
    new_parents = {mapping[3]: dag.commit_meta(mapping[3]).parents}
    assert set(new_parents[mapping[3]]) == {mapping[1], mapping[2]}
    assert all(p < mapping[3] for p in new_parents[mapping[3]])


@given(st.integers(0, 10_000), st.integers(1, 14))
@settings(max_examples=60, deadline=None)
def test_repack_is_a_parent_respecting_bijection(seed, n):
    dag = random_dag(random.Random(seed), n)
    store = AnnotatedStore()  # stays empty: only the numbering is under test
    old = {m.seq: m for m in dag.commits()}
    old_branches = dag.branches
    mapping = repack(dag, store)
    assert sorted(mapping) == sorted(mapping.values()) == list(range(n))
    assert mapping[0] == 0
    for seq, meta in old.items():
        new_meta = dag.commit_meta(mapping[seq])
        assert new_meta.parents == tuple(mapping[p] for p in meta.parents)
        assert all(p < new_meta.seq for p in new_meta.parents)
        assert new_meta.message == meta.message
        assert new_meta.branch == meta.branch
    assert dag.branches == {k: mapping[v] for k, v in old_branches.items()}


def test_repack_empty_dag_is_noop():
    dag = VersionDag()
    store = AnnotatedStore()
    assert repack(dag, store) == {}
