"""Commit history: numbering, branches, repack renumbering."""

import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from vgstore import (
    AnnotatedStore,
    CommitMeta,
    Delta,
    EMPTY_DELTA,
    Iri,
    NotFoundError,
    Provenance,
    StateError,
    ValidationError,
    VersionDag,
    load_repository,
    parse_version_iri,
    repack,
    save_repository,
    version_iri,
)

from vgstore.repo import holds_history
from vgstore.store import replay

from helpers import EPOCH, assert_versions_are_scans, version_set


def chain(n: int) -> VersionDag:
    dag = VersionDag()
    dag.commit([], "main")
    for i in range(1, n):
        dag.commit([i - 1], "main")
    return dag


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


def test_start_branch_starts_only_a_missing_branch_at_the_first_parent():
    dag = chain(3)
    dag.start_branch("main", [1])
    dag.start_branch("side", [1, 0])
    dag.start_branch("side", [0])
    dag.start_branch("rootless", [])
    assert dag.branches == {"main": 2, "side": 1}
    with pytest.raises(NotFoundError):
        dag.start_branch("other", [7])


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
    assert set(version_set(store, t_a)) == {1, 3, 5}
    assert set(version_set(store, t_b)) == {2, 4, 6}
    assert version_set(store, t_a).scalar_cost() == 2 * runs_of({1, 3, 5}) == 6
    assert version_set(store, t_root).scalar_cost() == 2

    before = {v: store.materialize(v) for v in range(7)}
    mapping = repack(dag, store)

    assert sorted(mapping) == list(range(7))
    assert sorted(mapping.values()) == list(range(7))
    # each branch now occupies one consecutive run
    assert set(version_set(store, t_a)) == {mapping[v] for v in (1, 3, 5)}
    assert version_set(store, t_a).scalar_cost() == 2
    assert version_set(store, t_b).scalar_cost() == 2
    assert version_set(store, t_root).scalar_cost() == 2
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
    numbering = random_dag(random.Random(seed), n)
    # a store holding the dag's versions, all of them empty: only the
    # numbering is under test
    store, dag = AnnotatedStore(), VersionDag()
    replay(store, dag, ((meta, EMPTY_DELTA) for meta in numbering.commits()), numbering.branches)
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


def random_history(rng: random.Random, numbering: VersionDag, store: AnnotatedStore):
    """numbering's commits, each with a random delta over six triples on the
    content its parents have in store; it must be replayed as it is drawn."""
    pool = [triple_of(store, str(i)) for i in range(6)]
    for meta in numbering.commits():
        union = set().union(*(store.materialize(p) for p in meta.parents))
        additions = set(rng.sample(pool, rng.randint(0, 2)))
        kept = sorted(union - additions)
        removals = set(rng.sample(kept, min(len(kept), rng.randint(0, 2))))
        yield meta, Delta(frozenset(additions), frozenset(removals))


def test_snapshots_after_repack_and_reload_are_heads_and_full_scans(tmp_path):
    """Every version materializes as a full scan after a replay, a repack
    and a reload; random_dag commits merges onto a branch whose head is
    neither parent."""
    for seed in range(300):
        rng = random.Random(seed)
        numbering = random_dag(rng, 14)
        store, dag = AnnotatedStore(), VersionDag()
        replay(store, dag, random_history(rng, numbering, store), numbering.branches)
        assert_versions_are_scans(store)
        repack(dag, store)
        assert_versions_are_scans(store)
        save_repository(store, dag, tmp_path / str(seed))
        assert_versions_are_scans(load_repository(tmp_path / str(seed))[0])


@pytest.mark.parametrize("encoding", ["extension", "interval"])
def test_a_replay_continued_after_a_prefix_equals_one_replay(tmp_path, encoding):
    """A checkpoint load replays the commits after the checkpoint onto a
    store that already holds the ones before it, with their branch map."""
    for seed in range(20):
        rng = random.Random(seed)
        numbering = random_dag(rng, 10)
        source, dag = AnnotatedStore(encoding=encoding), VersionDag()
        replay(source, dag, random_history(rng, numbering, source), numbering.branches)
        history = [(meta, source.delta(meta.seq)) for meta in dag.commits()]
        once, once_dag = AnnotatedStore(source.dictionary, encoding), VersionDag()
        replay(once, once_dag, history, dag.branches)
        saved = tmp_path / f"{encoding}{seed}"
        save_repository(once, once_dag, saved)
        # the runs as a replay leaves them, before a read writes them
        runs = (once._open, once._closed, once._written, once._steps)
        stats, sets = once.stats(), {t: list(vset) for t, vset in once.match()}
        for k in range(1, len(history) + 1):
            # random_dag commits on every branch it creates, so the branch
            # map after k commits names the last commit on each branch
            prefix = {meta.branch: meta.seq for meta, _ in history[:k]}
            store, split = AnnotatedStore(source.dictionary, encoding), VersionDag()
            replay(store, split, history[:k], prefix)
            replay(store, split, history[k:], dag.branches)
            assert split.commits() == once_dag.commits()
            assert split.branches == once_dag.branches
            assert (store._open, store._closed, store._written, store._steps) == runs
            assert all(store.delta(v) == once.delta(v) for v in range(len(history)))
            assert store.stats() == stats
            assert {t: list(vset) for t, vset in store.match()} == sets
            assert holds_history(store, split, saved)


@pytest.mark.parametrize("dag_versions", [1, 3])
def test_repack_refuses_a_dag_and_store_of_different_lengths(dag_versions):
    store, own = AnnotatedStore(), VersionDag()
    store.apply_commit(
        own, [], "main", Delta(frozenset({triple_of(store, "x")}), frozenset())
    )
    store.apply_commit(own, [0], "main", EMPTY_DELTA)
    dag = chain(dag_versions)
    commits, branches = dag.commits(), dag.branches
    sets = {t: list(vset) for t, vset in store.match()}
    with pytest.raises(StateError):
        repack(dag, store)
    assert dag.commits() == commits and dag.branches == branches
    assert store.n_versions == 2
    assert {t: list(vset) for t, vset in store.match()} == sets


def test_repack_empty_dag_is_noop():
    dag = VersionDag()
    store = AnnotatedStore()
    assert repack(dag, store) == {}
