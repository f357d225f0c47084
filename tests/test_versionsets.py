"""Version set encodings against a plain python-set oracle."""

import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from vgstore.versionsets import ENCODINGS, ExtensionSet, IntervalSet, set_class

members = st.sets(st.integers(0, 80), max_size=40)
encodings = st.sampled_from([ExtensionSet, IntervalSet])
# each run as (gap after the previous run's end, width): a gap of at least 2
# keeps runs disjoint and non-adjacent
run_steps = st.lists(st.tuples(st.integers(2, 6), st.integers(0, 6)), max_size=8)


def runs_of(s: set[int]) -> int:
    """Oracle: number of maximal consecutive runs, by scanning sorted members."""
    count = 0
    prev = None
    for v in sorted(s):
        if prev is None or v != prev + 1:
            count += 1
        prev = v
    return count


def test_contains_empty():
    for cls in (ExtensionSet, IntervalSet):
        assert not cls.from_iterable([]).contains(5)


def test_interval_contains_examples():
    s = IntervalSet.from_iterable([1, 2, 3, 7])
    assert s.contains(2)
    assert not s.contains(4)
    assert s.runs() == ((1, 3), (7, 7))


def test_intersect_example():
    a = ExtensionSet.from_iterable([1, 2, 3])
    b = ExtensionSet.from_iterable([2, 3, 5])
    assert list(a.intersect(b)) == [2, 3]


def test_intersect_empty_absorbs():
    s = IntervalSet.from_iterable([1, 2, 9])
    assert list(s.intersect(IntervalSet.from_iterable([]))) == []


def test_union_adjacent_intervals_coalesce():
    a = IntervalSet.from_iterable([1, 2, 3])
    b = IntervalSet.from_iterable([4, 5, 6])
    assert a.union(b).runs() == ((1, 6),)


def test_union_identity():
    s = ExtensionSet.from_iterable([3, 9])
    assert list(s.union(ExtensionSet.from_iterable([]))) == [3, 9]


def test_scalar_cost_examples():
    assert ExtensionSet.from_iterable([1, 2, 3, 4]).scalar_cost() == 4
    assert IntervalSet.from_iterable([1, 2, 3, 4]).scalar_cost() == 2
    assert ExtensionSet.from_iterable([7]).scalar_cost() == 1
    assert IntervalSet.from_iterable([7]).scalar_cost() == 2


@given(members)
def test_scalar_cost_is_twice_run_count(s):
    expected_runs = runs_of(s)
    interval = IntervalSet.from_iterable(s)
    assert interval.scalar_cost() == 2 * expected_runs
    assert ExtensionSet.from_iterable(s).scalar_cost() == len(s)


@given(members)
def test_single_run_compresses(s):
    interval = IntervalSet.from_iterable(s)
    assert interval.scalar_cost() <= 2 * len(s) or not s
    if runs_of(s) == 1 and len(s) >= 3:
        assert interval.scalar_cost() < ExtensionSet.from_iterable(s).scalar_cost()


@given(encodings, members, st.integers(0, 90))
def test_contains_matches_oracle(cls, s, probe):
    assert cls.from_iterable(s).contains(probe) == (probe in s)


@given(encodings, encodings, members, members)
def test_intersect_matches_oracle(cls_a, cls_b, a, b):
    got = cls_a.from_iterable(a).intersect(cls_b.from_iterable(b))
    assert isinstance(got, cls_a)
    assert list(got) == sorted(a & b)


@given(encodings, encodings, members, members)
def test_union_matches_oracle(cls_a, cls_b, a, b):
    got = cls_a.from_iterable(a).union(cls_b.from_iterable(b))
    assert isinstance(got, cls_a)
    assert list(got) == sorted(a | b)
    assert got == cls_a.from_iterable(a | b)


@pytest.mark.parametrize("cls", [ExtensionSet, IntervalSet])
def test_each_encoding_defines_its_traced_methods_itself(cls):
    """The benchmark's tracer wraps these through each class's own __dict__."""
    for name in ("contains", "insert", "from_iterable", "intersect"):
        assert name in cls.__dict__, name


@given(encodings, members)
def test_iterate_and_cardinality(cls, s):
    built = cls.from_iterable(s)
    assert list(built) == sorted(s)
    assert built.cardinality() == len(s) == len(built)


@given(encodings, members, st.integers(0, 90))
def test_insert_matches_oracle(cls, s, v):
    built = cls.from_iterable(s)
    built.insert(v)
    assert list(built) == sorted(s | {v})


@given(encodings, members, st.integers(0, 90), st.integers(0, 12))
def test_range_insert_matches_oracle(cls, s, lo, width):
    built = cls.from_iterable(s)
    built.insert(lo, lo + width)
    expected = s | set(range(lo, lo + width + 1))
    assert list(built) == sorted(expected)
    assert built == cls.from_iterable(expected)  # the normal form is kept


def test_range_insert_rejects_an_empty_range():
    for cls in (ExtensionSet, IntervalSet):
        with pytest.raises(ValueError):
            cls.from_iterable([1]).insert(5, 4)


@given(encodings, st.integers(0, 10_000), st.booleans())
def test_extension_intersect_matches_oracle_on_unequal_sizes(cls, seed, flip):
    rng = random.Random(seed)
    small = set(rng.sample(range(2000), rng.randint(1, 3)))
    large = set(rng.sample(range(2000), rng.randint(200, 400)))
    large |= {v for v in small if rng.random() < 0.5}
    a, b = (large, small) if flip else (small, large)
    for x, y in ((a, b), (a, set()), (set(), b)):
        got = ExtensionSet.from_iterable(x).intersect(cls.from_iterable(y))
        assert isinstance(got, ExtensionSet)
        assert list(got) == sorted(x & y)


def scattered_runs(rng: random.Random, n_runs: int) -> set[int]:
    """Members forming about n_runs runs in range(4000); two cuts may touch."""
    cuts = sorted(rng.sample(range(4000), 2 * n_runs))
    return {v for lo, hi in zip(cuts[::2], cuts[1::2]) for v in range(lo, hi + 1)}


def assert_normal_form(s: IntervalSet) -> None:
    runs = s.runs()
    assert all(lo <= hi for lo, hi in runs)
    assert all(hi + 1 < lo for (_, hi), (lo, _) in zip(runs, runs[1:]))


@given(encodings, st.integers(0, 10_000), st.booleans())
def test_interval_intersect_matches_oracle_on_unequal_run_counts(cls, seed, flip):
    rng = random.Random(seed)
    small = scattered_runs(rng, rng.randint(1, 3))
    large = scattered_runs(rng, rng.randint(50, 200))
    a, b = (large, small) if flip else (small, large)
    for x, y in ((a, b), (a, set()), (set(), b)):
        got = IntervalSet.from_iterable(x).intersect(cls.from_iterable(y))
        assert isinstance(got, IntervalSet)
        assert list(got) == sorted(x & y)
        assert_normal_form(got)
        assert got == IntervalSet.from_iterable(x & y)
        assert bool(got) == (got.cardinality() > 0)


@given(encodings, encodings, members, members)
def test_truth_is_non_emptiness(cls_a, cls_b, a, b):
    for s in (cls_a.from_iterable(a), cls_a.from_iterable(a).intersect(cls_b.from_iterable(b))):
        assert bool(s) == (s.cardinality() > 0) == bool(set(s))
        if isinstance(s, IntervalSet):
            assert_normal_form(s)


def test_insert_merges_adjacent_runs():
    s = IntervalSet.from_iterable([1, 2, 3, 5, 6])
    s.insert(4)
    assert s.runs() == ((1, 6),)
    s.insert(4)
    assert s.runs() == ((1, 6),)


@given(encodings, members)
def test_normal_form_unique_across_insertion_orders(cls, s):
    ordered = sorted(s)
    shuffled = list(s)
    random.Random(0).shuffle(shuffled)
    a = cls.from_iterable([])
    for v in shuffled:
        a.insert(v)
    b = cls.from_iterable(ordered)
    assert a == b
    if cls is IntervalSet:
        assert a.runs() == b.runs()
    else:
        assert list(a) == list(b)


@given(members)
def test_extension_interval_extension_identity(s):
    ext = ExtensionSet.from_iterable(s)
    back = ExtensionSet.from_iterable(IntervalSet.from_iterable(ext))
    assert back == ext and list(back) == sorted(s)


@given(encodings, members, members, st.integers(0, 90))
def test_pointwise_semantics(cls, a, b, v):
    sa = cls.from_iterable(a)
    sb = cls.from_iterable(b)
    assert sa.intersect(sb).contains(v) == (sa.contains(v) and sb.contains(v))
    assert sa.union(sb).contains(v) == (sa.contains(v) or sb.contains(v))


def test_from_iterable_tolerates_duplicates_and_order():
    for cls in (ExtensionSet, IntervalSet):
        assert list(cls.from_iterable([5, 1, 5, 2, 1])) == [1, 2, 5]


def test_set_class_lookup():
    assert set_class("extension") is ExtensionSet
    assert set_class("interval") is IntervalSet
    assert set(ENCODINGS) == {"extension", "interval"}
    with pytest.raises(ValueError):
        set_class("bitmap")


def runs_from_steps(steps: list[tuple[int, int]]) -> list[list[int]]:
    """Ascending, disjoint, non-adjacent [lo, hi] runs from 0 on."""
    runs, hi = [], -2
    for gap, width in steps:
        lo = hi + gap
        hi = lo + width
        runs.append([lo, hi])
    return runs


def members_of(runs: list[list[int]]) -> set[int]:
    return {v for lo, hi in runs for v in range(lo, hi + 1)}


@given(encodings, encodings, run_steps, run_steps, members, st.integers(0, 90))
def test_a_set_from_runs_equals_the_set_of_its_members(cls, other_cls, steps, other_steps,
                                                        other, probe):
    """Every read of a set built from runs, each made first on a fresh set,
    agrees with from_iterable of its members, also beside a set of the
    other encoding built either way."""
    runs = runs_from_steps(steps)
    s = members_of(runs)
    oracle = cls.from_iterable(s)

    def built():
        return cls._from_runs([run.copy() for run in runs])

    assert built().contains(probe) == oracle.contains(probe) == (probe in s)
    assert list(built()) == list(oracle) == sorted(s)
    assert built().cardinality() == oracle.cardinality() == len(s)
    assert built().scalar_cost() == oracle.scalar_cost()
    assert bool(built()) == bool(oracle) == bool(s)
    assert built() == oracle and oracle == built() and built() == built()
    assert repr(built()) == repr(oracle)
    other_runs = runs_from_steps(other_steps)
    for b, b_oracle in ((other_cls.from_iterable(other), other_cls.from_iterable(other)),
                        (other_cls._from_runs(other_runs),
                         other_cls.from_iterable(members_of(other_runs)))):
        assert built().intersect(b) == oracle.intersect(b_oracle)
        assert b.intersect(built()) == b_oracle.intersect(oracle)
        assert built().union(b) == oracle.union(b_oracle)
        assert b.union(built()) == b_oracle.union(oracle)


@given(encodings, run_steps, st.integers(0, 90), st.integers(0, 12))
def test_an_insert_into_a_set_from_runs_keeps_its_members(cls, steps, lo, width):
    runs = runs_from_steps(steps)
    built = cls._from_runs(runs)
    built.insert(lo, lo + width)
    expected = members_of(runs) | set(range(lo, lo + width + 1))
    assert list(built) == sorted(expected)
    assert built == cls.from_iterable(expected)


@given(run_steps)
def test_an_unlisted_extension_set_counts_its_members_from_its_runs(steps):
    runs = runs_from_steps(steps)
    built = ExtensionSet._from_runs(runs)
    oracle = ExtensionSet.from_iterable(members_of(runs))
    assert built.cardinality() == oracle.cardinality() == len(members_of(runs))
    assert built.scalar_cost() == oracle.scalar_cost()
    assert len(built) == len(oracle)
    assert type(built) is not ExtensionSet  # counting listed nothing
    assert list(built) == list(oracle)


def test_a_listed_extension_set_is_a_plain_one():
    """Once its members are listed, a set from runs reads attributes as any
    other ExtensionSet does, with no __getattr__ on its class."""
    built = ExtensionSet._from_runs([[1, 3], [7, 7]])
    assert type(built) is not ExtensionSet
    assert built.contains(7)
    assert type(built) is ExtensionSet and list(built) == [1, 2, 3, 7]


@pytest.mark.parametrize("cls", [ExtensionSet, IntervalSet])
def test_concurrent_first_reads_of_a_set_from_runs_see_equal_members(cls):
    """Eight threads make the first read of one set built from runs, with a
    thread switch as often as the interpreter allows."""
    runs = [[lo, lo + 40] for lo in range(0, 40_000, 50)]
    expected = sorted(members_of(runs))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            built = cls._from_runs([run.copy() for run in runs])
            barrier = threading.Barrier(8, timeout=30)
            seen: list = []

            def first_read(i):
                barrier.wait()
                if i % 2:
                    seen.append((built.cardinality(), built.contains(expected[-1]), list(built)))
                else:
                    seen.append((len(list(built)), expected[-1] in built, list(built)))

            threads = [threading.Thread(target=first_read, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert seen == [(len(expected), True, expected)] * 8
            assert built == cls.from_iterable(expected)
    finally:
        sys.setswitchinterval(interval)
