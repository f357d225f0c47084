"""Sets of version numbers in two interchangeable encodings.

ExtensionSet keeps the members as a sorted list; IntervalSet keeps closed,
pairwise disjoint, non-adjacent [lo, hi] runs.  Both maintain a unique normal
form, so structural equality is set equality.  insert(lo, hi) adds the closed
range [lo, hi] (one version when hi is omitted) and is the only mutator;
everything else returns new sets, which lets a store hand out live references
safely.  Appending a range past the last member is a list extend for an
extension and one run merge or append for intervals.  _from_runs builds a set
from ascending, disjoint, non-adjacent runs, which intervals keep and an
extension lists only when first read.  An intersection costs the smaller
operand: an extension hashes the smaller member list and only reads the larger
one, and each run of the smaller interval list bisects into the larger one.
union is the one method the base class holds for both encodings: it rebuilds
the members of both operands through the receiver's from_iterable, which
writes them in that encoding's normal form.

scalar_cost is the stored footprint of a set: the member count for an extension,
twice the run count for intervals.  It is the quantity the benchmark compares
across encodings.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Iterable, Iterator

_HI = itemgetter(1)


class VersionSet:
    """What the encodings share: the set protocol and one union.  Each
    encoding defines the rest in its own class."""

    encoding: str

    def union(self, other: "VersionSet") -> "VersionSet":
        """The members of either set, in this set's encoding."""
        return self.from_iterable([*self, *other])

    def __contains__(self, v: int) -> bool:
        return self.contains(v)

    def __iter__(self) -> Iterator[int]:
        return self.iterate()

    def __len__(self) -> int:
        return self.cardinality()


class ExtensionSet(VersionSet):
    """Members stored explicitly as a sorted list of ints."""

    encoding = "extension"

    __slots__ = ("_members", "_runs")

    def __init__(self):
        self._members: list[int] = []

    @classmethod
    def from_iterable(cls, members: Iterable[int]) -> "ExtensionSet":
        out = cls()
        out._members = sorted(set(members))
        return out

    @classmethod
    def _from_runs(cls, runs: list[list[int]]) -> "ExtensionSet":
        """The set of ascending, disjoint, non-adjacent [lo, hi] runs."""
        out = object.__new__(_Unlisted)
        out._runs = runs
        return out

    def contains(self, v: int) -> bool:
        i = bisect_left(self._members, v)
        return i < len(self._members) and self._members[i] == v

    def insert(self, lo: int, hi: int | None = None) -> None:
        hi = _range_end(lo, hi)
        members = self._members
        # members inside [lo, hi] are replaced by the whole range; past the
        # last member this is an extend
        members[bisect_left(members, lo):bisect_right(members, hi)] = range(lo, hi + 1)

    def intersect(self, other: VersionSet) -> "ExtensionSet":
        small = self._members
        large = other._members if isinstance(other, ExtensionSet) else list(other)
        if len(small) > len(large):
            small, large = large, small
        # hash the smaller side; the larger one is only read
        out = ExtensionSet()
        out._members = sorted(set(small).intersection(large))
        return out

    def iterate(self) -> Iterator[int]:
        return iter(self._members)

    def cardinality(self) -> int:
        return len(self._members)

    def __bool__(self) -> bool:
        return bool(self._members)

    def scalar_cost(self) -> int:
        return len(self._members)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtensionSet) and self._members == other._members

    def __repr__(self) -> str:
        return f"ExtensionSet({self._members})"


class _Unlisted(ExtensionSet):
    """An ExtensionSet listed when its members are first read, then a plain one,
    since __getattr__ slows every read; racing readers list equal members."""

    __slots__ = ()

    def __getattr__(self, name: str):
        if name != "_members":
            raise AttributeError(name)
        members: list[int] = []
        for lo, hi in self._runs:
            members += range(lo, hi + 1)
        self._members = members
        self.__class__ = ExtensionSet
        return members

    def cardinality(self) -> int:  # from the runs: stats lists no set
        return sum(hi - lo + 1 for lo, hi in self._runs)

    scalar_cost = cardinality


class IntervalSet(VersionSet):
    """Members stored as closed runs [lo, hi], disjoint and non-adjacent."""

    encoding = "interval"

    __slots__ = ("_runs",)

    def __init__(self):
        self._runs: list[list[int]] = []

    @classmethod
    def from_iterable(cls, members: Iterable[int]) -> "IntervalSet":
        out = cls()
        for v in sorted(set(members)):
            if out._runs and out._runs[-1][1] + 1 == v:
                out._runs[-1][1] = v
            else:
                out._runs.append([v, v])
        return out

    @classmethod
    def _from_runs(cls, runs: list[list[int]]) -> "IntervalSet":
        out = cls()
        out._runs = runs
        return out

    def _locate(self, v: int) -> int:
        """Index of the first run whose hi >= v."""
        i = bisect_right(self._runs, v, key=itemgetter(0))
        if i > 0 and self._runs[i - 1][1] >= v:
            return i - 1
        return i

    def contains(self, v: int) -> bool:
        i = self._locate(v)
        return i < len(self._runs) and self._runs[i][0] <= v <= self._runs[i][1]

    def insert(self, lo: int, hi: int | None = None) -> None:
        hi = _range_end(lo, hi)
        runs = self._runs
        # runs[i:j] are the runs that overlap or touch [lo, hi]; they and the
        # range coalesce into one run
        i = self._locate(lo - 1)
        j = bisect_right(runs, hi + 1, i, key=itemgetter(0))
        if i < j:
            lo, hi = min(lo, runs[i][0]), max(hi, runs[j - 1][1])
        runs[i:j] = [[lo, hi]]

    def intersect(self, other: VersionSet) -> "IntervalSet":
        if not isinstance(other, IntervalSet):
            other = IntervalSet.from_iterable(other)
        small, large = self._runs, other._runs
        if len(small) > len(large):
            small, large = large, small
        # each run of the smaller side bisects to the first run of the larger
        # one that ends inside or after it, and clips the runs it overlaps;
        # the clipped runs are disjoint and non-adjacent, like their sources
        out: list[list[int]] = []
        for lo, hi in small:
            j = bisect_left(large, lo, key=_HI)
            while j < len(large) and large[j][0] <= hi:
                start, end = large[j]
                out.append([lo if lo > start else start, hi if hi < end else end])
                j += 1
        return IntervalSet._from_runs(out)

    def iterate(self) -> Iterator[int]:
        for lo, hi in self._runs:
            yield from range(lo, hi + 1)

    def runs(self) -> tuple[tuple[int, int], ...]:
        """The closed [lo, hi] runs, in ascending order."""
        return tuple((lo, hi) for lo, hi in self._runs)

    def cardinality(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self._runs)

    def __bool__(self) -> bool:
        return bool(self._runs)

    def scalar_cost(self) -> int:
        return 2 * len(self._runs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self._runs == other._runs

    def __repr__(self) -> str:
        runs = ", ".join(f"{lo}-{hi}" if lo != hi else str(lo) for lo, hi in self._runs)
        return f"IntervalSet([{runs}])"


def _range_end(lo: int, hi: int | None) -> int:
    if hi is None:
        return lo
    if hi < lo:
        raise ValueError(f"empty version range [{lo}, {hi}]")
    return hi


ENCODINGS: dict[str, type[VersionSet]] = {
    ExtensionSet.encoding: ExtensionSet,
    IntervalSet.encoding: IntervalSet,
}


def set_class(encoding: str) -> type[VersionSet]:
    try:
        return ENCODINGS[encoding]
    except KeyError:
        raise ValueError(f"unknown version set encoding: {encoding!r}") from None
