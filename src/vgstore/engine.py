"""Query evaluation: version-set propagation and the checkout baseline.

eval_annotated answers a query for every version in one pass: each partial
solution carries, per version variable, the set of versions it still holds
in.  Joining two patterns intersects those sets; an empty intersection kills
the row.

eval_checkout is the baseline with identical semantics by construction: it
materializes every candidate version, evaluates the query with the version
variables fixed, and unions the row multisets.  Agreement between the two is
the core correctness check of the whole package; divergence is a bug.

Both evaluators extend rows through the one join step, _join, over a
store.TripleIndex (the store's own, or one per checked-out version, which
builds only the permutations the query probes).
They differ only in how a matched triple's leaf changes a row's version
annotation: a contains test for a constant version, an intersection for a
version variable, and no change at all in a checkout.  Every row at one step
binds the same variables, so _join plans a pattern once: each slot probes
with a constant or a bound variable, binds a new one, or repeats a new one.

One rule, _place, decides where each top-level && operand of a FILTER is
tested, once and never later than its FILTER.  An operand without isHead
goes to the earliest join step after which all of its variables are bound,
where it is tested on each candidate's bindings before the candidate's
version set is intersected.  An operand that reads only version variables
is decided once per version assignment, before any join, in a checkout;
the annotated evaluator turns a bare isHead(?v) into a restriction of ?v to
the heads from the pattern that introduces it on, which is what the heads
domain applies to every version variable.  Every other operand (an isHead
under || or ! beside data) stays at its FILTER, where the annotated
evaluator splits a row's sets into their head and non-head parts.

Each test is a tree of closures with three-valued logic.  A comparison reads
each operand's value key (terms.value_key); a constant's is computed when
the query is compiled, and MIN and MAX compare the same keys in one pass.

Both end in one finish, _finish, on compact rows: a row's data term ids plus
the members of each version variable (one member in a checkout).  A row's
output keys are the tuples of texts from the product of the columns the
SELECT reads (projects, groups, or takes the MIN or MAX of).  A version
variable it does not read is never bound: the size of its set multiplies
the count of the row's keys, the number of solutions each stands for.  COUNT
adds those counts and a projection without DISTINCT repeats its key that
often, while DISTINCT, MIN and MAX ignore them, so `SELECT DISTINCT ?b` or a
COUNT per data value reads no version text at all.  Serialization is
injective, so the keys group, dedupe and sort as the terms would, and
sorting pays per distinct row.  The sorted keys are the table: TSV
formatting joins them without serializing anything again, so equal results
from both evaluators are byte-equal after formatting, and no term is built
for a row unless a reader asks for SolutionTable.rows.

A data term's text is the Dictionary's.  The other per-term constants (a
term id's value key, a version's or COUNT's text, and a text's value key for
MIN and MAX) are computed once per Dictionary, on first read, and kept while
the dictionary lives (_Constants).  A term id's meaning never changes, so
they are never invalidated; two readers filling one entry at once compute
equal values.  The head, non-head and every-version sets depend on the dag,
so eval_annotated builds each at most once per evaluation, on its first
read, and keeps none.  Both evaluators look each pattern constant's id up
once per evaluation too, since a later commit can intern one absent now.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from functools import reduce
from itertools import chain, product, repeat
from typing import Callable, Iterable

from .dag import VersionDag, parse_version_iri, version_iri
from .ntriples import format_term, read_term
from .sparql import (
    Aggregate,
    And,
    Comparison,
    Expr,
    Filter,
    GraphBlock,
    IsHead,
    Not,
    Or,
    Query,
    TriplePattern,
    Var,
    _expr_vars,
    _pattern_vars,
)
from .store import AnnotatedStore, TripleIndex
from .versionsets import VersionSet, set_class
from .terms import (
    XSD_INTEGER,
    Dictionary,
    Iri,
    Literal,
    Term,
    TermId,
    compare_keys,
    value_key,
)

_DOMAINS = ("all", "heads")


@dataclass
class SolutionTable:
    """A query's header and its sorted rows, each row a tuple of canonical
    N-Triples texts, which TSV formatting joins.  rows reads them back as
    terms.  A table of term rows is SolutionTable(header,
    [tuple(map(format_term, row)) for row in rows])."""

    header: tuple[str, ...]
    texts: list[tuple[str, ...]]

    @property
    def rows(self) -> list[tuple[Term, ...]]:
        """The rows as terms: read_term reads each distinct text once, and zip
        builds the row tuples column by column, cheaper than a tuple() per row."""
        terms = {text: read_term(text) for text in set(chain.from_iterable(self.texts))}
        columns = (map(operator.itemgetter(i), self.texts) for i in range(len(self.header)))
        return list(zip(*(map(terms.__getitem__, column) for column in columns)))


def _check_domain(version_domain: str) -> None:
    if version_domain not in _DOMAINS:
        raise ValueError(f"version_domain must be one of {_DOMAINS}")


# --- shared pieces -------------------------------------------------------

# A row is its data bindings plus its version annotation: the version set each
# version variable still holds in, or {} in a checkout.
_Row = tuple[dict[str, TermId], dict[str, object]]
_Combine = Callable[[dict[str, object], object], dict[str, object] | None]

_EMPTY_INDEX = TripleIndex()


def _join(
    rows: list[_Row],
    pattern: TriplePattern,
    ids: _Memo,
    match: Callable,
    combine: _Combine,
    check: _Test | None = None,
) -> list[_Row]:
    """Extend each row by every triple `match` finds for the pattern.

    Every row binds the same variables, so the plan is drawn once, from the
    first row: a slot probes with a constant's id in ids or a bound variable's, binds
    a new variable, or must equal the earlier slot that binds its variable.
    check, the FILTER operands placed at this step, must be True on the
    candidate's bindings; it runs before combine(annotation, leaf), which
    gives the extended row's version annotation, or None when the matched
    triple holds in none of the row's versions.
    """
    slots = (pattern.s, pattern.p, pattern.o)
    # the constants' ids, None at the variables; a constant never interned matches nothing
    base = [None if isinstance(slot, Var) else ids[slot] for slot in slots]
    if not rows or any(t is None and not isinstance(v, Var) for v, t in zip(slots, base)):
        return []
    probes: list[tuple[int, str]] = []  # (slot, bound variable) read per row
    binds: dict[str, int] = {}  # new variable -> the first slot it fills
    same: list[tuple[int, int]] = []  # (slot, earlier slot) a new variable repeats
    for i, slot in enumerate(slots):
        if not isinstance(slot, Var):
            continue
        if slot.name in rows[0][0]:
            probes.append((i, slot.name))
        elif slot.name in binds:
            same.append((i, binds[slot.name]))
        else:
            binds[slot.name] = i
    new = tuple(binds.items())
    out: list[_Row] = []
    for env, ann in rows:
        probe = base
        if probes:
            probe = base.copy()
            for i, name in probes:
                probe[i] = env[name]
        for triple, leaf in match(*probe):
            if same and any(triple[i] != triple[j] for i, j in same):
                continue
            extended = env
            if new:
                extended = env.copy()
                for name, i in new:
                    extended[name] = triple[i]
            # the bindings come first, so a failed test skips combine
            if check is not None and check(extended, None) is not True:
                continue
            new_ann = combine(ann, leaf)
            if new_ann is not None:
                out.append((extended, new_ann))
    return out


def _keep(ann: dict[str, object], leaf: object) -> dict[str, object]:
    """A checkout graph is one version, so every match keeps the row as it is."""
    return ann


def _at_version(seq: int) -> _Combine:
    """A constant version keeps the row when the triple holds in it."""
    return lambda ann, vset: ann if vset.contains(seq) else None


def _over_var(name: str, within: VersionSet | None) -> _Combine:
    """A version variable narrows to the triple's versions, within `within`."""

    def combine(ann: dict[str, object], vset: VersionSet) -> dict[str, object] | None:
        previous = ann.get(name)
        if previous is not None:
            vset = previous.intersect(vset)
        elif within is not None:
            vset = vset.intersect(within)
        return {**ann, name: vset} if vset else None

    return combine


def _graph_version(block: GraphBlock, n_versions: int) -> int | None:
    """The version a constant GRAPH name denotes, or None if there is none."""
    seq = parse_version_iri(block.name.text)
    return seq if seq is not None and 0 <= seq < n_versions else None


# comparison operator -> its test of compare_keys's sign
_SIGN_TESTS = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
               "!=": operator.ne, ">=": operator.ge, ">": operator.gt}


class _Memo(dict):
    """make(key) for each key, computed on its first read and kept."""

    def __init__(self, make: Callable[[object], object]):
        super().__init__()
        self.make = make

    def __missing__(self, key: object):
        value = self[key] = self.make(key)
        return value


class _Constants:
    """One dictionary's per-term evaluation constants, each computed on its first read.

    text_keys: text -> value key, for MIN and MAX; keys: term id -> its
    text's key; versions: seq -> its IRI's text, built directly (an IRI is
    written <text>, unescaped); and numbers: a COUNT -> its literal's text.
    They read the dictionary's text list, never the dictionary itself, so
    that it can be the key of _CONSTANTS; no term is kept.
    """

    def __init__(self, dictionary: Dictionary):
        texts = dictionary._texts
        text_keys = self.text_keys = _Memo(lambda text: value_key(read_term(text)))
        self.keys = _Memo(lambda tid: text_keys[texts[tid]])
        self.versions = _Memo(lambda seq: f"<{version_iri(seq)}>")
        self.numbers = _Memo(lambda n: format_term(Literal(str(n), XSD_INTEGER)))


_CONSTANTS: weakref.WeakKeyDictionary[Dictionary, _Constants] = weakref.WeakKeyDictionary()


def _constants(dictionary: Dictionary) -> _Constants:
    """The dictionary's constants; term ids are never reused, so they never go stale."""
    memo = _CONSTANTS.get(dictionary)
    if memo is None:
        memo = _CONSTANTS.setdefault(dictionary, _Constants(dictionary))
    return memo


_Test = Callable[[dict[str, TermId], dict[str, bool] | None], bool | None]


def _compile(expr: Expr, keys: _Memo) -> _Test:
    """expr as test(env, at_head): three-valued, None meaning an error, which
    drops the row; at_head[name] answers isHead(?name)."""
    if isinstance(expr, Comparison):
        # a variable operand reads its bound term's key; a constant's is computed here
        (a, key_a), (b, key_b) = (
            (t.name, None) if isinstance(t, Var) else (None, value_key(t))
            for t in (expr.lhs, expr.rhs)
        )
        sign = _SIGN_TESTS[expr.op]

        def compare(env, at_head):
            c = compare_keys(key_a if a is None else keys[env[a]],
                             key_b if b is None else keys[env[b]])
            return None if c is None else sign(c, 0)

        return compare
    if isinstance(expr, IsHead):
        name = expr.var.name
        return lambda env, at_head: at_head[name]
    if isinstance(expr, Not):
        inner = _compile(expr.operand, keys)

        def negate(env, at_head):
            value = inner(env, at_head)
            return None if value is None else not value

        return negate
    left_test, right_test = _compile(expr.lhs, keys), _compile(expr.rhs, keys)
    # the value that settles the connective: a left side that settles it skips
    # the right one, since False && error is False and True || error is True
    settles = isinstance(expr, Or)

    def connect(env, at_head):
        left = left_test(env, at_head)
        if left is settles:
            return settles
        right = right_test(env, at_head)
        if right is settles:
            return settles
        return None if left is None or right is None else not settles

    return connect


def _conjoin(operands: list[Expr], keys: _Memo) -> _Test | None:
    """The test of the && of operands, in order; None for no operands."""
    return _compile(reduce(And, operands), keys) if operands else None


def _conjuncts(expr: Expr) -> list[Expr]:
    """expr's top-level && operands, left to right."""
    if isinstance(expr, And):
        return _conjuncts(expr.lhs) + _conjuncts(expr.rhs)
    return [expr]


def _place(
    query: Query, per_assignment: bool
) -> tuple[list[list[list[Expr]]], set[str], list[Expr]]:
    """Where each FILTER's top-level && operands are tested, each once.

    An operand without isHead goes to the earliest join step before its
    FILTER after which all of its variables are bound (every row at a step
    binds the same ones).  An operand that reads only version variables is
    decided once per version assignment when per_assignment (a checkout);
    otherwise a bare isHead(?v) ranges ?v over the heads from the pattern
    that introduces it on.  Any other operand stays at its FILTER.

    Returns (placed, heads, per_version): placed[i] is one list of operands
    per join step of WHERE element i (one for a pattern, one per pattern of
    a GRAPH block), or for a FILTER the one list left to it; heads holds the
    variables of the bare isHead operands, per_version the operands decided
    per assignment.
    """
    placed: list[list[list[Expr]]] = []
    steps: list[tuple[list[Expr], set[str]]] = []  # (its operands, variables bound after it)
    heads: set[str] = set()
    per_version: list[Expr] = []
    bound: set[str] = set()
    for element in query.where:
        if isinstance(element, Filter):
            left = []
            for operand in _conjuncts(element.expr):
                data, versions = _expr_vars(operand)
                if not versions:
                    step = next((ops for ops, after in steps if data <= after), None)
                    if step is not None:
                        step.append(operand)
                        continue
                elif not data and per_assignment:
                    per_version.append(operand)
                    continue
                elif isinstance(operand, IsHead):
                    heads.add(operand.var.name)
                    continue
                left.append(operand)
            placed.append([left])
            continue
        patterns = element.patterns if isinstance(element, GraphBlock) else (element,)
        placed.append([])
        for pattern in patterns:
            bound = bound | _pattern_vars(pattern)
            steps.append(([], bound))
            placed[-1].append(steps[-1][0])
    return placed, heads, per_version


def _extremum(texts: Iterable[str], keys: dict[str, object], want_max: bool) -> str | None:
    """MIN/MAX over distinct values given by their texts; None if the group
    is not comparable.

    It is exactly when every pair of values, a value with itself included,
    compares: no key is None (a non-literal or a number that does not parse)
    and the keys are all numbers or all of one non-numeric datatype.  That
    makes the outcome independent of iteration order, so both evaluators
    agree on which groups are dropped.  Value ties are broken by the
    smallest text.
    """
    keyed = [(keys[text], text) for text in texts]
    kinds = {None if key is None else key[0] if key.__class__ is tuple else float
             for key, _ in keyed}
    if len(kinds) != 1 or None in kinds:
        return None
    best = (max if want_max else min)(key for key, _ in keyed)
    return min(text for key, text in keyed if key == best)


def _finish(
    rows: Iterable[tuple[dict[str, TermId], dict[str, Iterable[int]]]],
    dictionary: Dictionary,
    query: Query,
) -> SolutionTable:
    """Aggregate, project, dedupe and sort compact rows on term serializations.

    A row is its data ids plus the members of each version variable.  Each
    column the SELECT reads becomes a list of texts, one per data id or per
    version, each computed once per dictionary; the product of those lists gives
    the row's keys.  A version variable the SELECT does not read multiplies
    the count of each key by its size.  Serializations are equal exactly when
    terms are, so keys group, dedupe, count and sort as the rows would.
    """
    select = query.select
    header = tuple(
        item.name if isinstance(item, Var) else item.alias.name
        for item in select.items
    )
    aggs = [item for item in select.items if isinstance(item, Aggregate)]
    group = list(dict.fromkeys(v.name for v in select.group_by))
    # COUNT ignores its argument's value: only groups and MIN/MAX read one
    names = list(dict.fromkeys(
        group + [a.arg.name for a in aggs if a.func != "COUNT"] if aggs else header
    ))
    memo = _constants(dictionary)
    data, versions = dictionary._texts, memo.versions  # by id: the store's ids are known
    counts: dict[tuple[str, ...], int] = {}
    for env, vsets in rows:
        mult = 1
        for name, members in vsets.items():
            if name not in names:
                mult *= len(members)
        columns = [
            [data[env[name]]] if name in env else list(map(versions.__getitem__, vsets[name]))
            for name in names
        ]
        for key in product(*columns):
            counts[key] = counts.get(key, 0) + mult
    if aggs:
        # one accumulator per aggregate and group: COUNT adds the counts,
        # MIN and MAX collect the distinct texts of their argument
        groups: dict[tuple[str, ...], list] = {}
        for key, n in counts.items():
            acc = groups.get(key[:len(group)])
            if acc is None:
                acc = groups[key[:len(group)]] = [0 if a.func == "COUNT" else set() for a in aggs]
            for i, agg in enumerate(aggs):
                if agg.func == "COUNT":
                    acc[i] += n
                else:
                    acc[i].add(key[names.index(agg.arg.name)])
        if not groups and not group and all(a.func == "COUNT" for a in aggs):
            groups[()] = [0 for _ in aggs]
        counts = {}
        for key, acc in groups.items():
            cells = dict(zip(group, key))
            for agg, value in zip(aggs, acc):
                if agg.func == "COUNT":
                    cells[agg.alias.name] = memo.numbers[value]
                    continue
                best = _extremum(value, memo.text_keys, want_max=agg.func == "MAX")
                if best is None:
                    break  # the group is dropped
                cells[agg.alias.name] = best
            else:
                out = tuple(map(cells.__getitem__, header))
                counts[out] = counts.get(out, 0) + 1
    ordered = sorted(counts)
    if not select.distinct and sum(counts.values()) > len(ordered):
        ordered = list(chain.from_iterable(map(repeat, ordered, map(counts.__getitem__, ordered))))
    return SolutionTable(header, ordered)


# --- annotated evaluation ------------------------------------------------


def _ann_filter(
    rows: list[_Row],
    operands: list[Expr],
    keys: _Memo,
    pushed: set[str],
    sides: dict[bool, VersionSet],
) -> list[_Row]:
    """Filter annotated rows on the operands left to a FILTER, partitioning
    version sets around isHead().

    A pushed isHead variable, which a bare isHead operand or the heads
    domain ranges over the heads, holds only heads already, so its isHead is
    True.  A row whose set for one of the k others mixes head and non-head
    versions cannot answer the test as a whole, so it splits into at most
    2^k sub-rows, one per truth assignment of those variables; sides[flag]
    holds the versions whose isHead is flag.  The sub-rows are disjoint, so
    the finish sees each (binding, version) pair exactly once.
    """
    test = _conjoin(operands, keys)
    names = sorted(set().union(*(_expr_vars(operand)[1] for operand in operands)))
    fixed = {name: True for name in names if name in pushed}
    free = [name for name in names if name not in pushed]
    if not free:
        return [row for row in rows if test(row[0], fixed) is True]
    truths = product((True, False), repeat=len(free))
    assigns = [{**fixed, **dict(zip(free, bits))} for bits in truths]
    out: list[_Row] = []
    for env, vsets in rows:
        for assign in assigns:
            if test(env, assign) is not True:
                continue
            split = {name: vsets[name].intersect(sides[assign[name]]) for name in free}
            if all(split.values()):
                out.append((env, {**vsets, **split}))
    return out


def eval_annotated(
    store: AnnotatedStore,
    dag: VersionDag,
    query: Query,
    version_domain: str = "all",
) -> SolutionTable:
    """Evaluate over version-annotated triples without materializing versions."""
    _check_domain(version_domain)
    dictionary = store.dictionary
    keys = _constants(dictionary).keys
    ids = _Memo(dictionary.lookup)  # a constant's id, or None until a commit interns it
    set_cls = set_class(store.encoding)
    heads, every = dag.heads(), range(store.n_versions)
    # {True: the heads, False: every other version, None: every version}, each
    # built at most once per evaluation, on its first read
    sides = _Memo(lambda at_head: set_cls.from_iterable(
        every if at_head is None else heads if at_head else (v for v in every if v not in heads)))
    placed, required, _ = _place(query, per_assignment=False)
    # a bare isHead(?v) operand ranges ?v over the heads, and the heads domain
    # ranges every version variable over them
    pushed = query.version_vars() if version_domain == "heads" else required

    def at(seq: int | None) -> tuple[Callable, _Combine]:
        if seq is None:
            return _EMPTY_INDEX.match, _keep
        return store.match, _at_version(seq)

    main_head = dag.branches.get("main")
    rows: list[_Row] = [({}, {})]
    for element, operands in zip(query.where, placed):
        if not rows:
            break
        if isinstance(element, TriplePattern):
            rows = _join(rows, element, ids, *at(main_head), _conjoin(operands[0], keys))
        elif isinstance(element, GraphBlock):
            if not isinstance(element.name, Var):
                match, combine = at(_graph_version(element, store.n_versions))
            else:
                name = element.name.name
                within = sides[True] if name in pushed else None
                if not element.patterns:
                    # an empty GRAPH ?v {} block ranges ?v over every version or the heads
                    if within is None:
                        within = sides[None]
                    widen = _over_var(name, None)
                    rows = [(env, a) for env, ann in rows if (a := widen(ann, within)) is not None]
                    continue
                match, combine = store.match, _over_var(name, within)
            for pattern, step in zip(element.patterns, operands):
                rows = _join(rows, pattern, ids, match, combine, _conjoin(step, keys))
                if not rows:
                    break
        elif operands[0]:
            rows = _ann_filter(rows, operands[0], keys, pushed, sides)
    return _finish(rows, dictionary, query)


# --- checkout evaluation -------------------------------------------------


def eval_checkout(
    store: AnnotatedStore,
    dag: VersionDag,
    query: Query,
    version_domain: str = "all",
) -> SolutionTable:
    """Materialize each candidate version and evaluate against it directly.

    This is the reference implementation the annotated evaluator is checked
    against, and the cost baseline the benchmark compares with.
    """
    _check_domain(version_domain)
    dictionary = store.dictionary
    keys = _constants(dictionary).keys
    ids = _Memo(dictionary.lookup)  # a constant's id, or None until a commit interns it
    heads = dag.heads()
    domain = sorted(heads) if version_domain == "heads" else list(range(store.n_versions))
    version_names = sorted(query.version_vars())
    graphs: dict[int, TripleIndex] = {}

    def graph_at(seq: int | None) -> TripleIndex:
        if seq is None:
            return _EMPTY_INDEX
        g = graphs.get(seq)
        if g is None:
            g = graphs[seq] = TripleIndex(dict.fromkeys(store.materialize(seq), True))
        return g

    main_head = dag.branches.get("main")
    placed, _, per_version = _place(query, per_assignment=True)
    decide = _conjoin(per_version, keys)
    tests = [[_conjoin(step, keys) for step in operands] for operands in placed]
    collected: list[tuple[dict[str, TermId], dict[str, list[int]]]] = []
    for combo in product(domain, repeat=len(version_names)):
        assign = dict(zip(version_names, combo))
        at_head = {name: seq in heads for name, seq in assign.items()}
        if decide is not None and decide({}, at_head) is not True:
            continue
        members = {name: [seq] for name, seq in assign.items()}
        rows: list[_Row] = [({}, {})]
        for element, checks in zip(query.where, tests):
            if not rows:
                break
            if isinstance(element, TriplePattern):
                match = graph_at(main_head).match
                rows = _join(rows, element, ids, match, _keep, checks[0])
            elif isinstance(element, GraphBlock):
                if isinstance(element.name, Var):
                    g = graph_at(assign[element.name.name])
                else:
                    g = graph_at(_graph_version(element, store.n_versions))
                for pattern, check in zip(element.patterns, checks):
                    rows = _join(rows, pattern, ids, g.match, _keep, check)
                    if not rows:
                        break
            elif checks[0] is not None:
                rows = [row for row in rows if checks[0](row[0], at_head) is True]
        collected.extend((env, members) for env, _ in rows)
    return _finish(collected, dictionary, query)


# --- result formatting ---------------------------------------------------


def format_results(table: SolutionTable, fmt: str = "tsv") -> str:
    """Render a table as TSV (N-Triples terms) or CSV (lexical forms).

    TSV joins the texts, serializing no term; CSV reads each distinct text once.
    """
    if fmt == "tsv":
        lines = ["\t".join(f"?{name}" for name in table.header)]
        lines.extend(map("\t".join, table.texts))
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        import csv
        import io

        cells = {t: _csv_cell(read_term(t)) for t in set(chain.from_iterable(table.texts))}
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(table.header)
        writer.writerows(map(cells.__getitem__, row) for row in table.texts)
        return buf.getvalue()
    raise ValueError(f"unknown result format: {fmt!r}")


def _csv_cell(term: Term) -> str:
    if isinstance(term, Iri):
        return term.text
    if isinstance(term, Literal):
        return term.lex
    return f"_:{term.label}"
