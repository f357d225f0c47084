"""Query evaluation: version-set propagation and the checkout baseline.

eval_annotated answers a query for every version in one pass: each partial
solution carries, per version variable, the set of versions it still holds
in.  Joining two patterns intersects those sets; an empty intersection kills
the row.  When a FILTER's top-level && operands include isHead(?v), ?v
ranges over the head set from the pattern that introduces it on, so a row
that holds at no head dies in the join instead of reaching the filter,
where its isHead is True.  The heads domain is that same push-down applied
to every version variable.  Otherwise isHead under || or ! is left to the
filter, which splits a row's sets into their head and non-head parts.

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

Each FILTER is compiled once per evaluation into a tree of closures with
three-valued logic.  A comparison reads each operand's value key
(terms.value_key), made at most once per term id per evaluation, or at
compile time for a constant; MIN and MAX compare the same keys in one pass.

Both end in one finish, _finish, on compact rows: a row's data term ids plus
the members of each version variable (one member in a checkout).  Each data
term is serialized once, each version's text is made directly from its seq,
and a row's output keys are the tuples of texts from the product of the
columns the SELECT reads (projects, groups, or takes the MIN or MAX of).  A
version variable it does not read is never bound: the size of its set
multiplies the count of the row's keys, the number of solutions each stands
for.  COUNT adds those counts and a projection without DISTINCT repeats its
key that often, while DISTINCT, MIN and MAX ignore them, so `SELECT DISTINCT
?b` or a COUNT per data value builds no version IRI at all.  Serialization
is injective, so the keys group, dedupe and sort as the terms would, and
sorting pays per distinct row; only the sorted keys are turned back into
term rows, and only a version that reaches a row becomes an Iri.  The table
carries those sorted keys as its texts, which TSV formatting joins without
serializing anything again, so equal results from both evaluators are
byte-equal after formatting.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain, product, repeat
from typing import Callable, Iterable

from .dag import VersionDag, parse_version_iri, version_iri
from .ntriples import format_term
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
    SelectClause,
    TriplePattern,
    Var,
    _expr_vars,
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
    """A query's header and sorted rows; texts holds each row's N-Triples
    texts, 1:1 with rows.  The finish passes the texts it sorted on, and a
    table built from rows alone serializes them here.  texts is left out of
    equality and repr, and does not follow later edits to rows."""

    header: tuple[str, ...]
    rows: list[tuple[Term, ...]]
    texts: list[tuple[str, ...]] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.texts is None:
            self.texts = [tuple(map(format_term, row)) for row in self.rows]


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
    dictionary: Dictionary,
    match: Callable,
    combine: _Combine,
) -> list[_Row]:
    """Extend each row by every triple `match` finds for the pattern.

    Every row binds the same variables, so the plan is made once, from the
    first row: a slot probes with a constant or a bound variable's id, binds
    a new variable, or must equal the earlier slot that binds its variable.
    combine(annotation, leaf) gives the extended row's version annotation,
    or None when the matched triple holds in none of the row's versions.
    """
    slots = (pattern.s, pattern.p, pattern.o)
    # the constants' ids, None at the variables; a constant never interned matches nothing
    base = [None if isinstance(slot, Var) else dictionary.lookup(slot) for slot in slots]
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
            new_ann = combine(ann, leaf)
            if new_ann is None:
                continue
            if new:
                extended = env.copy()
                for name, i in new:
                    extended[name] = triple[i]
                out.append((extended, new_ann))
            else:
                out.append((env, new_ann))
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
    """make(key) for each key, made on its first read and kept."""

    def __init__(self, make: Callable[[object], object]):
        super().__init__()
        self.make = make

    def __missing__(self, key: object):
        value = self[key] = self.make(key)
        return value


_Test = Callable[[dict[str, TermId], dict[str, bool]], bool | None]


def _compile(expr: Expr, keys: _Memo) -> _Test:
    """expr as test(env, at_head): three-valued, None meaning an error, which
    drops the row; at_head[name] answers isHead(?name)."""
    if isinstance(expr, Comparison):
        # a variable operand reads its bound term's key; a constant's is made here
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


def _tests(query: Query, dictionary: Dictionary) -> list[_Test | None]:
    """Each FILTER's test, compiled once per evaluation over one key per term
    id; None for the other WHERE elements."""
    keys = _Memo(lambda tid: value_key(dictionary.resolve(tid)))
    return [_compile(e.expr, keys) if isinstance(e, Filter) else None for e in query.where]


def _filter(rows: list[_Row], test: _Test, at_head: dict[str, bool]) -> list[_Row]:
    """The rows on which test is true, with isHead(?name) answered by at_head."""
    return [row for row in rows if test(row[0], at_head) is True]


def _required_heads(expr: Expr) -> set[str]:
    """The variables of the isHead tests among expr's top-level && operands.

    The filter is false on a row where such a test is false, so those
    variables can range over the heads from where they are introduced on.
    An isHead under || or ! is not required.
    """
    if isinstance(expr, And):
        return _required_heads(expr.lhs) | _required_heads(expr.rhs)
    return {expr.var.name} if isinstance(expr, IsHead) else set()


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
    version, each made once; the product of those lists gives the
    row's keys.  A version variable the SELECT does not read multiplies the
    count of each key by its size.  Serializations are equal exactly when
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
    # each data text the finish made -> its term; a version's text is made
    # directly (an IRI is written <text>, unescaped) and becomes an Iri here
    # on its first read, so only the versions that reach a row build one
    terms = _Memo(lambda out: Iri(out[1:-1]))

    def text(term: Term) -> str:
        out = format_term(term)
        terms[out] = term
        return out

    data = _Memo(lambda tid: text(dictionary.resolve(tid)))
    versions = _Memo(lambda seq: f"<{version_iri(seq)}>")
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
        numbers = _Memo(lambda n: text(Literal(str(n), XSD_INTEGER)))
        keys = _Memo(lambda key: value_key(terms[key]))
        counts = {}
        for key, acc in groups.items():
            cells = dict(zip(group, key))
            for agg, value in zip(aggs, acc):
                if agg.func == "COUNT":
                    cells[agg.alias.name] = numbers[value]
                    continue
                best = _extremum(value, keys, want_max=agg.func == "MAX")
                if best is None:
                    break  # the group is dropped
                cells[agg.alias.name] = best
            else:
                out = tuple(map(cells.__getitem__, header))
                counts[out] = counts.get(out, 0) + 1
    ordered = sorted(counts)
    if not select.distinct and sum(counts.values()) > len(ordered):
        ordered = list(chain.from_iterable(map(repeat, ordered, map(counts.__getitem__, ordered))))
    # zip builds the row tuples column by column, cheaper than a tuple() per row
    table = list(zip(*(map(terms.__getitem__, map(operator.itemgetter(i), ordered))
                       for i in range(len(header)))))
    return SolutionTable(header, table, ordered)


# --- annotated evaluation ------------------------------------------------


def _ann_filter(
    rows: list[_Row],
    test: _Test,
    names: list[str],
    pushed: set[str],
    parts: Callable[[], dict[bool, VersionSet]],
) -> list[_Row]:
    """Filter annotated rows, partitioning version sets around isHead().

    names are the filter's isHead variables.  A pushed one, which a FILTER
    requires at a head or the heads domain ranges over the heads, holds
    only heads already, so its isHead is True.  A row whose set for one of
    the k others mixes head and non-head versions cannot answer the test as
    a whole, so it splits into at most 2^k sub-rows, one per truth
    assignment of those variables; parts()[flag] holds the versions whose
    isHead is flag.  The sub-rows are disjoint, so the finish sees each
    (binding, version) pair exactly once.
    """
    fixed = {name: True for name in names if name in pushed}
    free = [name for name in names if name not in pushed]
    if not free:
        return [row for row in rows if test(row[0], fixed) is True]
    truths = product((True, False), repeat=len(free))
    assigns = [{**fixed, **dict(zip(free, bits))} for bits in truths]
    sides = parts()
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
    heads = dag.heads()
    set_cls = set_class(store.encoding)
    head_set = set_cls.from_iterable(heads)
    # a variable some FILTER requires at a head ranges over the heads
    # (_required_heads), as does every version variable in the heads domain
    if version_domain == "heads":
        pushed = query.version_vars()
    else:
        pushed = set().union(*(_required_heads(e.expr) for e in query.where if isinstance(e, Filter)))
    tests = _tests(query, dictionary)

    def parts() -> dict[bool, VersionSet]:
        rest = set_cls.from_iterable(v for v in range(store.n_versions) if v not in heads)
        return {True: head_set, False: rest}

    def at(seq: int | None) -> tuple[Callable, _Combine]:
        if seq is None:
            return _EMPTY_INDEX.match, _keep
        return store.match, _at_version(seq)

    main_head = dag.branches.get("main")
    rows: list[_Row] = [({}, {})]
    for element, test in zip(query.where, tests):
        if not rows:
            break
        if isinstance(element, TriplePattern):
            rows = _join(rows, element, dictionary, *at(main_head))
        elif isinstance(element, GraphBlock):
            if not isinstance(element.name, Var):
                match, combine = at(_graph_version(element, store.n_versions))
            else:
                name = element.name.name
                within = head_set if name in pushed else None
                if not element.patterns:
                    # an empty GRAPH ?v {} block ranges ?v over every version or the heads
                    if within is None:
                        within = set_cls.from_iterable(range(store.n_versions))
                    widen = _over_var(name, None)
                    rows = [(env, a) for env, ann in rows if (a := widen(ann, within)) is not None]
                    continue
                match, combine = store.match, _over_var(name, within)
            for pattern in element.patterns:
                rows = _join(rows, pattern, dictionary, match, combine)
                if not rows:
                    break
        else:
            rows = _ann_filter(rows, test, sorted(_expr_vars(element.expr)[1]), pushed, parts)
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
    tests = _tests(query, dictionary)
    collected: list[tuple[dict[str, TermId], dict[str, list[int]]]] = []
    for combo in product(domain, repeat=len(version_names)):
        assign = dict(zip(version_names, combo))
        members = {name: [seq] for name, seq in assign.items()}
        at_head = {name: seq in heads for name, seq in assign.items()}
        rows: list[_Row] = [({}, {})]
        for element, test in zip(query.where, tests):
            if not rows:
                break
            if isinstance(element, TriplePattern):
                rows = _join(rows, element, dictionary, graph_at(main_head).match, _keep)
            elif isinstance(element, GraphBlock):
                if isinstance(element.name, Var):
                    g = graph_at(assign[element.name.name])
                else:
                    g = graph_at(_graph_version(element, store.n_versions))
                for pattern in element.patterns:
                    rows = _join(rows, pattern, dictionary, g.match, _keep)
                    if not rows:
                        break
            else:
                rows = _filter(rows, test, at_head)
        collected.extend((env, members) for env, _ in rows)
    return _finish(collected, dictionary, query)


# --- result formatting ---------------------------------------------------


def format_results(table: SolutionTable, fmt: str = "tsv") -> str:
    """Render a table as TSV (N-Triples terms) or CSV (lexical forms).

    TSV joins the table's texts, serializing no term; CSV reads its rows.
    """
    if fmt == "tsv":
        lines = ["\t".join(f"?{name}" for name in table.header)]
        lines.extend(map("\t".join, table.texts))
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(table.header)
        for row in table.rows:
            writer.writerow([_csv_cell(cell) for cell in row])
        return buf.getvalue()
    raise ValueError(f"unknown result format: {fmt!r}")


def _csv_cell(term: Term) -> str:
    if isinstance(term, Iri):
        return term.text
    if isinstance(term, Literal):
        return term.lex
    return f"_:{term.label}"
