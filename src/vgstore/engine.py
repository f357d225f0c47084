"""Query evaluation: version-set propagation and the checkout baseline.

eval_annotated answers a query for every version in one pass: each partial
solution carries, per version variable, the set of versions it still holds
in.  Joining two patterns intersects those sets; an empty intersection kills
the row.  When a FILTER's top-level && operands include isHead(?v), the head
set is ?v's domain from the pattern that introduces ?v on, so a row that
holds at no head dies in the join instead of reaching the filter; the
filter itself is evaluated as written.  isHead under || or ! is left to the
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
version variable, and no change at all in a checkout.

Both end in one finish, _finish, on compact rows: a row's data term ids plus
the members of each version variable (one member in a checkout).  Each data
term and each version is serialized once, and a row's output keys are the
tuples of texts from the product of the columns the SELECT reads (projects,
groups, or takes the MIN or MAX of).  A version variable it does not read
is never bound: the size of its set multiplies the count of the row's keys,
the number of solutions each stands for.  COUNT adds those counts and a
projection without DISTINCT repeats its row that often, while DISTINCT, MIN
and MAX ignore them, so `SELECT DISTINCT ?b` or a COUNT per data value
builds no version IRI at all.  Serialization is injective, so the keys
group, dedupe and sort as the terms would; only the sorted distinct keys are
turned back into term rows, so sorting pays per distinct row and
serializing per distinct term.  The rows of both SolutionTables are sorted
by the tuple of term serializations, so equal results are byte-equal after
formatting.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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
    Triple,
    compare_values,
)

_DOMAINS = ("all", "heads")


@dataclass
class SolutionTable:
    header: tuple[str, ...]
    rows: list[tuple[Term, ...]]


def _check_domain(version_domain: str) -> None:
    if version_domain not in _DOMAINS:
        raise ValueError(f"version_domain must be one of {_DOMAINS}")


# --- shared pieces -------------------------------------------------------

# A row is its data bindings plus its version annotation: the version set each
# version variable still holds in, or {} in a checkout.
_Row = tuple[dict[str, TermId], dict[str, object]]
_Combine = Callable[[dict[str, object], object], dict[str, object] | None]

_EMPTY_INDEX = TripleIndex()


def _unify(
    pattern: TriplePattern, triple: Triple, env: dict[str, TermId]
) -> dict[str, TermId] | None:
    """New bindings a matched triple contributes, or None on a repeated-var clash."""
    bind: dict[str, TermId] = {}
    for slot, value in ((pattern.s, triple.s), (pattern.p, triple.p), (pattern.o, triple.o)):
        if isinstance(slot, Var) and slot.name not in env:
            prev = bind.get(slot.name)
            if prev is None:
                bind[slot.name] = value
            elif prev != value:
                return None
    return bind


def _constant_ids(
    pattern: TriplePattern, dictionary: Dictionary
) -> dict[str, TermId] | None:
    """Ids of the pattern's constant slots; None if any term is unknown."""
    out: dict[str, TermId] = {}
    for key, slot in (("s", pattern.s), ("p", pattern.p), ("o", pattern.o)):
        if not isinstance(slot, Var):
            tid = dictionary.lookup(slot)
            if tid is None:
                return None
            out[key] = tid
    return out


def _slot_id(slot, key: str, env: dict[str, TermId], const_ids: dict[str, TermId]):
    if isinstance(slot, Var):
        return env.get(slot.name)
    return const_ids[key]


def _join(
    rows: list[_Row],
    pattern: TriplePattern,
    dictionary: Dictionary,
    match: Callable,
    combine: _Combine,
) -> list[_Row]:
    """Extend each row by every triple `match` finds for the pattern.

    combine(annotation, leaf) gives the extended row's version annotation,
    or None when the matched triple holds in none of the row's versions.
    """
    const_ids = _constant_ids(pattern, dictionary)
    if const_ids is None:
        return []
    out: list[_Row] = []
    for env, ann in rows:
        s = _slot_id(pattern.s, "s", env, const_ids)
        p = _slot_id(pattern.p, "p", env, const_ids)
        o = _slot_id(pattern.o, "o", env, const_ids)
        for triple, leaf in match(s, p, o):
            bind = _unify(pattern, triple, env)
            if bind is None:
                continue
            new_ann = combine(ann, leaf)
            if new_ann is not None:
                out.append(({**env, **bind} if bind else env, new_ann))
    return out


def _keep(ann: dict[str, object], leaf: object) -> dict[str, object]:
    """A checkout graph is one version, so every match keeps the row as it is."""
    return ann


def _at_version(seq: int) -> _Combine:
    """A constant version keeps the row when the triple holds in it."""
    return lambda ann, vset: ann if vset.contains(seq) else None


def _over_var(name: str, domain: VersionSet | None) -> _Combine:
    """A version variable narrows to the triple's versions, within the domain."""

    def combine(ann: dict[str, object], vset: VersionSet) -> dict[str, object] | None:
        previous = ann.get(name)
        if previous is not None:
            vset = previous.intersect(vset)
        elif domain is not None:
            vset = vset.intersect(domain)
        return {**ann, name: vset} if vset else None

    return combine


def _graph_version(block: GraphBlock, n_versions: int) -> int | None:
    """The version a constant GRAPH name denotes, or None if there is none."""
    seq = parse_version_iri(block.name.text)
    return seq if seq is not None and 0 <= seq < n_versions else None


# comparison operator -> its test of compare_values's sign
_SIGN_TESTS = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
               "!=": operator.ne, ">=": operator.ge, ">": operator.gt}


def _comparer(
    env: dict[str, TermId], dictionary: Dictionary
) -> Callable[[Comparison], bool | None]:
    """Answers the comparisons of a filter on the row env, each one once: they
    do not depend on isHead, so the sub-rows of an annotated row share them."""
    answers: dict[int, bool | None] = {}

    def value(operand: Var | Literal) -> Term | None:
        if isinstance(operand, Literal):
            return operand
        return dictionary.resolve(env[operand.name]) if operand.name in env else None

    def compare(expr: Comparison) -> bool | None:
        key = id(expr)
        if key not in answers:
            a, b = value(expr.lhs), value(expr.rhs)
            c = compare_values(a, b) if isinstance(a, Literal) and isinstance(b, Literal) else None
            answers[key] = None if c is None else _SIGN_TESTS[expr.op](c, 0)
        return answers[key]

    return compare


def _filter(
    rows: list[_Row], expr: Expr, dictionary: Dictionary, ishead: Callable[[str], bool]
) -> list[_Row]:
    """The rows on which expr is true; ishead(name) answers isHead(?name)."""
    return [row for row in rows if _eval_expr(expr, _comparer(row[0], dictionary), ishead) is True]


def _eval_expr(
    expr: Expr,
    compare: Callable[[Comparison], bool | None],
    ishead: Callable[[str], bool],
) -> bool | None:
    """Three-valued filter logic; None means error, which drops the row."""
    if isinstance(expr, Comparison):
        return compare(expr)
    # a left side that settles && or || skips the right one: False && error
    # is False and True || error is True, so skipping changes no result
    if isinstance(expr, And):
        left = _eval_expr(expr.lhs, compare, ishead)
        if left is False:
            return False
        right = _eval_expr(expr.rhs, compare, ishead)
        if right is False:
            return False
        return None if left is None or right is None else True
    if isinstance(expr, Or):
        left = _eval_expr(expr.lhs, compare, ishead)
        if left is True:
            return True
        right = _eval_expr(expr.rhs, compare, ishead)
        if right is True:
            return True
        return None if left is None or right is None else False
    if isinstance(expr, Not):
        inner = _eval_expr(expr.operand, compare, ishead)
        return None if inner is None else not inner
    return ishead(expr.var.name)


def _required_heads(expr: Expr) -> set[str]:
    """The variables of the isHead tests among expr's top-level && operands.

    The filter is false on a row where such a test is false, so those
    variables can range over the heads from where they are introduced on.
    An isHead under || or ! is not required.
    """
    if isinstance(expr, And):
        return _required_heads(expr.lhs) | _required_heads(expr.rhs)
    return {expr.var.name} if isinstance(expr, IsHead) else set()


def _extremum(values: Iterable[Term], want_max: bool) -> Term | None:
    """MIN/MAX over distinct values; None if any pair is incomparable.

    A pair may be one value twice: a numeric literal that does not parse is
    incomparable with itself, so a group holding only it is dropped too.  The
    all-pairs check makes the outcome independent of iteration order, so both
    evaluators agree on which groups are dropped.  Value ties are broken by the
    smallest term serialization.
    """
    vals = list(values)
    if not vals or any(not isinstance(v, Literal) for v in vals):
        return None
    for i in range(len(vals)):
        for j in range(i, len(vals)):
            if compare_values(vals[i], vals[j]) is None:
                return None
    best = vals[0]
    for v in vals[1:]:
        c = compare_values(v, best)
        if (c > 0) if want_max else (c < 0):
            best = v
    ties = [v for v in vals if compare_values(v, best) == 0]
    return min(ties, key=format_term)


class _Texts(dict):
    """The serialization of each key's term, made once; `terms` maps it back."""

    def __init__(self, make: Callable[[int], Term], terms: dict[str, Term]):
        super().__init__()
        self.make, self.terms = make, terms

    def __missing__(self, key: int) -> str:
        term = self.make(key)
        text = self[key] = format_term(term)
        self.terms[text] = term
        return text


def _finish(
    rows: Iterable[tuple[dict[str, TermId], dict[str, Iterable[int]]]],
    dictionary: Dictionary,
    query: Query,
) -> SolutionTable:
    """Aggregate, project, dedupe and sort compact rows on term serializations.

    A row is its data ids plus the members of each version variable.  Each
    column the SELECT reads becomes a list of texts, one per data id or per
    version, each serialized once; the product of those lists gives the
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
    terms: dict[str, Term] = {}
    data = _Texts(dictionary.resolve, terms)
    versions = _Texts(lambda seq: Iri(version_iri(seq)), terms)
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
        numbers = _Texts(lambda n: Literal(str(n), XSD_INTEGER), terms)
        counts = {}
        for key, acc in groups.items():
            cells = dict(zip(group, key))
            for agg, value in zip(aggs, acc):
                if agg.func == "COUNT":
                    cells[agg.alias.name] = numbers[value]
                    continue
                term = _extremum(map(terms.__getitem__, value), want_max=agg.func == "MAX")
                if term is None:
                    break  # the group is dropped
                cells[agg.alias.name] = format_term(term)
            else:
                out = tuple(map(cells.__getitem__, header))
                counts[out] = counts.get(out, 0) + 1
    ordered = sorted(counts)
    # zip builds the row tuples column by column, cheaper than a tuple() per row
    table = list(zip(*(map(terms.__getitem__, map(operator.itemgetter(i), ordered))
                       for i in range(len(header)))))
    if not select.distinct and sum(counts.values()) > len(table):
        table = list(chain.from_iterable(map(repeat, table, map(counts.__getitem__, ordered))))
    return SolutionTable(header, table)


# --- annotated evaluation ------------------------------------------------


def _ann_filter(
    rows: list[_Row],
    expr: Expr,
    parts: Callable[[], dict[bool, VersionSet]],
    dictionary: Dictionary,
) -> list[_Row]:
    """Filter annotated rows, partitioning version sets around isHead().

    A row whose set mixes head and non-head versions cannot answer an
    isHead test as a whole, so it splits into at most 2^k sub-rows, one per
    truth assignment of the k isHead variables; parts()[flag] holds the
    versions whose isHead is flag.  The sub-rows are disjoint, so the finish
    sees each (binding, version) pair exactly once.
    """
    head_names = sorted(_expr_vars(expr)[1])
    if not head_names:
        return _filter(rows, expr, dictionary, {}.__getitem__)
    truths = product((True, False), repeat=len(head_names))
    assigns = [dict(zip(head_names, bits)) for bits in truths]
    sides = parts()
    out: list[_Row] = []
    for env, vsets in rows:
        compare = _comparer(env, dictionary)
        for assign in assigns:
            if _eval_expr(expr, compare, assign.__getitem__) is not True:
                continue
            split = {name: vsets[name].intersect(sides[flag]) for name, flag in assign.items()}
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
    domain = head_set if version_domain == "heads" else None
    # a variable some FILTER requires at a head ranges over the heads (_required_heads)
    pushed = set().union(*(_required_heads(e.expr) for e in query.where if isinstance(e, Filter)))

    def parts() -> dict[bool, VersionSet]:
        rest = set_cls.from_iterable(v for v in range(store.n_versions) if v not in heads)
        return {True: head_set, False: rest}

    def at(seq: int | None) -> tuple[Callable, _Combine]:
        if seq is None:
            return _EMPTY_INDEX.match, _keep
        return store.match, _at_version(seq)

    main_head = dag.branches.get("main")
    rows: list[_Row] = [({}, {})]
    for element in query.where:
        if not rows:
            break
        if isinstance(element, TriplePattern):
            rows = _join(rows, element, dictionary, *at(main_head))
        elif isinstance(element, GraphBlock):
            if not isinstance(element.name, Var):
                match, combine = at(_graph_version(element, store.n_versions))
            else:
                name = element.name.name
                within = head_set if name in pushed else domain
                if not element.patterns:
                    # an empty GRAPH ?v {} block ranges ?v over the whole domain
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
            rows = _ann_filter(rows, element.expr, parts, dictionary)
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
    collected: list[tuple[dict[str, TermId], dict[str, list[int]]]] = []
    for combo in product(domain, repeat=len(version_names)):
        assign = dict(zip(version_names, combo))
        members = {name: [seq] for name, seq in assign.items()}
        rows: list[_Row] = [({}, {})]
        for element in query.where:
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
                rows = _filter(rows, element.expr, dictionary, lambda name: assign[name] in heads)
        collected.extend((env, members) for env, _ in rows)
    return _finish(collected, dictionary, query)


# --- result formatting ---------------------------------------------------


def format_results(table: SolutionTable, fmt: str = "tsv") -> str:
    """Render a table as TSV (N-Triples terms) or CSV (lexical forms)."""
    if fmt == "tsv":
        lines = ["\t".join(f"?{name}" for name in table.header)]
        for row in table.rows:
            lines.append("\t".join(map(format_term, row)))
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
