"""Query evaluation: version-set propagation and the checkout baseline.

eval_annotated answers a query for every version in one pass: each partial
solution carries, per version variable, the set of versions it still holds
in.  Joining two patterns intersects those sets; an empty intersection kills
the row.  Only at the end is a row expanded, and only over the version
variables the SELECT reads (projects, groups or aggregates): each of those is
bound to every member of its set, so DISTINCT, aggregation, and projection
see plain rows.  A version variable the SELECT does not read is never bound;
the cardinality of its set becomes the row's multiplicity, the number of
solutions the row stands for.  COUNT adds the multiplicity and a projection
without DISTINCT repeats the row that often, while DISTINCT, MIN and MAX
ignore it.  So `SELECT DISTINCT ?b` or a COUNT per data value builds no
version IRI at all, and `accessible-pairs` emits each row once per version
without a dict per version.

eval_checkout is the baseline with identical semantics by construction: it
materializes every candidate version, evaluates the query with the version
variables fixed, and unions the row multisets.  Agreement between the two is
the core correctness check of the whole package; divergence is a bug.  It
binds every version variable, so each of its rows has multiplicity 1.

Both evaluators extend rows through the one join step, _join, over a
store.TripleIndex (the store's own, or one per checked-out version, which
builds only the permutations the query probes).
They differ only in how a matched triple's leaf changes a row's version
annotation: a contains test for a constant version, an intersection for a
version variable, and no change at all in a checkout.

Both produce a SolutionTable whose rows are sorted by the tuple of term
serializations, so equal results are byte-equal after formatting.  _finish
sorts the distinct rows only, and each term is serialized once (see
ntriples.format_term), so sorting and formatting pay per distinct term.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator

from .dag import VersionDag, parse_version_iri, version_iri
from .ntriples import format_term
from .sparql import (
    Aggregate,
    And,
    Comparison,
    Expr,
    GraphBlock,
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
        if vset.cardinality() == 0:
            return None
        return {**ann, name: vset}

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


def _read_names(query: Query) -> set[str]:
    """The variables the SELECT projects, groups or aggregates."""
    select = query.select
    names = {v.name for v in select.group_by}
    for item in select.items:
        names.add(item.name if isinstance(item, Var) else item.arg.name)
    return names


def _aggregate(
    rows: Iterable[tuple[dict[str, Term], int]], select: SelectClause, aggs: list[Aggregate]
) -> list[tuple[Term, ...]]:
    """One output row per surviving group; COUNT adds the multiplicities."""
    group_names = [v.name for v in select.group_by]
    groups: dict[tuple[Term, ...], list] = {}
    for row, mult in rows:
        key = tuple(row[name] for name in group_names)
        acc = groups.get(key)
        if acc is None:
            acc = [0 if a.func == "COUNT" else set() for a in aggs]
            groups[key] = acc
        for i, agg in enumerate(aggs):
            if agg.func == "COUNT":
                acc[i] += mult
            else:
                acc[i].add(row[agg.arg.name])
    if not groups and not group_names and all(a.func == "COUNT" for a in aggs):
        groups[()] = [0 for _ in aggs]
    out: list[tuple[Term, ...]] = []
    for key, acc in groups.items():
        by_name = dict(zip(group_names, key))
        cells: list[Term] = []
        dead = False
        agg_index = 0
        for item in select.items:
            if isinstance(item, Var):
                cells.append(by_name[item.name])
                continue
            value = acc[agg_index]
            agg_index += 1
            if item.func == "COUNT":
                cells.append(Literal(str(value), XSD_INTEGER))
            else:
                extremum = _extremum(value, want_max=item.func == "MAX")
                if extremum is None:
                    dead = True
                    break
                cells.append(extremum)
        if not dead:
            out.append(tuple(cells))
    return out


def _finish(rows: Iterable[tuple[dict[str, Term], int]], query: Query) -> SolutionTable:
    """Aggregate, project, dedupe, and sort rows given with their multiplicity."""
    select = query.select
    header = tuple(
        item.name if isinstance(item, Var) else item.alias.name
        for item in select.items
    )
    aggs = [item for item in select.items if isinstance(item, Aggregate)]
    if aggs:
        projected: Iterable[tuple[tuple[Term, ...], int]] = (
            (out_row, 1) for out_row in _aggregate(rows, select, aggs)
        )
    else:
        names = [item.name for item in select.items if isinstance(item, Var)]
        projected = ((tuple(row[name] for name in names), mult) for row, mult in rows)
    # each output row under its serialization, with how many times it occurs;
    # serializations are equal exactly when rows are, and cheaper to hash
    counts: dict[tuple[str, ...], list] = {}
    for out_row, mult in projected:
        text = tuple(map(format_term, out_row))
        entry = counts.get(text)
        if entry is None:
            counts[text] = [out_row, mult]
        else:
            entry[1] += mult
    ordered = [counts[text] for text in sorted(counts)]
    if select.distinct:
        return SolutionTable(header, [out_row for out_row, _ in ordered])
    return SolutionTable(header, [out_row for out_row, n in ordered for _ in range(n)])


# --- annotated evaluation ------------------------------------------------


def _ann_filter(
    rows: list[_Row],
    expr: Expr,
    parts: dict[bool, VersionSet],
    dictionary: Dictionary,
) -> list[_Row]:
    """Filter annotated rows, partitioning version sets around isHead().

    A row whose set mixes head and non-head versions cannot answer an
    isHead test as a whole, so it splits into at most 2^k sub-rows, one per
    truth assignment of the k isHead variables; parts[flag] holds the
    versions whose isHead is flag.  The sub-rows are disjoint, so the later
    expansion sees each (binding, version) pair exactly once.
    """
    head_names = sorted(_expr_vars(expr)[1])
    if not head_names:
        return _filter(rows, expr, dictionary, {}.__getitem__)
    truths = product((True, False), repeat=len(head_names))
    assigns = [dict(zip(head_names, bits)) for bits in truths]
    out: list[_Row] = []
    for env, vsets in rows:
        compare = _comparer(env, dictionary)
        for assign in assigns:
            if _eval_expr(expr, compare, assign.__getitem__) is not True:
                continue
            split = {name: vsets[name].intersect(parts[flag]) for name, flag in assign.items()}
            if all(part.cardinality() for part in split.values()):
                out.append((env, {**vsets, **split}))
    return out


def _version_iris() -> Callable[[int], Iri]:
    """One version IRI per version number, made on first use."""
    iris: dict[int, Iri] = {}

    def iri(seq: int) -> Iri:
        term = iris.get(seq)
        if term is None:
            term = iris[seq] = Iri(version_iri(seq))
        return term

    return iri


def _expand(
    rows: list[_Row], dictionary: Dictionary, read: set[str]
) -> Iterator[tuple[dict[str, Term], int]]:
    """Bind each read version variable to every member of its set.

    A version variable outside `read` stays unbound: its set's cardinality
    multiplies the multiplicity each expanded row is yielded with.
    """
    iri = _version_iris()
    for env, vsets in rows:
        data = {name: dictionary.resolve(tid) for name, tid in env.items() if name in read}
        mult = 1
        names: list[str] = []
        for name, vset in vsets.items():
            if name in read:
                names.append(name)
            else:
                mult *= vset.cardinality()
        if not names:
            yield data, mult
            continue
        names.sort()
        for combo in product(*(vsets[name] for name in names)):
            row = dict(data)
            for name, member in zip(names, combo):
                row[name] = iri(member)
            yield row, mult


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
    parts = {
        True: head_set,
        False: set_cls.from_iterable(v for v in range(store.n_versions) if v not in heads),
    }
    domain = head_set if version_domain == "heads" else None

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
            elif element.patterns:
                match, combine = store.match, _over_var(element.name.name, domain)
            else:
                # an empty GRAPH ?v {} block ranges ?v over the whole domain
                full = set_cls.from_iterable(range(store.n_versions)) if domain is None else domain
                widen = _over_var(element.name.name, None)
                rows = [(env, a) for env, ann in rows if (a := widen(ann, full)) is not None]
                continue
            for pattern in element.patterns:
                rows = _join(rows, pattern, dictionary, match, combine)
                if not rows:
                    break
        else:
            rows = _ann_filter(rows, element.expr, parts, dictionary)
    return _finish(_expand(rows, dictionary, _read_names(query)), query)


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

    iri = _version_iris()
    main_head = dag.branches.get("main")
    collected: list[tuple[dict[str, Term], int]] = []
    for combo in product(domain, repeat=len(version_names)):
        assign = dict(zip(version_names, combo))
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
        for env, _ in rows:
            row = {name: dictionary.resolve(tid) for name, tid in env.items()}
            for name, seq in assign.items():
                row[name] = iri(seq)
            collected.append((row, 1))
    return _finish(collected, query)


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
