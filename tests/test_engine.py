"""Both evaluators against a naive term-level reference implementation.

The reference below shares only the parser, compare_values, and format_term
with the engine.  It evaluates by brute force: one plain graph per version,
nested-loop joins over resolved terms, and its own aggregation code.  Every
semantic rule the engine implements cleverly (version-set intersection, row
splitting around isHead, expansion multiplicities) must fall out of the dumb
enumeration here, or one of them is wrong.
"""

import functools
import gc
import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from vgstore import (
    AnnotatedStore,
    BlankNode,
    Delta,
    Iri,
    Literal,
    SolutionTable,
    VersionDag,
    compare_values,
    eval_annotated,
    eval_checkout,
    format_results,
    format_term,
    parse_query,
    version_iri,
)
import vgstore.engine
from vgstore.bench import ENCODING_NAMES, QUERIES, ScenarioParams, generate
from vgstore.dag import parse_version_iri
from vgstore.sparql import Aggregate, And, Comparison, GraphBlock, IsHead, Not, Or, TriplePattern, Var
from vgstore.store import TripleIndex
from vgstore.terms import XSD_DOUBLE, XSD_INTEGER, value_key

from helpers import LITERAL_OBJECTS, random_query, random_repo

BOTH = (eval_annotated, eval_checkout)


# --- reference evaluator -------------------------------------------------


def _ref_join(bindings, pattern, graph):
    out = []
    for env in bindings:
        for s, p, o in graph:
            new = dict(env)
            ok = True
            for slot, val in ((pattern.s, s), (pattern.p, p), (pattern.o, o)):
                if isinstance(slot, Var):
                    if slot.name in new and new[slot.name] != val:
                        ok = False
                        break
                    new[slot.name] = val
                elif slot != val:
                    ok = False
                    break
            if ok:
                out.append(new)
    return out


def _ref_expr(expr, env, vmap, heads):
    if isinstance(expr, Comparison):
        a = expr.lhs if isinstance(expr.lhs, Literal) else env.get(expr.lhs.name)
        b = expr.rhs if isinstance(expr.rhs, Literal) else env.get(expr.rhs.name)
        if not isinstance(a, Literal) or not isinstance(b, Literal):
            return None
        c = compare_values(a, b)
        if c is None:
            return None
        return {
            "<": c < 0, "<=": c <= 0, "=": c == 0,
            "!=": c != 0, ">=": c >= 0, ">": c > 0,
        }[expr.op]
    if isinstance(expr, And):
        l, r = _ref_expr(expr.lhs, env, vmap, heads), _ref_expr(expr.rhs, env, vmap, heads)
        if l is False or r is False:
            return False
        return None if (l is None or r is None) else True
    if isinstance(expr, Or):
        l, r = _ref_expr(expr.lhs, env, vmap, heads), _ref_expr(expr.rhs, env, vmap, heads)
        if l is True or r is True:
            return True
        return None if (l is None or r is None) else False
    if isinstance(expr, Not):
        inner = _ref_expr(expr.operand, env, vmap, heads)
        return None if inner is None else not inner
    return vmap[expr.var.name] in heads


def _ref_extremum(values, want_max):
    vals = sorted(values, key=format_term)
    if not vals or any(not isinstance(v, Literal) for v in vals):
        return None
    for a, b in itertools.combinations_with_replacement(vals, 2):
        if compare_values(a, b) is None:
            return None
    best = vals[0]
    for v in vals[1:]:
        c = compare_values(v, best)
        if (c > 0) if want_max else (c < 0):
            best = v  # strict improvement only, so ties keep the first
    return best


def ref_eval(store, dag, query, version_domain="all"):
    """Brute-force evaluation; returns (header, sorted row tuples)."""
    d = store.dictionary
    graphs = {
        v: {tuple(d.resolve(x) for x in (t.s, t.p, t.o)) for t in store.materialize(v)}
        for v in range(store.n_versions)
    }
    heads = dag.heads()
    domain = sorted(heads) if version_domain == "heads" else sorted(graphs)
    vnames = sorted(query.version_vars())
    main_head = dag.branches.get("main")

    results = []
    for combo in itertools.product(domain, repeat=len(vnames)):
        vmap = dict(zip(vnames, combo))
        bindings = [{}]
        for element in query.where:
            if not bindings:
                break
            if isinstance(element, TriplePattern):
                graph = graphs[main_head] if main_head is not None else set()
                bindings = _ref_join(bindings, element, graph)
            elif isinstance(element, GraphBlock):
                if isinstance(element.name, Var):
                    graph = graphs[vmap[element.name.name]]
                else:
                    seq = parse_version_iri(element.name.text)
                    graph = graphs.get(seq, set())
                for pattern in element.patterns:
                    bindings = _ref_join(bindings, pattern, graph)
            else:
                bindings = [
                    env
                    for env in bindings
                    if _ref_expr(element.expr, env, vmap, heads) is True
                ]
        for env in bindings:
            row = dict(env)
            for name, v in vmap.items():
                row[name] = Iri(version_iri(v))
            results.append(row)

    select = query.select
    header = tuple(
        i.name if isinstance(i, Var) else i.alias.name for i in select.items
    )
    aggs = [i for i in select.items if isinstance(i, Aggregate)]
    if aggs:
        gnames = [v.name for v in select.group_by]
        groups = {}
        for row in results:
            groups.setdefault(tuple(row[g] for g in gnames), []).append(row)
        if not groups and not gnames and all(a.func == "COUNT" for a in aggs):
            groups[()] = []
        out = []
        for key, members in groups.items():
            by = dict(zip(gnames, key))
            cells = []
            for item in select.items:
                if isinstance(item, Var):
                    cells.append(by[item.name])
                    continue
                if item.func == "COUNT":
                    cells.append(Literal(str(len(members)), XSD_INTEGER))
                    continue
                value = _ref_extremum(
                    {row[item.arg.name] for row in members}, item.func == "MAX"
                )
                if value is None:
                    cells = None
                    break
                cells.append(value)
            if cells is not None:
                out.append(tuple(cells))
    else:
        names = [i.name for i in select.items]
        out = [tuple(row[n] for n in names) for row in results]
    if select.distinct:
        out = list(dict.fromkeys(out))
    out.sort(key=lambda r: tuple(format_term(c) for c in r))
    return header, out


# --- a fixed three-version instance --------------------------------------

EX = "urn:ex:"
XSD = "http://www.w3.org/2001/XMLSchema#"


def city():
    """v0: accessible station, h=10.5; v1: inaccessible; v2: accessible, h=12.0."""
    store, dag = AnnotatedStore(), VersionDag()
    d = store.dictionary

    def tr(s, p, o):
        return d.triple(Iri(EX + s), Iri(EX + p), o)

    typed = tr("st1", "type0", Iri(EX + "Station"))
    acc_t = tr("st1", "accessible", Literal("true", XSD + "boolean"))
    acc_f = tr("st1", "accessible", Literal("false", XSD + "boolean"))
    h1 = tr("b1", "height", Literal("10.5", XSD + "decimal"))
    h2 = tr("b1", "height", Literal("12.0", XSD + "decimal"))
    store.apply_commit(dag, [], "main", Delta(frozenset({typed, acc_t, h1}), frozenset()))
    store.apply_commit(
        dag, [0], "main", Delta(frozenset({acc_f}), frozenset({acc_t}))
    )
    store.apply_commit(
        dag, [1], "main", Delta(frozenset({acc_t, h2}), frozenset({acc_f, h1}))
    )
    return store, dag


ACCESSIBLE_Q = (
    "SELECT ?v WHERE { GRAPH ?v { "
    f"?st <{EX}type0> <{EX}Station> . "
    f'?st <{EX}accessible> "true"^^<{XSD}boolean> '
    "} }"
)

MAX_HEIGHT_Q = (
    "SELECT (MAX(?h) AS ?m) WHERE { GRAPH ?v { "
    f"<{EX}b1> <{EX}height> ?h "
    "} }"
)


def test_fixed_instance_version_query():
    store, dag = city()
    for evaluate in BOTH:
        table = evaluate(store, dag, parse_query(ACCESSIBLE_Q))
        assert table.header == ("v",)
        assert table.rows == [
            (Iri("urn:vg:version:0"),),
            (Iri("urn:vg:version:2"),),
        ]


def test_fixed_instance_heads_domain():
    store, dag = city()
    for evaluate in BOTH:
        table = evaluate(store, dag, parse_query(ACCESSIBLE_Q), version_domain="heads")
        assert table.rows == [(Iri("urn:vg:version:2"),)]


def test_fixed_instance_max_height():
    store, dag = city()
    for evaluate in BOTH:
        table = evaluate(store, dag, parse_query(MAX_HEIGHT_Q))
        assert table.header == ("m",)
        assert table.rows == [(Literal("12.0", XSD + "decimal"),)]


def test_fixed_instance_max_per_version():
    store, dag = city()
    q = parse_query(
        "SELECT ?v (MAX(?h) AS ?m) WHERE { GRAPH ?v { "
        f"<{EX}b1> <{EX}height> ?h "
        "} } GROUP BY ?v"
    )
    expected = [
        (Iri(version_iri(0)), Literal("10.5", XSD + "decimal")),
        (Iri(version_iri(1)), Literal("10.5", XSD + "decimal")),
        (Iri(version_iri(2)), Literal("12.0", XSD + "decimal")),
    ]
    for evaluate in BOTH:
        assert evaluate(store, dag, q).rows == expected


def test_fixed_instance_matches_reference():
    store, dag = city()
    for text in (ACCESSIBLE_Q, MAX_HEIGHT_Q):
        query = parse_query(text)
        for domain in ("all", "heads"):
            header, rows = ref_eval(store, dag, query, domain)
            for evaluate in BOTH:
                table = evaluate(store, dag, query, version_domain=domain)
                assert (table.header, table.rows) == (header, rows)


# --- randomized agreement, the central property --------------------------


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_evaluators_match_the_reference(seed):
    rng = random.Random(seed)
    store, dag = random_repo(
        rng,
        encoding=rng.choice(["extension", "interval"]),
        max_versions=9,
        allow_blanks=rng.random() < 0.3,
    )
    for _ in range(3):
        query = parse_query(random_query(rng, store.n_versions))
        domain = rng.choice(["all", "heads"])
        header, rows = ref_eval(store, dag, query, domain)
        for evaluate in BOTH:
            table = evaluate(store, dag, query, version_domain=domain)
            assert table.header == header
            assert table.rows == rows


def test_a_checkout_builds_only_the_permutations_its_query_probes(monkeypatch):
    """A version variable's index builds a permutation once per evaluation,
    when a pattern first probes it, and steps it from version to version:
    SPO for a bound subject, POS for a bound predicate, OSP only for an
    object alone."""
    store, dag = random_repo(random.Random(8))
    built: list = []
    permutation = TripleIndex._permutation

    def recorded_permutation(self, name):
        if name not in self._built:
            built.append(name)
        return permutation(self, name)

    monkeypatch.setattr(TripleIndex, "_permutation", recorded_permutation)
    by_predicate = parse_query("SELECT ?v ?s WHERE { GRAPH ?v { ?s ?p ?o . ?s ?p ?o2 } }")
    eval_checkout(store, dag, by_predicate)
    assert built == ["spo"]
    built.clear()
    a = next(iter(store.materialize(0)))
    p = format_term(store.dictionary.resolve(a.p))
    o = format_term(store.dictionary.resolve(a.o))
    eval_checkout(store, dag, parse_query(f"SELECT ?v WHERE {{ GRAPH ?v {{ ?s {p} {o} }} }}"))
    assert built == ["pos"]
    built.clear()
    eval_checkout(store, dag, parse_query(f"SELECT ?v WHERE {{ GRAPH ?v {{ ?s ?q {o} }} }}"))
    assert built == ["osp"]


@pytest.mark.parametrize("shape", ["linear", "branching"])
def test_a_checkout_materializes_once_per_version_variable_and_constant_version(
    monkeypatch, shape
):
    """A version variable's index is materialized at its first version and
    stepped after that, and a constant version (the main head, or a GRAPH
    IRI named twice) is materialized once, however many versions it visits."""
    if shape == "linear":
        store, dag = generate(ScenarioParams(buildings=8, stations=3, versions=10,
                                             branch_prob=0.0, churn=0.3, seed=5), None)
        assert len(dag.heads()) == 1
    else:
        store, dag = random_repo(random.Random(8))
        assert len(dag.heads()) > 1
    calls: list[int] = []
    materialize = AnnotatedStore.materialize

    def counted(self, v):
        calls.append(v)
        return materialize(self, v)

    monkeypatch.setattr(AnnotatedStore, "materialize", counted)
    at0 = f"<{version_iri(0)}>"
    queries = {
        "SELECT ?v ?s WHERE { GRAPH ?v { ?s ?p ?o } }": 1,
        "SELECT ?v ?w WHERE { GRAPH ?v { ?s ?p ?o } GRAPH ?w { ?s ?p ?o2 } }": 2,
        "SELECT ?v ?s WHERE { ?s ?p ?o GRAPH ?v { ?s ?p ?o2 } }": 2,
        f"SELECT ?v WHERE {{ GRAPH {at0} {{ ?s ?p ?o }} GRAPH ?v {{ ?s ?p ?o2 }} "
        f"GRAPH {at0} {{ ?s ?p ?o }} }}": 2,
    }
    for text, materialized in queries.items():
        for domain in ("all", "heads"):
            calls.clear()
            table = eval_checkout(store, dag, parse_query(text), version_domain=domain)
            assert table.texts and len(calls) == materialized
    assert store.n_versions > 2


def test_a_stepped_checkout_over_two_version_variables_equals_the_reference():
    """Over branching histories, a query over ?v and ?w, shaped like CI's
    shorter-than-at-head, equals the reference in both domains: ?w steps
    through the domain and wraps from its last version back to its first
    once per version of ?v, with isHead(?w) and without it."""
    queries = [
        parse_query("SELECT ?v ?w ?s ?h ?g WHERE { GRAPH ?v { ?s ?p ?h } "
                    f"GRAPH ?w {{ ?s ?p ?g }} FILTER ({test}) }}")
        for test in ("?h < ?g && isHead(?w)", "?h < ?g")
    ]
    rows = 0
    for seed in range(8):
        store, dag = random_repo(random.Random(seed), max_versions=10)
        for query, domain in itertools.product(queries, ("all", "heads")):
            header, expected = ref_eval(store, dag, query, domain)
            table = eval_checkout(store, dag, query, version_domain=domain)
            assert (table.header, table.rows) == (header, expected)
            rows += len(expected)
    assert rows > 0


# --- targeted semantic properties -----------------------------------------


def test_distinct_is_idempotent_and_duplicate_free():
    rng = random.Random(4)
    store, dag = random_repo(rng)
    q = parse_query(
        "SELECT DISTINCT ?v ?s WHERE { GRAPH ?v { ?s ?p ?o } }"
    )
    for evaluate in BOTH:
        rows = evaluate(store, dag, q).rows
        assert len(rows) == len(set(rows))
        assert evaluate(store, dag, q).rows == rows


def test_extra_pattern_never_adds_versions():
    rng = random.Random(5)
    store, dag = random_repo(rng)
    base = parse_query(
        "SELECT DISTINCT ?v WHERE { GRAPH ?v { ?s <urn:ex:p0> ?o } }"
    )
    narrowed = parse_query(
        "SELECT DISTINCT ?v WHERE { GRAPH ?v { ?s <urn:ex:p0> ?o . ?s <urn:ex:p1> ?o2 } }"
    )
    filtered = parse_query(
        "SELECT DISTINCT ?v WHERE { GRAPH ?v { ?s <urn:ex:p0> ?o } FILTER (isHead(?v)) }"
    )
    for evaluate in BOTH:
        wide = set(evaluate(store, dag, base).rows)
        assert set(evaluate(store, dag, narrowed).rows) <= wide
        assert set(evaluate(store, dag, filtered).rows) <= wide


def test_count_equals_sum_of_per_version_matches():
    rng = random.Random(6)
    store, dag = random_repo(rng)
    q = parse_query(
        "SELECT (COUNT(?s) AS ?n) WHERE { GRAPH ?v { ?s <urn:ex:p0> ?o } }"
    )
    d = store.dictionary
    p0 = d.lookup(Iri("urn:ex:p0"))
    expected = sum(
        1
        for v in range(store.n_versions)
        for t in store.materialize(v)
        if t.p == p0
    )
    for evaluate in BOTH:
        ((cell,),) = evaluate(store, dag, q).rows
        assert cell == Literal(str(expected), XSD_INTEGER)


@pytest.mark.parametrize("encoding", ["extension", "interval"])
def test_ishead_and_its_negation_partition_the_rows(encoding):
    rng = random.Random(7)
    store, dag = random_repo(rng, encoding=encoding)
    base = parse_query("SELECT ?v ?s WHERE { GRAPH ?v { ?s ?p ?o } }")
    pos = parse_query(
        "SELECT ?v ?s WHERE { GRAPH ?v { ?s ?p ?o } FILTER (isHead(?v)) }"
    )
    neg = parse_query(
        "SELECT ?v ?s WHERE { GRAPH ?v { ?s ?p ?o } FILTER (!isHead(?v)) }"
    )
    for evaluate in BOTH:
        all_rows = evaluate(store, dag, base).rows
        merged = evaluate(store, dag, pos).rows + evaluate(store, dag, neg).rows
        merged.sort(key=lambda r: tuple(format_term(c) for c in r))
        assert merged == all_rows


def empty_match_store():
    store, dag = AnnotatedStore(), VersionDag()
    t = store.dictionary.triple(Iri(EX + "s"), Iri(EX + "p"), Literal("x"))
    store.apply_commit(dag, [], "main", Delta(frozenset({t}), frozenset()))
    return store, dag


def test_count_over_nothing_is_a_zero_row():
    store, dag = empty_match_store()
    q = parse_query(f"SELECT (COUNT(?s) AS ?n) WHERE {{ ?s <{EX}missing> ?o }}")
    for evaluate in BOTH:
        table = evaluate(store, dag, q)
        assert table.rows == [(Literal("0", XSD_INTEGER),)]


def test_min_over_nothing_yields_no_row():
    store, dag = empty_match_store()
    for text in (
        f"SELECT (MIN(?o) AS ?m) WHERE {{ ?s <{EX}missing> ?o }}",
        f"SELECT (COUNT(?s) AS ?n) (MIN(?o) AS ?m) WHERE {{ ?s <{EX}missing> ?o }}",
    ):
        q = parse_query(text)
        for evaluate in BOTH:
            assert evaluate(store, dag, q).rows == []


def test_grouped_aggregate_over_nothing_yields_no_row():
    store, dag = empty_match_store()
    q = parse_query(
        f"SELECT ?s (COUNT(?o) AS ?n) WHERE {{ ?s <{EX}missing> ?o }} GROUP BY ?s"
    )
    for evaluate in BOTH:
        assert evaluate(store, dag, q).rows == []


def test_incomparable_group_is_dropped_comparable_group_survives():
    store, dag = AnnotatedStore(), VersionDag()
    d = store.dictionary
    p = Iri(EX + "p")
    triples = {
        d.triple(Iri(EX + "bad"), p, Literal("x", "urn:dt:one")),
        d.triple(Iri(EX + "bad"), p, Literal("y", "urn:dt:two")),
        d.triple(Iri(EX + "good"), p, Literal("2", XSD_INTEGER)),
        d.triple(Iri(EX + "good"), p, Literal("10", XSD_INTEGER)),
    }
    store.apply_commit(dag, [], "main", Delta(frozenset(triples), frozenset()))
    q = parse_query(
        f"SELECT ?s (MAX(?o) AS ?m) WHERE {{ ?s <{EX}p> ?o }} GROUP BY ?s"
    )
    for evaluate in BOTH:
        assert evaluate(store, dag, q).rows == [
            (Iri(EX + "good"), Literal("10", XSD_INTEGER)),
        ]


def test_extremum_value_ties_break_by_serialization():
    store, dag = AnnotatedStore(), VersionDag()
    d = store.dictionary
    triples = {
        d.triple(Iri(EX + "a"), Iri(EX + "p"), Literal("1", XSD_INTEGER)),
        d.triple(Iri(EX + "b"), Iri(EX + "p"), Literal("01", XSD_INTEGER)),
    }
    store.apply_commit(dag, [], "main", Delta(frozenset(triples), frozenset()))
    q = parse_query(f"SELECT (MAX(?o) AS ?m) WHERE {{ ?s <{EX}p> ?o }}")
    for evaluate in BOTH:
        assert evaluate(store, dag, q).rows == [(Literal("01", XSD_INTEGER),)]


# numeric literals that do not parse, so each is incomparable even with itself
_UNPARSED = [Literal("NaN", XSD_DOUBLE), Literal("x", XSD_INTEGER)]


@given(
    st.lists(
        st.sets(st.tuples(st.integers(0, 2), st.sampled_from(LITERAL_OBJECTS + _UNPARSED))),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from(["s", "v", "o"]),
    st.sampled_from(["COUNT", "MIN", "MAX"]),
)
@settings(max_examples=60, deadline=None)
def test_aggregates_over_incomparable_values_match_the_reference(versions, group, func):
    """A group whose values include one incomparable with another or with
    itself is dropped by MIN and MAX and counted by COUNT, in both
    evaluators and both encodings."""
    query = parse_query(
        f"SELECT ?{group} ({func}(?o) AS ?a) "
        f"WHERE {{ GRAPH ?v {{ ?s <{EX}p> ?o }} }} GROUP BY ?{group}"
    )
    for encoding in ("extension", "interval"):
        store, dag = AnnotatedStore(encoding=encoding), VersionDag()
        d = store.dictionary
        content: set = set()
        for v, pairs in enumerate(versions):
            now = {d.triple(Iri(f"{EX}s{i}"), Iri(EX + "p"), value) for i, value in pairs}
            delta = Delta(frozenset(now - content), frozenset(content - now))
            store.apply_commit(dag, [v - 1] if v else [], "main", delta)
            content = now
        expected = ref_eval(store, dag, query)
        for evaluate in BOTH:
            table = evaluate(store, dag, query)
            assert (table.header, table.rows) == expected


# MIN/MAX candidates: numeric ties across datatypes ("1", "01", "1.0", "-0",
# "0"), numbers that do not parse, strings, tagged strings with one lexical
# form, a custom datatype, and an IRI
EXTREMUM_VALUES = [
    Literal(lex, dt)
    for lex in ("0", "-0", "1", "01", "1.0", "2.5", "NaN", "INF", "abc")
    for dt in (XSD_INTEGER, XSD + "decimal", XSD_DOUBLE, XSD + "float")
] + [
    Literal("abc"), Literal("b"), Literal("abc", lang="en"), Literal("abc", lang="fr"),
    Literal("x", "urn:dt:custom"), Literal("y", "urn:dt:custom"), Iri(EX + "i"),
]


@given(st.sets(st.sampled_from(EXTREMUM_VALUES), min_size=1, max_size=6), st.booleans())
@settings(max_examples=300, deadline=None)
def test_one_pass_extremum_matches_the_all_pairs_definition(values, want_max):
    from vgstore.engine import _extremum

    keys = {format_term(v): value_key(v) for v in values}
    expected = _ref_extremum(values, want_max)
    got = _extremum(keys, keys, want_max)
    assert got == (None if expected is None else format_term(expected))


def test_aggregating_non_literals_drops_the_group():
    store, dag = empty_match_store()  # subject is an IRI, not a literal
    q = parse_query(f"SELECT (MIN(?s) AS ?m) WHERE {{ ?s <{EX}p> ?o }}")
    for evaluate in BOTH:
        assert evaluate(store, dag, q).rows == []


def test_unknown_terms_match_nothing():
    store, dag = empty_match_store()
    queries = [
        f"SELECT ?o WHERE {{ <{EX}never> <{EX}p> ?o }}",
        f"SELECT ?s WHERE {{ GRAPH <urn:vg:version:9> {{ ?s <{EX}p> ?o }} }}",
        f"SELECT ?s WHERE {{ GRAPH <urn:other:graph> {{ ?s <{EX}p> ?o }} }}",
    ]
    for text in queries:
        q = parse_query(text)
        for evaluate in BOTH:
            assert evaluate(store, dag, q).rows == []


def test_version_domain_is_validated():
    store, dag = empty_match_store()
    q = parse_query("SELECT ?v WHERE { GRAPH ?v { ?s ?p ?o } }")
    for evaluate in BOTH:
        with pytest.raises(ValueError):
            evaluate(store, dag, q, version_domain="everything")


def test_empty_graph_block_ranges_over_the_domain():
    rng = random.Random(8)
    store, dag = random_repo(rng)
    q = parse_query("SELECT ?v WHERE { GRAPH ?v { } }")
    all_rows = [(Iri(version_iri(v)),) for v in range(store.n_versions)]
    head_rows = sorted(
        ((Iri(version_iri(v)),) for v in dag.heads()),
        key=lambda r: format_term(r[0]),
    )
    for evaluate in BOTH:
        assert evaluate(store, dag, q).rows == all_rows
        assert evaluate(store, dag, q, version_domain="heads").rows == head_rows


def test_empty_store_yields_empty_tables():
    store, dag = AnnotatedStore(), VersionDag()
    for text in (
        "SELECT ?v WHERE { GRAPH ?v { ?s ?p ?o } }",
        "SELECT ?v WHERE { GRAPH ?v { } }",
        "SELECT ?s WHERE { ?s ?p ?o }",
    ):
        q = parse_query(text)
        for evaluate in BOTH:
            table = evaluate(store, dag, q)
            assert table.rows == []


def test_repeated_variable_matches_reflexive_triples_only():
    store, dag = AnnotatedStore(), VersionDag()
    d = store.dictionary
    loop = Iri(EX + "loop")
    triples = {
        d.triple(loop, Iri(EX + "p"), loop),
        d.triple(Iri(EX + "a"), Iri(EX + "p"), Iri(EX + "b")),
    }
    store.apply_commit(dag, [], "main", Delta(frozenset(triples), frozenset()))
    q = parse_query(f"SELECT ?x WHERE {{ ?x <{EX}p> ?x }}")
    for evaluate in BOTH:
        assert evaluate(store, dag, q).rows == [(loop,)]


def test_patterns_outside_graph_see_the_main_head():
    store, dag = city()
    q = parse_query(f"SELECT ?a WHERE {{ <{EX}st1> <{EX}accessible> ?a }}")
    for evaluate in BOTH:
        assert evaluate(store, dag, q).rows == [
            (Literal("true", XSD + "boolean"),),
        ]


# --- result formatting ----------------------------------------------------


def test_format_results_empty_table_is_header_only():
    table = SolutionTable(("v",), [])
    assert format_results(table, "tsv") == "?v\n"
    # CSV headers are bare names, following the usual results conventions
    assert format_results(table, "csv") == "v\r\n"


def test_format_results_tsv_uses_term_syntax():
    table = SolutionTable(
        ("v", "n"),
        [("<urn:vg:version:3>", f'"2"^^<{XSD_INTEGER}>')],
    )
    out = format_results(table, "tsv")
    assert out == (
        "?v\t?n\n"
        f'<urn:vg:version:3>\t"2"^^<{XSD_INTEGER}>\n'
    )


def test_format_results_csv_uses_lexical_forms_and_crlf():
    table = SolutionTable(
        ("v", "label"),
        [("<urn:vg:version:3>", '"say \\"hi\\",\\nok"')],
    )
    out = format_results(table, "csv")
    assert out == 'v,label\r\nurn:vg:version:3,"say ""hi"",\nok"\r\n'


def test_format_results_is_deterministic():
    store, dag = city()
    table = eval_annotated(store, dag, parse_query(ACCESSIBLE_Q))
    assert format_results(table, "tsv") == format_results(table, "tsv")


def test_format_results_rejects_unknown_format():
    with pytest.raises(ValueError):
        format_results(SolutionTable(("v",), []), "xml")


def test_a_table_is_its_texts():
    """Tables of equal headers and texts are equal, however the texts were
    made, and rows reads the texts back; other texts give another table."""
    row = (Iri("urn:vg:version:3"), Literal("2", XSD_INTEGER))
    texts = [("<urn:vg:version:3>", f'"2"^^<{XSD_INTEGER}>')]
    table = SolutionTable(("v", "n"), texts)
    assert table == SolutionTable(("v", "n"), [tuple(map(format_term, row))])
    assert table.rows == [row]
    assert repr(table) == f"SolutionTable(header=('v', 'n'), texts={texts!r})"
    assert table != SolutionTable(("v", "n"), [("<urn:vg:version:3>", '"2"')])
    assert table != SolutionTable(("v", "m"), texts)


def assert_texts_are_the_rows_serialized(table: SolutionTable) -> None:
    """The finish's texts are its rows' serializations, and formatting the
    table equals formatting a table built from its rows' serializations."""
    assert table.texts == [tuple(map(format_term, r)) for r in table.rows]
    rebuilt = SolutionTable(table.header, [tuple(map(format_term, r)) for r in table.rows])
    for fmt in ("tsv", "csv"):
        assert format_results(table, fmt) == format_results(rebuilt, fmt)


@pytest.fixture(scope="module")
def branchy_stores():
    """A small branching history with churn, generated in each encoding."""
    params = ScenarioParams(buildings=30, stations=6, versions=24,
                            branch_prob=0.3, churn=0.1, seed=7)
    return [generate(params, None, encoding) for encoding in ENCODING_NAMES]


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_the_finish_s_texts_format_as_its_rows_on_the_bench_queries(branchy_stores, qid):
    text, domain = QUERIES[qid]
    q = parse_query(text)
    for store, dag in branchy_stores:
        for evaluate in BOTH:
            table = evaluate(store, dag, q, version_domain=domain)
            assert table.rows
            assert_texts_are_the_rows_serialized(table)


def test_tsv_formatting_reads_no_text_back(branchy_stores, monkeypatch):
    """The finish builds no term: with read_term failing, every bench query
    formats as TSV byte for byte as before, in both evaluators.  MIN and MAX
    read each candidate's value key through read_term once per dictionary,
    and the first evaluation of each store has read them."""
    cases = [(store, dag, evaluate, parse_query(text), domain)
             for store, dag in branchy_stores for evaluate in BOTH
             for text, domain in QUERIES.values()]
    before = [format_results(evaluate(store, dag, q, version_domain=domain), "tsv")
              for store, dag, evaluate, q, domain in cases]

    def refuse(text):
        raise AssertionError(f"read back: {text}")

    monkeypatch.setattr(vgstore.engine, "read_term", refuse)
    after = [format_results(evaluate(store, dag, q, version_domain=domain), "tsv")
             for store, dag, evaluate, q, domain in cases]
    assert after == before


def test_the_finish_s_texts_format_as_its_rows_on_repeats_counts_and_escapes():
    store, dag = city()
    where = f"WHERE {{ GRAPH ?v {{ ?st <{EX}accessible> ?a }} }}"
    cases = [
        # the unread ?v repeats (st1, true), which holds in v0 and v2
        (f"SELECT ?st ?a {where}", 3),
        (f"SELECT ?a (COUNT(?st) AS ?n) {where} GROUP BY ?a", 2),
    ]
    for text, n_rows in cases:
        for evaluate in BOTH:
            table = evaluate(store, dag, parse_query(text))
            assert len(table.rows) == n_rows, text
            assert_texts_are_the_rows_serialized(table)
    # a blank node, a language-tagged literal and a literal with escapes
    store, dag = AnnotatedStore(), VersionDag()
    d = store.dictionary
    p = Iri(EX + "p")
    objects = [BlankNode("b1"), Literal("gare", lang="fr"), Literal('a "q"\tb\\c\nd')]
    added = frozenset(d.triple(Iri(f"{EX}s{i}"), p, o) for i, o in enumerate(objects))
    store.apply_commit(dag, [], "main", Delta(added, frozenset()))
    q = parse_query(f"SELECT ?v ?s ?o WHERE {{ GRAPH ?v {{ ?s <{EX}p> ?o }} }}")
    for evaluate in BOTH:
        table = evaluate(store, dag, q)
        assert {row[2] for row in table.rows} == set(objects)
        assert_texts_are_the_rows_serialized(table)


# --- multiplicity of an unread version variable ---------------------------


def test_an_unread_version_variable_multiplies_rows_and_counts():
    """st1's accessible value is true in v0 and v2, false in v1."""
    store, dag = city()
    st1 = Iri(EX + "st1")
    true, false = Literal("true", XSD + "boolean"), Literal("false", XSD + "boolean")
    where = f"WHERE {{ GRAPH ?v {{ ?st <{EX}accessible> ?a }} }}"
    cases = {
        f"SELECT ?st ?a {where}": [(st1, false), (st1, true), (st1, true)],
        f"SELECT DISTINCT ?st ?a {where}": [(st1, false), (st1, true)],
        f"SELECT (COUNT(?a) AS ?n) {where}": [(Literal("3", XSD_INTEGER),)],
        f"SELECT ?a (COUNT(?st) AS ?n) {where} GROUP BY ?a": [
            (false, Literal("1", XSD_INTEGER)),
            (true, Literal("2", XSD_INTEGER)),
        ],
        f"SELECT (MIN(?a) AS ?m) (MAX(?a) AS ?x) {where}": [(false, true)],
    }
    for text, expected in cases.items():
        for evaluate in BOTH:
            assert evaluate(store, dag, parse_query(text)).rows == expected, text


# --- cost model: what expansion and formatting build ---------------------


def wide_store(n_versions: int, n_subjects: int):
    """v0 holds n_subjects <sI> <p> "oI mod 10"; each later version adds one filler triple."""
    store, dag = AnnotatedStore(), VersionDag()
    d = store.dictionary
    p = Iri(EX + "p")
    base = frozenset(
        d.triple(Iri(f"{EX}s{i}"), p, Literal(f"o{i % 10}")) for i in range(n_subjects)
    )
    store.apply_commit(dag, [], "main", Delta(base, frozenset()))
    for v in range(1, n_versions):
        filler = d.triple(Iri(f"{EX}t{v}"), Iri(EX + "q"), Literal("x"))
        store.apply_commit(dag, [v - 1], "main", Delta(frozenset({filler}), frozenset()))
    return store, dag


def count_calls(monkeypatch, module, name: str) -> list:
    """Record the arguments of every call to module.name from now on."""
    calls = []
    original = getattr(module, name)

    def counted(arg):
        calls.append(arg)
        return original(arg)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "select",
    [
        "SELECT DISTINCT ?s",
        "SELECT ?s ?o",
        "SELECT (COUNT(?s) AS ?n)",
        "SELECT ?o (COUNT(?s) AS ?n)",
        "SELECT (MAX(?o) AS ?m)",
    ],
)
def test_a_query_that_never_reads_its_version_variable_builds_no_version_iri(
    monkeypatch, select
):
    import vgstore.engine

    store, dag = wide_store(30, 20)
    group = " GROUP BY ?o" if "?o (" in select else ""
    q = parse_query(f"{select} WHERE {{ GRAPH ?v {{ ?s <{EX}p> ?o }} }}{group}")
    expected = eval_checkout(store, dag, q)
    built = count_calls(monkeypatch, vgstore.engine, "version_iri")
    assert eval_annotated(store, dag, q) == expected
    assert built == []


def test_a_projected_version_variable_builds_one_iri_per_version(monkeypatch):
    import vgstore.engine

    store, dag = wide_store(30, 20)
    q = parse_query(f"SELECT ?v ?s WHERE {{ GRAPH ?v {{ ?s <{EX}p> ?o }} }}")
    built = count_calls(monkeypatch, vgstore.engine, "version_iri")
    table = eval_annotated(store, dag, q)
    assert len(table.rows) == 30 * 20
    assert sorted(built) == list(range(30))


@pytest.mark.parametrize("select", ["SELECT ?v ?s ?o", "SELECT ?s ?o"])
def test_sorting_and_formatting_20000_rows_serializes_each_term_once(monkeypatch, select):
    """Each data term was serialized once, when the dictionary interned it:
    evaluating and formatting read those texts, and make only the text that
    looks up the query's constant."""
    import vgstore.ntriples
    import vgstore.terms

    store, dag = wide_store(100, 200)
    q = parse_query(f"{select} WHERE {{ GRAPH ?v {{ ?s <{EX}p> ?o }} }}")
    serialized = [count_calls(monkeypatch, module, "term_text")
                  for module in (vgstore.terms, vgstore.ntriples)]
    text = format_results(eval_annotated(store, dag, q))
    assert text.count("\n") == 1 + 20_000
    # a version's text is made without term_text
    assert serialized == [[Iri(EX + "p")], []]
    if "?v" in select:
        column = {line.split("\t")[0] for line in text.splitlines()[1:]}
        assert column == {f"<urn:vg:version:{v}>" for v in range(100)}


@pytest.mark.parametrize(
    "condition,annotated_calls,checkout_calls",
    [
        # rows: 10.5 in versions 0 and 1, 12.0 in version 2, the only head;
        # ?h > 11.0 is tested on both candidate triples before a bare isHead
        # ranges ?v over the heads, and a checkout decides isHead(?v) before
        # it joins, so only version 2 compares
        ("isHead(?v) && ?h > 11.0", 2, 1),
        ("!isHead(?v) && ?h > 11.0", 2, 2),
        ("?h < 0 && ?h > 1", 2, 3),
        ("?h > 0 || ?h < 1", 2, 3),
    ],
)
def test_a_settled_left_operand_skips_the_right_one(
    monkeypatch, condition, annotated_calls, checkout_calls
):
    import vgstore.engine

    store, dag = city()
    q = parse_query(
        f"SELECT ?v ?h WHERE {{ GRAPH ?v {{ <{EX}b1> <{EX}height> ?h }} FILTER ({condition}) }}"
    )
    calls = []
    original = vgstore.engine.compare_keys

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(vgstore.engine, "compare_keys", counted)
    annotated = eval_annotated(store, dag, q)
    assert len(calls) == annotated_calls
    calls.clear()
    assert eval_checkout(store, dag, q) == annotated
    assert len(calls) == checkout_calls


@pytest.mark.parametrize("condition", ["?h > 11.0 && isHead(?v)", "isHead(?v) && ?h > 11.0"])
@pytest.mark.parametrize(
    "evaluate,domain",
    [(eval_annotated, "all"), (eval_annotated, "heads"),
     (eval_checkout, "all"), (eval_checkout, "heads")],
)
def test_a_comparison_runs_once_per_row_whatever_the_operand_order(
    monkeypatch, condition, evaluate, domain
):
    """?h > 11.0 is tested in the join step that binds ?h, once per candidate
    triple, whatever the operand order: on every height triple of the store
    in the annotated evaluator, and on each head's height triples in a
    checkout, which decides isHead(?v) before it joins."""
    import vgstore.engine

    store, dag = city()
    q = parse_query(
        f"SELECT ?v ?b ?h WHERE {{ GRAPH ?v {{ ?b <{EX}height> ?h }} FILTER ({condition}) }}"
    )
    expected = eval_checkout(store, dag, q, version_domain=domain)
    height = store.dictionary.lookup(Iri(EX + "height"))
    if evaluate is eval_annotated:
        candidates = len(list(store.match(None, height, None)))
    else:
        candidates = sum(t.p == height for v in dag.heads() for t in store.materialize(v))
    calls = []
    original = vgstore.engine.compare_keys

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(vgstore.engine, "compare_keys", counted)
    assert evaluate(store, dag, q, version_domain=domain) == expected
    assert expected.rows and candidates > 0
    assert len(calls) == candidates


def test_value_keys_are_made_once_per_term_id_and_constant(monkeypatch):
    """tall-buildings: one key per distinct height per dictionary, whatever
    the number of rows, versions, evaluations and evaluators, and one for
    100.0 per evaluation, made when the query is compiled."""
    import vgstore.engine
    from vgstore.bench import ScenarioParams, generate

    params = ScenarioParams(buildings=12, stations=3, versions=40, branch_prob=0.3, churn=0.1)
    store, dag = generate(params, None)
    ex = "http://ex.org/"
    query = parse_query(
        f"SELECT DISTINCT ?b WHERE {{ GRAPH ?v {{ ?b <{ex}height> ?h }} FILTER (?h > 100.0) }}"
    )
    height = store.dictionary.lookup(Iri(ex + "height"))
    heights = [store.dictionary.resolve(t.o) for t, _ in store.match(None, height, None)]
    constant = Literal("100.0", XSD + "decimal")
    made = count_calls(monkeypatch, vgstore.engine, "value_key")
    tables = [evaluate(store, dag, query) for _ in range(3) for evaluate in BOTH]
    assert all(table == tables[0] for table in tables) and tables[0].rows
    assert sorted(made, key=format_term) == sorted(
        list(dict.fromkeys(heights)) + [constant] * len(tables), key=format_term
    )


# --- random filters: both evaluators, both encodings, both domains -----------

_CUSTOM = "urn:dt:custom"
# the values ?o takes: numbers that tie, do not parse or are NaN, strings,
# tagged strings, a custom datatype, and an IRI
FILTER_OBJECTS = [
    Literal("1", XSD_INTEGER), Literal("01", XSD_INTEGER), Literal("2.5", XSD + "decimal"),
    Literal("NaN", XSD_DOUBLE), Literal("abc", XSD_INTEGER), Literal("abc"), Literal("b"),
    Literal("abc", lang="en"), Literal("b", lang="fr"), Literal("x", _CUSTOM),
    Literal("y", _CUSTOM), Iri(EX + "i"),
]
_FILTER_CONSTANTS = [format_term(o) for o in FILTER_OBJECTS if isinstance(o, Literal)] + ["1", "2.5"]


@functools.cache
def filter_stores():
    """v0 holds every object; v1 (main) and v2 (side) keep different halves,
    and v3 (main) adds some back: heads v2 and v3."""
    out = []
    for encoding in ("extension", "interval"):
        store, dag = AnnotatedStore(encoding=encoding), VersionDag()
        d = store.dictionary
        every = [d.triple(Iri(f"{EX}s{i % 3}"), Iri(EX + "p"), o) for i, o in enumerate(FILTER_OBJECTS)]
        store.apply_commit(dag, [], "main", Delta(frozenset(every), frozenset()))
        store.apply_commit(dag, [0], "main", Delta(frozenset(), frozenset(every[::2])))
        dag.create_branch("side", 0)
        store.apply_commit(dag, [0], "side", Delta(frozenset(), frozenset(every[1::2])))
        store.apply_commit(dag, [1], "main", Delta(frozenset(every[:4:2]), frozenset(every[1:6:2])))
        out.append((store, dag))
    return out


_P = f"<{EX}p>"
# shape -> (WHERE before the FILTER, WHERE after it, its data variables, its
# version variables); the FILTER reads only what the part before it binds,
# and its operands read variables bound at different join steps
FILTER_SHAPES = {
    "one-pattern": (f"GRAPH ?v {{ ?s {_P} ?o }}", "", ["?s", "?o"], ["?v"]),
    "two-patterns": (f"GRAPH ?v {{ ?s {_P} ?o . ?s {_P} ?x }}", "", ["?s", "?o", "?x"], ["?v"]),
    "main-first": (f"?s {_P} ?x GRAPH ?v {{ ?s {_P} ?o }}", "", ["?s", "?o", "?x"], ["?v"]),
    "two-blocks": (
        f"GRAPH ?v {{ ?s {_P} ?o }} GRAPH ?w {{ ?s {_P} ?x }}", "", ["?s", "?o", "?x"], ["?v", "?w"]
    ),
    "block-after": (f"GRAPH ?v {{ ?s {_P} ?o }}", f"GRAPH ?w {{ ?s {_P} ?x }}", ["?s", "?o"], ["?v"]),
}


@st.composite
def filter_queries(draw):
    """A query of one shape whose FILTER is drawn over the shape's variables,
    with or without a bare isHead operand in front."""
    before, after, data, versions = FILTER_SHAPES[draw(st.sampled_from(sorted(FILTER_SHAPES)))]
    comparisons = st.builds(
        lambda a, op, b, swap: f"{b} {op} {a}" if swap else f"{a} {op} {b}",
        st.sampled_from(data),
        st.sampled_from(["<", "<=", "=", "!=", ">=", ">"]),
        st.sampled_from(_FILTER_CONSTANTS + data),
        st.booleans(),
    )
    leaves = comparisons | st.sampled_from([f"isHead({v})" for v in versions])
    expr = draw(st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds("!({})".format, inner),
            st.builds("({} && {})".format, inner, inner),
            st.builds("({} || {})".format, inner, inner),
        ),
        max_leaves=5,
    ))
    required = draw(st.sampled_from([None, *versions]))
    if required:
        expr = f"isHead({required}) && {expr}"
    select = " ".join(dict.fromkeys(re.findall(r"\?\w+", before + after)))
    return f"SELECT {select} WHERE {{ {before} FILTER ({expr}) {after} }}"


@given(filter_queries())
@settings(max_examples=300, deadline=None)
def test_random_filters_agree_with_the_reference(text):
    """Each operand is tested where _place puts it: a bare isHead ranges its
    variable over the heads, an operand without isHead runs in the join step
    that binds its last variable, and the rest stay at the FILTER.  An
    operand tested before its variables are bound, or lost, shows here."""
    query = parse_query(text)
    for store, dag in filter_stores():
        for domain in ("all", "heads"):
            expected = ref_eval(store, dag, query, domain)
            for evaluate in BOTH:
                table = evaluate(store, dag, query, version_domain=domain)
                assert (table.header, table.rows) == expected


# --- isHead pushed below the join -----------------------------------------

_TRIPLE = "GRAPH ?v { ?s ?p ?o }"
PUSHDOWN_QUERIES = {
    # pushed: isHead(?v) is a top-level && operand
    "head-and-x": f"SELECT ?v ?s ?o WHERE {{ {_TRIPLE} FILTER (isHead(?v) && ?o > 1) }}",
    "x-and-head": f"SELECT ?v ?s ?o WHERE {{ {_TRIPLE} FILTER (?o > 1 && isHead(?v)) }}",
    "nested-and": (
        f"SELECT ?v ?s ?o WHERE {{ {_TRIPLE} FILTER ((isHead(?v) && ?o > 1) && ?o < 12.5) }}"
    ),
    # not pushed: isHead under || or !
    "head-or-x": f"SELECT ?v ?s ?o WHERE {{ {_TRIPLE} FILTER (isHead(?v) || ?o > 1) }}",
    "not-head": f"SELECT ?v ?s ?o WHERE {{ {_TRIPLE} FILTER (!isHead(?v)) }}",
    "not-head-and-x": (
        f"SELECT ?v ?s ?o WHERE {{ {_TRIPLE} FILTER (!(isHead(?v) && ?o > 1)) }}"
    ),
    # where ?v is introduced
    "empty-block": (
        "SELECT ?v ?s ?o WHERE { GRAPH ?v { } GRAPH ?v { ?s ?p ?o } "
        "FILTER (isHead(?v) && ?o != 2) }"
    ),
    "empty-block-only": (
        "SELECT ?v ?o WHERE { <urn:ex:s0> ?p ?o GRAPH ?v { } FILTER (isHead(?v) && ?o > 1) }"
    ),
    "two-blocks": (
        "SELECT ?v ?s ?x WHERE { GRAPH ?v { ?s ?p ?o } GRAPH ?v { ?x ?q ?o } "
        "FILTER (isHead(?v) && ?o >= 1) }"
    ),
    "second-var": (
        "SELECT ?v ?w ?s WHERE { GRAPH ?v { ?s ?p ?o } GRAPH ?w { ?s ?q ?y } "
        "FILTER (isHead(?w) && ?o > 1) }"
    ),
    "both-vars": (
        "SELECT ?v ?w (COUNT(?s) AS ?n) WHERE { GRAPH ?v { ?s ?p ?o } GRAPH ?w { ?s ?q ?y } "
        "FILTER (isHead(?v) && !isHead(?w)) } GROUP BY ?v ?w"
    ),
}


# the version variable each query requires at a head
PUSHED = {"head-and-x": "v", "x-and-head": "v", "nested-and": "v", "empty-block": "v",
          "empty-block-only": "v", "two-blocks": "v", "second-var": "w", "both-vars": "v"}


@pytest.mark.parametrize("qid", sorted(PUSHDOWN_QUERIES))
def test_ishead_push_down_keeps_the_checkout_result(monkeypatch, qid):
    """Rows that leave a join or reach the finish, in either evaluator, hold
    the required variable at heads only."""
    import vgstore.engine

    query = parse_query(PUSHDOWN_QUERIES[qid])
    reaching = []
    original_join, original_finish = vgstore.engine._join, vgstore.engine._finish

    def joining(*args):
        out = original_join(*args)
        reaching.extend(out)
        return out

    def finishing(rows, *args):
        reaching.extend(rows)
        return original_finish(rows, *args)

    monkeypatch.setattr(vgstore.engine, "_join", joining)
    monkeypatch.setattr(vgstore.engine, "_finish", finishing)
    seen_rows = pushed_rows = 0
    for seed in range(6):
        for encoding in ("extension", "interval"):
            store, dag = random_repo(random.Random(seed), encoding=encoding, max_versions=9)
            for domain in ("all", "heads"):
                reaching.clear()
                expected = eval_checkout(store, dag, query, version_domain=domain)
                assert eval_annotated(store, dag, query, version_domain=domain) == expected
                assert expected.rows == ref_eval(store, dag, query, domain)[1]
                seen_rows += len(expected.rows)
                if qid in PUSHED:
                    held = [vsets[PUSHED[qid]] for _, vsets in reaching if PUSHED[qid] in vsets]
                    assert all(set(vset) <= dag.heads() for vset in held)
                    pushed_rows += len(held)
    assert seen_rows > 0
    assert pushed_rows > 0 or qid not in PUSHED


@pytest.mark.parametrize("encoding", ["extension", "interval"])
def test_only_rows_alive_at_a_head_reach_the_ishead_filter(monkeypatch, encoding):
    """tall-at-heads: the bare isHead(?v) ranges ?v over the heads from its
    first pattern on, and ?h > 100.0 is tested in the second pattern's join
    before its intersection.  So the rows leaving the join are exactly the
    (building, height) pairs held at a head with a height over 100, the
    second pattern intersects once per candidate that passes the test, and
    nothing is left to the filter."""
    import vgstore.engine
    from vgstore.bench import ScenarioParams, generate
    from vgstore.versionsets import set_class

    params = ScenarioParams(buildings=12, stations=3, versions=40, branch_prob=0.3, churn=0.1)
    store, dag = generate(params, None, encoding=encoding)
    ex, rdf = "http://ex.org/", "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    query = parse_query(
        f"SELECT ?v ?b ?h WHERE {{ GRAPH ?v {{ ?b <{rdf}type> <{ex}Building> . "
        f"?b <{ex}height> ?h }} FILTER (isHead(?v) && ?h > 100.0) }}"
    )
    d = store.dictionary
    height = d.lookup(Iri(ex + "height"))
    heads = dag.heads()
    expected = eval_checkout(store, dag, query)
    joins, intersections, filtered = [], [], []
    original_join, original_filter = vgstore.engine._join, vgstore.engine._ann_filter

    def joining(*args):
        intersections.append(0)
        out = original_join(*args)
        joins.append(out)
        return out

    cls = set_class(encoding)
    original_intersect = cls.__dict__["intersect"]

    def intersect(self, other):
        intersections[-1] += 1
        return original_intersect(self, other)

    monkeypatch.setattr(vgstore.engine, "_join", joining)
    monkeypatch.setattr(vgstore.engine, "_ann_filter", lambda *args: filtered.append(args))
    monkeypatch.setattr(cls, "intersect", intersect)
    assert eval_annotated(store, dag, query) == expected
    assert len(joins) == 2 and filtered == []

    def pairs(versions):
        """(building, height) id pairs held, with the building's type, at some version."""
        out = set()
        for v in versions:
            graph = store.materialize(v)
            typed = {t.s for t in graph if d.resolve(t.o) == Iri(ex + "Building")}
            out |= {(t.s, t.o) for t in graph if t.s in typed and t.p == height}
        return out

    def tall(pair):
        return float(d.resolve(pair[1]).lex) > 100.0

    at_heads = pairs(heads)
    assert len(at_heads) < len(pairs(range(store.n_versions)))
    assert {pair for pair in at_heads if tall(pair)} < at_heads
    leaving = sorted((env["b"], env["h"]) for env, _ in joins[-1])
    assert leaving == sorted(pair for pair in at_heads if tall(pair))
    for _, vsets in joins[-1]:
        assert vsets["v"] and set(vsets["v"]) <= heads
    passing = [(env["b"], t.o) for env, _ in joins[0]
               for t, _ in store.match(env["b"], height, None) if tall((env["b"], t.o))]
    assert intersections[1] == len(passing) < sum(1 for _ in store.match(None, height, None))


_HEADS_DOMAIN_SPLITS = {
    "inaccessible-or-old": (
        "SELECT ?v ?st WHERE { GRAPH ?v { ?st <http://ex.org/accessible> ?a } "
        "FILTER (!(?a = true) || !isHead(?v)) }"
    ),
    "head-or-tall": (
        "SELECT ?v ?b WHERE { GRAPH ?v { ?b <http://ex.org/height> ?h } "
        "FILTER (isHead(?v) || ?h > 100.0) }"
    ),
    "not-head-or-short": (
        "SELECT ?v ?b ?h WHERE { GRAPH ?v { ?b <http://ex.org/height> ?h } "
        "FILTER (!isHead(?v) || ?h < 50.0) }"
    ),
}


@pytest.mark.parametrize("qid", sorted(_HEADS_DOMAIN_SPLITS))
@pytest.mark.parametrize("encoding", ["extension", "interval"])
def test_the_heads_domain_builds_only_the_head_set(monkeypatch, encoding, qid):
    """In the heads domain every version variable ranges over the heads, so
    an isHead under || or ! splits no row and the non-head set is never
    built: one from_iterable per evaluation, the head set's."""
    from vgstore.versionsets import set_class

    params = ScenarioParams(buildings=12, stations=6, versions=40, branch_prob=0.3, churn=0.2)
    store, dag = generate(params, None, encoding=encoding)
    assert len(dag.heads()) > 1
    query = parse_query(_HEADS_DOMAIN_SPLITS[qid])
    expected = eval_checkout(store, dag, query, version_domain="heads")
    assert expected.rows

    cls = set_class(encoding)
    original = cls.__dict__["from_iterable"].__func__
    built = []

    def counting(klass, members):
        out = original(klass, members)
        built.append(out)
        return out

    monkeypatch.setattr(cls, "from_iterable", classmethod(counting))
    assert eval_annotated(store, dag, query, version_domain="heads") == expected
    assert [set(b) for b in built] == [dag.heads()]


def test_the_non_head_set_is_built_once_per_evaluation(monkeypatch):
    """Two FILTERs split rows around isHead(?v) in the all domain: each
    evaluation builds the head and the non-head set once, shared by both
    FILTERs, and a commit that changes the heads and the version count is
    seen by the next evaluation."""
    from vgstore.versionsets import set_class

    store, dag = random_repo(random.Random(3), encoding="extension", max_versions=9)
    query = parse_query(
        f"SELECT ?v ?s ?o WHERE {{ {_TRIPLE} FILTER (isHead(?v) || ?o > 1) "
        "FILTER (!isHead(?v) || ?o < 12.5) }"
    )
    cls = set_class("extension")
    original = cls.__dict__["from_iterable"].__func__
    built = []

    def counting(klass, members):
        out = original(klass, members)
        built.append(set(out))
        return out

    monkeypatch.setattr(cls, "from_iterable", classmethod(counting))

    def evaluate_twice():
        for _ in range(2):
            expected = eval_checkout(store, dag, query)
            built.clear()
            assert eval_annotated(store, dag, query) == expected
            assert expected.rows
            non_head = set(range(store.n_versions)) - dag.heads()
            assert non_head and sorted(built, key=sorted) == sorted(
                [dag.heads(), non_head], key=sorted)

    evaluate_twice()
    head = dag.branch_head("main")
    filler = store.dictionary.triple(Iri(EX + "new"), Iri(EX + "p"), Literal("7", XSD_INTEGER))
    store.apply_commit(dag, [head], "main", Delta(frozenset({filler}), frozenset()))
    evaluate_twice()


def test_an_empty_graph_block_builds_the_every_version_set_once_per_evaluation(monkeypatch):
    """GRAPH ?v { } ranges ?v over every version in the all domain: two
    empty blocks share that set, built once per evaluation, and a commit
    that adds a version is seen by the next evaluation."""
    from vgstore.versionsets import set_class

    store, dag = wide_store(30, 2)
    query = parse_query("SELECT ?v ?w WHERE { GRAPH ?v { } GRAPH ?w { } }")
    cls = set_class(store.encoding)
    original = cls.__dict__["from_iterable"].__func__
    built = []

    def counting(klass, members):
        out = original(klass, members)
        built.append(set(out))
        return out

    monkeypatch.setattr(cls, "from_iterable", classmethod(counting))
    every = [Iri(version_iri(v)) for v in range(30)]
    for _ in range(3):
        built.clear()
        table = eval_annotated(store, dag, query)
        assert set(table.rows) == set(itertools.product(every, every))
        assert len(table.rows) == 900
        assert built == [set(range(30))]
    filler = store.dictionary.triple(Iri(EX + "new"), Iri(EX + "p"), Literal("7", XSD_INTEGER))
    store.apply_commit(dag, [29], "main", Delta(frozenset({filler}), frozenset()))
    for _ in range(3):
        expected = eval_checkout(store, dag, query)
        built.clear()
        assert eval_annotated(store, dag, query) == expected
        assert built == [set(range(31))]


# --- the per-dictionary constants -----------------------------------------


def test_a_term_committed_after_a_query_is_keyed_by_the_next_one():
    """A term and a version that the dictionary's constants have not seen
    yet get their key, text and Iri on the next query."""
    store, dag = city()
    queries = [parse_query(text) for text in (
        f"SELECT ?v ?h WHERE {{ GRAPH ?v {{ ?b <{EX}height> ?h }} FILTER (?h > 11.0) }}",
        f"SELECT ?v (MAX(?h) AS ?m) WHERE {{ GRAPH ?v {{ ?b <{EX}height> ?h }} }} GROUP BY ?v",
    )]
    before = [eval_annotated(store, dag, q) for q in queries]
    assert before == [eval_checkout(store, dag, q) for q in queries]
    tall = Literal("99.5", XSD + "decimal")
    added = store.dictionary.triple(Iri(EX + "b2"), Iri(EX + "height"), tall)
    store.apply_commit(dag, [2], "main", Delta(frozenset({added}), frozenset()))
    after = [eval_annotated(store, dag, q) for q in queries]
    assert after == [eval_checkout(store, dag, q) for q in queries]
    v3 = Iri(version_iri(3))
    assert after[0].rows == before[0].rows + [(v3, Literal("12.0", XSD + "decimal")), (v3, tall)]
    assert after[1].rows[-1] == (v3, tall)
    for table in after:
        assert_texts_are_the_rows_serialized(table)


@pytest.mark.parametrize("encoding", ["extension", "interval"])
def test_queries_after_a_repack_equal_the_checkout(encoding):
    """repack keeps the dictionary and renumbers the versions: the kept
    constants stay right, and each evaluation's version sets follow the new
    heads."""
    from vgstore.store import repack

    params = ScenarioParams(buildings=12, stations=6, versions=30, branch_prob=0.3, churn=0.2)
    store, dag = generate(params, None, encoding=encoding)
    queries = [*QUERIES.values(), *((text, "all") for text in _HEADS_DOMAIN_SPLITS.values()),
               *((text, "heads") for text in _HEADS_DOMAIN_SPLITS.values())]
    parsed = [(parse_query(text), domain) for text, domain in queries]
    for query, domain in parsed:
        eval_annotated(store, dag, query, version_domain=domain)
    heads = dag.heads()
    mapping = repack(dag, store)
    assert {mapping[v] for v in heads} == dag.heads() != heads
    for query, domain in parsed:
        expected = eval_checkout(store, dag, query, version_domain=domain)
        assert eval_annotated(store, dag, query, version_domain=domain) == expected
        assert expected.rows


def test_eight_threads_evaluating_one_query_on_one_store_return_equal_tables():
    """The threads fill one dictionary's constants at once, each building
    its own version sets; a race makes an equal value twice, never a wrong
    one."""
    import threading
    from concurrent.futures import ThreadPoolExecutor

    params = ScenarioParams(buildings=30, stations=6, versions=40, branch_prob=0.3, churn=0.1)
    store, dag = generate(params, None)
    query = parse_query(
        "SELECT ?v ?b (MAX(?h) AS ?m) WHERE { GRAPH ?v { ?b <http://ex.org/height> ?h } "
        "FILTER (?h > 100.0 || !isHead(?v)) } GROUP BY ?v ?b"
    )
    start = threading.Barrier(8, timeout=60)

    def evaluate(_):
        start.wait()
        return eval_annotated(store, dag, query)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the fills
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            tables = list(pool.map(evaluate, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(tables) == 8
    expected = eval_checkout(store, dag, query)
    assert expected.rows
    for table in tables:
        assert table == expected and table.texts == expected.texts


def test_a_dictionary_s_constants_do_not_keep_it_alive():
    """The constants are kept per dictionary, not for good: a store that is
    dropped after a query frees its dictionary and its constants."""
    import weakref

    import vgstore.engine

    store, dag = city()
    q = parse_query(
        f"SELECT ?v (MAX(?h) AS ?m) WHERE {{ GRAPH ?v {{ ?b <{EX}height> ?h }} "
        f"FILTER (?h > 1 || !isHead(?v)) }} GROUP BY ?v"
    )
    assert eval_annotated(store, dag, q).rows
    dictionary = weakref.ref(store.dictionary)
    constants = weakref.ref(vgstore.engine._CONSTANTS[store.dictionary])
    del store
    gc.collect()
    assert dictionary() is None and constants() is None


def test_a_pattern_constant_is_looked_up_once_per_evaluation_and_an_absent_one_again():
    """The checkout joins once per version, yet looks each constant up once;
    a constant absent from the dictionary matches once a commit interns it."""
    from unittest import mock

    from vgstore.terms import Dictionary

    store, dag = city()
    query = parse_query(
        f'SELECT ?v ?b WHERE {{ GRAPH ?v {{ ?b <{EX}height> ?h . ?b <{EX}note> "new" }} }}'
    )
    lookup = mock.patch.object(Dictionary, "lookup", autospec=True, side_effect=Dictionary.lookup)
    for evaluate in BOTH:
        with lookup as calls:
            assert evaluate(store, dag, query).texts == []
        assert calls.call_count == 3
    d = store.dictionary
    note = d.triple(Iri(EX + "b1"), Iri(EX + "note"), Literal("new"))
    head = dag.branch_head("main")
    seq = store.apply_commit(dag, [head], "main", Delta(frozenset({note}), frozenset()))
    for evaluate in BOTH:
        assert evaluate(store, dag, query).texts == [(f"<{version_iri(seq)}>", f"<{EX}b1>")]
