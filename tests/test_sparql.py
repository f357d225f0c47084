"""Query parser: grammar, prefix handling, positions, validation rules."""

import pytest
from hypothesis import given, settings, strategies as st

from vgstore import BlankNode, Iri, Literal, QueryError, ValidationError
from vgstore.ntriples import parse_statement
from vgstore.sparql import (
    Aggregate,
    And,
    Comparison,
    Filter,
    GraphBlock,
    IsHead,
    Not,
    Or,
    TriplePattern,
    Var,
    parse_query,
)
from vgstore.terms import RDF_TYPE, XSD_BOOLEAN, XSD_DECIMAL, XSD_INTEGER, term_text

from helpers import INVALID_CONSTANTS, statement_lines

Q1_SKELETON = 'SELECT ?v WHERE { GRAPH ?v { ?s <http://ex.org/accessible> "true" } }'

Q2 = (
    "PREFIX ex: <http://ex.org/> "
    "SELECT (MAX(?h) AS ?m) WHERE { GRAPH ?v { ex:b1 ex:height ?h } }"
)


def test_minimal_version_query_shape():
    q = parse_query(Q1_SKELETON)
    assert q.select.items == (Var("v"),)
    assert not q.select.distinct
    assert len(q.where) == 1
    block = q.where[0]
    assert isinstance(block, GraphBlock)
    assert block.name == Var("v")
    assert block.patterns == (
        TriplePattern(Var("s"), Iri("http://ex.org/accessible"), Literal("true")),
    )
    assert q.version_vars() == {"v"}


def test_missing_closing_brace_has_position():
    with pytest.raises(QueryError) as exc:
        parse_query("SELECT ?v WHERE { GRAPH ?v { ")
    assert "missing closing '}'" in str(exc.value)
    assert exc.value.line == 1
    assert exc.value.col is not None
    # ends after a pattern instead: still a positioned syntax error
    with pytest.raises(QueryError) as exc:
        parse_query("SELECT ?v WHERE { GRAPH ?v { ?s ?p ?o ")
    assert exc.value.line == 1 and exc.value.col is not None


def test_aggregate_query_shape():
    q = parse_query(Q2)
    assert q.prefixes == (("ex", "http://ex.org/"),)
    (item,) = q.select.items
    assert item == Aggregate("MAX", Var("h"), Var("m"))
    block = q.where[0]
    assert block.patterns[0].s == Iri("http://ex.org/b1")
    assert block.patterns[0].p == Iri("http://ex.org/height")


def test_prefix_expansion_and_unknown_prefix():
    q = parse_query(
        "PREFIX a: <urn:one#> PREFIX b: <urn:two#> "
        "SELECT ?x WHERE { ?x a:p b:q }"
    )
    pattern = q.where[0]
    assert pattern.p == Iri("urn:one#p")
    assert pattern.o == Iri("urn:two#q")
    with pytest.raises(QueryError, match="unknown prefix"):
        parse_query("SELECT ?x WHERE { ?x ex:p ?y }")


def test_a_shorthand_expands_to_rdf_type():
    q = parse_query("SELECT ?x WHERE { ?x a <urn:C> }")
    assert q.where[0].p == Iri(RDF_TYPE)
    with pytest.raises(QueryError):
        parse_query("SELECT ?x WHERE { a <urn:p> ?x }")


def test_bare_numbers_and_booleans():
    q = parse_query(
        "SELECT ?x WHERE { ?x <urn:p> 5 . ?x <urn:q> 2.5 . ?x <urn:r> true }"
    )
    objects = [p.o for p in q.where]
    assert objects == [
        Literal("5", XSD_INTEGER),
        Literal("2.5", XSD_DECIMAL),
        Literal("true", XSD_BOOLEAN),
    ]


def test_typed_and_tagged_literals():
    q = parse_query(
        "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
        'SELECT ?x WHERE { ?x <urn:p> "1"^^xsd:integer . ?x <urn:q> "hi"@en-US }'
    )
    assert q.where[0].o == Literal("1", XSD_INTEGER)
    assert q.where[1].o == Literal("hi", lang="en-US")


def test_blank_nodes_are_shared_nondistinguished_variables():
    q = parse_query("SELECT ?x WHERE { _:n <urn:p> ?x . _:n <urn:q> _:m }")
    first, second = q.where
    assert isinstance(first.s, Var) and first.s == second.s
    assert isinstance(second.o, Var) and second.o != first.s
    with pytest.raises(QueryError):
        parse_query("SELECT ?x WHERE { ?x _:n ?y }")


def test_filter_expression_precedence():
    q = parse_query(
        "SELECT ?x WHERE { ?x <urn:p> ?y . ?x <urn:q> ?z "
        "FILTER (?y < 5 || ?z > 2 && !(?y = ?z)) }"
    )
    expr = q.where[-1].expr
    # && binds tighter than ||
    assert isinstance(expr, Or)
    assert isinstance(expr.lhs, Comparison)
    assert isinstance(expr.rhs, And)
    assert isinstance(expr.rhs.rhs, Not)


def test_filter_ishead_is_case_insensitive():
    for spelling in ("isHead", "ISHEAD", "ishead"):
        q = parse_query(
            "SELECT ?v WHERE { GRAPH ?v { ?s ?p ?o } FILTER " f"({spelling}(?v)) }}"
        )
        assert q.where[-1].expr == IsHead(Var("v"))


def test_keywords_are_case_insensitive():
    q = parse_query("select distinct ?x where { ?x <urn:p> ?y }")
    assert q.select.distinct
    assert q.select.items == (Var("x"),)


def test_where_keyword_is_optional():
    q = parse_query("SELECT ?x { ?x <urn:p> ?y }")
    assert len(q.where) == 1


def test_trailing_dot_is_tolerated():
    q = parse_query("SELECT ?x WHERE { ?x <urn:p> ?y . }")
    assert len(q.where) == 1
    q = parse_query("SELECT ?v WHERE { GRAPH ?v { ?x <urn:p> ?y . } }")
    assert len(q.where[0].patterns) == 1


def test_missing_dot_between_patterns_is_an_error():
    with pytest.raises(QueryError, match="'\\.'"):
        parse_query("SELECT ?x WHERE { ?x <urn:p> ?y ?x <urn:q> ?z }")


def test_comments_are_skipped():
    q = parse_query(
        "# leading note\nSELECT ?x # inline\nWHERE { ?x <urn:p> ?y } # done"
    )
    assert q.select.items == (Var("x"),)


def test_empty_graph_block_parses():
    q = parse_query("SELECT ?v WHERE { GRAPH ?v { } }")
    block = q.where[0]
    assert isinstance(block, GraphBlock) and block.patterns == ()
    assert q.version_vars() == {"v"}


def test_graph_with_concrete_version_iri():
    q = parse_query("SELECT ?s WHERE { GRAPH <urn:vg:version:3> { ?s ?p ?o } }")
    assert q.where[0].name == Iri("urn:vg:version:3")
    assert q.version_vars() == set()


def test_group_by_parses():
    q = parse_query(
        "SELECT ?g (COUNT(?x) AS ?n) WHERE { ?g <urn:p> ?x } GROUP BY ?g"
    )
    assert q.select.group_by == (Var("g"),)
    assert q.select.items[0] == Var("g")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("SELECT ?v WHERE { GRAPH ?v { ?v <urn:p> ?o } }", "data variable"),
        (
            "SELECT ?v WHERE { GRAPH ?v { ?s ?p ?o } FILTER (?v < 3) }",
            "comparison",
        ),
        ("SELECT ?x WHERE { ?x <urn:p> ?o FILTER (isHead(?x)) }", "version variable"),
        ("SELECT ?x WHERE { FILTER (?x < 3) ?x <urn:p> ?o }", "before"),
        (
            "SELECT ?x WHERE { FILTER (isHead(?v)) GRAPH ?v { ?x <urn:p> ?o } }",
            "before",
        ),
        ("SELECT ?nope WHERE { ?x <urn:p> ?o }", "never appears"),
        ("SELECT (COUNT(?nope) AS ?n) WHERE { ?x <urn:p> ?o }", "never appears"),
        ("SELECT ?x ?x WHERE { ?x <urn:p> ?o }", "duplicate"),
        (
            "SELECT (COUNT(?x) AS ?n) (MIN(?x) AS ?n) WHERE { ?x <urn:p> ?o }",
            "duplicate",
        ),
        ("SELECT (COUNT(?x) AS ?o) WHERE { ?x <urn:p> ?o }", "collides"),
        ("SELECT ?x WHERE { ?x <urn:p> ?o } GROUP BY ?x", "aggregate"),
        (
            "SELECT ?o (COUNT(?x) AS ?n) WHERE { ?x <urn:p> ?o } GROUP BY ?x",
            "GROUP BY",
        ),
        (
            "SELECT (COUNT(?x) AS ?n) WHERE { ?x <urn:p> ?o } GROUP BY ?zzz",
            "never appears",
        ),
    ],
)
def test_validation_rejections(text, fragment):
    with pytest.raises(QueryError, match=fragment):
        parse_query(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "SELECT",
        "SELECT WHERE { ?x <urn:p> ?o }",
        "SELECT ?x WHERE { }",
        "SELECT ?x WHERE { ?x <urn:p> }",
        "SELECT ?x WHERE { ?x <urn:p> ?o",
        "SELECT ?x WHERE { ?x <urn:p> ?o } trailing",
        "SELECT ?x WHERE { GRAPH { ?x <urn:p> ?o } }",
        'SELECT ?x WHERE { "lit" <urn:p> ?o }',
        'SELECT ?x WHERE { ?x <urn:p> "a\nb" }',
        "SELECT ?x WHERE { ?x <urn:p> ?o FILTER ?x }",
        "SELECT ?x WHERE { ?x <urn:p> ?o FILTER (?x <) }",
        "SELECT (COUNT ?x AS ?n) WHERE { ?x <urn:p> ?o }",
        "SELECT (SUM(?x) AS ?n) WHERE { ?x <urn:p> ?o }",
        "PREFIX ex <urn:x> SELECT ?x WHERE { ?x <urn:p> ?o }",
    ],
)
def test_syntax_rejections(text):
    with pytest.raises(QueryError):
        parse_query(text)


def test_errors_carry_line_and_column():
    with pytest.raises(QueryError) as exc:
        parse_query("SELECT ?x\nWHERE { ?x <urn:p> }")
    assert exc.value.line == 2


def test_version_variable_may_name_several_blocks():
    q = parse_query(
        "SELECT ?v WHERE { GRAPH ?v { ?x <urn:p> ?y } GRAPH ?v { ?x <urn:q> ?z } }"
    )
    assert q.version_vars() == {"v"}
    assert len(q.where) == 2


def test_filters_may_interleave_with_patterns():
    q = parse_query(
        "SELECT ?x WHERE { ?x <urn:p> ?y FILTER (?y > 1) ?x <urn:q> ?z "
        "FILTER (?z != ?y) }"
    )
    kinds = [type(e) for e in q.where]
    assert kinds == [TriplePattern, Filter, TriplePattern, Filter]


@pytest.mark.parametrize(
    "text,position",
    [pytest.param(text, position, id=name) for name, text, position in INVALID_CONSTANTS],
)
def test_a_constant_outside_the_term_grammar_is_a_positioned_error(text, position):
    with pytest.raises(QueryError) as exc:
        parse_query(text)
    assert (exc.value.line, exc.value.col) == position


@pytest.mark.parametrize(
    "text,cause,position",
    [
        pytest.param('SELECT ?s WHERE {\n ?s <urn:p> "a\ud800" }',
                     "lone surrogate U\\+D800", (2, 13), id="surrogate"),
        pytest.param('SELECT ?s WHERE { ?s <urn:p> "a\nb" }',
                     "raw line feed in a string", (1, 30), id="line-feed"),
        pytest.param('SELECT ?s WHERE { ?s <urn:p> "ab }',
                     "unterminated string", (1, 30), id="unterminated"),
    ],
)
def test_an_unreadable_string_names_its_cause(text, cause, position):
    with pytest.raises(QueryError, match=cause) as exc:
        parse_query(text)
    assert (exc.value.line, exc.value.col) == position


def test_constants_read_with_the_patch_term_grammar():
    q = parse_query(
        "PREFIX u: <urn:\\u0041:>\n"
        "SELECT ?s WHERE { ?s <urn:\\u0041> \"\\u00e9\\t\"@en . ?s u:b _:x . "
        '?s <urn:p> "1"^^<urn:\\U0001F600> }'
    )
    first, second, third = q.where
    assert first.p == Iri("urn:A") and first.o == Literal("é\t", lang="en")
    assert second.p == Iri("urn:A:b") and second.o == Var("_:x")
    assert third.o == Literal("1", "urn:\U0001F600")
    for bad in ("<urn:\\u004>", "<urn:\\uD800>", "<urn:\\n>", '"\\U00110000"'):
        with pytest.raises(QueryError):
            parse_query(f"SELECT ?s WHERE {{ ?s <urn:p> {bad} }}")


def test_a_tag_or_datatype_may_follow_a_string_after_a_space():
    q = parse_query(
        "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
        'SELECT ?s WHERE { ?s <urn:p> "a" @en . ?s <urn:q> "1" ^^ xsd:integer . '
        '?s <urn:r> "2" ^^<urn:dt> }'
    )
    assert [p.o for p in q.where] == [
        Literal("a", lang="en"),
        Literal("1", XSD_INTEGER),
        Literal("2", "urn:dt"),
    ]
    # but an annotated literal takes no second annotation
    with pytest.raises(QueryError):
        parse_query('SELECT ?s WHERE { ?s <urn:p> "a"@en ^^<urn:dt> }')
    with pytest.raises(QueryError):
        parse_query('SELECT ?s WHERE { ?s <urn:p> "a"^^<urn:dt> @en }')


# few of these lines parse as statements, hence the many examples
@given(statement_lines)
@settings(max_examples=1000)
def test_a_query_reads_the_terms_a_patch_statement_reads(line):
    try:
        terms = parse_statement(line)
    except ValidationError:
        return
    # parse_statement took the line up to its final ".", so the query can too
    body = line[: line.rindex(".") + 1]
    q = parse_query(f"SELECT ?q WHERE {{ ?q <urn:p> ?r . {body} }}")
    read = q.where[1]
    expected = [Var(f"_:{t.label}") if isinstance(t, BlankNode) else t for t in terms]
    assert [read.s, read.p, read.o] == expected


@given(st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))
def test_a_query_reads_every_literal_as_written(lex):
    for literal in (Literal(lex), Literal(lex, lang="en"), Literal(lex, "urn:dt")):
        q = parse_query(f"SELECT ?s WHERE {{ ?s <urn:p> {term_text(literal)} }}")
        assert q.where[0].o == literal
