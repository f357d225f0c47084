"""Line-based N-Triples reader/writer and blank label scoping."""

import sys

import pytest
from hypothesis import given, strategies as st

from vgstore import (
    BlankNode,
    Dictionary,
    Iri,
    Literal,
    ValidationError,
    format_term,
    format_triple,
    parse_ntriples,
    serialize_ntriples,
)
from vgstore import parse_patch
from vgstore.ntriples import BlankScope, parse_statement
from vgstore.terms import RDF_LANGSTRING, XSD_STRING, _escape_lex, term_text, validate_term

from helpers import statement_lines

XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"

iris = st.from_regex(r"urn:x:[a-z0-9]{1,8}", fullmatch=True).map(Iri)
blanks = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}", fullmatch=True).map(BlankNode)
lex = st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=12
)  # any scalar text, escaping must cope
literals = st.one_of(
    lex.map(Literal),
    st.tuples(lex, st.from_regex(r"urn:dt:[a-z]{1,5}", fullmatch=True)).map(
        lambda p: Literal(p[0], p[1])
    ),
    st.tuples(lex, st.from_regex(r"[a-z]{2}(-[A-Z]{2})?", fullmatch=True)).map(
        lambda p: Literal(p[0], RDF_LANGSTRING, p[1])
    ),
)
subjects = st.one_of(iris, blanks)
objects = st.one_of(iris, blanks, literals)
term_triples = st.lists(
    st.tuples(subjects, iris, objects), min_size=0, max_size=12, unique=True
)


def test_parse_single_typed_literal_statement():
    d = Dictionary()
    text = f'<http://ex.org/a> <http://ex.org/p> "1"^^<{XSD_INT}> .\n'
    triples = parse_ntriples(text, d)
    assert len(triples) == 1
    obj = d.resolve(triples[0].o)
    assert obj == Literal("1", XSD_INT)


def test_parse_empty_input():
    d = Dictionary()
    assert parse_ntriples("", d) == []
    assert len(d) == 0


def test_comments_and_blank_lines_are_skipped():
    d = Dictionary()
    text = "# a comment\n\n   \n<urn:a> <urn:b> <urn:c> .\n# trailing comment\n"
    assert len(parse_ntriples(text, d)) == 1


def test_error_carries_the_line_number():
    d = Dictionary()
    text = "<urn:a> <urn:b> <urn:c> .\n# fine\nnot a statement\n"
    with pytest.raises(ValidationError, match="line 3"):
        parse_ntriples(text, d)


def test_an_unterminated_string_is_named():
    with pytest.raises(ValidationError, match="line 2: unterminated string"):
        parse_ntriples('<urn:a> <urn:b> <urn:c> .\n<urn:a> <urn:b> "c .\n', Dictionary())


def test_failed_parse_is_all_or_nothing():
    d = Dictionary()
    d.intern(Iri("urn:pre:existing"))
    before = len(d)
    text = "<urn:a> <urn:b> <urn:c> .\n<urn:a> <urn:b> .\n"
    with pytest.raises(ValidationError, match="line 2"):
        parse_ntriples(text, d)
    assert len(d) == before


def test_escape_decoding():
    s, p, o = parse_statement(
        '<urn:s> <urn:p> "a\\tb\\nc\\"d\\\\e\\u0041\\U0001F600" .'
    )
    assert o == Literal('a\tb\nc"d\\eA\U0001F600')


def test_iri_escapes_decode_too():
    s, _, _ = parse_statement("<urn:x:\\u0041> <urn:p> <urn:o> .")
    assert s == Iri("urn:x:A")


def test_iriref_accepts_unicode_escapes_and_non_ascii():
    s, p, o = parse_statement("<urn:\\u0041> <urn:\\U00000041> <urn:A\u00e9\x7f> .")
    assert (s, p, o) == (Iri("urn:A"), Iri("urn:A"), Iri("urn:A\u00e9\x7f"))


@pytest.mark.parametrize("patch", [False, True])
def test_a_lone_surrogate_is_rejected_and_interns_nothing(patch):
    d = Dictionary()
    text = '<urn:a> <urn:b> <urn:c> .\n<urn:a> <urn:b> "\ud800" .\n'
    if patch:
        text = "".join(f"A {stmt}\n" for stmt in text.splitlines())
    with pytest.raises(ValidationError, match="line 2: lone surrogate U\\+D800"):
        (parse_patch if patch else parse_ntriples)(text, d)
    assert len(d) == 0


@pytest.mark.parametrize(
    "term", [Literal("a\ud800"), Literal("\udfff", lang="en"), Iri("urn:\udc00")]
)
def test_the_dictionary_refuses_lone_surrogates(term):
    d = Dictionary()
    with pytest.raises(ValidationError):
        validate_term(term)
    with pytest.raises(ValidationError):
        d.intern(term)
    assert len(d) == 0


@pytest.mark.parametrize(
    "line",
    [
        '<urn:s> <urn:p> "bad\\x" .',
        '<urn:s> <urn:p> "trunc\\u00" .',
        '<urn:s> <urn:p> "bad\\uZZZZ" .',
        "<urn:s\\> <urn:p> <urn:o> .",
        '<urn:s> <urn:p> "open .',
        "<urn:s> <urn:p> <urn:o .",
        '"lit" <urn:p> <urn:o> .',
        "<urn:s> _:b <urn:o> .",
        '<urn:s> "lit" <urn:o> .',
        "<urn:s> <urn:p> <urn:o>",
        "<urn:s> <urn:p> <urn:o> . extra",
        "<urn:s> <urn:p> <urn:o> . # no mid-line comments",
        '<urn:s> <urn:p> "x"@ .',
        '<urn:s> <urn:p> "1"^^xsd:integer .',
        "<urn:s> <urn:p> _:. .",
        "<> <urn:p> <urn:o> .",
        "<urn:a b> <urn:p> <urn:o> .",
        '<urn:s> <urn:p> "x"@en- .',
        '<urn:s> <urn:p> "x"@-x .',
        "_:é <urn:p> <urn:o> .",
        f'<urn:s> <urn:p> "x"^^<{RDF_LANGSTRING}> .',
        # \u and \U take exactly 4 or 8 hex digits naming a Unicode scalar value
        '<urn:s> <urn:p> "a\\UFFFFFFFFb" .',
        '<urn:s> <urn:p> "a\\uD800b" .',
        '<urn:s> <urn:p> "a\\u+041b" .',
        '<urn:s> <urn:p> "a\\u 041b" .',
        '<urn:s> <urn:p> "a\\u0_41b" .',
        # RDF 1.1 IRIREF: inside <...> only \u and \U escapes, and none of
        # the characters #x00-#x20 < > " { } | ^ ` \
        '<urn:\\"x> <urn:p> <urn:o> .',
        "<urn:s> <urn:p> <urn:a\\tb> .",
        "<urn:s> <urn:p> <urn:a{b}|^> .",
        '<urn:s> <urn:p> <urn:a"b> .',
        "<urn:s> <urn:p> <urn:a`b> .",
        "<urn:s> <urn:p> <urn:a|b> .",
        "<urn:s> <urn:p> <urn:a^b> .",
        "<urn:s> <urn:p> <urn:a{b> .",
        "<urn:s> <urn:p> <urn:a}b> .",
        "<urn:s> <urn:p> <urn:a\x01b> .",
        '<urn:s> <urn:p> "x"^^<urn:dt\\n> .',
        # raw lone surrogates, which no UTF-8 file can hold
        '<urn:s> <urn:p> "\ud800" .',
        '<urn:s> <urn:p> "a\udfffb"@en .',
        "<urn:s\udc80> <urn:p> <urn:o> .",
    ],
)
def test_malformed_statements_are_rejected(line):
    with pytest.raises(ValidationError, match="line 7"):
        parse_statement(line, 7)


@pytest.mark.parametrize(
    "line",
    [
        '<urn:s> <urn:p> "x"@en- .',
        '<urn:s> <urn:p> "x"@-x .',
        "_:é <urn:p> <urn:o> .",
        f'<urn:s> <urn:p> "x"^^<{RDF_LANGSTRING}> .',
    ],
)
@pytest.mark.parametrize("patch", [False, True])
def test_invalid_term_after_a_valid_line_interns_nothing(line, patch):
    d = Dictionary()
    d.intern(Iri("urn:pre:existing"))
    text = f"<urn:a> <urn:b> _:n .\n{line}\n"
    if patch:
        text = "".join(f"A {stmt}\n" for stmt in text.splitlines())
    with pytest.raises(ValidationError, match="line 2"):
        (parse_patch if patch else parse_ntriples)(text, d)
    assert len(d) == 1


@given(statement_lines)
def test_a_parsed_statement_holds_only_valid_terms(line):
    try:
        terms = parse_statement(line)
    except ValidationError:
        return
    assert len(terms) == 3
    for term in terms:
        validate_term(term)


def test_language_tagged_literal():
    _, _, o = parse_statement('<urn:s> <urn:p> "hi"@en-US .')
    assert o == Literal("hi", RDF_LANGSTRING, "en-US")
    assert format_term(o) == '"hi"@en-US'


def test_format_term_forms():
    assert format_term(Iri("urn:a")) == "<urn:a>"
    assert format_term(BlankNode("b1")) == "_:b1"
    assert format_term(Literal("x")) == '"x"'
    assert format_term(Literal("x", XSD_STRING)) == '"x"'
    assert format_term(Literal("1", XSD_INT)) == f'"1"^^<{XSD_INT}>'


def test_control_characters_escape_on_output():
    assert format_term(Literal("a\x01b")) == '"a\\u0001b"'
    assert format_term(Literal("del\x7f")) == '"del\\u007F"'
    assert format_term(Literal('q"\\\n\r\t')) == '"q\\"\\\\\\n\\r\\t"'


def _escape_lex_per_character(lex: str) -> str:
    """The per-character escaping loop _escape_lex replaced, kept as a reference."""
    named = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
    out = []
    for ch in lex:
        if ch in named:
            out.append(named[ch])
        elif ord(ch) < 0x20 or ord(ch) == 0x7F:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def test_escape_lex_matches_the_per_character_loop_on_every_scalar_value():
    scalars = [chr(cp) for cp in range(sys.maxunicode + 1) if not 0xD800 <= cp <= 0xDFFF]
    assert [_escape_lex(ch) for ch in scalars] == [_escape_lex_per_character(ch) for ch in scalars]
    everything = "".join(scalars)
    assert _escape_lex(everything) == _escape_lex_per_character(everything)


@given(lex)
def test_escape_lex_matches_the_per_character_loop_on_mixed_text(text):
    assert _escape_lex(text) == _escape_lex_per_character(text)


@given(objects)
def test_term_text_is_kept_on_the_term_and_leaves_equality_alone(term):
    assert format_term(term) == term_text(term)
    assert term.__dict__["nt"] == term_text(term)
    twin = type(term)(**{k: v for k, v in vars(term).items() if k != "nt"})
    assert twin == term and hash(twin) == hash(term) and "nt" not in vars(twin)


def test_format_term_rejects_a_non_term():
    with pytest.raises(ValidationError, match="not a term"):
        format_term("urn:a")


def test_format_triple_is_dot_free():
    d = Dictionary()
    triple = d.triple(Iri("urn:s"), Iri("urn:p"), Literal("x"))
    assert format_triple(triple, d) == '<urn:s> <urn:p> "x"'


def test_serialize_empty_set():
    assert serialize_ntriples(set(), Dictionary()) == ""


def test_serialize_sorts_by_term_text_not_id():
    docs = [
        "<urn:b> <urn:p> <urn:o> .\n<urn:a> <urn:p> <urn:o> .\n",
        "<urn:a> <urn:p> <urn:o> .\n<urn:b> <urn:p> <urn:o> .\n",
    ]
    outputs = []
    for doc in docs:
        d = Dictionary()
        outputs.append(serialize_ntriples(set(parse_ntriples(doc, d)), d))
    assert outputs[0] == outputs[1]
    assert outputs[0] == "<urn:a> <urn:p> <urn:o> .\n<urn:b> <urn:p> <urn:o> .\n"


def test_serialize_orders_terms_that_share_a_prefix_by_their_texts():
    d = Dictionary()
    s, p = Iri("urn:s"), Iri("urn:p")
    triples = {
        d.triple(s, p, Literal("a", lang="en")),
        d.triple(s, p, Literal("a")),
        d.triple(BlankNode("b10"), p, s),
        d.triple(BlankNode("b1"), p, s),
    }
    assert serialize_ntriples(triples, d) == (
        '<urn:s> <urn:p> "a" .\n'
        '<urn:s> <urn:p> "a"@en .\n'
        "_:b1 <urn:p> <urn:s> .\n"
        "_:b10 <urn:p> <urn:s> .\n"
    )


@given(term_triples)
def test_serialize_sorts_lines_as_their_term_texts(items):
    d = Dictionary()
    triples = {d.triple(s, p, o) for s, p, o in items}
    texts = sorted(tuple(format_term(d.resolve(x)) for x in t) for t in triples)
    assert serialize_ntriples(triples, d) == "".join(f"{s} {p} {o} .\n" for s, p, o in texts)


@given(term_triples)
def test_round_trip_preserves_the_graph(items):
    d1 = Dictionary()
    first = {d1.triple(s, p, o) for s, p, o in items}
    text = serialize_ntriples(first, d1)
    d2 = Dictionary()
    reparsed = parse_ntriples(text, d2)
    assert len(reparsed) == len(first)
    original_terms = {
        tuple(d1.resolve(x) for x in (t.s, t.p, t.o)) for t in first
    }
    round_tripped = {
        tuple(d2.resolve(x) for x in (t.s, t.p, t.o)) for t in reparsed
    }
    assert round_tripped == original_terms


@given(term_triples)
def test_serialization_ignores_input_order(items):
    d = Dictionary()
    triples = {d.triple(s, p, o) for s, p, o in items}
    backwards = sorted(triples, key=lambda t: (t.s, t.p, t.o), reverse=True)
    assert serialize_ntriples(triples, d) == serialize_ntriples(backwards, d)


def test_blank_label_survives_into_a_fresh_dictionary():
    d = Dictionary()
    (triple,) = parse_ntriples("_:alice <urn:p> <urn:o> .\n", d)
    assert d.resolve(triple.s) == BlankNode("alice")


def test_same_label_is_one_node_within_a_document():
    d = Dictionary()
    triples = parse_ntriples("_:n <urn:p> <urn:o1> .\n_:n <urn:p> <urn:o2> .\n", d)
    assert triples[0].s == triples[1].s


def test_same_label_is_distinct_across_documents():
    d = Dictionary()
    (first,) = parse_ntriples("_:n <urn:p> <urn:o> .\n", d)
    (second,) = parse_ntriples("_:n <urn:p> <urn:o> .\n", d)
    assert first.s != second.s
    assert d.resolve(first.s) == BlankNode("n")
    assert d.resolve(second.s) != BlankNode("n")


def test_blank_scope_renames_consistently_on_collision():
    d = Dictionary()
    d.intern(BlankNode("b0"))
    scope = BlankScope(d)
    renamed = scope.rename(BlankNode("b0"))
    assert renamed.label != "b0"
    assert scope.rename(BlankNode("b0")) == renamed


def test_blank_scope_never_aliases_two_source_labels():
    d = Dictionary()
    scope = BlankScope(d)
    out = {scope.rename(BlankNode(label)).label for label in ("a", "b", "b0", "b1")}
    assert len(out) == 4
