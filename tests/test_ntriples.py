"""Line-based N-Triples reader/writer and blank label scoping."""

import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

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
from vgstore import ntriples, parse_patch
from vgstore.ntriples import BlankScope, read_statements, read_term
from vgstore.terms import RDF_LANGSTRING, XSD_STRING, _escape_lex, term_text, validate_term

from helpers import parse_statement, reference_interning, statement_lines, terms_by_id

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


@pytest.mark.parametrize("text,term", [
    (f'"y"^^<{XSD_STRING}>', Literal("y")),
    ('"\\u0041"', Literal("A")),
    ('"\\U0001F600\\t"', Literal("\U0001F600\t")),
    ("<urn:\\u0061>", Iri("urn:a")),
    ('"gare"@fr', Literal("gare", RDF_LANGSTRING, "fr")),
])
def test_read_term_reads_any_spelling_as_the_canonical_term(text, term):
    assert read_term(text) == term
    assert read_term(format_term(term)) == term


@pytest.mark.parametrize("text", [
    "<urn:a> .", '"y" x', "<urn:a><urn:b>", '"y"^^<urn:dt> ', "_:b1\n", "", '"\\uD800"',
])
def test_read_term_refuses_trailing_text_and_what_spells_no_term(text):
    with pytest.raises(ValidationError):
        read_term(text)


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
    renamed = scope.rename("b0")
    assert renamed != "b0"
    assert scope.rename("b0") == renamed


def test_blank_scope_never_aliases_two_source_labels():
    d = Dictionary()
    scope = BlankScope(d)
    out = {scope.rename(label) for label in ("a", "b", "b0", "b1")}
    assert len(out) == 4


# --- term texts kept on the scope -------------------------------------------


def _spelled(term, escaped: bool) -> str:
    """The term's N-Triples text, with its first IRI character as a \\u
    escape when escaped is set."""
    if escaped and isinstance(term, Iri):
        return f"<\\u{ord(term.text[0]):04X}{term.text[1:]}>"
    return format_term(term)


def test_two_spellings_of_one_term_get_one_id():
    d = Dictionary()
    scope = BlankScope(d)
    first = parse_patch('A <urn:\\u0041> <urn:p> "x" .\nA <urn:A> <urn:p> "y" .\n', d, scope)
    second = parse_patch('A <urn:A> <urn:p> "z" .\nA <urn:q> <urn:p> <urn:\\u0041> .\n', d, scope)
    a = d.lookup(Iri("urn:A"))
    assert {t.s for t in first.additions} == {a}
    assert {t.s for t in second.additions} == {a, d.lookup(Iri("urn:q"))}
    assert a in {t.o for t in second.additions}
    assert len(d) == 6  # urn:A, urn:p, urn:q and the three literals


@pytest.mark.parametrize("last_line", [
    'A <urn:b> <urn:p> "unterminated .',  # no term match
    'A <urn:b> <urn:p> "\\uD800" .',  # a term that fails validation
    "A <urn:b> <urn:p> <urn:c> . extra",  # no final dot
])
def test_a_patch_failing_on_its_last_line_leaves_dictionary_and_scope_alone(last_line):
    d = Dictionary()
    scope = BlankScope(d)
    parse_patch('A _:n <urn:p> "x" .\nA <urn:a> <urn:p> <urn:b> .\n', d, scope)
    # texts, not terms: the snapshot builds none
    before = (list(map(d.text, range(len(d)))), dict(d._by_text), dict(scope._mapping),
              set(scope._used))
    text = (
        'A <urn:a> <urn:p> <urn:new> .\nA _:m <urn:p> _:n .\n'
        f'D <urn:\\u0061> <urn:p> "x" .\n{last_line}\n'
    )
    with pytest.raises(ValidationError, match="line 4"):
        parse_patch(text, d, scope)
    assert (list(map(d.text, range(len(d)))), dict(d._by_text), dict(scope._mapping),
            set(scope._used)) == before
    # the scope still reads as if the failed patch never came
    delta = parse_patch('A _:n <urn:p> <urn:new> .\n', d, scope)
    assert d.resolve(next(iter(delta.additions)).s) == BlankNode("n")


def test_a_scope_made_for_another_dictionary_is_refused():
    d, other = Dictionary(), Dictionary()
    scope = BlankScope(other)
    parse_patch('A <urn:a> <urn:p> "x" .\n', other, scope)
    with pytest.raises(ValueError, match="another dictionary"):
        parse_patch('A <urn:a> <urn:p> "x" .\n', d, scope)
    assert len(d) == 0 and len(other._by_text) == 3


patch_lists = st.lists(
    st.tuples(term_triples, st.lists(st.booleans(), min_size=3, max_size=3)),
    min_size=1, max_size=4,
)


@given(patch_lists)
# labels a scope hands out when it renames: b0, b1 collide with them
@example([
    ([(BlankNode("b1"), Iri("urn:p"), BlankNode("b0"))], [False] * 3),
    ([(BlankNode("b0"), Iri("urn:p"), Iri("urn:b0")), (Iri("urn:b0"), Iri("urn:p"),
      BlankNode("b2"))], [True] * 3),
])
def test_term_ids_after_a_load_equal_those_of_a_reference_interning(patches):
    texts = []
    for i, (triples, escaped) in enumerate(patches):
        mark = "AD"[i % 2]
        texts.append("".join(
            f"{mark} {' '.join(_spelled(t, e) for t, e in zip(triple, escaped))} .\n"
            for triple in triples
        ))
    d = Dictionary()
    scope = BlankScope(d)
    for text in texts:
        parse_patch(text, d, scope)
    assert terms_by_id(d) == terms_by_id(reference_interning(texts))


def _other_spelling(term) -> str:
    """A text that spells the term without being its canonical text, where
    there is one: an IRI's first character as a \\u escape, and a literal's
    tabs raw and its datatype written out, xsd:string too."""
    if isinstance(term, Iri):
        return f"<\\u{ord(term.text[0]):04X}{term.text[1:]}>"
    if isinstance(term, Literal):
        body = "\t".join(map(_escape_lex, term.lex.split("\t")))
        return f'"{body}"' + (f"@{term.lang}" if term.lang else f"^^<{term.datatype}>")
    return format_term(term)


@given(patch_lists)
@example([
    ([(Iri("urn:x:a"), Iri("urn:x:p"), Literal("a\tb"))], [False] * 3),
    ([(Iri("urn:x:a"), Iri("urn:x:p"), Literal("a\tb")),
      (Iri("urn:x:b"), Iri("urn:x:p"), Literal("c", XSD_STRING))], [True] * 3),
])
def test_each_id_keeps_its_term_s_text_and_other_spellings_land_on_it(patches):
    """Every id's text is its term's canonical text, and the text map is the
    inverse of the texts by id; a load spelling terms otherwise gives the ids
    a load of their canonical texts gives."""
    loaded = []
    for spell in (_other_spelling, format_term):
        d = Dictionary()
        scope = BlankScope(d)
        for triples, other in patches:
            parse_patch("".join(
                f"A {' '.join(spell(t) if o else format_term(t) for t, o in zip(triple, other))} .\n"
                for triple in triples
            ), d, scope)
        texts = [d.text(i) for i in range(len(d))]
        assert texts == [term_text(d.resolve(i)) for i in range(len(d))]
        assert d._by_text == {text: i for i, text in enumerate(texts)}
        loaded.append(terms_by_id(d))
    assert loaded[0] == loaded[1]


def _read_per_line(texts: list[str], marks: str, d: Dictionary) -> list:
    """What read_statements makes of each document in turn, sharing one scope,
    by the per-line rule: every line that is not blank or a comment is one
    _match_statement, its terms are built by term_from_match, and a
    document's triples are interned statement by statement once all its
    lines have parsed.  A document that fails ends the list with its error."""
    scope, out = BlankScope(d), []
    for text in texts:
        statements = []
        try:
            for n, line in enumerate(text.split("\n"), start=1):
                line = line.removesuffix("\r")
                if not line.strip() or line.strip().startswith("#"):
                    continue
                mark = ""
                if marks:
                    if len(line) < 2 or line[0] not in marks or line[1] not in " \t":
                        raise ValidationError(f"line {n}: lines must start with 'A ' or 'D '")
                    mark, line = line[0], line[2:]
                statements.append((mark, parse_statement(line, n)))
        except ValidationError as e:
            return out + [str(e)]
        triples = []
        for mark, (s, p, o) in statements:
            s = BlankNode(scope.rename(s.label)) if isinstance(s, BlankNode) else s
            o = BlankNode(scope.rename(o.label)) if isinstance(o, BlankNode) else o
            triples.append((mark, d.triple(s, p, o)))
        out.append(triples)
    return out


_bodies = st.text(st.sampled_from('au:é\\"<>@^_.# \t\r\x85\u2028'), max_size=5)


def _weighted(*choices):
    """A draw from one of the (strategy, weight) choices, picked by weight."""
    return st.sampled_from([s for s, w in choices for _ in range(w)]).flatmap(lambda s: s)


def _mostly(good: list[str], bad: list[str]):
    """One of good nine times in ten, else one of bad or a random body."""
    return _weighted((st.sampled_from(good), 9), (st.sampled_from(bad) | _bodies, 1))


_iris = st.builds("<{}>".format, _mostly(
    ["urn:a", "urn:b", "a", "urn:\\u0061", "urn:\\U0001F600", "urn:é"],
    ["urn:a\\u00", "urn:\\uD800", "urn:a b", "", "urn:\ud800"],
))
_blank_nodes = st.builds("_:{}".format, _mostly(["b", "b0", "x_1"], ["1", "", "b-"]))
_literals = st.builds(
    '"{}"{}'.format,
    _mostly(["x", "a\tb", "a\rb", "a\u2028b\x85c", '\\n\\"', "\\u0061", "\\U0001F600"],
            ["\\uD800", "\\q", "a\\", "a\ud800"]),
    st.one_of(
        st.just(""),
        st.builds("@{}".format, _mostly(["en", "en-US", "e1"], ["-x", "en-"])),
        st.builds("^^<{}>".format, _mostly(
            ["urn:dt", "urn:\\u0061"], [RDF_LANGSTRING, "urn:\\uD800", "urn:\\u00", "urn:\udfff"]
        )),
    ),
)
_gaps = st.sampled_from(["", " ", "\t", " \t"])


def _lines(marks: str):
    """A statement line, mostly well formed, or a blank or comment line."""
    return _weighted((st.builds(
        "{}{}{}{}{}{}{}{}".format,
        _mostly(["A ", "D\t", "A \t"] if marks else [""], ["A", "X ", "a ", "", "\x0bA "]),
        _gaps,
        _weighted((_iris, 6), (_blank_nodes, 3), (_literals, 1)),
        _gaps,
        _weighted((_iris, 9), (_blank_nodes | _literals, 1)),
        _gaps,
        _weighted((_iris, 1), (_blank_nodes, 1), (_literals, 2)),
        _mostly([" .", ".", "\t. ", " . \r"], [" . extra", " .x", "", " .\r\r", " .\x0b"]),
    ), 4), (st.sampled_from(
        ["", "  ", "# comment", " \t# c", "\x0b", "\x1c", "\x85", "\u2028", "\x85# c", "\r", "# \ud800"]
    ), 1))


def _documents(marks: str):
    return st.builds(
        lambda lines, sep, end: sep.join(lines) + end,
        st.lists(_lines(marks), max_size=5),
        st.sampled_from(["\n", "\r\n"]),
        st.sampled_from(["", "\n"]),
    )


_marked_documents = st.sampled_from(["", "AD"]).flatmap(
    lambda marks: st.tuples(st.lists(_documents(marks), min_size=1, max_size=2), st.just(marks))
)


@settings(max_examples=200, deadline=None)
@given(_marked_documents)
@example((["A <a><b><c>.\r\nD\t<urn:a>\t<urn:b>\t\"a\rb\"\t.\r\n"], "AD"))
@example((["# c\n\x0b\n\x1c\n\x85\n<urn:a> <urn:b> \"a\u2028b\x85c\" .\n"], ""))
@example((["<urn:\\u0061> <urn:b> \"\\U0001F600\"@en-US .\n_:b <urn:a> \"1\"^^<urn:dt> .\n"], ""))
@example((["<urn:a> <urn:b> <urn:c> .\n<urn:a> <urn:b> <urn:c> . extra\n"], ""))
@example((["A <urn:a> <urn:b> _:b .\n", "A _:b <urn:a> \"x\"^^<urn:\\uD800> .\n"], "AD"))
@example((["A <urn:a> <urn:b> <urn:c> .\nX <urn:a> <urn:b> <urn:c> .\n"], "AD"))
# lone surrogates: in a comment, and where the statement pattern lets one through
@example((["# \ud800\n<urn:a> <urn:b> \"x\"^^<urn:\ud800> .\n"], ""))
@example((["<urn:a> <urn:\udfff> \"a\\\ud800\" .\n"], ""))
def test_the_one_pattern_reader_reads_as_the_per_line_reader(documents):
    texts, marks = documents
    d, reference = Dictionary(), Dictionary()
    for dictionary in (d, reference):  # a blank label and an IRI the documents use
        dictionary.intern(BlankNode("b"))
        dictionary.intern(Iri("urn:a"))
    expected = _read_per_line(texts, marks, reference)
    scope, got = BlankScope(d), []
    per_line_reader = mock.patch.object(
        ntriples, "_raise_first_error", wraps=ntriples._raise_first_error
    )
    with per_line_reader as per_line:
        for text in texts:
            try:
                got.append(read_statements(text, d, scope, marks))
            except ValidationError as e:
                got.append(str(e))
                break
    assert got == expected
    assert terms_by_id(d) == terms_by_id(reference)
    # the pattern misses no statement line: only a document the per-line
    # reader rejects is read again by it, and a document it accepts is read
    # by the pattern alone
    assert per_line.called == isinstance(expected[-1], str)


def test_the_statement_pattern_leaves_the_surrogate_range_out():
    """The range takes re several ms to compile; each process compiles the
    statement pattern on its first read."""
    assert r"\ud800-\udfff" in ntriples.TERM_RE.pattern
    assert r"\ud800" not in ntriples._STATEMENT


def test_a_fresh_scope_over_a_full_dictionary_adds_no_term():
    """A patch read again in a new scope over the dictionary it filled
    interns no new IRI or literal, however it spells them."""
    d = Dictionary()
    text = 'A <urn:a> <urn:p> "x"^^<urn:dt> .\nA <urn:\\u0062> <urn:p> "y"@en .\n'
    first = parse_patch(text, d, BlankScope(d))
    terms = terms_by_id(d)
    again = parse_patch(
        'D\t<urn:a>\t<urn:p> "x"^^<urn:dt> .\r\nD <urn:b><urn:p>"y"@en.\n', d, BlankScope(d)
    )
    assert terms_by_id(d) == terms
    assert again.removals == first.additions
