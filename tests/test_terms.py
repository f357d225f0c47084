"""Term model, interning dictionary, and literal value comparison."""

import re
import sys
import threading

import pytest
from hypothesis import assume, example, given, strategies as st

from vgstore import ntriples
from vgstore.errors import NotFoundError, ValidationError
from vgstore.ntriples import TERM_RE, read_term
from vgstore.terms import (
    RDF_LANGSTRING,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_FLOAT,
    XSD_INTEGER,
    XSD_STRING,
    IRI_CHAR,
    BlankNode,
    Dictionary,
    Iri,
    Literal,
    Triple,
    canonical,
    compare_values,
    iri_text_ok,
    term_text,
    validate_term,
)

iris = st.from_regex(r"urn:[A-Za-z0-9._:-]{1,16}", fullmatch=True).map(Iri)
blanks = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True).map(BlankNode)
plain_literals = st.text(max_size=12).map(Literal)
typed_literals = st.builds(
    Literal,
    st.text(max_size=12),
    st.sampled_from([XSD_STRING, XSD_INTEGER, XSD_DECIMAL, XSD_BOOLEAN, "urn:dt:custom"]),
)
lang_literals = st.builds(
    lambda lex, lang: Literal(lex, lang=lang),
    st.text(max_size=12),
    st.from_regex(r"[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})?", fullmatch=True),
)
terms = st.one_of(iris, blanks, plain_literals, typed_literals, lang_literals)


def test_intern_idempotent():
    d = Dictionary()
    a = d.intern(Iri("http://ex.org/a"))
    assert d.intern(Iri("http://ex.org/a")) == a


def test_intern_dense_from_zero():
    d = Dictionary()
    assert d.intern(Iri("urn:x")) == 0
    assert d.intern(Iri("urn:y")) == 1


def test_intern_hundred_distinct_terms_dense():
    # oracle: the number of distinct terms in the input
    candidates = [Iri(f"urn:t:{i}") for i in range(60)] + [
        Literal(str(i), XSD_INTEGER) for i in range(40)
    ]
    distinct = len(set(candidates))
    assert distinct == 100
    d = Dictionary()
    ids = {d.intern(t) for t in candidates}
    assert ids == set(range(100))


def test_resolve_round_trip_decimal():
    d = Dictionary()
    lit = Literal("12.5", XSD_DECIMAL)
    assert d.resolve(d.intern(lit)) == lit


def test_resolve_unknown_id():
    d = Dictionary()
    with pytest.raises(NotFoundError):
        d.resolve(999)


@given(terms)
def test_resolve_intern_identity(t):
    d = Dictionary()
    assert d.resolve(d.intern(t)) == t


@given(terms)
def test_read_term_reads_back_what_term_text_writes(t):
    assert read_term(term_text(t)) == t


@given(st.lists(terms, max_size=30))
def test_distinct_terms_distinct_ids(ts):
    d = Dictionary()
    ids = [d.intern(t) for t in ts]
    assert len(set(ids)) == len(set(ts))
    for t, i in zip(ts, ids):
        assert d.lookup(t) == i


def test_lookup_does_not_intern():
    d = Dictionary()
    assert d.lookup(Iri("urn:never")) is None
    assert len(d) == 0


@pytest.mark.parametrize("malformed,valid", [
    (Iri(5), Iri("5")),
    (Literal("a", "urn:dt", "en"), Literal("a", lang="en")),
])
def test_a_malformed_term_does_not_alias_the_valid_term_with_its_text(malformed, valid):
    d = Dictionary()
    tid = d.intern(valid)
    assert term_text(malformed) == d.text(tid)
    assert d.lookup(malformed) is None
    with pytest.raises(ValidationError):
        d.intern(malformed)
    assert len(d) == 1 and d.lookup(valid) == tid


def test_a_non_term_is_not_found_and_not_interned():
    d = Dictionary()
    assert d.lookup("urn:a") is None
    with pytest.raises(ValidationError, match="not a term"):
        d.intern("urn:a")
    assert len(d) == 0


def test_text_of_an_unknown_id():
    d = Dictionary()
    d.intern(Iri("urn:a"))
    for tid in (-1, 1, "0"):
        with pytest.raises(NotFoundError):
            d.text(tid)


def test_the_text_of_an_id_is_read_into_its_term_on_the_first_resolve_only():
    d = Dictionary()
    tid = d.intern_text('"x"@en')
    assert d._terms == {}
    term = d.resolve(tid)
    assert term == Literal("x", lang="en") and d._terms == {tid: term}
    assert d.resolve(tid) is term
    for bad in (-1, 1, 0.0, "0"):
        with pytest.raises(NotFoundError):
            d.resolve(bad)


def test_threads_resolving_the_same_fresh_ids_get_equal_terms():
    d = Dictionary()
    texts = [f"<urn:t{i}>" for i in range(200)] + [f'"{i}"^^<{XSD_INTEGER}>' for i in range(200)]
    ids = [d.intern_text(text) for text in texts]
    start, got = threading.Barrier(8), []

    def resolve_all():
        start.wait()
        got.append([d.resolve(tid) for tid in ids])

    threads = [threading.Thread(target=resolve_all) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(got) == 8 and all(terms == list(map(read_term, texts)) for terms in got)
    assert [d.resolve(tid) for tid in ids] == got[0]


# what the statement pattern hands the dictionary: one term text with no
# blank before it, which may hold a lone surrogate TERM_RE stops at
_READER_KEY_RE = re.compile(
    f"{ntriples._IRI}|{ntriples._BLANK}|{ntriples._LITERAL}".replace(r"\ud800-\udfff", ""),
    re.DOTALL,
)
_pieces = st.sampled_from(["a", "é", ":", " ", "\t", "\x01", "\x7f", "\x85", "\u2028", "#",
                           "\\t", "\\u0062", "\\U0001F600", '\\"', "\\\\", "\ud800"])
_raw_iris = st.lists(st.sampled_from(["urn:", "a", "é", "\\u0061", "\x7f", "\ud800", "%20"]),
                     min_size=1, max_size=4).map("".join)
_raw_texts = st.one_of(
    _raw_iris.map(lambda iri: f"<{iri}>"),
    st.sampled_from(["_:b", "_:n0"]),
    st.builds(
        lambda body, tail: f'"{body}"{tail}',
        st.lists(_pieces, max_size=5).map("".join),
        st.one_of(
            st.sampled_from(["", "@en", "@fr-CA", "@EN"]),
            st.one_of(_raw_iris, st.sampled_from([XSD_STRING, RDF_LANGSTRING, XSD_INTEGER]))
            .map(lambda iri: f"^^<{iri}>"),
        ),
    ),
)


@given(_raw_texts)
@example('"a\tb"')
@example('"a\\u0062"')
@example(f'"y"^^<{XSD_STRING}>')
@example(f'"y"^^<{RDF_LANGSTRING}>')
@example('"a\ud800"')
@example('<urn:\ud800>')
@example('"é\u2028"^^<urn:dt>')
def test_a_text_the_canonical_test_passes_is_valid_and_its_term_s_text(text):
    assume(TERM_RE.fullmatch(text) or _READER_KEY_RE.fullmatch(text))
    if canonical(text):
        assert term_text(read_term(text)) == text


@pytest.mark.parametrize("text", [
    '"a\tb"', '"a\\tb"', '<urn:\\u0061>', f'"y"^^<{XSD_STRING}>', f'"y"^^<{RDF_LANGSTRING}>',
    '"a\ud800"', '"\x7f"',
])
def test_the_canonical_test_refuses_what_term_text_writes_otherwise_or_not_at_all(text):
    assert not canonical(text)


# compare_values


def test_compare_decimal_vs_integer():
    assert compare_values(Literal("12.5", XSD_DECIMAL), Literal("13", XSD_INTEGER)) < 0


def test_compare_equal_plain_strings():
    assert compare_values(Literal("abc"), Literal("abc")) == 0


def test_compare_number_vs_string_incomparable():
    assert compare_values(Literal("10", XSD_INTEGER), Literal("abc")) is None


def test_compare_cross_datatype_numeric_promotion():
    assert compare_values(Literal("12.5", XSD_DECIMAL), Literal("12.5", XSD_DOUBLE)) == 0
    assert compare_values(Literal("1", XSD_INTEGER), Literal("1.0", XSD_FLOAT)) == 0


def test_compare_no_lexical_canonicalization():
    # "01" and "1" are distinct terms but numerically equal
    assert Literal("01", XSD_INTEGER) != Literal("1", XSD_INTEGER)
    assert compare_values(Literal("01", XSD_INTEGER), Literal("1", XSD_INTEGER)) == 0


def test_compare_unparseable_numeric_incomparable():
    assert compare_values(Literal("abc", XSD_INTEGER), Literal("1", XSD_INTEGER)) is None


def test_compare_nan_incomparable():
    assert compare_values(Literal("NaN", XSD_DOUBLE), Literal("1", XSD_DOUBLE)) is None


def test_compare_same_custom_datatype_codepoint():
    a = Literal("a", "urn:dt:custom")
    b = Literal("b", "urn:dt:custom")
    assert compare_values(a, b) < 0
    assert compare_values(b, a) > 0


def test_compare_different_non_numeric_datatypes_incomparable():
    assert compare_values(Literal("a"), Literal("a", "urn:dt:custom")) is None


def test_compare_requires_literals():
    with pytest.raises(TypeError):
        compare_values(Iri("urn:x"), Literal("1"))


numeric_literals = st.builds(
    lambda v, dt: Literal(str(v), dt),
    st.integers(-1000, 1000) | st.decimals(-1000, 1000, places=2),
    st.sampled_from([XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_FLOAT]),
)


def _compare_parsed(a, b):
    """compare_values as it was defined before value keys: parse per call."""

    def number(lit):
        try:
            value = float(lit.lex)
        except (ValueError, OverflowError):
            return None
        return None if value != value else value

    numeric = {XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_FLOAT}
    if a.datatype in numeric and b.datatype in numeric:
        va, vb = number(a), number(b)
        if va is None or vb is None:
            return None
        return (va > vb) - (va < vb)
    if a.datatype == b.datatype:
        return (a.lex > b.lex) - (a.lex < b.lex)
    return None


any_literals = st.one_of(
    plain_literals,
    typed_literals,
    lang_literals,
    st.builds(
        Literal,
        st.sampled_from(["0", "-0", "01", "1.0", "1e3", "NaN", "inf", "-INF", "abc", ""]),
        st.sampled_from([XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_FLOAT, "urn:dt:custom"]),
    ),
)


@given(any_literals, any_literals)
def test_compare_values_on_keys_matches_parsing_per_call(a, b):
    assert compare_values(a, b) == _compare_parsed(a, b)


@given(numeric_literals, numeric_literals)
def test_compare_antisymmetric(a, b):
    ab = compare_values(a, b)
    ba = compare_values(b, a)
    assert ab is not None and ba == -ab


@given(numeric_literals, numeric_literals, numeric_literals)
def test_compare_transitive(a, b, c):
    if compare_values(a, b) <= 0 and compare_values(b, c) <= 0:
        assert compare_values(a, c) <= 0


# validation


@pytest.mark.parametrize(
    "term",
    [
        Iri(""),
        Iri("urn:has space"),
        Iri("urn:has\ttab"),
        Iri("urn:<angle>"),
        BlankNode(""),
        BlankNode("0leading"),
        BlankNode("has-dash"),
        Literal("x", lang="not a tag"),
        Literal("x", lang="-en"),
        Literal("x", "urn:dt:other", lang="en"),
    ],
)
def test_validate_rejects(term):
    with pytest.raises(ValidationError):
        validate_term(term)


def test_langstring_requires_tag():
    with pytest.raises(ValidationError):
        validate_term(Literal("x", RDF_LANGSTRING))


def test_lang_literal_gets_langstring_datatype():
    lit = Literal("hi", lang="en")
    assert lit.datatype == RDF_LANGSTRING
    validate_term(lit)


def test_triple_position_kinds():
    d = Dictionary()
    s = Iri("urn:s")
    p = Iri("urn:p")
    lit = Literal("1")
    blank = BlankNode("b")
    t = d.triple(s, p, lit)
    assert d.resolve(t.s) == s and d.resolve(t.p) == p and d.resolve(t.o) == lit
    d.triple(blank, p, s)
    with pytest.raises(ValidationError):
        d.triple(lit, p, s)
    with pytest.raises(ValidationError):
        d.triple(s, blank, lit)
    with pytest.raises(ValidationError):
        d.triple(s, Literal("p"), lit)


def test_fresh_blank_labels_skip_taken():
    d = Dictionary()
    d.intern(BlankNode("b0"))
    label = d.fresh_blank_label()
    assert label != "b0"
    d.intern(BlankNode(label))
    assert d.fresh_blank_label() not in ("b0", label)


def _iri_forbidden(ch: str) -> bool:
    # RDF 1.1 IRIREF, plus two deviations: no whitespace above #x20 and no
    # lone surrogate
    return (
        ord(ch) <= 0x20
        or ch in '<>"{}|^`\\'
        or ch.isspace()
        or 0xD800 <= ord(ch) <= 0xDFFF
    )


def test_iri_check_agrees_with_the_per_character_predicate_on_every_code_point():
    disagree = [
        cp
        for cp in range(sys.maxunicode + 1)
        if iri_text_ok(chr(cp)) == _iri_forbidden(chr(cp))
    ]
    assert disagree == []
    assert not iri_text_ok("")
    assert iri_text_ok("urn:ex:a") and not iri_text_ok("urn:ex:a\u2028b")


def test_the_iri_class_lists_its_whitespace_and_agrees_on_every_code_point():
    """IRI_CHAR names the whitespace above #x20 one code point at a time, not
    as \\s; the statement pattern's copy of it, without the surrogate range,
    admits the surrogates besides."""
    assert r"\s" not in IRI_CHAR
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    allowed = {ch for ch in every if not _iri_forbidden(ch)}
    assert set(re.findall(IRI_CHAR, every)) == allowed
    without_surrogates = IRI_CHAR.replace(r"\ud800-\udfff", "")
    assert without_surrogates != IRI_CHAR
    surrogates = set(map(chr, range(0xD800, 0xE000)))
    assert set(re.findall(without_surrogates, every)) == allowed | surrogates


def test_triple_hashes_and_compares_as_a_plain_tuple():
    # tuple hashing is what the frozen dataclass did too, so set order holds
    assert hash(Triple(1, 2, 3)) == hash((1, 2, 3))
    assert Triple.__hash__ is tuple.__hash__
    assert Triple.__eq__ is tuple.__eq__
    t = Triple(4, 5, 6)
    assert (t.s, t.p, t.o) == tuple(t) == (4, 5, 6)
    assert t == Triple(4, 5, 6) and t != Triple(4, 5, 7)
