"""RDF terms, dense term ids, and the interning dictionary.

Terms are immutable value objects: an IRI, a blank node, or a literal with a
datatype IRI and an optional language tag.  Two literals are equal only if
lexical form, datatype, and language tag all match; no value-space
normalization happens here ("01" and "1" are distinct terms even though
compare_values treats them as numerically equal).

A Dictionary interns terms to dense integer ids starting at 0 so triples and
indexes can work on ints.  Interning the same term twice returns the same id,
and ids are never reused.  The dictionary is not thread-safe for writes;
callers must not interleave intern calls from several threads.  Reads,
resolve included, may run on several threads at once.

The dictionary keys each term by its canonical N-Triples text (term_text)
and keeps it by id (Dictionary.text); two valid terms are equal exactly when
their texts are.  Dictionary.intern, the one way to intern a term, makes
that text and keeps the term; the reader hands intern_text each text
canonical() passes as read and any other spelling's canonical text, so a
load keeps no term, and an id's term is read from its text on first resolve.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NotFoundError, ValidationError

XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"
XSD_BOOLEAN = XSD + "boolean"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_FLOAT = XSD + "float"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDF_TYPE = RDF + "type"
RDF_LANGSTRING = RDF + "langString"

NUMERIC_DATATYPES = frozenset({XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_FLOAT})

# The term grammar, as pattern strings the N-Triples reader and the query
# tokenizer build on; validate_term matches them against whole strings.
# IRI_CHAR is the character class of RDF 1.1 N-Triples IRIREF (no #x00-#x20,
# <, >, ", {, }, |, ^, backtick or backslash), narrowed by two deliberate
# deviations: no whitespace above #x20 either and no lone surrogate, which no
# UTF-8 file can hold.  The whitespace is spelled out as the 19 code points
# above #x20 for which str.isspace() is true: a class holding \s makes re test
# a Unicode category for every character it reads.  IRI_TEXT is one or more
# IRI characters: an IRI is never empty.
IRI_CHAR = (
    r'[^\x00-\x20\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000'
    r'<>"{}|^`\\\ud800-\udfff]'
)
IRI_TEXT = IRI_CHAR + "+"
BLANK_LABEL = r"[A-Za-z_][A-Za-z0-9_]*"
LANG_TAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_IRI_TEXT_RE = re.compile(IRI_TEXT)
_BLANK_LABEL_RE = re.compile(BLANK_LABEL)
_LANG_TAG_RE = re.compile(LANG_TAG)
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")


@dataclass(frozen=True)
class Iri:
    text: str


@dataclass(frozen=True)
class BlankNode:
    label: str


@dataclass(frozen=True)
class Literal:
    lex: str
    datatype: str = XSD_STRING
    lang: str | None = None

    def __post_init__(self):
        # Constructor sugar only; real validation happens at intern time.
        if self.lang is not None and self.datatype == XSD_STRING:
            object.__setattr__(self, "datatype", RDF_LANGSTRING)


Term = Iri | BlankNode | Literal

TermId = int


class Triple(NamedTuple):
    """A triple of term ids.  Positions are validated where triples are built.

    A tuple, so hashing and equality run in C; a triple equals the plain
    tuple of its ids.
    """

    s: TermId
    p: TermId
    o: TermId


# what each character that must be escaped in a literal is written as
_LEX_ESCAPES = {chr(code): f"\\u{code:04X}" for code in (*range(0x20), 0x7F)} | {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}
_LEX_ESCAPE_RE = re.compile(r'["\\\x00-\x1f\x7f]')
# no canonical text holds a backslash (so its quotes delimit a literal), a
# character _LEX_ESCAPE_RE escapes, or a lone surrogate (no valid term does)
_NOT_CANONICAL_RE = re.compile(r'[\\\x00-\x1f\x7f\ud800-\udfff]')
_NOT_CANONICAL_TAILS = (f"^^<{XSD_STRING}>", f"^^<{RDF_LANGSTRING}>")


def _escape_lex(lex: str) -> str:
    if _LEX_ESCAPE_RE.search(lex) is None:  # most literals: search is cheaper than sub
        return lex
    return _LEX_ESCAPE_RE.sub(lambda m: _LEX_ESCAPES[m[0]], lex)


def term_text(term: Term) -> str:
    """A term in N-Triples syntax, made anew; Dictionary.text keeps the first."""
    if isinstance(term, Iri):
        return f"<{term.text}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    body = f'"{_escape_lex(term.lex)}"'
    if term.lang is not None:
        return f"{body}@{term.lang}"
    if term.datatype != XSD_STRING:
        return f"{body}^^<{term.datatype}>"
    return body


def canonical(text: str) -> bool:
    """Whether a text the N-Triples statement pattern matched can be interned
    as it is: True only if it is term_text of the valid term it spells.  Some
    canonical texts get False (an IRI holding DEL), and are read instead."""
    return _NOT_CANONICAL_RE.search(text) is None and not text.endswith(_NOT_CANONICAL_TAILS)


def iri_text_ok(text: str) -> bool:
    """True if text is a nonempty run of IRI_CHAR."""
    return _IRI_TEXT_RE.fullmatch(text) is not None


def validate_term(term: Term) -> None:
    """Raise ValidationError if the term violates its structural invariants."""
    if isinstance(term, Iri):
        if not isinstance(term.text, str) or not iri_text_ok(term.text):
            raise ValidationError(f"malformed IRI: {term.text!r}")
    elif isinstance(term, BlankNode):
        if not isinstance(term.label, str) or not _BLANK_LABEL_RE.fullmatch(term.label):
            raise ValidationError(f"malformed blank node label: {term.label!r}")
    elif isinstance(term, Literal):
        if not isinstance(term.lex, str):
            raise ValidationError("literal lexical form must be a string")
        if _SURROGATE_RE.search(term.lex):
            raise ValidationError(f"literal holds a lone surrogate: {term.lex!r}")
        if not isinstance(term.datatype, str) or not iri_text_ok(term.datatype):
            raise ValidationError(f"malformed datatype IRI: {term.datatype!r}")
        if term.lang is not None:
            if not _LANG_TAG_RE.fullmatch(term.lang):
                raise ValidationError(f"malformed language tag: {term.lang!r}")
            if term.datatype != RDF_LANGSTRING:
                raise ValidationError(
                    "language-tagged literal must have the langString datatype"
                )
        elif term.datatype == RDF_LANGSTRING:
            raise ValidationError("langString literal requires a language tag")
    else:
        raise ValidationError(f"not a term: {term!r}")


class Dictionary:
    """Bidirectional text <-> dense id mapping, over each term's canonical text;
    its maps only ever grow, so the reader and the evaluator read them directly."""

    def __init__(self):
        self._by_text: dict[str, TermId] = {}
        self._texts: list[str] = []
        self._terms: dict[TermId, Term] = {}  # the terms interned or resolved so far
        self._blank_counter = 0

    def __len__(self) -> int:
        return len(self._texts)

    def intern(self, term: Term) -> TermId:
        """Return the id for a valid term, assigning the next dense id if new;
        a new id keeps the term, so its first resolve reads nothing."""
        validate_term(term)
        text = term_text(term)
        tid = self._by_text.get(text)
        if tid is None:
            tid = self.intern_text(text)
            self._terms[tid] = term
        return tid

    def intern_text(self, text: str) -> TermId:
        """intern for a canonical text (see canonical): it is not checked, and
        its term is built on its first resolve."""
        tid = self._by_text.get(text)
        if tid is None:
            tid = self._by_text[text] = len(self._texts)
            self._texts.append(text)
        return tid

    def lookup(self, term: Term) -> TermId | None:
        """Return the id for term without interning, or None if it is unknown
        or invalid: Iri(5) is refused, though it writes <5> like Iri("5")."""
        try:
            validate_term(term)
        except ValidationError:
            return None
        return self._by_text.get(term_text(term))

    def resolve(self, tid: TermId) -> Term:
        """The term with id tid, read from its text on the first call."""
        text = self.text(tid)
        term = self._terms.get(tid)
        if term is None:
            from .ntriples import read_term  # ntriples imports this module first
            # readers racing on one id each store an equal term, in one assignment
            term = self._terms[tid] = read_term(text)
        return term

    def text(self, tid: TermId) -> str:
        """The canonical N-Triples text of the term with id tid."""
        if not isinstance(tid, int) or tid < 0 or tid >= len(self._texts):
            raise NotFoundError(f"unknown term id: {tid}")
        return self._texts[tid]

    def fresh_blank_label(self) -> str:
        """A blank label never handed out before and not yet interned."""
        while True:
            label = f"b{self._blank_counter}"
            self._blank_counter += 1
            if f"_:{label}" not in self._by_text:
                return label

    def triple(self, s: Term, p: Term, o: Term) -> Triple:
        """Intern three terms into a Triple, enforcing position kinds."""
        if isinstance(s, Literal):
            raise ValidationError("triple subject must be an IRI or blank node")
        if not isinstance(p, Iri):
            raise ValidationError("triple predicate must be an IRI")
        return Triple(self.intern(s), self.intern(p), self.intern(o))


def _numeric_value(lit: Literal) -> float | None:
    try:
        value = float(lit.lex)
    except (ValueError, OverflowError):
        return None
    if math.isnan(value):
        return None
    return value


# what compare_keys compares of a term: a float for a literal of one of the four
# numeric XSD types, None for one that does not parse or for a term that is not
# a literal, and (datatype, lex) for any other literal
ValueKey = float | tuple[str, str] | None


def value_key(term: Term) -> ValueKey:
    """The term's value key; compare_values(a, b) compares a's with b's."""
    if not isinstance(term, Literal):
        return None
    if term.datatype in NUMERIC_DATATYPES:
        return _numeric_value(term)
    return (term.datatype, term.lex)


def compare_keys(a: ValueKey, b: ValueKey) -> int | None:
    """-1, 0 or 1 for two value keys of one kind, else None (incomparable)."""
    if a is None or a.__class__ is not b.__class__:
        return None
    if a.__class__ is tuple:
        if a[0] != b[0]:
            return None
        a, b = a[1], b[1]
    return (a > b) - (a < b)


def compare_values(a: Literal, b: Literal) -> int | None:
    """Value comparison of two literals: -1, 0, 1, or None if incomparable.

    It is compare_keys on their value keys, as in filters and MIN/MAX.  The
    four numeric XSD datatypes are promoted to double and compared
    numerically (so "12.5"^^xsd:decimal equals "12.5"^^xsd:double, and "01"
    equals "1").  Literals whose datatypes are equal and non-numeric compare
    lexicographically by code point.  Every other pair, and any numeric
    literal that fails to parse, is incomparable; callers drop the row.
    """
    if not isinstance(a, Literal) or not isinstance(b, Literal):
        raise TypeError("compare_values expects two Literals")
    return compare_keys(value_key(a), value_key(b))
