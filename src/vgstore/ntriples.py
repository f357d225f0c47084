"""Line-based N-Triples reading and writing.

The accepted grammar is the line-oriented core of RDF 1.1 N-Triples: one
statement per line, full-line # comments, blank lines, IRIs in angle
brackets, _:label blank nodes, and double-quoted literals with an optional
@lang tag or ^^<datatype>.  A statement is read with one term regex,
TERM_RE, matched three times; its IRI, blank-label and language-tag parts are
the pattern strings of terms.py, and what a pattern cannot decide (what
escapes decode to, a langString datatype without a tag) is left to
terms.validate_term, so every term term_from_match returns is one the
dictionary accepts.  Queries read their terms with the same two.  IRIs
follow IRIREF, with the two deviations terms.IRI_CHAR records, and take only
\\u/\\U escapes; literals take those and the string escapes.  Escapes are
strict: \\uXXXX and \\UXXXXXXXX take exactly 4 or 8 hex digits naming a
Unicode scalar value.  A raw lone surrogate is rejected too, since no UTF-8
file can hold one.  Anything else is rejected with the 1-based line number,
and term_failure names the cause where it can, for patches and queries alike.

Reading a document is all-or-nothing: terms are interned only after every
line has parsed, so a failed read leaves the dictionary untouched.  Blank
node labels are scoped to the read and replaced with fresh labels at
interning time.

Writing escapes only quotes, backslashes, and control characters, and
format_triple writes every triple, in patches and documents alike.  Each term
object is serialized at most once: format_term reads the text cached on the
term (terms.term_text makes it), so sorting, formatting and patch writing pay
per distinct term, not per occurrence.
"""

from __future__ import annotations

import re

from .errors import ValidationError
from .terms import (
    BLANK_LABEL,
    IRI_CHAR,
    LANG_TAG,
    RDF_LANGSTRING,
    _SURROGATE_RE,
    BlankNode,
    Dictionary,
    Iri,
    Literal,
    Term,
    Triple,
    validate_term,
)

_ECHAR_DECODE = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}

_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.?))", re.DOTALL)

# an IRI as written: IRI characters and \u or \U escapes, which decode later;
# the escapes split runs of IRI_CHAR, so the regex scans a run in one step
# instead of trying an alternation per character, and (?!>) keeps it nonempty
_IRI_RAW = rf"(?!>){IRI_CHAR}*(?:\\[uU]{IRI_CHAR}*)*"
# a literal's body: runs of _LEX_CHAR split by escapes, likewise; no raw line
# feed, which only a query could hold
_LEX_CHAR = r'[^"\\\n\ud800-\udfff]'
# one term after optional spaces or tabs; term_from_match decodes its escapes
TERM_RE = re.compile(
    rf"[ \t]*(?:<(?P<iri>{_IRI_RAW})>|_:(?P<blank>{BLANK_LABEL})"
    rf'|"(?P<lex>{_LEX_CHAR}*(?:\\.{_LEX_CHAR}*)*)"'
    rf"(?:@(?P<lang>{LANG_TAG})|\^\^<(?P<datatype>{_IRI_RAW})>)?)",
    re.DOTALL,
)


def _decode_escapes(raw: str) -> str:
    if "\\" not in raw:
        return raw

    def decode(m: re.Match) -> str:
        digits = m[1] or m[2]
        if digits is None:
            char = _ECHAR_DECODE.get(m[3])
            if char is None:
                raise ValidationError(f"bad escape: {m[0]!r}")
            return char
        code = int(digits, 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise ValidationError(f"{m[0]!r} is not a Unicode scalar value")
        return chr(code)

    return _ESCAPE_RE.sub(decode, raw)


# a string as far as it reaches: to its closing quote, if it has one
_STRING_SPAN_RE = re.compile(r'[ \t]*"(?:[^"\\]|\\.)*("?)', re.DOTALL)
_UNREADABLE_RE = re.compile(r"[\n\ud800-\udfff]")


def term_failure(text: str, pos: int) -> str | None:
    """Why TERM_RE reads no term at pos, when the cause has a name.

    In a string that starts at pos: a raw lone surrogate or line feed, or no
    closing quote.  Anywhere else: a lone surrogate after pos.
    """
    m = _STRING_SPAN_RE.match(text, pos)
    bad = _UNREADABLE_RE.search(text, pos, m.end()) if m else _SURROGATE_RE.search(text, pos)
    if bad is None:
        return None if m is None or m[1] else "unterminated string"
    if bad[0] == "\n":
        return "raw line feed in a string"
    return f"lone surrogate U+{ord(bad[0]):04X}"


def _match_term(text: str, pos: int, line: int, where: str) -> re.Match:
    m = TERM_RE.match(text, pos)
    if m is None:
        found = text[pos:].lstrip(" \t")[:20]
        cause = term_failure(text, pos) or f"expected a term as {where}, found {found!r}"
        raise ValidationError(f"line {line}: {cause}")
    return m


def term_from_match(m: re.Match) -> Term:
    """The valid term a TERM_RE match spells; ValidationError if there is none."""
    iri, blank, lex, lang, datatype = m.groups()
    if blank is not None:
        return BlankNode(blank)
    if lex is None:
        if "\\" not in iri:
            return Iri(iri)
        term: Term = Iri(_decode_escapes(iri))
    elif lang is not None:
        return Literal(_decode_escapes(lex), RDF_LANGSTRING, lang)
    elif datatype is None:
        return Literal(_decode_escapes(lex))
    else:
        term = Literal(_decode_escapes(lex), _decode_escapes(datatype))
    # what escapes decode to, and a langString datatype without a tag, are
    # beyond the pattern
    validate_term(term)
    return term


def parse_statement(text: str, line: int = 1) -> tuple[Term, Term, Term]:
    """Parse one `subject predicate object .` statement into valid terms."""
    s = _match_term(text, 0, line, "subject")
    if s["lex"] is not None:
        raise ValidationError(f"line {line}: subject must be an IRI or blank node")
    p = _match_term(text, s.end(), line, "predicate")
    if p["iri"] is None:
        raise ValidationError(f"line {line}: predicate must be an IRI")
    o = _match_term(text, p.end(), line, "object")
    rest = text[o.end() :].strip(" \t")
    if rest != ".":
        if rest.startswith("."):
            raise ValidationError(f"line {line}: trailing content after '.': {rest[1:21]!r}")
        raise ValidationError(f"line {line}: statement must end with '.', found {rest[:20]!r}")
    try:
        return term_from_match(s), term_from_match(p), term_from_match(o)
    except ValidationError as e:
        raise ValidationError(f"line {line}: {e}") from None


class BlankScope:
    """Maps document-local blank labels to dictionary-wide ones.

    A source label is kept verbatim when no interned blank node uses it yet,
    so reloading a repository reproduces its labels byte-for-byte; only a
    label already taken by an earlier document is renamed.
    """

    def __init__(self, dictionary: Dictionary):
        self._dictionary = dictionary
        self._mapping: dict[str, str] = {}
        self._used: set[str] = set()

    def rename(self, node: BlankNode) -> BlankNode:
        label = self._mapping.get(node.label)
        if label is None:
            if self._dictionary.lookup(node) is None and node.label not in self._used:
                label = node.label
            else:
                label = self._dictionary.fresh_blank_label()
                while label in self._used:
                    label = self._dictionary.fresh_blank_label()
            self._mapping[node.label] = label
            self._used.add(label)
        return BlankNode(label)


def read_statements(
    text: str, dictionary: Dictionary, scope: BlankScope | None = None, marks: str = ""
) -> list[tuple[str, Triple]]:
    """Parse a document's statements and intern them, all or nothing.

    With marks, every statement line starts with one of its characters and a
    space or tab, and that character is returned with the triple; otherwise
    the mark is "".  Passing a scope shares blank-label freshening across
    several documents; the default is a fresh scope per call.
    """
    parsed: list[tuple[str, tuple[Term, Term, Term]]] = []
    # split on real newlines only: unicode line separators (NEL, LS, PS) are
    # legal raw characters inside a literal and must not break a statement
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        mark = ""
        if marks:
            if len(line) < 2 or line[0] not in marks or line[1] not in " \t":
                expected = " or ".join(f"'{m} '" for m in marks)
                raise ValidationError(f"line {lineno}: lines must start with {expected}")
            mark, line = line[0], line[2:]
        parsed.append((mark, parse_statement(line, lineno)))
    if scope is None:
        scope = BlankScope(dictionary)
    out: list[tuple[str, Triple]] = []
    for mark, (s, p, o) in parsed:
        if isinstance(s, BlankNode):
            s = scope.rename(s)
        if isinstance(o, BlankNode):
            o = scope.rename(o)
        out.append((mark, dictionary.triple(s, p, o)))
    return out


def parse_ntriples(text: str, dictionary: Dictionary) -> list[Triple]:
    """Parse a document into dictionary-backed triples, all or nothing."""
    return [triple for _, triple in read_statements(text, dictionary)]


def format_term(term: Term) -> str:
    """One term in N-Triples syntax."""
    try:
        return term.nt
    except AttributeError:
        raise ValidationError(f"not a term: {term!r}") from None


def format_triple(triple: Triple, dictionary: Dictionary) -> str:
    """One triple as `s p o`, without the final dot: the only triple writer."""
    return " ".join(format_term(dictionary.resolve(tid)) for tid in triple)


def serialize_ntriples(triples: set[Triple] | list[Triple], dictionary: Dictionary) -> str:
    """Serialize triples one per line, sorted by their term serializations.

    The sort key is textual, not id-based, so the same graph serializes to
    the same bytes regardless of interning order.  The joined line sorts as
    its three texts would: no term text goes on from a prefix with a space.
    """
    lines = sorted(format_triple(t, dictionary) for t in triples)
    return "".join(f"{line} .\n" for line in lines)
