"""Line-based N-Triples reading and writing.

The accepted grammar is the line-oriented core of RDF 1.1 N-Triples: one
statement per line, full-line # comments, blank lines, IRIs in angle
brackets, _:label blank nodes, and double-quoted literals with an optional
@lang tag or ^^<datatype>.  Terms are read with one term regex, TERM_RE,
whose IRI, blank-label and language-tag parts are the pattern strings of
terms.py.  term_from_match builds every term by one path: it decodes the
escapes, constructs the term and leaves what a pattern cannot decide (what
escapes decode to, a langString datatype without a tag) to
terms.validate_term, so every term it returns is one the dictionary
accepts.  Queries read their terms with the same two.  IRIs follow IRIREF,
with the two deviations terms.IRI_CHAR records, and take only \\u/\\U
escapes; literals take those and the string escapes.  Escapes are strict:
\\uXXXX and \\UXXXXXXXX take exactly 4 or 8 hex digits naming a Unicode
scalar value.  A raw lone surrogate is rejected too, since no UTF-8 file can
hold one.  Anything else is rejected with the 1-based line number, and
term_failure names the cause where it can, for patches and queries alike.

A document is read by one statement pattern, built from TERM_RE's parts and
matched over the whole text; it alone yields statements.  If it misses a line
that is not blank or a comment, or a new term is invalid, the per-line reader
(three TERM_RE matches a line) reads the document again only to report the
first bad line.

Reading a document is all-or-nothing: terms are interned only after every
line has parsed, so a failed read leaves the dictionary untouched.  Blank
node labels are scoped to the read: a BlankScope maps each to a
dictionary-wide label at interning time.  Every other term text, without
the blanks before it, is first looked up in the dictionary's text map.  A
text it lacks that terms.canonical passes is what terms.term_text writes for
the valid term it spells, so the dictionary takes the text as it is; any
other spelling is read once per document by read_term, which query results
and Dictionary.resolve read texts with too, and the dictionary takes its
term's canonical text, so it lands on that term's id.  A load keeps no term.

Writing escapes only quotes, backslashes, and control characters, and
format_triple writes every triple, in patches and documents alike, from the
texts the dictionary keeps, so sorting, formatting and patch writing pay per
distinct term, not per occurrence.
"""

from __future__ import annotations

import contextlib
import re
from itertools import chain

from .errors import ValidationError
from .terms import (
    BLANK_LABEL,
    IRI_CHAR,
    LANG_TAG,
    XSD_STRING,
    _SURROGATE_RE,
    BlankNode,
    Dictionary,
    Iri,
    Literal,
    Term,
    Triple,
    canonical,
    term_text,
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


def term_from_match(m: re.Match | None) -> Term:
    """The valid term a TERM_RE match spells; ValidationError if there is none."""
    if m is None:
        raise ValidationError("not a term")
    iri, blank, lex, lang, datatype = m.groups()
    if blank is not None:
        term: Term = BlankNode(blank)
    elif lex is None:
        term = Iri(_decode_escapes(iri))
    else:
        term = Literal(_decode_escapes(lex), _decode_escapes(datatype or XSD_STRING), lang)
    # what escapes decode to, and a langString datatype without a tag, are
    # beyond the pattern
    validate_term(term)
    return term


def read_term(text: str) -> Term:
    """The valid term a whole N-Triples text spells; ValidationError if none."""
    return term_from_match(TERM_RE.fullmatch(text))


def _match_statement(text: str, line: int) -> tuple[re.Match, re.Match, re.Match]:
    """The matches of one statement's three terms, each of a kind its
    position allows, followed by the final dot."""
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
    return s, p, o


def _term_at(m: re.Match, line: int) -> Term:
    try:
        return term_from_match(m)
    except ValidationError as e:
        raise ValidationError(f"line {line}: {e}") from None


class BlankScope:
    """What several documents read into one dictionary share.

    Blank labels: rename maps a document-local label to a dictionary-wide
    one, a label to a label, so a read builds no BlankNode.  A source label
    is kept verbatim when no interned blank node uses it yet, so reloading a
    repository reproduces its labels byte-for-byte; only a label already
    taken by an earlier document is renamed.
    """

    def __init__(self, dictionary: Dictionary):
        self._dictionary = dictionary
        self._mapping: dict[str, str] = {}
        self._used: set[str] = set()

    @classmethod
    def of_history(cls, dictionary: Dictionary) -> BlankScope:
        """The scope a load of a saved history leaves: each blank label the
        dictionary holds names its own node, so a later patch that writes it
        means that node."""
        scope = cls(dictionary)
        scope._used = {text[2:] for text in dictionary._texts if text.startswith("_:")}
        scope._mapping = {label: label for label in scope._used}
        return scope

    def rename(self, label: str) -> str:
        new = self._mapping.get(label)
        if new is None:
            if f"_:{label}" not in self._dictionary._by_text and label not in self._used:
                new = label
            else:
                new = self._dictionary.fresh_blank_label()
                while new in self._used:
                    new = self._dictionary.fresh_blank_label()
            self._mapping[label] = new
            self._used.add(new)
        return new


def _raise_first_error(text: str, marks: str) -> None:
    """The per-line reader, which only reports errors: it raises a
    ValidationError naming the first line that is not a valid statement."""
    # split on real newlines only: unicode line separators (NEL, LS, PS) are
    # legal raw characters inside a literal and must not break a statement
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if marks:
            if len(line) < 2 or line[0] not in marks or line[1] not in " \t":
                expected = " or ".join(f"'{m} '" for m in marks)
                raise ValidationError(f"line {lineno}: lines must start with {expected}")
            line = line[2:]
        for m in _match_statement(line, lineno):
            _term_at(m, lineno)


# a statement's term texts, without the blanks before them.  Each is followed
# by a blank, "." or "<", and a shorter reading of one by none of these, so no
# backtracking reads a line otherwise than _match_statement does.  Its
# classes let lone surrogates through, which stop TERM_RE short of a whole
# text: with the surrogate range, re takes several ms to compile the pattern
_IRI, _BLANK = rf"<{_IRI_RAW}>", rf"_:{BLANK_LABEL}"
_LITERAL = rf'"{_LEX_CHAR}*(?:\\[^\n]{_LEX_CHAR}*)*"(?:@{LANG_TAG}|\^\^<{_IRI_RAW}>)?'
_STATEMENT = rf"({_IRI}|{_BLANK})[ \t]*({_IRI})[ \t]*({_IRI}|{_BLANK}|{_LITERAL})".replace(
    r"\ud800-\udfff", ""
)
# a line that is neither blank nor a comment, by the rule of _raise_first_error
_STATEMENT_LINE_RE = re.compile(r"^[^\S\n]*[^\s#][^\n]*", re.MULTILINE)


def read_statements(
    text: str, dictionary: Dictionary, scope: BlankScope | None = None, marks: str = ""
) -> list[tuple[str, Triple]]:
    """Parse a document's statements and intern them, all or nothing.

    With marks, every statement line starts with one of its characters and a
    space or tab, and that character is returned with the triple; otherwise
    the mark is "".  Passing a scope, made for this dictionary, shares
    blank-label freshening across several documents; the default is a fresh
    scope per call.
    """
    if scope is None:
        scope = BlankScope(dictionary)
    elif scope._dictionary is not dictionary:
        raise ValueError("the scope was made for another dictionary")
    by_text = dictionary._by_text
    mark = f"([{re.escape(marks)}])[ \t]" if marks else "()"  # re caches the compiled pattern
    rows = re.findall(rf"^{mark}[ \t]*{_STATEMENT}[ \t]*\.[ \t]*\r?$", text, re.MULTILINE)
    keys = dict.fromkeys(chain.from_iterable(rows))  # each text where it first occurs
    for m in (*marks, ""):  # a mark is not a term
        keys.pop(m, None)
    read, lines = None, text.count("\n") + (not text.endswith("\n"))
    # each row is a whole line: every line is one, or no statement line is left over
    if len(rows) == lines or len(rows) == len(_STATEMENT_LINE_RE.findall(text)):
        with contextlib.suppress(ValidationError):  # the new texts that are not canonical
            read = {
                key: term_text(read_term(key))
                for key in keys
                if key not in by_text and not key.startswith("_:") and not canonical(key)
            }
    if read is None:  # the per-line reader raises the first error, with its line
        _raise_first_error(text, marks)
        raise AssertionError("the statement pattern missed a statement the per-line reader reads")

    # every line has parsed: intern each text in order, one read above as its
    # term's canonical text; all are valid, and so are a scope's labels
    intern_text = dictionary.intern_text
    tids = {
        key: intern_text(f"_:{scope.rename(key[2:])}") if key.startswith("_:")
        else by_text[key] if key in by_text
        else intern_text(read.get(key, key))
        for key in keys
    }
    make = tuple.__new__  # what Triple._make calls, without its length check
    return [(mark, make(Triple, (tids[s], tids[p], tids[o]))) for mark, s, p, o in rows]


def parse_ntriples(text: str, dictionary: Dictionary) -> list[Triple]:
    """Parse a document into dictionary-backed triples, all or nothing."""
    return [triple for _, triple in read_statements(text, dictionary)]


def format_term(term: Term) -> str:
    """One term in N-Triples syntax; ValidationError if it is not a term."""
    if not isinstance(term, (Iri, BlankNode, Literal)):
        raise ValidationError(f"not a term: {term!r}")
    return term_text(term)


def format_triple(triple: Triple, dictionary: Dictionary) -> str:
    """One triple as `s p o`, without the final dot: the only triple writer."""
    return " ".join(map(dictionary.text, triple))


def serialize_ntriples(triples: set[Triple] | list[Triple], dictionary: Dictionary) -> str:
    """Serialize triples one per line, sorted by their term serializations.

    The sort key is textual, not id-based, so the same graph serializes to
    the same bytes regardless of interning order.  The joined line sorts as
    its three texts would: no term text goes on from a prefix with a space.
    """
    lines = sorted(format_triple(t, dictionary) for t in triples)
    return "".join(f"{line} .\n" for line in lines)
