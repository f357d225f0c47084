"""Line-based N-Triples reading and writing.

The accepted grammar is the line-oriented core of N-Triples: one statement
per line, full-line # comments, blank lines, IRIs in angle brackets, _:label
blank nodes, and double-quoted literals with an optional @lang tag or
^^<datatype>.  \\uXXXX and \\UXXXXXXXX escapes are accepted anywhere on
input; output only escapes quotes, backslashes, and control characters.
Anything else is rejected with the 1-based line number.

Parsing a document is all-or-nothing: terms are interned only after every
line has parsed, so a failed parse leaves the dictionary untouched.  Blank
node labels are scoped to the parsed document and replaced with fresh labels
at interning time.
"""

from __future__ import annotations

from .errors import ValidationError
from .terms import (
    RDF_LANGSTRING,
    XSD_STRING,
    BlankNode,
    Dictionary,
    Iri,
    Literal,
    Term,
    Triple,
    iri_text_ok,
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

_ECHAR_ENCODE = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


class _Cursor:
    """A scanning position inside one statement line."""

    __slots__ = ("text", "pos", "line")

    def __init__(self, text: str, line: int):
        self.text = text
        self.pos = 0
        self.line = line

    def error(self, message: str) -> ValidationError:
        return ValidationError(f"line {self.line}: {message}")

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self) -> None:
        while not self.eof() and self.text[self.pos] in " \t":
            self.pos += 1


def _decode_escapes(raw: str, cursor: _Cursor) -> str:
    if "\\" not in raw:
        return raw
    out: list[str] = []
    i = 0
    while i < len(raw):
        c = raw[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        if i + 1 >= len(raw):
            raise cursor.error("dangling backslash")
        e = raw[i + 1]
        if e in _ECHAR_DECODE:
            out.append(_ECHAR_DECODE[e])
            i += 2
        elif e in ("u", "U"):
            width = 4 if e == "u" else 8
            digits = raw[i + 2 : i + 2 + width]
            if len(digits) != width:
                raise cursor.error(f"truncated \\{e} escape")
            try:
                out.append(chr(int(digits, 16)))
            except ValueError:
                raise cursor.error(f"bad \\{e} escape: {digits!r}") from None
            i += 2 + width
        else:
            raise cursor.error(f"unknown escape: \\{e}")
    return "".join(out)


def _scan_iri(cursor: _Cursor) -> Iri:
    text = cursor.text
    end = text.find(">", cursor.pos + 1)
    if end < 0:
        raise cursor.error("unterminated IRI")
    raw = text[cursor.pos + 1 : end]
    cursor.pos = end + 1
    value = _decode_escapes(raw, cursor)
    if not iri_text_ok(value):
        raise cursor.error(f"malformed IRI: <{raw}>")
    return Iri(value)


def _scan_blank(cursor: _Cursor) -> BlankNode:
    text = cursor.text
    start = cursor.pos + 2
    end = start
    while end < len(text) and (text[end].isalnum() or text[end] == "_"):
        end += 1
    label = text[start:end]
    if not label or not (label[0].isalpha() or label[0] == "_"):
        raise cursor.error("malformed blank node label")
    cursor.pos = end
    return BlankNode(label)


def _scan_literal(cursor: _Cursor) -> Literal:
    text = cursor.text
    i = cursor.pos + 1
    while i < len(text):
        if text[i] == "\\":
            i += 2
            continue
        if text[i] == '"':
            break
        i += 1
    if i >= len(text):
        raise cursor.error("unterminated literal")
    lex = _decode_escapes(text[cursor.pos + 1 : i], cursor)
    cursor.pos = i + 1
    if cursor.peek() == "@":
        start = cursor.pos + 1
        end = start
        while end < len(text) and (text[end].isalnum() or text[end] == "-"):
            end += 1
        tag = text[start:end]
        if not tag:
            raise cursor.error("empty language tag")
        cursor.pos = end
        return Literal(lex, RDF_LANGSTRING, tag)
    if text.startswith("^^", cursor.pos):
        cursor.pos += 2
        if cursor.peek() != "<":
            raise cursor.error("datatype must be an IRI in angle brackets")
        dt = _scan_iri(cursor)
        return Literal(lex, dt.text)
    return Literal(lex)


def _scan_term(cursor: _Cursor) -> Term:
    c = cursor.peek()
    if c == "<":
        return _scan_iri(cursor)
    if c == '"':
        return _scan_literal(cursor)
    if cursor.text.startswith("_:", cursor.pos):
        return _scan_blank(cursor)
    raise cursor.error(f"expected a term, found {cursor.text[cursor.pos:][:20]!r}")


def parse_statement(text: str, line: int = 1) -> tuple[Term, Term, Term]:
    """Parse one `subject predicate object .` statement into terms."""
    cursor = _Cursor(text, line)
    cursor.skip_ws()
    subject = _scan_term(cursor)
    if isinstance(subject, Literal):
        raise cursor.error("subject must be an IRI or blank node")
    cursor.skip_ws()
    predicate = _scan_term(cursor)
    if not isinstance(predicate, Iri):
        raise cursor.error("predicate must be an IRI")
    cursor.skip_ws()
    obj = _scan_term(cursor)
    cursor.skip_ws()
    if cursor.peek() != ".":
        raise cursor.error("statement must end with '.'")
    cursor.pos += 1
    cursor.skip_ws()
    if not cursor.eof():
        raise cursor.error("trailing content after '.'")
    return subject, predicate, obj


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


def _skippable(line: str) -> bool:
    stripped = line.strip()
    return not stripped or stripped.startswith("#")


def parse_ntriples(text: str, dictionary: Dictionary) -> list[Triple]:
    """Parse a document into dictionary-backed triples, all or nothing."""
    parsed: list[tuple[Term, Term, Term]] = []
    # split on real newlines only: unicode line separators (NEL, LS, PS) are
    # legal raw characters inside a literal and must not break a statement
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        if line.endswith("\r"):
            line = line[:-1]
        if _skippable(line):
            continue
        parsed.append(parse_statement(line, lineno))
    scope = BlankScope(dictionary)
    out: list[Triple] = []
    for s, p, o in parsed:
        if isinstance(s, BlankNode):
            s = scope.rename(s)
        if isinstance(o, BlankNode):
            o = scope.rename(o)
        out.append(dictionary.triple(s, p, o))
    return out


def _escape_lex(lex: str) -> str:
    out: list[str] = []
    for ch in lex:
        if ch in _ECHAR_ENCODE:
            out.append(_ECHAR_ENCODE[ch])
        elif ord(ch) < 0x20 or ord(ch) == 0x7F:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def format_term(term: Term) -> str:
    """One term in N-Triples syntax."""
    if isinstance(term, Iri):
        return f"<{term.text}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        body = f'"{_escape_lex(term.lex)}"'
        if term.lang is not None:
            return f"{body}@{term.lang}"
        if term.datatype != XSD_STRING:
            return f"{body}^^<{term.datatype}>"
        return body
    raise ValidationError(f"not a term: {term!r}")


def format_triple(triple: Triple, dictionary: Dictionary) -> str:
    return " ".join(
        format_term(dictionary.resolve(tid)) for tid in (triple.s, triple.p, triple.o)
    )


def serialize_ntriples(triples: set[Triple] | list[Triple], dictionary: Dictionary) -> str:
    """Serialize triples one per line, sorted by their term serializations.

    The sort key is textual, not id-based, so the same graph serializes to
    the same bytes regardless of interning order.
    """
    lines = sorted(
        tuple(format_term(dictionary.resolve(tid)) for tid in (t.s, t.p, t.o))
        for t in triples
    )
    return "".join(f"{s} {p} {o} .\n" for s, p, o in lines)
