"""Parser for the query subset understood by the engine.

Supported shape (see README for the full grammar):

    PREFIX ex: <http://ex.org/>
    SELECT [DISTINCT] ?var... | (COUNT|MIN|MAX(?var) AS ?alias)...
    WHERE {
      ?s ex:p ?o .
      GRAPH ?v { ?s ex:q ?o2 . ... }
      GRAPH <urn:vg:version:3> { ... }
      FILTER(?o > 10 && isHead(?v))
    }
    GROUP BY ?var...

A variable used as a GRAPH name ranges over versions; it may be projected,
grouped, counted, and tested with isHead(), but it cannot appear in a triple
pattern position or a comparison.  Triple patterns outside any GRAPH block are
matched against the head of branch "main".  Blank nodes in patterns act as
non-distinguished variables.  Comparisons are value comparisons over
literals.  A filter may only mention variables introduced by earlier
patterns, so left-to-right evaluation is well defined.

IRIs in angle brackets, blank nodes and literals are read by the patch
reader, ntriples.TERM_RE and term_from_match; the rest is query syntax.  A
term the parser builds (a prefixed name, a tag or datatype after a space)
goes through validate_term, so a constant no patch could hold is a
QueryError with its position, not a pattern that matches nothing.

Not supported, by design: OPTIONAL, UNION, property paths, subqueries,
ORDER BY, LIMIT.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TypeVar

from .errors import QueryError, ValidationError
from .ntriples import TERM_RE, term_failure, term_from_match
from .terms import (
    LANG_TAG,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    BlankNode,
    Iri,
    Literal,
    Term,
    validate_term,
)

_T = TypeVar("_T", Iri, Literal)

# --- AST ---------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class TriplePattern:
    s: Var | Iri
    p: Var | Iri
    o: Var | Term


@dataclass(frozen=True)
class GraphBlock:
    name: Var | Iri
    patterns: tuple[TriplePattern, ...]


@dataclass(frozen=True)
class Comparison:
    op: str  # one of < <= = != >= >
    lhs: Var | Literal
    rhs: Var | Literal


@dataclass(frozen=True)
class And:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Or:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class IsHead:
    var: Var


Expr = Comparison | And | Or | Not | IsHead


@dataclass(frozen=True)
class Filter:
    expr: Expr


@dataclass(frozen=True)
class Aggregate:
    func: str  # COUNT | MIN | MAX
    arg: Var
    alias: Var


@dataclass(frozen=True)
class SelectClause:
    distinct: bool
    items: tuple[Var | Aggregate, ...]
    group_by: tuple[Var, ...] = ()


Element = TriplePattern | GraphBlock | Filter


@dataclass(frozen=True)
class Query:
    prefixes: tuple[tuple[str, str], ...]
    select: SelectClause
    where: tuple[Element, ...]

    def version_vars(self) -> set[str]:
        return {
            e.name.name
            for e in self.where
            if isinstance(e, GraphBlock) and isinstance(e.name, Var)
        }


# --- Tokenizer ---------------------------------------------------------

_TOKEN_RE = re.compile(
    rf"""
      (?P<WS>\s+)
    | (?P<COMMENT>\#[^\n]*)
    | (?P<VAR>\?[A-Za-z_][A-Za-z0-9_]*)
    | (?P<LANGTAG>@{LANG_TAG})
    | (?P<NUMBER>[+-]?[0-9]+(?:\.[0-9]+)?)
    | (?P<PNAME>(?:[A-Za-z_][A-Za-z0-9_-]*)?:(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?)
    | (?P<WORD>[A-Za-z][A-Za-z0-9_]*)
    | (?P<DTANNOT>\^\^)
    | (?P<OP>&&|\|\||<=|>=|!=|[{{}}().=<>!,])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    col: int
    term: Term | None = None  # the valid term a TERM token spells


_EOF = "end of query"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        col = pos - line_start + 1
        # an IRI, blank node or literal starts here, unless a "<" is an operator;
        # a term holds no raw line feed, so the line count stands
        m = TERM_RE.match(text, pos) if text.startswith(("<", '"', "_:"), pos) else None
        if m is not None:
            try:
                tokens.append(_Token("TERM", m.group(), line, col, term_from_match(m)))
            except ValidationError as e:
                raise QueryError(str(e), line, col) from None
            pos = m.end()
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # no token starts with a quote: it opens a string TERM_RE cannot read
            cause = term_failure(text, pos) if text[pos] == '"' else None
            raise QueryError(cause or f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        value = m.group()
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# --- Parser ------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        self._blank_vars: dict[str, Var] = {}

    # token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> QueryError:
        tok = tok or self.peek()
        return QueryError(message, tok.line, tok.col)

    def at_word(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "WORD" and tok.value.upper() in words

    def expect_word(self, word: str) -> _Token:
        if not self.at_word(word):
            raise self.error(f"expected {word}, found {self._shown()}")
        return self.next()

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.value != op:
            raise self.error(f"expected {op!r}, found {self._shown()}")
        return self.next()

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.value in ops

    def _shown(self) -> str:
        tok = self.peek()
        return _EOF if tok.kind == "EOF" else repr(tok.value)

    # grammar

    def parse(self) -> Query:
        while self.at_word("PREFIX"):
            self.parse_prefix()
        select = self.parse_select()
        if self.at_word("WHERE"):
            self.next()
        where = self.parse_group()
        group_by: tuple[Var, ...] = ()
        if self.at_word("GROUP"):
            self.next()
            self.expect_word("BY")
            names = []
            while self.peek().kind == "VAR":
                names.append(Var(self.next().value[1:]))
            if not names:
                raise self.error("GROUP BY needs at least one variable")
            group_by = tuple(names)
        if self.peek().kind != "EOF":
            raise self.error(f"unexpected {self._shown()} after query")
        select = SelectClause(select.distinct, select.items, group_by)
        query = Query(
            prefixes=tuple(sorted(self.prefixes.items())),
            select=select,
            where=where,
        )
        _validate(query)
        return query

    def parse_prefix(self) -> None:
        self.next()
        tok = self.peek()
        if tok.kind != "PNAME" or not tok.value.endswith(":") or ":" in tok.value[:-1]:
            raise self.error("expected a prefix name like ex:")
        name = self.next().value[:-1]
        tok = self.peek()
        if not isinstance(tok.term, Iri):
            raise self.error("expected an IRI in angle brackets")
        self.prefixes[name] = self.next().term.text

    def parse_select(self) -> SelectClause:
        self.expect_word("SELECT")
        distinct = False
        if self.at_word("DISTINCT"):
            self.next()
            distinct = True
        items: list[Var | Aggregate] = []
        while True:
            tok = self.peek()
            if tok.kind == "VAR":
                items.append(Var(self.next().value[1:]))
            elif self.at_op("("):
                items.append(self.parse_aggregate())
            else:
                break
        if not items:
            raise self.error("SELECT needs at least one variable or aggregate")
        return SelectClause(distinct, tuple(items))

    def parse_aggregate(self) -> Aggregate:
        self.expect_op("(")
        if not self.at_word("COUNT", "MIN", "MAX"):
            raise self.error("expected COUNT, MIN, or MAX")
        func = self.next().value.upper()
        self.expect_op("(")
        tok = self.peek()
        if tok.kind != "VAR":
            raise self.error("aggregates take a single variable")
        arg = Var(self.next().value[1:])
        self.expect_op(")")
        self.expect_word("AS")
        tok = self.peek()
        if tok.kind != "VAR":
            raise self.error("expected an alias variable after AS")
        alias = Var(self.next().value[1:])
        self.expect_op(")")
        return Aggregate(func, arg, alias)

    def parse_group(self) -> tuple[Element, ...]:
        self.expect_op("{")
        elements: list[Element] = []
        while not self.at_op("}"):
            if self.peek().kind == "EOF":
                raise self.error("missing closing '}'")
            if self.at_word("GRAPH"):
                elements.append(self.parse_graph_block())
            elif self.at_word("FILTER"):
                self.next()
                self.expect_op("(")
                expr = self.parse_or()
                self.expect_op(")")
                elements.append(Filter(expr))
            else:
                elements.append(self.parse_pattern())
                if self.at_op("."):
                    self.next()
                elif not (self.at_op("}") or self.at_word("GRAPH", "FILTER")):
                    raise self.error("expected '.' between triple patterns")
        self.next()
        if not elements:
            raise self.error("empty WHERE group")
        return tuple(elements)

    def parse_graph_block(self) -> GraphBlock:
        self.next()
        tok = self.peek()
        if tok.kind == "VAR":
            name: Var | Iri = Var(self.next().value[1:])
        else:
            name = self.parse_iri("GRAPH name")
        self.expect_op("{")
        patterns: list[TriplePattern] = []
        while not self.at_op("}"):
            if self.peek().kind == "EOF":
                raise self.error("missing closing '}' in GRAPH block")
            patterns.append(self.parse_pattern())
            if self.at_op("."):
                self.next()
            elif not self.at_op("}"):
                raise self.error("expected '.' between triple patterns")
        self.next()
        # an empty block is legal: it constrains nothing, so a variable name
        # ranges over the whole version domain
        return GraphBlock(name, tuple(patterns))

    def parse_pattern(self) -> TriplePattern:
        s = self.parse_term(position="subject")
        p = self.parse_term(position="predicate")
        o = self.parse_term(position="object")
        return TriplePattern(s, p, o)

    def parse_iri(self, what: str) -> Iri:
        tok = self.peek()
        if isinstance(tok.term, Iri):
            self.next()
            return tok.term
        if tok.kind == "PNAME":
            self.next()
            prefix, _, local = tok.value.partition(":")
            if prefix not in self.prefixes:
                raise self.error(f"unknown prefix: {prefix}:", tok)
            return self.checked(Iri(self.prefixes[prefix] + local), tok)
        raise self.error(f"expected an IRI as {what}, found {self._shown()}")

    def checked(self, term: _T, tok: _Token) -> _T:
        """A term the parser built itself, if valid; tok is where it starts."""
        try:
            validate_term(term)
        except ValidationError as e:
            raise self.error(str(e), tok) from None
        return term

    def parse_term(self, position: str) -> Var | Term:
        tok = self.peek()
        if tok.kind == "VAR":
            self.next()
            return Var(tok.value[1:])
        if isinstance(tok.term, BlankNode):
            if position == "predicate":
                raise self.error("a blank node cannot be a predicate")
            self.next()
            label = tok.term.label
            if label not in self._blank_vars:
                self._blank_vars[label] = Var(f"_:{label}")
            return self._blank_vars[label]
        if isinstance(tok.term, Iri) or tok.kind == "PNAME":
            return self.parse_iri(position)
        if tok.kind == "WORD" and tok.value == "a":
            if position != "predicate":
                raise self.error("'a' is only allowed as a predicate")
            self.next()
            return Iri(RDF_TYPE)
        if position in ("subject", "predicate"):
            raise self.error(f"expected an IRI or variable as {position}")
        return self.parse_literal()

    def parse_literal(self) -> Literal:
        tok = self.peek()
        if isinstance(tok.term, Literal):
            self.next()
            # a bare string may take a spaced tag or datatype, or ^^prefix:name
            if tok.value.endswith('"'):
                nxt = self.peek()
                if nxt.kind == "LANGTAG":
                    self.next()
                    return self.checked(Literal(tok.term.lex, lang=nxt.value[1:]), tok)
                if nxt.kind == "DTANNOT":
                    self.next()
                    dt = self.parse_iri("datatype")
                    return self.checked(Literal(tok.term.lex, dt.text), tok)
            return tok.term
        if tok.kind == "NUMBER":
            self.next()
            dt = XSD_DECIMAL if "." in tok.value else XSD_INTEGER
            return Literal(tok.value, dt)
        if tok.kind == "WORD" and tok.value in ("true", "false"):
            self.next()
            return Literal(tok.value, XSD_BOOLEAN)
        raise self.error(f"expected a literal, found {self._shown()}")

    # filter expressions, lowest precedence first

    def parse_or(self) -> Expr:
        expr = self.parse_and()
        while self.at_op("||"):
            self.next()
            expr = Or(expr, self.parse_and())
        return expr

    def parse_and(self) -> Expr:
        expr = self.parse_unary()
        while self.at_op("&&"):
            self.next()
            expr = And(expr, self.parse_unary())
        return expr

    def parse_unary(self) -> Expr:
        if self.at_op("!"):
            self.next()
            return Not(self.parse_unary())
        if self.at_op("("):
            self.next()
            expr = self.parse_or()
            self.expect_op(")")
            return expr
        if self.at_word("ISHEAD"):
            self.next()
            self.expect_op("(")
            tok = self.peek()
            if tok.kind != "VAR":
                raise self.error("isHead takes a version variable")
            var = Var(self.next().value[1:])
            self.expect_op(")")
            return IsHead(var)
        return self.parse_comparison()

    def parse_comparison(self) -> Comparison:
        lhs = self.parse_operand()
        tok = self.peek()
        if tok.kind != "OP" or tok.value not in ("<", "<=", "=", "!=", ">=", ">"):
            raise self.error(f"expected a comparison operator, found {self._shown()}")
        op = self.next().value
        rhs = self.parse_operand()
        return Comparison(op, lhs, rhs)

    def parse_operand(self) -> Var | Literal:
        tok = self.peek()
        if tok.kind == "VAR":
            self.next()
            return Var(tok.value[1:])
        return self.parse_literal()


# --- Validation --------------------------------------------------------


def _pattern_vars(pattern: TriplePattern) -> set[str]:
    return {slot.name for slot in (pattern.s, pattern.p, pattern.o) if isinstance(slot, Var)}


def _expr_vars(expr: Expr) -> tuple[set[str], set[str]]:
    """(comparison variables, isHead variables) mentioned in expr."""
    if isinstance(expr, Comparison):
        names = {t.name for t in (expr.lhs, expr.rhs) if isinstance(t, Var)}
        return names, set()
    if isinstance(expr, (And, Or)):
        a1, a2 = _expr_vars(expr.lhs)
        b1, b2 = _expr_vars(expr.rhs)
        return a1 | b1, a2 | b2
    if isinstance(expr, Not):
        return _expr_vars(expr.operand)
    return set(), {expr.var.name}


def _validate(query: Query) -> None:
    version_vars = query.version_vars()
    data_vars: set[str] = set()
    for element in query.where:
        if isinstance(element, GraphBlock):
            for pattern in element.patterns:
                data_vars |= _pattern_vars(pattern)
        elif isinstance(element, TriplePattern):
            data_vars |= _pattern_vars(element)
    clash = version_vars & data_vars
    if clash:
        raise QueryError(
            f"version variable ?{sorted(clash)[0]} also used as a data variable"
        )

    introduced: set[str] = set()
    for element in query.where:
        if isinstance(element, GraphBlock):
            if isinstance(element.name, Var):
                introduced.add(element.name.name)
            for pattern in element.patterns:
                introduced |= _pattern_vars(pattern)
        elif isinstance(element, TriplePattern):
            introduced |= _pattern_vars(element)
        else:
            cmp_vars, head_vars = _expr_vars(element.expr)
            for name in sorted(cmp_vars | head_vars):
                if name not in introduced:
                    raise QueryError(
                        f"filter references ?{name} before any pattern introduces it"
                    )
            for name in sorted(cmp_vars & version_vars):
                raise QueryError(
                    f"version variable ?{name} cannot appear in a comparison"
                )
            for name in sorted(head_vars - version_vars):
                raise QueryError(f"isHead argument ?{name} is not a version variable")

    available = version_vars | data_vars
    aggregates = [i for i in query.select.items if isinstance(i, Aggregate)]
    plain = [i for i in query.select.items if isinstance(i, Var)]
    for item in plain:
        if item.name not in available:
            raise QueryError(f"projected variable ?{item.name} never appears in a pattern")
    for agg in aggregates:
        if agg.arg.name not in available:
            raise QueryError(f"aggregated variable ?{agg.arg.name} never appears in a pattern")
    seen_names: set[str] = set()
    for item in query.select.items:
        name = item.name if isinstance(item, Var) else item.alias.name
        if name in seen_names:
            raise QueryError(f"duplicate name ?{name} in SELECT")
        seen_names.add(name)
    for agg in aggregates:
        if agg.alias.name in available:
            raise QueryError(
                f"aggregate alias ?{agg.alias.name} collides with a pattern variable"
            )
    if query.select.group_by:
        if not aggregates:
            raise QueryError("GROUP BY requires at least one aggregate in SELECT")
        for var in query.select.group_by:
            if var.name not in available:
                raise QueryError(
                    f"GROUP BY variable ?{var.name} never appears in a pattern"
                )
    if aggregates:
        group_names = {v.name for v in query.select.group_by}
        for item in plain:
            if item.name not in group_names:
                raise QueryError(
                    f"projected variable ?{item.name} must be in GROUP BY "
                    "when aggregates are present"
                )


def parse_query(text: str) -> Query:
    """Parse and validate a query; raises QueryError with a position."""
    return _Parser(text).parse()
