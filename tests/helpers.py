"""Shared builders: randomized repositories and queries over a fixed vocabulary.

The repository builder always produces at least one side branch and one merge
so head-sensitive behavior is never vacuously tested.  The query builder only
emits queries that are valid under the grammar's scoping rules (filters after
the patterns that introduce their variables, version variables only in GRAPH
names / isHead / projection / aggregation).
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone
from itertools import product

from hypothesis import strategies as st

from vgstore.dag import Provenance, VersionDag
from vgstore.ntriples import BlankScope, _match_statement, _term_at, format_term
from vgstore.store import AnnotatedStore, Delta
from vgstore.terms import (
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    BlankNode,
    Dictionary,
    Iri,
    Literal,
    Term,
    Triple,
)

EPOCH = datetime(2026, 3, 1, tzinfo=timezone.utc)

SUBJECTS = [Iri(f"urn:ex:s{i}") for i in range(4)]
BLANK_SUBJECTS = [BlankNode("n0"), BlankNode("n1")]
PREDICATES = [Iri(f"urn:ex:p{i}") for i in range(3)]
LITERAL_OBJECTS = [
    Literal("1", XSD_INTEGER),
    Literal("01", XSD_INTEGER),
    Literal("2", XSD_INTEGER),
    Literal("2.5", XSD_DECIMAL),
    Literal("12.5", XSD_DECIMAL),
    Literal("true", XSD_BOOLEAN),
    Literal("alpha"),
    Literal("beta"),
]
IRI_OBJECTS = [Iri("urn:ex:o0"), Iri("urn:ex:o1")]
OBJECTS = IRI_OBJECTS + LITERAL_OBJECTS


def triple_pool(
    rng: random.Random, store: AnnotatedStore, allow_blanks: bool = False
) -> list[Triple]:
    subjects = SUBJECTS + (BLANK_SUBJECTS if allow_blanks else [])
    combos = list(product(subjects, PREDICATES, OBJECTS))
    size = rng.randint(20, 50)
    d = store.dictionary
    return [
        Triple(d.intern(s), d.intern(p), d.intern(o))
        for s, p, o in rng.sample(combos, size)
    ]


def random_repo(
    rng: random.Random,
    encoding: str = "extension",
    max_versions: int = 12,
    allow_blanks: bool = False,
    history: list | None = None,
) -> tuple[AnnotatedStore, VersionDag]:
    """A repository with 4..max_versions versions, a side branch, and a merge.

    When a list is passed as history it receives one (parents, delta) pair
    per commit, in order, so callers can replay the construction.
    """
    assert max_versions >= 4
    store = AnnotatedStore(encoding=encoding)
    dag = VersionDag()
    pool = triple_pool(rng, store, allow_blanks)
    target = rng.randint(4, max_versions)

    def key(t: Triple):
        return (t.s, t.p, t.o)

    def commit(parents: list[int], branch: str, min_adds: int = 0) -> None:
        base = store.materialize(parents[0]) if parents else set()
        union = set(base)
        for p in parents[1:]:
            union |= store.materialize(p)
        # additions avoid only the first parent, so merges sometimes re-add
        # a triple the other parent already holds
        available = [t for t in pool if t not in base]
        n_add = rng.randint(min_adds, min(4, len(available)))
        adds = set(rng.sample(available, n_add))
        rems = set()
        if union:
            pickable = sorted(union - adds, key=key)
            rems = set(rng.sample(pickable, min(len(pickable), rng.randint(0, 2))))
        seq = len(dag)
        delta = Delta(frozenset(adds), frozenset(rems))
        if history is not None:
            history.append((list(parents), delta))
        store.apply_commit(
            dag, parents, branch, delta,
            message=f"step {seq}", author="gen",
            timestamp=EPOCH + timedelta(minutes=seq),
            provenance=Provenance(code_ref=f"step:{seq}", tool="testgen"),
        )

    commit([], "main", min_adds=2)
    for _ in range(rng.randint(0, target - 3)):
        commit([dag.branch_head("main")], "main")
    dag.create_branch("side", at=rng.randrange(len(dag)))
    commit([dag.branch_head("side")], "side")
    commit([dag.branch_head("main"), dag.branch_head("side")], "main")
    extra = 0
    while len(dag) < target:
        if rng.random() < 0.15:
            extra += 1
            name = f"topic{extra}"
            dag.create_branch(name, at=rng.randrange(len(dag)))
            commit([dag.branch_head(name)], name)
        else:
            branch = rng.choice(sorted(dag.branches))
            commit([dag.branch_head(branch)], branch)
    return store, dag


def scan_version(store: AnnotatedStore, v: int) -> set[Triple]:
    """Version v's triples by a full scan of the store's version sets."""
    return {triple for triple, vset in store.match() if v in vset}


def version_set(store: AnnotatedStore, triple: Triple):
    """The live version set of a triple, or None if never stored."""
    return dict(store.match(*triple)).get(triple)


def assert_versions_are_scans(store: AnnotatedStore) -> None:
    """Every version materializes as a full scan, into a fresh set."""
    for v in range(store.n_versions):
        content = store.materialize(v)
        assert content == scan_version(store, v)
        content.add(None)
        assert None not in store.materialize(v)


def parse_statement(text: str, line: int = 1) -> tuple[Term, Term, Term]:
    """Parse one `subject predicate object .` statement into valid terms, the
    way the per-line reader reads it: the reference for the statement
    pattern."""
    s, p, o = _match_statement(text, line)
    return _term_at(s, line), _term_at(p, line), _term_at(o, line)


def terms_by_id(d: Dictionary) -> list[tuple[str, Term]]:
    """Each id's text and term, in id order, read through text and resolve."""
    return [(d.text(i), d.resolve(i)) for i in range(len(d))]


def reference_interning(patches: list[str]) -> Dictionary:
    """The dictionary a load of these patches builds, by the plain rule:
    each statement is built into terms, then its blank labels are renamed
    and its terms interned, statement by statement."""
    d = Dictionary()
    scope = BlankScope(d)
    for text in patches:
        lines = [line for line in text.split("\n") if line.strip() and line[0] != "#"]
        statements = [parse_statement(line[2:], n) for n, line in enumerate(lines, 1)]
        for s, p, o in statements:
            if isinstance(s, BlankNode):
                s = BlankNode(scope.rename(s.label))
            if isinstance(o, BlankNode):
                o = BlankNode(scope.rename(o.label))
            d.triple(s, p, o)
    return d


def reference_delta(store: AnnotatedStore, dag: VersionDag, v: int) -> Delta:
    """The reference rule for v's saved patch, from full scans: what v holds
    that no parent holds, and what some parent holds that v does not."""
    content = scan_version(store, v)
    union = set().union(*(scan_version(store, p) for p in dag.commit_meta(v).parents))
    return Delta(frozenset(content - union), frozenset(union - content))


def random_query(rng: random.Random, n_versions: int) -> str:
    """Query text valid for any repository built over the shared vocabulary."""
    in_scope: list[str] = []
    version_vars = ["v"]
    parts: list[tuple[str, bool]] = []  # (text, is bare triple pattern)

    def var(fresh_bias: float = 0.5) -> str:
        unused = [n for n in ("x", "y", "z") if n not in in_scope]
        if unused and (not in_scope or rng.random() < fresh_bias):
            name = unused[0]
            in_scope.append(name)
            return name
        return rng.choice(in_scope)

    def pattern() -> str:
        if rng.random() < 0.6:
            s = f"?{var()}"
        else:
            s = format_term(rng.choice(SUBJECTS))
        if rng.random() < 0.2:
            p = f"?{var(fresh_bias=0.3)}"
        else:
            p = format_term(rng.choice(PREDICATES))
        if rng.random() < 0.45:
            o = f"?{var()}"
        else:
            o = format_term(rng.choice(OBJECTS))
        return f"{s} {p} {o}"

    body = " . ".join(pattern() for _ in range(rng.randint(1, 2)))
    parts.append((f"GRAPH ?v {{ {body} }}", False))
    if rng.random() < 0.25:
        parts.append((pattern(), True))
    if rng.random() < 0.2:
        seq = rng.randint(0, n_versions + 1)
        parts.append((f"GRAPH <urn:vg:version:{seq}> {{ {pattern()} }}", False))
    if rng.random() < 0.15:
        version_vars.append("w")
        parts.append((f"GRAPH ?w {{ {pattern()} }}", False))
    if rng.random() < 0.25:
        # an empty block ranges its variable over the whole version domain
        name = rng.choice(["v", "w"])
        if name not in version_vars:
            version_vars.append(name)
        parts.append((f"GRAPH ?{name} {{ }}", False))
    rng.shuffle(parts)

    if rng.random() < 0.45:
        conjuncts = []
        if in_scope and rng.random() < 0.8:
            lhs = rng.choice(in_scope)
            if len(in_scope) >= 2 and rng.random() < 0.4:
                rhs = f"?{rng.choice(in_scope)}"
            else:
                rhs = format_term(rng.choice(LITERAL_OBJECTS))
            op = rng.choice(["<", "<=", "=", "!=", ">=", ">"])
            comparison = f"?{lhs} {op} {rhs}"
            if rng.random() < 0.2:
                comparison = f"!({comparison})"
            conjuncts.append(comparison)
        if rng.random() < 0.4 or not conjuncts:
            conjuncts.append(f"isHead(?{rng.choice(version_vars)})")
        joiner = rng.choice([" && ", " || "]) if len(conjuncts) > 1 else ""
        parts.append((f"FILTER({joiner.join(conjuncts)})", False))

    pieces = []
    for i, (text, bare) in enumerate(parts):
        pieces.append(text)
        if bare and i + 1 < len(parts) and parts[i + 1][1]:
            pieces.append(".")
    where = " ".join(pieces)

    all_vars = in_scope + version_vars
    group = ""
    if not in_scope or rng.random() < 0.6:
        chosen = rng.sample(all_vars, rng.randint(1, len(all_vars)))
        distinct = "DISTINCT " if rng.random() < 0.5 else ""
        select = distinct + " ".join(f"?{n}" for n in chosen)
    else:
        if rng.random() < 0.15:
            func, arg = "COUNT", rng.choice(version_vars)
        else:
            func = rng.choice(["COUNT", "MIN", "MAX"])
            arg = rng.choice(in_scope)
        if rng.random() < 0.5:
            g = rng.choice(all_vars)
            select = f"?{g} ({func}(?{arg}) AS ?agg)"
            group = f" GROUP BY ?{g}"
        else:
            select = f"({func}(?{arg}) AS ?agg)"
    return f"SELECT {select} WHERE {{ {where} }}{group}"


# lines over N-Triples punctuation, letters, hex digits, backslash, a
# non-ASCII letter and whitespace, shaped as a statement and drawing letters
# and digits most often, so that many draws get past the subject
_bodies = st.text(
    st.sampled_from('aeuUxAF09:#-_é' * 4 + '\\@."<> \t'), min_size=1, max_size=6
)
_iris = st.builds("<{}>".format, _bodies)
_blanks = st.builds("_:{}".format, _bodies)
_objects = st.one_of(
    _iris,
    _blanks,
    st.builds('"{}"'.format, _bodies),
    st.builds('"{}"@{}'.format, _bodies, _bodies),
    st.builds('"{}"^^<{}>'.format, _bodies, _bodies),
)
_spaces = st.sampled_from(["", " ", "\t"])
statement_lines = st.builds(
    "{}{}{}{}{}{}{}.{}".format,
    _spaces, st.one_of(_iris, _blanks), _spaces, _iris, _spaces, _objects, _spaces,
    st.one_of(_spaces, _bodies),
)


# queries naming a constant no patch could hold, with the (line, column) of
# the error each must raise instead of matching nothing
_RDF = "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
INVALID_CONSTANTS = [
    ("empty-iri", "SELECT ?s WHERE { ?s <> ?o }", (1, 22)),
    ("control-in-iri", "SELECT ?s WHERE { ?s <urn:a\x01b> ?o }", (1, 28)),
    ("empty-prefix-iri", "PREFIX e: <>\nSELECT ?s WHERE { ?s e:p ?o }", (1, 11)),
    (
        "langstring-without-tag",
        _RDF + 'SELECT ?s WHERE { ?s <urn:p> "x"^^rdf:langString }',
        (2, 30),
    ),
    ("surrogate-in-iri", "SELECT ?s WHERE { ?s <urn:a\ud800b> ?o }", (1, 28)),
    ("surrogate-in-string", 'SELECT ?s WHERE {\n ?s <urn:p> "a\ud800" }', (2, 13)),
    ("bad-escape", 'SELECT ?s WHERE { ?s <urn:p> "a\\qb" }', (1, 30)),
]
