"""Synthetic evolving-city generator and benchmark harness.

The generator grows a small city graph (buildings with heights, metro
stations with accessibility flags) through a seeded random sequence of
commits, optionally branching and merging.  The harness times the canonical
queries under every encoding x evaluator configuration and enforces that all
configurations agree on every result before reporting anything.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import statistics
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from time import perf_counter

from .dag import Provenance, VersionDag
from .engine import eval_annotated, eval_checkout, format_results
from .errors import BenchError, StateError, ValidationError
from .repo import MANIFEST_NAME, holds_history, load_repository, save_repository
from .sparql import parse_query
from .store import AnnotatedStore, Delta, EMPTY_DELTA
from .terms import (
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    Dictionary,
    Iri,
    Literal,
    Triple,
)
from .versionsets import ENCODINGS

EX = "http://ex.org/"

REPORT_HEADER = (
    "scenario,encoding,evaluator,query,build_ms,scalar_cost_total,"
    "triples_sum_over_versions,latency_ms,result_hash"
)

_PREFIXES = (
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX ex: <http://ex.org/>\n"
    "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
)

# query id -> (text, version domain)
QUERIES: dict[str, tuple[str, str]] = {
    "accessible-stations": (
        _PREFIXES
        + "SELECT ?v WHERE { GRAPH ?v { ?st rdf:type ex:MetroStation . "
        '?st ex:accessible "true"^^xsd:boolean } }',
        "all",
    ),
    "max-height-all": (
        _PREFIXES
        + "SELECT (MAX(?h) AS ?m) WHERE { GRAPH ?v { ex:b1 ex:height ?h } }",
        "all",
    ),
    "max-height-heads": (
        _PREFIXES
        + "SELECT (MAX(?h) AS ?m) WHERE { GRAPH ?v { ex:b1 ex:height ?h } }",
        "heads",
    ),
    "station-types": (
        _PREFIXES + "SELECT ?v ?st WHERE { GRAPH ?v { ?st rdf:type ex:MetroStation } }",
        "all",
    ),
    "accessible-pairs": (
        _PREFIXES + "SELECT ?st ?a WHERE { GRAPH ?v { ?st ex:accessible ?a } }",
        "all",
    ),
}

ENCODING_NAMES = tuple(ENCODINGS)
EVALUATORS = {"annotated": eval_annotated, "checkout": eval_checkout}


@dataclass(frozen=True)
class ScenarioParams:
    buildings: int = 50
    stations: int = 8
    versions: int = 20
    branch_prob: float = 0.2
    churn: float = 0.05
    seed: int = 42

    def __post_init__(self):
        for name in ("buildings", "stations", "versions"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        for name in ("branch_prob", "churn"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class BenchRow:
    scenario: str
    encoding: str
    evaluator: str
    query: str
    build_ms: float
    scalar_cost_total: int
    triples_sum_over_versions: int
    latency_ms: float
    result_hash: str


def _decimal(value: float) -> Literal:
    return Literal(f"{value:.1f}", XSD_DECIMAL)


def _boolean(value: bool) -> Literal:
    return Literal("true" if value else "false", XSD_BOOLEAN)


def _root_triples(params: ScenarioParams, d: Dictionary, rng: random.Random) -> set[Triple]:
    building_type = d.intern(Iri(EX + "Building"))
    station_type = d.intern(Iri(EX + "MetroStation"))
    rdf_type = d.intern(Iri(RDF_TYPE))
    height = d.intern(Iri(EX + "height"))
    accessible = d.intern(Iri(EX + "accessible"))
    triples: set[Triple] = set()
    for i in range(1, params.buildings + 1):
        subject = d.intern(Iri(f"{EX}b{i}"))
        triples.add(Triple(subject, rdf_type, building_type))
        h = round(rng.uniform(5.0, 120.0), 1)
        triples.add(Triple(subject, height, d.intern(_decimal(h))))
    for i in range(1, params.stations + 1):
        subject = d.intern(Iri(f"{EX}st{i}"))
        triples.add(Triple(subject, rdf_type, station_type))
        flag = rng.random() < 0.3
        triples.add(Triple(subject, accessible, d.intern(_boolean(flag))))
    return triples


def _value_slots(triples: set[Triple], d: Dictionary) -> list[tuple[int, int]]:
    """The (subject, predicate) slots of the value triples, sorted by the
    texts of their subject and predicate.

    That is the order of the triples' joined lines: no two slots share both
    texts, and no subject or predicate text goes on from a prefix with a
    space.
    """
    preds = (d.lookup(Iri(EX + "height")), d.lookup(Iri(EX + "accessible")))
    keys = {t[:2] for t in triples if t.p in preds}
    return sorted(keys, key=lambda k: (d.text(k[0]), d.text(k[1])))


def _churn_delta(
    params: ScenarioParams,
    store: AnnotatedStore,
    parent: int,
    slots: list[tuple[int, int]],
    rng: random.Random,
) -> Delta:
    """Edit ceil(churn x graph size) value triples as remove+add pairs.

    slots are the parent's (subject, predicate) value slots in the order of
    their text, as _value_slots gives them: the root makes every slot, an
    edit replaces a value within its slot and a merge unions its parents',
    so they are the same for every version and generate sorts them once.  A
    commit costs one pass over the parent's triples by term id, plus the
    edits.

    At most one triple per slot is eligible, so no two picks touch the same
    slot and an addition can never coincide with a removal.  A merge can
    leave a slot with several values; only the one with the smallest
    serialization is editable, and only such a slot compares object texts.
    """
    d = store.dictionary
    height = d.lookup(Iri(EX + "height"))
    accessible = d.lookup(Iri(EX + "accessible"))
    graph = store.materialize(parent)
    values = [t for t in graph if t.p in (height, accessible)]
    pick = {t[:2]: t for t in values}
    if len(pick) < len(values):  # some slot holds several values
        for t in values:
            kept = pick[t[:2]]
            if kept is not t and d.text(t.o) < d.text(kept.o):
                pick[t[:2]] = t
    eligible = [pick[slot] for slot in slots]
    edits = min(math.ceil(params.churn * len(graph)), len(eligible))
    removals: set[Triple] = set()
    additions: set[Triple] = set()
    for old in rng.sample(eligible, edits):
        value = d.resolve(old.o)
        if old.p == height:
            drift = rng.choice((0.5, 1.0, 2.5, 5.0)) * rng.choice((-1, 1))
            new_h = round(float(value.lex) + drift, 1)
            if new_h <= 0:
                new_h = round(float(value.lex) + abs(drift), 1)
            new_id = d.intern(_decimal(new_h))
        else:
            new_id = d.intern(_boolean(value.lex != "true"))
        removals.add(old)
        additions.add(Triple(old.s, old.p, new_id))
    return Delta(frozenset(additions), frozenset(removals))


def generate(
    params: ScenarioParams,
    outdir: str | Path | None,
    encoding: str = "extension",
) -> tuple[AnnotatedStore, VersionDag]:
    """Build a deterministic scenario repository; write it when outdir is set.

    A generated commit formats no triple and sorts nothing: the value slots
    are sorted by text once, from the root, and each commit's churn step
    makes one pass over its parent's triples by term id, comparing object
    texts only in a slot a merge left with several values (see _churn_delta).

    An outdir that already holds a repository is left as it is when it holds
    exactly this scenario, byte for byte, and raises StateError otherwise.
    Saving recognizes the history on disk by commit metadata alone, and a
    scenario's metadata comes from the seed only, the same for every size of
    city, so appending to or over another scenario could mix two in one
    directory.
    """
    rng = random.Random(params.seed)
    store = AnnotatedStore(encoding=encoding)
    dag = VersionDag()
    epoch = datetime(2026, 1, 1, tzinfo=timezone.utc)
    provenance = Provenance(code_ref=f"seed:{params.seed}", tool="citygen")

    def stamp(seq: int) -> datetime:
        return epoch + timedelta(minutes=seq)

    root = _root_triples(params, store.dictionary, rng)
    slots = _value_slots(root, store.dictionary)
    store.apply_commit(
        dag, [], "main", Delta(frozenset(root), frozenset()),
        message="initial city graph", author="citygen",
        timestamp=stamp(0), provenance=provenance,
    )
    side_branch: str | None = None
    side_count = 0
    for seq in range(1, params.versions):
        if side_branch is not None and rng.random() < 0.15:
            parents = [dag.branch_head("main"), dag.branch_head(side_branch)]
            if parents[0] != parents[1]:
                store.apply_commit(
                    dag, parents, "main", EMPTY_DELTA,
                    message=f"merge {side_branch} into main", author="citygen",
                    timestamp=stamp(seq), provenance=provenance,
                )
                side_branch = None
                continue
        if rng.random() < params.branch_prob:
            if side_branch is None:
                side_count += 1
                side_branch = f"scenario{side_count}"
                dag.create_branch(side_branch, at=dag.branch_head("main"))
            branch = side_branch
        else:
            branch = "main"
        parent = dag.branch_head(branch)
        delta = _churn_delta(params, store, parent, slots, rng)
        store.apply_commit(
            dag, [parent], branch, delta,
            message=f"edit {len(delta.removals)} values on {branch}",
            author="citygen", timestamp=stamp(seq), provenance=provenance,
        )
    if outdir is not None:
        if not (Path(outdir) / MANIFEST_NAME).exists():
            save_repository(store, dag, outdir)
        elif not holds_history(store, dag, outdir):
            raise StateError(f"{outdir} holds another repository; generate into a new directory")
    return store, dag


def _hash_table(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(repo_dir: str | Path, runs: int = 3) -> list[BenchRow]:
    """Time every encoding x evaluator x query configuration on one repository.

    All configurations must produce the same result for a given query; a
    mismatch aborts the whole run, because a wrong answer makes the timings
    meaningless.
    """
    if runs < 3:
        raise BenchError("runs must be >= 3 for a stable median")
    scenario = Path(repo_dir).name
    parsed = {qid: (parse_query(text), domain) for qid, (text, domain) in QUERIES.items()}
    rows: list[BenchRow] = []
    for encoding in ENCODING_NAMES:
        start = perf_counter()
        store, dag = load_repository(repo_dir, encoding=encoding)
        build_ms = (perf_counter() - start) * 1000.0
        stats = store.stats()

        def measure(evaluator_name: str, qid: str) -> BenchRow:
            evaluate = EVALUATORS[evaluator_name]
            query, domain = parsed[qid]
            latencies = []
            table = None
            for _ in range(runs):
                t0 = perf_counter()
                table = evaluate(store, dag, query, version_domain=domain)
                latencies.append((perf_counter() - t0) * 1000.0)
            return BenchRow(
                scenario=scenario,
                encoding=encoding,
                evaluator=evaluator_name,
                query=qid,
                build_ms=build_ms,
                scalar_cost_total=stats.scalar_cost_total,
                triples_sum_over_versions=stats.triples_sum_over_versions,
                latency_ms=statistics.median(latencies),
                result_hash=_hash_table(format_results(table, "tsv")),
            )

        rows.extend(measure(name, qid) for name in EVALUATORS for qid in parsed)
    _check_hashes(rows)
    return rows


def _check_hashes(rows: list[BenchRow]) -> None:
    by_query: dict[str, dict[str, list[str]]] = {}
    for row in rows:
        by_query.setdefault(row.query, {}).setdefault(row.result_hash, []).append(
            f"{row.encoding}/{row.evaluator}"
        )
    bad = {q: h for q, h in by_query.items() if len(h) > 1}
    if bad:
        detail = "; ".join(
            f"{q}: " + " vs ".join(f"{sorted(cfgs)}={h[:12]}" for h, cfgs in variants.items())
            for q, variants in sorted(bad.items())
        )
        raise BenchError(f"result mismatch across configurations - {detail}")


def report_text(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(REPORT_HEADER.split(","))
    for row in rows:
        writer.writerow([
            row.scenario,
            row.encoding,
            row.evaluator,
            row.query,
            f"{row.build_ms:.3f}",
            str(row.scalar_cost_total),
            str(row.triples_sum_over_versions),
            f"{row.latency_ms:.3f}",
            row.result_hash,
        ])
    return buf.getvalue()


def write_report(rows: list[BenchRow], path: str | Path) -> None:
    Path(path).write_text(report_text(rows), encoding="utf-8")
