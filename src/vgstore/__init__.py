"""Versioned RDF triple store with branching history and cross-version queries."""

from .dag import CommitMeta, Provenance, VersionDag, parse_version_iri, version_iri
from .engine import SolutionTable, eval_annotated, eval_checkout, format_results
from .errors import (
    BenchError,
    DeltaError,
    NotFoundError,
    QueryError,
    RepositoryError,
    StateError,
    ValidationError,
    VgError,
)
from .ntriples import format_term, format_triple, parse_ntriples, serialize_ntriples
from .repo import load_repository, parse_patch, save_repository, serialize_patch
from .sparql import parse_query
from .store import AnnotatedStore, Delta, EMPTY_DELTA, StoreStats, repack
from .terms import BlankNode, Dictionary, Iri, Literal, Term, Triple, compare_values
from .versionsets import ENCODINGS, ExtensionSet, IntervalSet, VersionSet, set_class

__all__ = [
    "AnnotatedStore",
    "BenchError",
    "BlankNode",
    "CommitMeta",
    "Delta",
    "DeltaError",
    "Dictionary",
    "EMPTY_DELTA",
    "ENCODINGS",
    "ExtensionSet",
    "IntervalSet",
    "Iri",
    "Literal",
    "NotFoundError",
    "Provenance",
    "QueryError",
    "RepositoryError",
    "SolutionTable",
    "StateError",
    "StoreStats",
    "Term",
    "Triple",
    "ValidationError",
    "VersionDag",
    "VersionSet",
    "VgError",
    "compare_values",
    "eval_annotated",
    "eval_checkout",
    "format_results",
    "format_term",
    "format_triple",
    "load_repository",
    "parse_ntriples",
    "parse_patch",
    "parse_query",
    "parse_version_iri",
    "repack",
    "save_repository",
    "serialize_ntriples",
    "serialize_patch",
    "set_class",
    "version_iri",
]
