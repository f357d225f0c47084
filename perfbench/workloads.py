"""The benchmark's workloads: inputs from a seed, one operation, its oracle.

Each workload builds its inputs in `build` (generate the repository, load
it, compute the expected outputs) and then serves operations. An operation
is split in three: `prepare` does untimed per-operation work and returns the
call to time, the runner times that call, and `check` compares its result
with the oracle. A mismatch is returned as a message, never retried.

The program is driven only through its public API: `vgstore.cli.run`,
`load_repository`, `eval_annotated`, `eval_checkout`, `format_results`, and
`vgstore.bench.generate` / `QUERIES` for the inputs. Functions are looked up
on their module at call time, so the traced run sees the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from pathlib import Path

import vgstore.cli
import vgstore.engine
import vgstore.repo
from vgstore import parse_query, version_iri
from vgstore.bench import EX, QUERIES, ScenarioParams, generate

XSD = "http://www.w3.org/2001/XMLSchema#"
ENCODINGS = ("extension", "interval")

_PREFIXES = (
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX ex: <http://ex.org/>\n"
    "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
)

# query id -> (text, version domain); the four eval-branching adds
EXTRA_QUERIES: dict[str, tuple[str, str]] = {
    "count-accessible": (
        _PREFIXES
        + "SELECT ?v (COUNT(?st) AS ?n) WHERE { GRAPH ?v { "
        '?st ex:accessible "true"^^xsd:boolean } } GROUP BY ?v',
        "all",
    ),
    "tall-at-heads": (
        _PREFIXES
        + "SELECT ?v ?b ?h WHERE { GRAPH ?v { ?b rdf:type ex:Building . "
        "?b ex:height ?h } FILTER (isHead(?v) && ?h > 100.0) }",
        "all",
    ),
    "tall-buildings": (
        _PREFIXES
        + "SELECT DISTINCT ?b WHERE { GRAPH ?v { ?b ex:height ?h } "
        "FILTER (?h > 100.0) }",
        "all",
    ),
    "station-types-heads": (QUERIES["station-types"][0], "heads"),
}
ALL_QUERIES = {**QUERIES, **EXTRA_QUERIES}

# workload -> size -> generator parameters (the seed is filled in per run)
SIZES: dict[str, dict[str, dict]] = {
    "linear": {
        "full": dict(buildings=500, stations=50, versions=60, branch_prob=0.0, churn=0.01),
        "tiny": dict(buildings=20, stations=5, versions=6, branch_prob=0.0, churn=0.05),
    },
    "branching": {
        "full": dict(buildings=50, stations=8, versions=200, branch_prob=0.2, churn=0.02),
        "tiny": dict(buildings=12, stations=4, versions=10, branch_prob=0.3, churn=0.1),
    },
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = vgstore.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _oracle(repo_dir: Path, queries: dict, tag) -> tuple[int, dict[str, str], list[str]]:
    """Load `repo_dir` in both encodings; expected output hash per query.

    The expected hash comes from eval_checkout. Both encodings are evaluated
    with eval_annotated and hash-compared with it, as the library's own
    bench does across its configurations; each disagreement is returned as
    a mismatch. `tag` names the query in the traced run's spans, for the
    oracle metrics. Returns the version count, the hashes and the mismatches.
    """
    stores, dags = {}, {}
    for encoding in ENCODINGS:
        stores[encoding], dags[encoding] = vgstore.repo.load_repository(
            repo_dir, encoding=encoding
        )
    expected: dict[str, str] = {}
    mismatches: list[str] = []
    for qid, (text, domain) in queries.items():
        query = parse_query(text)
        tag(f"oracle:{qid}")
        table = vgstore.engine.eval_checkout(
            stores["extension"], dags["extension"], query, version_domain=domain
        )
        expected[qid] = digest(vgstore.engine.format_results(table, "tsv"))
        for encoding in ENCODINGS:
            tag(f"check:{qid}:{encoding}")
            table = vgstore.engine.eval_annotated(
                stores[encoding], dags[encoding], query, version_domain=domain
            )
            if digest(vgstore.engine.format_results(table, "tsv")) != expected[qid]:
                mismatches.append(f"set-up: {qid} annotated/{encoding} differs from checkout")
    tag("setup")
    return stores["extension"].n_versions, expected, mismatches


class Workload:
    """Base: a seeded workload that owns a scratch directory.

    Set-up is split in two. `build` makes the inputs under the scratch
    directory, loads them and computes the oracle; the runner calls it in a
    child process, so that the memory it takes does not count in the peak
    of the process that runs the operations. It returns a small picklable
    state, which `adopt` takes over in that process.
    """

    name = ""
    cycle = 1  # operations per rotation over the operation kinds
    scenario = "linear"

    def __init__(self, seed: int, work_dir: Path, size: str = "full", tracer=None):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.params = ScenarioParams(seed=seed, **SIZES[self.scenario][size])
        self.tracer = tracer
        self.repo_dir: Path | None = None  # directory whose writes are traced
        self.expected: dict[str, str] = {}
        self.versions = 0

    def _tag(self, op: str) -> None:
        if self.tracer is not None:
            self.tracer.op = op

    def build(self) -> dict:
        """Inputs, stores and oracle; returns the state plus set-up `errors`."""
        raise NotImplementedError

    def adopt(self, state: dict) -> None:
        self.versions = state["versions"]
        self.expected = state["expected"]

    def prepare(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> str | None:
        raise NotImplementedError


class QueryHistory(Workload):
    """`vg query` in-process on a linear history, rotating the five queries."""

    name = "query-history"
    cycle = len(QUERIES)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.repo_dir = self.work_dir / "repo"
        self.order = list(QUERIES)

    def build(self) -> dict:
        generate(self.params, self.repo_dir)
        versions, expected, errors = _oracle(self.repo_dir, QUERIES, self._tag)
        return {"versions": versions, "expected": expected, "errors": errors}

    def prepare(self, i: int):
        qid = self.order[i % self.cycle]
        text, domain = QUERIES[qid]
        argv = ["query", "--repo", str(self.repo_dir), "--inline", text, "--versions", domain]
        return lambda: _run_cli(argv)

    def check(self, i: int, result) -> str | None:
        qid = self.order[i % self.cycle]
        code, out, err = result
        if code != 0:
            return f"{qid}: exit {code}: {err.strip()}"
        if digest(out) != self.expected[qid]:
            return f"{qid}: output differs from the oracle"
        return None


class CommitHistory(Workload):
    """`vg commit` of a one-value edit onto a fresh copy of a linear history."""

    name = "commit-history"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pristine = self.work_dir / "pristine"
        self.repo_dir = self.work_dir / "repo"
        self.patch_path = self.work_dir / "edit.patch"

    def build(self) -> dict:
        store, dag = generate(self.params, self.pristine)
        head = dag.branch_head("main")
        d = store.dictionary
        # one editable (subject, predicate, value) per slot of the head graph
        slots = []
        for t in store.materialize(head):
            p = d.resolve(t.p)
            if p.text in (EX + "height", EX + "accessible"):
                slots.append((d.resolve(t.s).text, p.text, d.resolve(t.o).lex))
        return {"versions": store.n_versions, "expected": {}, "errors": [],
                "head": head, "slots": sorted(slots)}

    def adopt(self, state: dict) -> None:
        super().adopt(state)
        self.head, self.slots = state["head"], state["slots"]
        self.rng = random.Random(self.seed)
        # every patch a commit must leave as it was
        self.old_deltas = {
            path.name: path.read_bytes() for path in (self.pristine / "deltas").iterdir()
        }

    def _edit(self) -> str:
        """A canonical patch: the D line sorts before the A line."""
        s, p, lex = self.rng.choice(self.slots)
        if p == EX + "height":
            drift = self.rng.choice((0.5, 1.0, 2.5, 5.0)) * self.rng.choice((-1, 1))
            new = round(float(lex) + drift, 1)
            if new <= 0:
                new = round(float(lex) + abs(drift), 1)
            old_o, new_o = (f'"{v}"^^<{XSD}decimal>' for v in (lex, f"{new:.1f}"))
        else:
            flipped = "false" if lex == "true" else "true"
            old_o, new_o = (f'"{v}"^^<{XSD}boolean>' for v in (lex, flipped))
        return f"D <{s}> <{p}> {old_o} .\nA <{s}> <{p}> {new_o} .\n"

    def prepare(self, i: int):
        if self.repo_dir.exists():
            shutil.rmtree(self.repo_dir)
        shutil.copytree(self.pristine, self.repo_dir)
        self.patch_text = self._edit()
        self.patch_path.write_text(self.patch_text, encoding="utf-8")
        argv = ["commit", "--repo", str(self.repo_dir), "--branch", "main",
                "--patch", str(self.patch_path), "-m", f"edit {i}", "--author", "bench"]
        return lambda: _run_cli(argv)

    def check(self, i: int, result) -> str | None:
        code, out, err = result
        seq = self.head + 1
        if code != 0:
            return f"commit: exit {code}: {err.strip()}"
        if out != f"committed {version_iri(seq)} on main\n":
            return f"commit: unexpected output {out!r}"
        deltas = self.repo_dir / "deltas"
        patch = deltas / f"{seq}.patch"
        if not patch.is_file() or patch.read_text(encoding="utf-8") != self.patch_text:
            return f"commit: {patch.name} differs from the expected canonical patch"
        names = {path.name for path in deltas.iterdir()}
        if names != self.old_deltas.keys() | {patch.name}:
            return f"commit: deltas/ holds {sorted(names)}, not the old patches plus the new one"
        for name, data in self.old_deltas.items():
            if (deltas / name).read_bytes() != data:
                return f"commit: rewrote the earlier patch {name} with other content"
        manifest = json.loads((self.repo_dir / "manifest.json").read_text(encoding="utf-8"))
        if manifest["branches"].get("main") != seq or len(manifest["commits"]) != seq + 1:
            return "commit: manifest does not move main to the new version"
        return None


class EvalBranching(Workload):
    """In-memory eval_annotated + format_results over a branching history.

    One operation evaluates and formats all nine queries in both encodings,
    in a fixed order. The queries differ in cost by two orders of
    magnitude; as separate operations, a percentile would fall between two
    of them and jump from run to run with the seed's data.
    """

    name = "eval-branching"
    scenario = "branching"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.source = self.work_dir / "repo"  # read once, never written
        self.order = [(enc, qid) for enc in ENCODINGS for qid in ALL_QUERIES]

    def build(self) -> dict:
        generate(self.params, self.source)
        versions, expected, errors = _oracle(self.source, ALL_QUERIES, self._tag)
        return {"versions": versions, "expected": expected, "errors": errors}

    def adopt(self, state: dict) -> None:
        """Load both encodings here too: the operations run on them."""
        super().adopt(state)
        self.stores, self.dags = {}, {}
        for encoding in ENCODINGS:
            self.stores[encoding], self.dags[encoding] = vgstore.repo.load_repository(
                self.source, encoding=encoding
            )
        self.parsed = {qid: (parse_query(text), domain)
                       for qid, (text, domain) in ALL_QUERIES.items()}

    def prepare(self, i: int):
        def act():
            out = []
            for encoding, qid in self.order:
                store, dag = self.stores[encoding], self.dags[encoding]
                query, domain = self.parsed[qid]
                table = vgstore.engine.eval_annotated(store, dag, query, version_domain=domain)
                out.append(vgstore.engine.format_results(table, "tsv"))
            return out

        return act

    def check(self, i: int, result) -> str | None:
        wrong = [f"{qid}/{encoding}" for (encoding, qid), text in zip(self.order, result)
                 if digest(text) != self.expected[qid]]
        if len(result) != len(self.order) or wrong:
            return f"output differs from the oracle: {', '.join(wrong) or 'tables missing'}"
        return None


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (QueryHistory, CommitHistory, EvalBranching)
}
