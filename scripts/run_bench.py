#!/usr/bin/env python3
"""Generate the two standard scenarios, benchmark them, and summarize.

The branching scenario exercises merges and lingering branch heads; the
linear scenario is sized so long version runs show off the interval
encoding.  Full rows go to one CSV; the console gets the headline ratios.
A scenario's directory under --outdir is reused when it holds exactly that
scenario, and refused with StateError when it holds anything else.
"""

import argparse
from pathlib import Path

from vgstore.bench import ScenarioParams, generate, run, write_report

SCENARIOS = {
    "branching": ScenarioParams(
        buildings=50, stations=8, versions=20, branch_prob=0.2, churn=0.05, seed=42
    ),
    "linear": ScenarioParams(
        buildings=500, stations=50, versions=100, branch_prob=0.0, churn=0.01, seed=42
    ),
}


def summarize(name: str, rows) -> None:
    cost = {r.encoding: r.scalar_cost_total for r in rows}
    shared = next(iter(rows))
    print(f"\n{name}: {shared.triples_sum_over_versions} triples summed over versions")
    print(
        f"  scalar cost: extension={cost['extension']} interval={cost['interval']}"
        f" ({cost['extension'] / cost['interval']:.1f}x smaller as intervals)"
    )
    queries = sorted({r.query for r in rows})
    for query in queries:
        lat = {
            r.evaluator: r.latency_ms
            for r in rows
            if r.query == query and r.encoding == "extension"
        }
        print(
            f"  {query}: annotated {lat['annotated']:.2f} ms"
            f" vs checkout {lat['checkout']:.2f} ms"
            f" ({lat['checkout'] / lat['annotated']:.1f}x)"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="bench_out", help="repositories and report directory")
    parser.add_argument("--runs", type=int, default=5, help="timed runs per configuration")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    all_rows = []
    for name, params in SCENARIOS.items():
        repo = outdir / name
        print(f"generating {name} (seed {params.seed}, {params.versions} versions) ...")
        generate(params, repo)
        rows = run(repo, runs=args.runs)
        all_rows.extend(rows)
        summarize(name, rows)
    report = outdir / "report.csv"
    write_report(all_rows, report)
    print(f"\nwrote {report}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
