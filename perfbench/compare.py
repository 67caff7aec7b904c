#!/usr/bin/env python3
"""Summarise or compare sets of perfbench result files.

    python3 perfbench/compare.py .perfbench_out/results
    python3 perfbench/compare.py BASE_DIR NEW_DIR

For each workload and metric it prints the number of runs, the median, the
quartiles and the spread (interquartile distance over the median).  Times
are rescaled to a reference host speed (hostspeed.py); the rows
``raw.wall_s`` (wall_s before rescaling) and ``env.probe_s`` (the host's
probe time around the runs) show how much the host moved.  Given two
directories it also prints the change of the median and, for end-to-end
metrics, whether it is worse than the bound in BENCHMARK.json.  For traced
runs of the same workload and seed, in either directory, it checks that
every count (``count`` and ``bits`` units) repeats exactly.

Results made with different RREF backends (``bihomlie.linalg.BACKEND``, or
``BIHOMLIE_PURE``) are not comparable: the command says so and exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
EXACT_UNITS = ("count", "bits")


def load(directory: Path) -> list[dict]:
    return [
        json.loads(p.read_text("utf-8")) for p in sorted(directory.glob("*.json"))
    ]


def backends(results: list[dict]) -> set:
    return {
        (r["env"][when]["backend"], r["env"][when]["BIHOMLIE_PURE"])
        for r in results
        for when in ("start", "end")
    }


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def by_metric(results: list[dict]) -> dict:
    out = defaultdict(list)
    for r in results:
        for name, m in r["metrics"].items():
            out[(r["workload"], r["trace"], name, m["unit"])].append(m["value"])
        host = [r["env"][when]["probe_s"] for when in ("start", "end")]
        out[(r["workload"], r["trace"], "env.probe_s", "s")].append(sum(host) / 2)
        if r["trace"] == 0:
            raw = [p["raw_wall_s"] for p in r["detail"]["passes"]]
            out[(r["workload"], 0, "raw.wall_s", "s")].append(statistics.median(raw))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dirs", nargs="+", type=Path, metavar="DIR")
    args = ap.parse_args(argv)
    if len(args.dirs) > 2:
        ap.error("give one or two directories")
    sets = [load(d) for d in args.dirs]
    bounds = {}
    if BENCHMARK.is_file():
        spec = json.loads(BENCHMARK.read_text("utf-8"))
        bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    status = 0
    seen = set().union(*(backends(s) for s in sets))
    if len(seen) > 1:
        print(f"NOT COMPARABLE: results mix RREF backends {sorted(seen)}")
        status = 1

    stats = [by_metric(s) for s in sets]
    for key in sorted(set().union(*stats)):
        workload, trace, name, unit = key
        row = f"{workload:16} t{trace} {name:34} {unit:6}"
        meds = []
        for st in stats:
            values = st.get(key, [])
            if not values:
                row += "  (no runs)"
                continue
            med, q1, q3, spread = summary(values)
            meds.append(med)
            row += f"  n={len(values):2} med={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.3f}"
        if len(meds) == 2 and meds[0]:
            change = meds[1] / meds[0] - 1
            row += f"  change={change:+.3f}"
            if trace == 0 and name in bounds:
                bound, better = bounds[name]
                worse = change > bound if better == "lower" else -change > bound
                row += "  WORSE THAN BOUND" if worse else "  within bound"
        print(row)

    traced = defaultdict(list)
    for r in (r for group in sets for r in group if r["trace"] == 1):
        traced[(r["workload"], r["seed"])].append(r["metrics"])
    for (workload, seed), runs in sorted(traced.items()):
        if len(runs) < 2:
            continue
        first = runs[0]
        differ = sorted(
            {
                n
                for other in runs[1:]
                for n, m in first.items()
                if m["unit"] in EXACT_UNITS and other.get(n, {}).get("value") != m["value"]
            }
        )
        verdict = f"DIFFER {differ}" if differ else "identical"
        print(f"counts {workload} seed {seed} over {len(runs)} traced runs: {verdict}")
        if differ:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
