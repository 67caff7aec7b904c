#!/usr/bin/env python3
"""Write a BENCH_<parent sha>.json trajectory point from two sets of
perfbench results.

    python3 tools/bench_trajectory.py PARENT_RESULTS CHANGE_RESULTS PARENT_SHA

PARENT_RESULTS and CHANGE_RESULTS are the ``.perfbench_out/results``
directories of the two checkouts, filled by tools/bench_pairs.sh.  The file
goes to the repo root as BENCH_<first 7 of PARENT_SHA>.json; a file cannot
name the commit that contains it, so it is named after the parent it is
measured against.

For every workload and metric of the untraced runs it records, per side,
the number of runs and the median and quartiles of perfbench/compare.py's
``summary`` over ``by_metric``.  For the end-to-end metrics of
BENCHMARK.json it adds the pairs (seeds run on both sides), the pairs the
change wins and ties, the relative change of the median, the parent's
interquartile range ``parent_iqr`` (q3 - q1) and ``gain_shown``: true when
the change wins at least 9 of every 10 pairs (a tie counts for neither
side) and its median beats the parent's by more than ``parent_iqr``.  The
counts
(``count`` and ``bits`` units) of the traced runs go to ``traced_counts``,
per workload and seed, and their per-layer seconds (the ``per_layer``
metrics of BENCHMARK.json in ``s``) to ``traced_layers``: those come from
one traced pass per side, not from medians.  ``slowest_jobs`` names, per
workload and side, the job that was the slowest of each untraced pass: for
every job that was, the number of passes it was the slowest in and the
median of its time over those passes.  ``setup_split`` splits each
side's ``setup_s`` into its two parts, the ``import bihomlie`` time and
the set-up itself (``import_s`` and ``build_s``), so that a set-up change
can be told from import noise.  ``pass_counts`` gives, per workload and
side, the median number of passes (``len(detail.passes)``) of the
untraced runs: a faster side runs more passes in the same seconds, and
perfbench's ``peak_rss_mib`` grows with the pass count.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.compare import EXACT_UNITS, by_metric, load, summary  # noqa: E402


def pair_record(sets: dict, workload: str, name: str, better: str) -> dict:
    by_seed: dict = {}
    for side, results in sets.items():
        for r in results:
            if r["workload"] == workload and r["trace"] == 0:
                by_seed.setdefault(r["seed"], {})[side] = r["metrics"][name]["value"]
    pairs = [v for v in by_seed.values() if len(v) == 2]
    ties = sum(v["change"] == v["parent"] for v in pairs)
    wins = sum(
        v["change"] != v["parent"]
        and (v["change"] < v["parent"]) == (better == "lower")
        for v in pairs
    )
    return {"pairs": len(pairs), "change_wins": wins, "ties": ties}


def gain_record(entry: dict, better: str) -> dict:
    """``parent_iqr`` and ``gain_shown`` of an end-to-end entry that holds
    both sides' summaries and its pair record: the gain is shown when the
    change wins at least 9/10 of the pairs and the gap between the
    medians, in the better direction, exceeds the parent's q3 - q1."""
    parent, change = entry["parent"], entry["change"]
    iqr = parent["q3"] - parent["q1"]
    gap = parent["median"] - change["median"]
    if better != "lower":
        gap = -gap
    pairs = entry["pairs"]
    shown = pairs > 0 and 10 * entry["change_wins"] >= 9 * pairs and gap > iqr
    return {"parent_iqr": iqr, "gain_shown": shown}


def slowest_jobs(sets: dict) -> dict:
    """workload -> side -> job -> {"passes", "median_s"}: each job that was
    the slowest of some untraced pass, the number of such passes and the
    median of the job's time over them."""
    times: dict = {}
    for side, results in sets.items():
        for r in results:
            if r["trace"]:
                continue
            by_job = times.setdefault(r["workload"], {}).setdefault(side, {})
            for p in r["detail"]["passes"]:
                job = max(p["times"], key=p["times"].get)
                by_job.setdefault(job, []).append(p["times"][job])
    return {
        w: {
            side: {
                job: {"passes": len(ts), "median_s": statistics.median(ts)}
                for job, ts in sorted(by_job.items())
            }
            for side, by_job in sides.items()
        }
        for w, sides in times.items()
    }


def setup_split(sets: dict) -> dict:
    """workload -> side -> {"import_s", "build_s"}: the two parts of each
    untraced run's ``setup_s``, the median of its ``detail.import_s``
    (fresh-interpreter ``import bihomlie`` times) and the median of its
    ``detail.setups[*].seconds`` (the set-up itself), each summarized over
    the runs as {"n", "median", "q1", "q3"}."""
    parts: dict = {}
    for side, results in sets.items():
        for r in results:
            if r["trace"]:
                continue
            detail = r["detail"]
            by_part = parts.setdefault(r["workload"], {}).setdefault(side, {})
            for name, values in (
                ("import_s", detail["import_s"]),
                ("build_s", [m["seconds"] for m in detail["setups"]]),
            ):
                by_part.setdefault(name, []).append(statistics.median(values))
    out: dict = {}
    for w, sides in parts.items():
        for side, by_part in sides.items():
            for name, values in by_part.items():
                med, q1, q3, _ = summary(values)
                out.setdefault(w, {}).setdefault(side, {})[name] = {
                    "n": len(values),
                    "median": med,
                    "q1": q1,
                    "q3": q3,
                }
    return out


def pass_counts(sets: dict) -> dict:
    """workload -> side -> {"runs", "median"}: the number of untraced
    runs and the median of their pass counts, ``len(detail.passes)``."""
    counts: dict = {}
    for side, results in sets.items():
        for r in results:
            if not r["trace"]:
                by_side = counts.setdefault(r["workload"], {})
                by_side.setdefault(side, []).append(len(r["detail"]["passes"]))
    return {
        w: {
            side: {"runs": len(ns), "median": statistics.median(ns)}
            for side, ns in sides.items()
        }
        for w, sides in counts.items()
    }


def trajectory(sets: dict, spec: dict, parent_sha: str) -> dict:
    workloads: dict = {}
    for side, results in sets.items():
        for (w, trace, name, unit), values in by_metric(results).items():
            if trace:
                continue
            med, q1, q3, _ = summary(values)
            entry = workloads.setdefault(w, {}).setdefault(name, {"unit": unit})
            entry[side] = {"n": len(values), "median": med, "q1": q1, "q3": q3}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for w, metrics in workloads.items():
        for name, entry in metrics.items():
            if name in better and "parent" in entry and "change" in entry:
                entry.update(pair_record(sets, w, name, better[name]))
                base = entry["parent"]["median"]
                entry["median_change"] = (
                    entry["change"]["median"] / base - 1 if base else None
                )
                entry.update(gain_record(entry, better[name]))
    layers = {m["name"] for m in spec["per_layer"] if m["unit"] == "s"}
    traced: dict = {}
    seconds: dict = {}
    for side, results in sets.items():
        for r in results:
            if r["trace"]:
                run = f"{r['workload']}@seed{r['seed']}"
                metrics = r["metrics"].items()
                traced.setdefault(run, {})[side] = {
                    name: m["value"]
                    for name, m in metrics
                    if m["unit"] in EXACT_UNITS
                }
                seconds.setdefault(run, {})[side] = {
                    name: m["value"] for name, m in metrics if name in layers
                }
    return {
        "name": "BENCH_<parent sha>.json: a file cannot name the commit "
        "that contains it, so it is named after the parent it is measured "
        "against",
        "parent": parent_sha,
        "change": "the commit that adds this file (its parent is the commit above)",
        "command": "python3 perfbench/run.py --workload W --seed S --seconds 10 "
        "--trace 0 (traced: --trace 1), run in pairs by tools/bench_pairs.sh",
        "seeds": sorted(
            {r["seed"] for rs in sets.values() for r in rs if not r["trace"]}
        ),
        "order": "alternating: parent first on even pair index, change first on odd",
        "summary": "written by tools/bench_trajectory.py: median and quartiles "
        "from perfbench/compare.py summary() over by_metric(), untraced runs "
        "only; pairs, change_wins and ties compare the two sides seed by seed",
        "workloads": workloads,
        "slowest_jobs": slowest_jobs(sets),
        "setup_split": setup_split(sets),
        "pass_counts": pass_counts(sets),
        "traced_counts": traced,
        "traced_layers": {
            "single_run": "one traced pass per side, workload and seed: "
            "seconds of a single run, not medians; compare them with care",
            "runs": seconds,
        },
    }


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent_dir, change_dir, parent_sha = Path(argv[0]), Path(argv[1]), argv[2]
    sets = {"parent": load(parent_dir), "change": load(change_dir)}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    doc = trajectory(sets, spec, parent_sha)
    out = ROOT / f"BENCH_{parent_sha[:7]}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", "utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
