#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of bihomlie.

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 10 --trace 0

Runs one workload (see workloads.py) single-process against the sources in
``src/`` of the checkout it lives in, checks every job's output against
``pins.json`` and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures end to end.  It sets the workload up several times
and reports the median, then runs passes over the job list until
``--seconds`` have gone (at least one pass; with the ``run_seconds`` of
BENCHMARK.json every workload's pass is longer, so a run times one pass) and
reports medians over passes:

* ``wall_s``: one pass over the job list;
* ``slowest_job_s``: the longest job of a pass;
* ``setup_s``: median ``import bihomlie`` time in fresh interpreters plus the
  median in-process set-up (parsing or building the algebras, adjoint_rep);
* ``peak_rss_mib``: peak resident memory of this process;
* ``ops_ok_frac``: share of jobs that returned their pinned output (the
  failed share is 1 minus this, and ``failed`` in the result line).

Every time is rescaled to a reference host speed by hostspeed.py, which
times a short fixed loop every 0.1 s while the benchmark measures; this
takes out most of the drift of a shared host.  The raw seconds are in the
result file.

``--trace 1`` runs one untraced pass, then sets up and runs one pass with
the library wrapped by tracing.Tracer, and reports the per-layer metrics of
tracing.layer_metrics.  Its spans go to ``.perfbench_out/spans``.

Each run also writes its result, with the environment at start and end
(RREF backend, BIHOMLIE_PURE, Python version, CPU count, load average and
the mean probe time ``probe_s``), to a file of its own in
``.perfbench_out/results``; compare.py reads those files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bihomlie" / "__init__.py").is_file():
        print(f"perfbench: no bihomlie sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import bihomlie

    if Path(bihomlie.__file__).resolve().parent != SRC / "bihomlie":
        print(f"perfbench: imported bihomlie from {bihomlie.__file__}", file=sys.stderr)
        return 2
    from perfbench import harness, workloads

    setup = workloads.WORKLOADS.get(args.workload)
    if setup is None:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    pins = workloads.load_pins()[args.workload]

    stamp = "{}-seed{}-trace{}-{}-{}".format(
        args.workload,
        args.seed,
        args.trace,
        time.strftime("%Y%m%dT%H%M%S"),
        os.getpid(),
    )
    env_start = harness.environment()
    if args.trace:
        result = harness.traced_run(setup, args.seed, pins, stamp)
    else:
        result = harness.timed_run(setup, args.seed, args.seconds, pins)
    env = {"start": env_start, "end": harness.environment()}

    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    results_dir = workloads.OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        **line,
        "detail": result["detail"],
    }
    path = results_dir / f"{stamp}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
