"""Timed and traced runs of one workload; run.py is the command line.

Every time reported is rescaled to the reference host speed of hostspeed.py;
the raw seconds and the probe means go to the result file's ``detail``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from bihomlie import linalg
from perfbench import hostspeed
from perfbench.hostspeed import HostClock, Measured
from perfbench.tracing import Tracer, layer_metrics
from perfbench.workloads import OUT, ROOT, SRC

MIN_SETUPS = 3
SETUP_BUDGET_S = 2.0  # repeat cheap set-ups until this much time is spent
MAX_SETUPS = 50
IMPORT_SAMPLES = 9
ENV_PROBES = 9
# Times ``import bihomlie`` in a fresh interpreter, then probes the host
# speed right after it and prints the import time rescaled.
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; "
    "t = time.perf_counter(); import bihomlie; t = time.perf_counter() - t; "
    "from perfbench import hostspeed as h; "
    "print(h.rescale(t, [h.probe() for _ in range(3)]))"
)


@dataclass
class PassResult:
    wall: Measured
    times: dict[str, float]  # rescaled seconds per job
    failed: list[str] = field(default_factory=list)

    def record(self) -> dict:
        return {
            "wall_s": self.wall.seconds,
            "raw_wall_s": self.wall.raw_s,
            "probe_s": self.wall.probe_s,
            "times": self.times,
            "failed": self.failed,
        }


def _normalise(value):
    return json.loads(json.dumps(value))


def run_pass(jobs, pins: dict, clock: HostClock, tracer=None) -> PassResult:
    """Run every job once, timing each; then compare outputs with ``pins``.

    A job that raises or whose digest differs from its pin is a failed op;
    the pass goes on with the next job.
    """
    outcomes = []
    times = {}
    with clock.measure() as wall:
        for job in jobs:
            with clock.measure() as took:
                try:
                    if tracer is None:
                        result = job.run()
                    else:
                        with tracer.span(f"job:{job.key}"):
                            result = job.run()
                    error = None
                except Exception:
                    result, error = None, traceback.format_exc()
            times[job.key] = took.seconds
            outcomes.append((job, result, error))
    failed = []
    for job, result, error in outcomes:
        if error is None:
            try:
                got = _normalise(job.digest(result))
            except Exception:
                error = traceback.format_exc()
            else:
                if got != pins.get(job.key):
                    error = f"output {got!r} differs from pin {pins.get(job.key)!r}"
        if error is not None:
            failed.append(job.key)
            print(f"perfbench: job {job.key} failed: {error}", file=sys.stderr)
    return PassResult(wall, times, failed)


def import_seconds() -> list[float]:
    """Rescaled times of ``import bihomlie``, each in a fresh interpreter."""
    out = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-E", "-c", _IMPORT_PROBE, str(SRC), str(ROOT)],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def timed_run(setup, seed: int, seconds: float, pins: dict) -> dict:
    """End-to-end metrics: see run.py."""
    setups: list[Measured] = []
    passes: list[PassResult] = []
    with HostClock() as clock:
        jobs = None
        while len(setups) < MIN_SETUPS or (
            sum(m.raw_s for m in setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS
        ):
            with clock.measure() as took:
                jobs = setup(seed)
            setups.append(took)
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            passes.append(run_pass(jobs, pins, clock))
    imports = import_seconds()
    attempted = len(jobs) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import_s = statistics.median(imports)
    setup_s = statistics.median(m.seconds for m in setups)
    metrics = {
        "wall_s": (statistics.median(p.wall.seconds for p in passes), "s"),
        "slowest_job_s": (
            statistics.median(max(p.times.values()) for p in passes),
            "s",
        ),
        "setup_s": (import_s + setup_s, "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
        "ops_ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    detail = {
        "import_s": imports,
        "setups": [vars(m) for m in setups],
        "passes": [p.record() for p in passes],
        "probes": len(clock.samples),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "detail": detail}


def traced_run(setup, seed: int, pins: dict, stamp: str) -> dict:
    """Per-layer metrics from one untraced and one traced pass; see
    tracing.layer_metrics.  Spans go to ``.perfbench_out/spans/<stamp>.json``."""
    with HostClock() as clock:
        base = run_pass(setup(seed), pins, clock)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.set_phase("setup")
            jobs = setup(seed)
            tracer.set_phase("jobs")
            traced = run_pass(jobs, pins, clock, tracer)
            tracer.set_phase("done")
        finally:
            tracer.uninstall()
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    with open(spans_dir / f"{stamp}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["name", "start", "end", "parent", "phase", "attrs"],
                "spans": [
                    [s.name, s.start, s.end, s.parent, s.phase, s.attrs]
                    for s in tracer.spans
                ],
                "counts": tracer.phase_counts,
                "probes": clock.samples,
            },
            fh,
        )
    return {
        "attempted": 2 * len(jobs),
        "failed": len(base.failed) + len(traced.failed),
        "metrics": layer_metrics(tracer, clock.samples, traced.wall, base.wall),
        "detail": {"untraced": base.record(), "traced": traced.record()},
    }


def environment() -> dict:
    """What a comparison across runs must hold fixed, above all the backend,
    and the host speed (mean probe time) at that moment."""
    return {
        "backend": linalg.BACKEND,
        "BIHOMLIE_PURE": os.environ.get("BIHOMLIE_PURE", ""),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "probe_s": statistics.harmonic_mean(
            [hostspeed.probe() for _ in range(ENV_PROBES)]
        ),
    }
