"""tools/bench_trajectory.py on synthetic perfbench result files."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_trajectory", ROOT / "tools" / "bench_trajectory.py"
)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


def _result(seed, passes, trace=0):
    """A result file of one corpus-sweep run whose passes took ``passes``,
    a list of {job: seconds}."""
    walls = [sum(times.values()) for times in passes]
    slowest = [max(times.values()) for times in passes]
    return {
        "workload": "corpus-sweep",
        "seed": seed,
        "trace": trace,
        "attempted": sum(map(len, passes)),
        "failed": 0,
        "metrics": {
            "wall_s": {"value": sorted(walls)[len(walls) // 2], "unit": "s"},
            "slowest_job_s": {
                "value": sorted(slowest)[len(slowest) // 2],
                "unit": "s",
            },
        },
        "env": {"start": {"probe_s": 0.01}, "end": {"probe_s": 0.01}},
        "detail": {
            "passes": [
                {
                    "wall_s": wall,
                    "raw_wall_s": wall,
                    "probe_s": 0.01,
                    "times": times,
                    "failed": [],
                }
                for wall, times in zip(walls, passes)
            ]
        },
    }


def _write(directory, name, doc):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(doc), "utf-8")


def test_trajectory_names_the_slowest_job_of_each_untraced_pass(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # the parent: h3 is the slowest of every pass
    _write(
        parent,
        "a.json",
        _result(
            30,
            [
                {"h3": 0.023, "h2": 0.011, "check": 0.002},
                {"h3": 0.025, "h2": 0.010, "check": 0.002},
                {"h3": 0.021, "h2": 0.012, "check": 0.003},
            ],
        ),
    )
    # the change: h3 in two passes, h2 in one; a traced run whose slowest
    # job is "check" does not count
    _write(
        change,
        "a.json",
        _result(
            30,
            [
                {"h3": 0.018, "h2": 0.011, "check": 0.002},
                {"h3": 0.010, "h2": 0.012, "check": 0.002},
                {"h3": 0.019, "h2": 0.010, "check": 0.002},
            ],
        ),
    )
    _write(
        change,
        "b.json",
        _result(77, [{"h3": 0.01, "h2": 0.01, "check": 0.5}], trace=1),
    )
    sets = {
        "parent": bench_trajectory.load(parent),
        "change": bench_trajectory.load(change),
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    doc = bench_trajectory.trajectory(sets, spec, "0123456789")
    assert doc["slowest_jobs"] == {
        "corpus-sweep": {
            "parent": {"h3": {"passes": 3, "median_s": 0.023}},
            "change": {
                "h2": {"passes": 1, "median_s": 0.012},
                "h3": {"passes": 2, "median_s": 0.0185},
            },
        }
    }
    # the record is plain JSON, like the rest of the file
    assert json.loads(json.dumps(doc))["slowest_jobs"] == doc["slowest_jobs"]
    assert doc["workloads"]["corpus-sweep"]["slowest_job_s"]["pairs"] == 1
