"""tools/bench_trajectory.py on synthetic perfbench result files."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_trajectory", ROOT / "tools" / "bench_trajectory.py"
)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


def _result(seed, passes, trace=0, imports=(0.005,), setups=(0.002,)):
    """A result file of one corpus-sweep run whose passes took ``passes``,
    a list of {job: seconds}, whose fresh-interpreter imports took
    ``imports`` and whose set-ups took ``setups`` seconds."""
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
            "import_s": list(imports),
            "setups": [
                {"raw_s": t, "probe_s": 0.01, "seconds": t} for t in setups
            ],
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


PARENT_WALLS = [0.100 + 0.001 * i for i in range(10)]


@pytest.mark.parametrize(
    "change, shown",
    [
        # every pair won, by far more than the parent's spread
        ([0.090] * 10, True),
        # nine wins of ten
        ([0.090] * 9 + [0.2], True),
        # nine wins and a tie: the tie counts for neither side
        ([0.090] * 9 + [PARENT_WALLS[9]], True),
        # eight wins and two ties
        ([0.090] * 8 + PARENT_WALLS[8:], False),
        # eight wins of ten
        ([0.090] * 8 + [0.2, 0.2], False),
        # every pair won, but the medians are closer than the parent's IQR
        ([w - 0.001 for w in PARENT_WALLS], False),
    ],
)
def test_gain_is_shown_on_nine_wins_in_ten_beyond_the_parent_iqr(
    tmp_path, change, shown
):
    # one pass per run, so each run's wall_s is that pass's time
    for side, walls in (("parent", PARENT_WALLS), ("change", change)):
        for seed, wall in enumerate(walls, start=30):
            run = _result(seed, [{"h2": wall}])
            _write(tmp_path / side, f"{seed}.json", run)
    sets = {
        side: bench_trajectory.load(tmp_path / side)
        for side in ("parent", "change")
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    doc = bench_trajectory.trajectory(sets, spec, "0123456789")
    entry = doc["workloads"]["corpus-sweep"]["wall_s"]
    # statistics.quantiles of 0.100..0.109: q1 = 0.10175, q3 = 0.10725
    assert entry["parent_iqr"] == pytest.approx(0.0055)
    assert entry["pairs"] == 10
    assert entry["gain_shown"] is shown
    assert json.loads(json.dumps(doc))["workloads"] == doc["workloads"]


@pytest.mark.parametrize(
    "better, change, shown",
    [("higher", 1.0, True), ("higher", 0.5, False), ("lower", 0.5, True)],
)
def test_gain_direction_follows_the_metric(better, change, shown):
    # the same pair record either way: the sign of the median gap decides
    entry = {
        "parent": {"median": 0.8, "q1": 0.75, "q3": 0.85},
        "change": {"median": change, "q1": change, "q3": change},
        "pairs": 10,
        "change_wins": 10,
    }
    got = bench_trajectory.gain_record(entry, better)
    assert got == {"parent_iqr": pytest.approx(0.1), "gain_shown": shown}


def test_setup_split_separates_the_import_from_the_set_up(tmp_path):
    # the parent's set-up takes 3 ms, the change's 2 ms; the imports are
    # noisy on both sides, and a traced run does not count
    runs = {
        "parent": [
            (30, (0.0050, 0.0060, 0.0052), (0.0030, 0.0031, 0.0029)),
            (31, (0.0058, 0.0054, 0.0057), (0.0030,)),
        ],
        "change": [
            (30, (0.0061, 0.0049, 0.0055), (0.0020, 0.0021, 0.0019)),
            (31, (0.0052, 0.0051, 0.0070), (0.0020,)),
        ],
    }
    for side, side_runs in runs.items():
        for seed, imports, setups in side_runs:
            run = _result(seed, [{"h2": 0.01}], imports=imports, setups=setups)
            _write(tmp_path / side, f"{seed}.json", run)
    _write(
        tmp_path / "change",
        "traced.json",
        _result(77, [{"h2": 0.01}], trace=1, imports=(9.0,), setups=(9.0,)),
    )
    sets = {
        side: bench_trajectory.load(tmp_path / side)
        for side in ("parent", "change")
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    doc = bench_trajectory.trajectory(sets, spec, "0123456789")
    split = doc["setup_split"]["corpus-sweep"]
    # the medians of each run's samples, then their median over the runs
    # (0.0052 and 0.0057, then 0.0055 and 0.0052)
    assert split["parent"]["import_s"]["median"] == pytest.approx(0.00545)
    assert split["change"]["import_s"]["median"] == pytest.approx(0.00535)
    assert split["parent"]["build_s"]["median"] == pytest.approx(0.0030)
    assert split["change"]["build_s"]["median"] == pytest.approx(0.0020)
    assert split["change"]["build_s"]["n"] == 2
    assert json.loads(json.dumps(doc))["setup_split"] == doc["setup_split"]


def test_pass_counts_are_the_median_pass_count_of_the_untraced_runs(tmp_path):
    # the parent runs 3, 4 and 6 passes, the change 5 and 8; a traced run
    # of one pass does not count
    for side, counts in (("parent", (3, 4, 6)), ("change", (5, 8))):
        for seed, count in enumerate(counts, start=30):
            run = _result(seed, [{"h2": 0.01}] * count)
            _write(tmp_path / side, f"{seed}.json", run)
    _write(tmp_path / "change", "traced.json", _result(77, [{"h2": 0.01}], 1))
    sets = {
        side: bench_trajectory.load(tmp_path / side)
        for side in ("parent", "change")
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    doc = bench_trajectory.trajectory(sets, spec, "0123456789")
    assert doc["pass_counts"] == {
        "corpus-sweep": {
            "parent": {"runs": 3, "median": 4},
            "change": {"runs": 2, "median": 6.5},
        }
    }
    assert json.loads(json.dumps(doc))["pass_counts"] == doc["pass_counts"]
