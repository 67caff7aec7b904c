"""Fast checks of the benchmark's own code on a tiny workload."""

from __future__ import annotations

import importlib
import signal
from time import perf_counter

import pytest

from bihomlie import alg_io, algebra, cli, cohomology, constructions, derivations
from perfbench import harness, hostspeed, tracing
from perfbench.hostspeed import HostClock, Measured
from perfbench.tracing import Span, Tracer, layer_metrics, self_times
from perfbench.workloads import (
    Job,
    _cohomology_digest,
    _dimension,
    _report_digest,
    corpus_sweep,
    load_pins,
)


def tiny_setup(seed: int) -> list[Job]:
    text = alg_io.serialize_algebra(constructions.z2z2_colour_example())
    a = alg_io.parse_algebra(text)
    comm = constructions.commutator_algebra(constructions.mat2_assoc())
    rep = cohomology.adjoint_rep(a, 0, 1)
    return [
        Job("check", lambda: algebra.check_lie_axioms(comm), _report_digest),
        Job("h2", lambda: cohomology.cohomology_dims(rep, 2, 1, (0, 1)), _cohomology_digest),
        Job("der", lambda: derivations.derivation_space(a, 0, 0, (0, 1)), _dimension),
    ]


@pytest.fixture
def pins():
    return {job.key: harness._normalise(job.digest(job.run())) for job in tiny_setup(0)}


@pytest.fixture(autouse=True)
def quick_harness(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT", tmp_path)
    monkeypatch.setattr(harness, "SETUP_BUDGET_S", 0.0)
    monkeypatch.setattr(harness, "IMPORT_SAMPLES", 1)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("derivations.derivation_space", 0.0, 10.0, None, "jobs"),
        Span("linalg.Matrix.rref", 1.0, 4.0, 0, "jobs", {"cells": 6, "max_bits": 5}),
        Span("trace.overhead", 4.0, 4.5, 0, "jobs"),
        Span("derivations.is_derivation", 5.0, 7.0, 0, "jobs"),
        Span("linalg.Matrix.rref", 5.5, 6.0, 3, "jobs", {"cells": 4, "max_bits": 9}),
        Span("cohomology.cohomology_dims", 20.0, 30.0, None, "jobs"),
        Span("cohomology.coboundary_matrix", 20.0, 24.0, 5, "jobs"),
        Span("cohomology.apply_coboundary", 21.0, 23.0, 6, "jobs"),
        Span("cohomology.apply_coboundary", 25.0, 26.0, 5, "jobs"),
        Span("cohomology.apply_coboundary", 26.0, 26.5, 5, "jobs"),
    ]
    assert self_times(spans)[:5] == [4.5, 3.0, 0.5, 1.5, 0.5]
    # A host-speed probe inside is_derivation but outside its rref child
    # comes off is_derivation and off every span around it.
    probes = [(5.2, 0.5)]
    assert self_times(spans, probes)[:5] == [4.5, 3.0, 0.5, 1.0, 0.5]
    tracer = Tracer()
    tracer.spans = spans
    traced = Measured(raw_s=40.0, seconds=20.0)  # the host ran at half speed
    untraced = Measured(raw_s=30.0, seconds=16.0)
    m = {k: v for k, (v, _) in layer_metrics(tracer, probes, traced, untraced).items()}
    assert m["derivations.assembly_s"] == 2.25
    assert m["derivations.reverify_s"] == 0.75
    assert m["linalg.rref.s"] == 1.75
    assert m["linalg.rref.share"] == 1.75 / 20.0
    assert m["linalg.rref.calls"] == 2
    assert m["linalg.rref.cells"] == 10
    assert m["linalg.rref.max_bits"] == 9
    assert m["cohomology.assembly_s"] == 1.0
    assert m["cohomology.dd_check_s"] == 0.75
    assert m["cohomology.apply_coboundary.calls"] == 3
    assert m["trace.overhead_ratio"] == 1.25


def test_measure_drops_inner_probes_and_rescales(monkeypatch):
    def slow_probe():  # the host at a quarter of the reference speed
        t0 = perf_counter()
        while perf_counter() - t0 < 4 * hostspeed.REF_PROBE_S:
            pass
        return perf_counter() - t0

    monkeypatch.setattr(hostspeed, "probe", slow_probe)
    clock = HostClock()
    with clock.measure() as m:
        clock.sample()  # as the timer would, inside the interval
    assert len(clock.samples) == 3
    assert 0 <= m.raw_s < hostspeed.REF_PROBE_S
    assert m.probe_s >= 4 * hostspeed.REF_PROBE_S
    assert m.seconds == pytest.approx(m.raw_s * hostspeed.REF_PROBE_S / m.probe_s)


def test_host_clock_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        assert signal.getitimer(signal.ITIMER_REAL)[1] == hostspeed.INTERVAL_S
        with clock.measure() as m:
            sum(i * i for i in range(200_000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert m.seconds > 0


def _originals():
    out = {}
    for module, owner, attr in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS:
        holder = importlib.import_module(module)
        if owner is not None:
            holder = getattr(holder, owner)
        out[(holder, attr)] = vars(holder)[attr]
    return out


def test_traced_run_unwraps_and_timed_run_sees_no_wrappers(pins):
    before = _originals()
    suites = dict(cli._SUITES)
    traced = harness.traced_run(tiny_setup, 0, pins, "tiny")
    assert traced["failed"] == 0
    m = {k: v for k, (v, _) in traced["metrics"].items()}
    for name in (
        "linalg.rref.calls",
        "linalg.apply.calls",
        "algebra.product_eval.calls",
        "algebra.check.s",
        "cohomology.cochain_eval.calls",
        "cohomology.dd_check_s",
        "cohomology.assembly_s",
        "derivations.reverify_s",
        "constructions.build_s",
        "alg_io.parse_s",
    ):
        assert m[name] > 0, name
    assert tracing.installed_wrappers() == []
    assert _originals() == before
    assert cli._SUITES == suites

    def probe(seed):
        return tiny_setup(seed) + [
            Job("no-wrappers", tracing.installed_wrappers, lambda found: found)
        ]

    timed = harness.timed_run(probe, 0, 0.0, {**pins, "no-wrappers": []})
    assert timed["failed"] == 0
    assert timed["metrics"]["ops_ok_frac"][0] == 1.0


def test_counts_repeat_on_the_same_seed(pins):
    def counts():
        metrics = harness.traced_run(tiny_setup, 0, pins, "tiny")["metrics"]
        return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bits")}

    first = counts()
    assert first["linalg.rref.calls"] > 0
    assert counts() == first


def test_corrupted_pin_is_a_failed_op_and_the_pass_goes_on(pins):
    bad = dict(pins, h2=[[0, 1], 0, 0, 0, 0])
    result = harness.run_pass(tiny_setup(0), bad, HostClock())
    assert result.failed == ["h2"]
    assert list(result.times) == ["check", "h2", "der"]
    timed = harness.timed_run(tiny_setup, 0, 0.0, bad)
    assert (timed["attempted"], timed["failed"]) == (3, 1)
    assert timed["metrics"]["ops_ok_frac"][0] == pytest.approx(2 / 3)


def test_raising_job_is_a_failed_op(pins):
    def boom():
        raise RuntimeError("boom")

    jobs = tiny_setup(0)
    jobs.insert(1, Job("boom", boom, lambda r: r))
    result = harness.run_pass(jobs, {**pins, "boom": None}, HostClock())
    assert result.failed == ["boom"]


def test_corpus_pins_cover_exactly_the_corpus_jobs(tmp_path, monkeypatch):
    from perfbench import workloads

    monkeypatch.setattr(workloads, "OUT", tmp_path)
    keys = {job.key for job in corpus_sweep(0)}
    assert keys == set(load_pins()["corpus-sweep"])
    assert [j.key for j in corpus_sweep(5)] == [j.key for j in corpus_sweep(5)]
