"""Outside-in tracing of bihomlie for the benchmark's traced run.

The library has no instrumentation of its own, so the traced run wraps a
fixed set of its public functions and methods for the length of the run and
restores the originals afterwards.  A wrapper is put wherever callers look
the function up: every attribute of a ``bihomlie`` module, every value of a
module-level dict (the CLI's dispatch tables) and every class attribute
(``ColourAlgebra.bracket`` is an alias of ``product_eval``) that holds the
original object.  Rebinding only the package re-export would miss the
library's internal calls.

Functions get spans (name, start, end, parent, phase); the hot evaluation
methods get bare call counters, because a span per call would cost more
than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

from perfbench.hostspeed import Measured

# (module, class or None, attribute) wrapped in a span.
SPAN_TARGETS = [
    ("bihomlie.linalg", "Matrix", "rref"),
    ("bihomlie.alg_io", None, "parse_algebra"),
    ("bihomlie.algebra", None, "check_lie_axioms"),
    ("bihomlie.algebra", None, "check_associative_axioms"),
    ("bihomlie.algebra", None, "check_bihom_axioms"),
    ("bihomlie.constructions", None, "commutator_algebra"),
    ("bihomlie.constructions", None, "yau_twist"),
    ("bihomlie.cohomology", None, "cochain_basis"),
    ("bihomlie.cohomology", None, "apply_coboundary"),
    ("bihomlie.cohomology", None, "coboundary_matrix"),
    ("bihomlie.cohomology", None, "cohomology_dims"),
]
SOLVERS = (
    "derivation_space",
    "centroid_space",
    "quasi_derivation_space",
    "generalized_derivation_space",
    "quasi_centroid_space",
    "inner_derivation_space",
)
PREDICATES = (
    "is_derivation",
    "is_quasi_derivation_pair",
    "is_generalized_triple",
    "is_centroid_member",
    "is_quasi_centroid_member",
)
SPAN_TARGETS += [("bihomlie.derivations", None, f) for f in SOLVERS + PREDICATES]

# (module, class, method) that only count calls.
COUNT_TARGETS = [
    ("bihomlie.linalg", "Matrix", "apply"),
    ("bihomlie.algebra", "ColourAlgebra", "product_eval"),
    ("bihomlie.cohomology", "Cochain", "eval"),
]

OVERHEAD = "trace.overhead"
_MARK = "__perfbench_original__"


def target_name(module: str, owner: Optional[str], attr: str) -> str:
    """Span or counter name: module without the package, then the path."""
    short = module.rsplit(".", 1)[-1]
    return ".".join(p for p in (short, owner, attr) if p)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None  # index into Tracer.spans
    phase: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rref_attrs(args, result) -> dict:
    """Input cells and the largest numerator/denominator bit length out."""
    m = args[0]
    reduced = result[0]
    bits = max(
        (
            max(x.numerator.bit_length(), x.denominator.bit_length())
            for row in reduced.rows
            for x in row
            if x
        ),
        default=0,
    )
    return {"cells": m.nrows * m.ncols, "max_bits": bits}


class Tracer:
    """Span and counter recorder that patches bihomlie while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.phase_counts: dict[str, dict[str, int]] = {}
        self._cells: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, perf_counter(), parent=parent, phase=self.phase)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span, e.g. one job of a pass."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def set_phase(self, phase: str) -> None:
        """Close the counters of the current phase and start ``phase``."""
        self.phase_counts[self.phase] = {
            k: cell[0] for k, cell in self._cells.items()
        }
        for cell in self._cells.values():
            cell[0] = 0
        self.phase = phase

    def counts(self, phase: str) -> dict[str, int]:
        if phase == self.phase:
            return {k: cell[0] for k, cell in self._cells.items()}
        return self.phase_counts.get(phase, {})

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        attrs = _rref_attrs if name == "linalg.Matrix.rref" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if attrs is not None:
                # Measured outside the span, and booked as a child of the
                # caller so that it does not count as the caller's self time.
                with self.span(OVERHEAD):
                    span.attrs = attrs(args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        cell = self._cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for targets, make in (
            (SPAN_TARGETS, self._span_wrapper),
            (COUNT_TARGETS, self._count_wrapper),
        ):
            for module, owner, attr in targets:
                holder = importlib.import_module(module)
                if owner is not None:
                    holder = getattr(holder, owner)
                original = vars(holder)[attr]
                wrapper = make(target_name(module, owner, attr), original)
                setattr(wrapper, _MARK, original)
                self._replace_everywhere(original, wrapper)

    def _replace_everywhere(self, original: object, wrapper: object) -> None:
        for holder, key, val, _ in list(_references()):
            if val is original:
                self._patches.append((holder, key, val))
                _set(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            _set(*self._patches.pop())


def _set(holder: object, key: object, value: object) -> None:
    if isinstance(holder, dict):
        holder[key] = value
    else:
        setattr(holder, key, value)


def _references():
    """(holder, key, value, label) for every place a bihomlie caller can
    look a function up: module attributes, values of module-level dicts and
    attributes of classes defined in the module."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "bihomlie" or name.startswith("bihomlie.")):
            continue
        for key, val in list(vars(mod).items()):
            yield mod, key, val, f"{name}.{key}"
            if isinstance(val, dict):
                for k, v in list(val.items()):
                    yield val, k, v, f"{name}.{key}[{k!r}]"
            elif isinstance(val, type) and val.__module__ == name:
                for k, v in list(vars(val).items()):
                    yield val, k, v, f"{name}.{key}.{k}"


def installed_wrappers() -> list[str]:
    """Where a tracer wrapper is still reachable in bihomlie; empty if none."""
    return [label for _, _, val, label in _references() if hasattr(val, _MARK)]


# -- per-layer metrics --------------------------------------------------------


def net_durations(spans: list[Span], probes=()) -> list[float]:
    """Each span's duration less the host-speed probes that ran inside it;
    ``probes`` are hostspeed.HostClock.samples, (start, duration) in time
    order."""
    starts = [start for start, _ in probes]
    upto = list(itertools.accumulate((d for _, d in probes), initial=0.0))
    return [
        s.duration - upto[bisect_left(starts, s.end)] + upto[bisect_left(starts, s.start)]
        for s in spans
    ]


def self_times(spans: list[Span], probes=()) -> list[float]:
    """Each span's duration minus the durations of its direct children,
    every duration less the probes run inside it.

    Spans are recorded on one thread, so children never overlap and their
    durations add up to the part of the parent's interval they cover.
    """
    net = net_durations(spans, probes)
    out = list(net)
    for i, s in enumerate(spans):
        if s.parent is not None:
            out[s.parent] -= net[i]
    return out


_CHECKS = {
    "algebra.check_lie_axioms",
    "algebra.check_associative_axioms",
    "algebra.check_bihom_axioms",
}
_BUILDS = {"constructions.commutator_algebra", "constructions.yau_twist"}
_SOLVER_SPANS = {f"derivations.{f}" for f in SOLVERS}
_PREDICATE_SPANS = {f"derivations.{f}" for f in PREDICATES}


def layer_metrics(
    tracer: Tracer, probes, traced: Measured, untraced: Measured
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as {name: (value, unit)}, of one traced run.

    Metrics that explain ``wall_s`` count only the job phase; the two that
    explain ``setup_s`` (build and parse) count the whole run, set-up
    included, because the CLI parses its input inside every job.  Span
    times exclude the host-speed probes run inside them and are rescaled by
    the traced pass's factor, so they add up like ``wall_s`` does.
    ``trace.overhead_ratio`` is the traced pass over the untraced one, both
    rescaled; with one pass each, it resolves no better than the
    run-to-run spread of ``wall_s``.
    """
    spans = tracer.spans
    own = self_times(spans, probes)
    net = net_durations(spans, probes)
    scale = traced.seconds / traced.raw_s
    jobs = [i for i, s in enumerate(spans) if s.phase == "jobs"]

    def name(i: Optional[int]) -> Optional[str]:
        return None if i is None else spans[i].name

    def outermost(i: int, names: set) -> bool:
        p = spans[i].parent
        while p is not None:
            if spans[p].name in names:
                return False
            p = spans[p].parent
        return True

    def total(idx, keep, self_time=False) -> float:
        return scale * sum(own[i] if self_time else net[i] for i in idx if keep(i))

    rref = [i for i in jobs if spans[i].name == "linalg.Matrix.rref"]
    rref_s = total(rref, lambda i: True)
    applies = [i for i in jobs if spans[i].name == "cohomology.apply_coboundary"]
    counts = tracer.counts("jobs")
    everything = range(len(spans))
    return {
        "linalg.rref.s": (rref_s, "s"),
        "linalg.rref.share": (rref_s / traced.seconds, "ratio"),
        "linalg.rref.calls": (len(rref), "count"),
        "linalg.rref.cells": (sum(spans[i].attrs["cells"] for i in rref), "count"),
        "linalg.rref.max_bits": (
            max((spans[i].attrs["max_bits"] for i in rref), default=0),
            "bits",
        ),
        "linalg.apply.calls": (counts.get("linalg.Matrix.apply", 0), "count"),
        "algebra.product_eval.calls": (
            counts.get("algebra.ColourAlgebra.product_eval", 0),
            "count",
        ),
        "algebra.check.s": (
            total(jobs, lambda i: spans[i].name in _CHECKS and outermost(i, _CHECKS)),
            "s",
        ),
        "cohomology.cochain_basis.self_s": (
            total(jobs, lambda i: spans[i].name == "cohomology.cochain_basis", True),
            "s",
        ),
        "cohomology.cochain_eval.calls": (
            counts.get("cohomology.Cochain.eval", 0),
            "count",
        ),
        "cohomology.assembly_s": (
            total(
                applies,
                lambda i: name(spans[i].parent) == "cohomology.coboundary_matrix",
            ),
            "s",
        ),
        "cohomology.apply_coboundary.calls": (len(applies), "count"),
        "cohomology.dd_check_s": (
            total(
                applies,
                lambda i: name(spans[i].parent) == "cohomology.cohomology_dims",
            ),
            "s",
        ),
        "derivations.assembly_s": (
            total(jobs, lambda i: spans[i].name in _SOLVER_SPANS, True),
            "s",
        ),
        "derivations.reverify_s": (
            total(
                jobs,
                lambda i: spans[i].name in _PREDICATE_SPANS
                and name(spans[i].parent) in _SOLVER_SPANS,
            ),
            "s",
        ),
        "constructions.build_s": (
            total(
                everything,
                lambda i: spans[i].name in _BUILDS and outermost(i, _BUILDS),
            ),
            "s",
        ),
        "alg_io.parse_s": (
            total(everything, lambda i: spans[i].name == "alg_io.parse_algebra"),
            "s",
        ),
        "trace.overhead_ratio": (traced.seconds / untraced.seconds, "ratio"),
    }
