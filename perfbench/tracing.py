"""Spans around the calls into each module of atsp_approx, recorded from outside.

The tracer swaps module-level names (and a few methods) of the imported
package for wrappers that record a span (name, start, end, parent) in
memory; no file of the package changes.  `derive` turns the spans of one
batch pass into the per-layer metrics listed in BENCHMARK.json.

The wrapping points follow how the pipeline looks its callees up:

- `lp` imports `max_flow_min_cut` by name, so it is wrapped in `atsp_approx.lp`;
- `simplex.solve_lp` is called through the module, so one wrapper sees both
  the subtour LP rounds and the witness LPs of the cover; they are told
  apart by their enclosing span;
- `vertebrate_solve` binds `subtour_cover` as a default argument, so the
  cover is reached through the `cover_fn` handed to `svensson_iterate`;
- `solve_atsp`, `verify_tour`, `held_karp_opt` are globals of `harness`;
  `build_strongly_laminar_instance`, `reduce_and_solve`, `contracted_pair`
  and `vertebrate_solve` are globals of `vertebrate`.

A wrapping point that no longer exists is skipped and listed in
`Tracer.missing`; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root span
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _den_bits(res) -> int:
    values = list(res.x) + list(res.duals) + [res.objective]
    return max((v.denominator.bit_length() for v in values), default=0)


def _annotate_lp(span: Span, args, kwargs, res) -> None:
    objective = args[0] if args else kwargs["objective"]
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    span.attrs.update(rows=len(rows), cols=len(objective), den_bits=_den_bits(res))


def _annotate_lp_solve(span: Span, args, kwargs, res) -> None:
    g = args[0] if args else kwargs["g"]
    span.attrs["n"] = g.n


def _annotate_build(span: Span, args, kwargs, res) -> None:
    span.attrs["nonsingletons"] = len(res[0].family.nonsingletons())


def _annotate_pair(span: Span, args, kwargs, res) -> None:
    span.attrs["missed"] = len(res[3])


def _annotate_iterate(span: Span, args, kwargs, res) -> None:
    span.attrs["restart"] = res.kind == "better"


# (module, attribute path, span name, annotate)
WRAP_POINTS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("atsp_approx.harness", "solve_atsp", "solve", None),
    ("atsp_approx.harness", "verify_tour", "harness.verify", None),
    ("atsp_approx.harness", "held_karp_opt", "harness.oracle", None),
    ("atsp_approx.vertebrate", "build_strongly_laminar_instance", "lp.build",
     _annotate_build),
    ("atsp_approx.lp", "solve_atsp_lp", "lp.solve", _annotate_lp_solve),
    ("atsp_approx.lp", "_separate_all", "lp.separation", None),
    ("atsp_approx.lp", "separate_subtour", "lp.separate_subtour", None),
    ("atsp_approx.lp", "uncross_dual", "lp.uncross", None),
    ("atsp_approx.lp", "make_strongly_laminar", "lp.repair", None),
    ("atsp_approx.lp", "max_flow_min_cut", "flows.maxflow", None),
    ("atsp_approx.simplex", "solve_lp", "simplex", _annotate_lp),
    ("atsp_approx.flows", "CirculationProblem.solve", "flows.circulation", None),
    ("atsp_approx.instance", "StronglyLaminarInstance.__init__", "instance.build",
     None),
    ("atsp_approx.instance", "StronglyLaminarInstance.validate",
     "instance.validate", None),
    ("atsp_approx.instance", "StronglyLaminarInstance.validate_paths",
     "instance.validate_paths", None),
    ("atsp_approx.vertebrate", "reduce_and_solve", "vertebrate.reduce", None),
    ("atsp_approx.vertebrate", "contracted_pair", "vertebrate.contracted_pair",
     _annotate_pair),
    ("atsp_approx.vertebrate", "vertebrate_solve", "svensson.solve", None),
    ("atsp_approx.svensson", "svensson_iterate", "svensson.iterate",
     _annotate_iterate),
)


class Tracer:
    """In-memory span recorder; `install` patches, `uninstall` restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn: Callable, name: str,
             annotate: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(idx)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result
        return traced

    def _with_traced_cover(self, fn: Callable) -> Callable:
        sig = inspect.signature(fn)
        if "cover_fn" not in sig.parameters:
            self.missing.append("cover_fn of svensson_iterate")
            return fn

        @functools.wraps(fn)
        def call(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            bound.arguments["cover_fn"] = self.wrap(bound.arguments["cover_fn"],
                                                    "cover")
            return fn(*bound.args, **bound.kwargs)
        return call

    def install(self) -> None:
        for module_name, path, name, annotate in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module_name}.{path}")
                continue
            fn = original
            if name == "svensson.iterate":
                fn = self._with_traced_cover(fn)
            setattr(owner, attr, self.wrap(fn, name, annotate))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    idx = span.parent
    while idx >= 0:
        if spans[idx].name == name:
            return True
        idx = spans[idx].parent
    return False


def self_times(spans: list[Span]) -> tuple[Counter, Counter, Counter]:
    """(total, self, calls) per span name; self time is the duration minus
    the time covered by direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    total, own, calls = Counter(), Counter(), Counter()
    for span, covered in zip(spans, child):
        total[span.name] += span.duration
        own[span.name] += span.duration - covered
        calls[span.name] += 1
    return total, own, calls


def stage_coverage(spans: list[Span]) -> float:
    """Share of `solve` time covered by its direct child spans."""
    solve_idx = {i for i, s in enumerate(spans) if s.name == "solve"}
    solve_total = sum(spans[i].duration for i in solve_idx)
    covered = sum(s.duration for s in spans if s.parent in solve_idx)
    return covered / solve_total if solve_total else 0.0


def derive(spans: list[Span], check_counts: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one batch pass: (deterministic counters, times).

    `check_counts` holds the `assertion_counts` of every report of the pass.
    """
    total, own, calls = self_times(spans)
    simplex = [s for s in spans if s.name == "simplex"]
    subtour = [s for s in simplex if spans[s.parent].name == "lp.solve"]
    witness = [s for s in simplex if _has_ancestor(spans, s, "cover")]
    maxflow = [s for s in spans if s.name == "flows.maxflow"]
    separation = [s for s in spans if s.name == "lp.separation"
                  and _has_ancestor(spans, s, "lp.solve")]
    last_round: dict[int, Span] = {}
    for s in subtour:
        last_round[s.parent] = s
    cuts_final = sum(s.attrs["rows"] - spans[p].attrs["n"]
                     for p, s in last_round.items())
    fired: Counter = Counter()
    for counts in check_counts:
        fired.update(counts)

    counters = {
        "simplex.calls": calls["simplex"],
        "simplex.rows_max": max((s.attrs["rows"] for s in simplex), default=0),
        "simplex.cols_max": max((s.attrs["cols"] for s in simplex), default=0),
        "simplex.den_bits_max": max((s.attrs["den_bits"] for s in simplex),
                                    default=0),
        "lp.rounds": len(subtour),
        "lp.cuts_final": cuts_final,
        "lp.family_nonsingletons": sum(s.attrs["nonsingletons"] for s in spans
                                       if s.name == "lp.build"),
        "flows.maxflow.calls": len(maxflow),
        "flows.maxflow.validate_calls": sum(
            1 for s in maxflow if _has_ancestor(spans, s, "lp.separate_subtour")),
        "flows.circulation.calls": calls["flows.circulation"],
        "instance.builds": calls["instance.build"],
        "vertebrate.windows": calls["vertebrate.contracted_pair"],
        "vertebrate.missed_sets": sum(s.attrs["missed"] for s in spans
                                      if s.name == "vertebrate.contracted_pair"),
        "svensson.solves": calls["svensson.solve"],
        "svensson.iterations": calls["svensson.iterate"],
        "svensson.restarts": sum(1 for s in spans if s.name == "svensson.iterate"
                                 and s.attrs["restart"]),
        "cover.calls": calls["cover"],
        "checks.fired": sum(fired.values()),
        "checks.labels": sum(1 for v in fired.values() if v > 0),
    }
    times = {
        "simplex.self_s": own["simplex"],
        "simplex.subtour_s": sum(s.duration for s in subtour),
        "simplex.witness_s": sum(s.duration for s in witness),
        "lp.build_s": total["lp.build"],
        "lp.solve_s": total["lp.solve"],
        "lp.separation_s": sum(s.duration for s in separation),
        "lp.uncross_s": total["lp.uncross"],
        "lp.repair_s": total["lp.repair"],
        "flows.maxflow.s": total["flows.maxflow"],
        "flows.circulation.s": total["flows.circulation"],
        "instance.build_s": total["instance.build"],
        "instance.validate_s": total["instance.validate"],
        "instance.validate_paths_s": total["instance.validate_paths"],
        "vertebrate.contracted_pair_s": total["vertebrate.contracted_pair"],
        "vertebrate.reduce_self_s": own["vertebrate.reduce"],
        "svensson.self_s": own["svensson.solve"] + own["svensson.iterate"],
        "cover.s": total["cover"],
        "harness.parse_s": total["harness.parse"],
        "harness.verify_s": total["harness.verify"],
        "harness.oracle_s": total["harness.oracle"],
        "harness.report_s": total["harness.report"],
        "trace.stage_coverage": stage_coverage(spans),
    }
    return counters, times
