"""Runtime verification of the guarantees the algorithm relies on.

Every stage of the pipeline re-checks its exact invariants (tight cuts,
cost bounds, flow properties, ...) through a :class:`Checker`.  Checks are
counted by label so a run can report how many assertions were exercised,
and a violation raises :class:`InternalCheckError` with a diagnostic
payload instead of silently producing a bad tour.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Optional, Sequence

from .errors import InternalCheckError
from .graph import EdgeMultiset


def first_false(conds: Sequence[bool]) -> Optional[int]:
    """The position of the first False among the bools, or None: with
    `Checker.check_many`, a loop of checks evaluates its conditions into
    one list and counts them at once."""
    try:
        return conds.index(False)
    except ValueError:
        return None


class Checker:
    """Counts labelled runtime checks and raises on violation.

    Every check always runs, the costliest included: `x-feasible-all-cuts`
    (LP feasibility of an instance's x, certified by separation) and the
    dual feasibility of every uncrossing and strongly-laminar repair step
    (`uncross-step-feasible`, `strongly-laminar-step-feasible`).
    """

    def __init__(self):
        self.counters: Counter[str] = Counter()

    def check(self, cond: bool, label: str, detail: Any = None) -> None:
        self.counters[label] += 1
        if not cond:
            if callable(detail):
                detail = detail()
            raise InternalCheckError(label, detail)

    def check_many(self, label: str | Sequence[str], k: int,
                   first_failure: Optional[int] = None, detail: Any = None) -> None:
        """Count the k conditions a loop evaluates, as k calls of `check`
        would: all of them hold unless first_failure is the position of the
        first that fails, and then the ones up to and including it are
        counted and the check raises with detail.  label is the label of
        every condition, or a sequence holding the label of each, in the
        loop's order, so that a loop checking several labels per element
        counts each of them as far as the loop got."""
        if isinstance(label, str):
            passed = k if first_failure is None else first_failure
            if passed:
                self.counters[label] += passed
        else:
            self.counters.update(label[:first_failure])
            if first_failure is not None:
                label = label[first_failure]
        if first_failure is not None:
            self.check(False, label, detail)

    def balanced(self, f: EdgeMultiset, label: str,
                 vertices: Optional[Iterable[int]] = None) -> None:
        """One check per vertex that f enters as often as it leaves: the
        vertices f touches, or else the given ones."""
        indeg, outdeg = f.degrees()
        verts = list(set(indeg) | set(outdeg) if vertices is None else vertices)
        ok = [indeg.get(v, 0) == outdeg.get(v, 0) for v in verts]
        bad = first_false(ok)
        self.check_many(label, len(ok), bad, lambda: f"vertex {verts[bad]}")

    def as_dict(self) -> dict[str, int]:
        return dict(sorted(self.counters.items()))
