"""Strongly laminar ATSP instances and their derived quantities.

An instance is a quadruple (G, L, x, y): a strongly connected digraph whose
edge costs are induced by the positive weights y on a laminar family L, each
member of which induces a strongly connected subgraph and is a tight cut of
the circulation x.  On top of it we keep, for every ordered vertex pair, a
fixed *nice* path (one that stays inside the smallest family set containing
both endpoints and crosses every family set at most once each way); the
reduction to vertebrate pairs relies on these paths and on the reach
quantities value(W) and D_W computed from them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .checks import Checker
from .errors import ContractViolation
from .graph import Digraph, LaminarFamily, bfs_path, crossing_weight

ZERO = Fraction(0)

_REPAIR_CAP_SLACK = 2


def path_crossings(g: Digraph, path: Iterable[int], s: frozenset) -> tuple[int, int]:
    """(#entries, #exits) of the edge path across the vertex set."""
    enters = exits = 0
    for eid in path:
        e = g.edge(eid)
        tin, hin = e.tail in s, e.head in s
        if hin and not tin:
            enters += 1
        elif tin and not hin:
            exits += 1
    return enters, exits


def cut_value(g: Digraph, x: Sequence[Fraction], s: frozenset) -> Fraction:
    """x(delta(S)): the x-mass of the edges leaving or entering S."""
    return sum((x[e] for e in g.delta_plus(s)), ZERO) + sum(
        (x[e] for e in g.delta_minus(s)), ZERO
    )


def _path_vertices(g: Digraph, start: int, path: list[int]) -> list[int]:
    verts = [start]
    for eid in path:
        verts.append(g.edge(eid).head)
    return verts


class StronglyLaminarInstance:
    """Immutable (G, L, x, y) with the per-pair nice-path table built eagerly.

    The digraph's edge costs are the induced costs; ``validate`` re-derives
    them from (L, y) and re-checks the full definition.
    """

    def __init__(self, g: Digraph, family: LaminarFamily, x: Iterable[Fraction]):
        self.g = g
        self.family = family
        self.x: tuple[Fraction, ...] = tuple(Fraction(v) for v in x)
        if len(self.x) != g.m:
            raise ContractViolation("x must assign a value to every edge")
        self.ground: frozenset = frozenset(range(g.n))
        self.lp_value: Fraction = sum(
            (g.edges[e].cost * self.x[e] for e in range(g.m)), ZERO
        )
        self._paths: dict[tuple[int, int], tuple[int, ...]] = {}
        self._build_nice_paths()

    # -- basic derived quantities -------------------------------------------------

    def induced_cost(self, eid: int) -> Fraction:
        e = self.g.edge(eid)
        return crossing_weight(self.family.weights, e.tail, e.head)

    def y_vertex(self, v: int) -> Fraction:
        """Weight of the singleton {v}, or 0."""
        return self.family.singleton_weight(v)

    def family_or_ground(self) -> list[frozenset]:
        out = list(self.family.members)
        if self.ground not in self.family.weights:
            out.insert(0, self.ground)
        return out

    # -- nice paths ---------------------------------------------------------------

    def _build_nice_paths(self) -> None:
        for u in range(self.g.n):
            for v in range(self.g.n):
                if u != v:
                    self._paths[(u, v)] = tuple(self._compute_nice_path(u, v))

    def nice_path(self, v: int, w: int) -> tuple[int, ...]:
        """The fixed nice v-w path (edge ids); empty when v == w."""
        if v == w:
            return ()
        return self._paths[(v, w)]

    def _compute_nice_path(self, u: int, v: int) -> list[int]:
        g = self.g
        hull = self.family.minimal_containing((u, v), self.ground)
        path = bfs_path(g, u, v, allowed_vertices=hull)
        if path is None:
            raise ContractViolation(
                f"no {u}-{v} path inside {sorted(hull)}; instance not strongly laminar"
            )
        cap = len(self.family) + _REPAIR_CAP_SLACK
        for _ in range(cap):
            violated = None
            for s in self.family.members:  # decreasing size: first hit is maximal
                enters, exits = path_crossings(g, path, s)
                if enters > 1 or exits > 1:
                    violated = s
                    break
            if violated is None:
                return path
            verts = _path_vertices(g, u, path)
            inside = [i for i, w in enumerate(verts) if w in violated]
            first, last = inside[0], inside[-1]
            repair = bfs_path(g, verts[first], verts[last], allowed_vertices=violated)
            if repair is None:
                raise ContractViolation(
                    f"family set {sorted(violated)} does not induce a strongly "
                    "connected subgraph"
                )
            path = path[:first] + repair + path[last:]
        raise ContractViolation("nice-path repair loop exceeded the family-size cap")

    def is_nice(self, u: int, v: int, path: Iterable[int]) -> bool:
        path = list(path)
        hull = self.family.minimal_containing((u, v), self.ground)
        verts = set(_path_vertices(self.g, u, path)) if path else {u}
        if not verts <= hull:
            return False
        return all(
            enters <= 1 and exits <= 1
            for enters, exits in (path_crossings(self.g, path, s) for s in self.family)
        )

    def path_cost(self, path: Iterable[int]) -> Fraction:
        return sum((self.g.edge(eid).cost for eid in path), ZERO)

    def nice_path_cost_identity(self, w_set: frozenset, u: int, v: int,
                                checker: Optional[Checker] = None) -> Fraction:
        """Cost of the stored nice u-v path, with its crossing-weight identity
        re-checked exactly: the cost equals twice the weight of the proper
        subsets of W the path touches, minus the weights of the sets holding
        each endpoint."""
        checker = checker or Checker()
        path = self.nice_path(u, v)
        verts = set(_path_vertices(self.g, u, list(path))) if path else {u}
        cost = self.path_cost(path)
        touched = ZERO
        ends = ZERO
        for s in self.family.members:
            if not s < w_set:
                continue
            y = self.family.weight(s)
            if verts & s:
                touched += 2 * y
            if u in s:
                ends += y
            if v in s:
                ends += y
        checker.check(cost == touched - ends, "nice-path-cost-identity",
                      lambda: f"u={u} v={v} W={sorted(w_set)} cost={cost}")
        return cost

    # -- value(W) and D_W ---------------------------------------------------------

    def value(self, w_set: frozenset) -> Fraction:
        return sum(
            (2 * self.family.weight(s) for s in self.family.members if s < w_set),
            ZERO,
        )

    def reach(self, w_set: frozenset, u: int, v: int) -> Fraction:
        """D_W(u, v): endpoint crossing weights plus the nice-path cost."""
        total = self.path_cost(self.nice_path(u, v))
        for s in self.family.members:
            if s < w_set:
                y = self.family.weight(s)
                if u in s:
                    total += y
                if v in s:
                    total += y
        return total

    def value_and_dw(self, w_set: frozenset,
                     checker: Optional[Checker] = None
                     ) -> tuple[Fraction, Fraction, int, int]:
        """(value(W), D_W, argmax pair); ties broken lexicographically.

        Also re-checks D_W(u,v) <= value(W) for every scanned pair.
        """
        checker = checker or Checker()
        val = self.value(w_set)
        verts = sorted(w_set)
        best = None
        best_pair = (verts[0], verts[0])
        for u in verts:
            for v in verts:
                d = self.reach(w_set, u, v)
                checker.check(d <= val, "reach-at-most-value",
                              lambda: f"D_W({u},{v})={d} > value={val}")
                if best is None or d > best:
                    best = d
                    best_pair = (u, v)
        return val, best, best_pair[0], best_pair[1]

    # -- validation ---------------------------------------------------------------

    def validate(self, checker: Optional[Checker] = None) -> None:
        """Re-check every clause of the instance definition.

        The LP-feasibility clause (every cut at least 2) is exponential to
        check directly and is certified by the separation oracle instead;
        it runs only when the checker has check_all enabled.
        """
        checker = checker or Checker()
        g = self.g
        checker.check(g.is_strongly_connected(), "instance-strongly-connected")
        for s in self.family.members:
            checker.check(g.is_strongly_connected(frozenset(s)),
                          "family-set-strongly-connected",
                          lambda: sorted(s))
        for e in range(g.m):
            checker.check(self.x[e] > 0, "x-positive", lambda: f"edge {e}")
            checker.check(g.edges[e].cost == self.induced_cost(e),
                          "induced-cost-consistent", lambda: f"edge {e}")
        for v in range(g.n):
            inflow = sum((self.x[e] for e in g.in_edges[v]), ZERO)
            outflow = sum((self.x[e] for e in g.out_edges[v]), ZERO)
            checker.check(inflow == outflow, "x-circulation", lambda: f"vertex {v}")
        for s in self.family.members:
            cut = cut_value(g, self.x, s)
            checker.check(cut == 2, "family-cut-tight",
                          lambda: f"{sorted(s)} has x(delta)={cut}")
        checker.check(
            self.lp_value == sum((2 * y for y in self.family.weights.values()), ZERO),
            "lp-equals-dual-objective",
        )
        if checker.check_all and g.n >= 2:
            from .lp import separate_subtour  # local import to avoid a cycle

            violated = separate_subtour(self.g, list(self.x))
            checker.check(violated is None, "x-feasible-all-cuts",
                          lambda: sorted(violated))

    def validate_paths(self, checker: Optional[Checker] = None) -> None:
        """Crossing-count check for every stored path (at most once each way)."""
        checker = checker or Checker()
        for (u, v), path in sorted(self._paths.items()):
            checker.check(self.is_nice(u, v, path), "stored-path-nice",
                          lambda: f"pair ({u},{v})")
