"""Strongly laminar ATSP instances and their derived quantities.

An instance is a quadruple (G, L, x, y): a strongly connected digraph whose
edge costs are induced by the positive weights y on a laminar family L, each
member of which induces a strongly connected subgraph and is a tight cut of
the circulation x.  On top of it we keep, for every ordered vertex pair, a
fixed *nice* path (one that stays inside the smallest family set containing
both endpoints and crosses every family set at most once each way); the
reduction to vertebrate pairs relies on these paths and on the reach
quantities value(W) and D_W computed from them.

Each vertex keeps its *chain*, the indices of the family sets containing it
(outermost first), so hulls and crossing counts come from chains instead of
scans over the family.  Nice paths are built on first request and memoized,
as are their costs (integer numerators over one instance-wide denominator)
and each window's value(W).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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


def _common_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Length of the common prefix of two chains; the sets it names are the
    ones containing both vertices, since the family is laminar."""
    k = 0
    while k < len(a) and k < len(b) and a[k] == b[k]:
        k += 1
    return k


def _path_vertices(g: Digraph, start: int, path: list[int]) -> list[int]:
    verts = [start]
    for eid in path:
        verts.append(g.edge(eid).head)
    return verts


class StronglyLaminarInstance:
    """(G, L, x, y) with a memoized per-pair nice-path table.

    The digraph's edge costs are the induced costs; ``validate`` re-derives
    them from (L, y) and re-checks the full definition.  The instance never
    changes after construction; the memo tables only fill in.
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
        chains: list[list[int]] = [[] for _ in range(g.n)]
        for i, s in enumerate(family.members):  # decreasing size: outermost first
            for v in s:
                chains[v].append(i)
        self._chains: tuple[tuple[int, ...], ...] = tuple(map(tuple, chains))
        # an edge exits the sets of its tail's chain past the prefix shared
        # with its head's chain, and enters those of its head's
        self._crossed: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for e in g.edges:
            ct, ch = self._chains[e.tail], self._chains[e.head]
            k = _common_prefix(ct, ch)
            self._crossed.append((ct[k:], ch[k:]))
        # costs and weights as integer numerators over one denominator
        weights = [family.weights[s] for s in family.members]
        self._den = 1  # a loop for the reason given in lp._separate_all
        for q in [e.cost for e in g.edges] + weights:
            self._den = lcm(self._den, q.denominator)
        self._cost_num = [e.cost.numerator * (self._den // e.cost.denominator)
                          for e in g.edges]
        self._weight_num = [y.numerator * (self._den // y.denominator)
                            for y in weights]
        self._path_num: dict[tuple[int, int], int] = {}
        self._windows: dict[frozenset, tuple[int, frozenset]] = {}

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

    def hull(self, u: int, v: int) -> frozenset:
        """Smallest family set (or the ground set) containing u and v: the
        deepest set their chains share."""
        k = _common_prefix(self._chains[u], self._chains[v])
        return self.family.members[self._chains[u][k - 1]] if k else self.ground

    def _first_violated(self, path: Iterable[int]) -> Optional[int]:
        """Lowest family index the path enters or exits more than once."""
        enters: dict[int, int] = {}
        exits: dict[int, int] = {}
        for eid in path:
            left, entered = self._crossed[eid]
            for i in left:
                exits[i] = exits.get(i, 0) + 1
            for i in entered:
                enters[i] = enters.get(i, 0) + 1
        bad = [i for counts in (enters, exits) for i, c in counts.items() if c > 1]
        return min(bad) if bad else None

    def nice_path(self, v: int, w: int) -> tuple[int, ...]:
        """The fixed nice v-w path (edge ids); empty when v == w."""
        if v == w:
            return ()
        path = self._paths.get((v, w))
        if path is None:
            path = self._paths[(v, w)] = tuple(self._compute_nice_path(v, w))
        return path

    def _compute_nice_path(self, u: int, v: int) -> list[int]:
        g = self.g
        hull = self.hull(u, v)
        path = bfs_path(g, u, v, allowed_vertices=hull)
        if path is None:
            raise ContractViolation(
                f"no {u}-{v} path inside {sorted(hull)}; instance not strongly laminar"
            )
        cap = len(self.family) + _REPAIR_CAP_SLACK
        for _ in range(cap):
            index = self._first_violated(path)
            if index is None:
                return path
            violated = self.family.members[index]  # maximal among the violated
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
        verts = set(_path_vertices(self.g, u, path))
        return verts <= self.hull(u, v) and self._first_violated(path) is None

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

    def _window(self, w_set: frozenset) -> tuple[int, frozenset]:
        """value(W) as a numerator, and the indices of the sets strictly
        inside W; memoized per window."""
        hit = self._windows.get(w_set)
        if hit is None:
            inner = frozenset(i for i, s in enumerate(self.family.members)
                              if s < w_set)
            hit = (2 * sum(self._weight_num[i] for i in inner), inner)
            self._windows[w_set] = hit
        return hit

    def _end_num(self, inner: frozenset, u: int) -> int:
        """Weight of the sets strictly inside the window that hold u."""
        return sum(self._weight_num[i] for i in self._chains[u] if i in inner)

    def _nice_path_num(self, u: int, v: int) -> int:
        cost = self._path_num.get((u, v))
        if cost is None:
            cost = self._path_num[(u, v)] = sum(
                self._cost_num[eid] for eid in self.nice_path(u, v))
        return cost

    def value(self, w_set: frozenset) -> Fraction:
        return Fraction(self._window(w_set)[0], self._den)

    def reach(self, w_set: frozenset, u: int, v: int) -> Fraction:
        """D_W(u, v): endpoint crossing weights plus the nice-path cost."""
        inner = self._window(w_set)[1]
        return Fraction(self._end_num(inner, u) + self._end_num(inner, v)
                        + self._nice_path_num(u, v), self._den)

    def value_and_dw(self, w_set: frozenset,
                     checker: Optional[Checker] = None
                     ) -> tuple[Fraction, Fraction, int, int]:
        """(value(W), D_W, argmax pair); ties broken lexicographically.

        Also re-checks D_W(u,v) <= value(W) for every scanned pair.
        """
        checker = checker or Checker()
        den = self._den
        val_num, inner = self._window(w_set)
        verts = sorted(w_set)
        ends = [self._end_num(inner, u) for u in verts]
        best = None
        best_pair = (verts[0], verts[0])
        for u, end_u in zip(verts, ends):
            for v, end_v in zip(verts, ends):
                d = end_u + end_v + self._nice_path_num(u, v)
                checker.check(d <= val_num, "reach-at-most-value",
                              lambda: f"D_W({u},{v})={Fraction(d, den)} > "
                                      f"value={Fraction(val_num, den)}")
                if best is None or d > best:
                    best = d
                    best_pair = (u, v)
        return Fraction(val_num, den), Fraction(best, den), best_pair[0], best_pair[1]

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
        """Crossing-count check for the nice path of every ordered pair (at
        most once each way), building the paths not yet requested."""
        checker = checker or Checker()
        for u in range(self.g.n):
            for v in range(self.g.n):
                if u != v:
                    checker.check(self.is_nice(u, v, self.nice_path(u, v)),
                                  "stored-path-nice", lambda: f"pair ({u},{v})")
