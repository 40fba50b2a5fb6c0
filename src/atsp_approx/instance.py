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
(outermost first), so hulls come from chains instead of scans over the
family, and each edge keeps the sets it enters and exits as bit masks over
family indices.

The nice u-v path starts from the fewest-edge u-v path inside the hull,
ties to the smallest edge ids.  All pairs (u, v) of one hull share a
breadth-first search tree from u inside it, built once per (u, hull) on
first request: a truncated search is a prefix of the full one, so each tree
path is the path a search for v alone would find.  Every tree vertex
carries its parent edge, its path's cost (an integer numerator over one
instance-wide denominator) and a mask of the sets that path enters or
exits twice.  A pair whose mask is zero takes the tree path as it is, so
its cost and niceness are read off the tree and no path is built; a pair
whose mask is not zero repairs the tree path set by set.  A path is built
only when `nice_path` asks for it (or a repair needs it) and is memoized
then, as is each window's value(W).
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


def _mask(indices: Iterable[int]) -> int:
    return sum(1 << i for i in indices)


def _path_vertices(g: Digraph, start: int, path: list[int]) -> list[int]:
    verts = [start]
    for eid in path:
        verts.append(g.edge(eid).head)
    return verts


class StronglyLaminarInstance:
    """(G, L, x, y) with memoized nice-path search trees.

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
        self._exit_mask: list[int] = []
        self._enter_mask: list[int] = []
        for e in g.edges:
            ct, ch = self._chains[e.tail], self._chains[e.head]
            k = _common_prefix(ct, ch)
            self._exit_mask.append(_mask(ct[k:]))
            self._enter_mask.append(_mask(ch[k:]))
        # costs and weights as integer numerators over one denominator
        weights = [family.weights[s] for s in family.members]
        self._den = 1  # a loop for the reason given in lp._separate_all
        for q in [e.cost for e in g.edges] + weights:
            self._den = lcm(self._den, q.denominator)
        self._cost_num = [e.cost.numerator * (self._den // e.cost.denominator)
                          for e in g.edges]
        self._weight_num = [y.numerator * (self._den // y.denominator)
                            for y in weights]
        # (source, hull depth) -> {vertex: (parent edge, cost, violated mask)}
        self._trees: dict[tuple[int, int], dict[int, tuple[int, int, int]]] = {}
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
        entered = exited = bad = 0
        for eid in path:
            into, out = self._enter_mask[eid], self._exit_mask[eid]
            bad |= (entered & into) | (exited & out)
            entered |= into
            exited |= out
        return (bad & -bad).bit_length() - 1 if bad else None

    def _tree(self, u: int, k: int) -> dict[int, tuple[int, int, int]]:
        """The breadth-first search tree from u inside the k-th set of u's
        chain (the ground set for k = 0), out-edges scanned in id order as
        in `graph.bfs_path`.  Each vertex maps to its parent edge (-1 at
        u), the cost numerator of its tree path and the mask of the sets
        that path enters or exits more than once."""
        tree = self._trees.get((u, k))
        if tree is not None:
            return tree
        hull = self.family.members[self._chains[u][k - 1]] if k else self.ground
        edges, out_edges = self.g.edges, self.g.out_edges
        enter, leave, cost = self._enter_mask, self._exit_mask, self._cost_num
        tree = {u: (-1, 0, 0)}
        crossed = {u: (0, 0)}  # the sets each tree path enters, and exits
        frontier = [u]
        while frontier:
            nxt = []
            for v in frontier:
                _, c, bad = tree[v]
                entered, exited = crossed[v]
                for eid in out_edges[v]:
                    w = edges[eid].head
                    if w in tree or w not in hull:
                        continue
                    into, out = enter[eid], leave[eid]
                    tree[w] = (eid, c + cost[eid], bad | (entered & into) | (exited & out))
                    crossed[w] = (entered | into, exited | out)
                    nxt.append(w)
            frontier = nxt
        self._trees[(u, k)] = tree
        return tree

    def _hull_tree(self, u: int, v: int) -> dict[int, tuple[int, int, int]]:
        """u's search tree inside hull(u, v); it must reach v."""
        tree = self._tree(u, _common_prefix(self._chains[u], self._chains[v]))
        if v not in tree:
            raise ContractViolation(f"no {u}-{v} path inside {sorted(self.hull(u, v))}; "
                                    "instance not strongly laminar")
        return tree

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
        tree = self._hull_tree(u, v)
        path = []
        w = v
        while w != u:
            eid = tree[w][0]
            path.append(eid)
            w = g.edges[eid].tail
        path.reverse()
        if not tree[v][2]:
            return path
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
        """Cost numerator of the nice u-v path: its tree path's unless it is
        stored or needs a repair."""
        if u == v:
            return 0
        path = self._paths.get((u, v))
        if path is None:
            _, cost, bad = self._hull_tree(u, v)[v]
            if not bad:
                return cost
            path = self.nice_path(u, v)
        return sum(self._cost_num[eid] for eid in path)

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
        most once each way).  A stored or repaired path is re-walked; any
        other pair's path is its tree path, which stays in the hull by
        construction and is nice when its tree's violated mask is zero."""
        checker = checker or Checker()
        for u in range(self.g.n):
            for v in range(self.g.n):
                if u == v:
                    continue
                path = self._paths.get((u, v))
                if path is None and self._hull_tree(u, v)[v][2]:
                    path = self.nice_path(u, v)
                nice = path is None or self.is_nice(u, v, path)
                checker.check(nice, "stored-path-nice", lambda: f"pair ({u},{v})")
