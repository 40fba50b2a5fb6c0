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

x and the family weights come in as int numerators over one denominator
each and are kept only that way, in least terms; the costs are scaled once
to the weights' denominator.  Every sum and comparison runs on those ints,
and `validate` re-checks the very integers every later stage reads.

Inside a hull (a family set, or the ground set), a *block* is a child set
(the next set of its vertices' chains) or a vertex in no child set, and is
numbered by its smallest vertex.  The nice u-v path follows the block path
that a breadth-first search from u's block finds inside the hull, scanning
each block's vertices in increasing order and their out-edges by id; each
block it crosses is bridged by the nice path inside it between where the
path enters and leaves it.  Every family set then meets the path in one
stretch, so the path is nice by construction.  A path is built only when
`nice_path` asks for it and is memoized then, as is each window's value(W).

The nice-path costs of all n^2 ordered pairs form one table, built once
per instance (`validate_paths` builds it; `value_and_dw` builds it on
first use otherwise), innermost hull first, by one block search per
(hull, block) that serves every source in the block: with the blocks
taken in the order the search reached them, the entry for u, v is the
entry from u to the tail t of the edge t -> e that entered v's block
(already written), plus that edge's cost, plus the entry from e to v
(written with an inner hull).  No path is built for the table.  Every
window's D_W is then a scan of table rows, and `validate_paths` re-walks
only the stored paths.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, eq
from typing import Iterable, Optional, Sequence

from .checks import Checker, first_false
from .errors import ContractViolation
from .graph import Digraph, EdgeMultiset, LaminarFamily, vertex_balance
from .rational import lowest_terms


def cut_value(g: Digraph, x: Sequence, s: frozenset):
    """x(delta(S)): the x-mass of the edges leaving or entering S; an int
    when x holds int numerators."""
    return sum(x[e] for e in g.delta_plus(s)) + sum(x[e] for e in g.delta_minus(s))


def crossing_num(g: Digraph, members: Sequence[frozenset],
                  weight_num: Sequence[int]) -> list[int]:
    """Per edge, the summed weight numerators of the sets it crosses."""
    out = [0] * g.m
    for s, w in zip(members, weight_num):
        for eid in g.delta_plus(s):
            out[eid] += w
        for eid in g.delta_minus(s):
            out[eid] += w
    return out


def induced_graph(g: Digraph, family: LaminarFamily) -> Digraph:
    """g with each edge costing the total weight of the family sets it
    crosses, over the family's denominator."""
    return Digraph(g.n, [(e.tail, e.head, c) for e, c in
                         zip(g.edges, crossing_num(g, family.members, family.weight_num))],
                   family.den)


def _common_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Length of the common prefix of two chains; the sets it names are the
    ones containing both vertices, since the family is laminar."""
    k = 0
    while k < len(a) and k < len(b) and a[k] == b[k]:
        k += 1
    return k


def _mask(indices: Iterable[int]) -> int:
    return sum(1 << i for i in indices)


# each vertex's block, each block's vertices and each block's arcs (see
# `StronglyLaminarInstance._blocks`)
_Blocks = tuple[dict[int, int], dict[int, list[int]], dict[int, list[tuple[int, int]]]]


def _search(arcs: dict[int, list[tuple[int, int]]], a: int) -> dict[int, Optional[int]]:
    """Breadth-first search over the blocks of a hull from block a, given
    each block's arcs (see `StronglyLaminarInstance._blocks`): the edge
    that entered each block reached (None for a), in the order the blocks
    were reached."""
    entered: dict[int, Optional[int]] = {a: None}
    order = [a]
    for b in order:
        for eid, c in arcs[b]:
            if c not in entered:
                entered[c] = eid
                order.append(c)
    return entered


def _path_vertices(g: Digraph, start: int, path: list[int]) -> list[int]:
    verts = [start]
    for eid in path:
        verts.append(g.edge(eid).head)
    return verts


class StronglyLaminarInstance:
    """(G, L, x, y) with memoized nice paths and nice-path cost table.

    x comes in as int numerators ``x_num`` over ``x_den`` (one per edge)
    and is kept in least terms; the family brings y the same way.  The
    digraph's edge costs are the induced costs; ``validate`` re-checks
    them against the weights, and the full definition, on the stored
    integers.  The instance never changes after construction; the memo
    tables only fill in.

    The integer view: ``_x_num[e] / _x_den`` is x_e; ``_cost_num[e] /
    _den`` is the cost of edge e and ``_weight_num[i] / _den`` the weight
    of the i-th family set; ``_singleton_num[v] / _den`` is y_v; and
    ``_lp_num / (_den * _x_den)`` is the LP value.  `value`, `reach` and
    `value_and_dw` return numerators over ``_den``; ``x`` is a ``Fraction``
    view built on request.
    """

    def __init__(self, g: Digraph, family: LaminarFamily, x_num: Sequence[int],
                 x_den: int):
        self.g = g
        self.family = family
        if len(x_num) != g.m:
            raise ContractViolation("x must assign a value to every edge")
        self.ground: frozenset = frozenset(range(g.n))
        self._x_num, self._x_den = lowest_terms(x_num, x_den)
        self._den = math.lcm(family.den, g.cost_den)
        self._weight_num = [w * (self._den // family.den) for w in family.weight_num]
        scale = self._den // g.cost_den
        self._cost_num = [c * scale for c in g.cost_num]
        self._lp_num = sum(c * v for c, v in zip(self._cost_num, self._x_num))
        self.lp_value = Fraction(self._lp_num, self._den * self._x_den)
        self._singleton_num = [0] * g.n
        for s, w in zip(family.members, self._weight_num):
            if len(s) == 1:
                self._singleton_num[min(s)] = w
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
        self._windows: dict[frozenset, tuple[int, frozenset]] = {}
        self._hull_blocks: dict[frozenset, _Blocks] = {}  # see `_blocks`
        # row u, column v: the cost numerator of the nice u-v path
        self._table: Optional[list[list[int]]] = None

    # -- basic derived quantities -------------------------------------------------

    @property
    def x(self) -> tuple[Fraction, ...]:
        """x as Fractions, for readers outside the integer checks."""
        return tuple(Fraction(v, self._x_den) for v in self._x_num)

    def singleton_mass(self, verts: Iterable[int]) -> int:
        """2 * sum of y_v over the vertices, as a numerator over `_den`."""
        return 2 * sum(self._singleton_num[v] for v in verts)

    def cost_num(self, edges: EdgeMultiset) -> int:
        """The cost of an edge multiset of g as a numerator over `_den`."""
        return edges.cost_num() * (self._den // self.g.cost_den)

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

    def nice_path(self, v: int, w: int) -> tuple[int, ...]:
        """The fixed nice v-w path (edge ids); empty when v == w."""
        if v == w:
            return ()
        path = self._paths.get((v, w))
        if path is None:
            path = self._paths[(v, w)] = self._compute_nice_path(v, w)
        return path

    def _compute_nice_path(self, u: int, v: int) -> tuple[int, ...]:
        """The block path from u's block to v's inside their hull, each
        block on it crossed by the nice path from where the path enters it
        to where it leaves."""
        edges = self.g.edges
        k = _common_prefix(self._chains[u], self._chains[v])
        hull = self.family.members[self._chains[u][k - 1]] if k else self.ground
        block, _, arcs = self._blocks(hull, k)
        entered = _search(arcs, block[u])
        b = block[v]
        if b not in entered:
            raise ContractViolation(f"no {u}-{v} path inside {sorted(hull)}; "
                                    "instance not strongly laminar")
        steps = []
        while entered[b] is not None:
            steps.append(entered[b])
            b = block[edges[steps[-1]].tail]
        path, at = [], u
        for eid in reversed(steps):
            path += self.nice_path(at, edges[eid].tail)
            path.append(eid)
            at = edges[eid].head
        path += self.nice_path(at, v)
        return tuple(path)

    def _blocks(self, hull: frozenset, k: int) -> _Blocks:
        """The blocks of a hull whose vertices share the first k sets of
        their chains: each child set (the (k+1)-th set of its vertices'
        chains) and each vertex in none, numbered by its smallest vertex.
        Returns each vertex's block, each block's vertices in increasing
        order, and each block's arcs: the edges out of its vertices, in
        that order and by id, into other blocks, each with the block it
        enters.  Built once per hull and stored."""
        hit = self._hull_blocks.get(hull)
        if hit is not None:
            return hit
        chains, edges, out_edges = self._chains, self.g.edges, self.g.out_edges
        block: dict[int, int] = {}
        verts: dict[int, list[int]] = {}
        first: dict[int, int] = {}  # child set index -> its smallest vertex
        for v in sorted(hull):
            chain = chains[v]
            b = block[v] = first.setdefault(chain[k], v) if len(chain) > k else v
            verts.setdefault(b, []).append(v)
        arcs = {b: [(eid, block[edges[eid].head]) for v in inside for eid in out_edges[v]
                    if block.get(edges[eid].head, b) != b]  # b: outside the hull
                for b, inside in verts.items()}
        hit = self._hull_blocks[hull] = (block, verts, arcs)
        return hit

    def is_nice(self, u: int, v: int, path: Iterable[int]) -> bool:
        path = list(path)
        verts = set(_path_vertices(self.g, u, path))
        return verts <= self.hull(u, v) and self._first_violated(path) is None

    def nice_path_cost_identity(self, w_set: frozenset, u: int, v: int,
                                checker: Optional[Checker] = None) -> Fraction:
        """Cost of the stored nice u-v path, with its crossing-weight identity
        re-checked exactly: the cost equals twice the weight of the proper
        subsets of W the path touches, minus the weights of the sets holding
        each endpoint."""
        checker = checker or Checker()
        path = self.nice_path(u, v)
        verts = set(_path_vertices(self.g, u, list(path)))
        _, inner = self._window(w_set)
        cost = sum(self._cost_num[eid] for eid in path)
        touched = 2 * sum(self._weight_num[i] for i in inner
                          if verts & self.family.members[i])
        ends = self._end_num(inner, u) + self._end_num(inner, v)
        checker.check(cost == touched - ends, "nice-path-cost-identity",
                      lambda: f"u={u} v={v} W={sorted(w_set)} cost={cost}/{self._den}")
        return Fraction(cost, self._den)

    # -- value(W) and D_W ---------------------------------------------------------

    def _window(self, w_set: frozenset) -> tuple[int, frozenset]:
        """value(W) as a numerator and the indices of the sets strictly
        inside W; memoized per window."""
        hit = self._windows.get(w_set)
        if hit is None:
            inner = frozenset(i for i, s in enumerate(self.family.members) if s < w_set)
            hit = (2 * sum(self._weight_num[i] for i in inner), inner)
            self._windows[w_set] = hit
        return hit

    def _end_num(self, inner: frozenset, u: int) -> int:
        """Weight of the sets strictly inside the window that hold u."""
        return sum(self._weight_num[i] for i in self._chains[u] if i in inner)

    def _path_table(self) -> list[list[int]]:
        """The cost numerators of the nice paths: row u, column v for the
        u-v path (0 when u == v); built whole on first request."""
        table = self._table
        if table is None:
            table = self._table = self._build_path_table()
        return table

    def _build_path_table(self) -> list[list[int]]:
        """The hulls innermost first, and in each one block search per
        block, which serves every source u in the block.  Blocks are taken
        in the order the search reached them: the nice path from u to v in
        a block b is the one to the tail t of the edge t -> e that entered
        b, that edge, then the one from e to v inside b, so table[u][v] is
        table[u][t] + the edge's cost + table[e][v], the first term already
        written (t lies in u's block, filled with an inner hull, or in a
        block reached earlier) and the last filled with an inner hull."""
        n = self.g.n
        edges, cost, chains = self.g.edges, self._cost_num, self._chains
        table = [[0] * n for _ in range(n)]
        hulls = [(self.ground, 0)] + [(s, chains[min(s)].index(i) + 1)
                                     for i, s in enumerate(self.family.members)]
        for hull, k in reversed(hulls):  # members come outermost first
            _, verts, arcs = self._blocks(hull, k)
            for a in verts:
                entered = _search(arcs, a)
                if len(entered) < len(verts):
                    v = min(b for b in verts if b not in entered)
                    raise ContractViolation(f"no {a}-{v} path inside {sorted(hull)}; "
                                            "instance not strongly laminar")
                steps = [(edges[eid].tail, cost[eid], table[edges[eid].head], verts[b])
                         for b, eid in entered.items() if eid is not None]
                for u in verts[a]:
                    row = table[u]
                    for t, c, into, inside in steps:
                        base = row[t] + c
                        for v in inside:
                            row[v] = base + into[v]
        return table

    def value(self, w_set: frozenset) -> int:
        """value(W), as a numerator over `_den`."""
        return self._window(w_set)[0]

    def reach(self, w_set: frozenset, u: int, v: int) -> int:
        """D_W(u, v), as a numerator over `_den`: endpoint crossing weights
        plus the nice-path cost."""
        _, inner = self._window(w_set)
        return (self._end_num(inner, u) + self._end_num(inner, v)
                + self._path_table()[u][v])

    def value_and_dw(self, w_set: frozenset,
                     checker: Optional[Checker] = None
                     ) -> tuple[int, int, int, int]:
        """(value(W), D_W, argmax pair), the first two as numerators over
        `_den`; ties broken lexicographically.

        Also re-checks D_W(u,v) <= value(W) for every pair of W, counted
        once per pair in row-major order: each row of reaches is computed
        whole and its maximum compared, and on a failure the count stops at
        the first pair over value(W).
        """
        checker = checker or Checker()
        den = self._den
        val_num, inner = self._window(w_set)
        table = self._path_table()
        verts = sorted(w_set)
        ends = [self._end_num(inner, u) for u in verts]
        best = best_pair = None
        for i, (u, end_u) in enumerate(zip(verts, ends)):
            # end_v + cost of the nice u-v path, for v in verts
            reach = list(map(add, ends, map(table[u].__getitem__, verts)))
            top = max(reach)
            if end_u + top > val_num:
                j = next(j for j, r in enumerate(reach) if end_u + r > val_num)
                d, v = end_u + reach[j], verts[j]
                checker.check_many("reach-at-most-value", len(verts) ** 2,
                                   i * len(verts) + j,
                                   lambda: f"D_W({u},{v})={Fraction(d, den)} > "
                                           f"value={Fraction(val_num, den)}")
            if best is None or end_u + top > best:
                best = end_u + top
                best_pair = (u, verts[reach.index(top)])
        checker.check_many("reach-at-most-value", len(verts) ** 2)
        return val_num, best, best_pair[0], best_pair[1]

    # -- validation ---------------------------------------------------------------

    def validate(self, checker: Optional[Checker] = None) -> None:
        """Re-check every clause of the instance definition.

        The LP-feasibility clause (every cut at least 2) is exponential to
        check directly and is certified by the separation oracle instead,
        on every instance of at least two vertices.
        """
        checker = checker or Checker()
        g = self.g
        members = self.family.members
        checker.check(g.is_strongly_connected(), "instance-strongly-connected")
        for s in members:
            checker.check(g.is_strongly_connected(frozenset(s)),
                          "family-set-strongly-connected",
                          lambda: sorted(s))
        x_num, x_den = self._x_num, self._x_den
        positive = [v > 0 for v in x_num]
        consistent = map(eq, self._cost_num, crossing_num(g, members, self._weight_num))
        ok = [cond for pair in zip(positive, consistent) for cond in pair]
        bad = first_false(ok)
        checker.check_many(("x-positive", "induced-cost-consistent") * g.m, len(ok), bad,
                           lambda: f"edge {bad // 2}")
        ok = list(map(eq, *vertex_balance(g, x_num)))
        bad = first_false(ok)
        checker.check_many("x-circulation", g.n, bad, lambda: f"vertex {bad}")
        for s in members:
            cut = cut_value(g, x_num, s)
            checker.check(cut == 2 * x_den, "family-cut-tight",
                          lambda: f"{sorted(s)} has x(delta)={Fraction(cut, x_den)}")
        # c(x) over _den * x_den against 2 * sum(y) over _den
        checker.check(self._lp_num == 2 * sum(self._weight_num) * x_den,
                      "lp-equals-dual-objective")
        if g.n >= 2:
            from .lp import separate_subtour  # local import to avoid a cycle

            violated = separate_subtour(self.g, self._x_num, self._x_den)
            checker.check(violated is None, "x-feasible-all-cuts",
                          lambda: sorted(violated))

    def validate_paths(self, checker: Optional[Checker] = None) -> None:
        """Crossing-count check for the nice path of every ordered pair (at
        most once each way), counted once per pair in row-major order;
        builds the nice-path cost table.  A pair whose path is not stored
        takes the path its table entry was built from, which stays in the
        hull and is nice by construction; a stored path is re-walked."""
        checker = checker or Checker()
        n = self.g.n
        self._path_table()
        for u, v in sorted(self._paths):
            if not self.is_nice(u, v, self._paths[(u, v)]):
                checker.check_many("stored-path-nice", n * (n - 1),
                                   u * (n - 1) + v - (v > u),
                                   lambda: f"pair ({u},{v})")
        checker.check_many("stored-path-nice", n * (n - 1))
