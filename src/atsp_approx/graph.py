"""Directed multigraph primitives and the laminar-family machinery.

Everything downstream (LP solving, flow rounding, the recursive reduction)
works on these types.  A digraph is built from (tail, head, cost_num) triples
whose costs are nonnegative int numerators over one ``cost_den``; every cost
sum and comparison runs on those ints, and ``Edge.cost`` is the exact
``Fraction`` for readers that want one.  Input boundaries with rational costs
scale them once with :func:`integer_edges`; a graph derived from another
passes the parent's numerators and denominator on unchanged.  Graphs,
families, and contraction maps are immutable after construction; an edge
multiset is a value-like builder bound to one graph, whose combining
operations (union, restrict_to) return fresh objects, and every algorithm
here is a pure function, so shared instances are safe across threads.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import ContractViolation, InputError
from .rational import MAX_DEN_BITS, lowest_terms
from .records import FrozenRecord


class Edge(NamedTuple):
    """One directed edge of a multigraph; ids are dense 0..m-1, and
    ``cost_num / cost_den`` is its cost."""

    eid: int
    tail: int
    head: int
    cost_num: int
    cost_den: int

    @property
    def cost(self) -> Fraction:
        return Fraction(self.cost_num, self.cost_den)


def integer_edges(edge_list: Iterable[tuple[int, int, Fraction]]
                  ) -> tuple[list[tuple[int, int, int]], int]:
    """Rational-cost (tail, head, cost) triples as (tail, head, numerator)
    over the lcm of the cost denominators: ``Digraph(n, *integer_edges(...))``
    builds the graph with those costs.  An lcm of more than MAX_DEN_BITS
    bits is refused as soon as it is reached."""
    edge_list = list(edge_list)
    den = 1
    for _, _, cost in edge_list:
        den = math.lcm(den, cost.denominator)
        if den.bit_length() > MAX_DEN_BITS:
            raise InputError(f"the costs' common denominator exceeds {MAX_DEN_BITS} bits")
    return [(tail, head, cost.numerator * (den // cost.denominator))
            for tail, head, cost in edge_list], den


class Digraph:
    """Vertex/edge-indexed directed multigraph with nonnegative rational costs.

    Parallel edges are permitted; self-loops are rejected (contraction
    silently discards the loops it would create, and nothing else ever
    produces one).  ``cost_num[eid] / cost_den`` is the cost of edge eid;
    each numerator must be an ``int`` (not a bool, float or Fraction) and
    ``cost_den`` a positive ``int``.
    """

    __slots__ = ("n", "edges", "out_edges", "in_edges", "cost_num", "cost_den")

    def __init__(self, n: int, edge_list: Iterable[tuple[int, int, int]],
                 cost_den: int = 1):
        if n < 1:
            raise InputError("vertex count must be at least 1")
        if type(cost_den) is not int or cost_den < 1:
            raise InputError(f"cost denominator must be a positive int, got {cost_den!r}")
        edges = []
        costs = []
        out_edges: list[list[int]] = [[] for _ in range(n)]
        in_edges: list[list[int]] = [[] for _ in range(n)]
        new_edge = tuple.__new__  # skips Edge's generated, Python-level __new__
        for eid, (tail, head, cost) in enumerate(edge_list):
            if not (0 <= tail < n and 0 <= head < n):
                raise InputError(f"edge endpoint out of range: ({tail},{head}) with n={n}")
            if tail == head:
                raise InputError(f"self-loop at vertex {tail} not allowed")
            if type(cost) is not int:
                raise InputError(f"cost numerator {cost!r} on edge ({tail},{head}) "
                                 "is not an int")
            if cost < 0:
                raise InputError(f"negative cost {Fraction(cost, cost_den)} "
                                 f"on edge ({tail},{head})")
            edges.append(new_edge(Edge, (eid, tail, head, cost, cost_den)))
            costs.append(cost)
            out_edges[tail].append(eid)
            in_edges[head].append(eid)
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.out_edges: tuple[tuple[int, ...], ...] = tuple(map(tuple, out_edges))
        self.in_edges: tuple[tuple[int, ...], ...] = tuple(map(tuple, in_edges))
        self.cost_num: tuple[int, ...] = tuple(costs)
        self.cost_den = cost_den

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge(self, eid: int) -> Edge:
        if 0 <= eid < len(self.edges):
            return self.edges[eid]
        raise InputError(f"unknown edge id {eid}")

    def delta_plus(self, vertex_set: frozenset | set) -> list[int]:
        """Edge ids leaving the set."""
        return [e for v in vertex_set for e in self.out_edges[v]
                if self.edges[e].head not in vertex_set]

    def delta_minus(self, vertex_set: frozenset | set) -> list[int]:
        """Edge ids entering the set."""
        return [e for v in vertex_set for e in self.in_edges[v]
                if self.edges[e].tail not in vertex_set]

    def is_strongly_connected(self, restrict: Optional[frozenset] = None) -> bool:
        verts = set(restrict) if restrict is not None else set(range(self.n))
        if not verts:
            return False
        start = min(verts)
        for forward in (True, False):
            seen = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                eids = self.out_edges[v] if forward else self.in_edges[v]
                for eid in eids:
                    e = self.edges[eid]
                    w = e.head if forward else e.tail
                    if w in verts and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if seen != verts:
                return False
        return True


class EdgeMultiset:
    """A multiset of edge ids of one graph g (multiplicities >= 0).

    Each id is checked against g once, when it is added; multisets of two
    graphs neither combine nor compare equal.
    """

    __slots__ = ("g", "mult")

    def __init__(self, g: Digraph, mult: Optional[dict[int, int]] = None):
        self.g = g
        self.mult: dict[int, int] = {}
        if mult:
            for eid, k in mult.items():
                self.add(eid, k)

    def add(self, eid: int, k: int = 1) -> None:
        if not 0 <= eid < len(self.g.edges):
            raise InputError(f"unknown edge id {eid}")
        if k < 0:
            raise ContractViolation("multiplicity must be nonnegative")
        if k:
            self.mult[eid] = self.mult.get(eid, 0) + k

    def copy(self) -> "EdgeMultiset":
        out = EdgeMultiset(self.g)
        out.mult = dict(self.mult)
        return out

    def union(self, other: "EdgeMultiset") -> "EdgeMultiset":
        if other.g is not self.g:
            raise ContractViolation("union of edge multisets of two graphs")
        out = self.copy()
        for eid, k in other.mult.items():
            out.mult[eid] = out.mult.get(eid, 0) + k
        return out

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.mult.items()))

    def total(self) -> int:
        return sum(self.mult.values())

    def __len__(self) -> int:
        return len(self.mult)

    def __bool__(self) -> bool:
        return bool(self.mult)

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeMultiset) and self.g is other.g and self.mult == other.mult

    def cost_num(self) -> int:
        """The cost as a numerator over ``g.cost_den``."""
        nums = self.g.cost_num
        return sum(nums[eid] * k for eid, k in self.mult.items())

    def cost(self) -> Fraction:
        return Fraction(self.cost_num(), self.g.cost_den)

    def vertices(self) -> frozenset:
        verts = set()
        edges = self.g.edges
        for eid in self.mult:
            e = edges[eid]
            verts.add(e.tail)
            verts.add(e.head)
        return frozenset(verts)

    def degrees(self) -> tuple[dict[int, int], dict[int, int]]:
        """(in-degree, out-degree) per vertex under multiplicity."""
        indeg: dict[int, int] = {}
        outdeg: dict[int, int] = {}
        edges = self.g.edges
        for eid, k in self.mult.items():
            e = edges[eid]
            outdeg[e.tail] = outdeg.get(e.tail, 0) + k
            indeg[e.head] = indeg.get(e.head, 0) + k
        return indeg, outdeg

    def restrict_to(self, vertex_set: frozenset | set) -> "EdgeMultiset":
        """Sub-multiset of edges with both endpoints in the given set."""
        out = EdgeMultiset(self.g)
        edges = self.g.edges
        for eid, k in self.mult.items():
            e = edges[eid]
            if e.tail in vertex_set and e.head in vertex_set:
                out.mult[eid] = k
        return out

    def crossing(self, vertex_set: frozenset | set) -> int:
        """Total multiplicity of edges with exactly one endpoint in the set."""
        count = 0
        edges = self.g.edges
        for eid, k in self.mult.items():
            e = edges[eid]
            if (e.tail in vertex_set) != (e.head in vertex_set):
                count += k
        return count

    def components(self) -> list[tuple[frozenset, "EdgeMultiset"]]:
        """(vertex set, edges) per undirected component of the support that
        has an edge, ordered by smallest vertex."""
        g = self.g
        # a singleton component has no edge: there are no self-loops
        comps = [comp for comp in undirected_components(g, self.mult) if len(comp) > 1]
        index = [0] * g.n
        parts = [EdgeMultiset(g) for _ in comps]
        for i, comp in enumerate(comps):
            for v in comp:
                index[v] = i
        edges = g.edges
        for eid, k in self.mult.items():
            parts[index[edges[eid].tail]].mult[eid] = k
        return list(zip(comps, parts))


def check_laminar(sets: Sequence[frozenset]) -> bool:
    """True iff every pair of sets is nested or disjoint."""
    sets = [frozenset(s) for s in sets]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            a, b = sets[i], sets[j]
            if not (a <= b or b <= a or not (a & b)):
                return False
    return True


class LaminarFamily:
    """A laminar family of vertex sets, each with a positive rational weight.

    Members are kept in a canonical order (decreasing size, then sorted
    contents) so iteration is deterministic.  The weights come in as int
    numerators over one ``den`` and are kept only that way, reduced to
    least terms once: ``weight_num[i] / den`` is the weight of
    ``members[i]``, and ``den`` is 1 for an empty family.  ``weight(s)`` is
    a ``Fraction`` view built on request.
    """

    __slots__ = ("members", "weight_num", "den", "_nonsingletons")

    def __init__(self, weighted_sets: Iterable[tuple[frozenset, int]], n: int, den: int):
        pairs = []
        seen = set()
        for s, y in weighted_sets:
            s = frozenset(s)
            if not s:
                raise ContractViolation("empty set in laminar family")
            if s in seen:
                raise ContractViolation(f"duplicate set {sorted(s)} in laminar family")
            seen.add(s)
            pairs.append((s, y))
        pairs.sort(key=lambda p: (-len(p[0]), sorted(p[0])))
        self.members: tuple[frozenset, ...] = tuple(p[0] for p in pairs)
        weight_num, self.den = lowest_terms([p[1] for p in pairs], den)
        for s, y in zip(self.members, weight_num):
            if y <= 0:
                raise ContractViolation(f"nonpositive weight {Fraction(y, self.den)} "
                                        f"for {sorted(s)}")
        self.weight_num: tuple[int, ...] = tuple(weight_num)
        if not check_laminar(self.members):
            raise ContractViolation("set system is not laminar")
        if len(self.members) > 2 * n:
            raise ContractViolation(f"laminar family has {len(self.members)} > 2n members")
        self._nonsingletons = tuple(s for s in self.members if len(s) >= 2)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self.members)

    def __contains__(self, s: frozenset) -> bool:
        return frozenset(s) in self.members

    def weight(self, s: frozenset) -> Fraction:
        return Fraction(self.weight_num[self.members.index(frozenset(s))], self.den)

    def nonsingletons(self) -> tuple[frozenset, ...]:
        return self._nonsingletons


class ContractionMap(FrozenRecord):
    """Bookkeeping for a vertex contraction.

    vertex_map[v] is the child vertex of parent vertex v; edge_origin[e'] is
    the parent edge id a child edge e' came from.  Contraction never mutates
    the parent graph, so recursive algorithms can keep using it.
    """

    __slots__ = ("vertex_map", "edge_origin")

    def __init__(self, vertex_map: tuple[int, ...], edge_origin: tuple[int, ...]) -> None:
        object.__setattr__(self, "vertex_map", vertex_map)
        object.__setattr__(self, "edge_origin", edge_origin)

    def child_of(self, parent_vertex: int) -> int:
        return self.vertex_map[parent_vertex]

    def origin_of(self, child_eid: int) -> int:
        return self.edge_origin[child_eid]

    def child_edge_of(self) -> dict[int, int]:
        """Inverse edge map (parent eid -> child eid); origins are distinct."""
        return {parent: child for child, parent in enumerate(self.edge_origin)}


def contract(g: Digraph, classes: Sequence[frozenset]) -> tuple[Digraph, ContractionMap]:
    """Contract each vertex class into a single vertex.

    Classes must be pairwise disjoint.  Remaining vertices survive as
    singletons; child ids are assigned by scanning parent ids in order, so
    the result is deterministic.  Edges inside a class disappear.
    """
    classes = [frozenset(c) for c in classes]
    seen: set[int] = set()
    for c in classes:
        if not c:
            raise InputError("empty contraction class")
        if c & seen:
            raise InputError("contraction classes overlap")
        if not c <= set(range(g.n)):
            raise InputError("contraction class contains unknown vertex")
        seen |= c
    class_of_vertex: dict[int, int] = {}
    for idx, c in enumerate(classes):
        for v in c:
            class_of_vertex[v] = idx
    vertex_map = [-1] * g.n
    next_id = 0
    class_child: dict[int, int] = {}
    for v in range(g.n):
        if vertex_map[v] >= 0:
            continue
        if v in class_of_vertex:
            idx = class_of_vertex[v]
            if idx not in class_child:
                class_child[idx] = next_id
                next_id += 1
            for u in classes[idx]:
                vertex_map[u] = class_child[idx]
        else:
            vertex_map[v] = next_id
            next_id += 1
    child_edges = []
    origins = []
    for e in g.edges:
        t, h = vertex_map[e.tail], vertex_map[e.head]
        if t == h:
            continue
        child_edges.append((t, h, e.cost_num))
        origins.append(e.eid)
    child = Digraph(next_id, child_edges, g.cost_den)
    return child, ContractionMap(tuple(vertex_map), tuple(origins))


def undirected_components(g: Digraph, support: Iterable[int],
                          within: Optional[Iterable[int]] = None) -> list[frozenset]:
    """Components of the undirected support of the given edges, plus isolated
    vertices as singletons.  Sorted by smallest member.  The ids must be
    edges of g, as those of an `EdgeMultiset` of g are.

    With ``within``, only those vertices are grouped, and edges with an
    endpoint outside them are ignored.  Union-find over a parent list with
    path halving; the smaller root always wins a union, so every root is the
    smallest member of its component and one ascending scan lists the
    components in order.
    """
    n, edges = g.n, g.edges
    parent = list(range(n))
    inside = None
    if within is not None:
        inside = [False] * n
        for v in within:
            inside[v] = True
    for eid in support:
        _, a, b, _, _ = edges[eid]
        if inside is not None and not (inside[a] and inside[b]):
            continue
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    groups: list[list[int]] = []
    slot = [0] * n
    for v in range(n):
        if inside is not None and not inside[v]:
            continue
        r = v
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        if r == v:
            slot[v] = len(groups)
            groups.append([v])
        else:
            groups[slot[r]].append(v)
    return [frozenset(members) for members in groups]


def vertex_balance(g: Digraph, flow: Sequence) -> tuple[list, list]:
    """(inflow, outflow): per vertex, the total of flow[eid] over the edges
    entering it and over the edges leaving it, summed in one pass over the
    edges; ints when flow holds int numerators."""
    inflow = [0] * g.n
    outflow = [0] * g.n
    for e, f in zip(g.edges, flow):
        outflow[e[1]] += f
        inflow[e[2]] += f
    return inflow, outflow


def is_eulerian_connected(f: EdgeMultiset) -> tuple[bool, list[frozenset]]:
    """Check the balance condition and report undirected components.

    Eulerian means in-multiplicity equals out-multiplicity at every vertex.
    The component list covers all of V (isolated vertices as singletons).
    """
    indeg, outdeg = f.degrees()
    # both maps hold exactly the vertices with positive degree
    return indeg == outdeg, undirected_components(f.g, f.mult)


def euler_walk(f: EdgeMultiset, start: int) -> list[int]:
    """Closed walk (edge-id sequence) using each edge exactly its multiplicity.

    Hierholzer's algorithm.  Requires f Eulerian with connected support and
    positive degree at the start vertex.
    """
    indeg, outdeg = f.degrees()
    # both maps hold exactly the vertices with positive degree
    if indeg != outdeg:
        raise ContractViolation("edge multiset is not Eulerian")
    if start not in outdeg:
        raise ContractViolation(f"start vertex {start} has no edges in the multiset")
    edges = f.g.edges
    remaining: dict[int, int] = dict(f.mult)
    # per-vertex list of out-edges with positive multiplicity, ascending eid
    out_pool: dict[int, list[int]] = {}
    for eid in sorted(remaining, reverse=True):
        out_pool.setdefault(edges[eid].tail, []).append(eid)
    vertex_stack: list[int] = [start]
    edge_stack: list[int] = []
    walk: list[int] = []
    while vertex_stack:
        v = vertex_stack[-1]
        pool = out_pool.get(v)
        while pool and remaining[pool[-1]] == 0:
            pool.pop()
        if pool:
            eid = pool[-1]
            remaining[eid] -= 1
            if remaining[eid] == 0:
                pool.pop()
            vertex_stack.append(edges[eid].head)
            edge_stack.append(eid)
        else:
            vertex_stack.pop()
            if edge_stack:
                walk.append(edge_stack.pop())
    walk.reverse()
    # a balanced walk from start uses every edge of start's component
    if len(walk) != f.total():
        raise ContractViolation("support of the multiset is not connected")
    return walk


def scc_topological(g: Digraph, restrict: Optional[Iterable[int]] = None) -> list[frozenset]:
    """SCCs of the induced subgraph, in topological order of the condensation.

    Every edge between distinct components goes from an earlier to a later
    one; in particular the first component has no incoming edge from within
    the restriction.  Deterministic: ties broken by smallest member.
    """
    verts = set(restrict) if restrict is not None else range(g.n)
    if restrict is not None and not verts <= set(range(g.n)):
        raise InputError("restriction contains unknown vertex")
    edges = g.edges
    return scc_successors({v: [edges[e].head for e in g.out_edges[v]] for v in verts},
                          verts)


def scc_successors(succ: Mapping[int, Sequence[int]],
                   verts: Iterable[int]) -> list[frozenset]:
    """`scc_topological` on successor lists: the SCCs of the digraph on
    verts with an arc v -> w for each w of succ[v] that lies in verts, in
    topological order of the condensation, ties broken by smallest member."""
    verts = sorted(verts)
    vset = set(verts)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[set[int]] = []
    counter = [0]

    def strongconnect(root: int) -> None:
        work = [(root, iter([w for w in succ[root] if w in vset]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter([x for x in succ[w] if x in vset])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                sccs.append(comp)

    for v in verts:
        if v not in index:
            strongconnect(v)
    # Kahn topological sort of the condensation, smallest-member tie-break.
    comp_id = {}
    for i, comp in enumerate(sccs):
        for v in comp:
            comp_id[v] = i
    indegree = [0] * len(sccs)
    succs: list[set[int]] = [set() for _ in sccs]
    for v in verts:
        for w in succ[v]:
            if w in vset and comp_id[v] != comp_id[w] and comp_id[w] not in succs[comp_id[v]]:
                succs[comp_id[v]].add(comp_id[w])
                indegree[comp_id[w]] += 1
    heap = [(min(sccs[i]), i) for i in range(len(sccs)) if indegree[i] == 0]
    heapq.heapify(heap)
    order: list[frozenset] = []
    while heap:
        _, i = heapq.heappop(heap)
        order.append(frozenset(sccs[i]))
        for j in succs[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(heap, (min(sccs[j]), j))
    return order


def bfs_path(g: Digraph, src: int, dst: int,
             allowed_vertices: Optional[frozenset] = None,
             allowed_edges: Optional[set] = None) -> Optional[list[int]]:
    """Edge-id path with fewest edges from src to dst, or None.

    Ties broken by smallest edge id (edges scanned in id order).
    Returns [] when src == dst.
    """
    if allowed_vertices is not None and (src not in allowed_vertices or dst not in allowed_vertices):
        return None
    if src == dst:
        return []
    prev_edge: dict[int, int] = {src: -1}
    frontier = [src]
    while frontier and dst not in prev_edge:
        nxt = []
        for v in frontier:
            for eid in g.out_edges[v]:
                if allowed_edges is not None and eid not in allowed_edges:
                    continue
                w = g.edges[eid].head
                if allowed_vertices is not None and w not in allowed_vertices:
                    continue
                if w not in prev_edge:
                    prev_edge[w] = eid
                    nxt.append(w)
        frontier = nxt
    if dst not in prev_edge:
        return None
    path = []
    v = dst
    while v != src:
        eid = prev_edge[v]
        path.append(eid)
        v = g.edges[eid].tail
    path.reverse()
    return path


def dijkstra_path(g: Digraph, src: int, dst: int,
                  allowed_vertices: Optional[frozenset] = None,
                  allowed_edges: Optional[set] = None) -> Optional[tuple[int, list[int]]]:
    """Cheapest path by exact cost, or None if unreachable; the cost is
    returned as a numerator over ``g.cost_den``."""
    if allowed_vertices is not None and (src not in allowed_vertices or dst not in allowed_vertices):
        return None
    cost = g.cost_num
    dist: dict[int, int] = {src: 0}
    prev_edge: dict[int, int] = {}
    done: set[int] = set()
    heap: list[tuple[int, int]] = [(0, src)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v == dst:
            break
        for eid in g.out_edges[v]:
            if allowed_edges is not None and eid not in allowed_edges:
                continue
            w = g.edges[eid].head
            if allowed_vertices is not None and w not in allowed_vertices:
                continue
            nd = d + cost[eid]
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                prev_edge[w] = eid
                heapq.heappush(heap, (nd, w))
    if dst not in done:
        return None
    path = []
    v = dst
    while v != src:
        eid = prev_edge[v]
        path.append(eid)
        v = g.edges[eid].tail
    path.reverse()
    return dist[dst], path
