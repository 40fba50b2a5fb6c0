"""The subtour-cover solver: split graph, witness flows, rounding, map-back.

Given a vertebrate pair and an Eulerian edge set H away from the backbone,
this produces an Eulerian multiset F that enters and leaves every component
of (V minus the backbone, H), such that any component of F crossing a
non-singleton family set reaches the backbone.  The route: lift the LP
circulation into a two-level split graph guided by a minimal witness flow
(found by two min-cost circulations), reroute half a unit through an
auxiliary vertex per component, round to an integral circulation by exact
min-cost flow, and map back, restoring Eulerian degrees with a path inside
each component.  W_1..W_k are built once per cover.  From the witness flow
to the rounding, every flow is kept as integer numerators over one
denominator and the costs over another, so every check compares ints.

Global cost is at most twice the LP value plus the outside singleton mass;
each backbone-free component costs at most three times its own singleton
mass.  Both bounds, and every intermediate property, are asserted exactly.
"""

from __future__ import annotations

from fractions import Fraction
from operator import eq
from typing import Optional

from .checks import Checker, first_false
from .errors import InternalCheckError
from .flows import CirculationProblem
from .graph import (
    Digraph,
    EdgeMultiset,
    bfs_path,
    scc_successors,
    undirected_components,
    vertex_balance,
)
from .pair import VertebratePair
from .records import Record

FORWARD = "forward"
BACKWARD = "backward"
NEUTRAL = "neutral"

_WITNESS_EDGE_LABEL = {BACKWARD: "witness-zero-on-backward",
                       FORWARD: "witness-full-on-forward",
                       NEUTRAL: "witness-bounded-on-neutral"}

SUBTOUR_COVER_ALPHA = Fraction(3)
SUBTOUR_COVER_KAPPA = Fraction(2)
SUBTOUR_COVER_BETA = Fraction(1)


class SubtourCoverInstance(Record):
    """A pair and H; w_sets holds W_1..W_k, the components of
    (V minus backbone, H), smallest vertex first."""

    __slots__ = ("pair", "h", "w_sets")

    def __init__(self, pair: VertebratePair, h: EdgeMultiset) -> None:
        self.pair = pair
        self.h = h
        self.w_sets: list[frozenset] = undirected_components(
            pair.instance.g, h.mult, within=pair.outside_vertices())

    def validate(self, checker: Optional[Checker] = None) -> None:
        self.pair.check_initialization(self.h, checker or Checker(), "h-")


def classify_edge(r_tail: int, r_head: int) -> str:
    if r_tail < r_head:
        return FORWARD
    if r_tail > r_head:
        return BACKWARD
    return NEUTRAL


class LevelStructure:
    """Numbering of the non-singleton family sets plus V by non-increasing
    size; r(v) is the highest-numbered set containing v, and an edge is
    forward/backward/neutral according to the r of its endpoints."""

    __slots__ = ("order", "r", "edge_class")

    def __init__(self, order: list[frozenset], r: list[int], edge_class: list[str]) -> None:
        self.order = order
        self.r = r
        self.edge_class = edge_class


def build_level_structure(pair: VertebratePair) -> LevelStructure:
    inst = pair.instance
    sets = [inst.ground, *inst.family.nonsingletons()]
    sets.sort(key=lambda s: (-len(s), sorted(s)))
    r = [0] * inst.g.n
    for idx, s in enumerate(sets, start=1):
        for v in s:
            r[v] = idx  # later (smaller) sets overwrite: r(v) = max index
    classes = [classify_edge(r[e.tail], r[e.head]) for e in inst.g.edges]
    return LevelStructure(sets, r, classes)


class SplitGraph:
    """Two-level copy of a digraph: forward edges live on the lower level,
    backward edges on the upper, neutral on both; every vertex has a free
    down edge and backbone vertices also a free up edge."""

    __slots__ = ("g", "base", "kind", "lower_of", "upper_of", "down_of", "up_of")

    def __init__(self, g: Digraph, base: Digraph, kind: list[tuple],
                 lower_of: dict[int, int], upper_of: dict[int, int],
                 down_of: dict[int, int], up_of: dict[int, int]) -> None:
        self.g = g
        self.base = base
        self.kind = kind  # per split eid: ("lower"|"upper", base_eid) | ("down"|"up", v)
        self.lower_of = lower_of
        self.upper_of = upper_of
        self.down_of = down_of
        self.up_of = up_of

    @staticmethod
    def lower(v: int) -> int:
        return 2 * v

    @staticmethod
    def upper(v: int) -> int:
        return 2 * v + 1

    def level_set(self, base_vertices) -> frozenset:
        return frozenset(
            x for v in base_vertices for x in (self.lower(v), self.upper(v))
        )


def build_split_graph(base: Digraph, edge_class: list[str],
                      backbone_vertices: frozenset) -> SplitGraph:
    edges: list[tuple[int, int, int]] = []
    kind: list[tuple] = []
    lower_of: dict[int, int] = {}
    upper_of: dict[int, int] = {}
    down_of: dict[int, int] = {}
    up_of: dict[int, int] = {}

    def push(tail: int, head: int, cost: int, tag: tuple) -> int:
        edges.append((tail, head, cost))
        kind.append(tag)
        return len(edges) - 1

    for v in range(base.n):
        down_of[v] = push(SplitGraph.upper(v), SplitGraph.lower(v), 0, ("down", v))
        if v in backbone_vertices:
            up_of[v] = push(SplitGraph.lower(v), SplitGraph.upper(v), 0, ("up", v))
    for e in base.edges:
        cls = edge_class[e.eid]
        if cls in (FORWARD, NEUTRAL):
            lower_of[e.eid] = push(SplitGraph.lower(e.tail), SplitGraph.lower(e.head),
                                   e.cost_num, ("lower", e.eid))
        if cls in (BACKWARD, NEUTRAL):
            upper_of[e.eid] = push(SplitGraph.upper(e.tail), SplitGraph.upper(e.head),
                                   e.cost_num, ("upper", e.eid))
    return SplitGraph(Digraph(2 * base.n, edges, base.cost_den), base, kind,
                      lower_of, upper_of, down_of, up_of)


class WitnessFlow:
    """Sub-flow of x certifying the circulation lifts into the split graph:
    zero on backward edges, full on forward, within [0, x] on neutral, with
    nonnegative excess away from the backbone; chosen with minimal total
    component-boundary mass, then minimal total flow (hence acyclic).  f
    and boundary_optimum are numerators over the instance's x denominator."""

    __slots__ = ("f", "boundary_optimum")

    def __init__(self, f: list[int], boundary_optimum: int) -> None:
        self.f = f
        self.boundary_optimum = boundary_optimum


def _witness_circulation(g: Digraph, need: list[int], outside: frozenset,
                         capacity: dict[int, int], cost: dict[int, int]
                         ) -> Optional[dict[int, int]]:
    """Minimize sum cost[e] * f_e over integer flows 0 <= f_e <= capacity[e]
    on the neutral edges (the keys of capacity) whose net outflow at each
    vertex v outside the backbone is at least need[v]; backbone vertices are
    free.  Solved as a min-cost circulation through a hub vertex that feeds
    or drains each vertex's net outflow.  None when infeasible."""
    hub = g.n
    prob = CirculationProblem(g.n + 1)
    for eid, c in capacity.items():
        e = g.edge(eid)
        prob.add_arc(e.tail, e.head, 0, c, cost[eid])
    # no vertex's net outflow exceeds the total capacity, and no need
    # exceeds the sum of all needs
    total = sum(capacity.values()) + sum(abs(r) for r in need)
    for v in range(g.n):
        if v in outside:
            prob.add_arc(hub, v, max(need[v], 0), total, 0)
            prob.add_arc(v, hub, 0, max(-need[v], 0), 0)
        else:
            prob.add_arc(hub, v, 0, total, 0)
            prob.add_arc(v, hub, 0, total, 0)
    flows = prob.solve()
    if flows is None:
        return None
    return dict(zip(capacity, flows))


def compute_witness_flow(cover: SubtourCoverInstance, levels: LevelStructure,
                         checker: Optional[Checker] = None) -> WitnessFlow:
    """Two min-cost circulations on x scaled to integers: first minimize the
    flow crossing the component boundaries, then minimize total flow below
    the first optimum.  The result is re-checked against every defining
    property, including acyclicity of the support."""
    checker = checker or Checker()
    inst = cover.pair.instance
    g = inst.g
    x_num = inst._x_num
    cls = levels.edge_class
    outside = cover.pair.outside_vertices()
    need = [0] * g.n  # scaled forward inflow minus outflow
    capacity: dict[int, int] = {}
    cross_count: dict[int, int] = {}
    fixed_boundary = 0
    for e, crossings in zip(g.edges, _crossing_counts(g, cover.w_sets)):
        if cls[e.eid] == BACKWARD:
            continue
        scaled = x_num[e.eid]
        if cls[e.eid] == NEUTRAL:
            capacity[e.eid] = scaled
            cross_count[e.eid] = crossings
        else:
            need[e.tail] -= scaled
            need[e.head] += scaled
            fixed_boundary += crossings * scaled
    stage1 = _witness_circulation(g, need, outside, capacity, cross_count)
    if stage1 is None:
        raise InternalCheckError("witness-flow-feasible",
                                 "stage-1 witness circulation infeasible")
    boundary_opt = fixed_boundary + sum(cross_count[eid] * val
                                        for eid, val in stage1.items())
    stage2 = _witness_circulation(g, need, outside, stage1,
                                  {eid: 1 for eid in stage1})
    if stage2 is None:
        raise InternalCheckError("witness-flow-stage2",
                                 "stage-2 witness circulation infeasible")
    f = [0] * g.m
    for e in g.edges:
        if cls[e.eid] == FORWARD:
            f[e.eid] = x_num[e.eid]
        elif cls[e.eid] == NEUTRAL:
            f[e.eid] = stage2[e.eid]
    witness = WitnessFlow(f, boundary_opt)
    validate_witness_flow(cover, levels, witness, checker)
    return witness


def validate_witness_flow(cover: SubtourCoverInstance, levels: LevelStructure,
                          witness: WitnessFlow,
                          checker: Optional[Checker] = None) -> None:
    checker = checker or Checker()
    inst = cover.pair.instance
    g = inst.g
    f, x = witness.f, inst._x_num
    classes = levels.edge_class
    ok = [fe == 0 if cls == BACKWARD else fe == xe if cls == FORWARD else 0 <= fe <= xe
          for cls, fe, xe in zip(classes, f, x)]
    bad = first_false(ok)
    checker.check_many([_WITNESS_EDGE_LABEL[cls] for cls in classes], g.m, bad,
                       lambda: f"edge {bad}")
    inflow, outflow = vertex_balance(g, f)
    outside = sorted(cover.pair.outside_vertices())
    ok = [outflow[v] >= inflow[v] for v in outside]
    bad = first_false(ok)
    checker.check_many("witness-nonnegative-excess", len(ok), bad,
                       lambda: f"vertex {outside[bad]}")
    support = [e.eid for e in g.edges if f[e.eid] > 0]
    checker.check(_support_acyclic(g, support), "witness-support-acyclic")
    boundary = witness_boundary_mass(cover, witness.f)
    checker.check(boundary == witness.boundary_optimum, "witness-boundary-minimal",
                  lambda: f"{boundary} != {witness.boundary_optimum} "
                          f"(over {inst._x_den})")


def _crossing_counts(g: Digraph, w_sets: list[frozenset]) -> list[int]:
    """Per edge, how many of the disjoint sets W_i it crosses (0, 1 or 2),
    read from a component index per vertex."""
    comp = [-1] * g.n
    for i, w in enumerate(w_sets):
        for v in w:
            comp[v] = i
    counts = []
    for e in g.edges:
        a, b = comp[e[1]], comp[e[2]]
        counts.append(0 if a == b else (a >= 0) + (b >= 0))
    return counts


def witness_boundary_mass(cover: SubtourCoverInstance, f: list[int]) -> int:
    """sum over components W_i of f(delta(W_i)), for f given as numerators
    over any denominator and returned over the same one."""
    counts = _crossing_counts(cover.pair.instance.g, cover.w_sets)
    return sum(c * fe for c, fe in zip(counts, f))


def _support_acyclic(g: Digraph, support: list[int]) -> bool:
    """True iff the given edges contain no directed cycle: Kahn's algorithm,
    taking out vertices that no remaining edge enters, removes them all."""
    indeg: dict[int, int] = {}
    succ: dict[int, list[int]] = {}
    for eid in support:
        e = g.edges[eid]
        succ.setdefault(e.tail, []).append(e.head)
        indeg[e.head] = indeg.get(e.head, 0) + 1
    ready = [v for v in succ if v not in indeg]
    left = len(support)
    while ready:
        for w in succ.get(ready.pop(), ()):
            left -= 1
            indeg[w] -= 1
            if not indeg[w]:
                ready.append(w)
    return not left


class AugmentedGraph:
    """The instance graph plus one auxiliary vertex per component, carrying
    copies of the edges entering/leaving the first residual SCC of that
    component; copies of copies arise when components interface directly."""

    __slots__ = ("g", "base", "w_sets", "w_hat", "aux_of", "base_eid", "in_copy",
                 "out_copy", "edge_class")

    def __init__(self, g: Digraph, base: Digraph, w_sets: list[frozenset],
                 w_hat: list[frozenset], aux_of: list[int], base_eid: list[int],
                 in_copy: dict[tuple[int, int], int], out_copy: dict[tuple[int, int], int],
                 edge_class: list[str]) -> None:
        self.g = g
        self.base = base
        self.w_sets = w_sets
        self.w_hat = w_hat
        self.aux_of = aux_of
        self.base_eid = base_eid
        self.in_copy = in_copy
        self.out_copy = out_copy
        self.edge_class = edge_class

    @property
    def k(self) -> int:
        return len(self.w_sets)

    def aux_index(self, vertex: int) -> Optional[int]:
        if vertex >= self.base.n:
            return vertex - self.base.n
        return None


def build_augmented_graph(cover: SubtourCoverInstance, witness: WitnessFlow,
                          levels: LevelStructure,
                          checker: Optional[Checker] = None) -> AugmentedGraph:
    checker = checker or Checker()
    inst = cover.pair.instance
    g = inst.g
    f, x = witness.f, inst._x_num
    comps = cover.w_sets
    # residual graph of f with capacities x, per component
    residual_adj: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for e in g.edges:
        if f[e.eid] < x[e.eid]:
            residual_adj[e.tail].append(e.head)
        if f[e.eid] > 0:
            residual_adj[e.head].append(e.tail)

    w_hat = []
    for w in comps:
        hat = scc_successors(residual_adj, w)[0]
        incoming = [
            (v, u) for v in w - hat for u in residual_adj[v] if u in hat
        ]
        checker.check(not incoming, "first-scc-source-in-residual",
                      lambda: f"W={sorted(w)} hat={sorted(hat)}")
        w_hat.append(hat)

    edges: list[tuple[int, int, int]] = [(e.tail, e.head, e.cost_num) for e in g.edges]
    base_eid: list[int] = list(range(g.m))
    r_aug: list[int] = list(levels.r)
    in_copy: dict[tuple[int, int], int] = {}
    out_copy: dict[tuple[int, int], int] = {}
    aux_of: list[int] = []
    for i, hat in enumerate(w_hat):
        a = g.n + i
        aux_of.append(a)
        levels_in_w = {levels.r[v] for v in comps[i]}
        checker.check(len(levels_in_w) == 1, "component-level-consistent",
                      lambda: sorted(comps[i]))
        r_aug.append(levels_in_w.pop())
        snapshot = len(edges)
        for eid in range(snapshot):
            tail, head, cost = edges[eid]
            if head in hat and tail not in hat:
                edges.append((tail, a, cost))
                base_eid.append(base_eid[eid])
                in_copy[(eid, i)] = len(edges) - 1
            elif tail in hat and head not in hat:
                edges.append((a, head, cost))
                base_eid.append(base_eid[eid])
                out_copy[(eid, i)] = len(edges) - 1
    aug_g = Digraph(g.n + len(comps), edges, g.cost_den)
    edge_class = [classify_edge(r_aug[e.tail], r_aug[e.head])
                  for e in aug_g.edges]
    ok = list(map(eq, edge_class, map(levels.edge_class.__getitem__, base_eid)))
    bad = first_false(ok)
    checker.check_many("copy-edge-class-preserved", len(ok), bad, lambda: f"edge {bad}")
    return AugmentedGraph(aug_g, g, comps, w_hat, aux_of, base_eid,
                          in_copy, out_copy, edge_class)


def lift_to_split(split: SplitGraph, x_vec: list, f_vec: list) -> list:
    """Embed a circulation with witness flow into the split graph: witness
    mass on the lower level, the rest above, with the free vertical edges
    balancing each vertex pair.  Exact in the arithmetic of x and f, which
    the cover passes as integer numerators over one denominator."""
    base = split.base
    z = [0] * split.g.m
    for e in base.edges:
        lo = split.lower_of.get(e.eid)
        up = split.upper_of.get(e.eid)
        if lo is not None:
            z[lo] = f_vec[e.eid]
        if up is not None:
            z[up] = x_vec[e.eid] - f_vec[e.eid]
    f_in, f_out = vertex_balance(base, f_vec)
    for v in range(base.n):
        z[split.down_of[v]] = max(0, f_out[v] - f_in[v])
        if v in split.up_of:
            z[split.up_of[v]] = max(0, f_in[v] - f_out[v])
    return z


def is_split_circulation(split: SplitGraph, z: list[int]) -> bool:
    inflow, outflow = vertex_balance(split.g, z)
    return inflow == outflow


class ReroutedCirculation:
    """The rerouted split circulation in integers: z[eid] / den on each
    split edge, at cost cost[eid] / cost_den per unit, for a total of
    cost_num / (den * cost_den); q_level[i] is the level at which the flow
    enters auxiliary vertex i."""

    __slots__ = ("split", "z", "den", "cost", "cost_den", "cost_num", "q_level")

    def __init__(self, split: SplitGraph, z: list[int], den: int, cost: tuple[int, ...],
                 cost_den: int, cost_num: int, q_level: list[int]) -> None:
        self.split = split
        self.z = z
        self.den = den
        self.cost = cost
        self.cost_den = cost_den
        self.cost_num = cost_num
        self.q_level = q_level


def _decompose_unit_through(g: Digraph, z: list[int], inside: frozenset,
                            unit: int) -> list[tuple[int, list[int], int, int]]:
    """Extract cycles through the contracted outside of ``inside`` carrying
    weight ``unit`` in total: (entry edge, path inside, exit edge, weight)
    with the weighted sum staying below z.  Inner cycles met along the way
    are peeled off and discarded; every peel zeroes at least one edge."""
    remaining = list(z)
    out: list[tuple[int, list[int], int, int]] = []
    collected = 0
    entry_candidates = sorted(g.delta_minus(inside))
    guard = 0
    while collected < unit:
        guard += 1
        if guard > 4 * g.m + 8:
            raise InternalCheckError("cycle-decomposition-stuck", sorted(inside))
        e_in = next((eid for eid in entry_candidates if remaining[eid] > 0), None)
        if e_in is None:
            raise InternalCheckError("cycle-decomposition-underflow",
                                     f"collected {Fraction(collected, unit)}")
        path: list[int] = []
        pos: dict[int, int] = {}
        v = g.edge(e_in).head
        pos[v] = 0
        e_out = None
        while e_out is None:
            nxt = next(
                (eid for eid in sorted(g.out_edges[v]) if remaining[eid] > 0), None
            )
            if nxt is None:
                raise InternalCheckError("cycle-decomposition-deadend", v)
            head = g.edge(nxt).head
            if head not in inside:
                e_out = nxt
                break
            if head in pos:
                # peel the inner cycle and continue from its start
                cycle = path[pos[head]:] + [nxt]
                eps = min(remaining[eid] for eid in cycle)
                for eid in cycle:
                    remaining[eid] -= eps
                for eid in path[pos[head]:]:
                    del pos[g.edge(eid).head]
                path = path[: pos[head]]
                v = head
                pos[head] = len(path)
                continue
            path.append(nxt)
            v = head
            pos[v] = len(path)
        weight = min(
            [remaining[e_in], remaining[e_out]] + [remaining[eid] for eid in path]
        )
        weight = min(weight, unit - collected)
        for eid in [e_in, e_out] + path:
            remaining[eid] -= weight
        out.append((e_in, path, e_out, weight))
        collected += weight
    return out


def lift_and_reroute(cover: SubtourCoverInstance, witness: WitnessFlow,
                     aug: AugmentedGraph,
                     checker: Optional[Checker] = None) -> ReroutedCirculation:
    """Build the split circulation of the augmented graph and reroute half a
    unit of the flow through each first residual SCC onto its auxiliary
    vertex, entering at the majority level.

    z is kept as integer numerators over D, twice the lcm of the
    denominators of x and f, so that half a unit is the integer D // 2; the
    split-edge costs are the split graph's numerators over its cost
    denominator C.  Every check compares integers."""
    checker = checker or Checker()
    inst = cover.pair.instance
    backbone = cover.pair.backbone_vertices
    split = build_split_graph(aug.g, aug.edge_class, backbone)
    half = inst._x_den
    unit = 2 * half
    copies = [0] * (aug.g.m - inst.g.m)  # the auxiliary copies carry nothing yet
    x_aug = [2 * v for v in inst._x_num] + copies
    f_aug = [2 * v for v in witness.f] + copies
    z = lift_to_split(split, x_aug, f_aug)
    checker.check(is_split_circulation(split, z), "lifted-z-circulation")
    cost, cost_den = split.g.cost_num, split.g.cost_den
    cost_z = sum(c * val for c, val in zip(cost, z))
    # cost_z / (unit * cost_den) is the LP value _lp_num / (_den * _x_den)
    checker.check(cost_z * inst._den * inst._x_den == inst._lp_num * unit * cost_den,
                  "lifted-z-cost", lambda: f"{cost_z}/{unit * cost_den}")
    q_level: list[int] = []
    for i in range(aug.k):
        inside = split.level_set(aug.w_hat[i])
        crossing_in = sum(z[eid] for eid in split.g.delta_minus(inside))
        checker.check(crossing_in >= unit, "rerouting-crossing-mass",
                      lambda: f"component {i}: {Fraction(crossing_in, unit)}")
        pieces = _decompose_unit_through(split.g, z, inside, unit)
        checker.check(sum(w for (_, _, _, w) in pieces) == unit,
                      "decomposition-unit-weight")
        by_level = {0: [], 1: []}
        for piece in pieces:
            by_level[split.g.edge(piece[0]).head % 2].append(piece)
        sum0 = sum(w for (_, _, _, w) in by_level[0])
        q = 0 if sum0 >= half else 1
        q_level.append(q)
        budget = half
        lowered: list[int] = []
        for e_in, path, e_out, weight in by_level[q]:
            if budget == 0:
                break
            lam = min(weight, budget)
            budget -= lam
            p = split.g.edge(e_out).tail % 2
            checker.check(p <= q, "rerouting-exit-level",
                          lambda: f"p={p} q={q} component {i}")
            in_kind = split.kind[e_in]
            out_kind = split.kind[e_out]
            in_base = aug.in_copy[(in_kind[1], i)]
            out_base = aug.out_copy[(out_kind[1], i)]
            in_split = split.lower_of[in_base] if q == 0 else split.upper_of[in_base]
            out_split = split.lower_of[out_base] if p == 0 else split.upper_of[out_base]
            z[e_in] -= lam
            z[in_split] += lam
            for eid in path:
                z[eid] -= lam
            z[e_out] -= lam
            z[out_split] += lam
            lowered += (e_in, *path, e_out)
            if p < q:
                down = split.down_of[aug.aux_of[i]]
                z[down] += lam
        checker.check(budget == 0, "rerouting-half-unit",
                      lambda: f"component {i} moved {Fraction(half - budget, unit)}")
        # the first component's check covers the whole lifted z; a later
        # reroute can only drive negative an entry it lowers
        scan = z if i == 0 else [z[eid] for eid in lowered]
        checker.check(all(val >= 0 for val in scan), "rerouted-z-nonnegative")
    checker.check(is_split_circulation(split, z), "rerouted-z-circulation")
    cost_num = sum(c * val for c, val in zip(cost, z))
    checker.check(cost_num <= cost_z, "rerouted-z-cost")
    for i, q in enumerate(q_level):
        a = aug.aux_of[i]
        down = split.down_of[a]
        for level in (0, 1):
            node = split.lower(a) if level == 0 else split.upper(a)
            inflow = sum(z[eid] for eid in split.g.in_edges[node] if eid != down)
            expected = half if level == q else 0
            checker.check(inflow == expected, "aux-inflow-level",
                          lambda: f"component {i} level {level}: "
                                  f"{Fraction(inflow, unit)}")
    return ReroutedCirculation(split, z, unit, cost, cost_den, cost_num, q_level)


class RoundedCirculation:
    __slots__ = ("z_star", "f_bar", "f_star_lower")

    def __init__(self, z_star: list[int], f_bar: EdgeMultiset,
                 f_star_lower: list[int]) -> None:
        self.z_star = z_star
        self.f_bar = f_bar
        self.f_star_lower = f_star_lower  # witness part per augmented eid


def _ceil2(num: int, den: int) -> int:
    """The ceiling of 2 * num / den, for den > 0."""
    return -(-2 * num // den)


def round_circulation(rerouted: ReroutedCirculation, aug: AugmentedGraph,
                      cover: SubtourCoverInstance,
                      checker: Optional[Checker] = None) -> RoundedCirculation:
    """Round twice the rerouted circulation to an integral one by exact
    min-cost flow with per-edge caps, an in-degree cap on every upper-level
    vertex, and a forced unit through each auxiliary vertex's chosen level.
    All four rounding properties plus the structural consequences used by
    the cost analysis are asserted."""
    checker = checker or Checker()
    split = rerouted.split
    sg = split.g
    z, den, cost = rerouted.z, rerouted.den, rerouted.cost
    z_in = vertex_balance(sg, z)[0]
    upper = [split.upper(v) for v in range(aug.g.n)]
    in_cap = {node: _ceil2(z_in[node], den) for node in upper}
    forced_nodes = {split.lower(a) if q == 0 else split.upper(a)
                    for a, q in zip(aug.aux_of, rerouted.q_level)}
    # node-split: split vertex v becomes in-node 2v and out-node 2v + 1,
    # joined by arc v, bounded where v is constrained; arc sg.n + eid
    # carries split edge eid
    prob = CirculationProblem(2 * sg.n)
    for v in range(sg.n):
        if v in forced_nodes:
            lo, hi = 1, 1
        elif v in in_cap:
            lo, hi = 0, in_cap[v]
        else:
            lo, hi = 0, 10 ** 9
        prob.add_arc(2 * v, 2 * v + 1, lo, hi, 0)
    edge_cap = [_ceil2(val, den) for val in z]
    for e in sg.edges:
        prob.add_arc(2 * e.tail + 1, 2 * e.head, 0, edge_cap[e.eid], cost[e.eid])
    flows = prob.solve()
    if flows is None:
        raise InternalCheckError("rounding-infeasible",
                                 "2z is a feasible fractional point")
    z_star = flows[sg.n:]
    ok = [0 <= val <= cap for val, cap in zip(z_star, edge_cap)]
    bad = first_false(ok)
    checker.check_many("rounding-edge-caps", len(ok), bad, lambda: f"edge {bad}")
    cost_star = sum(cost[eid] * z_star[eid] for eid in range(sg.m))
    checker.check(cost_star * den <= 2 * rerouted.cost_num, "rounding-cost-bound",
                  lambda: f"{Fraction(cost_star, rerouted.cost_den)}")
    got = vertex_balance(sg, z_star)[0]
    ok = [got[node] <= in_cap[node] for node in upper]
    bad = first_false(ok)
    checker.check_many("rounding-upper-indegree", len(ok), bad,
                       lambda: f"vertex {bad}: {got[upper[bad]]}")
    for i in range(aug.k):
        a = aug.aux_of[i]
        in0, in1 = got[split.lower(a)], got[split.upper(a)]
        checker.check(in0 == 1 or in1 == 1, "rounding-aux-unit",
                      lambda: f"component {i}: {in0},{in1}")
    # project to the augmented graph
    f_bar = EdgeMultiset(aug.g)
    f_star_lower = [0] * aug.g.m
    for eid in range(aug.g.m):
        lo = split.lower_of.get(eid)
        up = split.upper_of.get(eid)
        if lo is not None:
            f_star_lower[eid] = z_star[lo]
        mult = f_star_lower[eid] + (z_star[up] if up is not None else 0)
        if mult:
            f_bar.add(eid, mult)
    _split_cycles_touch_backbone(split, z_star, aug, checker)
    _check_rounded_structure(f_bar, f_star_lower, aug, cover, checker)
    return RoundedCirculation(z_star, f_bar, f_star_lower)


def _split_cycles_touch_backbone(split: SplitGraph, z_star: list[int],
                                 aug: AugmentedGraph,
                                 checker: Checker) -> None:
    """Cycle-decompose the integral split circulation and re-check that any
    cycle whose image crosses a non-singleton family set climbs an up edge
    of a backbone vertex (the split graph's reason for existing)."""
    remaining = list(z_star)
    sg = split.g
    while True:
        start = next((eid for eid, k in enumerate(remaining) if k > 0), None)
        if start is None:
            break
        cycle = [start]
        pos = {sg.edge(start).tail: 0}
        v = sg.edge(start).head
        while v not in pos:
            pos[v] = len(cycle)
            nxt = next(eid for eid in sorted(sg.out_edges[v])
                       if remaining[eid] > 0)
            cycle.append(nxt)
            v = sg.edge(nxt).head
        cycle = cycle[pos[v]:]
        for eid in cycle:
            remaining[eid] -= 1
        crosses = any(
            aug.edge_class[split.kind[eid][1]] != NEUTRAL
            for eid in cycle if split.kind[eid][0] in ("lower", "upper")
        )
        if crosses:
            ups = [eid for eid in cycle if split.kind[eid][0] == "up"]
            checker.check(bool(ups), "split-cycle-touches-backbone",
                          lambda: [split.kind[eid] for eid in cycle])


def _check_rounded_structure(f_bar: EdgeMultiset, f_star: list[int],
                             aug: AugmentedGraph, cover: SubtourCoverInstance,
                             checker: Checker) -> None:
    g = aug.g
    inst = cover.pair.instance
    backbone = cover.pair.backbone_vertices
    indeg, outdeg = f_bar.degrees()
    for i in range(aug.k):
        a = aug.aux_of[i]
        checker.check(indeg.get(a, 0) == 1, "aux-one-incoming",
                      lambda: f"component {i}")
        checker.check(outdeg.get(a, 0) == 1, "aux-one-outgoing",
                      lambda: f"component {i}")
    support = [eid for eid, k in enumerate(f_star) if k > 0]
    checker.check(_support_acyclic(g, support), "rounded-witness-acyclic")
    for comp, comp_edges in f_bar.components():
        if comp & backbone:
            continue
        checker.check(all(f_star[eid] == 0 for eid in comp_edges.mult),
                      "backbone-free-zero-witness", lambda: sorted(comp))
        checker.check(
            all(aug.edge_class[eid] != FORWARD for eid in comp_edges.mult),
            "backbone-free-no-forward", lambda: sorted(comp))
        verts = [v for v in comp if v < aug.base.n and inst.singleton_mass((v,))]
        ok = [indeg.get(v, 0) <= 2 for v in verts]
        bad = first_false(ok)
        checker.check_many("backbone-free-indegree", len(ok), bad,
                           lambda: f"vertex {verts[bad]}: in-degree {indeg.get(verts[bad], 0)}")


def map_back(rounded: RoundedCirculation, aug: AugmentedGraph,
             cover: SubtourCoverInstance,
             checker: Optional[Checker] = None) -> EdgeMultiset:
    """Replace auxiliary-vertex edges by their base edges and repair the
    Eulerian degrees with a path inside each component."""
    checker = checker or Checker()
    inst = cover.pair.instance
    g = inst.g
    f = EdgeMultiset(g)
    entry: dict[int, int] = {}
    exit_: dict[int, int] = {}
    for eid, mult in rounded.f_bar.items():
        e = aug.g.edge(eid)
        base = aug.base_eid[eid]
        f.add(base, mult)
        i_head = aug.aux_index(e.head)
        if i_head is not None:
            entry[i_head] = g.edge(base).head
        i_tail = aug.aux_index(e.tail)
        if i_tail is not None:
            exit_[i_tail] = g.edge(base).tail
    members = inst.family.members
    nonsingletons = [j for j, s in enumerate(members) if len(s) > 1]
    for i in range(aug.k):
        s, t = entry[i], exit_[i]
        checker.check(s in aug.w_hat[i] and t in aug.w_hat[i],
                      "map-back-endpoints-inside", lambda: f"component {i}")
        path = bfs_path(g, s, t, allowed_vertices=aug.w_sets[i])
        checker.check(path is not None, "map-back-path-exists",
                      lambda: f"component {i}: {s}->{t}")
        crossed = 0  # the family sets the path enters or exits
        for eid in path:
            crossed |= inst._enter_mask[eid] | inst._exit_mask[eid]
        ok = [not crossed >> j & 1 for j in nonsingletons]
        bad = first_false(ok)
        checker.check_many("map-back-path-in-component", len(ok), bad,
                           lambda: f"component {i} crosses "
                                   f"{sorted(members[nonsingletons[bad]])}")
        path_cost = sum(inst._cost_num[eid] for eid in path)
        mass = inst.singleton_mass(aug.w_sets[i])
        checker.check(path_cost <= mass, "map-back-path-cost",
                      lambda: f"component {i}: {path_cost} > {mass} (over {inst._den})")
        for eid in path:
            f.add(eid)
    checker.balanced(f, "mapped-back-eulerian", range(g.n))
    return f


def subtour_cover(cover: SubtourCoverInstance,
                  checker: Optional[Checker] = None) -> EdgeMultiset:
    """Full (3,2,1) subtour-cover pipeline with every contract asserted."""
    checker = checker or Checker()
    cover.validate(checker)
    inst = cover.pair.instance
    g = inst.g
    levels = build_level_structure(cover.pair)
    witness = compute_witness_flow(cover, levels, checker)
    aug = build_augmented_graph(cover, witness, levels, checker)
    rerouted = lift_and_reroute(cover, witness, aug, checker)
    rounded = round_circulation(rerouted, aug, cover, checker)
    f = map_back(rounded, aug, cover, checker)
    # solution properties
    checker.balanced(f, "cover-eulerian", range(g.n))
    for i, w in enumerate(cover.w_sets):
        checker.check(f.crossing(w) > 0, "cover-crosses-component",
                      lambda: f"W_{i + 1}={sorted(w)}")
    backbone = cover.pair.backbone_vertices
    for comp, comp_edges in f.components():
        crosses_family = any(
            comp_edges.crossing(s) > 0 for s in inst.family.nonsingletons()
        )
        if crosses_family:
            checker.check(bool(comp & backbone), "cover-crossing-touches-backbone",
                          lambda: sorted(comp))
        if not comp & backbone:
            mass = inst.singleton_mass(comp)
            alpha = SUBTOUR_COVER_ALPHA
            checker.check(inst.cost_num(comp_edges) * alpha.denominator
                          <= alpha.numerator * mass, "cover-component-bound",
                          lambda: f"{sorted(comp)}: {comp_edges.cost()}")
    checker.check(cover.pair.cost_at_most(f, SUBTOUR_COVER_KAPPA, SUBTOUR_COVER_BETA),
                  "cover-global-bound", lambda: f"{f.cost()}")
    return f
