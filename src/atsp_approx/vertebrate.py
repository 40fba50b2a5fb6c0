"""The recursive reduction from strongly laminar instances to vertebrate
pairs, and the top-level solver.

For a window W (a family set or the whole vertex set) the reduction fixes a
backbone from the two nice paths between the pair maximizing the reach
quantity D_W, contracts the outside and every maximal family set the
backbone misses, solves the resulting vertebrate pair, lifts the solution
back along the stored nice paths, and recurses into the contracted sets.
Each level's cost bound, the lifting's cost monotonicity, and the final
(22 + epsilon) guarantee against the LP value are asserted exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .checks import Checker
from .errors import ContractViolation, InternalCheckError
from .graph import (
    Digraph,
    EdgeMultiset,
    LaminarFamily,
    contract,
    euler_walk,
    is_eulerian_connected,
)
from .instance import StronglyLaminarInstance, induced_graph
from .lp import build_strongly_laminar_instance
from .pair import VertebratePair
from .records import Record
from .svensson import KAPPA, epsilon_constants, vertebrate_solve

ZERO = Fraction(0)


class TourCertificate(Record):
    """The verifiable output: a tour, its Euler walk, exact cost and ratio."""

    __slots__ = ("tour", "walk", "cost", "lp_value", "ratio", "epsilon")

    def __init__(self, tour: EdgeMultiset, walk: list[int], cost: Fraction,
                 lp_value: Fraction, ratio: Fraction, epsilon: Fraction) -> None:
        self.tour = tour
        self.walk = walk
        self.cost = cost
        self.lp_value = lp_value
        self.ratio = ratio
        self.epsilon = epsilon


def construct_backbone(inst: StronglyLaminarInstance, w_set: frozenset,
                       checker: Checker):
    """Backbone for the window: both fixed nice paths between the reach
    argmax pair, glued into a closed walk, each path's cost re-checked
    against its crossing-weight identity.  Returns the backbone multiset,
    its vertex set, the maximal family sets it misses, value(W) and D_W as
    numerators over the instance's denominator, and the argmax pair."""
    val_num, d_num, u_star, v_star = inst.value_and_dw(w_set, checker)
    forward = inst.nice_path(u_star, v_star)
    backward = inst.nice_path(v_star, u_star)
    inst.nice_path_cost_identity(w_set, u_star, v_star, checker)
    inst.nice_path_cost_identity(w_set, v_star, u_star, checker)
    backbone = EdgeMultiset(inst.g)
    for eid in forward + backward:
        backbone.add(eid)
    if backbone:
        touched = backbone.vertices()
    else:
        touched = frozenset({u_star})
    den = inst._den
    checker.check(inst.cost_num(backbone) <= 2 * d_num, "backbone-cost",
                  lambda: f"{backbone.cost()} > 2*{Fraction(d_num, den)}")
    members = inst.family.members
    candidates = [i for i, s in enumerate(members) if s < w_set and not (s & touched)]
    maximal = [i for i in candidates
               if not any(members[i] < members[j] for j in candidates)]
    slack = sum(2 * inst._weight_num[i] + inst.value(members[i]) for i in maximal)
    missed = sorted((members[i] for i in maximal), key=min)
    checker.check(slack <= val_num - d_num, "missed-sets-slack",
                  lambda: f"{Fraction(slack, den)} > "
                          f"{Fraction(val_num, den)} - {Fraction(d_num, den)}")
    return backbone, touched, missed, val_num, d_num, (u_star, v_star)


def _build_child_instance(inst: StronglyLaminarInstance, w_set: frozenset,
                          backbone_vertices: frozenset, missed: list[frozenset],
                          d_num: int, reach_of: dict[frozenset, int],
                          checker: Checker):
    """Contract the window complement and the missed sets, push x forward,
    and re-derive the child family with its adjusted weights, as
    numerators over twice the parent's denominator."""
    g = inst.g
    ground = inst.ground
    classes = list(missed)
    if w_set != ground:
        classes.append(ground - w_set)
    child_graph_raw, cmap = contract(g, classes)
    child_x = [inst._x_num[cmap.origin_of(eid)] for eid in range(child_graph_raw.m)]
    weighted: list[tuple[frozenset, int]] = []
    for s, w in zip(inst.family.members, inst._weight_num):
        if not s < w_set:
            continue
        if s & backbone_vertices:
            weighted.append((frozenset(cmap.child_of(v) for v in s), 2 * w))
        elif s in reach_of:  # a missed set: y_S + D_S / 2
            weighted.append((frozenset({cmap.child_of(min(s))}), 2 * w + reach_of[s]))
    if w_set != ground and d_num > 0:
        weighted.append((frozenset(cmap.child_of(v) for v in w_set), d_num))
    family = LaminarFamily(weighted, child_graph_raw.n, 2 * inst._den)
    child = StronglyLaminarInstance(induced_graph(child_graph_raw, family), family,
                                    child_x, inst._x_den)
    child.validate(checker)
    return child, cmap


def _lift_component_walk(inst: StronglyLaminarInstance, child, cmap,
                         walk: list[int], outside_vertex: Optional[int],
                         missed_of_vertex: dict[int, frozenset],
                         lifted: EdgeMultiset) -> None:
    """Map one Euler walk of the child solution back to parent edges,
    splicing nice paths at every pass through a contracted vertex."""
    g = inst.g
    length = len(walk)
    for idx, eid in enumerate(walk):
        e = child.g.edge(eid)
        if e.tail != outside_vertex and e.head != outside_vertex:
            lifted.add(cmap.origin_of(eid))
    for idx, eid in enumerate(walk):
        e = child.g.edge(eid)
        mid = e.head
        out_eid = walk[(idx + 1) % length]
        out_edge = child.g.edge(out_eid)
        if out_edge.tail != mid:
            raise InternalCheckError("walk-continuity", (eid, out_eid))
        origin_in = g.edge(cmap.origin_of(eid))
        origin_out = g.edge(cmap.origin_of(out_eid))
        if mid == outside_vertex:
            # leave the window and come back: swap the crossing pair for a
            # nice path inside it
            for path_eid in inst.nice_path(origin_in.tail, origin_out.head):
                lifted.add(path_eid)
        elif mid in missed_of_vertex:
            # traverse a contracted set: bridge entry to exit inside it
            for path_eid in inst.nice_path(origin_in.head, origin_out.tail):
                lifted.add(path_eid)


def contracted_pair(inst: StronglyLaminarInstance, w_set: frozenset, checker: Checker):
    """Steps 1-2 of the reduction: backbone, contraction, child instance.

    Returns (pair, backbone, backbone vertices, missed sets, contraction
    map, value(W), D_W), the last two as numerators over the instance's
    denominator.
    """
    backbone, touched, missed, val_num, d_num, _ = construct_backbone(
        inst, w_set, checker
    )
    reach_of = {s: inst.value_and_dw(s, checker)[1] for s in missed}
    child, cmap = _build_child_instance(inst, w_set, touched, missed, d_num,
                                        reach_of, checker)
    child_edge_of = cmap.child_edge_of()
    child_backbone = EdgeMultiset(child.g)
    for eid, mult in backbone.items():
        if eid not in child_edge_of:
            raise InternalCheckError("backbone-survives-contraction", eid)
        child_backbone.add(child_edge_of[eid], mult)
    child_backbone_vertices = frozenset(cmap.child_of(v) for v in touched)
    pair = VertebratePair(child, child_backbone, child_backbone_vertices)
    pair.validate(checker)
    return pair, backbone, touched, missed, cmap, val_num, d_num


def reduce_and_solve(inst: StronglyLaminarInstance, w_set: frozenset,
                     vp_solver: Callable[[VertebratePair], EdgeMultiset],
                     epsilon: Fraction,
                     checker: Checker,
                     _calls: Optional[list[int]] = None) -> EdgeMultiset:
    """Tour of the window's induced subgraph via the vertebrate-pair solver.

    The recursion budget is the family size: being laminar, at most 2n + 1
    windows are ever opened.
    """
    if _calls is None:
        _calls = [0]
    _calls[0] += 1
    checker.check(_calls[0] <= 2 * inst.g.n + 1, "recursion-budget",
                  lambda: _calls[0])
    if len(w_set) == 1:
        return EdgeMultiset(inst.g)
    pair, backbone, touched, missed, cmap, val_num, d_num = contracted_pair(
        inst, w_set, checker
    )
    child = pair.instance
    consts = epsilon_constants(epsilon)
    solution = vp_solver(pair)
    checker.check(pair.cost_at_most(solution, KAPPA, consts.eta), "solver-contract",
                  lambda: f"{solution.cost()}")

    outside_vertex = (cmap.child_of(min(inst.ground - w_set))
                      if w_set != inst.ground else None)
    missed_of_vertex = {cmap.child_of(min(s)): s for s in missed}
    lifted = EdgeMultiset(inst.g)
    for comp, comp_edges in solution.components():
        walk = euler_walk(comp_edges, min(comp))
        _lift_component_walk(inst, child, cmap, walk, outside_vertex,
                             missed_of_vertex, lifted)
    checker.check(lifted.cost_num() * child.g.cost_den
                  <= solution.cost_num() * inst.g.cost_den,
                  "lifting-cost-monotone",
                  lambda: f"{lifted.cost()} > {solution.cost()}")
    checker.balanced(lifted, "lifted-eulerian")
    # the lifted solution plus the backbone visits everything except the
    # interiors of the missed sets, and crosses into every missed set
    union = lifted.union(backbone)
    interior = set()
    for s in missed:
        interior |= s
    must_cover = w_set - interior
    covered = union.vertices() | touched
    checker.check(must_cover <= covered, "lift-covers-window",
                  lambda: sorted(must_cover - covered))
    for s in missed:
        checker.check(union.crossing(s) > 0, "lift-crosses-missed",
                      lambda: sorted(s))
    total = lifted.copy()
    for s in missed:
        sub_tour = reduce_and_solve(inst, s, vp_solver, epsilon, checker, _calls)
        total = total.union(sub_tour)
    total = total.union(backbone)
    eulerian, comps = is_eulerian_connected(total)
    checker.check(eulerian, "window-tour-eulerian")
    support_comp = next((c for c in comps if c & w_set), None)
    checker.check(support_comp is not None and w_set <= support_comp,
                  "window-tour-spans",
                  lambda: sorted(w_set - (support_comp or frozenset())))
    # c(T) <= (2 kappa + 2) value(W) + (kappa + eta) (value(W) - D_W)
    c1, c2, d = consts.window_bound
    checker.check(inst.cost_num(total) * d <= c1 * val_num + c2 * (val_num - d_num),
                  "window-cost-bound", lambda: f"{total.cost()}")
    return total


def solve_atsp(g: Digraph, epsilon: Fraction, checker: Checker) -> TourCertificate:
    """End-to-end: strongly laminar reduction, recursive vertebrate-pair
    solving, verified tour with cost at most (22 + epsilon) times the LP."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ContractViolation("epsilon must be positive")
    inst, lp_value, origin = build_strongly_laminar_instance(g, checker)
    if g.n == 1:
        return TourCertificate(EdgeMultiset(g), [], ZERO, ZERO, Fraction(1),
                               epsilon)

    def solver(pair: VertebratePair) -> EdgeMultiset:
        return vertebrate_solve(pair, epsilon, checker=checker)

    tour_inst = reduce_and_solve(inst, inst.ground, solver, epsilon, checker)
    tour = EdgeMultiset(g)
    for eid, mult in tour_inst.items():
        tour.add(origin[eid], mult)
    cost = tour.cost()
    checker.check(tour.cost_num() * inst.g.cost_den
                  == tour_inst.cost_num() * g.cost_den, "tour-cost-invariant",
                  lambda: f"{cost} != {tour_inst.cost()}")
    ratio_cap = Fraction(22) + epsilon
    checker.check(cost <= ratio_cap * lp_value, "approximation-guarantee",
                  lambda: {"cost": cost, "cap": ratio_cap, "lp_value": lp_value,
                           "epsilon": epsilon, "tour": sorted(tour.items())})
    eulerian, comps = is_eulerian_connected(tour)
    checker.check(eulerian, "tour-eulerian")
    checker.check(comps == [frozenset(range(g.n))], "tour-spans")
    walk = euler_walk(tour, 0)
    if not lp_value.numerator:
        checker.check(cost == 0, "zero-lp-zero-cost")
        ratio = Fraction(1)
    else:
        ratio = cost / lp_value
    return TourCertificate(tour, walk, cost, lp_value, ratio, epsilon)
