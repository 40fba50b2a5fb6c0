"""The subtour-elimination LP, its dual, and the strongly laminar reduction.

Everything is exact: the LP is solved by an integer dual simplex over a
working set of cut constraints grown by a min-cut separation oracle, the
dual support is uncrossed to a laminar family, and the laminar family is
then repaired so every support set induces a strongly connected subgraph.
The result is a :class:`StronglyLaminarInstance` whose induced costs agree
with the original costs up to the vertex potentials, so tours keep their
cost.

The circulation constraint at v is the `>=` row  in(v) - out(v) >= 0.
These rows sum to 0 identically, so `>= 0` at every vertex forces `= 0` at
every vertex and the feasible set is that of the equality rows.  Their
duals a_v must now be nonnegative instead of free, which loses no optimal
dual: the rows sum to zero and have right-hand side 0, so adding one
constant to every a_v keeps a dual feasible at the same objective.  With
every row a `>=` row and every cost nonnegative (`Digraph` refuses negative
costs), `simplex.solve_lp` starts from the all-surplus basis, which is dual
feasible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import simplex
from .checks import Checker, first_false
from .errors import ContractViolation, InfeasibleInstanceError, InternalCheckError
from .flows import FlowNetwork, max_flow_min_cut
from .graph import Digraph, LaminarFamily, check_laminar, scc_topological
from .instance import StronglyLaminarInstance, crossing_num, cut_value, induced_graph

ZERO = Fraction(0)

_CUTTING_ROUND_CAP = 200


class PrimalLp:
    """Optimal circulation: per-edge values x_num / x_den over their least
    common denominator, and the objective c(x)."""

    __slots__ = ("x_num", "x_den", "objective")

    def __init__(self, x_num: list[int], x_den: int, objective: Fraction) -> None:
        self.x_num = x_num
        self.x_den = x_den
        self.objective = objective

    @property
    def x(self) -> list[Fraction]:
        return [Fraction(v, self.x_den) for v in self.x_num]


class DualLp:
    """Dual solution: vertex potentials a and cut weights y on an explicit
    support, as integer numerators over one positive den, a multiple of the
    graph's cost denominator; objective is the numerator of the dual
    objective sum(2 y_U) over den."""

    __slots__ = ("a", "y", "objective", "den")

    def __init__(self, a: list[int], y: dict[frozenset, int], objective: int,
                 den: int) -> None:
        self.a = a
        self.y = y
        self.objective = objective
        self.den = den

    def copy(self) -> "DualLp":
        return DualLp(list(self.a), dict(self.y), self.objective, self.den)


def _dual_objective(y: dict[frozenset, int]) -> int:
    """The numerator of sum(2 y_U)."""
    return 2 * sum(y.values())


def _same_value(num: int, den: int, q: Fraction) -> bool:
    """num / den == q, cross-multiplied."""
    return num * q.denominator == q.numerator * den


def _dual_slack(g: Digraph, dual: DualLp) -> list[int]:
    """Per edge, the numerator over dual.den of cost - a_head + a_tail -
    y(sets the edge crosses)."""
    c_scale, rest = divmod(dual.den, g.cost_den)
    if rest:
        raise ContractViolation(f"dual denominator {dual.den} is not a multiple of the "
                                f"cost denominator {g.cost_den}")
    a = dual.a
    return [c * c_scale + a[e.tail] - a[e.head] - y for e, c, y
            in zip(g.edges, g.cost_num, crossing_num(g, list(dual.y), list(dual.y.values())))]


def dual_feasible(g: Digraph, dual: DualLp) -> bool:
    """Exact feasibility of (a, y) for the dual LP: y >= 0, and on every
    edge a_head - a_tail + y(sets the edge crosses) <= cost."""
    if any(y < 0 for y in dual.y.values()):
        return False
    return all(v >= 0 for v in _dual_slack(g, dual))


def separate_subtour(g: Digraph, x_num: Sequence[int], unit: int) -> Optional[frozenset]:
    """Find some U with x(delta(U)) < 2, or None when all cuts hold, for
    x = x_num / unit with unit > 0.

    x must be a circulation: nonnegative and balanced at every vertex
    (ContractViolation otherwise).  Then x(delta(U)) = 2 x(delta+(U)), so it
    suffices to compare global minimum directed cuts against 1.  Root
    vertex 0.  The vertex pairs x already joins are shrunk first, so
    max-flow runs only between the classes left, and not at all when one
    class is left, as for an integral x that meets every cut (see
    `_separate_all`).
    """
    violated = _separate_all(g, x_num, unit, first_only=True)
    return violated[0] if violated else None


def _separate_all(g: Digraph, x_num: Sequence[int], unit: int,
                  first_only: bool = False) -> list[frozenset]:
    """Sides of the minimum cuts with x(delta+) < 1, from vertex 0 to each
    other terminal t and back, for x = x_num / unit with unit > 0.

    x must be a circulation, so x(delta+(U)) = x(delta-(U)) for every U.
    Classes of vertices are shrunk first: when the arcs from class A to
    class B carry x >= 1 in total, every U that separates a vertex of A
    from one of B has x(delta+(U)) >= 1, so no cut below 1 splits A + B and
    the two merge (safe shrinking, Padberg-Rinaldi 1990), repeated until
    nothing more merges.  Every cut below 1 is then a union of classes, so
    the minimal minimum cuts between 0 and t, and between t and 0, are those
    of the network on the classes, where x per class pair is summed into one
    integer arc: a class's terminals share its sides, and taking the
    classes by smallest vertex lists the sides as the loop over every t
    would.  One class left means every cut holds, with no max-flow call.
    Each max-flow call stops once its flow reaches unit; both directions
    between 0 and a class have the same min-cut value, so when the (0, t)
    value is at least 1 the (t, 0) call is skipped.  Below 1 both calls
    are made, because their sides can differ.
    """
    n = g.n
    # union-find with path halving; the smaller root wins, so each class's
    # root is its smallest vertex
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    def union(a: int, b: int) -> None:
        a, b = find(a), find(b)
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b

    arcs: list[tuple[int, int, int]] = []
    excess = [0] * n
    for e in g.edges:
        scaled = x_num[e.eid]
        if scaled < 0:
            raise ContractViolation(f"separation needs x >= 0; edge {e.eid} has "
                                    f"{Fraction(scaled, unit)}")
        if scaled:
            arcs.append((e.tail, e.head, scaled))
            excess[e.head] += scaled
            excess[e.tail] -= scaled
            if scaled >= unit:
                union(e.tail, e.head)
    unbalanced = [v for v in range(n) if excess[v]]
    if unbalanced:
        raise ContractViolation(f"separation needs a circulation; vertices {unbalanced} "
                                "are unbalanced")
    while True:
        # x from class to class, keyed by the roots
        between: dict[tuple[int, int], int] = {}
        for tail, head, scaled in arcs:
            a, b = find(tail), find(head)
            if a != b:
                between[a, b] = between.get((a, b), 0) + scaled
        heavy = [pair for pair, total in between.items() if total >= unit]
        if not heavy:
            break
        for a, b in heavy:
            union(a, b)
    index: dict[int, int] = {}  # root -> class, numbered by smallest vertex
    members: list[list[int]] = []
    for v in range(n):
        r = find(v)
        if r == v:
            index[v] = len(members)
            members.append([v])
        else:
            members[index[r]].append(v)
    if len(members) == 1:
        return []
    network = FlowNetwork(len(members))
    for (a, b), total in between.items():
        network.add_arc(index[a], index[b], total)
    found: list[frozenset] = []
    seen: set[frozenset] = set()
    for t in range(1, len(members)):
        for s, d in ((0, t), (t, 0)):
            value, side = max_flow_min_cut(network, s, d, limit=unit)
            if value >= unit:
                break
            if side not in seen:
                seen.add(side)
                found.append(frozenset(v for c in side for v in members[c]))
                if first_only:
                    return found
    return found


def solve_atsp_lp(g: Digraph, checker: Checker) -> tuple[PrimalLp, DualLp]:
    """Solve the subtour-elimination LP and its dual exactly.

    The returned dual has y supported on cuts generated during solving; its
    support need not be laminar yet (see :func:`uncross_dual`).  Strong
    duality is asserted as an exact rational identity.  Round 0 is a cold
    dual simplex solve from the all-surplus basis; every later round hands
    the previous result back to `simplex.solve_lp`, which appends the new
    cuts to its optimal tableau.
    """
    if g.n < 2:
        raise ContractViolation("LP needs at least two vertices")
    if not g.is_strongly_connected():
        raise InfeasibleInstanceError("graph is not strongly connected")
    # n degree rows and n singleton cuts, over m variables
    simplex.check_tableau_budget(2 * g.n, g.m)
    cuts: list[frozenset] = [frozenset({v}) for v in range(g.n)]
    cut_set = set(cuts)
    # the costs are cost_num / cost_den: a positive scale leaves every pivot
    # as it is, so the LP runs on the numerators and its values are divided after
    den = g.cost_den
    rows: list[dict[int, int]] = []
    for v in range(g.n):
        row: dict[int, int] = {}
        for eid in g.in_edges[v]:
            row[eid] = row.get(eid, 0) + 1
        for eid in g.out_edges[v]:
            row[eid] = row.get(eid, 0) - 1
        rows.append(row)
    rhs = [0] * g.n
    new_cuts = cuts
    res: Optional[simplex.LpResult] = None
    for _ in range(_CUTTING_ROUND_CAP):
        for u_set in new_cuts:
            row = dict.fromkeys(g.delta_plus(u_set), 1)
            row.update(dict.fromkeys(g.delta_minus(u_set), 1))
            rows.append(row)
            rhs.append(2)
        res = simplex.solve_lp(g.cost_num, rows, rhs, warm=res)
        if res.status != simplex.OPTIMAL:
            raise InternalCheckError("atsp-lp-solvable",
                                     f"status {res.status} on a strongly connected graph")
        new_cuts = [u for u in _separate_all(g, res.x_num, res.x_den) if u not in cut_set]
        if not new_cuts:
            # the LP ran on the cost numerators: its duals and value are in
            # units of 1 / den
            duals, dual_den, lp_value = res.dual_num, res.dual_den * den, res.objective / den
            y: dict[frozenset, int] = {}
            for u_set, yv in zip(cuts, duals[g.n:]):
                checker.check(yv >= 0, "cut-dual-nonnegative", lambda: sorted(u_set))
                if yv:
                    y[u_set] = yv  # the cuts are distinct
            dual = DualLp(duals[: g.n], y, _dual_objective(y), dual_den)
            checker.check(_same_value(dual.objective, dual_den, lp_value), "strong-duality",
                          lambda: f"{Fraction(dual.objective, dual_den)} != {lp_value}")
            checker.check(dual_feasible(g, dual), "dual-feasible")
            return PrimalLp(res.x_num, res.x_den, lp_value), dual
        cut_set.update(new_cuts)
        cuts.extend(new_cuts)
    raise InternalCheckError("cutting-plane-rounds", f"exceeded {_CUTTING_ROUND_CAP} rounds")


def _crossing_sets(a: frozenset, b: frozenset) -> bool:
    return bool(a & b) and not (a <= b) and not (b <= a)


def uncross_dual(g: Digraph, dual: DualLp, checker: Checker) -> DualLp:
    """Rewrite the dual so the y support is laminar; objective unchanged.

    Every support set is first canonicalized to exclude vertex 0 (a cut and
    its complement have the same edge set), then crossing pairs A, B are
    repeatedly replaced by A&B, A|B, moving min(y_A, y_B) of weight.  Each
    step zeroes a set; a loud iteration cap guards termination.
    """
    ground = frozenset(range(g.n))
    y: dict[frozenset, int] = {}
    for u_set, weight in dual.y.items():
        if 0 in u_set:
            u_set = ground - u_set
            if not u_set:
                raise ContractViolation("dual support contains the full vertex set")
        y[u_set] = y[u_set] + weight if u_set in y else weight
    total = _dual_objective(y)
    cap = 8 * g.n * g.n * max(1, len(y))
    for _ in range(cap):
        members = sorted(y.keys(), key=lambda s: (len(s), sorted(s)))
        pair = None
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if _crossing_sets(members[i], members[j]):
                    pair = (members[i], members[j])
                    break
            if pair:
                break
        if pair is None:
            break
        a_set, b_set = pair
        eps = min(y[a_set], y[b_set])
        for s in (a_set, b_set):
            y[s] -= eps
            if not y[s]:
                del y[s]
        for s in (a_set & b_set, a_set | b_set):
            y[s] = y.get(s, 0) + eps
        checker.check(_dual_objective(y) == total, "uncross-step-objective")
        step = DualLp(list(dual.a), dict(y), total, dual.den)
        checker.check(dual_feasible(g, step), "uncross-step-feasible",
                      lambda: (sorted(a_set), sorted(b_set)))
    else:
        raise InternalCheckError("uncross-iteration-cap",
                                 {"support": [sorted(s) for s in y]})
    out = DualLp(list(dual.a), y, _dual_objective(y), dual.den)
    checker.check(check_laminar(list(y.keys())), "uncrossed-support-laminar")
    checker.check(out.objective == dual.objective, "uncross-objective-preserved")
    checker.check(dual_feasible(g, out), "uncross-feasibility-preserved")
    return out


def make_strongly_laminar(g: Digraph, dual: DualLp, checker: Checker) -> DualLp:
    """Repair the dual so every support set induces a strongly connected
    subgraph of g (g must already be restricted to the support of the LP
    optimum x).

    Each failing support set U, smallest first, donates its weight to the
    first strongly connected component S of g[U] in topological order, and
    the potentials of U minus S drop by y_U.  g never changes and S induces
    a strongly connected subgraph, so a step adds no failing set: the
    failing sets are found once, before the first step.
    """
    dual = dual.copy()
    bad = sorted((u for u in dual.y if not g.is_strongly_connected(u)),
                 key=lambda s: (len(s), sorted(s)))
    for u_set in bad:
        comps = scc_topological(g, u_set)
        s_set = comps[0]
        incoming_inside = [
            eid for eid in g.delta_minus(s_set) if g.edge(eid).tail in u_set
        ]
        checker.check(not incoming_inside, "first-scc-no-incoming",
                      lambda: f"U={sorted(u_set)} S={sorted(s_set)}")
        y_u = dual.y.pop(u_set)
        dual.y[s_set] = dual.y.get(s_set, 0) + y_u
        for v in u_set - s_set:
            dual.a[v] -= y_u
        checker.check(_dual_objective(dual.y) == dual.objective,
                      "strongly-laminar-step-objective")
        checker.check(dual_feasible(g, dual), "strongly-laminar-step-feasible",
                      lambda: sorted(u_set))
    out = DualLp(dual.a, dual.y, _dual_objective(dual.y), dual.den)
    checker.check(check_laminar(list(out.y.keys())), "strongly-laminar-support-laminar")
    checker.check(dual_feasible(g, out), "strongly-laminar-feasibility")
    for u_set in out.y:
        checker.check(g.is_strongly_connected(u_set), "support-induces-scc",
                      lambda: sorted(u_set))
    return out


def build_strongly_laminar_instance(
    g: Digraph, checker: Checker
) -> tuple[StronglyLaminarInstance, Fraction, tuple[int, ...]]:
    """Full reduction: LP, restrict to the support, uncross, repair.

    Returns the instance, the LP value of the original graph, and the
    original edge id behind each instance edge.  Because any tour is
    Eulerian, its cost under the induced costs equals its cost under the
    original costs, so the LP value transfers unchanged.
    """
    if g.n == 1:
        inst = StronglyLaminarInstance(Digraph(1, []), LaminarFamily([], 1, 1), [], 1)
        return inst, ZERO, ()
    primal, dual0 = solve_atsp_lp(g, checker)
    x_num, x_den = primal.x_num, primal.x_den
    support = [e.eid for e in g.edges if x_num[e.eid] > 0]
    sub = Digraph(g.n, [(g.edges[eid].tail, g.edges[eid].head, g.cost_num[eid])
                        for eid in support], g.cost_den)
    x_sub = [x_num[eid] for eid in support]  # over x_den, still the least denominator
    dual1 = uncross_dual(sub, dual0, checker)
    dual2 = make_strongly_laminar(sub, dual1, checker)
    checker.check(_same_value(dual2.objective, dual2.den, primal.objective),
                  "pipeline-objective-preserved")
    # complementary slackness: every support set is a tight cut
    for u_set in dual2.y:
        cut = cut_value(sub, x_sub, u_set)
        checker.check(cut == 2 * x_den, "support-cut-tight",
                      lambda: f"{sorted(u_set)}: x(delta)={Fraction(cut, x_den)}")
    # tightness on every retained edge gives the induced-cost identity:
    # y(sets the edge crosses) = cost + a_tail - a_head, a zero dual slack
    family = LaminarFamily(dual2.y.items(), sub.n, dual2.den)
    g_induced = induced_graph(sub, family)
    a, den = dual2.a, dual2.den
    ok = [slack == 0 for slack in _dual_slack(sub, dual2)]
    bad = first_false(ok)

    def detail() -> str:
        e = sub.edges[bad]
        return (f"edge {e.tail}->{e.head}: {g_induced.edges[e.eid].cost} != "
                f"{e.cost + Fraction(a[e.tail] - a[e.head], den)}")

    checker.check_many("induced-cost-identity", len(ok), bad, detail)
    inst = StronglyLaminarInstance(g_induced, family, x_sub, x_den)
    checker.check(inst.lp_value == primal.objective, "lp-value-invariant",
                  lambda: f"{inst.lp_value} != {primal.objective}")
    inst.validate(checker)
    inst.validate_paths(checker)
    return inst, primal.objective, tuple(support)
