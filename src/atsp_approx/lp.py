"""The subtour-elimination LP, its dual, and the strongly laminar reduction.

Everything is exact: the LP is solved by rational simplex over a working set
of cut constraints grown by a min-cut separation oracle, the dual support is
uncrossed to a laminar family, and the laminar family is then repaired so
every support set induces a strongly connected subgraph.  The result is a
:class:`StronglyLaminarInstance` whose induced costs agree with the original
costs up to the vertex potentials, so tours keep their cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from . import simplex
from .checks import Checker
from .errors import ContractViolation, InfeasibleInstanceError, InternalCheckError
from .flows import FlowNetwork, max_flow_min_cut
from .graph import (
    Digraph,
    LaminarFamily,
    check_laminar,
    crossing_weight,
    scc_topological,
)
from .instance import StronglyLaminarInstance, cut_value

ZERO = Fraction(0)
TWO = Fraction(2)

_CUTTING_ROUND_CAP = 200


@dataclass
class PrimalLp:
    """Optimal circulation: per-edge values and the objective c(x)."""

    x: list[Fraction]
    objective: Fraction


@dataclass
class DualLp:
    """Dual solution: vertex potentials a, cut weights y on an explicit
    support, and the dual objective sum(2 y_U)."""

    a: list[Fraction]
    y: dict[frozenset, Fraction]
    objective: Fraction

    def copy(self) -> "DualLp":
        return DualLp(list(self.a), dict(self.y), self.objective)


def dual_feasible(g: Digraph, dual: DualLp) -> bool:
    """Exact feasibility of (a, y) for the dual LP: y >= 0, and on every
    edge a_head - a_tail + y(sets the edge crosses) <= cost.

    a, y and the costs are compared as integer numerators over the lcm of
    all their denominators."""
    if any(y < 0 for y in dual.y.values()):
        return False
    scale = 1
    for value in dual.a:
        scale = lcm(scale, value.denominator)
    for value in dual.y.values():
        scale = lcm(scale, value.denominator)
    for e in g.edges:
        scale = lcm(scale, e.cost.denominator)
    a = [v.numerator * (scale // v.denominator) for v in dual.a]
    # slack[eid] = cost - a_head + a_tail - y(sets the edge crosses)
    slack = [e.cost.numerator * (scale // e.cost.denominator) + a[e.tail] - a[e.head]
             for e in g.edges]
    for u_set, weight in dual.y.items():
        w = weight.numerator * (scale // weight.denominator)
        for eid in g.delta_plus(u_set):
            slack[eid] -= w
        for eid in g.delta_minus(u_set):
            slack[eid] -= w
    return all(v >= 0 for v in slack)


def separate_subtour(g: Digraph, x: list[Fraction]) -> Optional[frozenset]:
    """Find some U with x(delta(U)) < 2, or None when all cuts hold.

    x must be a circulation: nonnegative and balanced at every vertex
    (ContractViolation otherwise).  Then x(delta(U)) = 2 x(delta+(U)), so it
    suffices to compare global minimum directed cuts against 1.  Root
    vertex 0; one max-flow call per other terminal when all cuts hold.
    """
    violated = _separate_all(g, x, first_only=True)
    return violated[0] if violated else None


def _separate_all(g: Digraph, x: list[Fraction], first_only: bool = False) -> list[frozenset]:
    """Sides of the minimum cuts with x(delta+) < 1, from vertex 0 to each
    other terminal t and back.

    x is scaled once by the lcm of its denominators, and one integer flow
    network of the positive edges serves every max-flow call; a flow value
    is compared with the scaled unit.  x must be a circulation, so
    x(delta+(U)) = x(delta-(U)) for every U and both directions between 0
    and t have the same min-cut value: when the (0, t) value is at least 1
    the (t, 0) call is skipped.  Below 1 both calls are made, because their
    sides can differ.
    """
    # a loop, not lcm(*...): one argument tuple of m entries per call (tens
    # per solve) fills CPython's tuple free lists, about 1 MB of peak RSS
    unit = 1
    for e in g.edges:
        unit = lcm(unit, x[e.eid].denominator)
    network = FlowNetwork(g.n)
    excess = [0] * g.n
    for e in g.edges:
        value = x[e.eid]
        scaled = value.numerator * (unit // value.denominator)
        if scaled < 0:
            raise ContractViolation(f"separation needs x >= 0; edge {e.eid} has {value}")
        if scaled:
            network.add_arc(e.tail, e.head, scaled)
            excess[e.head] += scaled
            excess[e.tail] -= scaled
    unbalanced = [v for v in range(g.n) if excess[v]]
    if unbalanced:
        raise ContractViolation(f"separation needs a circulation; vertices {unbalanced} "
                                "are unbalanced")
    found: list[frozenset] = []
    seen: set[frozenset] = set()
    for t in range(1, g.n):
        for s, d in ((0, t), (t, 0)):
            value, side = max_flow_min_cut(network, s, d)
            if value >= unit:
                break
            if side not in seen:
                seen.add(side)
                found.append(side)
                if first_only:
                    return found
    return found


def solve_atsp_lp(g: Digraph, checker: Optional[Checker] = None) -> tuple[PrimalLp, DualLp]:
    """Solve the subtour-elimination LP and its dual exactly.

    The returned dual has y supported on cuts generated during solving; its
    support need not be laminar yet (see :func:`uncross_dual`).  Strong
    duality is asserted as an exact rational identity.  Round 0 is a cold
    two-phase solve; every later round hands the previous result back to
    `simplex.solve_lp`, which appends the new cuts to its optimal tableau.
    """
    checker = checker or Checker()
    if g.n < 2:
        raise ContractViolation("LP needs at least two vertices")
    if not g.is_strongly_connected():
        raise InfeasibleInstanceError("graph is not strongly connected")
    # n degree rows and n singleton cuts, over m variables
    simplex.check_tableau_budget(2 * g.n, g.m, g.n)
    cuts: list[frozenset] = [frozenset({v}) for v in range(g.n)]
    cut_set = set(cuts)
    objective = [e.cost for e in g.edges]
    rows: list[dict[int, int]] = []
    for v in range(g.n):
        row: dict[int, int] = {}
        for eid in g.in_edges[v]:
            row[eid] = row.get(eid, 0) + 1
        for eid in g.out_edges[v]:
            row[eid] = row.get(eid, 0) - 1
        rows.append(row)
    senses = ["=="] * g.n
    rhs = [0] * g.n
    new_cuts = cuts
    res: Optional[simplex.LpResult] = None
    for _ in range(_CUTTING_ROUND_CAP):
        for u_set in new_cuts:
            row = dict.fromkeys(g.delta_plus(u_set), 1)
            row.update(dict.fromkeys(g.delta_minus(u_set), 1))
            rows.append(row)
            senses.append(">=")
            rhs.append(2)
        res = simplex.solve_lp(objective, rows, senses, rhs, warm=res)
        if res.status != simplex.OPTIMAL:
            raise InternalCheckError("atsp-lp-solvable",
                                     f"status {res.status} on a strongly connected graph")
        new_cuts = [u for u in _separate_all(g, res.x) if u not in cut_set]
        if not new_cuts:
            a = res.duals[: g.n]
            y: dict[frozenset, Fraction] = {}
            for i, u_set in enumerate(cuts):
                yv = res.duals[g.n + i]
                checker.check(yv >= 0, "cut-dual-nonnegative", lambda: sorted(u_set))
                if yv > 0:
                    y[u_set] = y.get(u_set, ZERO) + yv
            dual = DualLp(list(a), y, sum((2 * v for v in y.values()), ZERO))
            checker.check(dual.objective == res.objective, "strong-duality",
                          lambda: f"{dual.objective} != {res.objective}")
            checker.check(dual_feasible(g, dual), "dual-feasible")
            return PrimalLp(list(res.x), res.objective), dual
        cut_set.update(new_cuts)
        cuts.extend(new_cuts)
    raise InternalCheckError("cutting-plane-rounds", f"exceeded {_CUTTING_ROUND_CAP} rounds")


def _crossing_sets(a: frozenset, b: frozenset) -> bool:
    return bool(a & b) and not (a <= b) and not (b <= a)


def uncross_dual(g: Digraph, dual: DualLp, checker: Optional[Checker] = None) -> DualLp:
    """Rewrite the dual so the y support is laminar; objective unchanged.

    Every support set is first canonicalized to exclude vertex 0 (a cut and
    its complement have the same edge set), then crossing pairs A, B are
    repeatedly replaced by A&B, A|B, moving min(y_A, y_B) of weight.  Each
    step zeroes a set; a loud iteration cap guards termination.
    """
    checker = checker or Checker()
    ground = frozenset(range(g.n))
    y: dict[frozenset, Fraction] = {}
    for u_set, weight in dual.y.items():
        if 0 in u_set:
            u_set = ground - u_set
            if not u_set:
                raise ContractViolation("dual support contains the full vertex set")
        y[u_set] = y.get(u_set, ZERO) + weight
    total = sum(y.values(), ZERO)
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
            y[s] = y.get(s, ZERO) + eps
        checker.check(sum(y.values(), ZERO) == total, "uncross-step-objective")
        if checker.check_all:
            step = DualLp(list(dual.a), dict(y), 2 * total)
            checker.check(dual_feasible(g, step), "uncross-step-feasible",
                          lambda: (sorted(a_set), sorted(b_set)))
    else:
        raise InternalCheckError("uncross-iteration-cap",
                                 {"support": [sorted(s) for s in y]})
    out = DualLp(list(dual.a), y, sum((2 * v for v in y.values()), ZERO))
    checker.check(check_laminar(list(y.keys())), "uncrossed-support-laminar")
    checker.check(out.objective == dual.objective, "uncross-objective-preserved")
    checker.check(dual_feasible(g, out), "uncross-feasibility-preserved")
    return out


def make_strongly_laminar(g: Digraph, x: list[Fraction], dual: DualLp,
                          checker: Optional[Checker] = None) -> DualLp:
    """Repair the dual so every support set induces a strongly connected
    subgraph of g (g must already be restricted to the support of x).

    While some support set U fails, the minimal such U donates its weight to
    the first strongly connected component S of g[U] in topological order,
    and the potentials of U minus S drop by y_U.  Terminates within the
    support size because each step removes one bad set and adds none.
    """
    checker = checker or Checker()
    dual = dual.copy()
    cap = 2 * g.n + 2
    for _ in range(cap):
        bad = [u for u in dual.y if not g.is_strongly_connected(u)]
        if not bad:
            break
        u_set = min(bad, key=lambda s: (len(s), sorted(s)))
        comps = scc_topological(g, u_set)
        s_set = comps[0]
        incoming_inside = [
            eid for eid in g.delta_minus(s_set) if g.edge(eid).tail in u_set
        ]
        checker.check(not incoming_inside, "first-scc-no-incoming",
                      lambda: f"U={sorted(u_set)} S={sorted(s_set)}")
        y_u = dual.y.pop(u_set)
        dual.y[s_set] = dual.y.get(s_set, ZERO) + y_u
        for v in u_set - s_set:
            dual.a[v] -= y_u
        checker.check(
            sum(dual.y.values(), ZERO) * 2 == dual.objective,
            "strongly-laminar-step-objective",
        )
        if checker.check_all:
            checker.check(dual_feasible(g, dual), "strongly-laminar-step-feasible",
                          lambda: sorted(u_set))
    else:
        raise InternalCheckError("strongly-laminar-cap", "loop failed to terminate")
    out = DualLp(dual.a, dual.y, sum((2 * v for v in dual.y.values()), ZERO))
    checker.check(check_laminar(list(out.y.keys())), "strongly-laminar-support-laminar")
    checker.check(dual_feasible(g, out), "strongly-laminar-feasibility")
    for u_set in out.y:
        checker.check(g.is_strongly_connected(u_set), "support-induces-scc",
                      lambda: sorted(u_set))
    return out


def build_strongly_laminar_instance(
    g: Digraph, checker: Optional[Checker] = None
) -> tuple[StronglyLaminarInstance, Fraction, tuple[int, ...]]:
    """Full reduction: LP, restrict to the support, uncross, repair.

    Returns the instance, the LP value of the original graph, and the
    original edge id behind each instance edge.  Because any tour is
    Eulerian, its cost under the induced costs equals its cost under the
    original costs, so the LP value transfers unchanged.
    """
    checker = checker or Checker()
    if g.n == 1:
        inst = StronglyLaminarInstance(Digraph(1, []), LaminarFamily([], 1), [])
        return inst, ZERO, ()
    primal, dual0 = solve_atsp_lp(g, checker)
    support = [e.eid for e in g.edges if primal.x[e.eid] > 0]
    sub = Digraph(g.n, [(g.edges[eid].tail, g.edges[eid].head, g.edges[eid].cost)
                        for eid in support])
    x_sub = [primal.x[eid] for eid in support]
    dual1 = uncross_dual(sub, dual0, checker)
    dual2 = make_strongly_laminar(sub, x_sub, dual1, checker)
    checker.check(dual2.objective == primal.objective, "pipeline-objective-preserved")
    # complementary slackness: every support set is a tight cut
    for u_set in dual2.y:
        cut = cut_value(sub, x_sub, u_set)
        checker.check(cut == TWO, "support-cut-tight",
                      lambda: f"{sorted(u_set)}: x(delta)={cut}")
    # tightness on every retained edge gives the induced-cost identity
    induced: list[Fraction] = []
    for eid in range(sub.m):
        e = sub.edge(eid)
        cross = crossing_weight(dual2.y, e.tail, e.head)
        expected = e.cost + dual2.a[e.tail] - dual2.a[e.head]
        checker.check(cross == expected, "induced-cost-identity",
                      lambda: f"edge {e.tail}->{e.head}: {cross} != {expected}")
        induced.append(cross)
    g_induced = Digraph(sub.n, [(sub.edges[i].tail, sub.edges[i].head, induced[i])
                                for i in range(sub.m)])
    family = LaminarFamily(dual2.y.items(), sub.n)
    inst = StronglyLaminarInstance(g_induced, family, x_sub)
    checker.check(inst.lp_value == primal.objective, "lp-value-invariant",
                  lambda: f"{inst.lp_value} != {primal.objective}")
    inst.validate(checker)
    inst.validate_paths(checker)
    return inst, primal.objective, tuple(support)
