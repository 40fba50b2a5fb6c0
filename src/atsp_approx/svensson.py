"""Svensson-style driver turning a subtour-cover solver into a vertebrate-
pair solver.

A per-vertex budget function assigns every vertex outside the backbone a
value proportional to its singleton dual weight (plus a floor term), and
spreads the global cover budget over the backbone.  The driver keeps an
Eulerian edge set H, repeatedly covers the components of (V, E(B)+H) with a
subtour cover, keeps only useful components, and pads connectivity with
cheap cycles.  When a cover comes back too expensive relative to the budget
of the component it touches first, the run restarts from a provably better
initialization obtained through a knapsack argument; a superpolynomial-decay
potential (diagnostic only, evaluated in high-precision logs) certifies that
restarts make strict progress.  Only that potential uses ``mpmath``, and it
is imported where the potential is evaluated, so a run that never restarts
never loads it.

With the (3,2,1) subtour-cover solver this yields a (2, 14+epsilon)
algorithm for vertebrate pairs; the final cost bound and every ledger used
in its proof are asserted exactly, on budgets and costs kept as integer
numerators over one denominator.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .checks import Checker, first_false
from .cover import (
    SUBTOUR_COVER_ALPHA,
    SUBTOUR_COVER_BETA,
    SUBTOUR_COVER_KAPPA,
    SubtourCoverInstance,
    subtour_cover,
)
from .errors import ContractViolation, InternalCheckError
from .graph import EdgeMultiset, dijkstra_path, undirected_components
from .pair import VertebratePair
from .rational import over_lcm

if TYPE_CHECKING:
    import mpmath

ZERO = Fraction(0)

_PHI_DPS = 300

_RESTART_CAP = 10 ** 6

# The guarantee of `vertebrate_solve`, derived from the (alpha, kappa, beta)
# of the subtour cover: c(F) <= KAPPA * LP + eta * outside mass, with eta
# from `epsilon_constants`.
KAPPA = SUBTOUR_COVER_KAPPA

_TWO_ALPHA = 2 * SUBTOUR_COVER_ALPHA
# c(H) <= ell(backbone) + (2 + 1/(2 alpha)) ell(outside)
_SOLUTION_FACTOR = 2 + 1 / _TWO_ALPHA
# the backbone's budget kappa * LP + beta * (outside mass), over one denominator
_BACKBONE_SHARE = over_lcm(SUBTOUR_COVER_KAPPA, SUBTOUR_COVER_BETA)


class EpsilonConstants:
    """What the budget function, the Svensson loop and the window bound
    derive from epsilon alone:
    eps' = epsilon / (3 + 4 alpha + 1/(2 alpha)); eta = 4 alpha + beta + 1
    + epsilon, 14 + epsilon with the (3,2,1) cover; 1 + eps'; the
    outside-vertex rate 2 alpha (1 + eps'); the regularity constant C with
    ell(v) >= ell(outside) / (C n); and the window bound's factors 2 kappa
    + 2 and kappa + eta as int numerators over one denominator."""

    __slots__ = ("epsilon", "eps_prime", "eta", "one_eps", "scaled_eps",
                 "regularity_const", "window_bound")

    def __init__(self, epsilon: Fraction) -> None:
        if epsilon.numerator <= 0:
            raise ContractViolation("epsilon must be positive")
        self.epsilon = epsilon
        self.eps_prime = epsilon / (3 + 2 * _TWO_ALPHA + 1 / _TWO_ALPHA)
        self.eta = 4 * SUBTOUR_COVER_ALPHA + SUBTOUR_COVER_BETA + 1 + epsilon
        self.one_eps = 1 + self.eps_prime
        self.scaled_eps = self.one_eps * _TWO_ALPHA
        self.regularity_const = (self.scaled_eps + self.eps_prime) / self.eps_prime
        self.window_bound = over_lcm(2 * KAPPA + 2, KAPPA + self.eta)


@functools.lru_cache(maxsize=16)
def epsilon_constants(epsilon: Fraction) -> EpsilonConstants:
    """The constants of one epsilon, built on its first request; every
    window of a solve then looks them up instead of re-deriving them."""
    return EpsilonConstants(Fraction(epsilon))


def knapsack_greedy(items: list[tuple[Fraction, Fraction]],
                    limit: Fraction) -> list[int]:
    """Greedy knapsack: returns indices J with weight(J) <= limit and
    profit(J) >= (limit/total_weight) * total_profit - max_profit.

    Items are (weight, profit) with positive weights; sorted by
    profit/weight, taking every item that still fits.
    """
    total_w = sum((w for w, _ in items), ZERO)
    if not (limit < total_w):
        raise ContractViolation("knapsack limit must be below the total weight")
    for w, _ in items:
        if w <= 0:
            raise ContractViolation("knapsack weights must be positive")
    order = sorted(range(len(items)), key=lambda j: (-(items[j][1] / items[j][0]), j))
    chosen: list[int] = []
    used = ZERO
    for j in order:
        w = items[j][0]
        if used + w <= limit:
            chosen.append(j)
            used += w
    chosen.sort()
    total_p = sum((p for _, p in items), ZERO)
    max_p = max(p for _, p in items)
    got = sum((items[j][1] for j in chosen), ZERO)
    if got < (limit / total_w) * total_p - max_p:
        raise InternalCheckError("knapsack-guarantee",
                                 f"profit {got} below the greedy bound")
    return chosen


class EllFunction:
    """The budget function: outside the backbone each vertex gets
    (1+eps')*2*alpha*2y_v plus an (eps'/n) share of the outside singleton
    mass; backbone vertices split kappa*LP + beta*(outside mass) evenly,
    where (alpha, kappa, beta) is the subtour-cover guarantee.  ell(v) is
    num[v] / den, and a cost numerator of the graph times cost_scale is
    that cost over den."""

    __slots__ = ("num", "den", "cost_scale", "consts", "n")

    def __init__(self, num: list[int], den: int, cost_scale: int,
                 consts: EpsilonConstants, n: int) -> None:
        self.num = num
        self.den = den
        self.cost_scale = cost_scale
        self.consts = consts
        self.n = n

    def of(self, v: int) -> Fraction:
        return Fraction(self.num[v], self.den)

    def num_of(self, verts: Iterable[int]) -> int:
        return sum(self.num[v] for v in verts)

    def of_set(self, verts: Iterable[int]) -> Fraction:
        return Fraction(self.num_of(verts), self.den)


def build_ell(pair: VertebratePair, epsilon: Fraction,
              checker: Optional[Checker] = None) -> EllFunction:
    """The budget function for the (3,2,1) subtour-cover solver."""
    checker = checker or Checker()
    consts = epsilon_constants(epsilon)
    eps_prime = consts.eps_prime
    inst = pair.instance
    g = inst.g
    n = g.n
    outside = pair.outside_vertices()
    mass = inst.singleton_mass(outside)
    k, b, d = _BACKBONE_SHARE
    # kappa LP + beta * mass, as total / total_den
    total = k * inst._lp_num + b * mass * inst._x_den
    total_den = d * inst._den * inst._x_den
    # ell(v) is share on the backbone; outside it is per times the 2 y_v
    # numerator, plus eps'/n of the outside mass: the three as numerators
    # over the lcm of their denominators and the costs', reduced once
    rate = consts.scaled_eps
    parts = ((total, total_den * len(pair.backbone_vertices)),
             (rate.numerator, rate.denominator * inst._den),
             (eps_prime.numerator * mass, eps_prime.denominator * n * inst._den))
    den = math.lcm(g.cost_den, *(q for _, q in parts))
    nums = [a * (den // q) for a, q in parts]
    common = math.gcd(den // g.cost_den, *nums)
    (share, per, floor), den = [a // common for a in nums], den // common
    num = [share if v in pair.backbone_vertices
           else per * inst.singleton_mass((v,)) + floor for v in range(n)]
    ell = EllFunction(num, den, den // g.cost_den, consts, n)
    c_const = consts.regularity_const
    # ell(v) >= ell(outside) / (C n)
    bound = ell.num_of(outside) * c_const.denominator
    scale = c_const.numerator * n
    verts = sorted(outside)
    ok = [num[v] * scale >= bound for v in verts]
    bad = first_false(ok)
    checker.check_many("ell-regularity", len(ok), bad,
                       lambda: f"vertex {verts[bad]}: {ell.of(verts[bad])}")
    checker.check(ell.num_of(pair.backbone_vertices) * total_den == total * den,
                  "ell-backbone-total")
    return ell


def p_exponent(ell: EllFunction) -> mpmath.mpf:
    """log base (1+eps') of (2+eps')/eps'; the potential uses 1+p."""
    import mpmath

    with mpmath.workdps(_PHI_DPS):
        ep = _mpf(ell.consts.eps_prime)
        return mpmath.log((2 + ep) / ep) / mpmath.log(1 + ep)


def _mpf(q: Fraction) -> mpmath.mpf:
    import mpmath

    return mpmath.mpf(q.numerator) / q.denominator


def _pow_term(value: Fraction, one_plus_p: mpmath.mpf) -> mpmath.mpf:
    import mpmath

    if value <= 0:
        return mpmath.mpf(0)
    return mpmath.e ** (one_plus_p * mpmath.log(_mpf(value)))


class ComponentState:
    """The fixed partition of one driver run: the backbone part, then the
    components of (V minus backbone, H-tilde) by non-increasing budget."""

    __slots__ = ("pair", "ell", "h_tilde", "parts", "part_of")

    def __init__(self, pair: VertebratePair, ell: EllFunction, h_tilde: EdgeMultiset) -> None:
        self.pair = pair
        self.ell = ell
        self.h_tilde = h_tilde
        comps = undirected_components(pair.instance.g, h_tilde.mult,
                                      within=pair.outside_vertices())
        comps.sort(key=lambda c: (-ell.num_of(c), min(c)))
        self.parts: list[frozenset] = [pair.backbone_vertices] + comps
        self.part_of: dict[int, int] = {}
        for idx, part in enumerate(self.parts):
            for v in part:
                self.part_of[v] = idx

    @property
    def k(self) -> int:
        return len(self.parts) - 1

    def ind(self, verts: Iterable[int]) -> int:
        return min(self.part_of[v] for v in verts)

    def part_edges(self, idx: int) -> EdgeMultiset:
        return self.h_tilde.restrict_to(self.parts[idx])

    def phi_terms(self, one_plus_p: mpmath.mpf) -> mpmath.mpf:
        import mpmath

        total = mpmath.mpf(0)
        for part in self.parts[1:]:
            total += _pow_term(self.ell.of_set(part), one_plus_p)
        return total


def check_light(pair: VertebratePair, ell: EllFunction, edges: EdgeMultiset,
                checker: Checker, label: str) -> None:
    """Every component of (V, edges) costs at most the budget of its vertex
    set."""
    for comp, comp_edges in edges.components():
        checker.check(comp_edges.cost_num() * ell.cost_scale <= ell.num_of(comp), label,
                      lambda: f"{sorted(comp)}: {comp_edges.cost()}")


def improved_initialization(state: ComponentState, d_vertices: frozenset,
                            d_edges: EdgeMultiset,
                            checker: Optional[Checker] = None) -> EdgeMultiset:
    """Merge a too-valuable subtour D with a knapsack-chosen batch of the
    components it touches; the result is light and strictly raises the
    potential."""
    checker = checker or Checker()
    pair = state.pair
    ell = state.ell
    g = pair.instance.g
    eps_prime = ell.consts.eps_prime
    if d_vertices & pair.backbone_vertices:
        raise ContractViolation("subtour touches the backbone")
    for s in pair.instance.family.nonsingletons():
        if d_edges.crossing(s) != 0:
            raise ContractViolation("subtour crosses a non-singleton family set")
    cost_d = d_edges.cost()
    ell_d = ell.of_set(d_vertices)
    if not (cost_d <= Fraction(2, 1) / (2 + eps_prime) * ell_d):
        raise ContractViolation("subtour too expensive for its budget")
    i = state.ind(d_vertices)
    if not (ell_d > (1 + eps_prime) * ell.of_set(state.parts[i])):
        raise ContractViolation("subtour does not beat its first component")
    touched = sorted(
        j for j in range(1, len(state.parts)) if state.parts[j] & d_vertices
    )
    checker.check(i == touched[0] and i >= 1, "better-init-index")
    items = [
        (ell.of_set(state.parts[j] & d_vertices),
         ell.of_set(state.parts[j] - d_vertices))
        for j in touched
    ]
    limit = eps_prime / (2 + eps_prime) * ell_d
    chosen = knapsack_greedy(items, limit)
    selected = [touched[idx] for idx in chosen]
    merged = EdgeMultiset(g)
    for j in range(1, len(state.parts)):
        if j not in touched:
            merged = merged.union(state.part_edges(j))
    merged = merged.union(d_edges)
    for j in selected:
        merged = merged.union(state.part_edges(j))
    pair.check_initialization(merged, checker, "initialization-")
    check_light(pair, ell, merged, checker, "better-init-light")
    # strict potential growth of the merged component, in log space
    import mpmath

    with mpmath.workdps(_PHI_DPS):
        one_plus_p = 1 + p_exponent(ell)
        star_vertices = set(d_vertices)
        for j in selected:
            star_vertices |= state.parts[j]
        lhs = _pow_term(ell.of_set(star_vertices), one_plus_p)
        rhs = _pow_term(ell.of_set(state.parts[i]), one_plus_p)
        for j in touched:
            rhs += _pow_term(ell.of_set(state.parts[j]), one_plus_p)
        checker.check(lhs > rhs, "better-init-potential-growth",
                      lambda: f"{lhs} <= {rhs}")
    return merged


class SvenssonResult:
    __slots__ = ("kind", "edges", "state")

    def __init__(self, kind: str, edges: EdgeMultiset, state: ComponentState) -> None:
        self.kind = kind  # "solution" | "better"
        self.edges = edges
        self.state = state


def _connected_with_backbone(pair: VertebratePair, h: EdgeMultiset) -> bool:
    g = pair.instance.g
    union = pair.backbone.union(h)
    comps = undirected_components(g, union.mult.keys())
    if len(comps) == 1:
        return True
    # an edgeless backbone still anchors its vertex
    anchor = next(c for c in comps if c & pair.backbone_vertices)
    return anchor == frozenset(range(g.n))


def _allowed_cycle_edges(pair: VertebratePair) -> set[int]:
    inst = pair.instance
    outside = pair.outside_vertices()
    nonsingletons = sum(1 << j for j, s in enumerate(inst.family.members) if len(s) > 1)
    return {e.eid for e in inst.g.edges
            if e.tail in outside and e.head in outside
            and not (inst._enter_mask[e.eid] | inst._exit_mask[e.eid]) & nonsingletons}


def _find_cheap_cycle(pair: VertebratePair, z_vertices: frozenset,
                      fits: Callable[[int], bool], allowed: set[int]
                      ) -> Optional[list[int]]:
    """First cycle (by edge-id order of its starting edge) that leaves the
    component, avoids the backbone and all family cuts, and fits the budget
    (``fits`` takes a cost numerator over the graph's cost denominator): an
    edge (v, w) out of the component plus a cheapest w-v path."""
    g = pair.instance.g
    cost = g.cost_num
    outside = pair.outside_vertices()
    for eid in sorted(allowed):
        e = g.edge(eid)
        if e.tail not in z_vertices or e.head in z_vertices:
            continue
        if not fits(cost[eid]):
            continue
        found = dijkstra_path(g, e.head, e.tail,
                              allowed_vertices=outside, allowed_edges=allowed)
        if found is None:
            continue
        dist, path = found
        if fits(cost[eid] + dist):
            return [eid] + path
    return None


def svensson_iterate(pair: VertebratePair, ell: EllFunction,
                     h_tilde: EdgeMultiset,
                     cover_fn: Callable[..., EdgeMultiset] = subtour_cover,
                     checker: Optional[Checker] = None) -> SvenssonResult:
    """One run of the driver from a light initialization: either extends it
    to a connecting solution H or returns a better initialization."""
    checker = checker or Checker()
    inst = pair.instance
    g = inst.g
    pair.check_initialization(h_tilde, checker, "initialization-")
    check_light(pair, ell, h_tilde, checker, "initialization-light")
    state = ComponentState(pair, ell, h_tilde)
    one_eps = ell.consts.one_eps
    light = ell.consts.scaled_eps

    def cost(edges: EdgeMultiset) -> int:
        return edges.cost_num() * ell.cost_scale

    h = h_tilde.copy()
    # the cost analysis's bookkeeping: each cheap cycle marks a distinct
    # component index, and each index receives cover edges at most once;
    # the costs are numerators over the budget denominator
    x_cost = f_cost = 0
    marks: set[int] = set()
    f_indices: set[int] = set()
    allowed = _allowed_cycle_edges(pair)
    outer_cap = g.n * max(g.m, 1) + 10
    outer = 0
    while not _connected_with_backbone(pair, h):
        outer += 1
        if outer > outer_cap:
            raise InternalCheckError("svensson-iteration-cap", outer)
        pair.check_initialization(h, checker, "initialization-")
        cover = SubtourCoverInstance(pair, h)
        f_full = cover_fn(cover, checker)
        # drop cover components inside existing components of B+H
        bh_comps = undirected_components(g, pair.backbone.union(h).mult.keys())
        f = EdgeMultiset(g)
        for comp, comp_edges in f_full.components():
            if not any(comp <= bh for bh in bh_comps):
                f = f.union(comp_edges)
        # group the survivors by first touched part
        f_comps = f.components()
        by_index: dict[int, list[tuple[frozenset, EdgeMultiset]]] = {}
        for comp, comp_edges in f_comps:
            by_index.setdefault(state.ind(comp), []).append((comp, comp_edges))
        # the backbone-touching part always fits its budget
        f0_cost = sum(cost(ce) for _, ce in by_index.get(0, []))
        checker.check(f0_cost <= ell.num_of(state.parts[0]),
                      "cover-backbone-part-bound", lambda: f"{f0_cost}/{ell.den}")
        for comp, comp_edges in f_comps:
            if not comp & pair.backbone_vertices:
                # c(F_comp) <= ell(comp) / (2 (1 + eps'))
                checker.check(cost(comp_edges) * 2 * one_eps.numerator
                              <= ell.num_of(comp) * one_eps.denominator,
                              "cover-component-budget",
                              lambda: f"{sorted(comp)}")
        # restart trigger: an index whose cover edges bust its budget
        for i in sorted(by_index):
            if i == 0:
                continue
            cost_i = sum(cost(ce) for _, ce in by_index[i])
            if cost_i > ell.num_of(state.parts[i]):
                d_vertices = frozenset(state.parts[i])
                d_edges = state.part_edges(i)
                for comp, comp_edges in by_index[i]:
                    d_vertices |= comp
                    d_edges = d_edges.union(comp_edges)
                better = improved_initialization(state, d_vertices, d_edges,
                                                 checker)
                return SvenssonResult("better", better, state)
        # restart trigger: a cover component whose budget beats its first part
        for comp, comp_edges in f_comps:
            i = state.ind(comp)
            if i > 0 and ell.num_of(comp) * one_eps.denominator > \
                    one_eps.numerator * ell.num_of(state.parts[i]):
                better = improved_initialization(state, frozenset(comp),
                                                 comp_edges, checker)
                return SvenssonResult("better", better, state)
        # (3) pad with cheap cycles, then absorb the last component
        x_edges = EdgeMultiset(g)
        x_cycles: list[tuple[list[int], int]] = []
        inner_cap = outer_cap
        inner = 0
        while True:
            inner += 1
            if inner > inner_cap:
                raise InternalCheckError("svensson-cycle-cap", inner)
            union = pair.backbone.union(h).union(f).union(x_edges)
            comps = undirected_components(g, union.mult.keys())
            anchored: dict[int, frozenset] = {}
            for comp in comps:
                anchored[state.ind(comp)] = comp
            z_index = max(anchored)
            z_comp = anchored[z_index]
            if len(anchored) == 1:
                break
            # a cycle fits when its cost is at most ell(part) / (2 alpha)
            limit = ell.num_of(state.parts[z_index]) * _TWO_ALPHA.denominator
            per_cost = ell.cost_scale * _TWO_ALPHA.numerator
            cycle = _find_cheap_cycle(pair, z_comp,
                                      lambda c: c * per_cost <= limit, allowed)
            if cycle is None:
                break
            cycle_cost = sum(g.cost_num[eid] for eid in cycle) * ell.cost_scale
            cycle_verts = {g.edge(eid).tail for eid in cycle}
            # c(cycle) <= ell(cycle) / (2 alpha (1 + eps'))
            checker.check(cycle_cost * light.numerator
                          <= ell.num_of(cycle_verts) * light.denominator,
                          "cheap-cycle-light", lambda: f"{cycle_cost}/{ell.den}")
            for eid in cycle:
                x_edges.add(eid)
            x_cycles.append((cycle, z_index))
        added = EdgeMultiset(g)
        added_by_index: dict[int, int] = {}
        for comp, comp_edges in f_comps:
            if comp <= z_comp:
                i = state.ind(comp)
                added_by_index[i] = added_by_index.get(i, 0) + cost(comp_edges)
                added = added.union(comp_edges)
        for i, cost_i in sorted(added_by_index.items()):
            checker.check(i not in f_indices, "cover-part-added-once",
                          lambda: f"index {i}")
            checker.check(cost_i <= ell.num_of(state.parts[i]),
                          "cover-part-within-budget", lambda: f"index {i}")
            f_indices.add(i)
            f_cost += cost_i
        for cycle, mark in x_cycles:
            verts = {g.edge(eid).tail for eid in cycle}
            if verts <= z_comp:
                checker.check(mark not in marks, "cycle-marks-distinct",
                              lambda: f"mark {mark}")
                marks.add(mark)
                for eid in cycle:
                    added.add(eid)
                    x_cost += g.cost_num[eid] * ell.cost_scale
        h = h.union(added)
    outside_num = ell.num_of(pair.outside_vertices())
    checker.check(
        x_cost * _TWO_ALPHA.numerator <= outside_num * _TWO_ALPHA.denominator,
        "x-ledger-bound", lambda: f"{x_cost}/{ell.den}")
    checker.check(f_cost <= ell.num_of(range(g.n)), "f-ledger-bound",
                  lambda: f"{f_cost}/{ell.den}")
    # c(H) <= ell(backbone) + (2 + 1/(2 alpha)) ell(outside)
    factor = _SOLUTION_FACTOR
    checker.check(cost(h) * factor.denominator <= outside_num * factor.numerator
                  + ell.num_of(pair.backbone_vertices) * factor.denominator,
                  "solution-cost-bound", lambda: f"{h.cost()}")
    return SvenssonResult("solution", h, state)


def vertebrate_solve(pair: VertebratePair, epsilon: Fraction,
                     cover_fn: Callable[..., EdgeMultiset] = subtour_cover,
                     checker: Optional[Checker] = None) -> EdgeMultiset:
    """Solve a vertebrate pair: returns F with E(B) + F a tour and
    c(F) <= KAPPA * LP + eta * outside mass, eta = 14 + epsilon."""
    checker = checker or Checker()
    pair.validate(checker)
    ell = build_ell(pair, epsilon, checker=checker)
    g = pair.instance.g
    h_tilde = EdgeMultiset(g)
    for _ in range(_RESTART_CAP):
        result = svensson_iterate(pair, ell, h_tilde, cover_fn, checker)
        if result.kind == "solution":
            h = result.edges
            checker.balanced(h, "solution-eulerian", range(g.n))
            checker.check(_connected_with_backbone(pair, h),
                          "solution-connects")
            checker.check(pair.cost_at_most(h, KAPPA, ell.consts.eta),
                          "vertebrate-bound", lambda: f"{h.cost()}")
            return h
        # restart with the better initialization; the potential must grow by
        # more than the regularity floor to the 1+p
        import mpmath

        with mpmath.workdps(_PHI_DPS):
            one_plus_p = 1 + p_exponent(ell)
            new_phi = ComponentState(pair, ell, result.edges).phi_terms(one_plus_p)
            old_phi = result.state.phi_terms(one_plus_p)
            outside_ell = ell.of_set(pair.outside_vertices())
            threshold = _pow_term(
                outside_ell / (ell.consts.regularity_const * ell.n), one_plus_p
            )
            checker.check(new_phi - old_phi > threshold,
                          "restart-potential-progress",
                          lambda: f"{new_phi - old_phi} <= {threshold}")
        h_tilde = result.edges
    raise InternalCheckError("svensson-restart-cap", _RESTART_CAP)
