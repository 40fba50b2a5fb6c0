"""Differential test of the integer split circulation: `lift_and_reroute`
and `round_circulation` against the `Fraction` versions they replaced.

The cover keeps z as integer numerators over one denominator D and its
costs as numerators over one denominator C.  A positive scale changes no
comparison and no heap tie, so on every cover both versions must agree
edge by edge: z / D equals the rational z, the levels chosen and the rounded
circulation are the same, and the same checks fire as often."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest

from atsp_approx import cover as cover_mod
from atsp_approx.checks import Checker
from atsp_approx.cover import (
    AugmentedGraph,
    RoundedCirculation,
    SplitGraph,
    SubtourCoverInstance,
    WitnessFlow,
    _check_rounded_structure,
    _split_cycles_touch_backbone,
    build_split_graph,
    subtour_cover,
)
from atsp_approx.errors import InternalCheckError
from atsp_approx.flows import CirculationProblem
from atsp_approx.graph import Digraph, EdgeMultiset
from atsp_approx.harness import run_pipeline
from test_acceptance import cover_instances  # noqa: F401
from test_determinism import REDUCTION_CASES
from test_witness_reference import random_covers, thirds_cover

F = Fraction
ZERO = F(0)
ONE = F(1)
HALF = F(1, 2)


class FractionCirculation(CirculationProblem):
    """The min-cost circulation on `Fraction` costs, as the cover ran it
    before scaling: `solve` is the same code, and its Dijkstra keys and
    potentials become `Fraction`s."""

    def add_arc(self, tail: int, head: int, lower: int, upper: int, cost) -> int:
        arc = super().add_arc(tail, head, lower, upper, 0)
        self.cost[arc] = F(cost)
        return arc


@dataclass
class FractionRerouted:
    split: SplitGraph
    z: dict[int, Fraction]
    q_level: list[int]


def ref_lift_to_split(split: SplitGraph, x_vec: list[Fraction],
                      f_vec: list[Fraction]) -> dict[int, Fraction]:
    base = split.base
    z: dict[int, Fraction] = {eid: ZERO for eid in range(split.g.m)}
    for e in base.edges:
        lo = split.lower_of.get(e.eid)
        up = split.upper_of.get(e.eid)
        if lo is not None:
            z[lo] = f_vec[e.eid]
        if up is not None:
            z[up] = x_vec[e.eid] - f_vec[e.eid]
    for v in range(base.n):
        f_in = sum((f_vec[eid] for eid in base.in_edges[v]), ZERO)
        f_out = sum((f_vec[eid] for eid in base.out_edges[v]), ZERO)
        z[split.down_of[v]] = max(ZERO, f_out - f_in)
        if v in split.up_of:
            z[split.up_of[v]] = max(ZERO, f_in - f_out)
    return z


def ref_is_split_circulation(split: SplitGraph, z: dict[int, Fraction]) -> bool:
    for v in range(split.g.n):
        balance = sum((z[eid] for eid in split.g.in_edges[v]), ZERO) - sum(
            (z[eid] for eid in split.g.out_edges[v]), ZERO
        )
        if balance:
            return False
    return True


def ref_split_cost(split: SplitGraph, z: dict[int, Fraction]) -> Fraction:
    return sum((split.g.edge(eid).cost * val for eid, val in z.items()), ZERO)


def ref_decompose_unit_through(g: Digraph, z: dict[int, Fraction], inside: frozenset
                               ) -> list[tuple[int, list[int], int, Fraction]]:
    remaining = dict(z)
    out: list[tuple[int, list[int], int, Fraction]] = []
    collected = ZERO
    entry_candidates = sorted(
        eid for eid in remaining
        if g.edge(eid).head in inside and g.edge(eid).tail not in inside
    )
    guard = 0
    while collected < ONE:
        guard += 1
        if guard > 4 * g.m + 8:
            raise InternalCheckError("cycle-decomposition-stuck", sorted(inside))
        e_in = next((eid for eid in entry_candidates if remaining[eid] > 0), None)
        if e_in is None:
            raise InternalCheckError("cycle-decomposition-underflow",
                                     f"collected {collected}")
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
        weight = min(weight, ONE - collected)
        for eid in [e_in, e_out] + path:
            remaining[eid] -= weight
        out.append((e_in, path, e_out, weight))
        collected += weight
    return out


def ref_lift_and_reroute(cover: SubtourCoverInstance, witness: WitnessFlow,
                         aug: AugmentedGraph, checker: Checker) -> FractionRerouted:
    inst = cover.pair.instance
    backbone = cover.pair.backbone_vertices
    split = build_split_graph(aug.g, aug.edge_class, backbone)
    x_aug = [ZERO] * aug.g.m
    f_aug = [ZERO] * aug.g.m
    for eid in range(inst.g.m):
        x_aug[eid] = inst.x[eid]
        f_aug[eid] = F(witness.f[eid], inst._x_den)
    z = ref_lift_to_split(split, x_aug, f_aug)
    checker.check(ref_is_split_circulation(split, z), "lifted-z-circulation")
    cost_z = ref_split_cost(split, z)
    checker.check(cost_z == inst.lp_value, "lifted-z-cost")
    q_level: list[int] = []
    for i in range(aug.k):
        inside = split.level_set(aug.w_hat[i])
        crossing_in = sum((z[eid] for eid in split.g.delta_minus(inside)), ZERO)
        checker.check(crossing_in >= ONE, "rerouting-crossing-mass")
        pieces = ref_decompose_unit_through(split.g, z, inside)
        checker.check(sum((w for (_, _, _, w) in pieces), ZERO) == ONE,
                      "decomposition-unit-weight")
        by_level = {0: [], 1: []}
        for piece in pieces:
            by_level[split.g.edge(piece[0]).head % 2].append(piece)
        sum0 = sum((w for (_, _, _, w) in by_level[0]), ZERO)
        q = 0 if sum0 >= HALF else 1
        q_level.append(q)
        budget = HALF
        for e_in, path, e_out, weight in by_level[q]:
            if budget == 0:
                break
            lam = min(weight, budget)
            budget -= lam
            p = split.g.edge(e_out).tail % 2
            checker.check(p <= q, "rerouting-exit-level")
            in_base = aug.in_copy[(split.kind[e_in][1], i)]
            out_base = aug.out_copy[(split.kind[e_out][1], i)]
            in_split = split.lower_of[in_base] if q == 0 else split.upper_of[in_base]
            out_split = split.lower_of[out_base] if p == 0 else split.upper_of[out_base]
            z[e_in] -= lam
            z[in_split] = z.get(in_split, ZERO) + lam
            for eid in path:
                z[eid] -= lam
            z[e_out] -= lam
            z[out_split] = z.get(out_split, ZERO) + lam
            if p < q:
                z[split.down_of[aug.aux_of[i]]] += lam
        checker.check(budget == 0, "rerouting-half-unit")
        checker.check(all(val >= 0 for val in z.values()), "rerouted-z-nonnegative")
    checker.check(ref_is_split_circulation(split, z), "rerouted-z-circulation")
    checker.check(ref_split_cost(split, z) <= cost_z, "rerouted-z-cost")
    for i, q in enumerate(q_level):
        a = aug.aux_of[i]
        down = split.down_of[a]
        for level in (0, 1):
            node = split.lower(a) if level == 0 else split.upper(a)
            inflow = sum((z[eid] for eid in split.g.in_edges[node] if eid != down),
                         ZERO)
            expected = HALF if level == q else ZERO
            checker.check(inflow == expected, "aux-inflow-level")
    return FractionRerouted(split, z, q_level)


def ref_ceil2(value: Fraction) -> int:
    doubled = 2 * value
    return int(doubled) if doubled.denominator == 1 else int(doubled) + 1


def ref_round_circulation(rerouted: FractionRerouted, aug: AugmentedGraph,
                          cover: SubtourCoverInstance,
                          checker: Checker) -> RoundedCirculation:
    split = rerouted.split
    sg = split.g
    z = rerouted.z
    in_cap: dict[int, int] = {}
    for v in range(aug.g.n):
        node = split.upper(v)
        in_cap[node] = ref_ceil2(sum((z[eid] for eid in sg.in_edges[node]), ZERO))
    forced_nodes = set()
    for i, q in enumerate(rerouted.q_level):
        a = aug.aux_of[i]
        forced_nodes.add(split.lower(a) if q == 0 else split.upper(a))
    prob = FractionCirculation(2 * sg.n)
    for v in range(sg.n):
        if v in forced_nodes:
            lo, hi = 1, 1
        elif v in in_cap:
            lo, hi = 0, in_cap[v]
        else:
            lo, hi = 0, 10 ** 9
        prob.add_arc(2 * v, 2 * v + 1, lo, hi, ZERO)
    for e in sg.edges:
        prob.add_arc(2 * e.tail + 1, 2 * e.head, 0, ref_ceil2(z[e.eid]), e.cost)
    flows = prob.solve()
    assert flows is not None
    z_star = flows[sg.n:]
    for eid in range(sg.m):
        checker.check(0 <= z_star[eid] <= ref_ceil2(z[eid]), "rounding-edge-caps")
    cost_star = sum((sg.edge(eid).cost * z_star[eid] for eid in range(sg.m)), ZERO)
    checker.check(cost_star <= 2 * ref_split_cost(split, z), "rounding-cost-bound")
    for v in range(aug.g.n):
        node = split.upper(v)
        got = sum(z_star[eid] for eid in sg.in_edges[node])
        checker.check(got <= in_cap[node], "rounding-upper-indegree")
    for i in range(aug.k):
        a = aug.aux_of[i]
        in0 = sum(z_star[eid] for eid in sg.in_edges[split.lower(a)])
        in1 = sum(z_star[eid] for eid in sg.in_edges[split.upper(a)])
        checker.check(in0 == 1 or in1 == 1, "rounding-aux-unit")
    f_bar = EdgeMultiset(aug.g)
    f_star_lower: list[int] = []
    for eid in range(aug.g.m):
        lo = split.lower_of.get(eid)
        up = split.upper_of.get(eid)
        mult = (z_star[lo] if lo is not None else 0) + (
            z_star[up] if up is not None else 0
        )
        if mult:
            f_bar.add(eid, mult)
        f_star_lower.append(z_star[lo] if lo is not None else 0)
    _split_cycles_touch_backbone(split, z_star, aug, checker)
    _check_rounded_structure(f_bar, f_star_lower, aug, cover, checker)
    return RoundedCirculation(z_star, f_bar, f_star_lower)


@pytest.fixture
def compared(monkeypatch):
    """Patch the cover so that every lift-and-reroute and every rounding
    also runs the reference on the same input and asserts the same result
    and the same check counts.  Collects (cover, rerouted) per rounding."""
    done = []
    lift, rounding = cover_mod.lift_and_reroute, cover_mod.round_circulation
    pending: dict[int, FractionRerouted] = {}

    def lift_both(cover, witness, aug, checker: Checker):
        before = Counter(checker.counters)
        rerouted = lift(cover, witness, aug, checker)
        ref_checker = Checker()
        ref = ref_lift_and_reroute(cover, witness, aug, ref_checker)
        assert checker.counters - before == ref_checker.counters
        assert rerouted.q_level == ref.q_level
        assert {eid: F(v, rerouted.den) for eid, v in enumerate(rerouted.z)} == ref.z
        assert [F(c, rerouted.cost_den) for c in rerouted.cost] == \
            [e.cost for e in ref.split.g.edges]
        assert F(rerouted.cost_num, rerouted.den * rerouted.cost_den) == \
            ref_split_cost(ref.split, ref.z)
        pending[id(rerouted)] = ref
        return rerouted

    def round_both(rerouted, aug, cover, checker: Checker):
        before = Counter(checker.counters)
        rounded = rounding(rerouted, aug, cover, checker)
        ref_checker = Checker()
        ref = ref_round_circulation(pending.pop(id(rerouted)), aug, cover,
                                    ref_checker)
        assert checker.counters - before == ref_checker.counters
        assert rounded.z_star == ref.z_star
        assert rounded.f_bar.mult == ref.f_bar.mult
        assert rounded.f_star_lower == ref.f_star_lower
        done.append((cover, rerouted))
        return rounded

    monkeypatch.setattr(cover_mod, "lift_and_reroute", lift_both)
    monkeypatch.setattr(cover_mod, "round_circulation", round_both)
    return done


def test_integer_cover_matches_fraction_reference(cover_instances, compared):  # noqa: F811
    covers = [*cover_instances, thirds_cover(), *random_covers()]
    for cover in covers:
        subtour_cover(cover, Checker())
    assert len(compared) == len(covers)
    # the corpus reroutes through auxiliary vertices, and its x has
    # denominators above 2, so D is more than the bare factor 2
    assert sum(len(rerouted.q_level) for _, rerouted in compared) >= 50
    assert any(rerouted.den > 2 for _, rerouted in compared)


@pytest.mark.parametrize("name", sorted(REDUCTION_CASES))
def test_integer_cover_matches_fraction_reference_on_reduction_cases(name, compared):
    run_pipeline(name, REDUCTION_CASES[name](), F(1))
    assert compared
