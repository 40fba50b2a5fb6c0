from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from atsp_approx.checks import Checker
from atsp_approx.cover import subtour_cover
from atsp_approx.errors import ContractViolation
from atsp_approx.graph import Digraph, EdgeMultiset, integer_edges, is_eulerian_connected
from atsp_approx.pair import VertebratePair
from atsp_approx.svensson import (
    ComponentState,
    build_ell,
    improved_initialization,
    knapsack_greedy,
    svensson_iterate,
    vertebrate_solve,
)
from test_cover import make_pair, remote_cluster_pair, spanning_pair
from fixtures import c3, rational_instance, two_tri
from oracles import outside_singleton_mass

F = Fraction


def test_knapsack_two_equal_items():
    chosen = knapsack_greedy([(F(1), F(1)), (F(1), F(1))], F(1))
    assert len(chosen) == 1


def test_knapsack_skips_oversized_item():
    chosen = knapsack_greedy([(F(2), F(10)), (F(1), F(1))], F(1))
    assert chosen == [1]


def test_knapsack_half_of_equal_items():
    items = [(F(1), F(3))] * 6
    chosen = knapsack_greedy(items, F(3))
    assert len(chosen) == 3


def test_knapsack_requires_tight_limit():
    with pytest.raises(ContractViolation):
        knapsack_greedy([(F(1), F(1))], F(5))


def test_knapsack_guarantee_random_against_exhaustive():
    rng = random.Random(31)
    for _ in range(150):
        count = rng.randint(1, 9)
        items = [
            (F(rng.randint(1, 8), rng.choice([1, 2])), F(rng.randint(0, 9)))
            for _ in range(count)
        ]
        total_w = sum(w for w, _ in items)
        limit = total_w * F(rng.randint(1, 9), 10)
        if not (limit < total_w):
            continue
        chosen = knapsack_greedy(items, limit)
        got_w = sum((items[j][0] for j in chosen), F(0))
        got_p = sum((items[j][1] for j in chosen), F(0))
        assert got_w <= limit
        total_p = sum(p for _, p in items)
        max_p = max(p for _, p in items)
        assert got_p >= (limit / total_w) * total_p - max_p
        # exhaustive optimum dominates the greedy
        best = F(0)
        for mask in range(1 << count):
            w = sum(items[j][0] for j in range(count) if (mask >> j) & 1)
            if w <= limit:
                p = sum(items[j][1] for j in range(count) if (mask >> j) & 1)
                best = max(best, p)
        assert got_p <= best


def ring_pair() -> VertebratePair:
    """Bidirected 6-ring, x = 1/2 per arc, singleton weights 1/2 away from
    the backbone vertex 0."""
    half = F(1, 2)
    y = {v: half for v in range(1, 6)}
    edges = []
    for i in range(6):
        j = (i + 1) % 6
        cost = y.get(i, F(0)) + y.get(j, F(0))
        edges.append((i, j, cost))
        edges.append((j, i, cost))
    g = Digraph(6, *integer_edges(edges))
    inst = rational_instance(g, [(frozenset({v}), half) for v in range(1, 6)], [half] * g.m)
    inst.validate(Checker())
    pair = VertebratePair(inst, EdgeMultiset(inst.g), frozenset({0}))
    pair.validate()
    return pair


def ring_cycle_avoiding_backbone(pair: VertebratePair) -> EdgeMultiset:
    g = pair.instance.g
    ms = EdgeMultiset(g)
    for e in g.edges:
        if 0 in (e.tail, e.head):
            continue
        ms.add(e.eid)
    eulerian, _ = is_eulerian_connected(ms)
    assert eulerian
    return ms


def test_ell_values_and_regularity():
    pair = ring_pair()
    checker = Checker()
    ell = build_ell(pair, F(1), checker=checker)
    assert ell.consts.eps_prime == F(6, 91)
    # outside vertices: (1+e')*2*alpha*2y + e'/n * mass with mass = 5
    assert ell.of(1) == F(97, 91) * 6 + F(6, 91) * F(5, 6)
    assert ell.of(0) == 2 * pair.instance.lp_value + 1 * 5
    assert checker.counters["ell-regularity"] == 5
    assert checker.counters["ell-backbone-total"] == 1


def _ref_ell(pair, epsilon):
    """The budget per vertex and the lcm of the costs' denominator and of
    its three terms', from Fractions."""
    from atsp_approx.cover import SUBTOUR_COVER_BETA, SUBTOUR_COVER_KAPPA
    from atsp_approx.svensson import epsilon_constants

    consts = epsilon_constants(epsilon)
    inst = pair.instance
    n = inst.g.n
    mass = F(inst.singleton_mass(pair.outside_vertices()), inst._den)
    share = ((SUBTOUR_COVER_KAPPA * inst.lp_value + SUBTOUR_COVER_BETA * mass)
             / len(pair.backbone_vertices))
    per, floor = consts.scaled_eps / inst._den, consts.eps_prime * mass / n
    values = [share if v in pair.backbone_vertices
              else per * inst.singleton_mass((v,)) + floor for v in range(n)]
    den = math.lcm(inst.g.cost_den, share.denominator, per.denominator, floor.denominator)
    return values, den


def test_ell_matches_its_fraction_definition(monkeypatch):
    # every budget function of the nested-clusters batch's solves, at three
    # epsilons, against the Fraction arithmetic it is built without
    from atsp_approx import svensson
    from atsp_approx.harness import parse_instance, run_pipeline
    from fixtures import perfbench_workloads

    real = svensson.build_ell
    built = []

    def compared(pair, epsilon, checker=None):
        ell = real(pair, epsilon, checker)
        values, den = _ref_ell(pair, epsilon)
        assert [ell.of(v) for v in range(ell.n)] == values
        assert ell.den == den and ell.cost_scale * pair.instance.g.cost_den == den
        built.append(ell)
        return ell

    monkeypatch.setattr(svensson, "build_ell", compared)
    for _, _, text in perfbench_workloads().make_batch("nested-clusters", 1)[:4]:
        for epsilon in (F(1), F(1, 3), F(7, 2)):
            run_pipeline(*parse_instance(text), epsilon)
    for pair in (ring_pair(), remote_cluster_pair(), spanning_pair(two_tri())):
        compared(pair, F(2, 5))
    assert len(built) >= 30


def test_component_state_ordering():
    pair = remote_cluster_pair()
    ell = build_ell(pair, F(1))
    tri = EdgeMultiset(pair.instance.g)
    for e in pair.instance.g.edges:
        if {e.tail, e.head} <= {3, 4, 5}:
            tri.add(e.eid)
    state = ComponentState(pair, ell, tri)
    assert state.parts[0] == pair.backbone_vertices
    assert state.parts[1] == frozenset({3, 4, 5})  # largest budget first
    assert state.parts[2:] == [frozenset({1}), frozenset({2})]
    assert state.ind({4}) == 1 and state.ind({2}) == 3


def test_improved_initialization_direct():
    pair = remote_cluster_pair()
    ell = build_ell(pair, F(1))
    g = pair.instance.g
    state = ComponentState(pair, ell, EdgeMultiset(g))
    tri = EdgeMultiset(g)
    for e in g.edges:
        if {e.tail, e.head} <= {3, 4, 5}:
            tri.add(e.eid)
    checker = Checker()
    better = improved_initialization(state, frozenset({3, 4, 5}), tri, checker)
    assert better == tri
    assert checker.counters["better-init-light"] >= 1
    assert checker.counters["better-init-potential-growth"] == 1


def test_improved_initialization_rejects_bad_subtour():
    pair = remote_cluster_pair()
    ell = build_ell(pair, F(1))
    g = pair.instance.g
    state = ComponentState(pair, ell, EdgeMultiset(g))
    # the T1 triangle touches the backbone vertex 0
    t1 = EdgeMultiset(g)
    for e in g.edges:
        if {e.tail, e.head} <= {0, 1, 2}:
            t1.add(e.eid)
    with pytest.raises(ContractViolation):
        improved_initialization(state, frozenset({0, 1, 2}), t1)


def test_iterate_returns_better_init_on_expensive_cover():
    pair = ring_pair()
    ell = build_ell(pair, F(1))
    ring = ring_cycle_avoiding_backbone(pair)

    def fake_cover(cover, checker=None):
        return ring.copy()

    checker = Checker()
    result = svensson_iterate(pair, ell, EdgeMultiset(pair.instance.g), fake_cover, checker)
    assert result.kind == "better"
    assert result.edges == ring
    # the trigger was the budget overrun of the first component
    assert ring.cost() == 8
    assert ring.cost() > ell.of(1)


def test_iterate_trivial_when_backbone_spans():
    pair = spanning_pair(c3())
    ell = build_ell(pair, F(1))
    checker = Checker()
    result = svensson_iterate(pair, ell, EdgeMultiset(pair.instance.g), subtour_cover,
                              checker)
    assert result.kind == "solution"
    assert result.edges == EdgeMultiset(pair.instance.g)


def assert_vertebrate_contract(pair: VertebratePair, f: EdgeMultiset,
                               epsilon: Fraction) -> None:
    g = pair.instance.g
    union = pair.backbone.union(f)
    eulerian, comps = is_eulerian_connected(union)
    assert eulerian
    assert comps == [frozenset(range(g.n))]
    eta = 4 * F(3) + F(1) + 1 + epsilon
    bound = 2 * pair.instance.lp_value + eta * outside_singleton_mass(pair)
    assert f.cost() <= bound


def test_vertebrate_solve_two_tri():
    pair = make_pair(two_tri())
    checker = Checker()
    f = vertebrate_solve(pair, F(1), checker=checker)
    assert_vertebrate_contract(pair, f, F(1))
    assert checker.counters["vertebrate-bound"] == 1
    assert checker.counters["solution-cost-bound"] == 1


def test_vertebrate_solve_remote_clusters():
    pair = remote_cluster_pair()
    checker = Checker()
    f = vertebrate_solve(pair, F(1), checker=checker)
    assert_vertebrate_contract(pair, f, F(1))


def test_vertebrate_solve_ring():
    pair = ring_pair()
    checker = Checker()
    f = vertebrate_solve(pair, F(1), checker=checker)
    assert_vertebrate_contract(pair, f, F(1))


def test_vertebrate_solve_spanning_backbone():
    pair = spanning_pair(two_tri())
    f = vertebrate_solve(pair, F(1))
    assert f == EdgeMultiset(pair.instance.g)


def test_vertebrate_solve_small_epsilon():
    pair = make_pair(two_tri())
    f = vertebrate_solve(pair, F(1, 10))
    assert_vertebrate_contract(pair, f, F(1, 10))


def test_epsilon_constants_are_built_once_per_solve(monkeypatch):
    # a nested-clusters pool instance whose solve opens several windows:
    # every window reads the constants of epsilon, and the constants are
    # built once, on the first request for that epsilon
    from atsp_approx import svensson
    from atsp_approx.harness import parse_instance, run_pipeline
    from fixtures import perfbench_workloads

    batch = perfbench_workloads().make_batch("nested-clusters", 1)
    name, g = parse_instance(batch[0][2])
    real = svensson.EpsilonConstants
    builds = []

    def counted(epsilon):
        builds.append(epsilon)
        return real(epsilon)

    monkeypatch.setattr(svensson, "EpsilonConstants", counted)
    svensson.epsilon_constants.cache_clear()
    for epsilon, eta in ((F(1), F(15)), (F(1, 2), F(29, 2)), (F(1), F(15))):
        before = len(builds)
        report = run_pipeline(name, g, epsilon)
        assert report.assertion_counts["window-cost-bound"] >= 3
        assert len(builds) - before <= 1
        consts = svensson.epsilon_constants(epsilon)
        assert (consts.epsilon, consts.eta) == (epsilon, eta)
    assert builds == [F(1), F(1, 2)]
    assert svensson.epsilon_constants(F(1, 2)).eps_prime == F(3, 91)
