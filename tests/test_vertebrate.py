from __future__ import annotations

import random
from fractions import Fraction

import pytest

from atsp_approx.checks import Checker
from atsp_approx.errors import ContractViolation
from atsp_approx.graph import Digraph, EdgeMultiset, integer_edges, is_eulerian_connected
from atsp_approx.lp import build_strongly_laminar_instance
from atsp_approx.vertebrate import construct_backbone, reduce_and_solve, solve_atsp
from atsp_approx.svensson import vertebrate_solve
from fixtures import c3, k2, rational_instance, two_tri
from test_instance import detour_instance

F = Fraction


def test_backbone_on_triangle_instance():
    inst, _, _ = build_strongly_laminar_instance(c3())
    checker = Checker()
    backbone, touched, missed, value_w, d_w, pair = construct_backbone(
        inst, inst.ground, checker
    )
    assert backbone.cost() <= 2 * F(d_w, inst._den)
    assert missed == [] or all(not (s & touched) for s in missed)
    assert checker.counters["missed-sets-slack"] == 1


def test_backbone_misses_disjoint_set():
    # the detour fixture: the reach argmax is (1, 6) whose nice paths stay
    # away from the pendant singleton {9}
    inst = detour_instance()
    checker = Checker()
    backbone, touched, missed, value_w, d_w, (u, v) = construct_backbone(
        inst, inst.ground, checker
    )
    assert (u, v) == (1, 6)
    assert frozenset({9}) in missed


def test_reduce_and_solve_singleton_window():
    inst, _, _ = build_strongly_laminar_instance(two_tri())
    out = reduce_and_solve(inst, frozenset({2}), lambda pair: EdgeMultiset(pair.instance.g),
                           F(1))
    assert out == EdgeMultiset(inst.g)


def test_solve_atsp_c3():
    cert = solve_atsp(c3(), F(1))
    assert cert.lp_value == 3
    assert cert.cost == 3
    assert cert.ratio == 1
    assert sorted(cert.tour.items()) == [(0, 1), (1, 1), (2, 1)]
    assert len(cert.walk) == 3


def test_solve_atsp_k2():
    cert = solve_atsp(k2(), F(1))
    assert cert.cost == 2 and cert.lp_value == 2 and cert.ratio == 1
    assert len(cert.walk) == 2


def test_solve_atsp_two_tri():
    checker = Checker()
    cert = solve_atsp(two_tri(), F(1), checker)
    assert cert.lp_value == 16
    assert cert.cost <= 23 * 16
    g = two_tri()
    eulerian, comps = is_eulerian_connected(cert.tour)
    assert eulerian and comps == [frozenset(range(6))]
    assert checker.counters["approximation-guarantee"] == 1
    assert checker.counters["window-cost-bound"] >= 1
    assert checker.counters["lifting-cost-monotone"] >= 1


def test_solve_atsp_single_vertex():
    cert = solve_atsp(Digraph(1, []), F(1))
    assert cert.cost == 0 and cert.lp_value == 0 and cert.ratio == 1
    assert cert.walk == []


def test_solve_atsp_rejects_nonpositive_epsilon():
    with pytest.raises(ContractViolation):
        solve_atsp(c3(), F(0))


def test_solve_atsp_random_small():
    rng = random.Random(97)
    for trial in range(6):
        n = rng.randint(2, 7)
        edges = []
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(n):
            edges.append((perm[i], perm[(i + 1) % n], F(rng.randint(1, 8))))
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, F(rng.randint(0, 9), rng.choice([1, 2, 3]))))
        g = Digraph(n, *integer_edges(edges))
        checker = Checker()
        cert = solve_atsp(g, F(1), checker)
        assert cert.cost <= 23 * cert.lp_value
        eulerian, comps = is_eulerian_connected(cert.tour)
        assert eulerian and comps == [frozenset(range(n))]


def three_branch_star():
    """Center 0 with three 2-vertex branches; the two heavy branches carry
    the reach argmax, so the light branch {5, 6} is a missed non-singleton
    family set and forces a genuine recursive call with path splicing at
    its contracted vertex."""
    half, quarter = F(1, 2), F(1, 4)
    edges = [
        (0, 1, F(3)), (1, 0, F(3)), (1, 2, F(3)), (2, 1, F(3)),
        (0, 3, F(3)), (3, 0, F(3)), (3, 4, F(3)), (4, 3, F(3)),
        (0, 5, quarter), (5, 6, quarter), (6, 0, half),
        (0, 6, half), (6, 5, quarter), (5, 0, quarter),
    ]
    x = [F(1)] * 8 + [half] * 6
    inst = rational_instance(Digraph(7, *integer_edges(edges)), [
        (frozenset({1, 2}), F(3)), (frozenset({3, 4}), F(3)),
        (frozenset({5, 6}), quarter),
        (frozenset({2}), F(3)), (frozenset({4}), F(3)),
        (frozenset({6}), quarter),
    ], x)
    inst.validate(Checker())
    return inst


def test_three_branch_star_misses_light_cluster():
    inst = three_branch_star()
    checker = Checker()
    backbone, touched, missed, value_w, d_w, pair = construct_backbone(
        inst, inst.ground, checker
    )
    assert (F(value_w, inst._den), F(d_w, inst._den)) == (25, 24)
    assert pair == (2, 4)
    assert missed == [frozenset({5, 6})]
    # the missed-set slack of the reduction analysis is exactly tight here
    assert 2 * F(1, 4) + F(inst.value(frozenset({5, 6})), inst._den) == \
        F(value_w - d_w, inst._den)


def test_three_branch_star_recursion_end_to_end():
    inst = three_branch_star()
    checker = Checker()

    def solver(pair):
        return vertebrate_solve(pair, F(1), checker=checker)

    tour = reduce_and_solve(inst, inst.ground, solver, F(1), checker)
    eulerian, comps = is_eulerian_connected(tour)
    assert eulerian and comps == [frozenset(range(7))]
    assert tour.cost() <= 23 * inst.lp_value
    # the recursion actually descended into the missed cluster and lifting
    # had to bridge passes through its contracted vertex
    assert checker.counters["recursion-budget"] >= 2
    assert checker.counters["lift-crosses-missed"] >= 1
    assert checker.counters["window-cost-bound"] >= 2


def test_solve_atsp_all_zero_costs():
    # zero LP value forces a zero-cost tour and the ratio convention
    rng = random.Random(5)
    for n in (2, 5, 8):
        edges = []
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(n):
            edges.append((perm[i], perm[(i + 1) % n], 0))
        for _ in range(n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, 0))
        checker = Checker()
        cert = solve_atsp(Digraph(n, edges), F(1), checker)
        assert cert.lp_value == 0 and cert.cost == 0 and cert.ratio == 1
        assert checker.counters["zero-lp-zero-cost"] == 1
        eulerian, comps = is_eulerian_connected(cert.tour)
        assert eulerian and len(comps) == 1


def test_solve_atsp_deterministic():
    g = two_tri()
    first = solve_atsp(g, F(1))
    second = solve_atsp(g, F(1))
    assert first.tour == second.tour
    assert first.walk == second.walk
    assert first.cost == second.cost
