from __future__ import annotations

import random
import re
import sys
from fractions import Fraction

import pytest

from atsp_approx import lp, simplex
from atsp_approx.checks import Checker
from atsp_approx.errors import BudgetError, ContractViolation, InfeasibleInstanceError
from atsp_approx.flows import max_flow_min_cut
from atsp_approx.graph import Digraph, check_laminar, integer_edges
from atsp_approx.harness import gen_instance
from atsp_approx.instance import StronglyLaminarInstance
from atsp_approx.lp import (
    DualLp,
    build_strongly_laminar_instance,
    dual_feasible,
    make_strongly_laminar,
    separate_subtour,
    solve_atsp_lp,
    uncross_dual,
)
from atsp_approx.rational import common_denominator
from fixtures import c3, k2, two_tri

F = Fraction


def full_enumeration_lp_value(g: Digraph) -> Fraction:
    """Oracle: solve the LP with every one of the 2^n - 2 cut rows."""
    rows, rhs = [], []
    for v in range(g.n):
        row = {}
        for eid in g.in_edges[v]:
            row[eid] = row.get(eid, F(0)) + 1
        for eid in g.out_edges[v]:
            row[eid] = row.get(eid, F(0)) - 1
        rows.append(row)
        rhs.append(F(0))  # in(v) - out(v) >= 0 at every v forces equality
    for mask in range(1, (1 << g.n) - 1):
        u = frozenset(v for v in range(g.n) if (mask >> v) & 1)
        row = {}
        for eid in g.delta_plus(u) + g.delta_minus(u):
            row[eid] = row.get(eid, F(0)) + 1
        rows.append(row)
        rhs.append(F(2))
    res = simplex.solve_lp([e.cost for e in g.edges], rows, rhs)
    assert res.status == simplex.OPTIMAL
    return res.objective


def int_dual(g: Digraph, a, y) -> DualLp:
    """The dual (a, y) of `Fraction`s as `DualLp` holds it: integer
    numerators over one denominator, a multiple of g's cost denominator."""
    nums, den = common_denominator([*a, *y.values()], g.cost_den)
    y_num = dict(zip(y, nums[len(a):]))
    return DualLp(nums[:len(a)], y_num, 2 * sum(y_num.values()), den)


def fractions_of(dual: DualLp) -> tuple[list[Fraction], dict, Fraction]:
    """a, y and the dual objective of dual as `Fraction`s."""
    return ([F(v, dual.den) for v in dual.a], {s: F(w, dual.den) for s, w in dual.y.items()},
            F(dual.objective, dual.den))


def cut_value(g: Digraph, x, u) -> Fraction:
    return sum((x[e] for e in g.delta_plus(u)), F(0)) + sum(
        (x[e] for e in g.delta_minus(u)), F(0)
    )


def test_lp_on_triangle():
    primal, dual = solve_atsp_lp(c3(), Checker())
    assert primal.objective == 3
    assert primal.x == [F(1), F(1), F(1)]
    assert fractions_of(dual)[2] == 3


def test_lp_on_k2():
    primal, dual = solve_atsp_lp(k2(), Checker())
    assert primal.objective == 2
    assert primal.x == [F(1), F(1)]


def test_lp_on_two_tri():
    g = two_tri()
    primal, dual = solve_atsp_lp(g, Checker())
    assert primal.objective == 16
    assert primal.objective == full_enumeration_lp_value(g)
    # every cut of the optimum is >= 2 (exhaustive for n=6)
    for mask in range(1, (1 << 6) - 1):
        u = frozenset(v for v in range(6) if (mask >> v) & 1)
        assert cut_value(g, primal.x, u) >= 2


def test_lp_rejects_weakly_connected():
    g = Digraph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(InfeasibleInstanceError):
        solve_atsp_lp(g, Checker())


def test_lp_over_budget_is_refused_before_any_row_is_built(monkeypatch):
    # the first LP of a directed n-cycle has n degree rows and n singleton
    # cuts over n + 2n columns (one surplus per row): at 6 n^2 cells it is
    # solved, one cell less is refused before a cut row is built or the
    # simplex is called
    n = 10
    g = Digraph(n, [(i, (i + 1) % n, 1) for i in range(n)])
    monkeypatch.setattr(simplex, "MAX_TABLEAU_CELLS", 6 * n * n)
    assert solve_atsp_lp(g, Checker())[0].objective == n

    def not_called(*args):
        raise AssertionError("an LP over the budget reached row building")

    monkeypatch.setattr(simplex, "MAX_TABLEAU_CELLS", 6 * n * n - 1)
    monkeypatch.setattr(Digraph, "delta_plus", not_called)
    monkeypatch.setattr(Digraph, "delta_minus", not_called)
    monkeypatch.setattr(simplex, "solve_lp", not_called)
    with pytest.raises(BudgetError, match=f"^LP tableau of {2 * n} rows x {3 * n} "
                       f"columns exceeds the budget of {6 * n * n - 1} cells$"):
        solve_atsp_lp(g, Checker())


def test_separate_subtour_disconnected_support():
    g = two_tri()
    x = [F(1)] * 6 + [F(0), F(0)]  # both triangles, no joining arcs
    u = separate_subtour(g, *common_denominator(x))
    assert u in (frozenset({0, 1, 2}), frozenset({3, 4, 5}))


def test_separate_subtour_satisfied():
    g = c3()
    assert separate_subtour(g, [1, 1, 1], 1) is None


def test_separate_subtour_half_cut():
    # K2 plus an extra vertex attached by half-unit arcs
    g = Digraph(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)])
    x = [F(1), F(1), F(1, 2), F(1, 2)]
    u = separate_subtour(g, [2, 2, 1, 1], 2)
    assert u is not None and cut_value(g, x, u) < 2
    assert u in (frozenset({2}), frozenset({0, 1}))


def _random_circulation(rng, n):
    """A sum of random weighted directed cycles on n vertices, plus a few
    zero-valued arcs; returns (graph, x)."""
    x_of: dict = {}
    for _ in range(rng.randint(1, 4)):
        cycle = rng.sample(range(n), rng.randint(2, n))
        w = F(rng.randint(1, 6), 4)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            x_of[(a, b)] = x_of.get((a, b), F(0)) + w
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(range(n), 2)
        x_of.setdefault((a, b), F(0))
    arcs = sorted(x_of)
    g = Digraph(n, [(a, b, 1) for a, b in arcs])
    return g, [x_of[arc] for arc in arcs]


def test_separate_subtour_matches_brute_force():
    rng = random.Random(77)
    outcomes = set()
    for trial in range(150):
        n = rng.randint(2, 7)
        g, x = _random_circulation(rng, n)
        subsets = [frozenset(v for v in range(n) if (mask >> v) & 1)
                   for mask in range(1, (1 << n) - 1)]
        any_violated = any(cut_value(g, x, u) < 2 for u in subsets)
        u = separate_subtour(g, *common_denominator(x))
        outcomes.add(u is None)
        if any_violated:
            assert u is not None and cut_value(g, x, u) < 2, trial
        else:
            assert u is None, trial
    assert outcomes == {True, False}


def test_separation_makes_no_flow_call_on_two_tri_optimum(monkeypatch):
    calls = []

    def counting(network, source, sink, limit=None):
        calls.append((source, sink))
        return max_flow_min_cut(network, source, sink, limit)

    monkeypatch.setattr(lp, "max_flow_min_cut", counting)
    g = two_tri()
    primal, _ = solve_atsp_lp(g, Checker())  # x is LP-feasible: every cut holds
    calls.clear()
    assert separate_subtour(g, primal.x_num, primal.x_den) is None
    # the optimal x is integral, so its arcs of x = 1 join every vertex into
    # one class and no max-flow is needed
    assert all(v in (0, primal.x_den) for v in primal.x_num)
    assert calls == []


def test_separation_rejects_non_circulations():
    g = c3()
    with pytest.raises(ContractViolation):
        separate_subtour(g, [2, 2, 1], 2)
    with pytest.raises(ContractViolation):
        separate_subtour(g, [-1, -1, -1], 1)


def test_uncross_crossing_pair():
    # 4-cycle; support {{0,1},{1,2}} crosses and resolves to {1},{0,1,2}
    g = Digraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    dual = int_dual(g, [F(0)] * 4, {frozenset({0, 1}): F(1, 4), frozenset({1, 2}): F(1, 4)})
    assert fractions_of(dual)[2] == 1
    out = uncross_dual(g, dual, Checker())
    # {0,1} is canonicalized to its complement {2,3} first, which nests with
    # nothing, so it crosses {1,2}: intersection {2}, union {1,2,3}
    assert out.objective == dual.objective and out.den == dual.den
    assert check_laminar(list(out.y.keys()))
    assert sum(fractions_of(out)[1].values()) == F(1, 2)


def test_uncross_laminar_unchanged():
    g = c3()
    dual = int_dual(g, [F(0)] * 3, {frozenset({1}): F(1, 2), frozenset({1, 2}): F(1, 2)})
    out = uncross_dual(g, dual, Checker())
    assert fractions_of(out)[1] == {frozenset({1}): F(1, 2), frozenset({1, 2}): F(1, 2)}


def test_uncross_complement_canonicalization():
    # A and its complement cross nothing after canonicalization
    g = Digraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    a = frozenset({1, 2})
    comp = frozenset({0, 3})
    dual = int_dual(g, [F(0)] * 4, {a: F(1, 3), comp: F(1, 5)})
    assert fractions_of(dual)[2] == 2 * (F(1, 3) + F(1, 5))
    out = uncross_dual(g, dual, Checker())
    assert fractions_of(out)[1] == {a: F(1, 3) + F(1, 5)}
    assert out.objective == dual.objective


def test_make_strongly_laminar_moves_weight():
    # U = {0,1,2} induces SCCs {0}, {1,2} in order; weight moves to {0}
    g = Digraph(4, [
        (0, 1, 1), (1, 2, 1), (2, 1, 1), (2, 3, 1), (3, 0, 1),
    ])
    u = frozenset({0, 1, 2})
    dual = int_dual(g, [F(0)] * 4, {u: F(1)})
    # feasibility of the starting dual on this graph
    assert dual_feasible(g, dual)
    out = make_strongly_laminar(g, dual, Checker())
    a, y, objective = fractions_of(out)
    assert u not in y
    assert y == {frozenset({0}): F(1)}
    assert a == [F(0), F(-1), F(-1), F(0)]
    assert objective == 2


def test_make_strongly_laminar_tests_each_set_once(monkeypatch):
    # {0,1} and {0,1,2} both fail and both donate to {0}; the failing sets
    # are found in one scan, and the final check scans the one set left
    g = Digraph(4, [(0, 1, 2), (1, 2, 2), (2, 1, 2), (2, 3, 2), (3, 0, 2)])
    dual = int_dual(g, [F(0)] * 4, {frozenset({0, 1, 2}): F(1), frozenset({0, 1}): F(1, 2)})
    assert dual_feasible(g, dual)
    calls = []
    original = Digraph.is_strongly_connected

    def counting(self, restrict=None):
        calls.append(restrict)
        return original(self, restrict)

    monkeypatch.setattr(Digraph, "is_strongly_connected", counting)
    out = make_strongly_laminar(g, dual, Checker())
    a, y, _ = fractions_of(out)
    assert y == {frozenset({0}): F(3, 2)}
    assert a == [F(0), F(-3, 2), F(-1), F(0)]
    assert len(calls) == 3


def test_make_strongly_laminar_noop_on_sccs():
    g = c3()
    dual = int_dual(g, [F(0)] * 3, {frozenset({0}): F(1, 2)})
    out = make_strongly_laminar(g, dual, Checker())
    assert fractions_of(out) == ([F(0)] * 3, {frozenset({0}): F(1, 2)}, F(1))


def test_build_instance_triangle():
    checker = Checker()
    inst, lp_value, origin = build_strongly_laminar_instance(c3(), checker)
    assert lp_value == 3
    assert inst.g.n == 3 and inst.g.m == 3
    assert origin == (0, 1, 2)
    assert inst.lp_value == 3
    # every family member is a singleton or the support is empty
    assert all(len(s) <= 2 for s in inst.family)


def test_build_instance_k2():
    inst, lp_value, _ = build_strongly_laminar_instance(k2(), Checker())
    assert lp_value == 2
    assert [e.cost for e in inst.g.edges] == [F(1), F(1)]


def test_build_instance_two_tri():
    checker = Checker()
    inst, lp_value, origin = build_strongly_laminar_instance(two_tri(), checker)
    assert lp_value == 16
    # both triangles are tight cuts of the exact primal (exhaustive check)
    for u in (frozenset({0, 1, 2}), frozenset({3, 4, 5})):
        assert cut_value(inst.g, inst.x, u) == 2
    # the family contains a triangle: the separation oracle generates the
    # cluster cuts and their duals survive uncrossing
    assert any(len(s) == 3 for s in inst.family)


def test_reduction_builds_and_scales_no_fraction_x(monkeypatch):
    # x and the dual leave the simplex as integer numerators, and
    # `x-feasible-all-cuts` hands the instance's own numerators to
    # separate_subtour: no Fraction x is built, and common_denominator is
    # called nowhere in the reduction
    def fraction_x(self):
        raise AssertionError("Fraction x built")

    def scaled(values, den=1):
        raise AssertionError("common_denominator called")

    monkeypatch.setattr(lp.PrimalLp, "x", property(fraction_x))
    monkeypatch.setattr(StronglyLaminarInstance, "x", property(fraction_x))
    for name, module in list(sys.modules.items()):
        if name.startswith("atsp_approx") and hasattr(module, "common_denominator"):
            monkeypatch.setattr(module, "common_denominator", scaled)
    separations = []
    separate = lp.separate_subtour

    def counted_separate(g, x_num, unit):
        assert all(type(v) is int for v in (*x_num, unit)), "separation got a Fraction x"
        separations.append(unit)
        return separate(g, x_num, unit)

    monkeypatch.setattr(lp, "separate_subtour", counted_separate)
    rounds = []
    solve_lp = simplex.solve_lp
    monkeypatch.setattr(simplex, "solve_lp", lambda *args, **kw: rounds.append(1) or
                        solve_lp(*args, **kw))
    checker = Checker()
    for n in range(10, 15):
        for seed in range(3):
            build_strongly_laminar_instance(gen_instance("random-strong", n, seed), checker)
    assert len(rounds) > 15  # some LPs take several cutting rounds
    assert len(separations) == checker.counters["x-feasible-all-cuts"] == 15


def test_build_instance_n1():
    inst, lp_value, origin = build_strongly_laminar_instance(Digraph(1, []), Checker())
    assert lp_value == 0 and origin == () and inst.g.n == 1


def test_uncross_random_feasible_duals():
    # costs are defined as crossing sums plus slack, so (0, y) is feasible
    # by construction for arbitrary, heavily crossing supports
    rng = random.Random(31415)
    for trial in range(30):
        n = rng.randint(3, 8)
        arcs = []
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(n):
            arcs.append((perm[i], perm[(i + 1) % n]))
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.append((u, v))
        y: dict = {}
        for _ in range(rng.randint(1, 6)):
            s = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
            y[s] = y.get(s, F(0)) + F(rng.randint(1, 4), rng.choice([1, 2, 4]))
        costed = []
        for (u, v) in arcs:
            base = sum((w for ss, w in y.items() if (u in ss) != (v in ss)), F(0))
            costed.append((u, v, base + F(rng.randint(0, 3), 2)))
        g = Digraph(n, *integer_edges(costed))
        dual = int_dual(g, [F(0)] * n, y)
        assert fractions_of(dual)[2] == sum((2 * w for w in y.values()), F(0))
        assert dual_feasible(g, dual)
        out = uncross_dual(g, dual, Checker())
        assert check_laminar(list(out.y.keys())), trial
        assert fractions_of(out)[2] == fractions_of(dual)[2], trial
        assert dual_feasible(g, out), trial


def test_dual_feasible_matches_fraction_reference():
    # dual_feasible compares integer numerators over one denominator; the
    # reference sums crossing weights in Fractions.  Costs sit at, just
    # above or just below a_head - a_tail + crossing weight, so both
    # verdicts and exact ties occur; a few y are negative.
    rng = random.Random(2718)

    def reference(g, a, y):
        if any(w < 0 for w in y.values()):
            return False
        return all(a[e.head] - a[e.tail]
                   + sum((w for s, w in y.items() if (e.tail in s) != (e.head in s)),
                         F(0)) <= e.cost
                   for e in g.edges)

    verdicts = set()
    for _ in range(300):
        n = rng.randint(2, 7)
        a = [F(rng.randint(-6, 6), rng.randint(1, 12)) for _ in range(n)]
        y: dict = {}
        for _ in range(rng.randint(0, 5)):
            s = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
            y[s] = F(rng.choice([1, 1, 1, 1, 1, -1]) * rng.randint(1, 9), rng.randint(1, 12))
        edges = []
        for _ in range(rng.randint(1, 3 * n)):
            u, v = rng.sample(range(n), 2)
            cross = sum((w for s, w in y.items() if (u in s) != (v in s)), F(0))
            tight = a[v] - a[u] + cross
            cost = max(F(0), tight + rng.choice([0, 0, 1, -1]) * F(1, rng.randint(1, 12)))
            edges.append((u, v, cost))
        g = Digraph(n, *integer_edges(edges))
        dual = int_dual(g, a, y)
        expected = reference(g, a, y)
        assert dual_feasible(g, dual) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_dual_over_a_denominator_the_costs_do_not_divide_is_refused():
    # costs in halves cannot be read over a dual denominator of 3
    g = Digraph(2, [(0, 1, 1), (1, 0, 3)], 2)
    assert dual_feasible(g, DualLp([0, 0], {frozenset({1}): 1}, 2, 4))
    with pytest.raises(ContractViolation, match="not a multiple of the cost denominator 2"):
        dual_feasible(g, DualLp([0, 0], {frozenset({1}): 1}, 2, 3))


def test_cutting_plane_matches_full_enumeration_small_random():
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randint(2, 6)
        edges = []
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(n):
            edges.append((perm[i], perm[(i + 1) % n], F(rng.randint(1, 6))))
        for _ in range(rng.randint(0, n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, F(rng.randint(0, 8), rng.choice([1, 2])))),
        g = Digraph(n, *integer_edges(edges))
        primal, dual = solve_atsp_lp(g, Checker())
        assert primal.objective == full_enumeration_lp_value(g)
        assert fractions_of(dual)[2] == primal.objective


def _count_simplex_work(monkeypatch):
    """Patch the simplex so that each `solve_lp` call logs "c" (cold) or "w"
    (warm), each `_dual` run "d", and each pivot "p"; a pivot outside
    `_dual` fails the test."""
    events = []
    inside = [False]
    solve_lp, dual, pivot_on = simplex.solve_lp, simplex._dual, simplex._Tableau.pivot_on

    def counted_solve_lp(*args, warm=None):
        events.append("c" if warm is None else "w")
        return solve_lp(*args, warm=warm)

    def counted_dual(tab):
        events.append("d")
        inside[0] = True
        try:
            return dual(tab)
        finally:
            inside[0] = False

    def counted_pivot_on(tab, r, col):
        assert inside[0], "a pivot outside the dual simplex"
        events.append("p")
        return pivot_on(tab, r, col)

    monkeypatch.setattr(simplex, "solve_lp", counted_solve_lp)
    monkeypatch.setattr(simplex, "_dual", counted_dual)
    monkeypatch.setattr(simplex._Tableau, "pivot_on", counted_pivot_on)
    return events


def test_every_cutting_round_runs_the_dual_simplex_once(monkeypatch):
    # round 0 is a cold solve from the all-surplus basis and every later
    # round re-optimises the previous tableau, each by one dual simplex run
    # and no other pivot; the final duals still pass the exact checks
    events = _count_simplex_work(monkeypatch)
    lps = 0
    for n in range(10, 15):
        for seed in range(3):
            checker = Checker()
            solve_atsp_lp(gen_instance("random-strong", n, seed), checker)
            lps += 1
            assert checker.counters["strong-duality"] == 1
            assert checker.counters["dual-feasible"] == 1
    trace = "".join(e for e in events if e != "p")
    assert re.fullmatch("(cd(wd)*)+", trace), trace
    assert trace.count("c") == lps and "cdwdwdwd" in trace  # one LP takes 4 rounds


@pytest.mark.parametrize("n", [50, 200])
def test_cycle_lp_takes_one_round_and_n_pivots(n, monkeypatch):
    # every arc of a directed n-cycle is forced to 1: one dual simplex run
    # brings each arc into the basis once, and x violates no cut
    events = _count_simplex_work(monkeypatch)
    g = Digraph(n, [(i, (i + 1) % n, 1) for i in range(n)])
    primal, dual = solve_atsp_lp(g, Checker())
    assert primal.objective == fractions_of(dual)[2] == n
    assert "".join(events) == "cd" + "p" * n


def _dense(n: int, seed: int) -> Digraph:
    """The complete digraph on n vertices with costs 1-100."""
    rng = random.Random(f"dense/{n}/{seed}")
    return Digraph(n, [(i, j, rng.randint(1, 100))
                       for i in range(n) for j in range(n) if i != j])


@pytest.mark.parametrize("model,n", [("random-strong", 20), ("random-strong", 40),
                                     ("random-strong", 60), ("dense", 20), ("dense", 40)])
def test_subtour_lp_value_matches_highs(model, n, monkeypatch):
    # HiGHS optimises over the final round's cut set: its optimum equals the
    # exact LP value, and that x violates no cut at all, so the value is the
    # optimum of the full subtour LP
    scipy = pytest.importorskip("scipy.optimize")
    g = _dense(n, 0) if model == "dense" else gen_instance(model, n, 0)
    rounds = []
    solve_lp = simplex.solve_lp

    def recorded(objective, rows, rhs, warm=None):
        rounds.append((list(rows), list(rhs)))
        return solve_lp(objective, rows, rhs, warm=warm)

    monkeypatch.setattr(simplex, "solve_lp", recorded)
    primal, _ = solve_atsp_lp(g, Checker())
    assert separate_subtour(g, primal.x_num, primal.x_den) is None
    rows, rhs = rounds[-1]
    circulation, cuts = rows[:g.n], rows[g.n:]

    def dense(rows):
        return [[float(row.get(j, 0)) for j in range(g.m)] for row in rows]

    ref = scipy.linprog([float(e.cost) for e in g.edges],
                        A_ub=[[-v for v in row] for row in dense(cuts)],
                        b_ub=[-float(b) for b in rhs[g.n:]],
                        A_eq=dense(circulation), b_eq=[0.0] * g.n,
                        bounds=[(0, None)] * g.m, method="highs")
    assert ref.status == 0
    assert abs(ref.fun - float(primal.objective)) <= 1e-9 * float(primal.objective)
