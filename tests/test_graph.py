from __future__ import annotations

import random
from fractions import Fraction

import pytest

from atsp_approx.checks import Checker
from atsp_approx.cover import _support_acyclic
from atsp_approx.errors import ContractViolation, InputError, InternalCheckError
from atsp_approx.graph import (
    Digraph,
    EdgeMultiset,
    LaminarFamily,
    check_laminar,
    contract,
    euler_walk,
    integer_edges,
    is_eulerian_connected,
    scc_successors,
    scc_topological,
    undirected_components,
    vertex_balance,
)
from fixtures import c3, k2, two_tri

F = Fraction


def test_digraph_rejects_bad_edges():
    with pytest.raises(InputError):
        Digraph(2, [(0, 0, 1)])
    with pytest.raises(InputError):
        Digraph(2, [(0, 2, 1)])
    with pytest.raises(InputError):
        Digraph(2, [(0, 1, -1)])
    with pytest.raises(InputError):
        Digraph(2, [(-1, 1, 1)])
    # a cost numerator is an int and nothing else, not even an integral one
    for cost in (True, False, 1.0, 2.5, F(1), F(1, 2), "1", None):
        with pytest.raises(InputError, match="not an int"):
            Digraph(2, [(0, 1, 1), (1, 0, cost)])
    for den in (0, -3, True, 2.0, F(2), None):
        with pytest.raises(InputError, match="cost denominator"):
            Digraph(2, [(0, 1, 1), (1, 0, 1)], den)
    with pytest.raises(InputError, match="negative cost -1/3"):
        Digraph(2, [(0, 1, 1), (1, 0, -1)], 3)


def test_edge_cost_is_the_numerator_over_the_denominator():
    g = Digraph(3, [(0, 1, 3), (1, 2, 0), (2, 0, 6)], 4)
    assert g.cost_num == (3, 0, 6) and g.cost_den == 4
    assert [e.cost for e in g.edges] == [F(3, 4), F(0), F(3, 2)]
    assert g.edges[2] == (2, 2, 0, 6, 4) and g.edges[2].cost_num == 6
    assert integer_edges([(0, 1, F(1, 2)), (1, 0, 3), (1, 2, F(5, 6))]) == (
        [(0, 1, 3), (1, 0, 18), (1, 2, 5)], 6)
    assert integer_edges([]) == ([], 1)


def test_edge_ids_outside_the_graph_are_refused():
    g = c3()
    f = EdgeMultiset(g)
    for eid in (-1, -g.m, g.m):
        with pytest.raises(InputError, match=f"unknown edge id {eid}"):
            g.edge(eid)
        with pytest.raises(InputError, match=f"unknown edge id {eid}"):
            EdgeMultiset(g, {eid: 1})
        with pytest.raises(InputError, match=f"unknown edge id {eid}"):
            f.add(eid)  # refused when added, not when first read
    assert not f
    assert EdgeMultiset(g, {g.m - 1: 2}).cost() == 2 * g.edges[-1].cost


def test_edge_multisets_of_two_graphs_neither_combine_nor_compare_equal():
    g, twin = c3(), c3()
    f = EdgeMultiset(g, {0: 1, 1: 2})
    assert f == EdgeMultiset(g, {1: 2, 0: 1})
    assert f != EdgeMultiset(twin, {0: 1, 1: 2})  # the same multiplicities
    with pytest.raises(ContractViolation, match="two graphs"):
        f.union(EdgeMultiset(twin, {2: 1}))
    assert f.union(EdgeMultiset(g, {2: 1})) == EdgeMultiset(g, {0: 1, 1: 2, 2: 1})


def test_eulerian_connected_on_triangle():
    g = c3()
    ok, comps = is_eulerian_connected(EdgeMultiset(g, {0: 1, 1: 1, 2: 1}))
    assert ok
    assert comps == [frozenset({0, 1, 2})]


def test_eulerian_fails_on_single_arc():
    g = c3()
    ok, comps = is_eulerian_connected(EdgeMultiset(g, {0: 1}))
    assert not ok
    assert comps == [frozenset({0, 1}), frozenset({2})]


def test_eulerian_two_components():
    g = two_tri()
    ok, comps = is_eulerian_connected(EdgeMultiset(g, dict.fromkeys(range(6), 1)))
    assert ok
    assert comps == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]


def test_undirected_components_within():
    g = two_tri()
    support = [1, 3, 6]  # (1,2), (3,4) and the joiner (0,3)
    assert undirected_components(g, support) == [
        frozenset({0, 3, 4}), frozenset({1, 2}), frozenset({5})]
    # the joiner leaves the window and is ignored; 5 stays a singleton
    assert undirected_components(g, support, within={1, 2, 3, 4, 5}) == [
        frozenset({1, 2}), frozenset({3, 4}), frozenset({5})]


def test_edge_multiset_components_ordered_by_smallest_vertex():
    g = two_tri()
    f = EdgeMultiset(g, {4: 1, 3: 1, 1: 2})  # (4,5), (3,4), and (1,2) twice
    comps = f.components()
    assert [comp for comp, _ in comps] == [frozenset({1, 2}), frozenset({3, 4, 5})]
    assert [edges for _, edges in comps] == [EdgeMultiset(g, {1: 2}),
                                             EdgeMultiset(g, {3: 1, 4: 1})]
    assert EdgeMultiset(g).components() == []


def _bfs_components(n, pairs, within):
    """Reference: breadth-first search over the undirected support."""
    adj = {v: set() for v in within}
    for a, b in pairs:
        if a in adj and b in adj:
            adj[a].add(b)
            adj[b].add(a)
    seen, comps = set(), []
    for v in sorted(within):
        if v in seen:
            continue
        comp, queue = {v}, [v]
        for u in queue:
            for w in adj[u] - comp:
                comp.add(w)
                queue.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def test_components_match_breadth_first_search_on_random_multigraphs():
    rng = random.Random(11)
    for trial in range(300):
        n = rng.randint(1, 12)
        edges = []
        if n > 1:
            for _ in range(rng.randint(0, 2 * n)):
                u, v = rng.sample(range(n), 2)
                edges += [(u, v, 1)] * rng.choice([1, 1, 2])  # parallel edges too
        g = Digraph(n, edges)
        support = [eid for eid in range(g.m) if rng.random() < 0.6]
        pairs = [(g.edges[eid].tail, g.edges[eid].head) for eid in support]
        within = frozenset(v for v in range(n) if rng.random() < 0.7)
        for verts in (None, within):
            got = undirected_components(g, support, verts)
            want = _bfs_components(n, pairs, range(n) if verts is None else verts)
            assert got == want, trial
            assert [min(c) for c in got] == sorted(min(c) for c in got)
        f = EdgeMultiset(g, {eid: rng.randint(1, 3) for eid in support})
        parts = f.components()
        assert [comp for comp, _ in parts] == [c for c in _bfs_components(n, pairs, range(n))
                                               if len(c) > 1]
        assert sum(len(part) for _, part in parts) == len(f)
        for comp, part in parts:
            assert part == f.restrict_to(comp)
    empty = Digraph(4, [(0, 1, 1), (1, 0, 1)])
    assert undirected_components(empty, []) == [frozenset({v}) for v in range(4)]
    assert undirected_components(empty, [], within=set()) == []
    assert EdgeMultiset(empty).components() == []


def test_checker_balanced_counts_per_vertex():
    g = c3()
    checker = Checker()
    checker.balanced(EdgeMultiset(g, {0: 1, 1: 1, 2: 1}), "touched")
    checker.balanced(EdgeMultiset(g), "untouched")
    checker.balanced(EdgeMultiset(g), "listed", range(g.n))
    assert checker.counters == {"touched": 3, "listed": 3}
    with pytest.raises(InternalCheckError) as info:
        checker.balanced(EdgeMultiset(g, {0: 1}), "one-arc")
    assert info.value.label == "one-arc"


def test_support_acyclic_detects_cycles():
    g = two_tri()
    assert _support_acyclic(g, [0, 1, 6])  # 0->1->2 and 0->3
    assert not _support_acyclic(g, [0, 1, 2])  # the triangle 0->1->2->0
    assert not _support_acyclic(g, [6, 7])  # 0->3->0
    n = 3000  # deeper than the interpreter's recursion limit
    path = Digraph(n, [(i, i + 1, 1) for i in range(n - 1)])
    assert _support_acyclic(path, list(range(n - 1)))


def _random_multigraph(rng: random.Random, n: int) -> Digraph:
    """Random arcs plus, now and then, a parallel or antiparallel copy of
    one already drawn."""
    arcs: list[tuple[int, int, int]] = []
    for _ in range(rng.randint(0, 3 * n) if n > 1 else 0):
        if arcs and rng.random() < 0.3:
            t, h, _ = rng.choice(arcs)
            arcs.append((t, h, 1) if rng.random() < 0.5 else (h, t, 1))
        else:
            t, h = rng.sample(range(n), 2)
            arcs.append((t, h, 1))
    return Digraph(n, arcs)


def test_support_acyclic_agrees_with_the_scc_definition_on_random_multigraphs():
    # Kahn's algorithm against "every strongly connected component of the
    # support is one vertex", on supports that are empty, acyclic or not
    rng = random.Random(13)
    seen = {True: 0, False: 0}
    for _ in range(400):
        g = _random_multigraph(rng, rng.randint(2, 8))
        support = [eid for eid in range(g.m) if rng.random() < rng.choice((0, 0.3, 0.7, 1))]
        succ: dict[int, list[int]] = {}
        for eid in support:
            succ.setdefault(g.edges[eid].tail, []).append(g.edges[eid].head)
            succ.setdefault(g.edges[eid].head, [])
        expected = all(len(comp) == 1 for comp in scc_successors(succ, succ))
        assert _support_acyclic(g, support) == expected, (g.edges, support)
        seen[expected] += 1
    assert min(seen.values()) > 50


def test_vertex_balance_matches_per_vertex_sums_on_random_multigraphs():
    rng = random.Random(17)
    for _ in range(200):
        g = _random_multigraph(rng, rng.randint(1, 8))
        flow = [rng.choice((0, 0, 1, 2, 7)) for _ in range(g.m)]
        inflow, outflow = vertex_balance(g, flow)
        assert inflow == [sum(flow[eid] for eid in g.in_edges[v]) for v in range(g.n)]
        assert outflow == [sum(flow[eid] for eid in g.out_edges[v]) for v in range(g.n)]
    fractions = [F(1, 3), F(2, 3)]
    assert vertex_balance(k2(), fractions) == ([F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)])


def test_euler_walk_triangle():
    g = c3()
    walk = euler_walk(EdgeMultiset(g, {0: 1, 1: 1, 2: 1}), 0)
    assert walk == [0, 1, 2]


def test_euler_walk_doubled_two_cycle():
    g = k2()
    walk = euler_walk(EdgeMultiset(g, {0: 2, 1: 2}), 0)
    assert len(walk) == 4
    # replay: consumes each arc exactly twice and alternates endpoints
    v = 0
    used = {0: 0, 1: 0}
    for eid in walk:
        e = g.edge(eid)
        assert e.tail == v
        v = e.head
        used[eid] += 1
    assert v == 0 and used == {0: 2, 1: 2}


def test_euler_walk_two_tri_with_joiners():
    g = two_tri()
    f = EdgeMultiset(g, dict.fromkeys(range(8), 1))
    walk = euler_walk(f, 0)
    assert len(walk) == 8
    replay = EdgeMultiset(g)
    v = 0
    for eid in walk:
        e = g.edge(eid)
        assert e.tail == v
        v = e.head
        replay.add(eid)
    assert v == 0 and replay == f


def test_euler_walk_rejects_disconnected():
    g = two_tri()
    with pytest.raises(ContractViolation, match="support of the multiset is not connected"):
        euler_walk(EdgeMultiset(g, dict.fromkeys(range(6), 1)), 0)


def test_euler_walk_replay_random_multisets():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 7)
        edges = []
        for i in range(n):
            edges.append((i, (i + 1) % n, 1))
        for _ in range(rng.randint(0, 10)):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v:
                edges.append((u, v, 1))
        g = Digraph(n, edges)
        # random Eulerian multiset: sum of directed cycles found by walking
        f = EdgeMultiset(g)
        for _ in range(rng.randint(1, 4)):
            start = rng.randrange(n)
            v, trail = start, []
            for _ in range(4 * n):
                eid = rng.choice(g.out_edges[v])
                trail.append(eid)
                v = g.edge(eid).head
                if v == start:
                    break
            else:
                continue
            for eid in trail:
                f.add(eid)
        ok, comps = is_eulerian_connected(f)
        assert ok
        if not f or len([c for c in comps if len(c) > 1 or f.restrict_to(c)]) > 1:
            continue
        start = min(f.vertices())
        walk = euler_walk(f, start)
        replay = EdgeMultiset(g)
        v = start
        for eid in walk:
            e = g.edge(eid)
            assert e.tail == v
            v = e.head
            replay.add(eid)
        assert v == start and replay == f


def test_scc_topological_strongly_connected():
    assert scc_topological(c3()) == [frozenset({0, 1, 2})]


def test_scc_topological_path():
    g = Digraph(3, [(0, 1, 1), (1, 2, 1)])
    assert scc_topological(g) == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_scc_topological_one_way_bridge():
    g = two_tri()
    edges = [(e.tail, e.head, e.cost_num) for e in g.edges if (e.tail, e.head) != (3, 0)]
    g2 = Digraph(6, edges)
    assert scc_topological(g2) == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]


def test_scc_topological_edge_direction_property():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 8)
        edges = []
        for _ in range(rng.randint(1, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, 1))
        g = Digraph(n, edges)
        restrict = frozenset(v for v in range(n) if rng.random() < 0.8)
        if not restrict:
            continue
        order = scc_topological(g, restrict)
        pos = {}
        for i, comp in enumerate(order):
            for v in comp:
                pos[v] = i
        assert set(pos) == set(restrict)
        for e in g.edges:
            if e.tail in restrict and e.head in restrict:
                assert pos[e.tail] <= pos[e.head]


def test_scc_successors_matches_mutual_reachability():
    # successor lists with repeats and heads outside the vertex set, which
    # must be ignored, against components found by reachability alone
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 8)
        succ = {v: [rng.randrange(n + 2) for _ in range(rng.randint(0, 4))]
                for v in range(n + 2)}
        verts = {v for v in range(n) if rng.random() < 0.8}
        reach = {v: {v} for v in verts}
        for _ in range(n):
            for v in verts:
                reach[v] |= {x for w in reach[v] for x in succ[w] if x in verts}
        order = scc_successors(succ, verts)
        assert {v: comp for comp in order for v in comp} == {
            v: frozenset(w for w in verts if v in reach[w] and w in reach[v])
            for v in verts}
        pos = {v: i for i, comp in enumerate(order) for v in comp}
        assert all(pos[v] <= pos[w] for v in verts for w in succ[v] if w in verts)


def test_contract_triangle():
    g = c3()
    child, cmap = contract(g, [frozenset({1, 2})])
    assert child.n == 2
    assert sorted((e.tail, e.head) for e in child.edges) == [(0, 1), (1, 0)]
    origins = {cmap.origin_of(e.eid) for e in child.edges}
    assert origins == {0, 2}  # (0,1) and (2,0) survive; (1,2) is dropped


def test_contract_empty_is_identity():
    g = two_tri()
    child, cmap = contract(g, [])
    assert child.n == g.n and child.m == g.m
    for e in child.edges:
        o = g.edge(cmap.origin_of(e.eid))
        assert (e.tail, e.head, e.cost) == (o.tail, o.head, o.cost)


def test_contract_two_tri_cluster():
    g = two_tri()
    child, cmap = contract(g, [frozenset({3, 4, 5})])
    assert child.n == 4
    c = cmap.child_of(3)
    assert cmap.child_of(4) == c == cmap.child_of(5)
    crossing = sorted((e.tail, e.head) for e in child.edges if c in (e.tail, e.head))
    assert crossing == [(0, c), (c, 0)]
    # cost preserved through the origin map
    for e in child.edges:
        assert e.cost == g.edge(cmap.origin_of(e.eid)).cost


def test_contract_rejects_overlap():
    with pytest.raises(InputError):
        contract(c3(), [frozenset({0, 1}), frozenset({1, 2})])


def test_check_laminar_examples():
    assert check_laminar([frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({3})])
    assert not check_laminar([frozenset({0, 1}), frozenset({1, 2})])
    assert check_laminar([])


@pytest.mark.parametrize("weight", [F(1), 1.0, True, 0, -2])
def test_laminar_family_takes_positive_int_numerators(weight):
    with pytest.raises(ContractViolation):
        LaminarFamily([(frozenset({0, 1}), 2), (frozenset({1}), weight)], 2, 6)


def test_laminar_family_keeps_its_weights_in_least_terms():
    # 4/6 and 2/6 are 2/3 and 1/3; an empty family has denominator 1
    sets = (frozenset({0, 1}), frozenset({1}))
    given = LaminarFamily(zip(sets, (4, 2)), 2, 6)
    reduced = LaminarFamily(zip(sets, (2, 1)), 2, 3)
    assert (given.members, given.weight_num, given.den) == (sets, (2, 1), 3)
    assert (reduced.members, reduced.weight_num, reduced.den) == (sets, (2, 1), 3)
    assert given.weight(frozenset({1})) == F(1, 3)
    assert LaminarFamily([], 1, 6).den == 1


def test_check_laminar_matches_definition_on_random_systems():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 6)
        sets = []
        for _ in range(rng.randint(0, 5)):
            s = frozenset(v for v in range(n) if rng.random() < 0.5)
            if s:
                sets.append(s)
        expect = all(
            a <= b or b <= a or not (a & b)
            for i, a in enumerate(sets)
            for b in sets[i + 1:]
        )
        assert check_laminar(sets) == expect
