from __future__ import annotations

import heapq
import random
from fractions import Fraction
from math import lcm

import pytest

from atsp_approx.errors import ContractViolation
from atsp_approx.flows import CirculationProblem, FlowNetwork, max_flow_min_cut

F = Fraction


def network(n, arcs):
    """A network of the arcs, with their Fraction capacities as numerators
    over the lcm of their denominators; returns it and that lcm."""
    scale = 1
    for _, _, c in arcs:
        scale = lcm(scale, c.denominator)
    net = FlowNetwork(n)
    for u, v, c in arcs:
        net.add_arc(u, v, c.numerator * (scale // c.denominator))
    return net, scale


def max_flow(n, arcs, s, t):
    net, scale = network(n, arcs)
    value, side = max_flow_min_cut(net, s, t)
    assert isinstance(value, int)
    return Fraction(value, scale), side


def test_max_flow_simple_path():
    value, side = max_flow(3, [(0, 1, F(2)), (1, 2, F(1))], 0, 2)
    assert value == 1
    assert side == frozenset({0, 1})


def test_max_flow_rational_capacities():
    arcs = [(0, 1, F(1, 2)), (0, 2, F(1, 3)), (1, 3, F(1, 4)), (2, 3, F(1)), (1, 2, F(2))]
    value, side = max_flow(4, arcs, 0, 3)
    assert value == F(1, 2) + F(1, 3)
    assert 0 in side and 3 not in side
    # cut capacity equals flow value
    cut = sum(c for (u, v, c) in arcs if u in side and v not in side)
    assert cut == value


def test_max_flow_disconnected():
    value, side = max_flow(4, [(0, 1, F(1)), (2, 3, F(1))], 0, 3)
    assert value == 0
    assert side == frozenset({0, 1})


def test_network_rejects_negative_capacity_and_equal_terminals():
    net = FlowNetwork(2)
    with pytest.raises(ContractViolation):
        net.add_arc(0, 1, -1)
    assert not net.head
    with pytest.raises(ContractViolation):
        max_flow_min_cut(net, 1, 1)


def test_max_flow_matches_brute_force_cuts():
    # every sink runs on the same network: a call leaves its capacities as
    # they were
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 6)
        arcs = []
        for _ in range(rng.randint(1, 12)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.append((u, v, F(rng.randint(0, 6), rng.choice([1, 2, 3]))))
        net, scale = network(n, arcs)
        s = 0
        for t in range(1, n):
            value, side = max_flow_min_cut(net, s, t)
            value = F(value, scale)
            best = None
            for mask in range(1 << n):
                if not (mask >> s) & 1 or (mask >> t) & 1:
                    continue
                cut = sum(c for (u, v, c) in arcs if (mask >> u) & 1 and not (mask >> v) & 1)
                best = cut if best is None else min(best, cut)
            assert value == best
            cut_val = sum(c for (u, v, c) in arcs if u in side and v not in side)
            assert cut_val == value


def test_max_flow_mixed_denominators_against_brute_force():
    # capacities with denominators up to 12 are scaled to integers over
    # their lcm; the value over that lcm must be the exact Fraction min cut,
    # and the side must be the smallest minimum cut: the intersection of all
    # min-cut source sides
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 7)
        arcs = []
        for _ in range(rng.randint(1, 16)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.append((u, v, F(rng.randint(0, 9), rng.randint(1, 12))))
        s, t = 0, n - 1
        value, side = max_flow(n, arcs, s, t)
        best, sides = None, []
        for mask in range(1 << n):
            if not (mask >> s) & 1 or (mask >> t) & 1:
                continue
            cut = sum((c for (u, v, c) in arcs
                       if (mask >> u) & 1 and not (mask >> v) & 1), F(0))
            if best is None or cut < best:
                best, sides = cut, []
            if cut == best:
                sides.append(frozenset(w for w in range(n) if (mask >> w) & 1))
        assert isinstance(value, Fraction) and value == best
        assert side == frozenset.intersection(*sides)


def test_circulation_forces_lower_bounds():
    prob = CirculationProblem(3)
    a = prob.add_arc(0, 1, 1, 1, 0)
    b = prob.add_arc(1, 2, 0, 5, 2)
    c = prob.add_arc(2, 0, 0, 5, 1)
    d = prob.add_arc(1, 0, 0, 5, 10)
    flows = prob.solve()
    assert flows is not None
    assert flows[a] == 1 and flows[b] == 1 and flows[c] == 1 and flows[d] == 0


def test_circulation_infeasible():
    prob = CirculationProblem(2)
    prob.add_arc(0, 1, 2, 3, 1)  # nothing can return
    assert prob.solve() is None


def test_circulation_prefers_cheap_return():
    prob = CirculationProblem(4)
    a = prob.add_arc(0, 1, 2, 2, 0)
    cheap1 = prob.add_arc(1, 2, 0, 1, 1)
    cheap2 = prob.add_arc(2, 0, 0, 2, 0)
    expensive = prob.add_arc(1, 0, 0, 2, 5)
    mid = prob.add_arc(1, 2, 0, 2, 3)
    flows = prob.solve()
    assert flows is not None
    # 2 units forced out of 0; best return: 1 via cost-1 arc, 1 via cost-3 arc
    assert flows[a] == 2
    assert flows[cheap1] == 1 and flows[mid] == 1 and flows[cheap2] == 2
    assert flows[expensive] == 0


@pytest.mark.parametrize("cost", [F(1), F(1, 2), 1.0, True, False])
def test_circulation_rejects_non_int_costs(cost):
    # costs and bounds are integer numerators over a denominator the caller
    # chose; a Fraction, a float or a bool is refused rather than mixed in,
    # as a cost, a lower bound or an upper bound, and nothing is stored
    for lower, upper, c in ((0, 1, cost), (cost, 2, 0), (0, cost, 0)):
        prob = CirculationProblem(2)
        with pytest.raises(ContractViolation):
            prob.add_arc(0, 1, lower, upper, c)
        assert not (prob.lower or prob.upper or prob.cost or prob.network.head)


def test_circulation_refuses_negative_cost_in_add_arc():
    prob = CirculationProblem(2)
    with pytest.raises(ContractViolation):
        prob.add_arc(0, 1, 0, 1, -1)
    assert not (prob.cost or prob.network.head)


def test_circulation_arcs_share_the_max_flow_layout():
    # arc i is residual arcs 2i and 2i + 1 of the network; the supply and
    # demand arcs of the lower-bound transformation come after them
    prob = CirculationProblem(3)
    a = prob.add_arc(0, 1, 1, 3, 2)
    b = prob.add_arc(1, 2, 0, 4, 1)
    prob.add_arc(2, 0, 0, 4, 0)
    net = prob.network
    assert (a, b) == (0, 1)
    assert net.head[:6] == [1, 0, 2, 1, 0, 2]
    assert net.capacity[:6] == [2, 0, 4, 0, 4, 0]
    assert prob.solve() == [1, 1, 1]
    # in vertex order: vertex 0's demand arc to the sink 4, then vertex 1's
    # supply arc from the source 3
    assert net.head[6:] == [4, 0, 1, 3]
    assert max_flow_min_cut(net, 3, 4)[0] == 0  # the supply was shipped


def test_circulation_is_solved_once():
    prob = CirculationProblem(2)
    prob.add_arc(0, 1, 1, 1, 0)
    prob.add_arc(1, 0, 0, 1, 0)
    assert prob.solve() == [1, 1]
    with pytest.raises(ContractViolation):
        prob.solve()


def test_circulation_min_cost_against_enumeration():
    # small costs make ties common; costs up to 10**6 check that nothing
    # depends on their size
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(2, 5)
        prob = CirculationProblem(n)
        arcs = []
        for _ in range(rng.randint(2, 7)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            lo = rng.randint(0, 1)
            hi = lo + rng.randint(0, 2)
            cost = rng.choice([rng.randint(0, 5), rng.randint(0, 10 ** 6)])
            arcs.append((u, v, lo, hi, cost))
            prob.add_arc(u, v, lo, hi, cost)
        flows = prob.solve()
        # brute-force all integral flow vectors within bounds
        best = None
        ranges = [range(lo, hi + 1) for (_, _, lo, hi, _) in arcs]

        def rec(idx, balance, cost):
            nonlocal best
            if idx == len(arcs):
                if all(b == 0 for b in balance):
                    best = cost if best is None else min(best, cost)
                return
            u, v, _, _, c = arcs[idx]
            for f in ranges[idx]:
                balance[u] -= f
                balance[v] += f
                rec(idx + 1, balance, cost + c * f)
                balance[u] += f
                balance[v] -= f

        rec(0, [0] * n, 0)
        if best is None:
            assert flows is None
        else:
            assert flows is not None
            got = sum(c * f for (_, _, _, _, c), f in zip(arcs, flows))
            assert got == best


def test_max_flow_limit_agrees_with_the_full_flow():
    # a flow stopped at the limit tells, as the full one does, whether the
    # maximum reaches it; below the limit it is the full flow, side included
    rng = random.Random(17)
    stopped = below = 0
    for _ in range(300):
        n = rng.randint(2, 7)
        net = FlowNetwork(n)
        for _ in range(rng.randint(1, 18)):
            u, v = rng.sample(range(n), 2)
            net.add_arc(u, v, rng.randint(0, 12))
        s, t = rng.sample(range(n), 2)
        value, side = max_flow_min_cut(net, s, t)
        limit = rng.randint(0, value + 3)
        got, got_side = max_flow_min_cut(net, s, t, limit)
        assert (got >= limit) == (value >= limit)
        if value < limit:
            assert (got, got_side) == (value, side)
            below += 1
        else:
            assert limit <= got <= value and got_side == frozenset()
            stopped += 1
    assert stopped and below


def reference_circulation(n, arcs):
    """Per-arc flows of a minimum-cost circulation, or None: successive
    shortest paths whose every Dijkstra search settles all it can reach,
    on a network of its own.  `arcs` are (tail, head, lower, upper, cost)."""
    head, residual, out = [], [], [[] for _ in range(n + 2)]

    def add(u, v, cap):
        out[u].append(len(head))
        head.append(v)
        residual.append(cap)
        out[v].append(len(head))
        head.append(u)
        residual.append(0)

    excess = [0] * n
    for u, v, lo, hi, _ in arcs:
        add(u, v, hi - lo)
        excess[u] -= lo
        excess[v] += lo
    src, snk = n, n + 1
    supply = 0
    for v in range(n):
        if excess[v] > 0:
            add(src, v, excess[v])
            supply += excess[v]
        elif excess[v] < 0:
            add(v, snk, -excess[v])
    rcost = [c for *_, cost in arcs for c in (cost, -cost)]
    rcost += [0] * (len(head) - len(rcost))
    potential = [0] * (n + 2)
    shipped = 0
    while shipped < supply:
        dist = [None] * (n + 2)
        prev = [-1] * (n + 2)
        dist[src] = 0
        heap = [(0, src)]
        done = [False] * (n + 2)
        while heap:
            d, v = heapq.heappop(heap)
            if done[v]:
                continue
            done[v] = True
            for a in out[v]:
                if residual[a] > 0:
                    w = head[a]
                    nd = d + rcost[a] + potential[v] - potential[w]
                    if dist[w] is None or nd < dist[w]:
                        dist[w], prev[w] = nd, a
                        heapq.heappush(heap, (nd, w))
        if not done[snk]:
            return None
        for v in range(n + 2):
            if dist[v] is not None:
                potential[v] += dist[v]
        push, v = supply - shipped, snk
        while v != src:
            push = min(push, residual[prev[v]])
            v = head[prev[v] ^ 1]
        v = snk
        while v != src:
            residual[prev[v]] -= push
            residual[prev[v] ^ 1] += push
            v = head[prev[v] ^ 1]
        shipped += push
    return [lo + residual[2 * i + 1] for i, (_, _, lo, _, _) in enumerate(arcs)]


def test_circulation_stopped_at_the_sink_matches_the_full_search():
    # costs 0-2 on up to 40 arcs make equal-cost shortest paths common, so
    # the early stop meets many ties; the optimal cost and feasibility must
    # agree with the search that settles every reachable vertex
    rng = random.Random(31)
    feasible = 0
    for _ in range(400):
        n = rng.randint(2, 10)
        arcs = []
        for _ in range(rng.randint(2, 40)):
            u, v = rng.sample(range(n), 2)
            lo = rng.choice([0, 0, 1, 2])
            arcs.append((u, v, lo, lo + rng.randint(0, 3), rng.randint(0, 2)))
        prob = CirculationProblem(n)
        for arc in arcs:
            prob.add_arc(*arc)
        flows = prob.solve()
        expected = reference_circulation(n, arcs)
        assert (flows is None) == (expected is None)
        if flows is None:
            continue
        feasible += 1

        def total(fs):
            return sum(arc[4] * f for arc, f in zip(arcs, fs))

        assert total(flows) == total(expected)
    assert feasible >= 100
