"""Differential tests of the Held-Karp oracle against two references.

The first is brute force: the metric closure in `Fraction`s, then every
Hamiltonian order of the vertices, vertex 0 first.  The second is the
oracle's earlier dynamic program, kept here as it was: a closure with
`None` for "unreachable" and, for each vertex set, a row over the gathered
members of the set.  `held_karp_opt` must agree with both on the optimum,
and with the second on which digraphs are refused as not strongly
connected.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional

import pytest

from atsp_approx.errors import InfeasibleInstanceError
from atsp_approx.graph import Digraph, integer_edges
from atsp_approx.harness import held_karp_opt

F = Fraction


def brute_force_opt(g: Digraph) -> Fraction:
    """The cheapest Hamiltonian cycle of the metric closure, over every
    order of the vertices."""
    n = g.n
    dist: list[list[Optional[Fraction]]] = [[None] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = F(0)
    for e in g.edges:
        if dist[e.tail][e.head] is None or e.cost < dist[e.tail][e.head]:
            dist[e.tail][e.head] = e.cost
    for mid in range(n):
        for a in range(n):
            for b in range(n):
                if dist[a][mid] is not None and dist[mid][b] is not None:
                    cand = dist[a][mid] + dist[mid][b]
                    if dist[a][b] is None or cand < dist[a][b]:
                        dist[a][b] = cand
    best = None
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        total = sum(dist[order[i]][order[(i + 1) % n]] for i in range(n))
        if best is None or total < best:
            best = total
    return best


def reference_held_karp(g: Digraph) -> Fraction:
    """The dynamic program `held_karp_opt` ran before its rows were padded."""
    n = g.n
    if n == 1:
        return F(0)
    dist: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for e, cost in zip(g.edges, g.cost_num):
        cur = dist[e.tail][e.head]
        if cur is None or cost < cur:
            dist[e.tail][e.head] = cost
    for mid in range(n):
        for a in range(n):
            via = dist[a][mid]
            if via is None:
                continue
            row = dist[mid]
            for b in range(n):
                if row[b] is None:
                    continue
                cand = via + row[b]
                if dist[a][b] is None or cand < dist[a][b]:
                    dist[a][b] = cand
    if any(dist[a][b] is None for a in range(n) for b in range(n)):
        raise InfeasibleInstanceError("graph is not strongly connected")
    k = n - 1
    full = 1 << k
    into = [[dist[i + 1][j + 1] for i in range(k)] for j in range(k)]
    dp = [[0] * k for _ in range(full)]
    for j in range(k):
        dp[1 << j][j] = dist[0][j + 1]
    for mask in range(3, full):
        if not mask & (mask - 1):
            continue
        members = [i for i in range(k) if mask >> i & 1]
        row = dp[mask]
        for j in members:
            prev = dp[mask ^ (1 << j)]
            col = into[j]
            row[j] = min([prev[i] + col[i] for i in members if i != j])
    last = dp[full - 1]
    return F(min(last[j] + dist[j + 1][0] for j in range(k)), g.cost_den)


def test_complete_digraphs_with_the_benchmark_costs_match_brute_force():
    # the dense-oracle workload's shape: complete, integer costs 1-100
    rng = random.Random(19)
    for n in (7, 7, 8, 8):
        g = Digraph(n, [(i, j, rng.randint(1, 100))
                        for i in range(n) for j in range(n) if i != j])
        assert held_karp_opt(g) == brute_force_opt(g)


def test_rational_costs_parallel_and_zero_cost_arcs_match_brute_force():
    rng = random.Random(20)
    for _ in range(40):
        n = rng.randint(2, 6)
        perm = list(range(n))
        rng.shuffle(perm)
        pairs = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
        pairs += pairs[:n]  # parallel arcs
        edges = [(u, v, F(rng.choice([0, 0, 1, 3, 7, 12]), rng.choice([1, 2, 3, 5])))
                 for u, v in pairs if u != v]
        g = Digraph(n, *integer_edges(edges))
        assert held_karp_opt(g) == brute_force_opt(g)


def test_an_optimum_dearer_than_all_arcs_together():
    # every petal 2..5 hangs off the one arc 0 -> 1, so the optimal closed
    # walk takes that arc once per petal: 4 * 102, against 100 + 8 for all
    # the arcs together, the closure's "unreachable" less one
    g = Digraph(6, [(0, 1, 100)] + [(1, x, 1) for x in range(2, 6)]
                + [(x, 0, 1) for x in range(2, 6)])
    assert held_karp_opt(g) == brute_force_opt(g) == 408


def _random_digraph(rng: random.Random, n: int) -> Digraph:
    """Arcs drawn independently, so some digraphs are not strongly
    connected; costs are rational, zero and parallel arcs included."""
    p = rng.choice([0.2, 0.4, 0.7, 1.0])
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                for _ in range(rng.choice([1, 1, 1, 2])):
                    edges.append((u, v, F(rng.randint(0, 40), rng.choice([1, 1, 2, 3, 7]))))
    return Digraph(n, *integer_edges(edges))


def test_matches_the_previous_dynamic_program_on_random_digraphs():
    rng = random.Random(21)
    sizes = [1, 2] * 10 + [rng.randint(1, 11) for _ in range(200)]
    seen = set()
    for n in sizes:
        g = _random_digraph(rng, n)
        try:
            expected = reference_held_karp(g)
        except InfeasibleInstanceError:
            seen.add((n, "refused"))
            with pytest.raises(InfeasibleInstanceError):
                held_karp_opt(g)
            continue
        seen.add((n, "solved"))
        assert held_karp_opt(g) == expected, (n, g.edges)
    # both outcomes are reached at every size from 2 up
    assert seen >= {(n, outcome) for n in range(2, 12) for outcome in ("refused", "solved")}
