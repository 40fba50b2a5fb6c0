"""Differential tests of the Held-Karp oracle against two references.

The first is brute force: the metric closure in `Fraction`s, then every
Hamiltonian order of the vertices, vertex 0 first.  The second is the
oracle's earlier dynamic program, kept here as it was: an integer closure
with a sentinel for "unreachable", and a row for every vertex set, padded
above any path cost, with no reduced costs and no incumbent.
`held_karp_opt` must agree with both on the optimum, whatever incumbent it
is given, and with the second on which digraphs are refused as not
strongly connected.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from operator import add
from typing import Optional

import pytest

from atsp_approx import harness
from atsp_approx.errors import InfeasibleInstanceError
from atsp_approx.graph import Digraph, integer_edges
from atsp_approx.harness import held_karp_opt

F = Fraction


def closure(g: Digraph) -> list[list[Optional[Fraction]]]:
    """Shortest path costs in `Fraction`s, None where there is no path."""
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
    return dist


def brute_force_opt(g: Digraph) -> Fraction:
    """The cheapest Hamiltonian cycle of the metric closure, over every
    order of the vertices."""
    n = g.n
    dist = closure(g)
    best = None
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        total = sum(dist[order[i]][order[(i + 1) % n]] for i in range(n))
        if best is None or total < best:
            best = total
    return best


def reference_held_karp(g: Digraph) -> Fraction:
    """The dynamic program `held_karp_opt` ran before it took an incumbent:
    every vertex set, every row kept."""
    n = g.n
    if n == 1:
        return F(0)
    unreachable = sum(g.cost_num) + 1
    dist = [[unreachable] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for e, cost in zip(g.edges, g.cost_num):
        row = dist[e.tail]
        if cost < row[e.head]:
            row[e.head] = cost
    for mid in range(n):
        through = dist[mid]
        for row in dist:
            via = row[mid]
            if via < unreachable:
                for b, step in enumerate(through):
                    cand = via + step
                    if cand < row[b]:
                        row[b] = cand
    if any(unreachable in row for row in dist):
        raise InfeasibleInstanceError("graph is not strongly connected")
    k = n - 1
    full = 1 << k
    pad = k * unreachable
    into = [(j, 1 << j, [dist[i + 1][j + 1] for i in range(k)]) for j in range(k)]
    dp: list[list[int]] = [[]] * full
    for j in range(k):
        row = [pad] * k
        row[j] = dist[0][j + 1]
        dp[1 << j] = row
    for mask in range(3, full):
        if mask & (mask - 1):
            row = [pad] * k
            for j, bit, col in into:
                if mask & bit:
                    row[j] = min(map(add, dp[mask ^ bit], col))
            dp[mask] = row
    last = dp[full - 1]
    return F(min(last[j] + dist[j + 1][0] for j in range(k)), g.cost_den)


def _complete_digraphs() -> list[Digraph]:
    """The dense-oracle workload's shape: complete, integer costs 1-100."""
    rng = random.Random(19)
    return [Digraph(n, [(i, j, rng.randint(1, 100))
                        for i in range(n) for j in range(n) if i != j])
            for n in (7, 7, 8, 8)]


def test_complete_digraphs_with_the_benchmark_costs_match_brute_force():
    for g in _complete_digraphs():
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


def _seeded_digraphs() -> list[Digraph]:
    rng = random.Random(21)
    sizes = [1, 2] * 10 + [rng.randint(1, 11) for _ in range(200)]
    return [_random_digraph(rng, n) for n in sizes]


def test_matches_the_previous_dynamic_program_on_random_digraphs():
    seen = set()
    for g in _seeded_digraphs():
        n = g.n
        try:
            expected = reference_held_karp(g)
        except InfeasibleInstanceError:
            seen.add((n, "refused"))
            for incumbent in (None, F(0), F(10 ** 6)):
                with pytest.raises(InfeasibleInstanceError):
                    held_karp_opt(g, incumbent)
            continue
        seen.add((n, "solved"))
        assert held_karp_opt(g) == expected, (n, g.edges)
    # both outcomes are reached at every size from 2 up
    assert seen >= {(n, outcome) for n in range(2, 12) for outcome in ("refused", "solved")}


def _searches(monkeypatch) -> list[Optional[int]]:
    """What each bounded search of `held_karp_opt` returns, in call order."""
    found: list[Optional[int]] = []
    search = harness._cheapest_reduced_tour

    def recorded(*args):
        found.append(search(*args))
        return found[-1]

    monkeypatch.setattr(harness, "_cheapest_reduced_tour", recorded)
    return found


def _solved_cases() -> list[tuple[Digraph, Fraction]]:
    """(digraph, optimum) over the complete and the seeded digraphs that
    are strongly connected, each optimum from a reference."""
    cases = [(g, brute_force_opt(g)) for g in _complete_digraphs()]
    for g in _seeded_digraphs():
        try:
            cases.append((g, reference_held_karp(g)))
        except InfeasibleInstanceError:
            pass
    return cases


def test_any_incumbent_at_or_above_the_optimum_gives_the_optimum(monkeypatch):
    # none, the optimum itself, one unit of the cost denominator above it,
    # and the tour 0 -> 1 -> ... -> n-1 -> 0 in the closure: each is found
    # by one search, with no rerun
    found = _searches(monkeypatch)
    for g, opt in _solved_cases():
        dist = closure(g)
        trivial = sum((dist[v][(v + 1) % g.n] for v in range(g.n)), F(0))
        for incumbent in (None, opt, opt + F(1, g.cost_den), trivial):
            found.clear()
            assert held_karp_opt(g, incumbent) == opt, (g.n, g.edges, incumbent)
            assert len(found) == (g.n > 1) and None not in found


def test_an_incumbent_below_the_optimum_fails_the_bounded_search(monkeypatch):
    # the search under the incumbent finds no tour, and the rerun with no
    # limit returns the optimum, so the result stays above the incumbent
    found = _searches(monkeypatch)
    for g, opt in _solved_cases():
        if g.n == 1:
            continue
        found.clear()
        incumbent = opt - F(1, g.cost_den)
        assert held_karp_opt(g, incumbent) == opt > incumbent, (g.n, g.edges)
        assert len(found) == 2 and found[0] is None and found[1] is not None
