"""Differential test of the separation oracle: `lp._separate_all` against
the dict-based Edmonds-Karp it replaced.

`_separate_all` takes x as integer numerators over one unit, here the lcm
of its denominators, shrinks the vertex pairs that x already joins with
weight at least 1, and runs every max-flow on one integer network of the
classes left.  The reference keeps the earlier routine: per terminal, it
scales the `Fraction` capacities again, builds a dict-of-dicts residual
graph of every vertex with parallel arcs merged, and returns a `Fraction`
value that is compared with 1.  Both return the source side reached in the
final residual graph, which is the same for every maximum flow, so on every
x they must return the same cut list, in both `first_only` modes.  The
shrunk routine never makes more max-flow calls than the reference, and
none when x shrinks to one class, which `reference_classes` finds again by
merging classes pairwise in `Fraction`s."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Optional

import pytest

from atsp_approx import lp
from atsp_approx.errors import ContractViolation
from atsp_approx.graph import Digraph
from atsp_approx.harness import GENERATOR_MODELS, gen_instance, run_pipeline
from atsp_approx.rational import common_denominator
from test_determinism import REDUCTION_CASES

F = Fraction


def reference_max_flow_min_cut(n, arcs, source, sink):
    """Maximum s-t flow value and the source side of a minimum cut, on a
    residual graph of dicts with parallel arcs merged."""
    if source == sink:
        raise ContractViolation("source equals sink")
    scale = 1
    for _, _, c in arcs:
        scale = lcm(scale, c.denominator)
    cap: list[dict[int, int]] = [dict() for _ in range(n)]
    for tail, head, c in arcs:
        if c < 0:
            raise ContractViolation("negative capacity")
        if c:
            scaled = c.numerator * (scale // c.denominator)
            cap[tail][head] = cap[tail].get(head, 0) + scaled
            cap[head].setdefault(tail, 0)
    value = 0
    while True:
        prev: dict[int, int] = {source: source}
        queue = [source]
        while queue and sink not in prev:
            nxt = []
            for v in queue:
                for w, c in cap[v].items():
                    if c > 0 and w not in prev:
                        prev[w] = v
                        nxt.append(w)
            queue = nxt
        if sink not in prev:
            break
        bottleneck: Optional[int] = None
        w = sink
        while w != source:
            v = prev[w]
            c = cap[v][w]
            if bottleneck is None or c < bottleneck:
                bottleneck = c
            w = v
        w = sink
        while w != source:
            v = prev[w]
            cap[v][w] -= bottleneck
            cap[w][v] += bottleneck
            w = v
        value += bottleneck
    reachable = {source}
    stack = [source]
    while stack:
        v = stack.pop()
        for w, c in cap[v].items():
            if c > 0 and w not in reachable:
                reachable.add(w)
                stack.append(w)
    return Fraction(value, scale), frozenset(reachable)


def reference_separate_all(g, x, first_only=False, calls=None):
    """The earlier `_separate_all`: `Fraction` checks and one reference
    max-flow per (source, sink) pair, each appended to `calls`."""
    arcs = []
    excess = [F(0)] * g.n
    for e in g.edges:
        value = x[e.eid]
        if value < 0:
            raise ContractViolation(f"separation needs x >= 0; edge {e.eid} has {value}")
        if value:
            arcs.append((e.tail, e.head, value))
            excess[e.head] += value
            excess[e.tail] -= value
    unbalanced = [v for v in range(g.n) if excess[v]]
    if unbalanced:
        raise ContractViolation(f"separation needs a circulation; vertices {unbalanced} "
                                "are unbalanced")
    found: list[frozenset] = []
    seen: set[frozenset] = set()
    for t in range(1, g.n):
        for s, d in ((0, t), (t, 0)):
            if calls is not None:
                calls.append((s, d))
            value, side = reference_max_flow_min_cut(g.n, arcs, s, d)
            if value >= 1:
                break
            if side not in seen:
                seen.add(side)
                found.append(side)
                if first_only:
                    return found
    return found


def reference_classes(g, x) -> set[int]:
    """The vertex classes left when two classes are merged, one pair at a
    time, while the edges from one to the other carry x >= 1 in total; each
    class is named by a label, one per vertex."""
    label = list(range(g.n))
    while True:
        between: dict[tuple[int, int], Fraction] = {}
        for e in g.edges:
            pair = (label[e.tail], label[e.head])
            if pair[0] != pair[1]:
                between[pair] = between.get(pair, F(0)) + x[e.eid]
        heavy = [pair for pair, total in between.items() if total >= 1]
        if not heavy:
            return set(label)
        keep, drop = heavy[0]
        label = [keep if c == drop else c for c in label]


def flow_calls(monkeypatch, g, x_num, unit, first_only=False):
    """`lp._separate_all`'s cuts and the (source, sink) of each max-flow
    call it makes."""
    calls = []
    real = lp.max_flow_min_cut

    def recording(network, source, sink, limit=None):
        calls.append((source, sink))
        return real(network, source, sink, limit)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "max_flow_min_cut", recording)
        return lp._separate_all(g, x_num, unit, first_only), calls


def assert_same_cuts(g, x, monkeypatch):
    one_class = len(reference_classes(g, x)) == 1
    for first_only in (False, True):
        expected_calls: list = []
        expected = reference_separate_all(g, x, first_only, expected_calls)
        found, calls = flow_calls(monkeypatch, g, *common_denominator(x), first_only)
        assert found == expected
        assert len(calls) <= len(expected_calls)
        if one_class:
            assert calls == [] and found == []


def random_circulation(rng: random.Random) -> tuple[Digraph, list[Fraction]]:
    """Weighted directed cycles on up to 8 vertices, denominators up to 12;
    each cycle's arcs are separate edges, so parallel arcs are common, and
    2-cycles give antiparallel ones; a few zero-valued edges are added, and
    the edge order is shuffled."""
    n = rng.randint(2, 8)
    edges: list[tuple[int, int, Fraction]] = []
    for _ in range(rng.randint(1, 5)):
        cycle = rng.sample(range(n), rng.choice([2, 2, rng.randint(2, n)]))
        w = F(rng.randint(1, 12), rng.randint(1, 12))
        edges.extend((a, b, w) for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(range(n), 2)
        edges.append((a, b, F(0)))
    rng.shuffle(edges)
    g = Digraph(n, [(a, b, 1) for a, b, _ in edges])
    return g, [w for _, _, w in edges]


def test_random_circulations_against_reference(monkeypatch):
    rng = random.Random(5)
    outcomes = set()
    for _ in range(300):
        g, x = random_circulation(rng)
        assert_same_cuts(g, x, monkeypatch)
        outcomes.add((bool(lp._separate_all(g, *common_denominator(x))),
                      len(reference_classes(g, x)) == 1))
    assert outcomes == {(True, False), (False, True)}


def test_feasible_x_that_shrinks_nothing(monkeypatch):
    # every arc of the complete digraph on 3 vertices at 1/2: each cut is
    # exactly 1 and no class pair reaches 1, so max-flow proves it
    g = Digraph(3, [(a, b, 1) for a in range(3) for b in range(3) if a != b])
    x = [F(1, 2)] * g.m
    assert len(reference_classes(g, x)) == 3
    assert_same_cuts(g, x, monkeypatch)
    assert flow_calls(monkeypatch, g, [1] * g.m, 2) == ([], [(0, 1), (0, 2)])


def two_gadgets(link: Fraction) -> tuple[Digraph, list[Fraction]]:
    """Vertices {0, 1, 2} and {3, 4, 5}, each carrying the cycles a->b->c->a,
    a->c->b->a and a->b->a at 1/2 (the a->b edge at 1, as one edge), joined
    by 0->3 and 3->0 at `link`.  Only a->b reaches 1 alone; c joins {a, b}
    once they are one class, through two edges of 1/2."""
    edges: list[tuple[int, int, Fraction]] = []
    for a, b, c in ((0, 1, 2), (3, 4, 5)):
        edges += [(a, b, F(1)), (b, c, F(1, 2)), (c, a, F(1, 2)), (a, c, F(1, 2)),
                  (c, b, F(1, 2)), (b, a, F(1))]
    edges += [(0, 3, link), (3, 0, link)]
    return Digraph(6, [(a, b, 1) for a, b, _ in edges]), [w for _, _, w in edges]


def test_merges_that_need_an_earlier_merge(monkeypatch):
    g, x = two_gadgets(F(1))
    assert len(reference_classes(g, x)) == 1
    assert_same_cuts(g, x, monkeypatch)
    g, x = two_gadgets(F(1, 4))
    assert len(reference_classes(g, x)) == 2
    assert_same_cuts(g, x, monkeypatch)
    found, calls = flow_calls(monkeypatch, g, *common_denominator(x))
    assert found == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
    assert calls == [(0, 1), (1, 0)]


def test_parallel_arcs_merge_only_together(monkeypatch):
    # 0 <-> 1 and 2 <-> 3 as parallel edge pairs at 1/2 each way, and
    # 1 <-> 2 at 1/3: no single edge reaches 1, so only the pairs merge
    halves = [(0, 1), (0, 1), (1, 0), (1, 0), (2, 3), (3, 2), (2, 3), (3, 2)]
    g = Digraph(4, [(a, b, 1) for a, b in halves + [(1, 2), (2, 1)]])
    x = [F(1, 2)] * len(halves) + [F(1, 3)] * 2
    assert len(reference_classes(g, x)) == 2
    assert_same_cuts(g, x, monkeypatch)
    found, calls = flow_calls(monkeypatch, g, *common_denominator(x))
    assert found == [frozenset({0, 1}), frozenset({2, 3})]
    assert calls == [(0, 1), (1, 0)]
    x[-2:] = [F(1), F(1)]  # 1 <-> 2 at 1 joins everything
    assert_same_cuts(g, x, monkeypatch)
    assert flow_calls(monkeypatch, g, *common_denominator(x)) == ([], [])


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_integral_cycle_cover(k, monkeypatch):
    # k subtours of 3 vertices, vertex v in subtour v % k: the shrunk
    # network has one class per subtour and no arc, so each other subtour
    # costs one call each way and is found as its own cut, after vertex 0's
    subtours = [[c + k * i for i in range(3)] for c in range(k)]
    g = Digraph(3 * k, [(a, b, 1) for cyc in subtours
                        for a, b in zip(cyc, cyc[1:] + cyc[:1])])
    x = [F(1)] * g.m
    assert_same_cuts(g, x, monkeypatch)
    found, calls = flow_calls(monkeypatch, g, [1] * g.m, 1)
    assert found == ([frozenset(cyc) for cyc in subtours] if k > 1 else [])
    assert calls == [pair for c in range(1, k) for pair in ((0, c), (c, 0))]


def test_non_circulations_raise_the_reference_messages():
    rng = random.Random(6)
    for _ in range(40):
        g, x = random_circulation(rng)
        eid = rng.randrange(g.m)
        x[eid] = rng.choice([-x[eid] - F(1, rng.randint(1, 12)),
                             x[eid] + F(1, rng.randint(1, 12))])
        with pytest.raises(ContractViolation) as got:
            lp._separate_all(g, *common_denominator(x))
        with pytest.raises(ContractViolation) as expected:
            reference_separate_all(g, x)
        assert str(got.value) == str(expected.value)


def recorded_separations(graphs, monkeypatch) -> list[tuple[Digraph, list[Fraction]]]:
    """(g, x) of every separation call made while solving the graphs."""
    seen = []
    real = lp._separate_all

    def recording(g, x_num, unit, first_only=False):
        seen.append((g, [F(v, unit) for v in x_num]))
        return real(g, x_num, unit, first_only)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_separate_all", recording)
        for name, g in graphs:
            run_pipeline(name, g, Fraction(1))
    return seen


@pytest.mark.parametrize("model", GENERATOR_MODELS)
def test_generator_solves_against_reference(model, monkeypatch):
    graphs = [(f"{model}-{n}-{seed}", gen_instance(model, n, seed))
              for n in range(6, 15) for seed in range(3)]
    recorded = recorded_separations(graphs, monkeypatch)
    assert len(recorded) >= 2 * len(graphs)  # each LP, and each validation
    for g, x in recorded:
        assert_same_cuts(g, x, monkeypatch)


def test_reduction_heavy_solves_against_reference(monkeypatch):
    graphs = [(name, build()) for name, build in sorted(REDUCTION_CASES.items())]
    recorded = recorded_separations(graphs, monkeypatch)
    assert len(recorded) > 2 * len(graphs)  # child instances are validated too
    for g, x in recorded:
        assert_same_cuts(g, x, monkeypatch)
