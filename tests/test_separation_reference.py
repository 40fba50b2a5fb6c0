"""Differential test of the separation oracle: `lp._separate_all` against
the dict-based Edmonds-Karp it replaced.

`_separate_all` takes x as integer numerators over one unit, here the lcm
of its denominators, and runs every max-flow on one integer network of
flat arrays.  The reference keeps the
earlier routine: per call, it scales the `Fraction` capacities again,
builds a dict-of-dicts residual graph with parallel arcs merged, and
returns a `Fraction` value that is compared with 1.  Both return the
source side reached in the final residual graph, which is the same for
every maximum flow, so on every x they must make the same max-flow calls in
the same order and return the same cut list, in both `first_only` modes."""

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


def assert_same_cuts(g, x, monkeypatch):
    calls = []
    real = lp.max_flow_min_cut

    def recording(network, source, sink, limit=None):
        calls.append((source, sink))
        return real(network, source, sink, limit)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "max_flow_min_cut", recording)
        for first_only in (False, True):
            calls.clear()
            expected_calls: list = []
            expected = reference_separate_all(g, x, first_only, expected_calls)
            assert lp._separate_all(g, *common_denominator(x), first_only) == expected
            assert calls == expected_calls


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
        outcomes.add(bool(lp._separate_all(g, *common_denominator(x))))
    assert outcomes == {True, False}


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
