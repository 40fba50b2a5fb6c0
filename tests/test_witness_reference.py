"""Differential test of the witness flow: the two min-cost circulations of
`compute_witness_flow` against scipy's HiGHS on the bounded-variable LP
formulation (neutral edges as variables, 0 <= f_e <= bound, one excess row
per vertex outside the backbone)."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import lcm

import pytest

from atsp_approx import cover as cover_mod
from atsp_approx.checks import Checker
from atsp_approx.cover import (
    FORWARD,
    NEUTRAL,
    SubtourCoverInstance,
    build_level_structure,
)
from atsp_approx.graph import Digraph, EdgeMultiset
from atsp_approx.harness import run_pipeline
from atsp_approx.lp import build_strongly_laminar_instance
from atsp_approx.pair import VertebratePair
from test_acceptance import _find_any_cycle, cover_instances  # noqa: F401
from test_determinism import REDUCTION_CASES

F = Fraction


def _highs_witness_optimum(scipy, cover, levels, objective, bound):
    """Optimum of  min objective.f  over witness flows with f_e <= bound[e]
    on the neutral edges, as the LP the exact simplex used to solve."""
    inst = cover.pair.instance
    g = inst.g
    neutral = [e.eid for e in g.edges if levels.edge_class[e.eid] == NEUTRAL]
    col = {eid: j for j, eid in enumerate(neutral)}
    fixed_excess = [F(0)] * g.n
    for e in g.edges:
        if levels.edge_class[e.eid] == FORWARD:
            fixed_excess[e.tail] += inst.x[e.eid]
            fixed_excess[e.head] -= inst.x[e.eid]
    a_ub, b_ub = [], []
    for v in sorted(cover.pair.outside_vertices()):
        row = [0.0] * len(neutral)
        for eid in g.out_edges[v]:
            if eid in col:
                row[col[eid]] -= 1.0
        for eid in g.in_edges[v]:
            if eid in col:
                row[col[eid]] += 1.0
        a_ub.append(row)  # -(net neutral outflow) <= fixed excess
        b_ub.append(float(fixed_excess[v]))
    res = scipy.linprog([float(objective[eid]) for eid in neutral],
                        A_ub=a_ub or None, b_ub=b_ub or None,
                        bounds=[(0, float(bound[eid])) for eid in neutral],
                        method="highs")
    assert res.status == 0, res.message
    return res.fun


def _check_against_highs(scipy, cover, levels, witness, stage1):
    """Stage 1's boundary optimum and stage 2's total flow (below the stage-1
    flow, stage1 being its scaled integers) match HiGHS."""
    inst = cover.pair.instance
    g = inst.g
    comps = cover.w_sets
    crossings = {e.eid: sum(1 for w in comps if (e.tail in w) != (e.head in w))
                 for e in g.edges}
    neutral = [e.eid for e in g.edges if levels.edge_class[e.eid] == NEUTRAL]
    fixed_boundary = sum((crossings[e.eid] * inst.x[e.eid] for e in g.edges
                          if levels.edge_class[e.eid] == FORWARD), F(0))
    opt1 = _highs_witness_optimum(scipy, cover, levels, crossings, inst.x)
    scale = 1
    for q in inst.x:
        scale = lcm(scale, q.denominator)
    assert abs(float(F(witness.boundary_optimum, scale) - fixed_boundary) - opt1) < 1e-7
    assert sorted(stage1) == neutral
    bound = {eid: F(stage1[eid], scale) for eid in neutral}
    opt2 = _highs_witness_optimum(scipy, cover, levels, {eid: 1 for eid in neutral},
                                  bound)
    total = F(sum(witness.f[eid] for eid in neutral), scale)
    assert abs(float(total) - opt2) < 1e-7


@pytest.fixture
def witness_calls(monkeypatch):
    """Every compute_witness_flow call as (cover, levels, witness, stage-1
    flows), the stage-1 flows as the scaled integers the circulation
    returned."""
    calls, stages = [], []
    circulation, compute = cover_mod._witness_circulation, cover_mod.compute_witness_flow

    def record_stage(*args):
        stages.append(circulation(*args))
        return stages[-1]

    def record(cover, levels, checker=None):
        del stages[:]
        witness = compute(cover, levels, checker)
        assert len(stages) == 2
        calls.append((cover, levels, witness, stages[0]))
        return witness

    monkeypatch.setattr(cover_mod, "_witness_circulation", record_stage)
    monkeypatch.setattr(cover_mod, "compute_witness_flow", record)
    return calls


def thirds_cover() -> SubtourCoverInstance:
    """A 6-vertex instance whose LP optimum x has denominator 3 (on three
    neutral edges among others), with the one-vertex backbone {2} inside
    every non-singleton family set."""
    arcs = [(0, 1, 1), (0, 4, 11), (1, 0, 8), (1, 3, 10), (1, 5, 8), (2, 0, 8),
            (2, 3, 2), (2, 4, 5), (2, 5, 9), (3, 2, 2), (3, 5, 7), (4, 1, 5),
            (4, 3, 4), (4, 5, 5), (5, 3, 2), (5, 0, 8)]
    inst, _, _ = build_strongly_laminar_instance(Digraph(6, arcs))
    pair = VertebratePair(inst, EdgeMultiset(inst.g), frozenset({2}))
    pair.validate()
    cover = SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g))
    cover.validate()
    return cover


@cache
def random_covers(trials: int = 300) -> tuple[SubtourCoverInstance, ...]:
    """Covers of random digraphs (n 5-7, about half of all arcs, costs
    1-12) whose family has non-singleton sets with a common vertex, the
    least of which is the one-vertex backbone; each with empty H, and again
    with H a cycle away from the backbone that crosses no family set where
    there is one, so that components hold several vertices.  Unlike most
    acceptance covers, most of these need flow on neutral edges.

    Built once per session: no caller modifies a cover, and the lazily
    memoized nice paths of their instances do not change any result."""
    rng = random.Random(0)
    covers = []
    for _ in range(trials):
        n = rng.randint(5, 7)
        arcs = {(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.5}
        perm = list(range(n))
        rng.shuffle(perm)
        arcs |= {(perm[i], perm[(i + 1) % n]) for i in range(n)}
        g = Digraph(n, [(t, h, rng.randint(1, 12)) for t, h in sorted(arcs)])
        inst, _, _ = build_strongly_laminar_instance(g)
        common = set(range(inst.g.n))
        for s in inst.family.nonsingletons():
            common &= s
        if common and inst.family.nonsingletons():
            pair = VertebratePair(inst, EdgeMultiset(inst.g), frozenset({min(common)}))
            covers.append(SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g)))
            outside = pair.outside_vertices()
            inside = {e.eid for e in inst.g.edges
                      if e.tail in outside and e.head in outside
                      and not any((e.tail in s) != (e.head in s)
                                  for s in inst.family.nonsingletons())}
            cycle = _find_any_cycle(inst.g, inside)
            if cycle is not None:
                h = EdgeMultiset(inst.g, dict.fromkeys(cycle, 1))
                covers.append(SubtourCoverInstance(pair, h))
    return tuple(covers)


def test_thirds_instance_scales_neutral_bounds():
    cover = thirds_cover()
    levels = build_level_structure(cover.pair)
    x = cover.pair.instance.x
    assert any(levels.edge_class[eid] == NEUTRAL and x[eid].denominator == 3
               for eid in range(len(x)))


def test_witness_matches_highs_on_cover_instances(cover_instances, witness_calls):  # noqa: F811
    scipy = pytest.importorskip("scipy.optimize")
    covers = [*cover_instances, thirds_cover(), *random_covers()]
    for cover in covers:
        cover.validate()
        levels = build_level_structure(cover.pair)
        cover_mod.compute_witness_flow(cover, levels, Checker())
    assert len(witness_calls) == len(covers)
    # most random covers route flow over neutral edges
    neutral_flow = [call for call in witness_calls
                    if any(call[1].edge_class[eid] == NEUTRAL and val
                           for eid, val in enumerate(call[2].f))]
    assert len(neutral_flow) >= 40
    for call in witness_calls:
        _check_against_highs(scipy, *call)


@pytest.mark.parametrize("name", sorted(REDUCTION_CASES))
def test_witness_matches_highs_on_reduction_cases(name, witness_calls):
    scipy = pytest.importorskip("scipy.optimize")
    run_pipeline(name, REDUCTION_CASES[name](), F(1))
    assert witness_calls
    for call in witness_calls:
        _check_against_highs(scipy, *call)
