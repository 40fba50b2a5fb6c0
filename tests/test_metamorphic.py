"""Metamorphic tests of the whole pipeline over generator instances.

Scaling every cost by a positive rational q scales every reduced cost and
every objective by q and leaves every ratio test alone, so the pivots, the
laminar family and the tour stay the same: the LP value and the tour cost
scale by exactly q, with the same walk.  Relabelling the vertices changes
the pivot path but not the LP optimum."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from atsp_approx.checks import Checker
from atsp_approx.graph import Digraph, integer_edges
from atsp_approx.harness import GENERATOR_MODELS, gen_instance, run_pipeline
from atsp_approx.lp import solve_atsp_lp

CASES = [(model, n, seed) for model in GENERATOR_MODELS for n in (6, 9, 12)
         for seed in (0, 1)]


@pytest.mark.parametrize("model,n,seed", CASES)
def test_scaling_costs_scales_lp_value_and_tour(model, n, seed):
    g = gen_instance(model, n, seed)
    base = run_pipeline("base", g, Fraction(1))
    for q in (Fraction(7, 3), Fraction(1, 10)):
        scaled_g = Digraph(g.n, *integer_edges((e.tail, e.head, q * e.cost)
                                               for e in g.edges))
        scaled = run_pipeline("scaled", scaled_g, Fraction(1))
        assert scaled.lp_value == q * base.lp_value
        assert scaled.tour_cost == q * base.tour_cost
        assert scaled.tour_walk == base.tour_walk


@pytest.mark.parametrize("model,n,seed", CASES)
def test_relabelling_vertices_keeps_lp_value(model, n, seed):
    g = gen_instance(model, n, seed)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    relabelled = Digraph(n, [(perm[e.tail], perm[e.head], e.cost_num) for e in g.edges],
                         g.cost_den)
    checker = Checker()
    lp_value = solve_atsp_lp(g, checker)[0].objective
    assert solve_atsp_lp(relabelled, checker)[0].objective == lp_value
