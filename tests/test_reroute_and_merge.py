"""Hand-built rerouting and merge scenarios: flow entering an auxiliary
vertex on the upper level and leaving on the lower one, and a knapsack
merge that absorbs a strict subset of the touched components."""

from __future__ import annotations

from fractions import Fraction

import pytest

from atsp_approx import cover as cover_mod
from atsp_approx.checks import Checker
from atsp_approx.cover import (
    SubtourCoverInstance,
    build_augmented_graph,
    build_level_structure,
    compute_witness_flow,
    lift_and_reroute,
)
from atsp_approx.errors import InternalCheckError
from atsp_approx.graph import Digraph, EdgeMultiset, integer_edges
from atsp_approx.pair import VertebratePair
from atsp_approx.svensson import ComponentState, build_ell, improved_initialization
from fixtures import rational_instance
from test_cover import make_pair

F = Fraction


def hub_cover():
    """Two unit triangles joined by cost-50 arcs, as a pair with an empty
    H: its cover, witness flow and augmented graph."""
    g = Digraph(6, [
        (0, 1, 1), (1, 2, 1), (2, 0, 1),
        (3, 4, 1), (4, 5, 1), (5, 3, 1),
        (0, 3, 50), (3, 0, 50),
    ])
    pair = make_pair(g)
    cover = SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g))
    checker = Checker()
    levels = build_level_structure(pair)
    witness = compute_witness_flow(cover, levels, checker)
    return cover, witness, build_augmented_graph(cover, witness, levels, checker)


def test_reroute_upper_entry_lower_exit_uses_down_edge():
    # expensive joiners force the witness flow onto the forward joiner, so
    # the hub's cover unit enters its auxiliary vertex on the upper level
    # and leaves on the lower one, crossing the free vertical edge
    cover, witness, aug = hub_cover()
    rerouted = lift_and_reroute(cover, witness, aug, Checker())
    assert aug.w_sets[0] == frozenset({0})
    assert rerouted.q_level[0] == 1
    down = rerouted.split.down_of[aug.aux_of[0]]
    assert F(rerouted.z[down], rerouted.den) == F(1, 2)
    # pure same-level reroutes leave their vertical edge empty
    assert all(
        rerouted.z[rerouted.split.down_of[aug.aux_of[i]]] == 0
        for i in range(1, aug.k)
    )


def big_ring_pair() -> VertebratePair:
    """Bidirected 12-ring with singleton weights 1/2 outside the backbone
    vertex 0."""
    n = 12
    half = F(1, 2)
    y = {v: half for v in range(1, n)}
    edges = []
    for i in range(n):
        j = (i + 1) % n
        cost = y.get(i, F(0)) + y.get(j, F(0))
        edges.append((i, j, cost))
        edges.append((j, i, cost))
    g = Digraph(n, *integer_edges(edges))
    inst = rational_instance(g, [(frozenset({v}), half) for v in range(1, n)], [half] * g.m)
    inst.validate(Checker())
    pair = VertebratePair(inst, EdgeMultiset(inst.g), frozenset({0}))
    pair.validate(Checker())
    return pair


def two_cycle(g: Digraph, a: int, b: int) -> EdgeMultiset:
    ms = EdgeMultiset(g)
    for e in g.edges:
        if (e.tail, e.head) in ((a, b), (b, a)):
            ms.add(e.eid)
    assert len(ms) == 2
    return ms


def test_knapsack_merge_absorbs_partial_overlap():
    # components {2,3}, {8,9}, {10,11}; the new subtour covers 1..8, so it
    # overlaps {8,9} in vertex 8 only; at a generous epsilon the knapsack
    # absorbs that component, and the merged component gains vertex 9
    pair = big_ring_pair()
    g = pair.instance.g
    h_tilde = two_cycle(g, 2, 3).union(two_cycle(g, 8, 9)).union(
        two_cycle(g, 10, 11)
    )
    ell = build_ell(pair, F(10), Checker())
    state = ComponentState(pair, ell, h_tilde)
    assert state.parts[1:4] == [frozenset({2, 3}), frozenset({8, 9}),
                                frozenset({10, 11})]
    d_edges = EdgeMultiset(g)
    for e in g.edges:
        if {e.tail, e.head} <= set(range(1, 9)) and abs(e.tail - e.head) == 1:
            d_edges.add(e.eid)
    d_vertices = frozenset(range(1, 9))
    checker = Checker()
    merged = improved_initialization(state, d_vertices, d_edges, checker)
    new_state = ComponentState(pair, ell, merged)
    star = next(p for p in new_state.parts[1:] if d_vertices <= p)
    assert 9 in star  # the partially-overlapped component was absorbed
    assert frozenset({10, 11}) in new_state.parts  # untouched part survives
    assert checker.counters["better-init-potential-growth"] == 1


def test_negative_lowered_entry_trips_at_its_component(monkeypatch):
    # the entry edges of component k's pieces are zeroed before its reroute,
    # so the first rerouted piece drives its entry edge negative: the check
    # scans only what each later reroute lowers, yet trips at component k,
    # after k + 1 checks, as a scan of the whole z after every component does
    cover, witness, aug = hub_cover()
    assert aug.k >= 2
    decompose = cover_mod._decompose_unit_through
    for k in range(aug.k):
        calls = []

        def zeroing(g, z, inside, unit):
            pieces = decompose(g, z, inside, unit)
            if len(calls) == k:
                for e_in, _, _, _ in pieces:
                    z[e_in] = 0
            calls.append(inside)
            return pieces

        checker = Checker()
        with monkeypatch.context() as patch:
            patch.setattr(cover_mod, "_decompose_unit_through", zeroing)
            with pytest.raises(InternalCheckError) as err:
                lift_and_reroute(cover, witness, aug, checker)
        assert err.value.label == "rerouted-z-nonnegative"
        assert checker.counters["rerouted-z-nonnegative"] == k + 1
        assert len(calls) == k + 1
