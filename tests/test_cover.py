from __future__ import annotations

from fractions import Fraction

from atsp_approx import cover as cover_mod
from atsp_approx.checks import Checker
from atsp_approx.cover import (
    BACKWARD,
    FORWARD,
    NEUTRAL,
    SubtourCoverInstance,
    build_augmented_graph,
    build_level_structure,
    build_split_graph,
    compute_witness_flow,
    lift_to_split,
    subtour_cover,
)
from atsp_approx.graph import Digraph, EdgeMultiset, is_eulerian_connected
from atsp_approx.harness import run_pipeline
from atsp_approx.lp import build_strongly_laminar_instance
from atsp_approx.pair import VertebratePair
from fixtures import c3, rational_instance, two_tri
from oracles import project_from_split
from test_determinism import REDUCTION_CASES

F = Fraction


def make_pair(g, backbone_vertex=None) -> VertebratePair:
    """Vertebrate pair with an edgeless backbone on one vertex that lies in
    every non-singleton family set (fixtures are chosen so one exists)."""
    inst, _, _ = build_strongly_laminar_instance(g, Checker())
    nonsingle = inst.family.nonsingletons()
    if backbone_vertex is None:
        candidates = set(range(inst.g.n))
        for s in nonsingle:
            candidates &= s
        backbone_vertex = min(candidates) if candidates else 0
    pair = VertebratePair(inst, EdgeMultiset(inst.g), frozenset({backbone_vertex}))
    pair.validate(Checker())
    return pair


def spanning_pair(g) -> VertebratePair:
    """Pair whose backbone is a full tour (covers every vertex)."""
    inst, _, _ = build_strongly_laminar_instance(g, Checker())
    ms = EdgeMultiset(inst.g)
    # the instance keeps every support edge; x == 1 on a tour fixture means
    # the whole edge set is a tour
    for eid in range(inst.g.m):
        if inst.x[eid] == 1:
            ms.add(eid)
    eulerian, comps = is_eulerian_connected(ms)
    assert eulerian and len(comps) == 1
    pair = VertebratePair(inst, ms, ms.vertices())
    pair.validate(Checker())
    return pair


def test_level_structure_singletons_only():
    pair = make_pair(c3())
    levels = build_level_structure(pair)
    assert levels.r == [1, 1, 1]
    assert all(cls == NEUTRAL for cls in levels.edge_class)


def test_level_structure_with_inner_set():
    pair = make_pair(two_tri())
    levels = build_level_structure(pair)
    inner = frozenset({3, 4, 5})
    assert levels.order[0] == frozenset(range(6))
    assert levels.order[1] == inner
    g = pair.instance.g
    for e in g.edges:
        expected = NEUTRAL
        if e.tail not in inner and e.head in inner:
            expected = FORWARD
        elif e.tail in inner and e.head not in inner:
            expected = BACKWARD
        assert levels.edge_class[e.eid] == expected


def test_cycle_crossing_contains_forward_and_backward():
    pair = make_pair(two_tri())
    levels = build_level_structure(pair)
    g = pair.instance.g
    inner = frozenset({3, 4, 5})
    # the 2-cycle through the joining arcs crosses the inner set
    cycle = [e.eid for e in g.edges if (e.tail in inner) != (e.head in inner)]
    classes = {levels.edge_class[eid] for eid in cycle}
    assert FORWARD in classes and BACKWARD in classes


def test_split_graph_shape():
    pair = make_pair(two_tri())
    levels = build_level_structure(pair)
    split = build_split_graph(pair.instance.g, levels.edge_class,
                              pair.backbone_vertices)
    g = pair.instance.g
    # forward edges only на the lower level, backward only upper, neutral both
    for e in g.edges:
        cls = levels.edge_class[e.eid]
        assert (e.eid in split.lower_of) == (cls in (FORWARD, NEUTRAL))
        assert (e.eid in split.upper_of) == (cls in (BACKWARD, NEUTRAL))
    assert set(split.down_of) == set(range(g.n))
    assert set(split.up_of) == set(pair.backbone_vertices)


def fig6_style_graph():
    """Two nested non-singleton sets with backbone vertices inside them and
    every arc at x = 1/2; the witness flow drains into the backbone."""
    edges = [
        (0, 1), (1, 6), (6, 2), (2, 3), (3, 7), (7, 4), (4, 0),
        (5, 2), (2, 6), (6, 1), (1, 5),
        (5, 4), (4, 7), (7, 3), (3, 5),
    ]
    g = Digraph(8, [(t, h, 1) for t, h in edges])
    r = [1, 3, 3, 4, 4, 1, 3, 4]  # V=1, L2=2, {1,2,6}=3, {3,4,7}=4
    classes = []
    for t, h in edges:
        if r[t] < r[h]:
            classes.append(FORWARD)
        elif r[t] > r[h]:
            classes.append(BACKWARD)
        else:
            classes.append(NEUTRAL)
    backbone = frozenset({6, 7})
    x = [F(1, 2)] * g.m
    return g, classes, backbone, x


def test_fig6_style_witness_flow_feasible():
    g, classes, backbone, x = fig6_style_graph()
    index = {(e.tail, e.head): e.eid for e in g.edges}
    f = [F(0)] * g.m
    for pair_ in [(0, 1), (2, 3), (5, 2), (5, 4), (1, 6), (3, 7), (4, 7)]:
        f[index[pair_]] = F(1, 2)
    # (a) zero on backward, (b) full on forward, (c) bounded on neutral
    for e in g.edges:
        if classes[e.eid] == BACKWARD:
            assert f[e.eid] == 0
        elif classes[e.eid] == FORWARD:
            assert f[e.eid] == x[e.eid]
        else:
            assert 0 <= f[e.eid] <= x[e.eid]
    # (d) nonnegative excess away from the backbone
    for v in range(g.n):
        if v in backbone:
            continue
        excess = sum(f[eid] for eid in g.out_edges[v]) - sum(
            f[eid] for eid in g.in_edges[v]
        )
        assert excess >= 0


def test_witness_flow_zero_when_backbone_spans():
    pair = spanning_pair(c3())
    cover = SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g))
    levels = build_level_structure(pair)
    witness = compute_witness_flow(cover, levels, Checker())
    assert all(v == 0 for v in witness.f)
    assert witness.boundary_optimum == 0


def test_witness_flow_forced_on_forward_edges():
    pair = make_pair(two_tri())
    cover = SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g))
    levels = build_level_structure(pair)
    witness = compute_witness_flow(cover, levels, Checker())
    g = pair.instance.g
    for e in g.edges:
        if levels.edge_class[e.eid] == FORWARD:
            assert witness.f[e.eid] == pair.instance._x_num[e.eid]
        if levels.edge_class[e.eid] == BACKWARD:
            assert witness.f[e.eid] == 0


def test_lift_project_roundtrip():
    pair = make_pair(two_tri())
    cover = SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g))
    levels = build_level_structure(pair)
    witness = compute_witness_flow(cover, levels, Checker())
    split = build_split_graph(pair.instance.g, levels.edge_class,
                              pair.backbone_vertices)
    z = lift_to_split(split, pair.instance._x_num, witness.f)
    x_back, f_back = project_from_split(split, z)
    assert x_back == pair.instance._x_num
    assert f_back == witness.f


def test_augmented_graph_trivial_when_spanning():
    pair = spanning_pair(c3())
    cover = SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g))
    levels = build_level_structure(pair)
    witness = compute_witness_flow(cover, levels, Checker())
    aug = build_augmented_graph(cover, witness, levels, Checker())
    assert aug.k == 0
    assert aug.g.n == pair.instance.g.n
    assert aug.g.m == pair.instance.g.m


def test_augmented_graph_first_scc():
    pair = make_pair(two_tri())
    cover = SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g))
    levels = build_level_structure(pair)
    witness = compute_witness_flow(cover, levels, Checker())
    checker = Checker()
    aug = build_augmented_graph(cover, witness, levels, checker)
    assert aug.k == len(cover.w_sets)
    for i, hat in enumerate(aug.w_hat):
        assert hat <= aug.w_sets[i]
    assert checker.counters["first-scc-source-in-residual"] == aug.k


def test_subtour_cover_on_c3_singleton_components():
    pair = make_pair(c3())
    cover = SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g))
    checker = Checker()
    f = subtour_cover(cover, checker)
    g = pair.instance.g
    for w in cover.w_sets:
        assert f.crossing(w) > 0
    assert checker.counters["cover-global-bound"] == 1


def test_subtour_cover_two_tri_h_empty():
    pair = make_pair(two_tri())
    cover = SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g))
    checker = Checker()
    f = subtour_cover(cover, checker)
    g = pair.instance.g
    assert len(cover.w_sets) == 5  # singletons 0,1,2,4,5
    for w in cover.w_sets:
        assert f.crossing(w) > 0


def test_subtour_cover_two_tri_h_triangle():
    pair = make_pair(two_tri())
    g = pair.instance.g
    tri = EdgeMultiset(g)
    for e in g.edges:
        if {e.tail, e.head} <= {0, 1, 2}:
            tri.add(e.eid)
    cover = SubtourCoverInstance(pair, tri)
    assert frozenset({0, 1, 2}) in cover.w_sets
    checker = Checker()
    f = subtour_cover(cover, checker)
    assert f.crossing(frozenset({0, 1, 2})) > 0


def test_subtour_cover_spanning_backbone_vacuous():
    pair = spanning_pair(two_tri())
    cover = SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g))
    checker = Checker()
    f = subtour_cover(cover, checker)
    assert f == EdgeMultiset(pair.instance.g)  # zero circulation is cost-minimal


def test_rounding_properties_counted():
    pair = make_pair(two_tri())
    cover = SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g))
    checker = Checker()
    subtour_cover(cover, checker)
    for label in [
        "rounding-edge-caps",
        "rounding-cost-bound",
        "rounding-upper-indegree",
        "rounding-aux-unit",
        "aux-one-incoming",
        "rounded-witness-acyclic",
        "witness-support-acyclic",
        "witness-boundary-minimal",
        "split-cycle-touches-backbone",
        "cover-global-bound",
    ]:
        assert checker.counters[label] >= 1, label


def remote_cluster_pair() -> VertebratePair:
    """Singleton-only family over two triangles: the cover may leave one
    triangle as its own component, away from the backbone."""
    half = F(1, 2)
    g = Digraph(6, [
        (0, 1, 1), (1, 2, 2), (2, 0, 1),
        (3, 4, 1), (4, 5, 2), (5, 3, 1),
        (0, 3, 0), (3, 0, 0),
    ], 2)
    inst = rational_instance(g, [(frozenset({v}), half) for v in (1, 2, 4, 5)], [1] * 8)
    inst.validate(Checker())
    pair = VertebratePair(inst, EdgeMultiset(inst.g), frozenset({0}))
    pair.validate(Checker())
    return pair


def test_backbone_free_component_bound():
    pair = remote_cluster_pair()
    cover = SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g))
    checker = Checker()
    f = subtour_cover(cover, checker)
    from atsp_approx.graph import undirected_components

    comps = undirected_components(pair.instance.g, f.mult.keys())
    free = [c for c in comps if not c & pair.backbone_vertices]
    assert free, "expected a component away from the backbone"
    assert checker.counters["cover-component-bound"] >= 1
    assert checker.counters["backbone-free-zero-witness"] >= 1
    assert checker.counters["backbone-free-no-forward"] >= 1


def test_components_are_built_once_per_cover(monkeypatch):
    # W_1..W_k are computed when the cover instance is made and read from
    # there by the witness, the augmented graph and the final checks
    calls = [0]
    original = cover_mod.undirected_components

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cover_mod, "undirected_components", counting)
    covers = 0
    for name, build in sorted(REDUCTION_CASES.items()):
        report = run_pipeline(name, build(), F(1))
        covers += report.assertion_counts.get("cover-global-bound", 0)
    assert covers >= 3
    assert calls[0] == covers
