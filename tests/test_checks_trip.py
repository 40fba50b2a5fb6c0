"""Negative tests: broken inputs and broken solvers must trip the runtime
checks instead of producing uncertified output."""

from __future__ import annotations

from fractions import Fraction

import pytest

from atsp_approx import harness
from atsp_approx.checks import Checker
from atsp_approx.cover import SubtourCoverInstance, subtour_cover
from atsp_approx.errors import ContractViolation, InternalCheckError
from atsp_approx.graph import Digraph, EdgeMultiset, LaminarFamily
from atsp_approx.instance import StronglyLaminarInstance
from atsp_approx.lp import build_strongly_laminar_instance
from atsp_approx.vertebrate import TourCertificate, reduce_and_solve
from fixtures import two_tri
from oracles import outside_singleton_mass
from test_cover import make_pair

F = Fraction


def test_broken_tight_cut_is_caught():
    # halving x breaks the tight-cut clause of the instance definition
    inst = make_pair(two_tri()).instance
    bad = StronglyLaminarInstance(inst.g, inst.family, inst._x_num, 2 * inst._x_den)
    with pytest.raises(InternalCheckError):
        bad.validate(Checker())


def test_nonlaminar_family_rejected():
    with pytest.raises(ContractViolation):
        LaminarFamily([(frozenset({0, 1}), 1), (frozenset({1, 2}), 1)], 3, 1)


def test_h_crossing_family_cut_rejected():
    pair = make_pair(two_tri())
    g = pair.instance.g
    h = EdgeMultiset(g)
    joiners = [e.eid for e in g.edges if {e.tail, e.head} == {0, 3}]
    for eid in joiners:
        h.add(eid)
    cover = SubtourCoverInstance(pair, h)
    with pytest.raises(InternalCheckError):
        cover.validate(Checker())


def test_lazy_solver_breach_is_caught():
    # on an instance whose backbone misses a cluster, a "solver" that
    # returns nothing leaves the contracted vertex unvisited; the lifting
    # checks must fire
    from test_vertebrate import three_branch_star

    inst = three_branch_star()
    with pytest.raises(InternalCheckError) as info:
        reduce_and_solve(inst, inst.ground, lambda pair: EdgeMultiset(pair.instance.g),
                         F(1), Checker())
    assert info.value.label == "lift-crosses-missed"


def test_overpriced_solver_breach_is_caught():
    # doubling a legitimate solution past the solver bound trips the
    # contract check before any lifting happens
    from atsp_approx.svensson import vertebrate_solve
    from test_vertebrate import three_branch_star

    inst = three_branch_star()

    def bloated(p):
        honest = vertebrate_solve(p, F(1), checker=Checker())
        bloat = honest.copy()
        scale = 1
        bound = 2 * p.instance.lp_value + 15 * outside_singleton_mass(p)
        while bloat.cost() <= bound:
            for eid, k in honest.items():
                bloat.add(eid, k)
            scale += 1
            if scale > 1000:
                pytest.skip("honest solution has zero cost")
        return bloat

    with pytest.raises(InternalCheckError) as info:
        reduce_and_solve(inst, inst.ground, bloated, F(1), Checker())
    assert info.value.label in ("solver-contract", "lifting-cost-monotone")


def test_a_tour_cheaper_than_the_optimum_trips_the_oracle(monkeypatch):
    # the oracle prunes with the certificate's cost; a cost one unit below
    # the optimum must still fail oracle-below-tour, not be taken as a bound
    g = harness.gen_instance("random-strong", 8, 5)
    opt = harness.held_karp_opt(g)
    solve = harness.solve_atsp

    def undercut(graph, epsilon, checker):
        cert = solve(graph, epsilon, checker)
        return TourCertificate(cert.tour, cert.walk, opt - F(1, graph.cost_den),
                               cert.lp_value, cert.ratio, cert.epsilon)

    monkeypatch.setattr(harness, "solve_atsp", undercut)
    with pytest.raises(InternalCheckError) as info:
        harness.run_pipeline("r8", g, F(1), with_oracle=True)
    assert info.value.label == "oracle-below-tour"


def test_check_many_counts_as_the_loop_of_checks_would():
    for conds in ([True] * 5, [True, True, False, True, False], [False], []):
        looped, batched = Checker(), Checker()
        try:
            for i, cond in enumerate(conds):
                looped.check(cond, "label", f"at {i}")
        except InternalCheckError as exc:
            looped_error = str(exc)
        else:
            looped_error = None
        first = conds.index(False) if False in conds else None
        try:
            batched.check_many("label", len(conds), first, lambda: f"at {first}")
        except InternalCheckError as exc:
            batched_error = str(exc)
        else:
            batched_error = None
        assert batched.as_dict() == looped.as_dict(), conds
        assert batched_error == looped_error, conds


# -- bulk-counted checks: one injected fault per label -------------------------
#
# Each entry breaks one element of a loop whose checks are counted in bulk,
# through a monkeypatched step or a hand-built bad input, and runs the step
# with a fresh Checker.  The label, the detail and the counters of every
# label checked in that loop were recorded with those loops written as one
# `Checker.check` call per element, so they show the bulk counting raising
# at the same element and counting what the loop of single checks counted.


def _cover_parts():
    """A cover of the first vertebrate pair of a nested hub, with its level
    structure and witness flow."""
    from atsp_approx.cover import build_level_structure, compute_witness_flow
    from atsp_approx.vertebrate import contracted_pair
    from test_determinism import nested_hub

    inst, _, _ = build_strongly_laminar_instance(nested_hub((3, 2), (2, 3, 2)), Checker())
    pair = contracted_pair(inst, inst.ground, Checker())[0]
    cover = SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g))
    levels = build_level_structure(pair)
    return cover, levels, compute_witness_flow(cover, levels, Checker())


def _star_pair():
    from atsp_approx.vertebrate import contracted_pair
    from test_vertebrate import three_branch_star

    inst = three_branch_star()
    return contracted_pair(inst, inst.ground, Checker())[0]


def _validate_bad_x(monkeypatch, checker, change):
    inst = make_pair(two_tri()).instance
    g, x_num = inst.g, list(inst._x_num)
    edges = [(e.tail, e.head, c) for e, c in zip(g.edges, g.cost_num)]
    change(edges, x_num)
    bad = StronglyLaminarInstance(Digraph(g.n, edges, g.cost_den), inst.family,
                                  x_num, inst._x_den)
    bad.validate(checker)


def _zero_x(edges, x_num):
    x_num[5] = 0


def _raise_cost(edges, x_num):
    t, h, c = edges[4]
    edges[4] = (t, h, c + 1)


def _raise_x(edges, x_num):
    x_num[3] += 1


def _induced_cost_identity(monkeypatch, checker):
    from atsp_approx import lp

    real = lp._dual_slack

    def slack(g, dual):
        out = list(real(g, dual))
        out[3] += 1  # still dual feasible, no longer tight
        return out

    monkeypatch.setattr(lp, "_dual_slack", slack)
    lp.build_strongly_laminar_instance(two_tri(), checker)


def _open_path(g):
    """Two consecutive edges a -> b -> c with a != c."""
    return next(EdgeMultiset(g, {e.eid: 1, eid: 1}) for e in g.edges
                for eid in g.out_edges[e.head] if g.edges[eid].head != e.tail)


def _two_cycle_on_backbone(g, backbone):
    for e in g.edges:
        if e.tail in backbone:
            for eid in g.out_edges[e.head]:
                if g.edges[eid].head == e.tail:
                    return EdgeMultiset(g, {e.eid: 1, eid: 1})
    raise AssertionError("no 2-cycle through the backbone")


def _h_eulerian(monkeypatch, checker):
    pair = _cover_parts()[0].pair
    SubtourCoverInstance(pair, _open_path(pair.instance.g)).validate(checker)


def _h_avoids_backbone(monkeypatch, checker):
    pair = _star_pair()
    h = _two_cycle_on_backbone(pair.instance.g, pair.backbone_vertices)
    SubtourCoverInstance(pair, h).validate(checker)


def _initialization(h_of):
    def run(monkeypatch, checker):
        from atsp_approx.svensson import build_ell, svensson_iterate

        pair = _cover_parts()[0].pair
        svensson_iterate(pair, build_ell(pair, F(1), Checker()), h_of(pair), checker=checker)
    return run


def _solution_eulerian(monkeypatch, checker):
    from atsp_approx import svensson

    real = svensson.svensson_iterate

    def extra_edge(pair, ell, h_tilde, cover_fn, *, checker):
        result = real(pair, ell, h_tilde, cover_fn, checker=checker)
        result.edges.add(0)
        return result

    monkeypatch.setattr(svensson, "svensson_iterate", extra_edge)
    svensson.vertebrate_solve(_star_pair(), F(1), checker=checker)


def _lifted_eulerian(monkeypatch, checker):
    from atsp_approx import vertebrate
    from test_vertebrate import three_branch_star

    real = vertebrate._lift_component_walk

    def drop_one(inst, child, cmap, walk, outside_vertex, missed_of_vertex, lifted):
        real(inst, child, cmap, walk, outside_vertex, missed_of_vertex, lifted)
        eid = min(lifted.mult)
        lifted.mult[eid] -= 1  # cheaper, so the lifting stays cost monotone
        if not lifted.mult[eid]:
            del lifted.mult[eid]

    monkeypatch.setattr(vertebrate, "_lift_component_walk", drop_one)
    inst = three_branch_star()
    vertebrate.reduce_and_solve(
        inst, inst.ground,
        lambda pair: vertebrate.vertebrate_solve(pair, F(1), checker=checker),
        F(1), checker)


def _mapped_back_eulerian(monkeypatch, checker):
    # the rounding gains one unit of base edge 0
    from atsp_approx.cover import map_back, round_circulation

    cover, aug, rerouted = _rerouted()
    rounded = round_circulation(rerouted, aug, cover, Checker())
    rounded.f_bar.add(0)
    map_back(rounded, aug, cover, checker)


def _cover_eulerian(monkeypatch, checker):
    from atsp_approx import cover as cover_mod

    real = cover_mod.map_back

    def extra_edge(rounded, aug, cover, checker):
        f = real(rounded, aug, cover, checker)
        f.add(0)
        return f

    monkeypatch.setattr(cover_mod, "map_back", extra_edge)
    subtour_cover(_cover_parts()[0], checker)


def _ell_regularity(monkeypatch, checker):
    from atsp_approx.svensson import build_ell

    pair = make_pair(two_tri())
    inst = pair.instance
    real = inst.singleton_mass
    outside = sorted(pair.outside_vertices())
    target = outside[len(outside) // 2]
    monkeypatch.setattr(inst, "singleton_mass",
                        lambda verts: -10 ** 6 if tuple(verts) == (target,)
                        else real(verts))
    build_ell(pair, F(1), checker=checker)


def _bad_witness(change):
    def run(monkeypatch, checker):
        from atsp_approx.cover import WitnessFlow, validate_witness_flow

        cover, levels, witness = _cover_parts()
        f = list(witness.f)
        change(cover, levels, f)
        validate_witness_flow(cover, levels, WitnessFlow(f, witness.boundary_optimum),
                              checker)
    return run


def _last_of_class(levels, cls):
    return max(eid for eid, c in enumerate(levels.edge_class) if c == cls)


def _flow_on_backward(cover, levels, f):
    from atsp_approx.cover import BACKWARD

    f[_last_of_class(levels, BACKWARD)] = 1


def _short_on_forward(cover, levels, f):
    from atsp_approx.cover import FORWARD

    f[_last_of_class(levels, FORWARD)] -= 1


def _over_on_neutral(cover, levels, f):
    from atsp_approx.cover import NEUTRAL

    eid = _last_of_class(levels, NEUTRAL)
    f[eid] = cover.pair.instance._x_num[eid] + 1


def _negative_excess(cover, levels, f):
    # one more unit on a neutral edge, within its bound, into an outside
    # vertex whose excess was zero
    from atsp_approx.cover import NEUTRAL

    g, x = cover.pair.instance.g, cover.pair.instance._x_num
    outside = cover.pair.outside_vertices()

    def excess(v):
        return sum(f[e] for e in g.out_edges[v]) - sum(f[e] for e in g.in_edges[v])

    for e in reversed(g.edges):
        if levels.edge_class[e.eid] == NEUTRAL and f[e.eid] < x[e.eid] \
                and e.head in outside and excess(e.head) == 0:
            f[e.eid] += 1
            return
    raise AssertionError("no neutral edge to overload")


def _copy_edge_class(monkeypatch, checker):
    from atsp_approx.cover import (FORWARD, NEUTRAL, LevelStructure,
                                   build_augmented_graph)

    cover, levels, witness = _cover_parts()
    classes = list(levels.edge_class)
    classes[7] = FORWARD if classes[7] == NEUTRAL else NEUTRAL
    build_augmented_graph(cover, witness, LevelStructure(levels.order, levels.r, classes),
                          checker)


def _rerouted():
    from atsp_approx.cover import build_augmented_graph, lift_and_reroute

    cover, levels, witness = _cover_parts()
    aug = build_augmented_graph(cover, witness, levels, Checker())
    return cover, aug, lift_and_reroute(cover, witness, aug, Checker())


def _rounding_edge_caps(monkeypatch, checker):
    from atsp_approx import cover as cover_mod

    cover, aug, rerouted = _rerouted()
    real = cover_mod.CirculationProblem.solve
    offset = rerouted.split.g.n

    def over_cap(self):
        flows = real(self)
        flows[offset + 9] += 10 ** 9
        return flows

    monkeypatch.setattr(cover_mod.CirculationProblem, "solve", over_cap)
    cover_mod.round_circulation(rerouted, aug, cover, checker)


def _rounding_upper_indegree(monkeypatch, checker):
    # two edges of 1/4 into one upper vertex: an in-cap of 1 and an edge
    # cap of 1 each, and a "rounding" that takes both
    from atsp_approx import cover as cover_mod

    cover, aug, rerouted = _rerouted()
    split, sg = rerouted.split, rerouted.split.g
    v = next(v for v in reversed(range(aug.g.n)) if len(sg.in_edges[split.upper(v)]) >= 2)
    pair = sg.in_edges[split.upper(v)][:2]
    rerouted.z = [1 if eid in pair else 0 for eid in range(sg.m)]
    rerouted.den, rerouted.cost_num = 4, 10 ** 9
    monkeypatch.setattr(cover_mod.CirculationProblem, "solve",
                        lambda self: [0] * sg.n + rerouted.z)
    cover_mod.round_circulation(rerouted, aug, cover, checker)


def _backbone_free_indegree(monkeypatch, checker):
    # three more copies of edge 4 -> 5 inside the component {3, 4, 5, ...}
    # that the rounding keeps away from the backbone
    from atsp_approx.cover import (_check_rounded_structure, build_augmented_graph,
                                   build_level_structure, compute_witness_flow,
                                   lift_and_reroute, round_circulation)
    from test_cover import remote_cluster_pair

    pair = remote_cluster_pair()
    cover = SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g))
    levels = build_level_structure(cover.pair)
    setup = Checker()  # the checks of the stages before the fault are not counted
    witness = compute_witness_flow(cover, levels, setup)
    aug = build_augmented_graph(cover, witness, levels, setup)
    rounded = round_circulation(lift_and_reroute(cover, witness, aug, setup), aug, cover, setup)
    assert (aug.g.edges[4].tail, aug.g.edges[4].head) == (4, 5)
    rounded.f_bar.add(4, 3)
    _check_rounded_structure(rounded.f_bar, rounded.f_star_lower, aug, cover, checker)


_WITNESS_EDGE_LABELS = ("witness-zero-on-backward", "witness-full-on-forward",
                        "witness-bounded-on-neutral")

# label: (inject, the labels checked in the same loop)
BULK_FAULTS = {
    "induced-cost-identity": (_induced_cost_identity, ()),
    "x-positive": (lambda mp, ch: _validate_bad_x(mp, ch, _zero_x),
                   ("induced-cost-consistent",)),
    "induced-cost-consistent": (lambda mp, ch: _validate_bad_x(mp, ch, _raise_cost),
                                ("x-positive",)),
    "x-circulation": (lambda mp, ch: _validate_bad_x(mp, ch, _raise_x), ()),
    "h-eulerian": (_h_eulerian, ()),
    "h-avoids-backbone": (_h_avoids_backbone, ()),
    "initialization-eulerian": (
        _initialization(lambda pair: _open_path(pair.instance.g)),
        ()),
    "initialization-avoids-backbone": (
        _initialization(lambda pair: _two_cycle_on_backbone(pair.instance.g,
                                                            pair.backbone_vertices)),
        ()),
    "solution-eulerian": (_solution_eulerian, ()),
    "lifted-eulerian": (_lifted_eulerian, ()),
    "mapped-back-eulerian": (_mapped_back_eulerian, ()),
    "cover-eulerian": (_cover_eulerian, ()),
    "ell-regularity": (_ell_regularity, ()),
    "witness-zero-on-backward": (_bad_witness(_flow_on_backward), _WITNESS_EDGE_LABELS),
    "witness-full-on-forward": (_bad_witness(_short_on_forward), _WITNESS_EDGE_LABELS),
    "witness-bounded-on-neutral": (_bad_witness(_over_on_neutral), _WITNESS_EDGE_LABELS),
    "witness-nonnegative-excess": (_bad_witness(_negative_excess), ()),
    "copy-edge-class-preserved": (_copy_edge_class, ()),
    "rounding-edge-caps": (_rounding_edge_caps, ()),
    "rounding-upper-indegree": (_rounding_upper_indegree, ("rounding-edge-caps",)),
    "backbone-free-indegree": (_backbone_free_indegree, ()),
}

# label: (detail, counters of the loop's labels when it raised)
BULK_FAULTS_RECORDED = {
    "backbone-free-indegree": ("vertex 5: in-degree 4", {"backbone-free-indegree": 2}),
    "copy-edge-class-preserved": ("edge 7", {"copy-edge-class-preserved": 8}),
    "cover-eulerian": ("vertex 2", {"cover-eulerian": 3}),
    "ell-regularity": ("vertex 2: -290999994/91", {"ell-regularity": 3}),
    "h-avoids-backbone": ("edge 0", {"h-avoids-backbone": 1}),
    "h-eulerian": ("vertex 0", {"h-eulerian": 1}),
    "induced-cost-consistent": ("edge 4", {"induced-cost-consistent": 5, "x-positive": 5}),
    "induced-cost-identity": ("edge 3->4: 0 != 0", {"induced-cost-identity": 4}),
    "initialization-avoids-backbone": ("edge 0", {"initialization-avoids-backbone": 1}),
    "initialization-eulerian": ("vertex 0", {"initialization-eulerian": 1}),
    "lifted-eulerian": ("vertex 0", {"lifted-eulerian": 1}),
    "mapped-back-eulerian": ("vertex 2", {"mapped-back-eulerian": 3}),
    "rounding-edge-caps": ("edge 9", {"rounding-edge-caps": 10}),
    "rounding-upper-indegree": ("vertex 8: 2", {"rounding-upper-indegree": 9,
                                                "rounding-edge-caps": 56}),
    "solution-eulerian": ("vertex 0", {"solution-eulerian": 1}),
    "witness-bounded-on-neutral": ("edge 11", {"witness-zero-on-backward": 1,
                                               "witness-full-on-forward": 1,
                                               "witness-bounded-on-neutral": 10}),
    "witness-full-on-forward": ("edge 14", {"witness-zero-on-backward": 2,
                                            "witness-full-on-forward": 3,
                                            "witness-bounded-on-neutral": 10}),
    "witness-nonnegative-excess": ("vertex 1", {"witness-nonnegative-excess": 1}),
    "witness-zero-on-backward": ("edge 15", {"witness-zero-on-backward": 3,
                                             "witness-full-on-forward": 3,
                                             "witness-bounded-on-neutral": 10}),
    "x-circulation": ("vertex 3", {"x-circulation": 4}),
    "x-positive": ("edge 5", {"x-positive": 6, "induced-cost-consistent": 5}),
}


def trip_bulk_fault(label, monkeypatch):
    inject, loop_labels = BULK_FAULTS[label]
    checker = Checker()
    with pytest.raises(InternalCheckError) as info:
        inject(monkeypatch, checker)
    counts = {name: checker.counters[name] for name in (label, *loop_labels)}
    return info.value, counts


@pytest.mark.parametrize("label", sorted(BULK_FAULTS))
def test_bulk_counted_check_trips_as_the_loop_of_checks_did(label, monkeypatch):
    error, counts = trip_bulk_fault(label, monkeypatch)
    assert error.label == label
    assert (error.detail, counts) == BULK_FAULTS_RECORDED[label]
