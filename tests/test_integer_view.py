"""The integer view of costs, x, weights and budgets.

Instances, digraphs and budget functions keep their numbers as integer
numerators over one denominator each, so the certified checks compare ints.
These tests make sure the integer checks still trip on broken inputs, that
the budget comparisons take the branches exact `Fraction` ledgers take, and
that no `Fraction` arithmetic leaks back into the hot checks.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction

import pytest

from atsp_approx import cover as cover_module
from atsp_approx import lp as lp_module
from atsp_approx import svensson as svensson_module
from atsp_approx import vertebrate as vertebrate_module
from atsp_approx.checks import Checker
from atsp_approx.cover import subtour_cover
from atsp_approx.errors import InternalCheckError
from atsp_approx.graph import Digraph, EdgeMultiset, integer_edges
from atsp_approx.harness import GENERATOR_MODELS, gen_instance, run_pipeline
from atsp_approx.instance import StronglyLaminarInstance
from atsp_approx.pair import VertebratePair
from atsp_approx.svensson import (
    ComponentState,
    EllFunction,
    build_ell,
    svensson_iterate,
    vertebrate_solve,
)
from fixtures import rational_instance, two_tri
from test_cover import make_pair
from test_determinism import REDUCTION_CASES
from test_svensson import ring_cycle_avoiding_backbone, ring_pair

F = Fraction


def _rebuilt(inst: StronglyLaminarInstance, costs=None, weights=None, x=None):
    """A copy of inst built through the constructor, with the given edge
    costs, family weights or x in place of its own."""
    g = inst.g
    costs = costs or [e.cost for e in g.edges]
    g2 = Digraph(g.n, *integer_edges((e.tail, e.head, c) for e, c in zip(g.edges, costs)))
    weights = weights or {s: inst.family.weight(s) for s in inst.family}
    return rational_instance(g2, [(s, weights[s]) for s in inst.family.members],
                             x or inst.x)


def _raised(inst):
    with pytest.raises(InternalCheckError) as err:
        inst.validate(Checker())
    return err.value.label


def test_halved_x_trips_family_cut_tight():
    inst = make_pair(two_tri()).instance
    assert _raised(_rebuilt(inst, x=[v / 2 for v in inst.x])) == "family-cut-tight"


def test_moved_induced_cost_trips_induced_cost_consistent():
    # a cost off the instance's common denominator by half a unit
    inst = make_pair(two_tri()).instance
    costs = [e.cost for e in inst.g.edges]
    costs[0] += F(1, 2 * inst._den)
    assert _raised(_rebuilt(inst, costs=costs)) == "induced-cost-consistent"


def test_unbalanced_x_trips_x_circulation():
    inst = make_pair(two_tri()).instance
    x = list(inst.x)
    x[0] += 1
    assert _raised(_rebuilt(inst, x=x)) == "x-circulation"


def test_corrupted_stored_integers_trip_validate():
    # validate reads the numerators every later stage reads, so a change to
    # them after construction is seen
    inst = make_pair(two_tri()).instance
    inst._x_num[0] += 1
    assert _raised(inst) == "x-circulation"
    inst = make_pair(two_tri()).instance
    inst._weight_num[inst.family.members.index(inst.family.nonsingletons()[0])] += 1
    assert _raised(inst) == "induced-cost-consistent"


class _RecordingChecker(Checker):
    """Records failed labels instead of raising."""

    def __init__(self):
        super().__init__()
        self.failures: list[str] = []

    def check(self, cond, label, detail=None):
        self.counters[label] += 1
        if not cond:
            self.failures.append(label)


def test_raised_weight_trips_lp_equals_dual_objective():
    # Induced costs and tight cuts imply c(x) = 2 sum(y), so a raised weight
    # on a fixed graph trips induced-cost-consistent first; the dual
    # objective check must trip as well.
    inst = make_pair(two_tri()).instance
    s = inst.family.nonsingletons()[0]
    weights = {t: inst.family.weight(t) for t in inst.family}
    weights[s] += F(1, 3)
    bad = _rebuilt(inst, weights=weights)
    assert _raised(bad) == "induced-cost-consistent"
    checker = _RecordingChecker()
    bad.validate(checker)
    assert "lp-equals-dual-objective" in checker.failures
    assert "family-cut-tight" not in checker.failures


def _singleton_ring(n: int) -> VertebratePair:
    """Bidirected n-ring, x = 1/2 per arc, weight 1/2 on every singleton
    but the backbone vertex 0, so every arc costs 1 away from vertex 0."""
    half = F(1, 2)
    y = {v: half for v in range(1, n)}
    edges = []
    for i in range(n):
        j = (i + 1) % n
        cost = y.get(i, F(0)) + y.get(j, F(0))
        edges.extend([(i, j, cost), (j, i, cost)])
    g = Digraph(n, *integer_edges(edges))
    inst = rational_instance(g, [(frozenset({v}), half) for v in range(1, n)], [half] * g.m)
    inst.validate(Checker())
    return VertebratePair(inst, EdgeMultiset(inst.g), frozenset({0}))


def _path_cycle(g: Digraph, verts: set, mult: int) -> EdgeMultiset:
    out = EdgeMultiset(g)
    for e in g.edges:
        if e.tail in verts and e.head in verts:
            out.add(e.eid, mult)
    return out


def _reference_restart(pair, ell: EllFunction, h_tilde, cover_edges):
    """The vertices a restart merges, decided with `Fraction` ledgers: the
    first part whose cover edges bust its budget, else the first cover
    component whose budget beats (1 + eps') times its first part's."""
    g = pair.instance.g
    state = ComponentState(pair, ell, h_tilde)
    by_index: dict[int, list] = {}
    for comp, comp_edges in cover_edges.components():
        by_index.setdefault(state.ind(comp), []).append((comp, comp_edges))
    for i in sorted(by_index):
        cost = sum((ce.cost() for _, ce in by_index[i]), F(0))
        if i and cost > ell.of_set(state.parts[i]):
            return frozenset(state.parts[i]).union(*(c for c, _ in by_index[i]))
    for comp, _ in cover_edges.components():
        i = state.ind(comp)
        if i and ell.of_set(comp) > (1 + ell.consts.eps_prime) * ell.of_set(state.parts[i]):
            return comp
    return None


@pytest.mark.parametrize("eps_prime,over", [(F(55, 69), 1), (F(20, 23), 0)])
def test_budget_overrun_by_one_unit_takes_the_fraction_branch(eps_prime, over,
                                                              monkeypatch):
    # 10-ring; H-tilde joins 5 and 6 into the heaviest part, and the cover
    # doubles the paths 2..5 and 6..9, both first touching that part.  With
    # ell(v) = 6 + 6.9 eps', the cover costs 24 = 2 ell(v) + over.
    pair = _singleton_ring(10)
    g = pair.instance.g
    ell = build_ell(pair, eps_prime * F(91, 6), Checker())
    assert ell.consts.eps_prime == eps_prime
    h_tilde = _path_cycle(g, {5, 6}, 1)
    cover_edges = _path_cycle(g, {2, 3, 4, 5}, 2).union(_path_cycle(g, {6, 7, 8, 9}, 2))
    part = ComponentState(pair, ell, h_tilde).parts[1]
    assert part == frozenset({5, 6})
    assert cover_edges.cost() == ell.of_set(part) + over
    merged = []
    original = svensson_module.improved_initialization

    def recording(state, d_vertices, d_edges, checker):
        merged.append(d_vertices)
        return original(state, d_vertices, d_edges, checker)

    monkeypatch.setattr(svensson_module, "improved_initialization", recording)
    result = svensson_iterate(pair, ell, h_tilde, lambda cover, checker:
                              cover_edges.copy(), checker=Checker())
    expected = _reference_restart(pair, ell, h_tilde, cover_edges)
    assert result.kind == "better"
    assert merged == [expected]
    assert expected == (frozenset(range(2, 10)) if over else frozenset({2, 3, 4, 5}))


FRACTION_OPS = ("__add__", "__radd__", "__mul__", "__rmul__", "__sub__",
                "__lt__", "__le__", "__eq__")


def test_no_fraction_arithmetic_in_integer_checks(monkeypatch):
    """Counts `Fraction` arithmetic and comparisons made while one of the
    integer-view routines runs; there must be none."""
    inside = [0]
    ops: Counter = Counter()
    entered: Counter = Counter()
    for name in FRACTION_OPS:
        def counting(self, other, _original=getattr(Fraction, name), _name=name):
            if inside[0]:
                ops[_name] += 1
            return _original(self, other)

        monkeypatch.setattr(Fraction, name, counting)
    # induced_graph is watched where lp and vertebrate look it up
    watched = [(StronglyLaminarInstance, "__init__"), (StronglyLaminarInstance, "validate"),
               (lp_module, "induced_graph"), (vertebrate_module, "induced_graph"),
               (vertebrate_module, "construct_backbone"),
               (vertebrate_module, "_build_child_instance"), (EdgeMultiset, "cost"),
               (EllFunction, "of_set"), (lp_module, "dual_feasible"),
               (cover_module, "compute_witness_flow"),
               (cover_module, "validate_witness_flow")]
    for owner, attr in watched:
        def watching(*args, _original=getattr(owner, attr), _attr=attr, **kwargs):
            inside[0] += 1
            entered[_attr] += 1
            try:
                return _original(*args, **kwargs)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(owner, attr, functools.wraps(getattr(owner, attr))(watching))
    for model in GENERATOR_MODELS:
        for n in range(9, 13):
            run_pipeline(f"{model}-{n}", gen_instance(model, n, 0), F(1))
    for build in REDUCTION_CASES.values():
        run_pipeline("reduction", build(), F(1))
    # a restart evaluates the budgets of the parts it merges
    pair = ring_pair()
    ring = ring_cycle_avoiding_backbone(pair)
    calls = [0]

    def two_phase_cover(cover, checker):
        calls[0] += 1
        return ring.copy() if calls[0] == 1 else subtour_cover(cover, checker)

    vertebrate_solve(pair, F(1), cover_fn=two_phase_cover, checker=Checker())
    assert set(entered) == {attr for _, attr in watched}
    assert not ops, dict(ops)
