from __future__ import annotations

from fractions import Fraction

import pytest

from atsp_approx.checks import Checker
from atsp_approx.errors import ContractViolation, InternalCheckError
from atsp_approx.graph import Digraph, LaminarFamily, integer_edges
from atsp_approx.instance import StronglyLaminarInstance, induced_graph
from atsp_approx.lp import build_strongly_laminar_instance
from fixtures import c3, k2, rational_instance, two_tri
from oracles import family_or_ground

F = Fraction


def detour_instance() -> StronglyLaminarInstance:
    """Hand-built instance whose shortest 0->5 path enters {1,2,4} twice.

    A ring 0 -> 1 -> 3 -> 2 -> 5 -> 0 threads through the 3-set {1,2,4}
    twice; an inner cycle 1 -> 4 -> 2 -> 1 provides the repair route; a
    chain 0 -> 6 -> 7 -> 8 -> 3 -> 9 -> 5 carries the extra circulation
    mass that keeps every cut at 2 or more without touching {1,2,4}.
    """
    y_l3, y_single = F(1), F(1, 2)
    edges = [
        (0, 1, y_l3),        # e0
        (1, 3, y_l3),        # e1
        (3, 2, y_l3),        # e2
        (2, 5, y_l3),        # e3
        (5, 0, F(0)),        # e4
        (1, 4, y_single),    # e5
        (4, 2, y_single),    # e6
        (2, 1, F(0)),        # e7
        (0, 6, y_single),    # e8
        (6, 7, y_single),    # e9
        (7, 8, F(0)),        # e10
        (8, 3, F(0)),        # e11
        (3, 9, y_single),    # e12
        (9, 5, y_single),    # e13
    ]
    x = [F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(3, 2),
         F(1), F(1), F(1), F(1), F(1), F(1), F(1), F(1), F(1)]
    return rational_instance(Digraph(10, *integer_edges(edges)), [
        (frozenset({1, 2, 4}), y_l3),
        (frozenset({4}), y_single),
        (frozenset({6}), y_single),
        (frozenset({9}), y_single),
    ], x)


L3 = frozenset({1, 2, 4})


def test_detour_instance_is_valid():
    checker = Checker()
    inst = detour_instance()
    inst.validate(checker)
    inst.validate_paths(checker)
    assert checker.counters["x-feasible-all-cuts"] == 1


def test_nice_path_repairs_double_entry():
    from test_instance_reference import ref_crossings, ref_is_nice

    inst = detour_instance()
    # the fewest-edge path 0 -> 1 -> 3 -> 2 -> 5 enters {1,2,4} twice; the
    # nice path crosses {1,2,4} as one block, by the inner cycle
    path = inst.nice_path(0, 5)
    assert list(path) == [0, 5, 6, 3]
    assert ref_is_nice(inst, 0, 5, path)
    assert ref_crossings(inst.g, path, L3) == (1, 1)


def test_nice_path_stays_in_innermost_set():
    inst = detour_instance()
    # both endpoints inside L3: the whole path must stay inside
    assert list(inst.nice_path(1, 2)) == [5, 6]
    assert list(inst.nice_path(1, 4)) == [5]
    verts = {1} | {inst.g.edge(e).head for e in inst.nice_path(1, 2)}
    assert verts <= L3


def test_nice_path_triangle_singletons():
    from test_instance_reference import ref_crossings

    inst, _, _ = build_strongly_laminar_instance(c3())
    for u in range(3):
        for v in range(3):
            if u != v:
                path = inst.nice_path(u, v)
                for s in inst.family:
                    enters, exits = ref_crossings(inst.g, path, s)
                    assert enters <= 1 and exits <= 1


def test_nice_path_needs_a_strongly_connected_hull():
    # {0, 1} induces only the arc 0 -> 1, so no 1-0 path stays inside it
    family = LaminarFamily([(frozenset({0, 1}), 1)], 3, 1)
    inst = StronglyLaminarInstance(induced_graph(c3(), family), family, [1] * 3, 1)
    with pytest.raises(ContractViolation, match=r"no 1-0 path inside \[0, 1\]"):
        inst.nice_path(1, 0)
    with pytest.raises(ContractViolation, match=r"no 1-0 path inside \[0, 1\]"):
        inst.validate_paths(Checker())


def test_cost_identity_on_detour_fixture():
    inst = detour_instance()
    checker = Checker()
    ground = inst.ground
    assert inst.nice_path_cost_identity(ground, 0, 5, checker) == 3
    assert inst.nice_path_cost_identity(ground, 1, 6, checker) == F(5, 2)
    assert inst.nice_path_cost_identity(L3, 1, 2, checker) == 1
    # path through the 2-cycle at 9 contributes 2*y_9 to both sides
    assert inst.nice_path_cost_identity(ground, 0, 9, checker) == F(5, 2)
    assert checker.counters["nice-path-cost-identity"] == 4


def test_cost_identity_every_pair_every_window():
    inst = detour_instance()
    checker = Checker()
    for w in family_or_ground(inst):
        for u in sorted(w):
            for v in sorted(w):
                inst.nice_path_cost_identity(w, u, v, checker)
    inst2, _, _ = build_strongly_laminar_instance(two_tri())
    for w in family_or_ground(inst2):
        for u in sorted(w):
            for v in sorted(w):
                inst2.nice_path_cost_identity(w, u, v, checker)


def test_value_and_dw_singleton():
    inst = detour_instance()
    val, dw, u, v = inst.value_and_dw(frozenset({7}))
    assert (F(val, inst._den), F(dw, inst._den), u, v) == (0, 0, 7, 7)


def test_value_and_dw_ground():
    inst = detour_instance()
    val, dw, u, v = inst.value_and_dw(inst.ground)
    assert F(val, inst._den) == 5
    assert F(dw, inst._den) == 4
    assert (u, v) == (1, 6)


def test_value_and_dw_inner_set():
    inst = detour_instance()
    val, dw, u, v = inst.value_and_dw(L3)
    assert F(val, inst._den) == 1
    assert F(dw, inst._den) == 1
    assert (u, v) == (1, 2)


def test_value_and_dw_c3_uniform():
    # C3 with y = 1/2 on each singleton: value(V) = 3.  Adjacent ordered
    # pairs give y_u + y_v + c(path) = 2; the reversed pairs need two-edge
    # paths through the third vertex, giving 1/2 + 1/2 + 2 = 3, so D_V = 3.
    inst = rational_instance(c3(), [(frozenset({v}), F(1, 2)) for v in range(3)], [1] * 3)
    assert F(inst.reach(inst.ground, 0, 1), inst._den) == 2
    assert F(inst.reach(inst.ground, 0, 2), inst._den) == 3
    val, dw, u, v = inst.value_and_dw(inst.ground)
    assert F(val, inst._den) == 3
    assert F(dw, inst._den) == 3
    assert (u, v) == (0, 2)


@pytest.mark.parametrize("x_num", [[F(1)] * 3, [1.0] * 3, [True] * 3, [1] * 2, [1] * 4])
def test_instance_takes_one_int_numerator_of_x_per_edge(x_num):
    family = LaminarFamily([(frozenset({v}), 1) for v in range(3)], 3, 2)
    with pytest.raises(ContractViolation):
        StronglyLaminarInstance(c3(), family, x_num, 1)


def test_inputs_not_in_least_terms_give_the_reduced_instance():
    # weights 2, 4 over 6 are 1, 2 over 3; x 2, 2 over 4 is 1, 1 over 2
    sets = (frozenset({0}), frozenset({1}))
    built = []
    for weights, den, x_num, x_den in (((2, 4), 6, [2, 2], 4), ((1, 2), 3, [1, 1], 2)):
        family = LaminarFamily(zip(sets, weights), 2, den)
        g = induced_graph(k2(), family)
        inst = StronglyLaminarInstance(g, family, x_num, x_den)
        built.append((family.weight_num, family.den, inst._x_num, inst._x_den,
                      g.edges, g.cost_den))
    assert built[0] == built[1] == ((1, 2), 3, [1, 1], 2, built[1][4], 3)
    assert [e.cost_num for e in built[0][4]] == [3, 3]


def test_identity_violation_detected():
    # corrupting a stored path must trip the identity check
    inst = detour_instance()
    inst._paths[(0, 5)] = (0, 1, 2, 3)  # the double-entry path
    with pytest.raises(InternalCheckError):
        inst.nice_path_cost_identity(inst.ground, 0, 5, Checker())
