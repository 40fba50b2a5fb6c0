"""Differential test of the instance layer against the member-scan reference.

`StronglyLaminarInstance` finds hulls and crossing counts from per-vertex
chains, builds nice paths on request through the laminar tree, and fills
the nice-path cost table from block searches.  The functions below scan
every family member for each query.  Over the fixtures, the generated
instances, the child instances of their first reductions, and random
laminar families on random digraphs (where the fewest-edge path in a hull
is often not nice), every hull and niceness verdict must agree with the
reference, and every nice path must be nice and stay in its hull by the
reference's count, cost exactly its table entry, satisfy the
crossing-weight identity in every window holding both ends, and give the
reference's (value(W), D_W, argmax).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from atsp_approx.checks import Checker
from atsp_approx.graph import Digraph, LaminarFamily, bfs_path
from atsp_approx.harness import GENERATOR_MODELS, gen_instance
from atsp_approx.instance import StronglyLaminarInstance, induced_graph
from atsp_approx.lp import build_strongly_laminar_instance
from atsp_approx.vertebrate import construct_backbone, contracted_pair
from fixtures import c3, two_tri
from oracles import family_or_ground
from test_instance import detour_instance
from test_vertebrate import three_branch_star

ZERO = Fraction(0)


# -- reference: the member-scan implementation -----------------------------------

def ref_crossings(g, path, s):
    enters = exits = 0
    for eid in path:
        e = g.edge(eid)
        tin, hin = e.tail in s, e.head in s
        if hin and not tin:
            enters += 1
        elif tin and not hin:
            exits += 1
    return enters, exits


def ref_path_vertices(g, start, path):
    verts = [start]
    for eid in path:
        verts.append(g.edge(eid).head)
    return verts


def ref_hull(inst, u, v):
    best = inst.ground
    for s in inst.family.members:
        if {u, v} <= s and len(s) < len(best):
            best = s
    return best


def ref_is_nice(inst, u, v, path):
    path = list(path)
    verts = set(ref_path_vertices(inst.g, u, path)) if path else {u}
    if not verts <= ref_hull(inst, u, v):
        return False
    return all(max(ref_crossings(inst.g, path, s)) <= 1 for s in inst.family)


def ref_value_and_dw(inst, w_set, paths, checker):
    fam = inst.family
    val = sum((2 * fam.weight(s) for s in fam.members if s < w_set), ZERO)
    best, best_pair = None, None
    for u in sorted(w_set):
        for v in sorted(w_set):
            d = sum((inst.g.edge(eid).cost for eid in paths.get((u, v), ())), ZERO)
            for s in fam.members:
                if s < w_set:
                    d += fam.weight(s) * ((u in s) + (v in s))
            checker.check(d <= val, "reach-at-most-value")
            if best is None or d > best:
                best, best_pair = d, (u, v)
    return val, best, best_pair[0], best_pair[1]


# -- instances -------------------------------------------------------------------

def _with_children(inst):
    """The instance, and the child of its first window and of each set the
    first backbone misses."""
    out = [inst]
    if inst.g.n < 2:
        return out
    _, _, missed, _, _, _ = construct_backbone(inst, inst.ground, Checker())
    for window in [inst.ground] + [s for s in missed if len(s) > 1]:
        pair = contracted_pair(inst, window, Checker())[0]
        out.append(pair.instance)
    return out


def _fixtures():
    yield "detour", detour_instance()
    yield "three-branch-star", three_branch_star()
    for name, g in (("c3", c3()), ("two-tri", two_tri())):
        yield name, build_strongly_laminar_instance(g)[0]


def _generated(model, seeds=range(3)):
    for n in range(2, 13):
        for seed in seeds:
            yield f"{model}-{n}-{seed}", build_strongly_laminar_instance(
                gen_instance(model, n, seed))[0]


def _random_laminar(count, seed=3):
    """Random laminar families on random digraphs; a directed cycle through
    each set (and through all vertices) keeps every set strongly connected,
    and the costs are the induced ones."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(4, 9)
        order = rng.sample(range(n), n)
        sets = set()

        def split(verts):
            if len(verts) >= 2 and rng.random() < 0.8:
                sets.add(frozenset(verts))
            if len(verts) == 1 and rng.random() < 0.3:
                sets.add(frozenset(verts))
            if len(verts) >= 3:
                cut = rng.randint(1, len(verts) - 1)
                split(verts[:cut])
                split(verts[cut:])

        split(order)
        sets.discard(frozenset(order))
        arcs = set()
        for s in [*sets, frozenset(order)]:
            ring = rng.sample(sorted(s), len(s))
            if len(ring) > 1:
                arcs.update(zip(ring, ring[1:] + ring[:1]))
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                arcs.add((a, b))
        # weights a / b with a in 1..4 and b in 1..3, over 6
        fam = LaminarFamily([(s, rng.randint(1, 4) * (6 // rng.randint(1, 3)))
                             for s in sorted(sets, key=sorted)], n, 6)
        arcs = rng.sample(sorted(arcs), len(arcs))
        g = induced_graph(Digraph(n, [(a, b, 0) for a, b in arcs]), fam)
        yield f"random-laminar-{k}", StronglyLaminarInstance(g, fam, [1] * g.m, 1)


def _assert_matches_member_scan(name, inst):
    # a copy with cold memo tables
    inst = StronglyLaminarInstance(inst.g, inst.family, inst._x_num, inst._x_den)
    n = inst.g.n
    table = inst._path_table()
    paths = {}
    for u in range(n):
        for v in range(n):
            assert inst.hull(u, v) == ref_hull(inst, u, v), (name, u, v)
            if u == v:
                continue
            paths[(u, v)] = path = inst.nice_path(u, v)
            assert ref_is_nice(inst, u, v, path), (name, u, v)
            assert table[u][v] == sum(inst._cost_num[eid] for eid in path), (name, u, v)
            # a shortest path through the whole graph is often not nice
            raw = bfs_path(inst.g, u, v)
            assert inst.is_nice(u, v, raw) == ref_is_nice(inst, u, v, raw), (name, u, v)
    for w_set in family_or_ground(inst):
        identity = Checker()
        for u in sorted(w_set):
            for v in sorted(w_set):
                inst.nice_path_cost_identity(w_set, u, v, identity)
        got, want = Checker(), Checker()
        expected = ref_value_and_dw(inst, w_set, paths, want)
        val, d_w, u, v = inst.value_and_dw(w_set, got)
        assert (Fraction(val, inst._den), Fraction(d_w, inst._den), u, v) == expected, \
            (name, sorted(w_set))
        assert got.as_dict() == want.as_dict(), (name, sorted(w_set))
        assert Fraction(inst.value(w_set), inst._den) == expected[0]


@pytest.mark.parametrize("source", ("fixtures",) + GENERATOR_MODELS)
def test_instance_layer_matches_member_scan(source):
    instances = _fixtures() if source == "fixtures" else _generated(source)
    for name, inst in instances:
        for k, case in enumerate(_with_children(inst)):
            _assert_matches_member_scan(f"{name}/{k}", case)


def test_instance_layer_matches_member_scan_on_random_laminar_families():
    for name, inst in _random_laminar(300):
        _assert_matches_member_scan(name, inst)


def test_contracted_pair_builds_no_nice_path_on_the_child(monkeypatch):
    built = []
    original = StronglyLaminarInstance._compute_nice_path

    def counting(self, u, v):
        built.append(self)
        return original(self, u, v)

    monkeypatch.setattr(StronglyLaminarInstance, "_compute_nice_path", counting)
    cases = list(_fixtures())
    for model in GENERATOR_MODELS:
        cases += _generated(model, seeds=[0])
    for name, inst in cases:
        pair = contracted_pair(inst, inst.ground, Checker())[0]
        assert not any(b is pair.instance for b in built), name
    assert len(cases) == 48 and built
