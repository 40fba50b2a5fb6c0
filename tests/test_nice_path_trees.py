"""Invariants of the nice paths and the nice-path cost table of
`StronglyLaminarInstance`.

Both come from one breadth-first search over the blocks of a hull (its
child sets, and its vertices in none): a nice path follows the block path
and crosses each block by a nice path inside it, and the table takes one
search per (hull, block) for every source in the block.  So every path
must be nice and stay in its hull, each table entry must be its path's
cost, and `validate_paths` and `value_and_dw` must build no path.  The
searches are not kept: once the table is built, the memory held is the
table's, beside each hull's blocks, which are built once and serve the
table and the paths alike.  The checks on the table must count as a
per-pair loop would.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from atsp_approx import instance as instance_module
from atsp_approx.checks import Checker
from atsp_approx.errors import InternalCheckError
from atsp_approx.graph import Digraph, LaminarFamily, bfs_path
from atsp_approx.harness import GENERATOR_MODELS, gen_instance
from atsp_approx.instance import StronglyLaminarInstance
from atsp_approx.lp import build_strongly_laminar_instance
from test_determinism import nested_hub
from test_instance import detour_instance
from test_instance_reference import (_fixtures, _generated, _random_laminar, _with_children,
                                     ref_is_nice)


def _assert_tree_invariants(name, inst):
    """Validates a cold copy of inst, then checks the nice path of every
    ordered pair; returns the pairs whose fewest-edge path inside the hull
    is not nice."""
    # a copy with cold memo tables
    inst = StronglyLaminarInstance(inst.g, inst.family, inst._x_num, inst._x_den)
    n = inst.g.n
    checker = Checker()
    inst.validate_paths(checker)
    assert checker.counters["stored-path-nice"] == n * (n - 1), name
    assert inst._paths == {}, name
    table = inst._path_table()
    not_nice = set()
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            path = inst.nice_path(u, v)
            assert inst.is_nice(u, v, path) and ref_is_nice(inst, u, v, path), (name, u, v)
            assert table[u][v] == sum(inst._cost_num[eid] for eid in path), (name, u, v)
            search_path = bfs_path(inst.g, u, v, allowed_vertices=inst.hull(u, v))
            if not inst.is_nice(u, v, search_path):
                not_nice.add((u, v))
    return not_nice


@pytest.mark.parametrize("source", ("fixtures",) + GENERATOR_MODELS)
def test_tree_invariants(source):
    instances = _fixtures() if source == "fixtures" else _generated(source)
    for name, inst in instances:
        for k, case in enumerate(_with_children(inst)):
            _assert_tree_invariants(f"{name}/{k}", case)


def test_tree_invariants_on_random_laminar_families():
    not_nice = {}
    for name, inst in _random_laminar(300):
        for pair in _assert_tree_invariants(name, inst):
            not_nice[(name, *pair)] = inst
    # the families reach pairs whose fewest-edge path in the hull is not
    # nice; one of them: the search path 5 -> 7 enters a set twice
    assert len(not_nice) == 65
    inst = not_nice[("random-laminar-8", 5, 7)]
    assert inst.is_nice(5, 7, inst.nice_path(5, 7))


def test_nice_path_of_a_chain_nested_deeper_than_the_recursion_limit():
    # a bidirected path whose family is the chain {k, ..., n - 1}, k >= 1:
    # the nice 0-(n-1) path enters the sets one at a time, so its inner
    # paths nest n - 1 deep, twice the recursion limit set here
    n = 400
    g = Digraph(n, [(i, i + 1, 1) for i in range(n - 1)]
                + [(i + 1, i, 1) for i in range(n - 1)])
    family = LaminarFamily([(frozenset(range(k, n)), 1) for k in range(1, n)], n, 1)
    inst = StronglyLaminarInstance(g, family, [1] * g.m, 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(n // 2)
    try:
        path = inst.nice_path(0, n - 1)
    finally:
        sys.setrecursionlimit(limit)
    assert path == tuple(range(n - 1))
    assert inst.is_nice(0, n - 1, path)
    # every inner path k to n - 1 is stored, as is the path itself
    assert sorted(inst._paths) == [(k, n - 1) for k in range(n - 1)]


def test_validate_paths_stores_no_path():
    inst = detour_instance()
    inst.validate_paths(Checker())
    assert inst._paths == {}


def test_corrupted_stored_path_trips_validate_paths():
    inst = detour_instance()
    inst._paths[(0, 5)] = (0, 1, 2, 3)  # enters {1, 2, 4} twice
    with pytest.raises(InternalCheckError) as info:
        inst.validate_paths(Checker())
    assert info.value.label == "stored-path-nice"


@pytest.mark.parametrize("model,n", [("cycle", 200), ("random-strong", 60)])
def test_validate_paths_and_dw_build_no_path(model, n, monkeypatch):
    # work counts, not times: the table is filled without building a path
    built = build_strongly_laminar_instance(gen_instance(model, n, 0), Checker())[0]
    inst = StronglyLaminarInstance(built.g, built.family, built._x_num, built._x_den)
    computed = []

    def counting(self, u, v):
        computed.append((u, v))
        return compute(self, u, v)

    compute = StronglyLaminarInstance._compute_nice_path
    monkeypatch.setattr(StronglyLaminarInstance, "_compute_nice_path", counting)
    inst.validate_paths(Checker())
    inst.value_and_dw(inst.ground, Checker())
    assert computed == []
    assert inst._paths == {}


def test_validate_paths_retains_only_the_table():
    # the block searches that fill the cost table are dropped once their
    # rows are written: what validate_paths leaves behind on the 300-vertex
    # cycle is about the n x n table (2.4 MB), not one search per source
    built = build_strongly_laminar_instance(gen_instance("cycle", 300, 0), Checker())[0]
    inst = StronglyLaminarInstance(built.g, built.family, built._x_num, built._x_den)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inst.validate_paths(Checker())
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4_000_000


@pytest.mark.parametrize("paths_first", [False, True])
def test_blocks_are_built_once_per_hull(paths_first, monkeypatch):
    # the table and every nice path, in either order, share one blocks
    # record per hull: the family's sets and the ground set
    built = build_strongly_laminar_instance(nested_hub((3, 2, 4), (2, 3, 2)), Checker())[0]
    inst = StronglyLaminarInstance(built.g, built.family, built._x_num, built._x_den)
    returned = []

    def recording(self, hull, k):
        record = blocks(self, hull, k)
        returned.append((hull, id(record)))
        return record

    blocks = StronglyLaminarInstance._blocks
    monkeypatch.setattr(StronglyLaminarInstance, "_blocks", recording)
    n = inst.g.n
    steps = [lambda: inst.validate_paths(Checker()),
             lambda: [inst.nice_path(u, v) for u in range(n) for v in range(n)]]
    for step in steps[::-1] if paths_first else steps:
        step()
    hulls = {hull for hull, _ in returned}
    assert hulls == set(inst.family.members) | {inst.ground}
    assert len(set(returned)) == len(hulls) < len(returned)
    assert set(inst._hull_blocks) == hulls


@pytest.mark.parametrize("graph", [
    lambda: gen_instance("cycle", 200, 0),
    lambda: gen_instance("random-strong", 60, 0),
    lambda: nested_hub((3, 2, 4), (2, 3, 2)),
], ids=["cycle-200", "random-strong-60", "nested-hub"])
def test_hull_depths_are_not_walked_per_pair(graph, monkeypatch):
    # work counts, not times: the hull of a pair is looked up from its
    # source's chain, so chain-prefix walks stay O(n + m), not O(n^2)
    built = build_strongly_laminar_instance(graph(), Checker())[0]
    inst = StronglyLaminarInstance(built.g, built.family, built._x_num, built._x_den)
    assert max(len(chain) for chain in inst._chains) >= 1
    walks = []

    def counting(a, b):
        walks.append((a, b))
        return common_prefix(a, b)

    common_prefix = instance_module._common_prefix
    monkeypatch.setattr(instance_module, "_common_prefix", counting)
    inst.validate_paths(Checker())
    inst.value_and_dw(inst.ground, Checker())
    assert len(walks) <= inst.g.n + inst.g.m


def _assert_table_matches_paths(name, inst):
    # a copy with cold memo tables
    inst = StronglyLaminarInstance(inst.g, inst.family, inst._x_num, inst._x_den)
    inst.validate_paths(Checker())
    table = inst._path_table()
    n = inst.g.n
    assert len(table) == n and all(len(row) == n for row in table), name
    for u in range(n):
        for v in range(n):
            want = sum(inst._cost_num[eid] for eid in inst.nice_path(u, v))
            assert table[u][v] == want, (name, u, v)


def test_path_table_matches_nice_paths():
    _assert_table_matches_paths("detour", detour_instance())
    for name, inst in _random_laminar(300):
        _assert_table_matches_paths(name, inst)


def _pair_position(verts, u, v):
    """How many pairs a row-major loop over verts x verts checks up to and
    including (u, v)."""
    return verts.index(u) * len(verts) + verts.index(v) + 1


@pytest.mark.parametrize("window", ["ground", "inner"])
def test_raised_table_entry_trips_reach_at_most_value(window):
    inst = detour_instance()
    w_set = inst.ground if window == "ground" else frozenset({1, 2, 4})
    verts = sorted(w_set)
    value_num = inst.value(w_set)
    table = inst._path_table()
    u, v = verts[-2], verts[1]
    table[u][v] = value_num + 1
    table[verts[-1]][verts[0]] = value_num + 1  # a later pair over value(W) too
    checker = Checker()
    with pytest.raises(InternalCheckError) as info:
        inst.value_and_dw(w_set, checker)
    assert info.value.label == "reach-at-most-value"
    assert f"D_W({u},{v})" in str(info.value)
    assert checker.counters["reach-at-most-value"] == _pair_position(verts, u, v)
    # with the entry back in range, every pair counts once
    table[u][v] = table[verts[-1]][verts[0]] = 0
    checker = Checker()
    inst.value_and_dw(w_set, checker)
    assert checker.counters["reach-at-most-value"] == len(verts) ** 2


def test_corrupted_stored_path_stops_the_count_at_its_pair():
    inst = detour_instance()
    inst._paths[(3, 1)] = (2, 7)  # 3 -> 2 -> 1 stays outside no set: nice
    inst._paths[(1, 5)] = (1, 2, 7, 5, 6, 3)  # enters {1, 2, 4} twice
    inst._paths[(9, 2)] = (0,)  # a later pair, not even a 9-2 path
    checker = Checker()
    with pytest.raises(InternalCheckError) as info:
        inst.validate_paths(checker)
    assert "pair (1,5)" in str(info.value)
    # pairs (0, 1..9) and (1, 0), (1, 2..5): 9 + 5
    assert checker.counters["stored-path-nice"] == 14
