"""Invariants of the nice-path search trees of `StronglyLaminarInstance`.

One breadth-first search tree per (source, hull) stands in for the
per-pair searches: each tree path must be the path `graph.bfs_path` finds
inside the hull, with its cost and its twice-crossed sets carried down the
tree, and a path is built only for a pair that needs a repair or that
`nice_path` asks for.
"""

from __future__ import annotations

import pytest

from atsp_approx import instance as instance_module
from atsp_approx.checks import Checker
from atsp_approx.errors import InternalCheckError
from atsp_approx.graph import bfs_path
from atsp_approx.harness import GENERATOR_MODELS, gen_instance
from atsp_approx.instance import StronglyLaminarInstance
from atsp_approx.lp import build_strongly_laminar_instance
from test_determinism import nested_hub
from test_instance import detour_instance
from test_instance_reference import _fixtures, _generated, _random_laminar, _with_children


def _assert_tree_invariants(name, inst):
    """Validates a cold copy of inst, then checks every ordered pair against
    a search of its own; returns the repaired pairs."""
    inst = StronglyLaminarInstance(inst.g, inst.family, inst.x)  # cold memo tables
    n = inst.g.n
    checker = Checker()
    inst.validate_paths(checker)
    assert checker.counters["stored-path-nice"] == n * (n - 1), name
    repaired = set()
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            parent, cost, bad = inst._hull_tree(u, v)[v]
            tree_path = bfs_path(inst.g, u, v, allowed_vertices=inst.hull(u, v))
            assert tree_path[-1] == parent, (name, u, v)
            assert cost == sum(inst._cost_num[eid] for eid in tree_path), (name, u, v)
            first = inst._first_violated(tree_path)
            assert (bad == 0) == (first is None), (name, u, v)
            if bad:
                assert first == (bad & -bad).bit_length() - 1, (name, u, v)
                repaired.add((u, v))
            path = inst.nice_path(u, v)
            if not bad:
                assert list(path) == tree_path, (name, u, v)
            assert inst.is_nice(u, v, path), (name, u, v)
            assert inst._nice_path_num(u, v) == sum(inst._cost_num[eid] for eid in path)
    return repaired


@pytest.mark.parametrize("source", ("fixtures",) + GENERATOR_MODELS)
def test_tree_invariants(source):
    instances = _fixtures() if source == "fixtures" else _generated(source)
    for name, inst in instances:
        for k, case in enumerate(_with_children(inst)):
            _assert_tree_invariants(f"{name}/{k}", case)


def test_tree_invariants_on_random_laminar_families():
    repaired = {}
    for name, inst in _random_laminar(300):
        for pair in _assert_tree_invariants(name, inst):
            repaired[(name, *pair)] = inst
    assert len(repaired) == 65
    # one of them: the tree path 5 -> 7 enters a set twice
    inst = repaired[("random-laminar-8", 5, 7)]
    assert inst.nice_path(5, 7) == (4, 14, 17)


def test_validate_paths_stores_only_repaired_pairs():
    inst = detour_instance()
    inst.validate_paths(Checker())
    assert inst._paths == {
        (0, 2): (0, 5, 6), (0, 5): (0, 5, 6, 3), (1, 0): (5, 6, 3, 4),
        (1, 5): (5, 6, 3), (1, 6): (5, 6, 3, 4, 8), (1, 7): (5, 6, 3, 4, 8, 9),
        (1, 8): (5, 6, 3, 4, 8, 9, 10), (5, 2): (4, 0, 5, 6),
        (9, 2): (13, 4, 0, 5, 6),
    }


def test_corrupted_stored_path_trips_validate_paths():
    inst = detour_instance()
    inst._paths[(0, 5)] = (0, 1, 2, 3)  # enters {1, 2, 4} twice
    with pytest.raises(InternalCheckError) as info:
        inst.validate_paths(Checker())
    assert info.value.label == "stored-path-nice"


@pytest.mark.parametrize("model,n", [("cycle", 200), ("random-strong", 60)])
def test_validate_paths_and_dw_build_no_path(model, n, monkeypatch):
    # work counts, not times: no per-pair search, at most one tree per
    # (source, set on its chain or the ground set), and no path built
    built = build_strongly_laminar_instance(gen_instance(model, n, 0))[0]
    inst = StronglyLaminarInstance(built.g, built.family, built.x)
    searches = []

    def counting(*args, **kwargs):
        searches.append(args)
        return bfs_path(*args, **kwargs)

    monkeypatch.setattr(instance_module, "bfs_path", counting)
    inst.validate_paths(Checker())
    inst.value_and_dw(inst.ground, Checker())
    assert not any(bad for tree in inst._trees.values() for _, _, bad in tree.values())
    assert searches == []
    assert len(inst._trees) <= sum(len(chain) + 1 for chain in inst._chains)
    assert inst._paths == {}


@pytest.mark.parametrize("graph", [
    lambda: gen_instance("cycle", 200, 0),
    lambda: gen_instance("random-strong", 60, 0),
    lambda: nested_hub((3, 2, 4), (2, 3, 2)),
], ids=["cycle-200", "random-strong-60", "nested-hub"])
def test_hull_depths_are_not_walked_per_pair(graph, monkeypatch):
    # work counts, not times: the hull of a pair is looked up from its
    # source's chain, so chain-prefix walks stay O(n + m), not O(n^2)
    built = build_strongly_laminar_instance(graph())[0]
    inst = StronglyLaminarInstance(built.g, built.family, built.x)
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
