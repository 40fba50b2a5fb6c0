"""Canonical graphs shared across the test suite, and the benchmark's
workload module."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from atsp_approx.graph import Digraph, LaminarFamily
from atsp_approx.instance import StronglyLaminarInstance
from atsp_approx.rational import common_denominator


def c3() -> Digraph:
    """Directed triangle on {0,1,2}, unit costs."""
    return Digraph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])


def k2() -> Digraph:
    """Two vertices with arcs both ways, cost 1."""
    return Digraph(2, [(0, 1, 1), (1, 0, 1)])


def two_tri() -> Digraph:
    """Two unit-cost triangles {0,1,2} and {3,4,5} joined by arcs (0,3) and
    (3,0) of cost 5."""
    return Digraph(6, [
        (0, 1, 1), (1, 2, 1), (2, 0, 1),
        (3, 4, 1), (4, 5, 1), (5, 3, 1),
        (0, 3, 5), (3, 0, 5),
    ])


def rational_instance(g: Digraph, weighted_sets, x) -> StronglyLaminarInstance:
    """The instance on g whose family has the given rational weights (pairs
    of a vertex set and its weight) and whose x is the given rational
    vector, each handed over as numerators over a common denominator."""
    weighted_sets = list(weighted_sets)
    sets = [s for s, _ in weighted_sets]
    weight_num, den = common_denominator([y for _, y in weighted_sets])
    family = LaminarFamily(zip(sets, weight_num), g.n, den)
    return StronglyLaminarInstance(g, family, *common_denominator(x))


def perfbench_workloads():
    """perfbench/workloads.py, loaded by path: perfbench is not a package.
    Its dataclass needs the module registered while it is defined."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
