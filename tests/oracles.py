"""Test oracles for the paper's quantities that the package itself never
needs: the windows of an instance, a singleton's weight, the outside
singleton mass of a vertebrate pair and the projection pi of a split-graph
circulation, each computed from the package's public data."""

from __future__ import annotations

from fractions import Fraction

from atsp_approx.cover import SplitGraph
from atsp_approx.instance import StronglyLaminarInstance
from atsp_approx.pair import VertebratePair


def family_or_ground(inst: StronglyLaminarInstance) -> list[frozenset]:
    """Every window of the instance: the family sets, led by the ground set
    when the family does not hold it."""
    out = list(inst.family.members)
    if inst.ground not in inst.family:
        out.insert(0, inst.ground)
    return out


def y_vertex(inst: StronglyLaminarInstance, v: int) -> Fraction:
    """Weight of the singleton {v}, or 0."""
    s = frozenset({v})
    return inst.family.weight(s) if s in inst.family else Fraction(0)


def outside_singleton_mass(pair: VertebratePair) -> Fraction:
    """sum of 2 y_v over vertices outside the backbone."""
    return sum((2 * y_vertex(pair.instance, v) for v in pair.outside_vertices()),
               Fraction(0))


def project_from_split(split: SplitGraph, z: list) -> tuple[list, list]:
    """The projection pi: per base edge, x' = z(lower) + z(upper) and
    f' = z(lower)."""
    base = split.base
    x_vec = [0] * base.m
    f_vec = [0] * base.m
    for eid in range(base.m):
        lo = split.lower_of.get(eid)
        up = split.upper_of.get(eid)
        if lo is not None:
            x_vec[eid] += z[lo]
            f_vec[eid] += z[lo]
        if up is not None:
            x_vec[eid] += z[up]
    return x_vec, f_vec
