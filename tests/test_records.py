"""The five public result records keep the constructor, value equality and
repr they had as dataclasses: construction by position and by keyword with
the same field names, ``==`` field by field, and ``Name(field=value, ...)``
reprs pinned on one small solve.  ``VertebratePair`` and ``ContractionMap``
are read-only, and equal contraction maps hash equal."""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction

import pytest

from atsp_approx import (
    Checker,
    ContractionMap,
    EdgeMultiset,
    RunReport,
    SubtourCoverInstance,
    TourCertificate,
    VertebratePair,
    build_strongly_laminar_instance,
    contract,
    run_pipeline,
    solve_atsp,
)
from fixtures import two_tri

F = Fraction


def masked(obj) -> str:
    """repr with object addresses blanked: the records hold graphs and
    instances whose repr is the default one."""
    return re.sub(r" at 0x[0-9a-f]+", " at 0x", repr(obj))


def pair_of(inst) -> VertebratePair:
    return VertebratePair(inst, EdgeMultiset(inst.g), frozenset({0}))


def test_records_construct_by_position_and_by_keyword():
    g = two_tri()
    inst, _, _ = build_strongly_laminar_instance(g, Checker())
    tour = EdgeMultiset(inst.g, {0: 1})
    cases = [
        (RunReport, ("instance", "n", "epsilon", "lp_value", "tour_cost", "ratio",
                     "tour_walk", "assertion_counts", "held_karp", "timings"),
         ("r", 6, F(1), F(16), F(16), F(1), [[0, 1]], {"x-positive": 1}, F(16),
          {"solve_s": 0.5})),
        (TourCertificate, ("tour", "walk", "cost", "lp_value", "ratio", "epsilon"),
         (tour, [0], F(16), F(16), F(1), F(1))),
        (ContractionMap, ("vertex_map", "edge_origin"), ((0, 0, 1), (2,))),
        (VertebratePair, ("instance", "backbone", "backbone_vertices"),
         (inst, tour, frozenset({0, 1}))),
        (SubtourCoverInstance, ("pair", "h"), (pair_of(inst), EdgeMultiset(inst.g))),
    ]
    for cls, names, args in cases:
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(names, args)))
        for name, value in zip(names, args):
            assert getattr(by_position, name) is value, (cls, name)
            assert getattr(by_keyword, name) is value, (cls, name)
        assert by_position == by_keyword


def test_run_report_defaults_are_fresh():
    a = RunReport("r", 1, F(1), F(0), F(0), F(1), [], {})
    b = RunReport("r", 1, F(1), F(0), F(0), F(1), [], {})
    assert a.held_karp is None and a.timings == {}
    a.timings["solve_s"] = 1.0
    assert b.timings == {}


def test_records_compare_by_value():
    g = two_tri()
    inst, _, _ = build_strongly_laminar_instance(g, Checker())
    report = RunReport("r", 6, F(1), F(16), F(16), F(1), [[0, 1]], {"x-positive": 1})
    same = RunReport("r", 6, F(1), F(16), F(16), F(1), [[0, 1]], {"x-positive": 1})
    assert report == same and not report != same
    same.timings["solve_s"] = 0.5
    assert report != same
    cert = TourCertificate(EdgeMultiset(g, {0: 1}), [0], F(16), F(16), F(1), F(1))
    assert cert == TourCertificate(EdgeMultiset(g, {0: 1}), [0], F(16), F(16), F(1), F(1))
    assert cert != TourCertificate(EdgeMultiset(g, {0: 2}), [0], F(16), F(16), F(1), F(1))
    cmap = ContractionMap((0, 0, 1), (2,))
    assert cmap == ContractionMap((0, 0, 1), (2,))
    assert cmap != ContractionMap((0, 1, 1), (2,))
    pair = pair_of(inst)
    assert pair == pair_of(inst)
    assert pair != VertebratePair(inst, EdgeMultiset(inst.g), frozenset({1}))
    # the instance compares by identity
    other, _, _ = build_strongly_laminar_instance(g, Checker())
    assert pair != pair_of(other)
    cover = SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g))
    assert cover == SubtourCoverInstance(pair_of(inst), EdgeMultiset(inst.g))
    assert cover != SubtourCoverInstance(pair_of(inst), EdgeMultiset(inst.g, {0: 1}))
    # no record equals a record of another class or a tuple of its fields
    assert cmap != ((0, 0, 1), (2,))
    assert report != cert


def test_vertebrate_pair_and_contraction_map_are_read_only():
    inst, _, _ = build_strongly_laminar_instance(two_tri(), Checker())
    pair = pair_of(inst)
    cmap = ContractionMap((0, 0, 1), (2,))
    for record, name, value in ((pair, "backbone_vertices", frozenset({1})),
                                (pair, "instance", None),
                                (cmap, "vertex_map", (1, 1, 0)),
                                (cmap, "extra", 1)):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert pair.backbone_vertices == frozenset({0})
    assert cmap.vertex_map == (0, 0, 1)


def test_equal_contraction_maps_hash_equal():
    _, first = contract(two_tri(), [frozenset({0, 1, 2})])
    _, second = contract(two_tri(), [frozenset({0, 1, 2})])
    assert first is not second and first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_reprs_on_a_small_solve_are_the_dataclass_reprs():
    g = two_tri()
    report = run_pipeline("two-tri", g, F(1), with_oracle=True)
    report.timings = {}
    # the report's repr lists about fifty check labels; its digest is pinned
    assert masked(report).startswith(
        "RunReport(instance='two-tri', n=6, epsilon=Fraction(1, 1), "
        "lp_value=Fraction(16, 1), tour_cost=Fraction(16, 1), ratio=Fraction(1, 1), "
        "tour_walk=[[0, 1], [1, 2], [2, 0], [0, 3], [3, 4], [4, 5], [5, 3], [3, 0]], "
        "assertion_counts={'approximation-guarantee': 1, ")
    assert masked(report).endswith(", held_karp=Fraction(16, 1), timings={})")
    assert hashlib.sha256(masked(report).encode()).hexdigest() == \
        "d43565ad159cd72eb4abfcb2ef0bd6edc1f0909cdb3d1e5a0cbe172bd1b25965"
    assert masked(solve_atsp(g, F(1), Checker())) == (
        "TourCertificate(tour=<atsp_approx.graph.EdgeMultiset object at 0x>, "
        "walk=[0, 1, 2, 6, 3, 4, 5, 7], cost=Fraction(16, 1), "
        "lp_value=Fraction(16, 1), ratio=Fraction(1, 1), epsilon=Fraction(1, 1))")
    _, cmap = contract(g, [frozenset({0, 1, 2})])
    assert repr(cmap) == \
        "ContractionMap(vertex_map=(0, 0, 0, 1, 2, 3), edge_origin=(3, 4, 5, 6, 7))"
    inst, _, _ = build_strongly_laminar_instance(g, Checker())
    pair_repr = (
        "VertebratePair(instance=<atsp_approx.instance.StronglyLaminarInstance "
        "object at 0x>, backbone=<atsp_approx.graph.EdgeMultiset object at 0x>, "
        "backbone_vertices=frozenset({0}))")
    assert masked(pair_of(inst)) == pair_repr
    assert masked(SubtourCoverInstance(pair_of(inst), EdgeMultiset(inst.g))) == (
        f"SubtourCoverInstance(pair={pair_repr}, "
        "h=<atsp_approx.graph.EdgeMultiset object at 0x>, "
        "w_sets=[frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4}), "
        "frozenset({5})])")
