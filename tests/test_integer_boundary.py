"""Where rational costs become int numerators: the input parsers scale them
once, and every graph derived inside the pipeline passes numerators over a
denominator on, so each derived edge costs what its source edge (or the
family's induced cost) does."""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import pytest

from atsp_approx.errors import InputError
from atsp_approx.graph import Digraph
from atsp_approx.harness import gen_instance, parse_instance, run_pipeline
from atsp_approx.rational import MAX_DIGITS, parse_rational
from test_determinism import REDUCTION_CASES

F = Fraction


def test_parse_rational_values():
    # plain ASCII integers take the int() path; the rest go through Fraction
    cases = {
        "007": F(7), " 12 ": F(12), "3/6": F(1, 2), "1e3": F(1000), "-0": F(0),
        "0": F(0), "+5": F(5), "1_000": F(1000), "٣": F(3),
        "9" * MAX_DIGITS: F(10 ** MAX_DIGITS - 1),
    }
    for text, want in cases.items():
        got = parse_rational(text)
        assert type(got) is Fraction and got == want, text
    for text in ("²", "", "1/0", "9" * (MAX_DIGITS + 1), " " + "1" * (MAX_DIGITS + 1)):
        with pytest.raises(InputError):
            parse_rational(text)
    with pytest.raises(InputError, match=f"with {MAX_DIGITS + 1} digits"):
        parse_rational("9" * (MAX_DIGITS + 1))


def test_parse_rational_ratios_match_fraction():
    # an ASCII-digit p/q skips Fraction's regex: on random ratios, with
    # leading zeros and surrounding blanks, the value is Fraction's; every
    # other string, signed, non-ASCII or malformed, is parsed or refused as
    # Fraction's regex decides
    rng = random.Random(18)
    for _ in range(2000):
        p = str(rng.randrange(10 ** rng.randint(1, 40))).zfill(rng.randint(1, 3))
        q = str(rng.randrange(1, 10 ** rng.randint(1, 40))).zfill(rng.randint(1, 3))
        text = rng.choice(["", " ", "\t"]) + p + "/" + q + rng.choice(["", " ", "\n"])
        got = parse_rational(text)
        assert type(got) is Fraction and got == Fraction(text), text
    for text in ("3/0", "0/0", " 007/000 "):
        with pytest.raises(InputError, match=r"^cannot parse rational .*: Fraction\(\d+, 0\)$"):
            parse_rational(text)
    for text in ("-3/4", "+3/4", "-3/0", "3/-4", "3/+4", "٣/٤", "3/٤", "3/²", "²/3",
                 "3//4", "/4", "3/", "3 / 4", "3/4/5", "0x3/4"):
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(InputError):
                parse_rational(text)
        else:
            assert parse_rational(text) == want, text
    half = MAX_DIGITS // 2
    assert parse_rational("7" * half + "/" + "3" * half) == F(int("7" * half), int("3" * half))
    with pytest.raises(InputError, match=f"with {MAX_DIGITS + 1} digits"):
        parse_rational("7" * MAX_DIGITS + "/3")


def _assert_cost_identity(g: Digraph) -> None:
    for e in g.edges:
        assert e.cost_num == g.cost_num[e.eid] and e.cost_den == g.cost_den
        assert e.cost == Fraction(g.cost_num[e.eid], g.cost_den)


def test_parsers_and_generators_scale_costs_once():
    doc = {"n": 3, "edges": [[0, 1, "1/3"], [1, 2, "0.75"], [2, 0, 2], [1, 0, "4/6"]]}
    _, g = parse_instance(json.dumps(doc))
    assert g.cost_den == 12 and g.cost_num == (4, 9, 24, 8)
    assert [e.cost for e in g.edges] == [F(1, 3), F(3, 4), F(2), F(2, 3)]
    _assert_cost_identity(g)
    text = ("TYPE: ATSP\nDIMENSION: 2\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\n"
            "EDGE_WEIGHT_SECTION\n0 1/2\n5 0\nEOF\n")
    _, g = parse_instance(text)
    assert g.cost_den == 2 and [e.cost for e in g.edges] == [F(1, 2), F(5)]
    _assert_cost_identity(g)
    for model in ("cycle", "random-strong", "two-cluster", "unit-digraph"):
        _assert_cost_identity(gen_instance(model, 9, 1))


def _derived_costs(builder: str, local: dict) -> list[Fraction]:
    """The cost of each edge a builder derives, in `Fraction`s, from the
    graph (or family) it derives it from: the builder's locals at the
    moment it calls `Digraph`."""
    if builder == "contract":
        return [local["g"].edges[eid].cost for eid in local["origins"]]
    if builder == "induced_graph":
        family = local["family"]
        return [sum((family.weight(s) for s in family.members
                     if (e.tail in s) != (e.head in s)), F(0))
                for e in local["g"].edges]
    if builder == "build_strongly_laminar_instance":
        return [local["g"].edges[eid].cost for eid in local["support"]]
    if builder == "build_split_graph":
        return [local["base"].edges[tag[1]].cost if tag[0] in ("lower", "upper") else F(0)
                for tag in local["kind"]]
    assert builder == "build_augmented_graph", builder
    return [local["g"].edges[eid].cost for eid in local["base_eid"]]


def test_every_graph_the_pipeline_builds_keeps_its_source_costs(monkeypatch):
    # costs over 7, so a builder that drops the source's denominator is seen
    g = REDUCTION_CASES["nested-hub-a"]()
    g = Digraph(g.n, [(e.tail, e.head, e.cost_num) for e in g.edges], 7 * g.cost_den)
    built: list[tuple[str, Digraph, list[Fraction]]] = []
    original = Digraph.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        frame = sys._getframe(1)
        if frame.f_globals["__name__"].startswith("atsp_approx."):
            name = frame.f_code.co_name
            built.append((name, self, _derived_costs(name, frame.f_locals)))

    monkeypatch.setattr(Digraph, "__init__", recording)
    run_pipeline("nested-hub-a", g, F(1))
    assert {name for name, _, _ in built} == {
        "contract", "induced_graph", "build_strongly_laminar_instance",
        "build_split_graph", "build_augmented_graph"}
    for name, sub, want in built:
        assert [e.cost for e in sub.edges] == want, name
