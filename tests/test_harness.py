from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from atsp_approx.errors import BudgetError, InfeasibleInstanceError, InputError
from atsp_approx.graph import Digraph, EdgeMultiset, integer_edges
from atsp_approx.harness import (
    gen_instance,
    held_karp_opt,
    instance_to_json,
    parse_instance,
    run_pipeline,
    verify_tour,
)
from atsp_approx.rational import MAX_DIGITS, parse_rational
from fixtures import c3, k2, two_tri
from test_held_karp_reference import brute_force_opt

F = Fraction


def test_parse_json_c3():
    doc = {"name": "c3", "n": 3,
           "edges": [[0, 1, "1"], [1, 2, 1], [2, 0, "1"]]}
    name, g = parse_instance(json.dumps(doc))
    assert name == "c3" and g.n == 3 and g.m == 3
    assert all(e.cost == 1 for e in g.edges)


def test_parse_json_rational_strings():
    doc = {"n": 2, "edges": [[0, 1, "1/3"], [1, 0, "0.75"]]}
    _, g = parse_instance(json.dumps(doc))
    assert g.edges[0].cost == F(1, 3)
    assert g.edges[1].cost == F(3, 4)


def test_parse_json_errors():
    with pytest.raises(InputError):
        parse_instance('{"n": 2}')
    with pytest.raises(InputError):
        parse_instance(json.dumps({"n": 2, "edges": [[0, 1, "-1"], [1, 0, "1"]]}))
    with pytest.raises(InfeasibleInstanceError):
        parse_instance(json.dumps({"n": 3, "edges": [[0, 1, "1"], [1, 0, "1"]]}))
    # fewer arcs than vertices: refused before any per-vertex list is built
    with pytest.raises(InfeasibleInstanceError, match="not strongly connected"):
        parse_instance('{"n": 1000000000000, "edges": [[0, 1, "1"], [1, 0, "1"]]}')
    # non-finite costs, booleans where numbers belong, a non-list edge field
    for text in ('{"n": 2, "edges": [[0, 1, Infinity], [1, 0, "1"]]}',
                 '{"n": 2, "edges": [[0, 1, NaN], [1, 0, "1"]]}',
                 '{"n": 2, "edges": [[0, 1, true], [1, 0, "1"]]}',
                 '{"n": true, "edges": []}',
                 '{"n": 2, "edges": [[true, 0, "1"], [0, 1, "1"]]}',
                 '{"n": 2, "edges": 5}'):
        with pytest.raises(InputError):
            parse_instance(text)
    # bytes that are not UTF-8 text
    for data in (b"\xff\xfe", b'{"n": 2, "edges": [[0, 1, "\xff"], [1, 0, "1"]]}'):
        with pytest.raises(InputError, match="not UTF-8"):
            parse_instance(data)
    # numerals beyond 4300 digits or exponent 4300, as strings and as a JSON
    # integer, are refused before any Fraction is built
    for cost in ('"1e4301"', '"1e-4301"', '"' + "9" * 4301 + '"', "9" * 4301):
        with pytest.raises(InputError):
            parse_instance('{"n": 2, "edges": [[0, 1, %s], [1, 0, "1"]]}' % cost)
    _, g = parse_instance('{"n": 2, "edges": [[0, 1, "1e-4300"], [1, 0, "%s"]]}'
                          % ("9" * 4300))
    assert g.edge(0).cost == Fraction(1, 10 ** 4300) and g.edge(1).cost == 10 ** 4300 - 1


def test_parse_tsplib_k2():
    text = """NAME: tiny
TYPE: ATSP
DIMENSION: 2
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: FULL_MATRIX
EDGE_WEIGHT_SECTION
0 1
1 0
EOF
"""
    name, g = parse_instance(text)
    assert name == "tiny" and g.n == 2
    assert sorted((e.tail, e.head) for e in g.edges) == [(0, 1), (1, 0)]


def test_parse_tsplib_requires_atsp():
    text = "TYPE: TSP\nDIMENSION: 2\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1 1 0\nEOF"
    with pytest.raises(InputError):
        parse_instance(text)
    with pytest.raises(InputError, match="DIMENSION"):
        parse_instance(text.replace("TSP", "ATSP").replace("2", "abc", 1))
    for dimension in ("0", "-3"):
        with pytest.raises(InputError, match=f"^bad DIMENSION {dimension}$"):
            parse_instance(text.replace("TSP", "ATSP").replace("2", dimension, 1))


def _tsplib_text(rows: list[list[str]], one_line: bool = False) -> str:
    lines = [" ".join(sum(rows, []))] if one_line else [" ".join(row) for row in rows]
    return ("NAME: m\nTYPE: ATSP\nDIMENSION: %d\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
            "EDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n%s\nEOF\n"
            % (len(rows), "\n".join(lines)))


def _per_token_graph(rows: list[list[str]]) -> Digraph:
    """The matrix read token by token through parse_rational, as
    _parse_tsplib reads every line that is not all ASCII digits."""
    n = len(rows)
    return Digraph(n, *integer_edges([(i, j, parse_rational(rows[i][j]))
                                      for i in range(n) for j in range(n) if i != j]))


def _same_graph(a: Digraph, b: Digraph) -> bool:
    return (a.n, a.edges, a.cost_num, a.cost_den) == (b.n, b.edges, b.cost_num, b.cost_den)


def test_parse_tsplib_integer_lines_match_the_per_token_read():
    rng = random.Random(7)
    for n in (2, 3, 5, 9):
        rows = [[("0" * rng.randint(0, 2)) + str(rng.randint(0, 100)) for _ in range(n)]
                for _ in range(n)]
        _, g = parse_instance(_tsplib_text(rows))
        assert g.cost_den == 1 and all(type(c) is int for c in g.cost_num)
        assert _same_graph(g, _per_token_graph(rows))


@pytest.mark.parametrize("token", ["1/3", "2.5", "+3", "-1", "\u0663", "\u00b2",
                                   "9" * MAX_DIGITS, "1" * (MAX_DIGITS + 1),
                                   "0" * MAX_DIGITS + "7"])
def test_parse_tsplib_odd_tokens_match_the_per_token_read(token):
    # one row per line, the odd token's line is read token by token and the
    # others with int; with the matrix on one line every token is read token
    # by token.  Both give the per-token read's graph or one-line InputError
    rows = [["0", "007", "12"], ["5", "0", token], ["1", "2", "0"]]
    try:
        expected = _per_token_graph(rows)
    except InputError as exc:
        expected = str(exc)
    for text in (_tsplib_text(rows), _tsplib_text(rows, one_line=True)):
        try:
            _, got = parse_instance(text)
        except InputError as exc:
            assert str(exc) == expected and "\n" not in expected
        else:
            assert _same_graph(got, expected)


def test_instance_json_roundtrip():
    g = two_tri()
    name, parsed = parse_instance(instance_to_json("t", g))
    assert parsed.n == g.n and parsed.m == g.m
    for a, b in zip(g.edges, parsed.edges):
        assert (a.tail, a.head, a.cost) == (b.tail, b.head, b.cost)


def test_gen_cycle_is_c3():
    g = gen_instance("cycle", 3, 0)
    assert [(e.tail, e.head, e.cost) for e in g.edges] == \
        [(e.tail, e.head, e.cost) for e in c3().edges]


def test_gen_two_cluster_is_two_tri():
    g = gen_instance("two-cluster", 6, 0)
    expected = two_tri()
    assert sorted((e.tail, e.head, e.cost) for e in g.edges) == \
        sorted((e.tail, e.head, e.cost) for e in expected.edges)


def test_gen_random_strong_deterministic():
    a = gen_instance("random-strong", 10, 7)
    b = gen_instance("random-strong", 10, 7)
    assert [(e.tail, e.head, e.cost) for e in a.edges] == \
        [(e.tail, e.head, e.cost) for e in b.edges]
    assert a.is_strongly_connected()


def test_gen_unit_digraph_all_unit():
    g = gen_instance("unit-digraph", 9, 3)
    assert all(e.cost == 1 for e in g.edges)
    assert g.is_strongly_connected()


def test_held_karp_fixtures():
    assert held_karp_opt(c3()) == 3
    assert held_karp_opt(k2()) == 2
    assert held_karp_opt(two_tri()) == 16


def test_held_karp_revisits_beat_hamiltonian():
    # going back and forth through the hub is optimal: 1-0-2-0-1 style walk
    g = Digraph(3, [
        (0, 1, 1), (1, 0, 1), (0, 2, 1), (2, 0, 1),
        (1, 2, 10), (2, 1, 10),
    ])
    assert held_karp_opt(g) == 4


def test_held_karp_budget():
    g = gen_instance("cycle", 19, 0)
    with pytest.raises(BudgetError):
        held_karp_opt(g)


def test_held_karp_matches_brute_force_walks():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(2, 6)
        g = gen_instance("random-strong", n, rng.randint(0, 99))
        assert held_karp_opt(g) == brute_force_opt(g)


def test_verify_tour_cases():
    g = c3()
    ok, diag = verify_tour(EdgeMultiset(g, {0: 1, 1: 1, 2: 1}))
    assert ok and diag["walk"] == [[0, 1], [1, 2], [2, 0]]
    ok, diag = verify_tour(EdgeMultiset(g, {0: 1, 1: 1}))
    assert not ok and not diag["eulerian"]
    ok, diag = verify_tour(EdgeMultiset(two_tri(), dict.fromkeys(range(6), 1)))
    assert not ok and diag["eulerian"] and not diag["connected_spanning"]


def test_run_pipeline_c3():
    report = run_pipeline("c3", c3(), F(1), with_oracle=True)
    assert report.ratio == 1
    assert report.held_karp == 3
    assert report.lp_value == 3
    doc = report.to_dict()
    assert doc["ratio"] == "1"
    assert doc["held_karp_opt"] == "3"


def test_run_pipeline_sandwich_random():
    g = gen_instance("random-strong", 8, 5)
    report = run_pipeline("r8", g, F(1), with_oracle=True)
    assert report.lp_value <= report.held_karp <= report.tour_cost
    assert report.tour_cost <= 23 * report.lp_value


def test_run_pipeline_deterministic_report():
    g = gen_instance("two-cluster", 7, 0)
    a = run_pipeline("x", g, F(1), with_oracle=True).to_dict()
    b = run_pipeline("x", g, F(1), with_oracle=True).to_dict()
    a.pop("timings")
    b.pop("timings")
    assert a == b


def test_run_pipeline_single_vertex():
    report = run_pipeline("unit", Digraph(1, []), F(1), with_oracle=True)
    assert report.tour_cost == 0 and report.ratio == 1
    assert report.tour_walk == []
