"""Property tests of the input boundary: any instance text either parses or
raises InputError, and a small parsed instance solves to a report; through
the CLI, any instance text ends in exit code 0, 1 or 2 and any tour file
given to `verify` in exit code 0 or 1, without a traceback."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction

import pytest

from atsp_approx.cli import main
from atsp_approx.errors import InputError
from atsp_approx.harness import RunReport, instance_to_json, parse_instance, run_pipeline
from fixtures import c3

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_GOOD_COSTS = st.one_of(
    st.integers(0, 20),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 40), st.integers(1, 6)),
)
_ANY_COSTS = st.one_of(
    st.integers(),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-5, 40), st.integers(-2, 6)),
    st.booleans(),
    st.floats(),
    st.text(max_size=8),
)

# hostile documents: any vertex count, endpoints and costs
_HOSTILE_DOCS = st.builds(
    lambda n, edges: json.dumps({"n": n, "edges": edges}),
    st.integers(-3, 10 ** 12),
    st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7), _ANY_COSTS).map(list),
             max_size=12),
)


@st.composite
def _plausible_docs(draw):
    """Small documents without self-loops, often around a Hamiltonian cycle,
    with valid costs and now and then one hostile cost, so that many parse
    and go on to be solved."""
    n = draw(st.integers(1, 6))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1))),
                         max_size=12))
    arcs = [(t, (t + s) % n) for t, s in arcs if n > 1]
    if n > 1 and draw(st.booleans()):
        arcs = [(v, (v + 1) % n) for v in range(n)] + arcs[:12 - n]
    costs = draw(st.lists(_GOOD_COSTS, min_size=len(arcs), max_size=len(arcs)))
    if arcs and draw(st.integers(0, 4)) == 0:
        costs[draw(st.integers(0, len(arcs) - 1))] = draw(_ANY_COSTS)
    return json.dumps({"n": n, "edges": [[t, h, c] for (t, h), c in zip(arcs, costs)]})




@st.composite
def _large_denominator_docs(draw):
    """A cycle and its reverse whose costs have many distinct large
    denominators: each numeral parses, but on 16 vertices or more their lcm
    passes the denominator budget, and on 2 or 3 it does not."""
    n = draw(st.one_of(st.integers(2, 3), st.integers(16, 60)))
    digits = draw(st.integers(150, 400))
    step = draw(st.integers(1, 9))
    arcs = [(v, (v + 1) % n) for v in range(n)] + [((v + 1) % n, v) for v in range(n - 1)]
    nums = draw(st.lists(st.integers(1, 3), min_size=len(arcs), max_size=len(arcs)))
    return json.dumps({"n": n, "edges": [[t, h, f"{p}/{10 ** digits + step * i + 3}"]
                                         for i, ((t, h), p) in enumerate(zip(arcs, nums))]})


_JSON_DOCS = st.one_of(_HOSTILE_DOCS, _plausible_docs(), _large_denominator_docs())

# TSPLIB headers, values and separators, so that the text reaches the weight
# section with a plausible and an implausible matrix alike
_TSPLIB_TOKENS = ["TYPE:", "ATSP", "TSP", "DIMENSION:", "EDGE_WEIGHT_TYPE:",
                  "EXPLICIT", "EDGE_WEIGHT_FORMAT:", "FULL_MATRIX",
                  "EDGE_WEIGHT_SECTION", "EOF", "0", "1", "2", "3", "-1", "1/2",
                  "2.5", "x", " ", "\n", "\n"]


@st.composite
def _tsplib_matrices(draw):
    """A FULL_MATRIX file whose entry count mostly fits its DIMENSION."""
    dim = draw(st.sampled_from(["2", "3", "2", "3", "1", "0", "-1", "abc", "9999999999"]))
    size = int(dim) ** 2 if dim in ("1", "2", "3") else draw(st.integers(0, 12))
    size = max(size + draw(st.sampled_from([0, 0, 0, 0, -1, 1])), 0)
    cells = draw(st.lists(st.sampled_from(["0", "1", "2", "7", "1/3", "5", "-1", "x",
                                           "007", "\u0663", "+3"]),
                          min_size=size, max_size=size))
    return ("TYPE: ATSP\nDIMENSION: %s\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\n"
            "EDGE_WEIGHT_SECTION\n%s\nEOF\n" % (dim, " ".join(cells)))


_TSPLIB_TEXTS = st.one_of(
    st.lists(st.sampled_from(_TSPLIB_TOKENS), max_size=40).map(" ".join),
    _tsplib_matrices(),
)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
@hypothesis.given(st.one_of(_JSON_DOCS, _TSPLIB_TEXTS))
def test_instance_text_parses_or_raises_input_error(text):
    try:
        name, g = parse_instance(text)
    except InputError:
        return
    if g.n <= 6:
        assert isinstance(run_pipeline(name, g, Fraction(1)), RunReport)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
@hypothesis.given(st.one_of(_JSON_DOCS, _TSPLIB_TEXTS))
def test_cli_solve_exits_cleanly(text):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", "-"])
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["tour_cost"]
    else:
        assert len(err.getvalue().splitlines()) == 1


# tour documents for the 3-cycle: steps of any JSON shape, walks that are not
# lists, both walk keys, integer literals around the 4300-digit limit, and
# walks over its arcs and one missing arc, and its tour with a step dropped
# or not, so that some documents are valid tours
_STEP_VALUES = st.one_of(st.integers(-2, 4), st.booleans(), st.floats(), st.none(),
                         st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2))
_STEPS = st.one_of(st.lists(_STEP_VALUES, max_size=3), _STEP_VALUES)
_WALKS = st.one_of(st.lists(_STEPS, max_size=6),
                   st.lists(st.sampled_from([[0, 1], [1, 2], [2, 0], [1, 0]]),
                            max_size=7),
                   _STEP_VALUES)
_C3_TOUR = [[0, 1], [1, 2], [2, 0]]


def _c3_walk(start, laps, drop):
    """The 3-cycle's tour from vertex start, laps times, without step drop."""
    walk = (_C3_TOUR[start:] + _C3_TOUR[:start]) * laps
    return walk[:drop] + walk[drop + 1:] if 0 <= drop < len(walk) else walk


_TOUR_DOCS = st.one_of(
    st.builds(lambda *args: json.dumps({"tour_walk": _c3_walk(*args)}),
              st.integers(0, 2), st.integers(1, 2), st.integers(-3, 5)),
    st.builds(lambda key, walk: json.dumps({key: walk}),
              st.sampled_from(["tour_walk", "tour", "walk"]), _WALKS),
    _WALKS.map(json.dumps),
    st.builds(lambda k, where: ('{"tour_walk": [[0, 1], [1, 2], [2, %s]]}'
                                if where else '{"tour_walk": %s}') % ("9" * k),
              st.integers(4295, 4305), st.booleans()),
    st.text(max_size=20),
)


@pytest.fixture(scope="module")
def c3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("verify") / "c3.json"
    path.write_text(instance_to_json("c3", c3()))
    return path


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
@hypothesis.given(text=_TOUR_DOCS)
def test_cli_verify_exits_cleanly(c3_file, text):
    tour_path = c3_file.with_name("tour.json")
    tour_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(c3_file), str(tour_path)])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        assert json.loads(out.getvalue())["valid"] is (code == 0)
    else:
        assert code == 1
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1


def _cli_solve(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", str(path)])
    return code, out.getvalue(), err.getvalue()


@hypothesis.settings(derandomize=True, deadline=None, max_examples=20)
@hypothesis.given(text=_large_denominator_docs())
def test_large_denominators_are_refused_or_reported(tmp_path_factory, text):
    doc = json.loads(text)
    path = tmp_path_factory.mktemp("dens") / "inst.json"
    path.write_text(text)
    code, out, err = _cli_solve(path)
    if doc["n"] >= 16:  # 31 or more nearly coprime denominators of 150+ digits
        with pytest.raises(InputError, match="common denominator exceeds"):
            parse_instance(text)
        assert code == 1 and not out
        assert err.startswith("error: ") and len(err.splitlines()) == 1
    else:
        assert code in (0, 1) and "Traceback" not in err
        assert json.loads(out)["tour_cost"] if code == 0 else len(err.splitlines()) == 1


def test_reported_values_stay_within_the_digit_limit(tmp_path):
    # every numeral within the limit, but the tour, LP value and ratio of
    # these instances are not: refused with one line, not a traceback
    for edges in ([[0, 1, "9" * 4300], [1, 0, "9" * 4300]],
                  [[0, 1, "1e-4300"], [1, 0, "9" * 4300]]):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"n": 2, "edges": edges}))
        parse_instance(path.read_text())
        code, out, err = _cli_solve(path)
        assert code == 1 and not out
        assert err.startswith("error: refusing to report") and len(err.splitlines()) == 1
