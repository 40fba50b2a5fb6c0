"""Property tests of the input boundary: any instance text either parses or
raises InputError, and a small parsed instance solves to a report; through
the CLI, any instance text ends in exit code 0, 1 or 2 without a traceback."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction

import pytest

from atsp_approx.cli import main
from atsp_approx.errors import InputError
from atsp_approx.harness import RunReport, parse_instance, run_pipeline

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


_JSON_DOCS = st.one_of(_HOSTILE_DOCS, _plausible_docs())

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
    cells = draw(st.lists(st.sampled_from(["0", "1", "2", "7", "1/3", "5", "-1", "x"]),
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
