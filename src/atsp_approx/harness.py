"""Instance I/O, generators, the exact Held-Karp oracle, and pipeline runs.

Instances are JSON edge lists with rational costs as strings, or
TSPLIB-style ATSP files with a FULL_MATRIX weight section.  Reports carry
exact rationals serialized as "p/q" strings so runs round-trip bit-exactly
(timings live in a separate sub-object and are excluded from determinism).
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from operator import add
from typing import Optional

from .checks import Checker
from .errors import BudgetError, InfeasibleInstanceError, InputError
from .graph import Digraph, EdgeMultiset, euler_walk, integer_edges, is_eulerian_connected
from .rational import MAX_DIGITS, fits_digits, format_rational, parse_rational
from .records import Record
from .simplex import check_tableau_budget
from .vertebrate import solve_atsp

ZERO = Fraction(0)

HELD_KARP_MAX_N = 18

GENERATOR_MODELS = ("cycle", "random-strong", "two-cluster", "unit-digraph")


def parse_instance(data: bytes | str) -> tuple[str, Digraph]:
    """Parse an instance; returns (name, graph).

    Text whose first non-blank character is "{" is read as JSON, any other
    as TSPLIB: a JSON instance is an object, and a TSPLIB file never starts
    with "{".  JSON schema: {"name"?: str, "n": int, "edges": [[tail, head,
    cost], ...]} with cost an integer or a decimal/"p/q" string.  TSPLIB:
    TYPE ATSP with EDGE_WEIGHT_FORMAT FULL_MATRIX; the matrix becomes the
    complete digraph minus the diagonal.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"instance is not UTF-8 text: {exc}") from None
    text = data.strip()
    if not text:
        raise InputError("empty instance input")
    name, g = _parse_json(text) if text.startswith("{") else _parse_tsplib(text)
    if not g.is_strongly_connected() and g.n > 1:
        raise InfeasibleInstanceError("instance graph is not strongly connected")
    return name, g


def _is_int(value) -> bool:
    """A JSON integer; true and false decode to Python bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_json(text: str) -> tuple[str, Digraph]:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer on 3.11+
        raise InputError(f"bad JSON: {exc}") from None
    if not isinstance(doc, dict) or "n" not in doc or \
            not isinstance(doc.get("edges"), list):
        raise InputError('JSON instance needs "n" and an "edges" list')
    n = doc["n"]
    if not _is_int(n) or n < 1:
        raise InputError(f'bad vertex count {n!r}')
    edges = []
    for item in doc["edges"]:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise InputError(f"bad edge entry {item!r}")
        tail, head, cost = item
        if not _is_int(tail) or not _is_int(head):
            raise InputError(f"bad edge endpoints {item!r}")
        edges.append((tail, head, parse_rational(cost)))
    # A strongly connected digraph on n >= 2 vertices has at least n arcs;
    # refusing here also keeps a huge n from allocating adjacency lists.
    if n > 1 and n > len(edges):
        raise InfeasibleInstanceError("instance graph is not strongly connected")
    return str(doc.get("name", "instance")), Digraph(n, *integer_edges(edges))


def _parse_tsplib(text: str) -> tuple[str, Digraph]:
    """A TSPLIB ATSP file with an EXPLICIT FULL_MATRIX weight section.

    A weight line whose tokens are all ASCII digits, each within
    MAX_DIGITS, is read with `int`; any other line goes token by token
    through `parse_rational`, with its errors.  Both give the same costs,
    so the Digraph does not depend on which lines took which path."""
    name = "instance"
    dimension = None
    weight_type = None
    weight_format = None
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    numbers: list[int | Fraction] = []
    rational = False
    in_section = False
    tsp_type = None
    for line in lines:
        upper = line.upper()
        if in_section:
            if upper == "EOF":
                break
            tokens = line.split()
            if line.isascii() and "".join(tokens).isdigit() and \
                    max(map(len, tokens)) <= MAX_DIGITS:
                numbers.extend(map(int, tokens))
            else:
                numbers.extend(map(parse_rational, tokens))
                rational = True
            continue
        if ":" in line:
            key, _, value = line.partition(":")
            key = key.strip().upper()
            value = value.strip()
            if key == "NAME":
                name = value
            elif key == "TYPE":
                tsp_type = value.upper()
            elif key == "DIMENSION":
                try:
                    dimension = int(value)
                except ValueError:
                    raise InputError(f"bad DIMENSION {value!r}") from None
                if dimension < 1:
                    raise InputError(f"bad DIMENSION {dimension}")
            elif key == "EDGE_WEIGHT_TYPE":
                weight_type = value.upper()
            elif key == "EDGE_WEIGHT_FORMAT":
                weight_format = value.upper()
        elif upper == "EDGE_WEIGHT_SECTION":
            in_section = True
        elif upper == "EOF":
            break
    if tsp_type != "ATSP":
        raise InputError(f"TYPE must be ATSP, got {tsp_type!r}")
    if weight_type not in (None, "EXPLICIT"):
        raise InputError(f"EDGE_WEIGHT_TYPE must be EXPLICIT, got {weight_type!r}")
    if weight_format != "FULL_MATRIX":
        raise InputError("EDGE_WEIGHT_FORMAT must be FULL_MATRIX")
    if dimension is None:
        raise InputError("missing DIMENSION")
    if len(numbers) != dimension * dimension:
        raise InputError(
            f"matrix needs {dimension * dimension} entries, got {len(numbers)}"
        )
    edges = [(i, j, numbers[i * dimension + j])
             for i in range(dimension) for j in range(dimension) if i != j]
    if rational:
        return name, Digraph(dimension, *integer_edges(edges))
    return name, Digraph(dimension, edges)


def instance_to_json(name: str, g: Digraph) -> str:
    return json.dumps({
        "name": name,
        "n": g.n,
        "edges": [[e.tail, e.head, format_rational(e.cost)] for e in g.edges],
    })


def gen_instance(model: str, n: int, seed: int = 0) -> Digraph:
    """Deterministic instance generators.

    cycle: the directed n-cycle with unit costs.  two-cluster: two directed
    cycles joined by a pair of cost-5 arcs (n = 6 reproduces the TwoTri
    fixture).  random-strong: a random Hamiltonian cycle for strong
    connectivity plus random arcs with small rational costs.  unit-digraph:
    the same topology with every cost 1.

    An n too large for `solve` is refused with BudgetError, an InputError,
    before anything is built: the n-cycle, the sparsest instance, has n
    arcs, and its first LP n degree rows and n singleton cuts.
    """
    import random as _random

    if n < 1:
        raise InputError("n must be positive")
    if model not in GENERATOR_MODELS:
        raise InputError(f"unknown model {model!r}; choose from {GENERATOR_MODELS}")
    try:
        check_tableau_budget(2 * n, n)
    except BudgetError as exc:
        raise BudgetError(f"n = {n} is too large to solve: {exc}") from None
    rng = _random.Random(f"{model}/{n}/{seed}")
    if model == "cycle":
        if n == 1:
            return Digraph(1, [])
        return Digraph(n, [(i, (i + 1) % n, 1) for i in range(n)])
    if model == "two-cluster":
        if n == 1:
            return Digraph(1, [])
        half = (n + 1) // 2
        edges = []
        for lo, hi in ((0, half), (half, n)):
            size = hi - lo
            if size >= 2:
                for i in range(lo, hi):
                    nxt = lo + (i - lo + 1) % size
                    edges.append((i, nxt, 1))
        edges.append((0, half % n, 5))
        if half % n != 0:
            edges.append((half % n, 0, 5))
        return Digraph(n, edges)
    # random topologies
    if n == 1:
        return Digraph(1, [])
    perm = list(range(n))
    rng.shuffle(perm)

    def cost() -> Fraction:
        if model == "unit-digraph":
            return Fraction(1)
        return Fraction(rng.randint(0, 12), rng.choice([1, 1, 1, 2, 3, 4]))

    edges = [(perm[i], perm[(i + 1) % n], cost()) for i in range(n)]
    extra = rng.randint(n // 2, 2 * n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, cost()))
    return Digraph(n, *integer_edges(edges))


def held_karp_opt(g: Digraph, upper: Optional[Fraction] = None) -> Fraction:
    """Exact optimum tour cost (closed walks allowed): the Hamiltonian
    optimum of the metric closure, by bitmask dynamic programming (Held and
    Karp, 1962; Bellman, 1962) on the digraph's integer cost numerators.
    ``upper``, when given, is the cost of a known tour; the search then
    keeps only the states that can still close a tour costing at most that.

    The closure (Floyd-Warshall) runs on int rows in which the sum of all
    cost numerators plus one stands for "unreachable": no shortest path
    costs that much, so an entry still equal to it after the closure means
    the digraph is not strongly connected.  Every row and then every
    column of the closure is reduced by its minimum off the diagonal
    (Little, Murty, Sweeney and Karel, 1963), so each Hamiltonian cycle
    costs base, the sum of the reductions, plus its nonnegative reduced
    costs, and no path on the way to a tour costing at most upper has a
    reduced cost above upper - base.  `_cheapest_reduced_tour` grows the
    paths from vertex 0 one vertex set size at a time under that limit.
    If upper is below the optimum, that search finds no tour, and it runs
    again with no limit, so the result is the optimum whatever upper is."""
    n = g.n
    if n > HELD_KARP_MAX_N:
        raise BudgetError(f"Held-Karp oracle capped at n = {HELD_KARP_MAX_N}")
    if n == 1:
        return ZERO
    unreachable = sum(g.cost_num) + 1
    dist = [[unreachable] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for e, cost in zip(g.edges, g.cost_num):
        row = dist[e.tail]
        if cost < row[e.head]:
            row[e.head] = cost
    for mid in range(n):
        through = dist[mid]
        for row in dist:
            via = row[mid]
            if via < unreachable:
                for b, step in enumerate(through):
                    cand = via + step
                    if cand < row[b]:
                        row[b] = cand
    if any(unreachable in row for row in dist):
        raise InfeasibleInstanceError("graph is not strongly connected")
    base = 0
    for v, row in enumerate(dist):
        low = min(row[:v] + row[v + 1:])
        base += low
        dist[v] = [c - low for c in row]
    for b in range(n):
        low = min(dist[a][b] for a in range(n) if a != b)
        base += low
        for row in dist:
            row[b] -= low
    for v, row in enumerate(dist):
        row[v] = 0
    # reduced costs are below unreachable, so a path of k arcs costs less
    # than k * unreachable, the pad of a row entry with no path
    k = n - 1
    pad = k * unreachable
    limit = pad if upper is None else \
        upper.numerator * g.cost_den // upper.denominator - base
    first = dist[0][1:]
    into = [(j, 1 << j, [dist[i + 1][j + 1] for i in range(k)]) for j in range(k)]
    close = [dist[i + 1][0] for i in range(k)]
    best = _cheapest_reduced_tour(first, into, close, pad, limit)
    if best is None:  # upper is below the optimum
        best = _cheapest_reduced_tour(first, into, close, pad, pad)
    return Fraction(base + best, g.cost_den)


def _cheapest_reduced_tour(first: list[int], into: list[tuple[int, int, list[int]]],
                           close: list[int], pad: int, limit: int) -> Optional[int]:
    """The cost of the cheapest Hamiltonian cycle under nonnegative
    reduced costs if it is at most limit, else None.  Bit j of a set stands
    for vertex j + 1; first[j] is the cost from vertex 0 to it, close[j]
    the cost back, and into holds (j, bit j, col) with col[i] the cost from
    vertex i + 1 to vertex j + 1.

    A layer lists the live sets S of one size, and rows[S] holds, for
    each j in S, the cheapest path from 0 through S that ends at j, or pad
    where that costs more than limit.  Entry j of S + j is one C-level
    `min(map(add, ...))` of the row of S against col.  No path over limit
    extends to one within it, so such entries stay pad, and a set with no
    entry left gets no row and joins no layer.  A row is cleared once it
    has been extended, so at most two layers of rows are held at once."""
    width = len(first)
    rows: list[Optional[list[int]]] = [None] * (1 << width)
    layer = []
    for j, bit, _ in into:
        if first[j] <= limit:
            row = rows[bit] = [pad] * width
            row[j] = first[j]
            layer.append(bit)
    for _ in range(width - 1):
        grown = []
        for mask in layer:
            row = rows[mask]
            rows[mask] = None
            for j, bit, col in into:
                if not mask & bit:
                    value = min(map(add, row, col))
                    if value <= limit:
                        out = rows[mask | bit]
                        if out is None:
                            out = rows[mask | bit] = [pad] * width
                            grown.append(mask | bit)
                        out[j] = value
        layer = grown
    best = min((min(map(add, rows[mask], close)) for mask in layer), default=limit + 1)
    return best if best <= limit else None


def verify_tour(tour: EdgeMultiset) -> tuple[bool, dict]:
    """Check connected + Eulerian + spanning; diagnostics carry the verdicts
    and, when valid, the Euler walk as the human-readable tour."""
    g = tour.g
    eulerian, comps = is_eulerian_connected(tour)
    spanning = comps == [frozenset(range(g.n))]
    diagnostics: dict = {
        "eulerian": eulerian,
        "connected_spanning": spanning,
        "components": [sorted(c) for c in comps],
    }
    ok = eulerian and spanning
    if ok:
        walk = euler_walk(tour, 0) if tour else []
        diagnostics["walk"] = [[g.edge(eid).tail, g.edge(eid).head]
                               for eid in walk]
    return ok, diagnostics


class RunReport(Record):
    """Machine-readable result of one pipeline run; timings default to a
    fresh empty dict."""

    __slots__ = ("instance", "n", "epsilon", "lp_value", "tour_cost", "ratio",
                 "tour_walk", "assertion_counts", "held_karp", "timings")

    def __init__(self, instance: str, n: int, epsilon: Fraction, lp_value: Fraction,
                 tour_cost: Fraction, ratio: Fraction, tour_walk: list[list[int]],
                 assertion_counts: dict[str, int], held_karp: Optional[Fraction] = None,
                 timings: Optional[dict[str, float]] = None) -> None:
        self.instance = instance
        self.n = n
        self.epsilon = epsilon
        self.lp_value = lp_value
        self.tour_cost = tour_cost
        self.ratio = ratio
        self.tour_walk = tour_walk
        self.assertion_counts = assertion_counts
        self.held_karp = held_karp
        self.timings = {} if timings is None else timings

    def to_dict(self) -> dict:
        doc = {
            "instance": self.instance,
            "n": self.n,
            "epsilon": format_rational(self.epsilon),
            "lp_value": format_rational(self.lp_value),
            "tour_cost": format_rational(self.tour_cost),
            "ratio": format_rational(self.ratio),
            "tour_walk": self.tour_walk,
            "assertion_counts": self.assertion_counts,
        }
        if self.held_karp is not None:
            doc["held_karp_opt"] = format_rational(self.held_karp)
        doc["timings"] = self.timings
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def run_pipeline(name: str, g: Digraph, epsilon: Fraction,
                 with_oracle: bool = False) -> RunReport:
    """Solve, verify, optionally compare against the Held-Karp oracle, and
    assemble the report.  All sandwich inequalities are exact.  An epsilon
    the report could not print exactly is refused before anything is
    solved."""
    checker = Checker()
    epsilon = Fraction(epsilon)
    if not fits_digits(epsilon):
        raise InputError(f"refusing epsilon with more than {MAX_DIGITS} digits in its "
                         "numerator or denominator")
    timings: dict[str, float] = {}
    start = time.perf_counter()
    cert = solve_atsp(g, epsilon, checker)
    timings["solve_s"] = time.perf_counter() - start
    start = time.perf_counter()
    ok, diagnostics = verify_tour(cert.tour)
    timings["verify_s"] = time.perf_counter() - start
    checker.check(ok, "pipeline-tour-verified", lambda: diagnostics)
    held = None
    if with_oracle:
        start = time.perf_counter()
        held = held_karp_opt(g, cert.cost)
        timings["oracle_s"] = time.perf_counter() - start
        checker.check(cert.lp_value <= held, "oracle-above-lp",
                      lambda: f"{held} < {cert.lp_value}")
        checker.check(held <= cert.cost, "oracle-below-tour",
                      lambda: f"{held} > {cert.cost}")
    return RunReport(
        instance=name,
        n=g.n,
        epsilon=epsilon,
        lp_value=cert.lp_value,
        tour_cost=cert.cost,
        ratio=cert.ratio,
        tour_walk=[[g.edge(eid).tail, g.edge(eid).head] for eid in cert.walk],
        assertion_counts=checker.as_dict(),
        held_karp=held,
        timings=timings,
    )
