"""Instance I/O, generators, the exact Held-Karp oracle, and pipeline runs.

Instances are JSON edge lists with rational costs as strings, or
TSPLIB-style ATSP files with a FULL_MATRIX weight section.  Reports carry
exact rationals serialized as "p/q" strings so runs round-trip bit-exactly
(timings live in a separate sub-object and are excluded from determinism).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .checks import Checker
from .errors import BudgetError, InfeasibleInstanceError, InputError
from .graph import Digraph, EdgeMultiset, euler_walk, integer_edges, is_eulerian_connected
from .rational import format_rational, parse_rational
from .simplex import check_tableau_budget
from .vertebrate import solve_atsp

ZERO = Fraction(0)

HELD_KARP_MAX_N = 18

GENERATOR_MODELS = ("cycle", "random-strong", "two-cluster", "unit-digraph")


def parse_instance(data: bytes | str, fmt: str = "auto") -> tuple[str, Digraph]:
    """Parse an instance; returns (name, graph).

    JSON schema: {"name"?: str, "n": int, "edges": [[tail, head, cost], ...]}
    with cost an integer or a decimal/"p/q" string.  TSPLIB: TYPE ATSP with
    EDGE_WEIGHT_FORMAT FULL_MATRIX; the matrix becomes the complete digraph
    minus the diagonal.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"instance is not UTF-8 text: {exc}") from None
    text = data.strip()
    if not text:
        raise InputError("empty instance input")
    if fmt == "auto":
        fmt = "json" if text.startswith("{") else "tsplib"
    if fmt == "json":
        name, g = _parse_json(text)
    elif fmt == "tsplib":
        name, g = _parse_tsplib(text)
    else:
        raise InputError(f"unknown format {fmt!r}")
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
    name = "instance"
    dimension = None
    weight_type = None
    weight_format = None
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    numbers: list[Fraction] = []
    in_section = False
    tsp_type = None
    for line in lines:
        upper = line.upper()
        if in_section:
            if upper == "EOF":
                break
            numbers.extend(parse_rational(tok) for tok in line.split())
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
    if dimension is None or dimension < 1:
        raise InputError("missing DIMENSION")
    if len(numbers) != dimension * dimension:
        raise InputError(
            f"matrix needs {dimension * dimension} entries, got {len(numbers)}"
        )
    edges = []
    for i in range(dimension):
        for j in range(dimension):
            if i != j:
                edges.append((i, j, numbers[i * dimension + j]))
    return name, Digraph(dimension, *integer_edges(edges))


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


def held_karp_opt(g: Digraph) -> Fraction:
    """Exact optimum tour cost (closed walks allowed): the Hamiltonian
    optimum of the metric closure, by bitmask dynamic programming.  The
    closure and the DP run on the digraph's integer cost numerators."""
    n = g.n
    if n > HELD_KARP_MAX_N:
        raise BudgetError(f"Held-Karp oracle capped at n = {HELD_KARP_MAX_N}")
    if n == 1:
        return ZERO
    dist: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for e, cost in zip(g.edges, g.cost_num):
        cur = dist[e.tail][e.head]
        if cur is None or cost < cur:
            dist[e.tail][e.head] = cost
    for mid in range(n):
        for a in range(n):
            via = dist[a][mid]
            if via is None:
                continue
            row = dist[mid]
            for b in range(n):
                if row[b] is None:
                    continue
                cand = via + row[b]
                if dist[a][b] is None or cand < dist[a][b]:
                    dist[a][b] = cand
    if any(dist[a][b] is None for a in range(n) for b in range(n)):
        raise InfeasibleInstanceError("graph is not strongly connected")
    # dp[mask][j]: cheapest path from 0 through the vertices of mask (bit i
    # stands for vertex i + 1) that ends at vertex j + 1; each entry is
    # pulled from the masks without j
    k = n - 1
    full = 1 << k
    into = [[dist[i + 1][j + 1] for i in range(k)] for j in range(k)]
    dp = [[0] * k for _ in range(full)]
    for j in range(k):
        dp[1 << j][j] = dist[0][j + 1]
    for mask in range(3, full):
        if not mask & (mask - 1):
            continue
        members = [i for i in range(k) if mask >> i & 1]
        row = dp[mask]
        for j in members:
            prev = dp[mask ^ (1 << j)]
            col = into[j]
            row[j] = min([prev[i] + col[i] for i in members if i != j])
    last = dp[full - 1]
    return Fraction(min(last[j] + dist[j + 1][0] for j in range(k)), g.cost_den)


def verify_tour(g: Digraph, tour: EdgeMultiset) -> tuple[bool, dict]:
    """Check connected + Eulerian + spanning; diagnostics carry the verdicts
    and, when valid, the Euler walk as the human-readable tour."""
    eulerian, comps = is_eulerian_connected(g, tour)
    spanning = comps == [frozenset(range(g.n))]
    diagnostics: dict = {
        "eulerian": eulerian,
        "connected_spanning": spanning,
        "components": [sorted(c) for c in comps],
    }
    ok = eulerian and spanning
    if ok and tour:
        walk = euler_walk(g, tour, 0)
        diagnostics["walk"] = [[g.edge(eid).tail, g.edge(eid).head]
                               for eid in walk]
    elif ok:
        diagnostics["walk"] = []
    return ok, diagnostics


@dataclass
class RunReport:
    """Machine-readable result of one pipeline run."""

    instance: str
    n: int
    epsilon: Fraction
    lp_value: Fraction
    tour_cost: Fraction
    ratio: Fraction
    tour_walk: list[list[int]]
    assertion_counts: dict[str, int]
    held_karp: Optional[Fraction] = None
    timings: dict[str, float] = field(default_factory=dict)

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
                 with_oracle: bool = False,
                 check_all: bool = True) -> RunReport:
    """Solve, verify, optionally compare against the Held-Karp oracle, and
    assemble the report.  All sandwich inequalities are exact."""
    checker = Checker(check_all=check_all)
    epsilon = Fraction(epsilon)
    timings: dict[str, float] = {}
    start = time.perf_counter()
    cert = solve_atsp(g, epsilon, checker)
    timings["solve_s"] = time.perf_counter() - start
    start = time.perf_counter()
    ok, diagnostics = verify_tour(g, cert.tour)
    timings["verify_s"] = time.perf_counter() - start
    checker.check(ok, "pipeline-tour-verified", lambda: diagnostics)
    held = None
    if with_oracle:
        start = time.perf_counter()
        held = held_karp_opt(g)
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
