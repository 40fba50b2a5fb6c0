"""Exact network-flow routines: max-flow/min-cut and min-cost circulation.

Max-flow (integer Edmonds-Karp: the rational capacities are scaled by the
lcm of their denominators, and the flow value scaled back) powers the cut
separation oracle of the LP module.  The min-cost circulation solver, which
finds the witness flows of the subtour cover and rounds its lifted
circulation, takes integer lower/upper arc bounds and integer costs (callers
with rational costs scale them by the lcm of their denominators, which keeps
every comparison and every heap tie), and runs the standard lower-bound
transformation followed by successive shortest paths with potentials; with
integral bounds the result is integral and cost-minimal.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import ContractViolation, InternalCheckError


def max_flow_min_cut(
    n: int,
    arcs: list[tuple[int, int, Fraction]],
    source: int,
    sink: int,
) -> tuple[Fraction, frozenset]:
    """Maximum s-t flow value and the source side of a minimum cut.

    Parallel arcs are merged.  Edmonds-Karp on the capacities times the lcm
    of their denominators: the number of augmentations is O(V*E), and the
    side returned (the vertices the source reaches in the final residual
    graph) is the intersection of all minimum-cut source sides.
    """
    if source == sink:
        raise ContractViolation("source equals sink")
    # a loop, not lcm(*...): one argument tuple of len(arcs) per call (tens
    # per solve) fills CPython's tuple free lists, about 1 MB of peak RSS
    scale = 1
    for _, _, c in arcs:
        scale = lcm(scale, c.denominator)
    cap: list[dict[int, int]] = [dict() for _ in range(n)]
    for tail, head, c in arcs:
        if c < 0:
            raise ContractViolation("negative capacity")
        if c:
            scaled = c.numerator * (scale // c.denominator)
            cap[tail][head] = cap[tail].get(head, 0) + scaled
            cap[head].setdefault(tail, 0)
    value = 0
    while True:
        prev: dict[int, int] = {source: source}
        queue = [source]
        while queue and sink not in prev:
            nxt = []
            for v in queue:
                for w, c in cap[v].items():
                    if c > 0 and w not in prev:
                        prev[w] = v
                        nxt.append(w)
            queue = nxt
        if sink not in prev:
            break
        bottleneck: Optional[int] = None
        w = sink
        while w != source:
            v = prev[w]
            c = cap[v][w]
            if bottleneck is None or c < bottleneck:
                bottleneck = c
            w = v
        w = sink
        while w != source:
            v = prev[w]
            cap[v][w] -= bottleneck
            cap[w][v] += bottleneck
            w = v
        value += bottleneck
    reachable = {source}
    stack = [source]
    while stack:
        v = stack.pop()
        for w, c in cap[v].items():
            if c > 0 and w not in reachable:
                reachable.add(w)
                stack.append(w)
    return Fraction(value, scale), frozenset(reachable)


@dataclass
class _Arc:
    tail: int
    head: int
    lower: int
    upper: int
    cost: int
    flow: int = 0


@dataclass
class CirculationProblem:
    """Min-cost circulation with integer bounds and integer costs.

    A rational cost vector is passed as its numerators over one common
    denominator: a positive scale changes no comparison, so the flows are
    those of the unscaled problem, ties included."""

    n: int
    arcs: list[_Arc] = field(default_factory=list)

    def add_arc(self, tail: int, head: int, lower: int, upper: int, cost: int) -> int:
        if not (0 <= tail < self.n and 0 <= head < self.n):
            raise ContractViolation("arc endpoint out of range")
        if not (0 <= lower <= upper):
            raise ContractViolation(f"bad arc bounds [{lower},{upper}]")
        if type(cost) is not int:
            raise ContractViolation(f"arc cost {cost!r} is not an int")
        self.arcs.append(_Arc(tail, head, lower, upper, cost))
        return len(self.arcs) - 1

    def solve(self) -> Optional[list[int]]:
        """Return per-arc flows of a minimum-cost feasible circulation.

        None when no feasible circulation exists.  Costs must be
        nonnegative; optimality follows from the successive-shortest-path
        invariant.
        """
        n = self.n
        for arc in self.arcs:
            if arc.cost < 0:
                raise ContractViolation("negative arc cost not supported")
        # residual graph arrays; forward arc 2i, backward 2i+1
        head_of: list[int] = []
        next_out: list[list[int]] = [[] for _ in range(n + 2)]
        residual: list[int] = []
        rcost: list[int] = []
        src, snk = n, n + 1

        def push_arc(u: int, v: int, capacity: int, cost: int) -> None:
            next_out[u].append(len(head_of))
            head_of.append(v)
            residual.append(capacity)
            rcost.append(cost)
            next_out[v].append(len(head_of))
            head_of.append(u)
            residual.append(0)
            rcost.append(-cost)

        excess = [0] * n
        for arc in self.arcs:
            arc.flow = arc.lower
            excess[arc.tail] -= arc.lower
            excess[arc.head] += arc.lower
            push_arc(arc.tail, arc.head, arc.upper - arc.lower, arc.cost)
        total_supply = 0
        for v in range(n):
            if excess[v] > 0:
                push_arc(src, v, excess[v], 0)
                total_supply += excess[v]
            elif excess[v] < 0:
                push_arc(v, snk, -excess[v], 0)
        # successive shortest paths with Johnson potentials
        potential = [0] * (n + 2)
        shipped = 0
        while shipped < total_supply:
            dist: list[Optional[int]] = [None] * (n + 2)
            prev_arc = [-1] * (n + 2)
            dist[src] = 0
            heap: list[tuple[int, int]] = [(0, src)]
            done = [False] * (n + 2)
            while heap:
                d, v = heapq.heappop(heap)
                if done[v]:
                    continue
                done[v] = True
                for aid in next_out[v]:
                    if residual[aid] <= 0:
                        continue
                    w = head_of[aid]
                    nd = d + rcost[aid] + potential[v] - potential[w]
                    if dist[w] is None or nd < dist[w]:
                        dist[w] = nd
                        prev_arc[w] = aid
                        heapq.heappush(heap, (nd, w))
            if not done[snk]:
                return None
            for v in range(n + 2):
                if dist[v] is not None:
                    potential[v] += dist[v]
            bottleneck = total_supply - shipped
            v = snk
            while v != src:
                aid = prev_arc[v]
                bottleneck = min(bottleneck, residual[aid])
                v = head_of[aid ^ 1]
            v = snk
            while v != src:
                aid = prev_arc[v]
                residual[aid] -= bottleneck
                residual[aid ^ 1] += bottleneck
                v = head_of[aid ^ 1]
            shipped += bottleneck
        for i, arc in enumerate(self.arcs):
            used = residual[2 * i + 1]  # backward residual = flow above lower
            arc.flow = arc.lower + used
            if not (arc.lower <= arc.flow <= arc.upper):
                raise InternalCheckError("circulation-bounds", f"arc {i}")
        flows = [arc.flow for arc in self.arcs]
        balance = [0] * n
        for arc in self.arcs:
            balance[arc.tail] -= arc.flow
            balance[arc.head] += arc.flow
        if any(balance):
            raise InternalCheckError("circulation-conservation", balance)
        return flows
