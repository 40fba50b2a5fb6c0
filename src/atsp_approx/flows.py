"""Exact network-flow routines: max-flow/min-cut and min-cost circulation.

Both solvers run on one network type, :class:`FlowNetwork`, whose flat
arrays pair each arc with its reverse.  Max-flow (integer Edmonds-Karp on a
copy of the capacities) powers the cut separation oracle of the LP module,
which scales x by the lcm of its denominators, shrinks the vertex classes
that x already joins, builds one network on the classes left per
separation round (none when one class is left) and stops each flow once it
reaches the scaled unit.  The min-cost circulation solver, which finds the
witness flows of the subtour cover and rounds its lifted circulation, keeps
integer lower/upper arc bounds and integer costs beside its network
(callers with rational costs scale them by the lcm of their denominators,
which keeps every comparison and every heap tie), and runs the standard
lower-bound transformation followed by successive shortest paths with
potentials on the network's residuals, each Dijkstra search stopping once
the sink is settled; with integral bounds the result is integral and
cost-minimal.
"""

from __future__ import annotations

import heapq
from typing import Optional

from .errors import ContractViolation, InternalCheckError


class FlowNetwork:
    """Directed network with integer capacities, as flat arrays.

    Arc 2i runs from the tail to the head of the i-th added arc and arc
    2i + 1 is its reverse, so ``a ^ 1`` pairs them; ``head[a]`` is where arc
    a ends, ``capacity[a]`` its capacity (0 for reverse arcs) and
    ``out[v]`` the ids of the arcs leaving v.  Parallel and antiparallel
    arcs stay separate.  Max-flow runs on a copy of the capacities, so one
    network serves any number of (source, sink) pairs.
    """

    __slots__ = ("n", "head", "capacity", "out")

    def __init__(self, n: int):
        self.n = n
        self.head: list[int] = []
        self.capacity: list[int] = []
        self.out: list[list[int]] = [[] for _ in range(n)]

    def add_arc(self, tail: int, head: int, capacity: int) -> None:
        if capacity < 0:
            raise ContractViolation("negative capacity")
        self.out[tail].append(len(self.head))
        self.head.append(head)
        self.capacity.append(capacity)
        self.out[head].append(len(self.head))
        self.head.append(tail)
        self.capacity.append(0)


def max_flow_min_cut(network: FlowNetwork, source: int, sink: int,
                     limit: Optional[int] = None) -> tuple[int, frozenset]:
    """Maximum s-t flow value and the source side of a minimum cut.

    Edmonds-Karp on a copy of the network's capacities: the number of
    augmentations is O(V*E), and the side returned (the vertices the source
    reaches in the final residual graph) is the intersection of all
    minimum-cut source sides, whichever maximum flow was found.  With a
    ``limit``, the search stops once the flow reaches it and returns that
    flow's value, which is at least ``limit``, with an empty side; a maximum
    flow below the limit is returned as without one.
    """
    if source == sink:
        raise ContractViolation("source equals sink")
    head, out = network.head, network.out
    residual = list(network.capacity)
    value = 0
    while limit is None or value < limit:
        # breadth-first search; pred[w] is the arc the search entered w by
        pred: list[Optional[int]] = [None] * network.n
        pred[source] = -1
        queue = [source]
        for v in queue:
            for a in out[v]:
                if residual[a]:
                    w = head[a]
                    if pred[w] is None:
                        pred[w] = a
                        queue.append(w)
            if pred[sink] is not None:
                break
        else:
            # the search ran to the end without reaching the sink, so it
            # visited exactly the vertices the source reaches
            return value, frozenset(queue)
        bottleneck = residual[pred[sink]]
        w = sink
        while w != source:
            a = pred[w]
            if residual[a] < bottleneck:
                bottleneck = residual[a]
            w = head[a ^ 1]
        w = sink
        while w != source:
            a = pred[w]
            residual[a] -= bottleneck
            residual[a ^ 1] += bottleneck
            w = head[a ^ 1]
        value += bottleneck
    return value, frozenset()


class CirculationProblem:
    """Min-cost circulation with integer bounds and integer costs.

    Arc i is arcs 2i and 2i + 1 of a :class:`FlowNetwork` whose capacity is
    upper - lower, with its bounds and cost kept in the lists beside it;
    vertices n and n + 1 are the super source and sink of the lower-bound
    transformation.  A rational cost vector is passed as its numerators over
    one common denominator: a positive scale changes no comparison, so the
    flows are those of the unscaled problem, ties included."""

    __slots__ = ("n", "network", "lower", "upper", "cost", "solved")

    def __init__(self, n: int):
        self.n = n
        self.network = FlowNetwork(n + 2)
        self.lower: list[int] = []
        self.upper: list[int] = []
        self.cost: list[int] = []
        self.solved = False

    def add_arc(self, tail: int, head: int, lower: int, upper: int, cost: int) -> int:
        if not (0 <= tail < self.n and 0 <= head < self.n):
            raise ContractViolation("arc endpoint out of range")
        if type(lower) is not int or type(upper) is not int or type(cost) is not int:
            raise ContractViolation(f"arc bounds [{lower!r},{upper!r}] and cost "
                                    f"{cost!r} are not all ints")
        if not 0 <= lower <= upper:
            raise ContractViolation(f"bad arc bounds [{lower},{upper}]")
        if cost < 0:
            raise ContractViolation("negative arc cost not supported")
        self.network.add_arc(tail, head, upper - lower)
        self.lower.append(lower)
        self.upper.append(upper)
        self.cost.append(cost)
        return len(self.cost) - 1

    def solve(self) -> Optional[list[int]]:
        """Return per-arc flows of a minimum-cost feasible circulation.

        None when no feasible circulation exists.  Optimality follows from
        the successive-shortest-path invariant.  The network's capacities
        become the residuals, so a problem is solved once.
        """
        if self.solved:
            raise ContractViolation("circulation problem already solved")
        self.solved = True
        n, net, lower = self.n, self.network, self.lower
        head_of, next_out, residual = net.head, net.out, net.capacity
        src, snk = n, n + 1
        # the tail of arc i is the head of its reverse, 2i + 1
        excess = [0] * n
        for i, lo in enumerate(lower):
            excess[head_of[2 * i + 1]] -= lo
            excess[head_of[2 * i]] += lo
        total_supply = 0
        for v in range(n):
            if excess[v] > 0:
                net.add_arc(src, v, excess[v])
                total_supply += excess[v]
            elif excess[v] < 0:
                net.add_arc(v, snk, -excess[v])
        rcost = [c for cost in self.cost for c in (cost, -cost)]
        rcost += [0] * (len(head_of) - len(rcost))
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
                if v == snk:
                    break
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
            # a settled vertex moves by its distance and every other one by
            # the sink's, which bounds their distances from below: every
            # residual arc keeps a nonnegative reduced cost
            reach = dist[snk]
            for v in range(n + 2):
                potential[v] += dist[v] if done[v] else reach
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
        # the backward residual of arc i is its flow above the lower bound
        flows = [lo + residual[2 * i + 1] for i, lo in enumerate(lower)]
        balance = [0] * n
        for i, (flow, lo, hi) in enumerate(zip(flows, lower, self.upper)):
            if not (lo <= flow <= hi):
                raise InternalCheckError("circulation-bounds", f"arc {i}")
            balance[head_of[2 * i + 1]] -= flow
            balance[head_of[2 * i]] += flow
        if any(balance):
            raise InternalCheckError("circulation-conservation", balance)
        return flows
