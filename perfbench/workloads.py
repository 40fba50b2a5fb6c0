"""The benchmark's workloads: instance generators and serialization.

Every instance is generated from a spec (a small JSON-able dict) by a
deterministic generator; `pool.json` freezes, per workload, the specs of
the batch and the exact values a correct solver must report for them.
The run's `--seed` picks the order in which the batch is solved and
changes nothing else: a relabelled copy of an instance sends the exact
simplex down another pivot path, so relabelling per seed would change
the work measured from seed to seed (tried: `ratio_geomean` moved by 3 %).  The solver only ever sees the
serialized text: JSON edge lists, or TSPLIB FULL_MATRIX for `dense-oracle`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

POOL_FILE = Path(__file__).with_name("pool.json")

WORKLOADS = ("sparse-cuts", "dense-oracle", "nested-clusters")


@dataclass(frozen=True)
class Instance:
    name: str
    n: int
    edges: tuple[tuple[int, int, Fraction], ...]
    tsplib: bool = False


def sparse_cuts(spec: dict) -> Instance:
    """`random-strong` / `unit-digraph` from the package's own generator."""
    from atsp_approx.harness import gen_instance

    g = gen_instance(spec["model"], spec["n"], spec["seed"])
    return Instance(f"{spec['model']}-{spec['n']}-{spec['seed']}", g.n,
                    tuple((e.tail, e.head, e.cost) for e in g.edges))


def dense_oracle(spec: dict) -> Instance:
    """Complete digraph with integer costs 1..100, sent as TSPLIB."""
    n = spec["n"]
    rng = random.Random(f"dense-oracle/{n}/{spec['seed']}")
    edges = tuple((i, j, Fraction(rng.randint(1, 100)))
                  for i in range(n) for j in range(n) if i != j)
    return Instance(f"dense-{n}-{spec['seed']}", n, edges, tsplib=True)


def nested_clusters(spec: dict) -> Instance:
    """Hubs with branches; a branch is a directed-cycle cluster or, above the
    deepest level, another hub with its own branches.  Each branch hangs off
    its hub by a pair of opposite arcs whose cost grows with the level, so
    every branch is a tight cut the dual pays for, and a window's backbone
    (through its two heaviest branches) misses the others."""
    rng = random.Random(f"nested-clusters/{spec['depth']}/{spec['seed']}")
    edges: list[tuple[int, int, Fraction]] = []
    count = [0]

    def vertex() -> int:
        count[0] += 1
        return count[0] - 1

    def cluster() -> int:
        ring = [vertex() for _ in range(rng.randint(2, 4))]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            edges.append((a, b, Fraction(rng.randint(1, 3))))
        return ring[0]

    def hub(level: int) -> int:
        center = vertex()
        for _ in range(rng.randint(3, spec["fanout"])):
            port = hub(level + 1) if level < spec["depth"] and rng.random() < 0.5 \
                else cluster()
            cost = Fraction(rng.randint(2, 6) * (level + 1))
            edges.extend([(center, port, cost), (port, center, cost)])
        return center

    hub(0)
    return Instance(f"nested-{spec['depth']}-{spec['seed']}", count[0],
                    tuple(edges))


GENERATORS = {
    "sparse-cuts": sparse_cuts,
    "dense-oracle": dense_oracle,
    "nested-clusters": nested_clusters,
}


def _rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def serialize(inst: Instance) -> str:
    if not inst.tsplib:
        return json.dumps({"name": inst.name, "n": inst.n,
                           "edges": [[t, h, _rational(c)] for t, h, c in inst.edges]})
    matrix = [["0"] * inst.n for _ in range(inst.n)]
    for t, h, c in inst.edges:
        matrix[t][h] = _rational(c)
    return "\n".join([
        f"NAME: {inst.name}", "TYPE: ATSP", f"DIMENSION: {inst.n}",
        "EDGE_WEIGHT_TYPE: EXPLICIT", "EDGE_WEIGHT_FORMAT: FULL_MATRIX",
        "EDGE_WEIGHT_SECTION", *(" ".join(row) for row in matrix), "EOF", "",
    ])


def load_pool(workload: str) -> list[dict]:
    """Frozen entries of one workload: {"spec", "lp_value", "held_karp"?}."""
    return json.loads(POOL_FILE.read_text())[workload]


def make_batch(workload: str, seed: int) -> list[tuple[dict, Instance, str]]:
    """(pool entry, instance, serialized text) in run order."""
    batch = []
    for entry in load_pool(workload):
        inst = GENERATORS[workload](entry["spec"])
        batch.append((entry, inst, serialize(inst)))
    random.Random(f"{workload}/{seed}").shuffle(batch)
    return batch
