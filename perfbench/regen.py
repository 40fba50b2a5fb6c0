"""Regenerate pool.json: the frozen batch of each workload and its exact values.

    python3 perfbench/regen.py [--workload NAME ...]

Candidate specs are solved once each, traced; the first
BATCH candidates that reach the layers their workload is meant to reach
are kept.  Each kept LP value (exact, from the solver) is cross-checked
against this file's own float cutting-plane loop on scipy's HiGHS, to
1e-9 relative, and each dense-oracle instance gets its optimum from this
file's own Held-Karp.  A candidate the solver fails on stops the script:
it is a defect to report, not an instance to skip.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer, derive  # noqa: E402
from workloads import GENERATORS, POOL_FILE, WORKLOADS, serialize  # noqa: E402

BATCH = 20
REL_TOL = 1e-9
MAX_NESTED_N = 20
UNIT_DIGRAPHS = 5  # of BATCH; the rest of sparse-cuts is random-strong


def candidates(workload: str):
    for seed in itertools.count():
        if workload == "sparse-cuts":
            for n in (10, 12, 14):
                for model in ("random-strong", "unit-digraph"):
                    yield {"model": model, "n": n, "seed": seed}
        elif workload == "dense-oracle":
            for n in (8, 9):
                yield {"n": n, "seed": seed}
        else:
            for depth, fanout in ((0, 5), (1, 4)):
                yield {"depth": depth, "fanout": fanout, "seed": seed}


def wanted(workload: str, spec: dict, n: int, kept: list[dict]) -> bool:
    """Size caps and quotas, decided before solving."""
    if workload == "sparse-cuts":
        units = sum(1 for e in kept if e["spec"]["model"] == "unit-digraph")
        if spec["model"] == "unit-digraph":
            return units < UNIT_DIGRAPHS
        return len(kept) - units < BATCH - UNIT_DIGRAPHS
    if workload == "nested-clusters":
        return n <= MAX_NESTED_N
    return True


def reaches(workload: str, spec: dict, counters: dict) -> bool:
    """The layers each workload is there to exercise.  Unit digraphs of
    these sizes solve in one cutting round; they stay in sparse-cuts for
    their degenerate all-equal-cost LPs."""
    if workload == "sparse-cuts" and spec["model"] == "random-strong":
        return counters["lp.rounds"] >= 2
    if workload == "nested-clusters":
        return (counters["vertebrate.windows"] >= 2 and counters["cover.calls"] >= 1
                and counters["flows.circulation.calls"] >= 1)
    return True


def highs_lp_value(inst) -> float:
    """Subtour LP by a float cutting-plane loop: HiGHS for the LP, networkx
    min cuts for separation from vertex 0 both ways."""
    import networkx as nx
    import numpy as np
    from scipy.optimize import linprog

    n, edges = inst.n, inst.edges
    cost = np.array([float(c) for _, _, c in edges])
    a_eq = np.zeros((n, len(edges)))
    for j, (t, h, _) in enumerate(edges):
        a_eq[h, j] += 1
        a_eq[t, j] -= 1
    cuts = [frozenset({v}) for v in range(n)]
    while True:
        a_ub = np.array([[-1.0 if (t in u) != (h in u) else 0.0 for t, h, _ in edges]
                         for u in cuts])
        res = linprog(cost, A_ub=a_ub, b_ub=-2 * np.ones(len(cuts)), A_eq=a_eq,
                      b_eq=np.zeros(n), bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"HiGHS: {res.message}")
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        for (t, h, _), x in zip(edges, res.x):
            if x > 1e-12:
                cap = g.edges[t, h]["capacity"] if g.has_edge(t, h) else 0.0
                g.add_edge(t, h, capacity=cap + x)
        new = set()
        for v in range(1, n):
            for s, d in ((0, v), (v, 0)):
                value, (side, _) = nx.minimum_cut(g, s, d)
                if value < 1 - 1e-7 and frozenset(side) not in cuts:
                    new.add(frozenset(side))
        if not new:
            return float(res.fun)
        cuts.extend(sorted(new, key=sorted))


def held_karp(inst) -> int:
    """Optimum closed walk of a complete digraph with integer costs."""
    n = inst.n
    d = [[0] * n for _ in range(n)]
    for t, h, c in inst.edges:
        d[t][h] = int(c)
    for k in range(n):
        for a in range(n):
            for b in range(n):
                d[a][b] = min(d[a][b], d[a][k] + d[k][b])
    full = 1 << (n - 1)
    inf = float("inf")
    best = [[inf] * (n - 1) for _ in range(full)]
    for j in range(n - 1):
        best[1 << j][j] = d[0][j + 1]
    for mask in range(1, full):
        for j in range(n - 1):
            cur = best[mask][j]
            if cur == inf:
                continue
            for t in range(n - 1):
                if not mask >> t & 1:
                    nxt = mask | 1 << t
                    best[nxt][t] = min(best[nxt][t], cur + d[j + 1][t + 1])
    return min(best[full - 1][j] + d[j + 1][0] for j in range(n - 1))


def regenerate(workload: str) -> list[dict]:
    from atsp_approx import harness

    oracle = workload == "dense-oracle"
    kept = []
    for spec in candidates(workload):
        if len(kept) == BATCH:
            return kept
        inst = GENERATORS[workload](spec)
        if not wanted(workload, spec, inst.n, kept):
            continue
        tracer = Tracer()
        tracer.install()
        start = time.perf_counter()
        try:
            name, g = harness.parse_instance(serialize(inst))
            report = harness.run_pipeline(name, g, Fraction(1), with_oracle=oracle)
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - start
        counters, _ = derive(tracer.spans, [report.assertion_counts])
        if not reaches(workload, spec, counters):
            continue
        lp = report.lp_value
        highs = highs_lp_value(inst)
        if abs(highs - float(lp)) > REL_TOL * abs(float(lp)):
            raise SystemExit(f"{inst.name}: exact LP {lp} vs HiGHS {highs!r}")
        entry = {"spec": spec, "n": inst.n, "lp_value": str(lp), "highs": highs}
        if oracle:
            opt = held_karp(inst)
            if Fraction(opt) != report.held_karp:
                raise SystemExit(f"{inst.name}: Held-Karp {opt} vs solver "
                                 f"{report.held_karp}")
            entry["held_karp"] = str(opt)
        kept.append(entry)
        print(f"{workload} {inst.name} n={inst.n} {elapsed:.2f}s "
              f"rounds={counters['lp.rounds']} windows={counters['vertebrate.windows']} "
              f"lp={lp}", file=sys.stderr, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    pool = json.loads(POOL_FILE.read_text()) if POOL_FILE.exists() else {}
    for workload in args.workload or WORKLOADS:
        pool[workload] = regenerate(workload)
    POOL_FILE.write_text("{\n" + ",\n".join(
        f"{json.dumps(w)}: [\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]"
        for w, entries in pool.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
