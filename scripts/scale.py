"""Scale sweep of the certified pipeline: traced solves along four instance ladders.

    python3 scripts/scale.py --out BENCH_scale.json

Four ladders of instances, from the package's generators and the
benchmark's (`perfbench/workloads.py`): directed cycles, `random-strong`
with seeds 0 and 2, complete digraphs with costs 1-100 sent as TSPLIB, and
nested hub-and-branch clusters.  Each instance is serialized, parsed and
solved by `run_pipeline` in a child process of its own, traced by
`perfbench/tracing.Tracer`, under a wall-time cap per family; an instance
over its cap (or over the child's address-space limit) is recorded as
such, not dropped.  Each instance is solved in `REPEATS` children and the
fastest solve is kept, so that one slow run on a shared host does not set
the curve.  Per instance the output holds the traced solve time (and
every repeat's), each layer's self time, the tracer's
deterministic counters (max-flow and circulation calls among them),
max-flow's share of the solve and the child's peak RSS.  Per family it
fits a growth exponent: the least-squares slope of log(solve time) against
log(n) over the instances that finished.  The sweep is outside the gated
benchmark: `perfbench/` and `BENCHMARK.json` do not read it.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

# family -> (wall cap in seconds, specs)
LADDERS: dict[str, tuple[int, list[dict]]] = {
    "cycle": (120, [{"model": "cycle", "n": n, "seed": 0}
                    for n in (250, 400, 625, 1000, 1350, 1825)]),
    "random-strong": (120, [{"model": "random-strong", "n": n, "seed": seed}
                            for seed in (0, 2) for n in (100, 200, 300, 400, 500)]),
    "dense": (60, [{"n": n, "seed": 0} for n in (40, 60, 100, 150, 200)]),
    "nested": (120, [{"depth": depth, "fanout": 5, "seed": seed}
                     for seed in (1, 2) for depth in (2, 3, 4)]),
}
ADDRESS_SPACE_LIMIT = 2 << 30
REPEATS = 3


def instance_text(family: str, spec: dict) -> str:
    from workloads import dense_oracle, nested_clusters, serialize, sparse_cuts

    build = {"cycle": sparse_cuts, "random-strong": sparse_cuts,
             "dense": dense_oracle, "nested": nested_clusters}[family]
    return serialize(build(spec))


def solve_one(family: str, spec: dict) -> dict:
    """One traced solve in this process: the record of one instance."""
    from tracing import Tracer, derive, self_times

    from atsp_approx.harness import parse_instance, run_pipeline

    name, g = parse_instance(instance_text(family, spec))
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        report = run_pipeline(name, g, Fraction(1))
        solve_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    total, own, _ = self_times(tracer.spans)
    counters, _ = derive(tracer.spans, [report.assertion_counts])
    return {
        "status": "ok",
        "n": g.n,
        "m": g.m,
        "solve_s": round(solve_s, 4),
        "maxflow_share": round(total["flows.maxflow"] / solve_s, 4),
        "self_s": {layer: round(s, 4)
                   for layer, s in sorted(own.items(), key=lambda kv: -kv[1])},
        "counters": counters,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "missing_wrap_points": tracer.missing,
    }


def run_child(family: str, spec: dict, cap_s: int) -> dict:
    """`solve_one` in a child process, stopped at the cap."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           json.dumps({"family": family, "spec": spec})]
    start = time.perf_counter()
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=cap_s)
    except subprocess.TimeoutExpired:
        return {"status": "over_cap", "cap_s": cap_s}
    if out.returncode != 0:
        last = out.stderr.strip().splitlines()[-1:] or [f"exit code {out.returncode}"]
        status = "over_memory" if "MemoryError" in last[0] else "failed"
        return {"status": status, "error": last[0],
                "wall_s": round(time.perf_counter() - start, 2)}
    return json.loads(out.stdout.splitlines()[-1])


def growth_exponent(records: list[dict]) -> dict | None:
    """Least-squares slope of log(solve_s) against log(n)."""
    points = [(math.log(r["n"]), math.log(r["solve_s"])) for r in records
              if r["status"] == "ok"]
    if len({x for x, _ in points}) < 2:
        return None
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    slope = (sum((x - mx) * (y - my) for x, y in points)
             / sum((x - mx) ** 2 for x, _ in points))
    ns = [r["n"] for r in records if r["status"] == "ok"]
    return {"exponent": round(slope, 3), "points": len(points), "n_range": [min(ns), max(ns)]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
        job = json.loads(args.child)
        print(json.dumps(solve_one(job["family"], job["spec"])))
        return 0
    if not args.out:
        parser.error("--out is required")
    families = {}
    for family, (cap_s, specs) in LADDERS.items():
        records = []
        for spec in specs:
            runs = []
            for _ in range(REPEATS):
                runs.append(run_child(family, spec, cap_s))
                if runs[-1]["status"] != "ok":
                    break
            if runs[-1]["status"] == "ok":
                record = {"spec": spec, **min(runs, key=lambda r: r["solve_s"]),
                          "solve_s_runs": [r["solve_s"] for r in runs]}
            else:
                record = {"spec": spec, **runs[-1]}
            records.append(record)
            shown = record.get("solve_s", record["status"])
            print(f"{family} {json.dumps(spec)}: {shown}", file=sys.stderr)
        families[family] = {"cap_s": cap_s, "growth": growth_exponent(records),
                            "instances": records}
    doc = {
        "method": f"{REPEATS} solves per instance (parse, then run_pipeline "
                  "with epsilon 1, every check on), each traced by "
                  "perfbench/tracing.Tracer in its own child process; solve_s is the "
                  "fastest traced wall time, and self_s, maxflow_share and "
                  "peak_rss_mb (the child's max RSS) are from that solve",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "families": families,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
