"""Benchmark of the certified ATSP pipeline.

    python3 perfbench/run.py --workload sparse-cuts --seed 1 --seconds 40 --trace 0

Runs one workload end to end through the path `atsp-approx solve` takes
(`parse_instance` -> `run_pipeline` -> `RunReport.to_json`) as a closed
loop: one process, one caller, one instance at a time.  The batch is
solved in passes until `--seconds` have gone by (at least one full pass);
every output is checked by `check.py`, and every solve time is divided by
the host slowdown sampled while it ran (`calibrate.py`).  `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer metrics of a
separate traced run.  The last line of stdout is one JSON object; see
README.md for how to read it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
EPSILON = Fraction(1)
SETUP_PROBES = 7

sys.path.insert(0, str(HERE))

from calibrate import timed  # noqa: E402
from workloads import WORKLOADS, make_batch  # noqa: E402


def _require_package() -> None:
    if not (SRC / "atsp_approx" / "__init__.py").is_file():
        sys.exit(f"error: no atsp_approx sources under {SRC}")
    sys.path.insert(0, str(SRC))


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Set-up as a fresh process pays it (import, generate, serialize):
    (seconds at idle-host speed, wall seconds)."""
    with timed() as t:
        import atsp_approx  # noqa: F401

        make_batch(workload, seed)
    return t["idle_s"], t["wall_s"]


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Medians over several set-ups, each in its own interpreter:
    (set-up at idle-host speed, wall set-up)."""
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        idle_s, wall_s = map(float, out.stdout.split()[-2:])
        scaled.append(idle_s)
        wall.append(wall_s)
    return statistics.median(scaled), statistics.median(wall)


class Run:
    """Solves the batch, checks every output, keeps results per instance."""

    def __init__(self, workload: str, seed: int):
        from check import check_report

        self.check_report = check_report
        self.batch = make_batch(workload, seed)
        self.oracle = workload == "dense-oracle"
        self.attempted = 0
        self.failed = 0
        self.latest: dict[int, dict] = {}  # batch index -> latest report
        self.canonical: dict[int, str] = {}  # first report without timings

    def solve(self, i: int, tracer=None) -> dict:
        """One instance, parse to report JSON, timed by `calibrate.timed`."""
        from atsp_approx import harness

        entry, inst, text = self.batch[i]
        span = tracer.span if tracer else lambda name: contextlib.nullcontext()
        self.attempted += 1
        out = None
        with timed() as t:
            try:
                with span("harness.parse"):
                    name, g = harness.parse_instance(text)
                report = harness.run_pipeline(name, g, EPSILON, with_oracle=self.oracle)
                with span("harness.report"):
                    out = report.to_json()
            except Exception:  # a crash is a failed instance; keep measuring
                self._fail(inst.name, traceback.format_exc())
        if out is None:
            return t
        doc = json.loads(out)
        misses = self.check_report(doc, inst, entry, self.oracle)
        doc.pop("timings")
        canonical = json.dumps(doc, sort_keys=True)
        if self.canonical.setdefault(i, canonical) != canonical:
            misses.append("report differs from the first solve of this instance")
        if misses:
            self._fail(inst.name, "; ".join(misses))
        self.latest[i] = doc
        return t

    def _fail(self, name: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {name}: {why}", file=sys.stderr)

    def one_pass(self, tracer=None) -> list[dict]:
        """Solve the whole batch once, traced if a tracer is given."""
        if tracer is None:
            return [self.solve(i) for i in range(len(self.batch))]
        tracer.install()
        try:
            return [self.solve(i, tracer) for i in range(len(self.batch))]
        finally:
            tracer.uninstall()

    def quality(self) -> dict:
        docs = [self.latest[i] for i in sorted(self.latest)]
        labels = {label for d in docs for label, c in d["assertion_counts"].items()
                  if c > 0}
        out = {
            "ratio_geomean": _geomean(Fraction(d["tour_cost"]) / Fraction(d["lp_value"])
                                      for d in docs),
            "check_labels": len(labels),
        }
        if self.oracle:
            out["opt_gap_geomean"] = _geomean(
                Fraction(d["tour_cost"]) / Fraction(d["held_karp_opt"]) for d in docs)
        return out


def _geomean(values) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def _quantile(values: list[float], p: float, steps: int = 8) -> float:
    """Harrell-Davis quantile: every order statistic weighted by the mass
    the Beta((n+1)p, (n+1)(1-p)) density puts on its rank interval.  A
    single order statistic jumps between neighbouring instances' times from
    run to run; this weighted mean does not."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    weights = [sum(density((i + (k + 0.5) / steps) / n) for k in range(steps))
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def _tours_per_min(samples: list[list[float]]) -> float:
    """Batch throughput from each instance's median solve time."""
    return 60.0 * len(samples) / sum(statistics.median(s) for s in samples)


def end_to_end(args) -> tuple[Run, dict, list[str]]:
    setup_s, setup_wall = measure_setup(args.workload, args.seed)
    run = Run(args.workload, args.seed)
    scaled: list[list[float]] = [[] for _ in run.batch]
    wall: list[list[float]] = [[] for _ in run.batch]
    factors = []
    deadline = time.perf_counter() + args.seconds
    solves = []
    k = 0  # the first pass is always whole, later ones stop at the deadline
    while k < len(run.batch) or time.perf_counter() < deadline:
        i = k % len(run.batch)
        t = run.solve(i)
        scaled[i].append(t["idle_s"])
        wall[i].append(t["wall_s"])
        factors.append(t["slowdown"])
        solves.append({"instance": run.batch[i][1].name, **t})
        k += 1
    _write_lines(f"solves-{args.workload}-{args.seed}.jsonl", solves)
    # percentiles pool the first m solves of every instance, m the fewest
    # any instance got, so the seed's order does not weight the batch
    m = min(map(len, scaled))
    pooled = [t for s in scaled for t in s[:m]]
    pooled_wall = [t for s in wall for t in s[:m]]
    quality = run.quality()
    metrics = {
        "setup_s": (setup_s, "s"),
        "tours_per_min": (_tours_per_min(scaled), "1/min"),
        "solve_p50_s": (_quantile(pooled, 0.5), "s"),
        "solve_p90_s": (_quantile(pooled, 0.9), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "ratio_geomean": (quality["ratio_geomean"], "x"),
        "check_labels": (quality["check_labels"], "count"),
    }
    extra = [
        f"samples {sum(map(len, scaled))}: {len(scaled)} instances, "
        f"{m}-{max(map(len, scaled))} solves each; percentiles over {len(pooled)}",
        f"fail_rate {run.failed / run.attempted:.6g} share",
        f"host slowdown median {statistics.median(factors):.4g}, "
        f"range {min(factors):.4g}-{max(factors):.4g}",
        f"wall clock: setup_s {setup_wall:.4g} s, tours_per_min "
        f"{_tours_per_min(wall):.4g} 1/min, solve_p50_s "
        f"{_quantile(pooled_wall, 0.5):.4g} s, solve_p90_s "
        f"{_quantile(pooled_wall, 0.9):.4g} s",
    ]
    if "opt_gap_geomean" in quality:
        extra.append(f"opt_gap_geomean {quality['opt_gap_geomean']:.6g} x")
    return run, metrics, extra


def traced(args) -> tuple[Run, dict, list[str]]:
    from tracing import Tracer, derive, self_times

    run = Run(args.workload, args.seed)
    deadline = time.perf_counter() + args.seconds
    untraced_samples = [[] for _ in run.batch]
    traced_samples = [[] for _ in run.batch]
    counter_runs, time_runs = [], []
    # pairs of whole passes, untraced then traced, at least two pairs: the
    # traced counters must match byte for byte; another pair starts only if
    # it fits before the deadline
    while len(time_runs) < 2 or time.perf_counter() + pair_s < deadline:
        start = time.perf_counter()
        for i, t in enumerate(run.one_pass()):
            untraced_samples[i].append(t["idle_s"])
        tracer = Tracer()
        solves = run.one_pass(tracer)
        for i, t in enumerate(solves):
            traced_samples[i].append(t["idle_s"])
        pair_s = time.perf_counter() - start
        reports = [run.latest[i]["assertion_counts"] for i in sorted(run.latest)]
        counters, layer_times = derive(tracer.spans, reports)
        pass_factor = statistics.median(t["slowdown"] for t in solves)
        counter_runs.append(json.dumps(counters, sort_keys=True))
        time_runs.append({name: value / pass_factor if name.endswith(("_s", ".s"))
                          else value for name, value in layer_times.items()})
    deterministic = len(set(counter_runs)) == 1
    if not deterministic:
        run._fail("trace", "counters differ between traced passes")
    untraced_tours = _tours_per_min(untraced_samples)
    traced_tours = _tours_per_min(traced_samples)
    metrics = {name: (value, _unit(name)) for name, value in counters.items()}
    for name in layer_times:
        metrics[name] = (statistics.median(r[name] for r in time_runs), _unit(name))
    metrics["trace.overhead_tours_per_min"] = (traced_tours - untraced_tours, "1/min")

    total, own, calls = self_times(tracer.spans)
    solve_total = total["solve"] or 1.0
    extra = [f"traced passes {len(time_runs)}; counters identical: {deterministic}",
             f"tours_per_min untraced {untraced_tours:.4g}, traced {traced_tours:.4g}",
             f"{'span (last pass, wall)':28} {'calls':>7} {'total_s':>9} "
             f"{'self_s':>9} {'self/solve':>10}"]
    for name in sorted(total, key=lambda n: -own[n]):
        extra.append(f"{name:28} {calls[name]:7d} {total[name]:9.4f} "
                     f"{own[name]:9.4f} {own[name] / solve_total:10.1%}")
    if tracer.missing:
        extra.append("wrapping points not found: " + ", ".join(tracer.missing))
    _write_lines(f"spans-{args.workload}-{args.seed}.jsonl",
                 [{"name": span.name, "start": span.start, "end": span.end,
                   "parent": span.parent, **span.attrs} for span in tracer.spans])
    return run, metrics, extra


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("den_bits_max"):
        return "bits"
    if name == "trace.stage_coverage":
        return "share"
    return "count"


def _write_lines(name: str, records: list[dict]) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with (OUT_DIR / name).open("w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_package()
    if args.setup_probe:
        print(*setup_probe(args.workload, args.seed))
        return 0
    run, metrics, extra = (traced if args.trace else end_to_end)(args)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in extra:
        print(line)
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
