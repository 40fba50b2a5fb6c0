"""Acceptance suite: every guarantee at its stated tolerance, exact rationals.

Each criterion prints one PASS line; any failure raises with the offending
instance in the message.  The instance battery is 100 generated graphs (25
per model, n in [2, 15]) solved at epsilon = 1.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from atsp_approx import simplex
from atsp_approx.checks import Checker
from atsp_approx.cover import (
    NEUTRAL,
    SubtourCoverInstance,
    build_level_structure,
    compute_witness_flow,
    subtour_cover,
    witness_boundary_mass,
)
from atsp_approx.graph import Digraph, EdgeMultiset, undirected_components
from atsp_approx.harness import gen_instance, run_pipeline
from atsp_approx.lp import build_strongly_laminar_instance, solve_atsp_lp
from atsp_approx.svensson import vertebrate_solve
from atsp_approx.vertebrate import contracted_pair
from oracles import family_or_ground, outside_singleton_mass, y_vertex
from test_svensson import ring_cycle_avoiding_backbone, ring_pair

F = Fraction
EPSILON = F(1)
RATIO_CAP = F(23)

MODELS = ("cycle", "random-strong", "two-cluster", "unit-digraph")


def _battery():
    jobs = []
    for model in MODELS:
        for i in range(25):
            jobs.append((model, 2 + (i % 14), i))
    assert len(jobs) == 100
    return jobs


@pytest.fixture(scope="module")
def reports():
    out = []
    for model, n, seed in _battery():
        g = gen_instance(model, n, seed)
        start = time.perf_counter()
        report = run_pipeline(f"{model}-{n}-{seed}", g,
                              EPSILON, with_oracle=(n <= 12))
        elapsed = time.perf_counter() - start
        out.append((model, n, seed, g, report, elapsed))
    return out


def test_acceptance_1_end_to_end_guarantee(reports):
    for model, n, seed, g, report, elapsed in reports:
        label = f"{model}-{n}-{seed}"
        assert report.tour_cost <= RATIO_CAP * report.lp_value, label
        assert report.assertion_counts.get("pipeline-tour-verified", 0) >= 1, label
        assert report.assertion_counts.get("tour-eulerian", 0) >= (1 if n > 1 else 0)
        assert elapsed < 60, f"{label}: {elapsed:.1f}s"
    print("\nACCEPTANCE 1: PASS - 100/100 verified tours within 23x the LP value")


def test_acceptance_2_oracle_sandwich(reports):
    count = 0
    for model, n, seed, g, report, _ in reports:
        if report.held_karp is None:
            continue
        count += 1
        label = f"{model}-{n}-{seed}"
        assert report.lp_value <= report.held_karp <= report.tour_cost, label
        assert report.held_karp <= 22 * report.lp_value, label
    assert count >= 50
    print(f"ACCEPTANCE 2: PASS - sandwich exact on {count} oracle-enabled runs")


def _full_enumeration_value(g: Digraph) -> Fraction:
    rows, rhs = [], []
    for v in range(g.n):
        row = {}
        for eid in g.in_edges[v]:
            row[eid] = row.get(eid, F(0)) + 1
        for eid in g.out_edges[v]:
            row[eid] = row.get(eid, F(0)) - 1
        rows.append(row)
        rhs.append(F(0))  # in(v) - out(v) >= 0 at every v forces equality
    for mask in range(1, (1 << g.n) - 1):
        u = frozenset(v for v in range(g.n) if (mask >> v) & 1)
        row = {}
        for eid in g.delta_plus(u) + g.delta_minus(u):
            row[eid] = row.get(eid, F(0)) + 1
        rows.append(row)
        rhs.append(F(2))
    res = simplex.solve_lp([e.cost for e in g.edges], rows, rhs)
    assert res.status == simplex.OPTIMAL
    return res.objective


def test_acceptance_3_lp_exactness(reports):
    certified = 0
    solved_directly = 0
    for model, n, seed, g, report, _ in reports:
        if not (2 <= n <= 12):
            continue
        primal, _ = solve_atsp_lp(g, Checker())
        assert primal.objective == report.lp_value, f"{model}-{n}-{seed}"
        # certificate: the cutting-plane optimum satisfies all 2^n - 2 cuts,
        # and the working LP relaxes the full one, so values coincide
        for mask in range(1, (1 << n) - 1):
            u = frozenset(v for v in range(n) if (mask >> v) & 1)
            cut = sum((primal.x[eid] for eid in g.delta_plus(u)), F(0)) + sum(
                (primal.x[eid] for eid in g.delta_minus(u)), F(0)
            )
            assert cut >= 2, f"{model}-{n}-{seed}: cut {sorted(u)} = {cut}"
        certified += 1
        if n <= 6:
            assert _full_enumeration_value(g) == primal.objective, \
                f"{model}-{n}-{seed}"
            solved_directly += 1
    assert certified >= 50 and solved_directly >= 20
    print(f"ACCEPTANCE 3: PASS - cutting-plane value certified against all "
          f"cuts on {certified} instances ({solved_directly} full LPs solved)")


DUAL_PIPELINE_LABELS = (
    "uncrossed-support-laminar",
    "uncross-objective-preserved",
    "uncross-feasibility-preserved",
    "strongly-laminar-support-laminar",
    "strongly-laminar-feasibility",
    "support-induces-scc",
    "instance-strongly-connected",
    "x-circulation",
    "x-positive",
    "family-cut-tight",
    "induced-cost-consistent",
    "lp-equals-dual-objective",
    "x-feasible-all-cuts",
)


def test_acceptance_4_dual_pipeline(reports):
    for model, n, seed, g, report, _ in reports:
        if n == 1:
            continue
        counts = report.assertion_counts
        label = f"{model}-{n}-{seed}"
        for key in ("uncrossed-support-laminar", "uncross-objective-preserved",
                    "uncross-feasibility-preserved",
                    "strongly-laminar-support-laminar",
                    "strongly-laminar-feasibility",
                    "instance-strongly-connected", "x-circulation",
                    "lp-equals-dual-objective", "x-feasible-all-cuts"):
            assert counts.get(key, 0) >= 1, f"{label}: missing {key}"
    print("ACCEPTANCE 4: PASS - dual pipeline and instance-definition checks "
          "ran exactly on all 100 instances")


@pytest.fixture(scope="module")
def cover_instances():
    """50 subtour-cover instances: vertebrate pairs with a minimal one-vertex
    backbone sitting inside every non-singleton family set (leaving the rest
    of the graph as cover targets), with empty H plus cycle-valued H where a
    family-free cycle exists away from the backbone; a few pipeline pairs
    from the recursive reduction round it out."""
    from atsp_approx.pair import VertebratePair
    from test_cover import remote_cluster_pair

    remote = remote_cluster_pair()
    out = [SubtourCoverInstance(remote, EdgeMultiset(remote.instance.g))]
    specs = [("random-strong", n, s) for n in (5, 6, 7, 8, 9, 10)
             for s in (0, 1, 2, 3)] + \
            [("unit-digraph", n, s) for n in (5, 6, 7, 8, 9, 11)
             for s in (0, 1)] + \
            [("two-cluster", n, 0) for n in range(4, 10)]
    pairs = []
    for model, n, seed in specs:
        g = gen_instance(model, n, seed)
        inst, _, _ = build_strongly_laminar_instance(g, Checker())
        common = set(range(inst.g.n))
        for s in inst.family.nonsingletons():
            common &= s
        if not common:
            continue
        pair = VertebratePair(inst, EdgeMultiset(inst.g), frozenset({min(common)}))
        pair.validate(Checker())
        pairs.append(pair)
    for pair in pairs:
        cover = SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g))
        cover.validate(Checker())
        out.append(cover)
    for pair in pairs:
        if len(out) >= 47:
            break
        g = pair.instance.g
        outside = pair.outside_vertices()
        allowed = set()
        for e in g.edges:
            if e.tail in outside and e.head in outside and not any(
                (e.tail in s) != (e.head in s)
                for s in pair.instance.family.nonsingletons()
            ):
                allowed.add(e.eid)
        cycle = _find_any_cycle(g, allowed)
        if cycle is None:
            continue
        h = EdgeMultiset(g)
        for eid in cycle:
            h.add(eid)
        candidate = SubtourCoverInstance(pair, h)
        candidate.validate(Checker())
        out.append(candidate)
    # pairs straight from the recursive reduction (backbones tend to span)
    for model, n, seed in (("random-strong", 9, 0), ("two-cluster", 8, 0),
                           ("unit-digraph", 10, 1)):
        g = gen_instance(model, n, seed)
        inst, _, _ = build_strongly_laminar_instance(g, Checker())
        pair = contracted_pair(inst, inst.ground, Checker())[0]
        cover = SubtourCoverInstance(pair, EdgeMultiset(pair.instance.g))
        cover.validate(Checker())
        out.append(cover)
    assert len(out) >= 50
    return out[:50]


def _find_any_cycle(g: Digraph, allowed: set):
    for start_eid in sorted(allowed):
        start = g.edge(start_eid)
        from atsp_approx.graph import bfs_path

        back = bfs_path(g, start.head, start.tail, allowed_edges=allowed)
        if back is not None:
            return [start_eid] + back
    return None


def _verify_cover_solution(cover: SubtourCoverInstance, f: EdgeMultiset) -> None:
    """Independent re-check of the subtour-cover contract."""
    pair = cover.pair
    inst = pair.instance
    g = inst.g
    indeg, outdeg = f.degrees()
    for v in range(g.n):
        assert indeg.get(v, 0) == outdeg.get(v, 0)  # balanced everywhere
    for w in cover.w_sets:
        assert f.crossing(w) > 0, sorted(w)  # every component is entered
    comps = undirected_components(g, f.mult.keys())
    for comp in comps:
        comp_edges = f.restrict_to(comp)
        if not comp_edges:
            continue
        crosses = any(comp_edges.crossing(s) > 0
                      for s in inst.family.nonsingletons())
        if crosses:
            assert comp & pair.backbone_vertices, sorted(comp)  # crossing parts reach the backbone
        if not comp & pair.backbone_vertices:
            mass = sum((2 * y_vertex(inst, v) for v in comp), F(0))
            assert comp_edges.cost() <= 3 * mass, sorted(comp)  # per-component bound
    outside_mass = outside_singleton_mass(pair)
    assert f.cost() <= 2 * inst.lp_value + outside_mass  # global bound


def test_acceptance_5_subtour_cover_contract(cover_instances):
    for cover in cover_instances:
        f = subtour_cover(cover, Checker())
        _verify_cover_solution(cover, f)
    print(f"ACCEPTANCE 5: PASS - {len(cover_instances)} subtour covers meet the "
          "solution conditions and both cost bounds exactly")


def _routes_neutral_flow(cover: SubtourCoverInstance) -> bool:
    """x has a fractional entry and the witness flow uses a neutral edge."""
    levels = build_level_structure(cover.pair)
    witness = compute_witness_flow(cover, levels, Checker())
    return any(q.denominator > 1 for q in cover.pair.instance.x) and any(
        levels.edge_class[eid] == NEUTRAL and val
        for eid, val in enumerate(witness.f))


def test_acceptance_6_witness_flow_minimality(cover_instances):
    # the fixture's x is integral and its witnesses leave every neutral edge
    # empty, so the random covers that route neutral flow join the battery
    from test_witness_reference import random_covers

    neutral_flow = [cover for cover in random_covers() if _routes_neutral_flow(cover)]
    assert len(neutral_flow) >= 20
    rng = random.Random(2024)
    perturbations = 0
    for cover in list(cover_instances) + neutral_flow:
        inst = cover.pair.instance
        g = inst.g
        levels = build_level_structure(cover.pair)
        checker = Checker()
        witness = compute_witness_flow(cover, levels, checker)
        classes = set(levels.edge_class)
        expected = ["witness-support-acyclic", "witness-boundary-minimal"]
        if "backward" in classes:
            expected.append("witness-zero-on-backward")
        if "forward" in classes:
            expected.append("witness-full-on-forward")
        if NEUTRAL in classes:
            expected.append("witness-bounded-on-neutral")
        if cover.pair.outside_vertices():
            expected.append("witness-nonnegative-excess")
        for key in expected:
            assert checker.counters.get(key, 0) >= 1, key
        neutral = [e.eid for e in g.edges if levels.edge_class[e.eid] == NEUTRAL]
        if not neutral:
            continue
        outside = cover.pair.outside_vertices()
        comps = cover.w_sets
        cross_count = {
            e.eid: sum(1 for w in comps if (e.tail in w) != (e.head in w))
            for e in g.edges
        }
        # the witness is kept as numerators over x's denominator
        f = [F(v, inst._x_den) for v in witness.f]
        boundary_optimum = F(witness.boundary_optimum, inst._x_den)
        excess = [F(0)] * g.n
        for e in g.edges:
            excess[e.tail] += f[e.eid]
            excess[e.head] -= f[e.eid]
        assert witness_boundary_mass(cover, witness.f) == witness.boundary_optimum
        base_excess = list(excess)
        for _ in range(1000):
            perturbations += 1
            trial_f = list(f)
            trial_excess = list(base_excess)
            trial_boundary = boundary_optimum
            for _ in range(rng.randint(1, 4)):
                eid = neutral[rng.randrange(len(neutral))]
                e = g.edge(eid)
                target = inst.x[eid] * F(rng.randint(0, 8), 8)
                delta = target - trial_f[eid]
                if delta == 0:
                    continue
                ok = True
                if e.tail in outside and trial_excess[e.tail] + delta < 0:
                    ok = False
                if e.head in outside and trial_excess[e.head] - delta < 0:
                    ok = False
                if not ok:
                    continue
                trial_f[eid] = target
                trial_excess[e.tail] += delta
                trial_excess[e.head] -= delta
                trial_boundary += cross_count[eid] * delta
            assert trial_boundary >= boundary_optimum
    assert perturbations >= 1000
    print(f"ACCEPTANCE 6: PASS - all witness-flow properties verified; "
          f"{perturbations} feasible perturbations never beat stage 1")


ROUNDING_LABELS = (
    "rounding-edge-caps",
    "rounding-cost-bound",
    "rounding-upper-indegree",
    "rounding-aux-unit",
    "aux-one-incoming",
    "rounded-witness-acyclic",
)


def test_acceptance_7_rounding_properties(cover_instances):
    free_component_runs = 0
    for cover in cover_instances:
        checker = Checker()
        subtour_cover(cover, checker)
        for key in ROUNDING_LABELS:
            needed = cover.w_sets or key not in (
                "rounding-aux-unit", "aux-one-incoming")
            if needed:
                assert checker.counters.get(key, 0) >= 1, key
        if checker.counters.get("backbone-free-zero-witness", 0):
            free_component_runs += 1
            assert checker.counters.get("backbone-free-no-forward", 0) >= 1
    assert free_component_runs >= 1
    print(f"ACCEPTANCE 7: PASS - rounding caps, unit constraints, and structure "
          f"lemmas on all runs ({free_component_runs} with backbone-free "
          "components)")


def engineered_restart() -> None:
    """An expensive first cover forces a better initialization, whose
    lightness and potential growth are asserted."""
    pair = ring_pair()
    ring = ring_cycle_avoiding_backbone(pair)
    calls = [0]

    def two_phase_cover(cover, checker):
        calls[0] += 1
        if calls[0] == 1:
            return ring.copy()
        return subtour_cover(cover, checker)

    checker = Checker()
    vertebrate_solve(pair, EPSILON, cover_fn=two_phase_cover, checker=checker)
    assert checker.counters.get("better-init-light", 0) >= 1
    assert checker.counters.get("better-init-potential-growth", 0) >= 1
    assert checker.counters.get("restart-potential-progress", 0) >= 1
    # the restarted run re-checks the new initialization's lightness
    assert checker.counters.get("initialization-light", 0) >= 1


def test_acceptance_8_svensson_bounds(reports):
    for model, n, seed, g, report, _ in reports:
        if n == 1:
            continue
        counts = report.assertion_counts
        label = f"{model}-{n}-{seed}"
        assert counts.get("solution-cost-bound", 0) >= 1, label
        assert counts.get("x-ledger-bound", 0) >= 1, label
        assert counts.get("f-ledger-bound", 0) >= 1, label
        assert counts.get("vertebrate-bound", 0) >= 1, label
    engineered_restart()
    print("ACCEPTANCE 8: PASS - solution bound, ledgers, and restart "
          "potential progress all asserted")


def test_acceptance_9_micro_identities():
    rng = random.Random(77)
    identity_checker = Checker()
    instances = 0
    while instances < 20:
        n = rng.randint(3, 9)
        model = rng.choice(MODELS)
        g = gen_instance(model, n, rng.randint(0, 999))
        inst, _, _ = build_strongly_laminar_instance(g, Checker())
        instances += 1
        for w in family_or_ground(inst):
            verts = sorted(w)
            for u in verts:
                for v in verts:
                    inst.nice_path_cost_identity(w, u, v, identity_checker)
            inst.value_and_dw(w, identity_checker)
    assert identity_checker.counters["nice-path-cost-identity"] >= 20
    assert identity_checker.counters["reach-at-most-value"] >= 20

    from atsp_approx.svensson import knapsack_greedy

    knapsack_runs = 0
    for _ in range(1000):
        count = rng.randint(1, 15)
        weights = [rng.randint(1, 50) for _ in range(count)]
        profits = [rng.randint(0, 50) for _ in range(count)]
        total_w = sum(weights)
        limit = total_w * F(rng.randint(1, 19), 20)  # always below the total
        items = [(F(w), F(p)) for w, p in zip(weights, profits)]
        chosen = knapsack_greedy(items, limit)
        got_w = sum(weights[j] for j in chosen)
        got_p = sum(profits[j] for j in chosen)
        assert F(got_w) <= limit
        assert F(got_p) >= (limit / total_w) * sum(profits) - max(profits)
        # exhaustive oracle by incremental subset sums
        best = 0
        wsum = [0] * (1 << count)
        psum = [0] * (1 << count)
        for mask in range(1, 1 << count):
            low = mask & -mask
            j = low.bit_length() - 1
            wsum[mask] = wsum[mask ^ low] + weights[j]
            psum[mask] = psum[mask ^ low] + profits[j]
            if F(wsum[mask]) <= limit and psum[mask] > best:
                best = psum[mask]
        assert got_p <= best
        knapsack_runs += 1
    assert knapsack_runs == 1000
    print(f"ACCEPTANCE 9: PASS - cost identities on {instances} instances; "
          f"knapsack guarantee vs exhaustive oracle on {knapsack_runs} runs")
