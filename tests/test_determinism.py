"""Determinism canary: reports of fixed instances, `timings` aside, hash to
recorded digests.

The generator models rarely get past the first window; the reduction-heavy
cases (the three-branch star and two nested hubs) open several windows and
run the subtour cover, so nice paths, reach and lifting are pinned as well.
One more digest covers all 234 reference reports (the benchmark pool and
the generator sweep), so an output-preserving change is checked on every
one of them.

A change that alters any pivot, cut, family, tour or check count shows up
here.  A change that alters the pivot path on purpose updates the digests
below and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from atsp_approx.graph import Digraph
from atsp_approx.harness import GENERATOR_MODELS, gen_instance, parse_instance, run_pipeline
from fixtures import perfbench_workloads
from test_vertebrate import three_branch_star

DIGESTS = {
    ("cycle", 6): "a78ef3434c2222313b59c95028b505df398f979230573911186dc10de360a4c1",
    ("cycle", 9): "e0567f2d10e6185b5c151ddedfe640b917632b20241308686d764ce309e0813a",
    ("cycle", 12): "32d4f22539034753c968f4af58f94f388f2bc81967071d251e45f308a9d2afdd",
    ("random-strong", 6): "99529abc709cbce7545f96f2b2aa62d20a1287534eb9ade11aec0590fe6df4f1",
    ("random-strong", 9): "04770e5537843b6f76205646165a1a392f7fe043aceb372d83ef0224f384b6f4",
    ("random-strong", 12): "24aba93aff5deccf4b0257885fd3dcc58d8924d42445d00004a182c0bb001a5f",
    ("two-cluster", 6): "92b726a0a266ef62f3ad020cdb0aee29244bc1b4fb59227f6e3a76c899289fac",
    ("two-cluster", 9): "4c0ac4185e4afd83fb5b8ed4e6273058877fcd7eabb3510d9fb7f891176239b9",
    ("two-cluster", 12): "9a74011c6c628525bc9b78ecd47fd693e7f58b9716a2fefd4c655a3c42720f4c",
    ("unit-digraph", 6): "7335670ca63893f7882c00f2e42d6634ae8399b6082f942de68202e4ec0aafe8",
    ("unit-digraph", 9): "bf9f12b50a64ee2f65fb607de6d6b03d6762ff78c84edeae03113975626e9e13",
    ("unit-digraph", 12): "ff977e1172d7a6e898f87455923bb8dddbdd062f7b5f4c3ca2e068c135ce54ac",
}


@pytest.mark.parametrize("model,n", [(model, n) for model in GENERATOR_MODELS
                                     for n in (6, 9, 12)])
def test_report_digest(model, n):
    report = run_pipeline(f"{model}-{n}-0", gen_instance(model, n, 0), Fraction(1))
    assert _digest(report) == DIGESTS[model, n]


def _digest(report) -> str:
    doc = report.to_dict()
    doc.pop("timings")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def nested_hub(ring_sizes: tuple[int, ...], inner_sizes: tuple[int, ...]) -> Digraph:
    """Hub 0 with directed rings of the given sizes and one inner hub with
    rings of its own; each branch hangs off its hub by a pair of opposite
    arcs that cost more for later branches and at the outer level, so the
    backbone of a window runs through two branches and misses the rest."""
    edges = []
    count = [0]

    def vertex() -> int:
        count[0] += 1
        return count[0] - 1

    def ring(size: int) -> int:
        verts = [vertex() for _ in range(size)]
        for i, (a, b) in enumerate(zip(verts, verts[1:] + verts[:1])):
            edges.append((a, b, 1 + i % 2))
        return verts[0]

    def hub(sizes, level, inner) -> int:
        center = vertex()
        ports = [ring(size) for size in sizes]
        if inner is not None:
            ports.append(hub(inner, level + 1, None))
        for k, port in enumerate(ports):
            cost = (2 + k) * (2 - level)
            edges.extend([(center, port, cost), (port, center, cost)])
        return center

    hub(ring_sizes, 0, inner_sizes)
    return Digraph(count[0], edges)


REDUCTION_CASES = {
    "three-branch-star": lambda: three_branch_star().g,
    "nested-hub-a": lambda: nested_hub((3, 2), (2, 3, 2)),
    "nested-hub-b": lambda: nested_hub((2, 3, 4), (3, 2)),
}

REDUCTION_DIGESTS = {
    "three-branch-star": "447a8e86f4d26be8029db857c2be10409ce6965267036e6cb83bae509fafc0c8",
    "nested-hub-a": "695d64e142d8d7d543c05ab2a03644eb470b7eab4eb1cd984ad8e0e7ab6a1ec5",
    "nested-hub-b": "a2310b25dcd51b12fe7ca0154a821207412516b5b65e03289c2c56125157a44e",
}


@pytest.mark.parametrize("name", sorted(REDUCTION_CASES))
def test_reduction_heavy_digest(name):
    report = run_pipeline(name, REDUCTION_CASES[name](), Fraction(1))
    counts = report.assertion_counts
    assert counts["recursion-budget"] >= 2  # windows opened
    assert counts["cover-global-bound"] >= 1  # subtour cover calls
    assert _digest(report) == REDUCTION_DIGESTS[name]


REFERENCE_DIGEST = "a9f472bba2ad1a8676de9f293f292117169655657502ddedf650b255f826f0cd"


def reference_reports():
    """The 234 reference reports: the 60 benchmark pool instances (parsed
    from their serialized text, the oracle on dense-oracle), every generator
    model at n 2-15 with seeds 0-2, and three models at n 20 and 25."""
    workloads = perfbench_workloads()
    for workload in workloads.WORKLOADS:
        for _, _, text in workloads.make_batch(workload, 1):
            name, g = parse_instance(text)
            yield run_pipeline(name, g, Fraction(1),
                               with_oracle=workload == "dense-oracle")
    for model in GENERATOR_MODELS:
        for n in range(2, 16):
            for seed in range(3):
                yield run_pipeline(f"{model}-{n}-{seed}", gen_instance(model, n, seed),
                                   Fraction(1))
    for model in ("random-strong", "unit-digraph", "two-cluster"):
        for n in (20, 25):
            yield run_pipeline(f"{model}-{n}-0", gen_instance(model, n, 0), Fraction(1))


def test_reference_reports_digest():
    """All 234 reference reports, `timings` aside, hash to one digest."""
    digest = hashlib.sha256()
    count = 0
    for report in reference_reports():
        doc = report.to_dict()
        doc.pop("timings")
        digest.update(json.dumps(doc, sort_keys=True).encode())
        count += 1
    assert count == 234
    assert digest.hexdigest() == REFERENCE_DIGEST
