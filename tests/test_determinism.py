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
    ("cycle", 6): "8b5a968d184c399faa5ba8008062a3d8cd7778fa1109fd83a1c76efe3cdbe533",
    ("cycle", 9): "415ad17c0a608a67c98110ae573039c0bf2c19274c7d014e6b2f9c68b44baefd",
    ("cycle", 12): "9809e858f443cee13848b10b305c9bc75c24791346aed87733e7a7fabb85ba0a",
    ("random-strong", 6): "d2dbc9a6d38e20a4b772278670ae93a31145523fa3340afbbe4b812954596c3d",
    ("random-strong", 9): "7466cdaf24022565180ba96ca438b01815a4da81af5908e34d6e3477480aa1e1",
    ("random-strong", 12): "30b530c1dc3bb2a80a911aa5cab2d85af3c096d09597dc18c3936ad401f3ae7f",
    ("two-cluster", 6): "5682089d93dad138b9a1b03195f440ed91d7c97ad3def762151e86b62376fa4a",
    ("two-cluster", 9): "73320c5748fdef83a4d89ac7adf57a546b2fe13756dff85f8892fadfab48e159",
    ("two-cluster", 12): "cc894cfefd079db1b47be38122950b0d5317b04a6765ca3059ab0b6f184ff89e",
    ("unit-digraph", 6): "72a90209513faa159bed05b1f21453093847b8ee23f438592efa465e35739c6c",
    ("unit-digraph", 9): "56f1b325cc53ef99002095948e69125420983166ebdf8590f851d13f1d748dc4",
    ("unit-digraph", 12): "eb7b23f89ec4eb9dbbb1a151bb2dc506bdfa414daa25e57605a76969761fa30b",
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
    "three-branch-star": "a7a62c63ec3ae2c7b7584426f4cfd14271f2d852da646544f178622d74f676e6",
    "nested-hub-a": "77848ce3553d216296dd58eb91c64b8991d1a2c1a91746ce7959c76ea34417e6",
    "nested-hub-b": "f98e8d4823a1f5542a26aecffc0c1d8b76a803c665067c3778e7aa200ec95b19",
}


@pytest.mark.parametrize("name", sorted(REDUCTION_CASES))
def test_reduction_heavy_digest(name):
    report = run_pipeline(name, REDUCTION_CASES[name](), Fraction(1))
    counts = report.assertion_counts
    assert counts["recursion-budget"] >= 2  # windows opened
    assert counts["cover-global-bound"] >= 1  # subtour cover calls
    assert _digest(report) == REDUCTION_DIGESTS[name]


REFERENCE_DIGEST = "50edfd85014c099af8cfc85ccf97f47ecfcc212d44ee3a6fe28cd7cb8b9cec0d"


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
