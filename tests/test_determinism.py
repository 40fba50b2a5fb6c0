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
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from atsp_approx.graph import Digraph
from atsp_approx.harness import GENERATOR_MODELS, gen_instance, parse_instance, run_pipeline
from test_vertebrate import three_branch_star

DIGESTS = {
    ("cycle", 6): "ce3897a2523b98bf7e2921d41fdbb5d63dc7df8faa817b9d90283f995ec90058",
    ("cycle", 9): "26d4067e8975c0ba40ac4633a5ba73ce8918e827d75251005499b27b6e978aef",
    ("cycle", 12): "3e381925fe1d04e8c0b77240bb6c87d13a0323a1a4d2f3dcd9ea5de1d8d815a9",
    ("random-strong", 6): "104cc65e088e35cc39885fa812408980e0205d9b57d7015275a2b55e30cbc71d",
    ("random-strong", 9): "f3b92d9f787fbc1843f89381d6e1c250d6277b6ccb3c3098a0342a6805217910",
    ("random-strong", 12): "24aba93aff5deccf4b0257885fd3dcc58d8924d42445d00004a182c0bb001a5f",
    ("two-cluster", 6): "92b726a0a266ef62f3ad020cdb0aee29244bc1b4fb59227f6e3a76c899289fac",
    ("two-cluster", 9): "4359fdde9696a77227752bbbed12b18539a53793f47f5a7eb0f86dd9a6911918",
    ("two-cluster", 12): "6a7afef0edc7cbcbb694e0c2785c9204e77070384e32b44f832bf041c4cb64d9",
    ("unit-digraph", 6): "d15c46b3647c084ba0f05a98877d86480faad62862968a91256a9e5589f90aba",
    ("unit-digraph", 9): "7ae6a08ad1d51180de818b68ac601f70415b3c1cc7d4fbbb9dab0766d4dbd7a0",
    ("unit-digraph", 12): "0a39bd790bacd7ce30db04ac49933277e301e1aac1efc5350e54fb570800d3f8",
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
            edges.append((a, b, Fraction(1 + i % 2)))
        return verts[0]

    def hub(sizes, level, inner) -> int:
        center = vertex()
        ports = [ring(size) for size in sizes]
        if inner is not None:
            ports.append(hub(inner, level + 1, None))
        for k, port in enumerate(ports):
            cost = Fraction((2 + k) * (2 - level))
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


REFERENCE_DIGEST = "4b9bf307b0b21cff5ee0b9cde35d4447a585356c4672689cad0640efd38bcf27"


def _perfbench_workloads():
    """perfbench/workloads.py, loaded by path: perfbench is not a package.
    Its dataclass needs the module registered while it is defined."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def reference_reports():
    """The 234 reference reports: the 60 benchmark pool instances (parsed
    from their serialized text, the oracle on dense-oracle), every generator
    model at n 2-15 with seeds 0-2, and three models at n 20 and 25."""
    workloads = _perfbench_workloads()
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
