"""The benchmark's inputs are pinned: the serialized batch of every workload
hashes to a recorded digest.  `sparse-cuts` is generated by the package's
own `gen_instance` and serialized from `Edge.cost`, so a change to the
generator or to the graph type that moves the benchmark's input fails here
instead of silently changing what the benchmark measures."""

from __future__ import annotations

import hashlib
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

BATCH_DIGESTS = {
    "sparse-cuts": "d4ef010473c427836eea0f044df919fbc256c232edf3db33576a3f57b4538873",
    "dense-oracle": "42452265f06d0a6761e77339cc61c84d57463db5821df251d534ab436055705f",
    "nested-clusters": "9d2eb650d90a901b6a01ee5348acab6f94754f3af518a85d1040f11ca5b2588e",
}


@pytest.mark.parametrize("workload", sorted(BATCH_DIGESTS))
def test_benchmark_batch_texts_are_pinned(workload, monkeypatch):
    # imported from perfbench/ on the path, as the CI scale step does
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    digest = hashlib.sha256()
    batch = workloads.make_batch(workload, 1)
    for _, _, text in batch:
        digest.update(text.encode())
        digest.update(b"\0")
    assert len(batch) == 20
    assert digest.hexdigest() == BATCH_DIGESTS[workload]
