"""Determinism canary: reports of fixed generated instances, `timings` aside,
hash to recorded digests.

A change that alters any pivot, cut, family, tour or check count shows up
here.  A change that alters the pivot path on purpose updates the digests
below and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from atsp_approx.harness import GENERATOR_MODELS, gen_instance, run_pipeline

DIGESTS = {
    ("cycle", 6): "ce3897a2523b98bf7e2921d41fdbb5d63dc7df8faa817b9d90283f995ec90058",
    ("cycle", 9): "26d4067e8975c0ba40ac4633a5ba73ce8918e827d75251005499b27b6e978aef",
    ("cycle", 12): "3e381925fe1d04e8c0b77240bb6c87d13a0323a1a4d2f3dcd9ea5de1d8d815a9",
    ("random-strong", 6): "104cc65e088e35cc39885fa812408980e0205d9b57d7015275a2b55e30cbc71d",
    ("random-strong", 9): "f3b92d9f787fbc1843f89381d6e1c250d6277b6ccb3c3098a0342a6805217910",
    ("random-strong", 12): "091724c8d6ceb4e56db0f119f2e0d376407902486425c7928b64a0a040452407",
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
    doc = report.to_dict()
    doc.pop("timings")
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == DIGESTS[model, n]
