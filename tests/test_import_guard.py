"""Import guards: ``mpmath`` loads only when Svensson's driver restarts,
and ``dataclasses`` and ``inspect`` never load.

``mpmath``'s one use is the restart potential, which no benchmark instance
reaches, so a solve that never restarts must not pay for importing it.  The
record classes are plain classes, so importing the package compiles no
generated code and pulls in neither ``dataclasses`` nor the ``inspect``,
``ast`` and ``tokenize`` it imports.  Each check runs in a fresh
interpreter, because this test session may have loaded these modules
already.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def run_fresh(body: str) -> None:
    script = (f"import sys\nsys.path[:0] = [{str(SRC)!r}, {str(TESTS)!r}]\n"
              + textwrap.dedent(body))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stderr


def test_solving_every_benchmark_instance_leaves_mpmath_unloaded():
    # the path `atsp-approx solve` and the benchmark take, on all 60 pool
    # instances, the oracle on dense-oracle as there
    run_fresh("""
        import atsp_approx
        from fractions import Fraction
        from atsp_approx.harness import parse_instance, run_pipeline
        from fixtures import perfbench_workloads

        workloads = perfbench_workloads()
        solved = 0
        for workload in workloads.WORKLOADS:
            for _, _, text in workloads.make_batch(workload, 1):
                name, g = parse_instance(text)
                report = run_pipeline(name, g, Fraction(1),
                                      with_oracle=workload == "dense-oracle")
                assert report.assertion_counts.get("restart-potential-progress", 0) == 0
                report.to_json()
                solved += 1
        assert solved == 60, solved
        assert "mpmath" not in sys.modules
    """)


def test_importing_and_solving_loads_no_dataclasses_inspect_or_mpmath():
    # no benchmark workload module here: it imports dataclasses itself
    run_fresh("""
        import atsp_approx
        from fractions import Fraction
        from atsp_approx.harness import gen_instance, run_pipeline

        g = gen_instance("random-strong", 12, 0)
        for with_oracle in (True, False):
            report = run_pipeline("random-strong-12", g, Fraction(1),
                                  with_oracle=with_oracle)
            assert ("held_karp_opt" in report.to_json()) == with_oracle
        loaded = [name for name in ("dataclasses", "inspect", "mpmath")
                  if name in sys.modules]
        assert not loaded, loaded
    """)


def test_the_engineered_restart_loads_mpmath_and_passes():
    run_fresh("""
        from test_acceptance import engineered_restart

        assert "mpmath" not in sys.modules
        engineered_restart()
        assert "mpmath" in sys.modules
    """)
