"""Import guard: ``mpmath`` loads only when Svensson's driver restarts.

Its one use is the restart potential, which no benchmark instance reaches,
so a solve that never restarts must not pay for importing it.  Each check
runs in a fresh interpreter, because this test session may have loaded
``mpmath`` already.
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


def test_the_engineered_restart_loads_mpmath_and_passes():
    run_fresh("""
        from test_acceptance import engineered_restart

        assert "mpmath" not in sys.modules
        engineered_restart()
        assert "mpmath" in sys.modules
    """)
