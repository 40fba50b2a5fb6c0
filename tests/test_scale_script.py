"""`scripts/scale.py`: its growth fit, and one capped child solve.

The full ladders take minutes and are run by hand; these tests solve one
small cycle in a child process and check the record it returns, and that
an instance over its cap is recorded as such."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scale.py"
_spec = importlib.util.spec_from_file_location("scale", SCRIPT)
scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale)

CYCLE = {"model": "cycle", "n": 12, "seed": 0}


def test_growth_exponent_is_the_log_log_slope():
    records = [{"status": "ok", "n": n, "solve_s": 0.5 * n ** 2} for n in (10, 20, 40)]
    records.append({"status": "over_cap", "cap_s": 60})
    fit = scale.growth_exponent(records)
    assert math.isclose(fit["exponent"], 2.0)
    assert fit["points"] == 3 and fit["n_range"] == [10, 40]
    assert scale.growth_exponent(records[:1]) is None


def test_child_solve_records_layers_and_counters():
    record = scale.run_child("cycle", CYCLE, 120)
    assert record["status"] == "ok", record
    assert (record["n"], record["m"]) == (12, 12)
    assert record["missing_wrap_points"] == []
    # the cycle's integral x shrinks to one class in every separation
    assert record["counters"]["flows.maxflow.calls"] == 0
    assert record["maxflow_share"] == 0
    assert record["counters"]["lp.rounds"] == 1
    assert "simplex" in record["self_s"] and record["peak_rss_mb"] > 0


def test_child_over_its_cap_is_recorded():
    assert scale.run_child("cycle", CYCLE, 0.01) == {"status": "over_cap", "cap_s": 0.01}
