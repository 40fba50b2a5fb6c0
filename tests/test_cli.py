from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from atsp_approx import harness
from atsp_approx.cli import main
from atsp_approx.errors import InputError
from atsp_approx.harness import GENERATOR_MODELS, gen_instance, instance_to_json
from atsp_approx.simplex import MAX_TABLEAU_CELLS
from fixtures import c3, two_tri


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_then_solve(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["gen", "--model", "two-cluster", "--n", "6",
                                    "--seed", "0"])
    assert code == 0
    path = tmp_path / "inst.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, ["solve", str(path), "--epsilon", "1",
                                    "--oracle"])
    assert code == 0
    doc = json.loads(out)
    assert doc["lp_value"] == "16"
    assert doc["held_karp_opt"] == "16"
    assert doc["instance"] == "two-cluster-6-0"


def test_gen_refuses_an_n_too_large_to_solve(capsys, monkeypatch):
    # the first LP of the n-cycle has 6 n^2 cells: n = 1825 fits the
    # budget and is built, n = 1826 is refused for every model before a
    # generator or graph is made, with exit 1 and one line
    assert 6 * 1825 ** 2 <= MAX_TABLEAU_CELLS < 6 * 1826 ** 2
    assert gen_instance("cycle", 1825).m == 1825

    def not_called(*args):
        raise AssertionError("an n over the budget reached the generator")

    monkeypatch.setattr(harness, "Digraph", not_called)
    monkeypatch.setattr(random, "Random", not_called)
    for model in GENERATOR_MODELS:
        code, out, err = run_cli(capsys, ["gen", "--model", model, "--n", "1826"])
        assert (code, out) == (1, "")
        assert err == ("error: n = 1826 is too large to solve: LP tableau of 3652 rows x "
                       f"5478 columns exceeds the budget of {MAX_TABLEAU_CELLS} cells\n")


def test_solve_from_stdin(capsys, monkeypatch, tmp_path):
    payload = instance_to_json("c3", c3())
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out, _ = run_cli(capsys, ["solve", "-"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ratio"] == "1"
    assert doc["tour_walk"] == [[0, 1], [1, 2], [2, 0]]


def test_solve_rejects_bad_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "edges": [[0, 1, "1"]]}')  # not strongly connected
    code, _, err = run_cli(capsys, ["solve", str(path)])
    assert code == 1
    assert "strongly connected" in err
    for text in ('{"n": 2, "edges": [[0, 1, Infinity], [1, 0, "1"]]}',
                 '{"n": 2, "edges": [[0, 1, NaN], [1, 0, "1"]]}',
                 '{"n": true, "edges": []}',
                 '{"n": 2, "edges": [[true, 0, "1"], [0, 1, "1"]]}',
                 "TYPE: ATSP\nDIMENSION: abc\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\n"
                 "EDGE_WEIGHT_SECTION\n0\nEOF\n",
                 "TYPE: ATSP\nDIMENSION: 0\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\n"
                 "EDGE_WEIGHT_SECTION\nEOF\n",
                 '{"n": 2, "edges": [[0, 1, "1e4301"], [1, 0, "1"]]}',
                 '{"n": 2, "edges": [[0, 1, "1e-4301"], [1, 0, "1"]]}',
                 '{"n": 2, "edges": [[0, 1, "%s"], [1, 0, "1"]]}' % ("9" * 4301),
                 '{"n": 2, "edges": [[0, 1, %s], [1, 0, "1"]]}' % ("9" * 4301),
                 '{"n": 1000000000000, "edges": [[0, 1, "1"], [1, 0, "1"]]}',
                 '{"n": 2, "edges": %s}' % ("[" * 100000 + "]" * 100000)):
        path.write_text(text)
        code, out, err = run_cli(capsys, ["solve", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_1_with_one_line(unbuffered, tmp_path):
    # the reader closes its end before the child writes: with a buffered
    # stdout the report fails when it is flushed, unbuffered inside print
    path = tmp_path / "c3.json"
    path.write_text(instance_to_json("c3", c3()))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "atsp_approx.cli", "solve", str(path)],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b"error: stdout closed before the output was written\n"


def test_solve_missing_file(capsys):
    code, _, err = run_cli(capsys, ["solve", "/nonexistent/file.json"])
    assert code == 1


def test_verify_roundtrip(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json("t", two_tri()))
    code, out, _ = run_cli(capsys, ["solve", str(inst_path)])
    assert code == 0
    report = tmp_path / "report.json"
    report.write_text(out)
    code, out, _ = run_cli(capsys, ["verify", str(inst_path), str(report)])
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True


def test_verify_rejects_partial_walk(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json("c3", c3()))
    tour_path = tmp_path / "tour.json"
    tour_path.write_text(json.dumps({"tour_walk": [[0, 1]]}))
    code, out, _ = run_cli(capsys, ["verify", str(inst_path), str(tour_path)])
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False


def test_verify_rejects_malformed_tour_file(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json("c3", c3()))
    tour_path = tmp_path / "tour.json"
    for text in (json.dumps({"tour_walk": 5}),
                 json.dumps([[0, 1], [1, 2], [2, 0]]),
                 '{"tour_walk": %s}' % ("9" * 4301),
                 json.dumps({"tour_walk": [[[0], 1], [1, 2], [2, 0]]}),
                 json.dumps({"tour_walk": [[0, True], [1, 2], [2, 0]]}),
                 '{"tour_walk": %s}' % ("[" * 100000 + "]" * 100000)):
        tour_path.write_text(text)
        code, out, err = run_cli(capsys, ["verify", str(inst_path), str(tour_path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_non_utf8_input_is_rejected(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json("c3", c3()))
    bad_path = tmp_path / "bad.json"
    bad_path.write_bytes(b"\xff\xfe{}")
    for argv in (["solve", str(bad_path)], ["oracle", str(bad_path)],
                 ["verify", str(bad_path), str(inst_path)],
                 ["verify", str(inst_path), str(bad_path)]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_oracle_tsplib(tmp_path, capsys):
    path = tmp_path / "inst.atsp"
    path.write_text(
        "NAME: tiny\nTYPE: ATSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
        "EDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n"
        "0 1 9\n9 0 1\n1 9 0\nEOF\n"
    )
    code, out, _ = run_cli(capsys, ["oracle", str(path)])
    assert code == 0
    assert json.loads(out)["held_karp_opt"] == "3"


def test_bad_epsilon(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json("c3", c3()))
    code, _, err = run_cli(capsys, ["solve", str(path), "--epsilon", "0"])
    assert code == 1


EPSILON_TOO_LONG = ("error: refusing epsilon with more than 4300 digits in its numerator "
                    "or denominator\n")


def _solve_forbidden(*args):
    raise AssertionError("an epsilon that cannot be reported was solved with")


@pytest.mark.parametrize("epsilon", ["1e-4300", "1e4300"])
def test_epsilon_too_long_to_report_is_refused_before_solving(epsilon, tmp_path, capsys,
                                                              monkeypatch):
    # 10^4300 has 4301 digits: as a numerator or a denominator it could not
    # be printed in the report, so the CLI refuses it with one line and
    # exit 1 before any LP is built
    monkeypatch.setattr(harness, "solve_atsp", _solve_forbidden)
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json("c3", c3()))
    code, out, err = run_cli(capsys, ["solve", str(path), "--epsilon", epsilon])
    assert (code, out, err) == (1, "", EPSILON_TOO_LONG)


def test_run_pipeline_refuses_an_epsilon_too_long_to_report(monkeypatch):
    from fractions import Fraction

    g = c3()
    limit = 10 ** 4300
    assert harness.run_pipeline("c3", g, Fraction(1, limit - 1)).tour_cost == 3
    monkeypatch.setattr(harness, "solve_atsp", _solve_forbidden)
    for epsilon in (Fraction(1, limit), Fraction(limit), Fraction(limit + 1, 3)):
        with pytest.raises(InputError) as info:
            harness.run_pipeline("c3", g, epsilon)
        assert "epsilon" in str(info.value)


def test_tsplib_solve_end_to_end(tmp_path, capsys):
    path = tmp_path / "five.atsp"
    rows = [
        "0 2 9 9 1.5",
        "9 0 2 9 9",
        "9 9 0 2 9",
        "2 9 9 0 9",
        "1.5 9 9 9 0",
    ]
    path.write_text(
        "NAME: five\nTYPE: ATSP\nDIMENSION: 5\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
        "EDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n"
        + "\n".join(rows) + "\nEOF\n"
    )
    code, out, _ = run_cli(capsys, ["solve", str(path), "--oracle"])
    assert code == 0
    doc = json.loads(out)
    # sandwich holds with the exact rationals round-tripped as strings
    from fractions import Fraction

    lp = Fraction(doc["lp_value"])
    hk = Fraction(doc["held_karp_opt"])
    cost = Fraction(doc["tour_cost"])
    assert lp <= hk <= cost <= 23 * lp


def test_format_is_read_from_the_first_non_blank_character(tmp_path, capsys):
    # "{" opens a JSON instance; any other text is read as TSPLIB
    blank = "\n \t\n"
    name, g = harness.parse_instance(blank + instance_to_json("c3", c3()))
    assert (name, g.n, g.m) == ("c3", 3, 3)
    tsplib = ("NAME: k2\nTYPE: ATSP\nDIMENSION: 2\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\n"
              "EDGE_WEIGHT_SECTION\n0 1\n1 0\nEOF\n")
    name, g = harness.parse_instance(blank + tsplib)
    assert (name, g.n, g.m) == ("k2", 2, 2)
    with pytest.raises(InputError, match="bad JSON"):
        harness.parse_instance(blank + '{"n": 2, "edges": [}')
    # a JSON array is no instance, and the TSPLIB reader says what is missing
    with pytest.raises(InputError, match="TYPE must be ATSP"):
        harness.parse_instance("[[0, 1, 1], [1, 0, 1]]")
    path = tmp_path / "array.json"
    path.write_text("[[0, 1, 1], [1, 0, 1]]")
    code, out, err = run_cli(capsys, ["solve", str(path)])
    assert (code, out) == (1, "")
    assert err == "error: TYPE must be ATSP, got None\n"


def test_solve_refuses_tableau_over_budget(tmp_path, capsys):
    # the first LP of a directed n-cycle has 2n rows and 3n columns; 1826 is
    # the least n for which those 6 n^2 cells exceed the simplex's budget
    n = 1826
    assert 6 * (n - 1) ** 2 <= MAX_TABLEAU_CELLS < 6 * n ** 2
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"n": n, "edges": [[i, (i + 1) % n, "1"]
                                                  for i in range(n)]}))
    code, out, err = run_cli(capsys, ["solve", str(path)])
    assert code == 1
    assert out == ""
    assert err == (f"error: LP tableau of {2 * n} rows x {3 * n} columns exceeds "
                   f"the budget of {MAX_TABLEAU_CELLS} cells\n")
