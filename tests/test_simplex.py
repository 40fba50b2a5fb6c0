from __future__ import annotations

import copy
import random
from fractions import Fraction

import pytest

from atsp_approx import simplex
from atsp_approx.errors import BudgetError, ContractViolation
from atsp_approx.simplex import INFEASIBLE, OPTIMAL, solve_lp

F = Fraction


def test_simple_min():
    # min x0 + x1 s.t. x0 + x1 >= 2, x0 - x1 >= 0, x1 - x0 >= 0
    res = solve_lp(
        [F(1), F(1)],
        [{0: F(1), 1: F(1)}, {0: F(1), 1: F(-1)}, {0: F(-1), 1: F(1)}],
        [F(2), F(0), F(0)],
    )
    assert res.status == OPTIMAL
    assert res.objective == 2
    assert res.x == [F(1), F(1)]
    assert res.duals[0] == 1  # >= row dual nonnegative


def test_infeasible():
    # x0 >= 1 and -x0 >= 0: the row of -x0 >= 0 stays negative with no
    # negative entry to pivot on
    res = solve_lp([F(1)], [{0: F(1)}, {0: F(-1)}], [F(1), F(0)])
    assert res.status == INFEASIBLE
    assert (res.x, res.objective, res.duals) == ([], 0, [])


def test_solve_lp_refuses_negative_costs():
    # the all-surplus basis is dual feasible only for c >= 0
    rows, rhs = [{0: F(1)}], [F(1)]
    with pytest.raises(ContractViolation, match="nonnegative costs"):
        solve_lp([F(-1)], rows, rhs)
    with pytest.raises(ContractViolation, match="nonnegative costs"):
        solve_lp([F(1), -0.5], rows, rhs)


def test_equality_redundant_rows():
    # an equality x0 + x1 == 2 as a pair of '>=' rows, stated twice: the
    # redundant rows should not break the dual simplex
    pair = [{0: F(1), 1: F(1)}, {0: F(-1), 1: F(-1)}]
    res = solve_lp(
        [F(1), F(2)],
        pair + pair + [{0: F(1)}],
        [F(2), F(-2), F(2), F(-2), F(1)],
    )
    assert res.status == OPTIMAL
    assert res.x[0] + res.x[1] == 2
    assert res.objective == 2


def _check_kkt(c, rows, rhs, res):
    """Exact optimality certificate: feasibility both sides + duality gap 0."""
    nvars = len(c)
    x = res.x
    for j in range(nvars):
        assert x[j] >= 0
    for row, b in zip(rows, rhs):
        assert sum(x[j] * a for j, a in row.items()) >= b
    y = res.duals
    assert all(v >= 0 for v in y)
    # dual feasibility: every reduced cost c_j - sum_i y_i A_ij is >= 0
    for j in range(nvars):
        assert c[j] - sum(y[i] * rows[i].get(j, F(0)) for i in range(len(rows))) >= 0
    # strong duality: no gap between c.x and y.b
    assert res.objective == sum(y[i] * rhs[i] for i in range(len(rows)))


def _random_lp(rng, max_vars, max_rows, density, zero_rhs=0.0, max_den=1):
    """Random LP (c, rows, rhs) of '>=' rows with costs c >= 0, a
    seventh of them 0; each row keeps a variable with probability density,
    and a zero_rhs share of right-hand sides is 0.  Most variables also get
    an upper bound, as a row -x_j >= -u_j after the others.  With
    max_den > 1 every coefficient, cost, right-hand side and upper bound is
    p/q with q drawn from 1..max_den."""

    def num(lo, hi):
        p = rng.randint(lo, hi)
        return F(p, rng.randint(1, max_den)) if max_den > 1 else F(p)

    nvars = rng.randint(1, max_vars)
    nrows = rng.randint(1, max_rows)
    c = [num(0, 6) for _ in range(nvars)]
    rows = []
    rhs = []
    for _ in range(nrows):
        row = {j: num(-3, 3) for j in range(nvars) if rng.random() < density}
        if not row:
            row = {rng.randrange(nvars): F(1)}
        rows.append(row)
        rhs.append(F(0) if zero_rhs and rng.random() < zero_rhs else num(-4, 8))
    upper = [num(1, 6) if rng.random() < 0.7 else None for _ in range(nvars)]
    for j, u in enumerate(upper):
        if u is not None:
            rows.append({j: F(-1)})
            rhs.append(-u)
    return c, rows, rhs


def random_lps():
    """The LPs of three random regimes as (where, c, rows, rhs):
    small dense LPs, then wider sparse ones whose rows are mostly zeros and
    whose zero right-hand sides force degenerate pivots, then LPs whose
    data are p/q with q in 1..6, so rows start over denominators above 1."""
    regimes = [(random.Random(5), 40, dict(max_vars=5, max_rows=4, density=0.8)),
               (random.Random(6), 100, dict(max_vars=14, max_rows=10, density=0.3,
                                            zero_rhs=0.5)),
               (random.Random(7), 100, dict(max_vars=8, max_rows=6, density=0.6,
                                            zero_rhs=0.2, max_den=6))]
    for rng, trials, shape in regimes:
        for trial in range(trials):
            yield (f"{shape} trial {trial}",) + _random_lp(rng, **shape)


def _check_random_lps_against_scipy():
    scipy = pytest.importorskip("scipy.optimize")
    for where, c, rows, rhs in random_lps():
        res = solve_lp(c, rows, rhs)
        ref = _scipy_reference(scipy, c, rows, rhs)
        if res.status == OPTIMAL:
            assert ref.status == 0, f"{where}: scipy disagrees on feasibility"
            assert abs(float(res.objective) - ref.fun) < 1e-7, where
            _check_kkt(c, rows, rhs, res)
        else:
            assert res.status == INFEASIBLE and ref.status == 2, where


def test_random_lps_against_scipy():
    _check_random_lps_against_scipy()


def test_random_lps_against_scipy_under_blands_rule(monkeypatch):
    # a streak limit of -1 makes every pivot use Bland's rule
    monkeypatch.setattr(simplex, "_DEGENERATE_STREAK_LIMIT", -1)
    _check_random_lps_against_scipy()


def _scipy_reference(scipy, c, rows, rhs):
    nvars = len(c)
    return scipy.linprog(
        [float(v) for v in c],
        A_ub=[[-float(row.get(j, 0)) for j in range(nvars)] for row in rows],
        b_ub=[-float(b) for b in rhs],
        bounds=[(0, None)] * nvars,
        method="highs",
    )


def test_solve_lp_leaves_inputs_unchanged():
    # pivots update the tableau in place; the caller's data must stay as given
    rng = random.Random(11)
    for _ in range(20):
        c, rows, rhs = _random_lp(rng, 8, 6, 0.5, zero_rhs=0.3)
        before = copy.deepcopy((c, rows, rhs))
        solve_lp(c, rows, rhs)
        assert (c, rows, rhs) == before


def test_duals_recover_equality_multipliers():
    # min 2x + 3y s.t. x + y == 4 (as x + y >= 4 and -x - y >= -4),
    # x - y >= 0; optimum x=4, y=0, and the equality's multiplier is the
    # difference of its two rows' duals
    res = solve_lp(
        [F(2), F(3)],
        [{0: F(1), 1: F(1)}, {0: F(-1), 1: F(-1)}, {0: F(1), 1: F(-1)}],
        [F(4), F(-4), F(0)],
    )
    assert res.status == OPTIMAL
    assert res.objective == 8
    assert res.x == [F(4), F(0)]
    y_up, y_down, y_ge = res.duals
    y_eq = y_up - y_down
    assert y_ge == 0  # slack constraint, complementary slackness
    assert F(2) - (y_eq + y_ge) == 0  # stationarity on the basic variable
    assert F(3) - (y_eq - y_ge) >= 0  # dual feasibility on the nonbasic one


def test_pivots_on_non_unit_entries():
    # min x + y s.t. 2x + y >= 4, x/2 + 3y/2 >= 3: the dual simplex pivots
    # on the entry -2 of the first row, which rescales the second row
    # (stored over denominator 2), and then on that row's entry -5/4
    res = solve_lp(
        [F(1), F(1)],
        [{0: F(2), 1: F(1)}, {0: F(1, 2), 1: F(3, 2)}],
        [F(4), F(3)],
    )
    assert res.status == OPTIMAL
    assert res.x == [F(6, 5), F(8, 5)]
    assert res.objective == F(14, 5)
    assert res.duals == [F(2, 5), F(2, 5)]


def test_tableau_cell_budget(monkeypatch):
    # R rows over V variables, one surplus per row, make a tableau of
    # R * (V + R) cells: at the budget it is solved, one column more is
    # refused before any row is built
    monkeypatch.setattr(simplex, "MAX_TABLEAU_CELLS", 10)
    objective = [F(1), F(1), F(1)]
    rows = [{0: F(1), 1: F(1)}, {0: F(1), 2: F(-1)}]
    res = solve_lp(objective, rows, [F(2), F(0)])  # 2 x 5
    assert res.status == OPTIMAL and res.objective == 2
    with pytest.raises(BudgetError, match="2 rows x 6 columns"):
        solve_lp(objective + [F(1)], rows, [F(2), F(0)])
    # no row is read before the check: these would raise ContractViolation
    bad_rows = [{9: F(1)}] * 3
    with pytest.raises(BudgetError, match="3 rows x 6 columns"):
        solve_lp(objective, bad_rows, [F(0)] * 3)


def _append_ge_rows(rng, c, rows, rhs, x):
    """Copies of the LP with 1-3 random '>=' rows appended; each right-hand
    side is a.x of the given point plus or minus 1, so about half the new
    rows cut x off, and some make the LP infeasible."""
    rows, rhs = list(rows), list(rhs)
    for _ in range(rng.randint(1, 3)):
        row = {j: F(rng.randint(-3, 3)) for j in range(len(c)) if rng.random() < 0.6}
        if not row:
            row = {rng.randrange(len(c)): F(1)}
        rows.append(row)
        rhs.append(sum((a * x[j] for j, a in row.items()), F(0)) + rng.choice((-1, 1)))
    return rows, rhs


def warm_started_lps(rounds=3):
    """Each optimal random LP, warm-started through up to `rounds` appends
    of random '>=' rows: yields (where, c, rows, rhs, warm result)
    per append, until an append makes the LP infeasible.  Every other LP
    repeats its first row, so that a redundant row stays in the tableau
    through the appends."""
    rng = random.Random(13)
    for trial, (where, c, rows, rhs) in enumerate(random_lps()):
        if trial % 2:
            rows, rhs = rows + rows[:1], rhs + rhs[:1]
        res = solve_lp(c, rows, rhs)
        for k in range(rounds):
            if res.status != OPTIMAL:
                break
            rows, rhs = _append_ge_rows(rng, c, rows, rhs, res.x)
            res = solve_lp(c, rows, rhs, warm=res)
            yield f"{where}, append {k}", c, rows, rhs, res


def _check_canonical(tab):
    """Each basic column reads 1 in its row and 0 in every other row and in
    the z-row, and every row has its surplus column after the variables."""
    assert len(tab.basis) == len(set(tab.basis)) == len(tab.rows)
    for r, col in enumerate(tab.basis):
        assert tab.rows[r][col] == tab.dens[r] > 0
        assert not any(row[col] for i, row in enumerate(tab.rows) if i != r)
        assert tab.zrow[col] == 0
    assert tab.ncols == tab.nvars + len(tab.rows)
    assert all(len(row) == tab.ncols + 1 for row in tab.rows)


@pytest.mark.parametrize("bland", [False, True], ids=["dantzig", "bland"])
def test_warm_start_matches_cold_solve(bland, monkeypatch):
    if bland:
        monkeypatch.setattr(simplex, "_DEGENERATE_STREAK_LIMIT", -1)
    statuses = []
    for where, c, rows, rhs, res in warm_started_lps():
        cold = solve_lp(c, rows, rhs)
        assert res.status == cold.status, where
        statuses.append(res.status)
        if res.status == OPTIMAL:
            assert res.objective == cold.objective, where
            _check_kkt(c, rows, rhs, res)
            _check_kkt(c, rows, rhs, cold)
            _check_canonical(res.tableau)
    assert statuses.count(OPTIMAL) > 60 and statuses.count(INFEASIBLE) > 30


def test_warm_start_against_scipy():
    scipy = pytest.importorskip("scipy.optimize")
    for where, c, rows, rhs, res in warm_started_lps():
        ref = _scipy_reference(scipy, c, rows, rhs)
        if res.status == OPTIMAL:
            assert ref.status == 0, f"{where}: scipy disagrees on feasibility"
            assert abs(float(res.objective) - ref.fun) < 1e-7, where
        else:
            assert res.status == INFEASIBLE and ref.status == 2, where


def test_warm_start_contract():
    c, rows, rhs = [F(1), F(1)], [{0: F(1), 1: F(1)}], [F(2)]
    res = solve_lp(c, rows, rhs)
    with pytest.raises(ContractViolation, match="same variables"):
        solve_lp(c + [F(1)], rows, rhs, warm=res)
    with pytest.raises(ContractViolation, match="same variables and objective"):
        solve_lp([F(1), F(2)], rows, rhs, warm=res)
    # a prefix of the right length is still another LP when a row or
    # right-hand side differs: -x0 - x1 >= 2 with x0 >= 3 is infeasible, and
    # counting the prefix rows alone answered it as optimal at (3, 0)
    for prefix, prefix_rhs in (([{0: F(-1), 1: F(-1)}], rhs), (rows, [F(5)])):
        with pytest.raises(ContractViolation, match="unchanged"):
            solve_lp(c, prefix + [{0: F(1)}], prefix_rhs + [F(3)], warm=res)
    # the appended row x0 >= 3 moves the optimum to (3, 0); equal values of
    # another type are the same LP
    warm = solve_lp(c, [{0: 1, 1: 1}, {0: F(1)}], [2, F(3)], warm=res)
    assert (warm.status, warm.objective, warm.x, warm.duals) == (OPTIMAL, 3, [3, 0],
                                                                  [0, 1])
    # the warm solve took res's tableau over
    with pytest.raises(ContractViolation, match="no other warm start"):
        solve_lp(c, rows + [{1: F(1)}], rhs + [F(1)], warm=res)
    rows, rhs = rows + [{0: F(1)}], rhs + [F(3)]
    infeasible = solve_lp(c, rows + [{0: F(-1)}], rhs + [F(0)], warm=warm)
    assert infeasible.status == INFEASIBLE
    assert warm.duals == [0, 1]  # kept after its tableau was taken
    with pytest.raises(ContractViolation, match="no other warm start"):
        solve_lp(c, rows, rhs, warm=infeasible)


def test_rows_are_checked_before_the_tableau_changes():
    c, rows, rhs = [F(1), F(1)], [{0: F(1), 1: F(1)}], [F(2)]
    for bad in ({2: F(1)}, {-1: F(1)}):
        with pytest.raises(ContractViolation, match="unknown variable"):
            solve_lp(c, [bad], rhs)
    res = solve_lp(c, rows, rhs)
    # a bad appended row, after a good one, leaves res's tableau as it was
    with pytest.raises(ContractViolation, match="unknown variable 2"):
        solve_lp(c, rows + [{0: F(1)}, {1: F(1), 2: F(1)}], rhs + [F(3), 0], warm=res)
    # values of other types are read through Fraction: 0.5 * x0 >= 3/2
    warm = solve_lp(c, rows + [{0: 0.5}], rhs + [F(3, 2)], warm=res)
    cold = solve_lp(c, rows + [{0: F(1, 2)}], rhs + [F(3, 2)])
    assert (warm.status, warm.x, warm.objective, warm.duals) == \
        (cold.status, cold.x, cold.objective, cold.duals) == (OPTIMAL, [3, 0], 3, [0, 2])


def test_repr_of_a_result_whose_tableau_a_warm_start_took():
    # a warm start takes the tableau over and rewrites its z-row; the result
    # it started from keeps the duals it had, in its fields and in its repr
    c, rows, rhs = [F(1)], [{0: F(1)}], [F(1)]
    first = solve_lp(c, rows, rhs)
    warm = solve_lp(c, rows + [{0: F(1)}], rhs + [F(2)], warm=first)
    assert first.tableau is None and warm.duals == [0, 1]
    assert (first.dual_num, first.dual_den, first.duals) == ([1], 1, [1])
    assert repr(first) == ("LpResult(status='optimal', x=[Fraction(1, 1)], "
                           "objective=Fraction(1, 1), duals=[Fraction(1, 1)])")
