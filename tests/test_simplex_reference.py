"""Differential test of the exact simplex against the version it replaced.

The reference below keeps the basic values as a list of `Fraction`s beside
the integer tableau, runs its ratio test on `Fraction` ratios and prices in
a Python loop over every column, skipping basic and banned ones.  The
simplex under test keeps the right-hand side as one more integer entry of
each row, compares ratios by cross-multiplying ints, and prices with C-level
`min`/`index` and `compress`.  Neither change may alter a pivot, so on every
LP solved cold both must return the same status, x, objective and duals,
down to the types of their entries.  A cutting round warm-started from the
previous round's tableau is compared by status, objective and an exact
optimality certificate."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Optional

import pytest

from atsp_approx import simplex
from atsp_approx.errors import ContractViolation, InternalCheckError
from atsp_approx.harness import GENERATOR_MODELS, gen_instance, run_pipeline
from atsp_approx.lp import solve_atsp_lp
from atsp_approx.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult
from test_determinism import REDUCTION_CASES
from test_simplex import _check_kkt, random_lps

F = Fraction
ZERO = F(0)


def _ref_nonzeros(row: list[int]) -> list[int]:
    return list(compress(range(len(row)), row))


def _ref_integer_row(coeffs: dict[int, Fraction], ncols: int, sign: int
                     ) -> tuple[list[int], int]:
    den = 1
    for q in coeffs.values():
        den = lcm(den, q.denominator)
    num = [0] * ncols
    for j, q in coeffs.items():
        num[j] = sign * q.numerator * (den // q.denominator)
    return num, den


def _ref_eliminate(num: list[int], den: int, col: int, prow: list[int], pden: int,
                   nz: list[int]) -> tuple[list[int], int]:
    f = num[col]
    g = gcd(f, pden)
    if g == pden:
        f //= pden
        for j in nz:
            num[j] -= f * prow[j]
        return num, den
    scale = pden // g
    f //= g
    num = [v * scale for v in num]
    for j in nz:
        num[j] -= f * prow[j]
    den *= scale
    g = gcd(den, *num)
    if g > 1:
        num = [v // g for v in num]
        den //= g
    return num, den


def ref_solve_lp(objective, rows, senses, rhs) -> LpResult:
    """The simplex with `Fraction` basic values, as it was before the
    right-hand side joined the integer tableau.  It reads the streak limit
    from the module, so that a patched limit switches both to Bland's rule."""
    nvars = len(objective)
    nrows = len(rows)
    b = [Fraction(v) for v in rhs]
    ncols = nvars
    slack_col: list[Optional[int]] = [None] * nrows
    slack_sign: list[int] = [0] * nrows
    for i, sense in enumerate(senses):
        if sense == "<=":
            slack_col[i], slack_sign[i] = ncols, 1
            ncols += 1
        elif sense == ">=":
            slack_col[i], slack_sign[i] = ncols, -1
            ncols += 1
        elif sense != "==":
            raise ContractViolation(f"unknown sense {sense!r}")
    art_col = list(range(ncols, ncols + nrows))
    art_sign = [1 if b[i] >= 0 else -1 for i in range(nrows)]
    ncols += nrows
    tableau: list[list[int]] = []
    dens: list[int] = []
    for i in range(nrows):
        coeffs = {j: Fraction(coeff) for j, coeff in rows[i].items()}
        row, den = _ref_integer_row(coeffs, ncols, art_sign[i])
        if slack_col[i] is not None:
            row[slack_col[i]] = art_sign[i] * slack_sign[i] * den
        row[art_col[i]] = den
        tableau.append(row)
        dens.append(den)
        if art_sign[i] < 0:
            b[i] = -b[i]
    beta = list(b)
    basis = list(art_col)
    basic = [False] * ncols
    for j in basis:
        basic[j] = True
    banned = [False] * ncols

    def pivot_on(r: int, col: int) -> list[int]:
        basic[basis[r]] = False
        basis[r] = col
        basic[col] = True
        prow = tableau[r]
        nz = _ref_nonzeros(prow)
        g = gcd(*prow)
        if prow[col] < 0:
            g = -g
        if g != 1:
            for j in nz:
                prow[j] //= g
        pden = dens[r] = prow[col]
        for i in range(nrows):
            if i != r and tableau[i][col]:
                tableau[i], dens[i] = _ref_eliminate(tableau[i], dens[i], col, prow,
                                                     pden, nz)
        return nz

    def run_phase(cost: list[int], cost_den: int) -> tuple[str, list[int], int]:
        zrow, zden = list(cost), cost_den
        for r in range(nrows):
            if zrow[basis[r]]:
                zrow, zden = _ref_eliminate(zrow, zden, basis[r], tableau[r], dens[r],
                                            _ref_nonzeros(tableau[r]))
        streak = 0
        while True:
            use_bland = streak > simplex._DEGENERATE_STREAK_LIMIT
            enter = -1
            best = 0
            for j in range(ncols):
                if basic[j] or banned[j]:
                    continue
                score = -zrow[j]
                if score > 0:
                    if use_bland:
                        enter = j
                        break
                    if score > best:
                        best, enter = score, j
            if enter < 0:
                return OPTIMAL, zrow, zden
            limit: Optional[Fraction] = None
            leave_row = -1
            for i in range(nrows):
                a = tableau[i][enter]
                if a <= 0:
                    continue
                t = beta[i] * dens[i] / a
                if limit is None or t < limit or (
                    t == limit and basis[i] < basis[leave_row]
                ):
                    limit = t
                    leave_row = i
            if limit is None:
                return UNBOUNDED, zrow, zden
            t = limit
            streak = 0 if t > 0 else streak + 1
            if t:
                for i in range(nrows):
                    a = tableau[i][enter]
                    if a:
                        beta[i] -= Fraction(a * t.numerator, dens[i] * t.denominator)
            beta[leave_row] = t
            nz = pivot_on(leave_row, enter)
            if zrow[enter]:
                zrow, zden = _ref_eliminate(zrow, zden, enter, tableau[leave_row],
                                            dens[leave_row], nz)

    phase1_cost = [0] * ncols
    for j in art_col:
        phase1_cost[j] = 1
    status, _, _ = run_phase(phase1_cost, 1)
    if status != OPTIMAL:
        raise InternalCheckError("simplex-phase1", "phase 1 cannot be unbounded")
    art_set = set(art_col)
    infeas = sum((beta[i] for i in range(nrows) if basis[i] in art_set), ZERO)
    if infeas > 0:
        return LpResult(INFEASIBLE, [], ZERO, [])
    for r in range(nrows):
        if basis[r] not in art_set:
            continue
        prow = tableau[r]
        piv_col = next(
            (j for j in range(ncols) if j not in art_set and not basic[j] and prow[j]),
            None,
        )
        if piv_col is None:
            continue
        beta[r] = ZERO
        pivot_on(r, piv_col)
    for j in art_col:
        banned[j] = True
    costs = [Fraction(c) for c in objective]
    phase2_cost, phase2_den = _ref_integer_row(dict(enumerate(costs)), ncols, 1)
    status, zrow, zden = run_phase(phase2_cost, phase2_den)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, [], ZERO, [])
    x = [ZERO] * ncols
    for r in range(nrows):
        x[basis[r]] = beta[r]
    solution = x[:nvars]
    obj = sum((costs[j] * solution[j] for j in range(nvars)), ZERO)
    duals = [Fraction(-zrow[art_col[i]], zden) * art_sign[i] for i in range(nrows)]
    return LpResult(OPTIMAL, solution, obj, duals)


def assert_same_as_reference(objective, rows, senses, rhs, res=None) -> LpResult:
    """repr compares the values and their types, so an int where the
    reference has a `Fraction` fails too."""
    if res is None:
        res = simplex.solve_lp(objective, rows, senses, rhs)
    assert repr(res) == repr(ref_solve_lp(objective, rows, senses, rhs))
    return res


@pytest.fixture
def compared(monkeypatch):
    """Patch `simplex.solve_lp` so that every call also runs the reference on
    the same input, before the caller can extend its lists.  A cold solve
    must return the same result; a warm-started one takes another pivot
    path, so it must reach the same status and objective, with duals that
    certify optimality exactly.  Collects the statuses."""
    statuses = []
    solve = simplex.solve_lp

    def solve_both(objective, rows, senses, rhs, warm=None):
        res = solve(objective, rows, senses, rhs, warm=warm)
        if warm is None:
            assert_same_as_reference(objective, rows, senses, rhs, res)
        else:
            ref = ref_solve_lp(objective, rows, senses, rhs)
            assert (res.status, res.objective) == (ref.status, ref.objective)
            _check_kkt(objective, rows, senses, rhs, res)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(simplex, "solve_lp", solve_both)
    return statuses


@pytest.mark.parametrize("bland", [False, True], ids=["dantzig", "bland"])
def test_random_lps_match_reference(bland, monkeypatch):
    if bland:
        monkeypatch.setattr(simplex, "_DEGENERATE_STREAK_LIMIT", -1)
    statuses = {assert_same_as_reference(c, rows, senses, rhs).status
                for _, c, rows, senses, rhs in random_lps()}
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_cutting_round_lps_match_reference(compared):
    # every round of every subtour LP: int rows and right-hand sides over
    # Fraction costs, the rows of later rounds appended to those of earlier
    for model in GENERATOR_MODELS:
        for n in range(6, 15):
            for seed in range(3):
                solve_atsp_lp(gen_instance(model, n, seed))
    assert len(compared) > 4 * 9 * 3  # some instances need several rounds
    assert set(compared) == {OPTIMAL}


@pytest.mark.parametrize("name", sorted(REDUCTION_CASES))
def test_reduction_case_lps_match_reference(name, compared):
    run_pipeline(name, REDUCTION_CASES[name](), F(1))
    assert compared


def test_other_coefficient_types_are_converted():
    # ints and Fractions are read as they are; any other number goes through
    # Fraction, exactly as the reference converts everything
    rows = [{0: Decimal("0.5"), 1: 1.5}, {0: 2, 1: F(1, 3)}]
    res = assert_same_as_reference([Decimal("-1"), -1.0], rows, ["<=", "<="],
                                   [Decimal("3"), 4.0])
    assert res.status == OPTIMAL
    assert res.x == [F(30, 17), F(24, 17)]
