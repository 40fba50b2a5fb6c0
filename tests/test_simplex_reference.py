"""Differential tests of the exact dual simplex against two references.

The first reference is a dual simplex over a dense tableau of `Fraction`s,
with the same pivoting rules as `simplex._dual`: the row with the most
negative right-hand side leaves (the first such row on a tie), the least
ratio of reduced cost to minus the entry enters (the smaller column on a
tie), and after more than `_DEGENERATE_STREAK_LIMIT` degenerate pivots in a
row the negative row with the smallest basic column leaves.  It appends
rows with their surplus basic exactly as a warm start does, so every solve,
cold or warm-started, must return the same status, x, objective and duals
as the reference, down to the types of their entries: the integer rows,
their denominators and the in-place updates may not alter a pivot.

Every optimal result also hands x on as integer numerators over their
least common denominator, which must be what `common_denominator` makes
of the reference's `Fraction` x.

The second is the two-phase primal simplex with `Fraction` basic values
that solved the first cutting round before the dual simplex did.  It
takes another pivot path, so it serves as an independent oracle for the
status and the objective of every LP.
"""

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
from atsp_approx.rational import common_denominator
from atsp_approx.simplex import INFEASIBLE, OPTIMAL
from test_determinism import REDUCTION_CASES
import test_simplex
from test_simplex import random_lps, warm_started_lps

F = Fraction
ZERO = F(0)
UNBOUNDED = "unbounded"  # a status of the two-phase reference only


class RefResult:
    """A reference's status, `Fraction` x, objective and duals, printed as
    `simplex.LpResult` prints them."""

    def __init__(self, status, x, objective, duals) -> None:
        self.status, self.x, self.objective, self.duals = status, x, objective, duals

    def __repr__(self) -> str:
        return (f"LpResult(status={self.status!r}, x={self.x!r}, "
                f"objective={self.objective!r}, duals={self.duals!r})")


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


class RefDualSimplex:
    """A dual simplex over a dense `Fraction` tableau for one objective
    c >= 0 and a growing list of '>=' rows: row i reads
    s_i - A_i.x = -b_i in terms of the current basis, the surplus s_i is
    column nvars + i, and the right-hand side is the last entry.  It reads
    the streak limit from the module, so that a patched limit switches both
    to Bland's rule."""

    def __init__(self, objective) -> None:
        self.nvars = len(objective)
        self.zrow = [Fraction(c) for c in objective] + [ZERO]
        self.rows: list[list[Fraction]] = []
        self.basis: list[int] = []

    def solve(self, rows, rhs) -> RefResult:
        """Append the rows after those already held, then re-optimise."""
        first = len(self.rows)
        k = len(rows) - first
        for row in [self.zrow, *self.rows]:
            row[-1:-1] = [ZERO] * k
        for t in range(k):
            i = first + t
            new = [ZERO] * (self.nvars + len(rows) + 1)
            for j, a in rows[i].items():
                new[j] = -Fraction(a)
            new[self.nvars + i] = F(1)
            new[-1] = -Fraction(rhs[i])
            for r, col in enumerate(self.basis):
                f = new[col]
                if f:
                    new = [v - f * p for v, p in zip(new, self.rows[r])]
            self.rows.append(new)
            self.basis.append(self.nvars + i)
        if not self._optimise():
            return RefResult(INFEASIBLE, [], ZERO, [])
        x = [ZERO] * self.nvars
        for row, col in zip(self.rows, self.basis):
            if col < self.nvars:
                x[col] = row[-1]
        return RefResult(OPTIMAL, x, -self.zrow[-1], self.zrow[self.nvars:-1])

    def _optimise(self) -> bool:
        rows, basis, zrow = self.rows, self.basis, self.zrow
        streak = 0
        while True:
            bland = streak > simplex._DEGENERATE_STREAK_LIMIT
            negative = [i for i, row in enumerate(rows) if row[-1] < 0]
            if not negative:
                return True
            if bland:
                leave = min(negative, key=lambda i: basis[i])
            else:
                leave = min(negative, key=lambda i: (rows[i][-1], i))
            prow = rows[leave]
            ratios = [(zrow[j] / -a, j) for j, a in enumerate(prow[:-1]) if a < 0]
            if not ratios:
                return False
            ratio, enter = min(ratios)
            streak = 0 if ratio else streak + 1
            pivot = prow[enter]
            prow = rows[leave] = [v / pivot for v in prow]
            basis[leave] = enter
            for i, row in enumerate(rows):
                if i != leave and row[enter]:
                    f = row[enter]
                    rows[i] = [v - f * p for v, p in zip(row, prow)]
            f = zrow[enter]
            self.zrow = zrow = [v - f * p for v, p in zip(zrow, prow)]


def ref_solve_lp(objective, rows, senses, rhs) -> RefResult:
    """The two-phase primal simplex with `Fraction` basic values that once
    solved every cold LP: Dantzig's rule in both phases, or Bland's rule
    after a run of degenerate pivots, read from the module's streak limit."""
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
        return RefResult(INFEASIBLE, [], ZERO, [])
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
        return RefResult(UNBOUNDED, [], ZERO, [])
    x = [ZERO] * ncols
    for r in range(nrows):
        x[basis[r]] = beta[r]
    solution = x[:nvars]
    obj = sum((costs[j] * solution[j] for j in range(nvars)), ZERO)
    duals = [Fraction(-zrow[art_col[i]], zden) * art_sign[i] for i in range(nrows)]
    return RefResult(OPTIMAL, solution, obj, duals)


@pytest.fixture
def compared(monkeypatch):
    """Patch `simplex.solve_lp`, and the name `test_simplex` imported it
    under, so that every call also runs both references on the same input,
    before the caller can extend its lists.  A cold call starts a new
    `RefDualSimplex`; a warm-started one continues the reference of the
    result it starts from, so both solve the same LP along the same pivot
    path and must return the same result, and an optimal one's x_num over
    x_den must be the reference's x over its least common denominator.
    The two-phase reference must reach the same status and objective.
    Collects the statuses."""
    statuses = []
    refs: dict[int, tuple[simplex.LpResult, RefDualSimplex]] = {}  # by id of a live result
    solve = simplex.solve_lp

    def solve_both(objective, rows, rhs, warm=None):
        res = solve(objective, rows, rhs, warm=warm)
        ref = RefDualSimplex(objective) if warm is None else refs.pop(id(warm))[1]
        expected = ref.solve(rows, rhs)
        # repr compares the values and their types, so an int where the
        # reference has a `Fraction` fails too
        assert repr(res) == repr(expected)
        if res.status == OPTIMAL:
            assert (res.x_num, res.x_den) == common_denominator(expected.x)
        two_phase = ref_solve_lp(objective, rows, [">="] * len(rows), rhs)
        assert (res.status, res.objective) == (two_phase.status, two_phase.objective)
        if res.status == OPTIMAL:
            refs[id(res)] = res, ref
        statuses.append(res.status)
        return res

    monkeypatch.setattr(simplex, "solve_lp", solve_both)
    monkeypatch.setattr(test_simplex, "solve_lp", solve_both)
    return statuses


@pytest.mark.parametrize("bland", [False, True], ids=["dantzig", "bland"])
def test_random_lps_match_reference(bland, compared, monkeypatch):
    # every random LP solved cold, then each optimal one warm-started
    # through up to three appends of '>=' rows; a streak limit of -1 makes
    # every pivot use Bland's rule
    if bland:
        monkeypatch.setattr(simplex, "_DEGENERATE_STREAK_LIMIT", -1)
    for _, c, rows, rhs in random_lps():
        simplex.solve_lp(c, rows, rhs)
    cold = len(compared)
    for _ in warm_started_lps():
        pass
    assert set(compared[:cold]) == set(compared[cold:]) == {OPTIMAL, INFEASIBLE}


def _cutting_round_lps():
    # every round of every subtour LP: int rows and right-hand sides over
    # Fraction costs, the rows of later rounds appended to those of earlier
    for model in GENERATOR_MODELS:
        for n in range(6, 15):
            for seed in range(3):
                solve_atsp_lp(gen_instance(model, n, seed))


def test_cutting_round_lps_match_reference(compared):
    _cutting_round_lps()
    assert len(compared) > 4 * 9 * 3  # some instances need several rounds
    assert set(compared) == {OPTIMAL}


def test_cutting_round_lps_match_reference_under_blands_rule(compared, monkeypatch):
    monkeypatch.setattr(simplex, "_DEGENERATE_STREAK_LIMIT", -1)
    _cutting_round_lps()
    assert len(compared) > 4 * 9 * 3
    assert set(compared) == {OPTIMAL}


@pytest.mark.parametrize("name", sorted(REDUCTION_CASES))
def test_reduction_case_lps_match_reference(name, compared):
    run_pipeline(name, REDUCTION_CASES[name](), F(1))
    assert compared


@pytest.mark.parametrize("name", sorted(REDUCTION_CASES))
def test_reduction_case_lps_match_reference_under_blands_rule(name, compared,
                                                              monkeypatch):
    monkeypatch.setattr(simplex, "_DEGENERATE_STREAK_LIMIT", -1)
    run_pipeline(name, REDUCTION_CASES[name](), F(1))
    assert compared


def test_other_coefficient_types_are_converted(compared):
    # ints and Fractions are read as they are; any other number goes through
    # Fraction, exactly as the references convert everything
    rows = [{0: Decimal("0.5"), 1: 1.5}, {0: 2, 1: F(1, 3)}]
    res = simplex.solve_lp([Decimal("1"), 1.0], rows, [Decimal("3"), 4.0])
    assert res.status == OPTIMAL
    assert res.x == [F(30, 17), F(24, 17)]
    assert res.objective == F(54, 17)
