"""Exact simplex over the rationals: a two-phase primal solve, and a dual
simplex that re-optimises a solved LP after `>=` rows are appended.

Solves  min c.x  s.t.  A_i.x {<=,==,>=} b_i,  x >= 0  in exact rational
arithmetic and reports row duals, which downstream code turns into the
(a, y) dual solution of the subtour-elimination LP.

A cold solve runs two phases of the primal simplex from an all-artificial
basis.  Pivoting uses Dantzig's rule with an automatic switch to Bland's
rule after a run of degenerate pivots, which guarantees termination.

The tableau holds Python ints: row i is a dense list of numerators N_i over
one positive denominator d_i, so its entry j is N_i[j] / d_i, and its last
entry is the right-hand side, the value of the row's basic variable, over
the same d_i.  The phase's z-row is kept the same way; its right-hand side
is minus the objective, which is read from there.  Building a row takes
d_i as the lcm of its coefficient and right-hand-side denominators.  This
is fraction-free elimination in the spirit of Edmonds (1967), as in exact
LP codes such as QSopt_ex: updating a row, right-hand side included, costs
integer operations and at most two gcd calls, where a `Fraction` entry
costs a gcd and new objects per operation.  A pivot touches only the
nonzeros of the pivot row, and signs and order compare exactly on
numerators because every denominator is positive.

The pivot loop builds no `Fraction`.  The ratio of row i is
N_i[rhs] / N_i[enter], as d_i cancels, so the ratio test compares two rows
by cross-multiplying ints.  Pricing runs in C: basic columns have a z-row
entry of 0 and the artificials, banned in phase 2, are the last columns,
so Dantzig's rule takes the first most negative entry before them and
Bland's rule the first negative one.  x and the duals become `Fraction`s
only at the end.

Warm start.  An optimal result keeps its final tableau: the integer rows,
their denominators, the basis and the phase-2 z-row.  Solving again with
`warm=` that result, the same objective and the same rows followed by new
`>=` rows appends only the new rows, each with its surplus column basic,
and eliminates the basic columns from them.  A surplus costs 0, so the
z-row does not change and the basis stays dual feasible; only the new rows
whose cut the previous x violates have a negative right-hand side.  An
integer dual simplex restores primal feasibility (Applegate, Bixby,
Chvátal and Cook, *The Traveling Salesman Problem: A Computational Study*,
2006, ch. 13): the row with the most negative right-hand side leaves, and
of the columns before the artificials with a negative entry in that row,
the one with the least ratio of reduced cost to minus that entry enters,
ties to the smaller column, by cross-multiplied ints.  After a run of
degenerate pivots (a zero reduced cost enters) the leaving row is the
negative one with the smallest basic column, Bland's rule for the dual.
A negative row with no such column proves the LP infeasible.  The surplus
column of an appended row i is -e_i, so its reduced cost is the row's dual.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import BudgetError, ContractViolation, InternalCheckError

ZERO = Fraction(0)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_DEGENERATE_STREAK_LIMIT = 64

# Rows are dense, so a tableau of R rows and C columns (variables, one
# slack or surplus per inequality, one artificial per row) holds R * C list
# slots: at 8 bytes a slot this budget is 160 MB before any nonzero entry's
# own int.  The right-hand-side entry each row also holds is not counted.
# Directed cycles build the largest tableaus of the scale ladders,
# 2n x 4n cells: 5.1e6 at n = 800, 8e6 at n = 1000, which leaves 2.5x
# headroom (random-strong n = 300 builds 8.4e5, dense n = 60 4.7e5).
MAX_TABLEAU_CELLS = 20_000_000

_RATIONAL = (int, Fraction)  # types whose numerator and denominator are read as is
_NEGATIVE = (0).__gt__


def check_tableau_budget(nrows: int, nvars: int, ninequalities: int) -> None:
    """Raise BudgetError when the tableau of nrows rows over nvars variables,
    ninequalities of the rows being inequalities, exceeds MAX_TABLEAU_CELLS;
    it needs no row, so callers check before building any."""
    width = nvars + ninequalities + nrows
    if nrows * width > MAX_TABLEAU_CELLS:
        raise BudgetError(f"LP tableau of {nrows} rows x {width} columns exceeds "
                          f"the budget of {MAX_TABLEAU_CELLS} cells")


def _nonzeros(row: list[int]) -> list[int]:
    return list(compress(range(len(row)), row))


def _integer_row(coeffs: dict[int, Fraction | int], ncols: int, sign: int,
                 rhs: Fraction | int) -> tuple[list[int], int]:
    """Numerators over the lcm of the denominators of sign * coeffs, with
    sign * rhs as entry ncols."""
    den = rhs.denominator
    for q in coeffs.values():
        den = lcm(den, q.denominator)
    num = [0] * (ncols + 1)
    for j, q in coeffs.items():
        num[j] = sign * q.numerator * (den // q.denominator)
    num[ncols] = sign * rhs.numerator * (den // rhs.denominator)
    return num, den


def _eliminate(num: list[int], den: int, col: int, prow: list[int], pden: int,
               nz: list[int]) -> tuple[list[int], int]:
    """Clear column col of the row num/den by subtracting num[col]/den times
    the pivot row prow/pden, whose entry at col reads 1 (prow[col] == pden);
    nz lists the nonzero columns of prow.  Returns the new (num, den).

    When pden divides num[col] (always when pden == 1) the multiplier is
    an integer over den, so num is updated in place over nz and den stays.
    Otherwise the row and den are scaled by pden / gcd(num[col], pden), the
    least that keeps the update integral, and the result is divided by the
    gcd of den and all its entries."""
    f = num[col]
    g = gcd(f, pden)
    if g == pden:
        f //= pden
        if f == 1:
            for j in nz:
                num[j] -= prow[j]
        elif f == -1:
            for j in nz:
                num[j] += prow[j]
        else:
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


class _Tableau:
    """The integer tableau of one LP: row i is rows[i] / dens[i], over the
    columns [variables | slacks and surpluses | artificials] and the
    right-hand side at column ncols; basis[i] is the column basic in row i.

    The first len(art_sign) rows were there at the cold solve and have an
    artificial each, column art0 + i, whose row was negated when
    art_sign[i] is -1.  The rows appended since have none; surplus[k] is
    the column of the surplus of the k-th of them.  zrow / zden is the
    phase-2 z-row once the cold solve is optimal.  costs, coeffs, senses
    and rhs are the LP the rows were built from, as solve_lp read it."""

    def __init__(self, nvars: int, ncols: int, art0: int, art_sign: list[int],
                 costs: list[Fraction | int], coeffs: list[dict[int, Fraction | int]],
                 senses: list[str], rhs: list[Fraction | int]) -> None:
        self.nvars = nvars
        self.ncols = ncols
        self.art0 = art0
        self.art_sign = art_sign
        self.costs = costs
        self.coeffs = coeffs
        self.senses = senses
        self.rhs = rhs
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        self.surplus: list[int] = []
        self.zrow: list[int] = []
        self.zden = 1

    def pivot_on(self, r: int, col: int) -> list[int]:
        """Column col enters the basis at row r.  Row r's nonzeros get the
        sign of its entry at col and are divided by their gcd; that entry
        becomes the row's denominator, so it reads 1.  Column col is then
        eliminated from every other row through `_eliminate`, over the
        nonzeros of row r only.  Returns their column indices."""
        tableau, dens = self.rows, self.dens
        self.basis[r] = col
        prow = tableau[r]
        nz = _nonzeros(prow)
        g = gcd(*prow)
        if prow[col] < 0:
            g = -g
        if g != 1:
            for j in nz:
                prow[j] //= g
        pden = dens[r] = prow[col]
        for i, row in enumerate(tableau):
            if row[col] and i != r:
                tableau[i], dens[i] = _eliminate(row, dens[i], col, prow, pden, nz)
        return nz

    def append_ge_rows(self, rows: list[tuple[dict[int, Fraction | int], Fraction | int]]
                       ) -> None:
        """Append the rows coeffs.x >= b, each as s - coeffs.x = -b with its
        surplus s basic, in terms of the current basis.  The new surplus
        columns go just before the artificials, which stay last."""
        k = len(rows)
        art0 = self.art0
        pad = [0] * k
        for row in self.rows:
            row[art0:art0] = pad
        self.zrow[art0:art0] = pad
        self.art0 += k
        self.ncols += k
        old = list(enumerate(zip(self.rows, self.dens)))
        basis = self.basis = [j + k if j >= art0 else j for j in self.basis]
        nonzeros: dict[int, list[int]] = {}  # of the old rows, as needed
        for t, (coeffs, b) in enumerate(rows):
            self.coeffs.append(coeffs)
            self.senses.append(">=")
            self.rhs.append(b)
            num, den = _integer_row(coeffs, self.ncols, -1, b)
            num[art0 + t] = den
            for r, (row, rden) in old:
                if num[basis[r]]:
                    if r not in nonzeros:
                        nonzeros[r] = _nonzeros(row)
                    num, den = _eliminate(num, den, basis[r], row, rden, nonzeros[r])
            self.rows.append(num)
            self.dens.append(den)
            basis.append(art0 + t)
            self.surplus.append(art0 + t)

    def pivot_cap(self) -> int:
        return 50000 + 500 * (len(self.rows) + self.ncols)

    def result(self) -> "LpResult":
        """The optimal x and objective, with this tableau kept for a warm
        start and for reading the duals."""
        rhs = self.ncols
        x = [ZERO] * self.nvars
        for r, j in enumerate(self.basis):
            if j < self.nvars:
                x[j] = Fraction(self.rows[r][rhs], self.dens[r])
        return LpResult(OPTIMAL, x, Fraction(-self.zrow[rhs], self.zden), tableau=self)

    def duals(self) -> list[Fraction]:
        """The row duals of the optimal basis."""
        zrow, zden, art0 = self.zrow, self.zden, self.art0
        # The artificial for cold row i has column sigma_i * e_i, so its
        # reduced cost is -sigma_i * y_i; the surplus of an appended row i
        # has column -e_i and reduced cost y_i.
        duals = [Fraction(-sign * zrow[art0 + i], zden)
                 for i, sign in enumerate(self.art_sign)]
        duals.extend(Fraction(zrow[j], zden) for j in self.surplus)
        return duals


class LpResult:
    """The status, x, objective and row duals of one solve.

    An optimal result keeps its final tableau for a warm start.  Its duals
    are read from that tableau on first access, so a cutting loop that
    reads only its last round's duals builds them once.  A warm start
    rewrites the tableau it takes over, so the duals of a result must be
    read before it is warm-started from; later they are refused."""

    __slots__ = ("status", "x", "objective", "_duals", "tableau")

    def __init__(self, status: str, x: list[Fraction], objective: Fraction,
                 duals: Optional[list[Fraction]] = None,
                 tableau: Optional[_Tableau] = None) -> None:
        self.status = status
        self.x = x
        self.objective = objective
        self._duals = duals
        self.tableau = tableau

    @property
    def duals(self) -> list[Fraction]:
        if self._duals is None:
            if self.tableau is None:
                raise ContractViolation("the duals of a result are gone once a warm "
                                        "start has taken its tableau")
            self._duals = self.tableau.duals()
        return self._duals

    def __repr__(self) -> str:
        return (f"LpResult(status={self.status!r}, x={self.x!r}, "
                f"objective={self.objective!r}, duals={self.duals!r})")


def _primal(tab: _Tableau, cost: list[int], cost_den: int, end: int
            ) -> tuple[str, list[int], int]:
    """Optimise the cost cost/cost_den from the current basis over the
    columns before end; returns the status and the final z-row as
    numerators over a denominator."""
    tableau, dens, basis, ncols = tab.rows, tab.dens, tab.basis, tab.ncols
    zrow, zden = list(cost), cost_den
    for r, row in enumerate(tableau):
        if zrow[basis[r]]:
            zrow, zden = _eliminate(zrow, zden, basis[r], row, dens[r], _nonzeros(row))
    streak = 0
    pivots = 0
    pivot_cap = tab.pivot_cap()
    while True:
        pivots += 1
        if pivots > pivot_cap:
            raise InternalCheckError("simplex-pivot-cap", f"{pivots} pivots")
        # Basic columns have z-row entry 0, so only a nonbasic column can
        # be negative.
        if streak > _DEGENERATE_STREAK_LIMIT:
            enter = next(compress(range(end), map(_NEGATIVE, zrow)), -1)
        else:
            low = min(zrow[:end], default=0)
            enter = zrow.index(low) if low < 0 else -1
        if enter < 0:
            return OPTIMAL, zrow, zden
        # Ratio test: the step of the entering variable is limited by
        # rhs_i / a_i over the rows with a_i > 0; the least ratio leaves,
        # ties to the smaller basic column.
        leave, lim_rhs, lim_a = -1, 0, 0
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                diff = row[ncols] * lim_a - lim_rhs * a
                if leave < 0 or diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                    leave, lim_rhs, lim_a = i, row[ncols], a
        if leave < 0:
            return UNBOUNDED, zrow, zden
        if lim_rhs:
            streak = 0
        else:
            streak += 1
        nz = tab.pivot_on(leave, enter)
        if zrow[enter]:
            zrow, zden = _eliminate(zrow, zden, enter, tableau[leave], dens[leave], nz)


def _phase_one(tab: _Tableau) -> bool:
    """Minimise the artificial mass from the all-artificial basis, then
    drive basic artificials out where possible; False when the LP is
    infeasible."""
    art0, ncols = tab.art0, tab.ncols
    phase1_cost = [0] * (ncols + 1)
    for j in range(art0, ncols):
        phase1_cost[j] = 1
    status, _, _ = _primal(tab, phase1_cost, 1, ncols)
    if status != OPTIMAL:
        raise InternalCheckError("simplex-phase1", "phase 1 cannot be unbounded")
    tableau, basis = tab.rows, tab.basis
    if any(row[ncols] for row, col in zip(tableau, basis) if col >= art0):
        return False
    # Redundant rows keep a zero-valued basic artificial whose row is
    # all-zero on real columns.  The other basic columns are zero in row r,
    # and its right-hand side is 0, so the pivot is degenerate.
    for r in range(len(tableau)):
        if basis[r] < art0:
            continue
        piv_col = next(compress(range(art0), tableau[r]), None)
        if piv_col is not None:
            tab.pivot_on(r, piv_col)
    return True


def _dual(tab: _Tableau) -> str:
    """Dual simplex from a dual feasible basis until every right-hand side
    is nonnegative (OPTIMAL) or a negative row has no entering column
    (INFEASIBLE).  The z-row stays in tab."""
    tableau, dens, basis = tab.rows, tab.dens, tab.basis
    rhs, art0 = tab.ncols, tab.art0
    zrow, zden = tab.zrow, tab.zden
    streak = 0
    pivots = 0
    pivot_cap = tab.pivot_cap()
    while True:
        pivots += 1
        if pivots > pivot_cap:
            raise InternalCheckError("simplex-pivot-cap", f"{pivots} dual pivots")
        bland = streak > _DEGENERATE_STREAK_LIMIT
        leave, lim_rhs, lim_den = -1, 0, 1
        for i, row in enumerate(tableau):
            v = row[rhs]
            if v < 0 and (leave < 0 or (basis[i] < basis[leave] if bland
                                        else v * lim_den < lim_rhs * dens[i])):
                leave, lim_rhs, lim_den = i, v, dens[i]
        if leave < 0:
            tab.zrow, tab.zden = zrow, zden
            return OPTIMAL
        # Dual ratio test: over a_j < 0, the least zrow_j / -a_j enters;
        # zrow_j / -a_j < zrow_k / -a_k  iff  zrow_j * a_k > zrow_k * a_j.
        prow = tableau[leave]
        enter, lim_z, lim_a = -1, 0, 0
        for j in compress(range(art0), prow):
            a = prow[j]
            if a < 0 and (enter < 0 or zrow[j] * lim_a > lim_z * a):
                enter, lim_z, lim_a = j, zrow[j], a
        if enter < 0:
            return INFEASIBLE
        if lim_z:
            streak = 0
        else:
            streak += 1
        nz = tab.pivot_on(leave, enter)
        if zrow[enter]:
            zrow, zden = _eliminate(zrow, zden, enter, tableau[leave], dens[leave], nz)


def _rational_row(row: dict[int, Fraction | int], nvars: int) -> dict[int, Fraction | int]:
    coeffs = {}
    for j, coeff in row.items():
        if not (0 <= j < nvars):
            raise ContractViolation(f"row references unknown variable {j}")
        coeffs[j] = coeff if type(coeff) in _RATIONAL else Fraction(coeff)
    return coeffs


def solve_lp(
    objective: Sequence[Fraction | int],
    rows: Sequence[dict[int, Fraction | int]],
    senses: Sequence[str],
    rhs: Sequence[Fraction | int],
    warm: Optional[LpResult] = None,
) -> LpResult:
    """Solve the LP exactly; rows are sparse {var: coeff} maps.

    Coefficients, costs and right-hand sides that are neither int nor
    `Fraction` are converted with `Fraction`.  Duals follow the convention
    that at optimality the reduced cost c_j - sum_i duals[i]*A[i][j] is
    nonnegative for every variable; '>=' rows therefore get nonnegative
    duals and '<=' rows nonpositive ones.

    With warm, an optimal result of this function for the same objective
    and a prefix of these rows, the rows after that prefix must be '>='
    rows; they are appended to warm's final tableau and the dual simplex
    re-optimises from its basis (see the module docstring).  An objective,
    row, sense or right-hand side in that prefix that differs from warm's
    LP is refused with ContractViolation.  The new result takes warm's
    tableau over, so warm cannot be warm-started from again, and warm's
    duals, unless read before, can no longer be read.
    """
    nvars = len(objective)
    nrows = len(rows)
    if not (len(senses) == len(rhs) == nrows):
        raise ContractViolation("rows/senses/rhs length mismatch")
    check_tableau_budget(nrows, nvars, sum(1 for sense in senses if sense != "=="))
    b = [v if type(v) in _RATIONAL else Fraction(v) for v in rhs]
    costs = [c if type(c) in _RATIONAL else Fraction(c) for c in objective]
    if warm is not None:
        return _warm_solve(warm, costs, rows, senses, b)

    # Append slack/surplus columns, then one artificial per row.
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
    art0 = ncols  # artificial i is column art0 + i, after every real column
    art_sign = [1 if b[i] >= 0 else -1 for i in range(nrows)]
    ncols += nrows
    coeffs = [_rational_row(row, nvars) for row in rows]
    tab = _Tableau(nvars, ncols, art0, art_sign, costs, coeffs, list(senses), b)

    # A row with a negative right-hand side is negated so that its
    # artificial enters with coefficient 1.
    for i in range(nrows):
        row, den = _integer_row(coeffs[i], ncols, art_sign[i], b[i])
        if slack_col[i] is not None:
            row[slack_col[i]] = art_sign[i] * slack_sign[i] * den
        row[art0 + i] = den
        tab.rows.append(row)
        tab.dens.append(den)
    tab.basis = list(range(art0, art0 + nrows))  # artificials start basic

    if not _phase_one(tab):
        return LpResult(INFEASIBLE, [], ZERO, [])
    # Phase 2: the real objective, the artificials banned.
    phase2_cost, phase2_den = _integer_row(dict(enumerate(costs)), ncols, 1, 0)
    status, tab.zrow, tab.zden = _primal(tab, phase2_cost, phase2_den, art0)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, [], ZERO, [])
    return tab.result()


def _warm_solve(warm: LpResult, costs: list[Fraction | int],
                rows: Sequence[dict[int, Fraction | int]], senses: Sequence[str],
                b: list[Fraction | int]) -> LpResult:
    tab = warm.tableau
    if tab is None:
        raise ContractViolation("a warm start needs an optimal result whose tableau "
                                "no other warm start has taken")
    first = len(tab.rows)
    if costs != tab.costs or len(rows) < first:
        raise ContractViolation("a warm start needs the same variables and objective, "
                                "and the rows it was solved with first")
    if (list(rows[:first]) != tab.coeffs or list(senses[:first]) != tab.senses
            or b[:first] != tab.rhs):
        raise ContractViolation("a warm start needs the rows, senses and right-hand "
                                "sides it was solved with first, unchanged")
    new = []
    for i in range(first, len(rows)):
        if senses[i] != ">=":
            raise ContractViolation(f"a warm start appends '>=' rows only, not {senses[i]!r}")
        new.append((_rational_row(rows[i], tab.nvars), b[i]))
    warm.tableau = None
    tab.append_ge_rows(new)
    if _dual(tab) == INFEASIBLE:
        return LpResult(INFEASIBLE, [], ZERO, [])
    return tab.result()
