"""Exact dual simplex over the rationals for  min c.x  s.t.  A x >= b,
x >= 0  with  c >= 0.

Row duals are reported too, and downstream code turns them into the (a, y)
dual solution of the subtour-elimination LP.

Every row i is stored as s_i - A_i.x = -b_i with its surplus s_i basic.
With no other rows this all-surplus basis has the z-row c, which is dual
feasible because c >= 0, so no artificial column and no phase 1 is
needed.  An integer dual simplex (Applegate, Bixby, Chvátal and Cook, *The
Traveling Salesman Problem: A Computational Study*, 2006, ch. 13) restores
primal feasibility: the row with the most negative right-hand side
leaves, and of the columns with a negative entry in that row, the one with
the least ratio of reduced cost to minus that entry enters, ties to the
smaller column, by cross-multiplied ints.  After a run of degenerate
pivots (a zero reduced cost enters) the leaving row is the negative one
with the smallest basic column, Bland's rule for the dual, which
guarantees termination.  A negative row with no entering column proves
the LP infeasible.  The objective is bounded below by 0, so the LP is
never unbounded.  The surplus column of row i is -e_i, so its reduced
cost is the row's dual.

The tableau holds Python ints: row i is a dense list of numerators N_i over
one positive denominator d_i, so its entry j is N_i[j] / d_i, and its last
entry is the right-hand side, the value of the row's basic variable, over
the same d_i.  The z-row is kept the same way; its right-hand side is
minus the objective, which is read from there.  Building a row takes d_i
as the lcm of its coefficient and right-hand-side denominators.  This is
fraction-free elimination in the spirit of Edmonds (1967), as in exact LP
codes such as QSopt_ex: updating a row, right-hand side included, costs
integer operations and at most two gcd calls, where a `Fraction` entry
costs a gcd and new objects per operation.  A pivot touches only the
nonzeros of the pivot row, and signs and order compare exactly on
numerators because every denominator is positive.  The pivot loop builds
no `Fraction`, and neither does the result: x is handed on as integer
numerators over their least common denominator, and the duals as the
z-row's numerators over its denominator (`LpResult`).

Warm start.  An optimal result keeps its final tableau: the integer rows,
their denominators, the basis and the z-row.  Solving again with `warm=`
that result, the same objective and the same rows followed by new rows
appends only the new rows, each with its surplus basic, and eliminates the
basic columns from them.  A surplus costs 0, so the z-row does not change
and the basis stays dual feasible; only the new rows whose cut the
previous x violates have a negative right-hand side.  A cold solve is the
same step from the empty tableau: every row is appended, and the dual
simplex runs.
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

_DEGENERATE_STREAK_LIMIT = 64

# Rows are dense, so a tableau of R rows and C columns (variables and one
# surplus per row) holds R * C list slots: at 8 bytes a slot this budget is
# 160 MB before any nonzero entry's own int.  The right-hand-side entry
# each row also holds is not counted.  Directed cycles build the largest
# tableaus of the scale ladders, 2n x 3n cells: 3.8e6 at n = 800, 6e6 at
# n = 1000, and n = 1825 is the largest cycle admitted (the first round of
# random-strong n = 300 builds 6.6e5, of dense n = 60 4.4e5).
MAX_TABLEAU_CELLS = 20_000_000

_RATIONAL = (int, Fraction)  # types whose numerator and denominator are read as is


def check_tableau_budget(nrows: int, nvars: int) -> None:
    """Raise BudgetError when the tableau of nrows rows over nvars
    variables, nrows + nvars columns, exceeds MAX_TABLEAU_CELLS; it needs
    no row, so callers check before building any."""
    width = nvars + nrows
    if nrows * width > MAX_TABLEAU_CELLS:
        raise BudgetError(f"LP tableau of {nrows} rows x {width} columns exceeds "
                          f"the budget of {MAX_TABLEAU_CELLS} cells")


def _nonzeros(row: list[int]) -> list[int]:
    return list(compress(range(len(row)), row))


def _integer_row(coeffs: dict[int, Fraction | int], nvars: int, ncols: int, sign: int,
                 rhs: Fraction | int) -> tuple[list[int], int]:
    """Numerators over the lcm of the denominators of sign * coeffs, with
    sign * rhs as entry ncols, in one pass over the row: a variable outside
    0..nvars-1 raises ContractViolation, a value neither int nor `Fraction`
    is converted with `Fraction`, and lcm is called only for a denominator
    other than 1.  The entries are rescaled to the lcm only when it is not
    1."""
    num = [0] * (ncols + 1)
    den = rhs.denominator
    fractional = []
    for j, q in coeffs.items():
        if not (0 <= j < nvars):
            raise ContractViolation(f"row references unknown variable {j}")
        if type(q) is not int:
            if type(q) is not Fraction:
                q = Fraction(q)
            d = q.denominator
            if d != 1:
                den = lcm(den, d)
                fractional.append((j, d))
            q = q.numerator
        num[j] = sign * q
    if den != 1:
        for j in coeffs:
            num[j] *= den
        for j, d in fractional:
            num[j] //= d
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
    columns [variables | surpluses] and the right-hand side at column
    ncols; the surplus of row i is column nvars + i, and basis[i] is the
    column basic in row i.  zrow / zden is the z-row.  costs, coeffs and
    rhs are the LP the rows were built from, as solve_lp read it."""

    def __init__(self, costs: list[Fraction | int]) -> None:
        self.nvars = self.ncols = len(costs)
        self.costs = costs
        self.coeffs: list[dict[int, Fraction | int]] = []
        self.rhs: list[Fraction | int] = []
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        self.zrow, self.zden = _integer_row(dict(enumerate(costs)), self.nvars, self.ncols,
                                            1, 0)

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
        columns go last, before the right-hand side.  Every row is read
        into integers, and so checked, before the tableau changes."""
        k = len(rows)
        first = self.ncols
        built = [_integer_row(coeffs, self.nvars, first + k, -1, b) for coeffs, b in rows]
        pad = [0] * k
        for row in self.rows:
            row[first:first] = pad
        self.zrow[first:first] = pad
        self.ncols += k
        old = list(enumerate(zip(self.rows, self.dens)))
        basis = self.basis
        nonzeros: dict[int, list[int]] = {}  # of the old rows, as needed
        for t, ((coeffs, b), (num, den)) in enumerate(zip(rows, built)):
            self.coeffs.append(dict(coeffs))
            self.rhs.append(b)
            num[first + t] = den
            for r, (row, rden) in old:
                if num[basis[r]]:
                    if r not in nonzeros:
                        nonzeros[r] = _nonzeros(row)
                    num, den = _eliminate(num, den, basis[r], row, rden, nonzeros[r])
            self.rows.append(num)
            self.dens.append(den)
            basis.append(first + t)

    def pivot_cap(self) -> int:
        return 50000 + 500 * (len(self.rows) + self.ncols)

    def result(self) -> "LpResult":
        """The optimal x as integer numerators over their least common
        denominator, and the objective, with this tableau kept for a warm
        start and for reading the duals.  x is read over L, the lcm of the
        basic rows' denominators, and L and the numerators are divided by
        their gcd."""
        rhs, nvars = self.ncols, self.nvars
        basic = [(j, self.rows[r][rhs], self.dens[r])
                 for r, j in enumerate(self.basis) if j < nvars]
        den = 1
        for _, _, d in basic:
            den = lcm(den, d)
        x_num = [0] * nvars
        g = den
        for j, v, d in basic:
            x_num[j] = v = v * (den // d)
            if g != 1:
                g = gcd(g, v)
        if g != 1:
            x_num = [v // g for v in x_num]
            den //= g
        return LpResult(OPTIMAL, x_num, den, Fraction(-self.zrow[rhs], self.zden),
                        tableau=self)


class LpResult:
    """The status, x, objective and row duals of one solve.

    x is kept as integer numerators x_num over their least common
    denominator x_den.  An optimal result keeps its final tableau for a
    warm start, and its row duals are the numerators dual_num over
    dual_den, copied from that tableau's z-row when the result is built:
    the surplus of row i has column -e_i, so its reduced cost is the dual
    of row i.  The copy stays readable after a warm start has taken the
    tableau over and rewritten it.  x and duals give the same values as
    `Fraction` lists."""

    __slots__ = ("status", "x_num", "x_den", "objective", "tableau", "dual_num",
                 "dual_den")

    def __init__(self, status: str, x_num: list[int], x_den: int, objective: Fraction,
                 tableau: Optional[_Tableau] = None) -> None:
        self.status = status
        self.x_num = x_num
        self.x_den = x_den
        self.objective = objective
        self.tableau = tableau
        if tableau is None:
            self.dual_num, self.dual_den = [], 1
        else:
            self.dual_num = tableau.zrow[tableau.nvars:tableau.ncols]
            self.dual_den = tableau.zden

    @property
    def x(self) -> list[Fraction]:
        return [Fraction(v, self.x_den) for v in self.x_num]

    @property
    def duals(self) -> list[Fraction]:
        return [Fraction(v, self.dual_den) for v in self.dual_num]

    def __repr__(self) -> str:
        return (f"LpResult(status={self.status!r}, x={self.x!r}, "
                f"objective={self.objective!r}, duals={self.duals!r})")


def _dual(tab: _Tableau) -> str:
    """Dual simplex from a dual feasible basis until every right-hand side
    is nonnegative (OPTIMAL) or a negative row has no entering column
    (INFEASIBLE).  The z-row stays in tab."""
    tableau, dens, basis = tab.rows, tab.dens, tab.basis
    rhs = tab.ncols
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
        for j in compress(range(rhs), prow):
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


def solve_lp(
    objective: Sequence[Fraction | int],
    rows: Sequence[dict[int, Fraction | int]],
    rhs: Sequence[Fraction | int],
    warm: Optional[LpResult] = None,
) -> LpResult:
    """Solve  min objective.x  s.t.  rows[i].x >= rhs[i],  x >= 0  exactly;
    rows are sparse {var: coeff} maps.

    Every cost must be nonnegative (ContractViolation otherwise), so the
    status is OPTIMAL or INFEASIBLE.  Coefficients, costs and right-hand
    sides that are neither int nor `Fraction` are converted with
    `Fraction`.  Duals follow the convention that at optimality the
    reduced cost c_j - sum_i duals[i]*A[i][j] is nonnegative for every
    variable; they are nonnegative.

    With warm, an optimal result of this function for the same objective
    and a prefix of these rows, only the rows after that prefix are
    appended to warm's final tableau, and the dual simplex re-optimises
    from its basis (see the module docstring).  An objective, row or
    right-hand side in that prefix that differs from warm's LP is refused
    with ContractViolation.  The new result takes warm's tableau over, so
    warm cannot be warm-started from again; warm's x and duals stay
    readable.
    """
    nvars = len(objective)
    nrows = len(rows)
    if len(rhs) != nrows:
        raise ContractViolation("rows/rhs length mismatch")
    check_tableau_budget(nrows, nvars)
    costs = [c if type(c) in _RATIONAL else Fraction(c) for c in objective]
    if any(c.numerator < 0 for c in costs):
        raise ContractViolation("solve_lp needs nonnegative costs")
    b = [v if type(v) in _RATIONAL else Fraction(v) for v in rhs]
    if warm is None:
        tab = _Tableau(costs)
        first = 0
    else:
        tab = warm.tableau
        if tab is None:
            raise ContractViolation("a warm start needs an optimal result whose tableau "
                                    "no other warm start has taken")
        first = len(tab.rows)
        if costs != tab.costs or nrows < first:
            raise ContractViolation("a warm start needs the same variables and objective, "
                                    "and the rows it was solved with first")
        if list(rows[:first]) != tab.coeffs or b[:first] != tab.rhs:
            raise ContractViolation("a warm start needs the rows and right-hand sides "
                                    "it was solved with first, unchanged")
    tab.append_ge_rows([(rows[i], b[i]) for i in range(first, nrows)])
    if warm is not None:
        warm.tableau = None
    if _dual(tab) == INFEASIBLE:
        return LpResult(INFEASIBLE, [], 1, ZERO)
    return tab.result()
