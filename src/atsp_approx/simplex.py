"""Exact two-phase primal simplex over the rationals.

Solves  min c.x  s.t.  A_i.x {<=,==,>=} b_i,  x >= 0  in exact rational
arithmetic and reports row duals, which downstream code turns into the
(a, y) dual solution of the subtour-elimination LP.

Pivoting uses Dantzig's rule with an automatic switch to Bland's rule after
a run of degenerate pivots, which guarantees termination.

The tableau holds Python ints: row i is a dense list of numerators N_i over
one positive denominator d_i, so its entry j is N_i[j] / d_i, and its last
entry is the right-hand side, the value of the row's basic variable, over
the same d_i.  The phase's z-row is kept the same way.  Building a row
takes d_i as the lcm of its coefficient and right-hand-side denominators.
This is fraction-free elimination in the spirit of Edmonds (1967), as in
exact LP codes such as QSopt_ex: updating a row, right-hand side included,
costs integer operations and at most two gcd calls, where a `Fraction`
entry costs a gcd and new objects per operation.  A pivot touches only the
nonzeros of the pivot row, and signs and order compare exactly on
numerators because every denominator is positive.

The pivot loop builds no `Fraction`.  The ratio of row i is
N_i[rhs] / N_i[enter], as d_i cancels, so the ratio test compares two rows
by cross-multiplying ints.  Pricing runs in C: basic columns have a z-row
entry of 0 and the artificials, banned in phase 2, are the last columns,
so Dantzig's rule takes the first most negative entry before them and
Bland's rule the first negative one.  x and the duals become `Fraction`s
only at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class LpResult:
    status: str
    x: list[Fraction]
    objective: Fraction
    duals: list[Fraction]


def solve_lp(
    objective: Sequence[Fraction | int],
    rows: Sequence[dict[int, Fraction | int]],
    senses: Sequence[str],
    rhs: Sequence[Fraction | int],
) -> LpResult:
    """Solve the LP exactly; rows are sparse {var: coeff} maps.

    Coefficients, costs and right-hand sides that are neither int nor
    `Fraction` are converted with `Fraction`.  Duals follow the convention
    that at optimality the reduced cost c_j - sum_i duals[i]*A[i][j] is
    nonnegative for every variable; '>=' rows therefore get nonnegative
    duals and '<=' rows nonpositive ones.
    """
    nvars = len(objective)
    nrows = len(rows)
    if not (len(senses) == len(rhs) == nrows):
        raise ContractViolation("rows/senses/rhs length mismatch")
    check_tableau_budget(nrows, nvars, sum(1 for sense in senses if sense != "=="))
    b = [v if type(v) in _RATIONAL else Fraction(v) for v in rhs]

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

    # Row i is tableau[i] / dens[i], with its right-hand side at column
    # ncols; a row with a negative right-hand side is negated so that its
    # artificial enters with coefficient 1.
    tableau: list[list[int]] = []
    dens: list[int] = []
    for i in range(nrows):
        coeffs = {}
        for j, coeff in rows[i].items():
            if not (0 <= j < nvars):
                raise ContractViolation(f"row references unknown variable {j}")
            coeffs[j] = coeff if type(coeff) in _RATIONAL else Fraction(coeff)
        row, den = _integer_row(coeffs, ncols, art_sign[i], b[i])
        if slack_col[i] is not None:
            row[slack_col[i]] = art_sign[i] * slack_sign[i] * den
        row[art0 + i] = den
        tableau.append(row)
        dens.append(den)
    basis = list(range(art0, art0 + nrows))  # artificials start basic

    def pivot_on(r: int, col: int) -> list[int]:
        """Column col enters the basis at row r.  Row r's nonzeros get the
        sign of its entry at col and are divided by their gcd; that entry
        becomes the row's denominator, so it reads 1.  Column col is then
        eliminated from every other row through `_eliminate`, over the
        nonzeros of row r only.  Returns their column indices."""
        basis[r] = col
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

    def run_phase(cost: list[int], cost_den: int, end: int
                  ) -> tuple[str, list[int], int]:
        """Optimise the cost cost/cost_den from the current basis over the
        columns before end; returns the status and the final z-row as
        numerators over a denominator."""
        zrow, zden = list(cost), cost_den
        for r in range(nrows):
            if zrow[basis[r]]:
                zrow, zden = _eliminate(zrow, zden, basis[r], tableau[r], dens[r],
                                        _nonzeros(tableau[r]))
        streak = 0
        pivots = 0
        pivot_cap = 50000 + 500 * (nrows + ncols)
        while True:
            pivots += 1
            if pivots > pivot_cap:
                raise InternalCheckError("simplex-pivot-cap", f"{pivots} pivots")
            # Basic columns have z-row entry 0, so only a nonbasic column
            # can be negative.
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
            nz = pivot_on(leave, enter)
            if zrow[enter]:
                zrow, zden = _eliminate(zrow, zden, enter, tableau[leave],
                                        dens[leave], nz)

    # Phase 1: minimize the artificial mass.
    phase1_cost = [0] * (ncols + 1)
    for j in range(art0, ncols):
        phase1_cost[j] = 1
    status, _, _ = run_phase(phase1_cost, 1, ncols)
    if status != OPTIMAL:
        raise InternalCheckError("simplex-phase1", "phase 1 cannot be unbounded")
    if any(tableau[i][ncols] for i in range(nrows) if basis[i] >= art0):
        return LpResult(INFEASIBLE, [], ZERO, [])
    # Drive basic artificials out where possible; redundant rows keep a
    # zero-valued basic artificial whose row is all-zero on real columns.
    # The other basic columns are zero in row r, and its right-hand side is
    # 0, so the pivot is degenerate.
    for r in range(nrows):
        if basis[r] < art0:
            continue
        piv_col = next(compress(range(art0), tableau[r]), None)
        if piv_col is not None:
            pivot_on(r, piv_col)

    # Phase 2: the real objective, the artificials banned.
    costs = [c if type(c) in _RATIONAL else Fraction(c) for c in objective]
    phase2_cost, phase2_den = _integer_row(dict(enumerate(costs)), ncols, 1, 0)
    status, zrow, zden = run_phase(phase2_cost, phase2_den, art0)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, [], ZERO, [])

    x = [ZERO] * ncols
    for r in range(nrows):
        x[basis[r]] = Fraction(tableau[r][ncols], dens[r])
    solution = x[:nvars]
    obj = sum((costs[j] * solution[j] for j in range(nvars)), ZERO)
    # Row duals from the reduced costs of the artificial columns: the
    # artificial for row i has column sigma_i * e_i, so its reduced cost is
    # -sigma_i * y_i.
    duals = [Fraction(-zrow[art0 + i], zden) * art_sign[i] for i in range(nrows)]
    return LpResult(OPTIMAL, solution, obj, duals)
