"""Exact two-phase primal simplex over the rationals.

Solves  min c.x  s.t.  A_i.x {<=,==,>=} b_i,  x >= 0  in exact rational
arithmetic and reports row duals, which downstream code turns into the
(a, y) dual solution of the subtour-elimination LP.

Pivoting uses Dantzig's rule with an automatic switch to Bland's rule after
a run of degenerate pivots, which guarantees termination.

The tableau holds Python ints: row i is a dense list of numerators N_i over
one positive denominator d_i, so its entry j is N_i[j] / d_i, and the
phase's z-row is kept the same way.  Building a row takes d_i as the lcm of
its coefficient denominators.  This is fraction-free elimination in the
spirit of Edmonds (1967), as in exact LP codes such as QSopt_ex: updating
a row costs integer operations and at most two gcd calls, where a
`Fraction` entry costs a gcd and new objects per operation.  A pivot
touches only the nonzeros of the pivot row, and signs and order compare
exactly on numerators because every denominator is positive.  Basic values,
ratios and results stay `Fraction`s.
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
# own int.  Directed cycles build the largest tableaus of the scale ladders,
# 2n x 4n cells: 5.1e6 at n = 800, 8e6 at n = 1000, which leaves 2.5x
# headroom (random-strong n = 300 builds 8.4e5, dense n = 60 4.7e5).
MAX_TABLEAU_CELLS = 20_000_000


def _nonzeros(row: list[int]) -> list[int]:
    return list(compress(range(len(row)), row))


def _integer_row(coeffs: dict[int, Fraction], ncols: int, sign: int
                 ) -> tuple[list[int], int]:
    """Numerators over the lcm of the denominators, of sign * coeffs."""
    den = 1
    for q in coeffs.values():
        den = lcm(den, q.denominator)
    num = [0] * ncols
    for j, q in coeffs.items():
        num[j] = sign * q.numerator * (den // q.denominator)
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
    objective: Sequence[Fraction],
    rows: Sequence[dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
) -> LpResult:
    """Solve the LP exactly; rows are sparse {var: coeff} maps.

    Duals follow the convention that at optimality the reduced cost
    c_j - sum_i duals[i]*A[i][j] is nonnegative for every variable;
    '>=' rows therefore get nonnegative duals and '<=' rows
    nonpositive ones.
    """
    nvars = len(objective)
    nrows = len(rows)
    if not (len(senses) == len(rhs) == nrows):
        raise ContractViolation("rows/senses/rhs length mismatch")
    width = nvars + sum(1 for sense in senses if sense != "==") + nrows
    if nrows * width > MAX_TABLEAU_CELLS:
        raise BudgetError(f"LP tableau of {nrows} rows x {width} columns exceeds "
                          f"the budget of {MAX_TABLEAU_CELLS} cells")
    b = [Fraction(v) for v in rhs]

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
    art_col = list(range(ncols, ncols + nrows))
    art_sign = [1 if b[i] >= 0 else -1 for i in range(nrows)]
    ncols += nrows

    # Row i is tableau[i] / dens[i]; a row with a negative right-hand side is
    # negated so that its artificial enters with coefficient 1.
    tableau: list[list[int]] = []
    dens: list[int] = []
    for i in range(nrows):
        coeffs = {}
        for j, coeff in rows[i].items():
            if not (0 <= j < nvars):
                raise ContractViolation(f"row references unknown variable {j}")
            coeffs[j] = Fraction(coeff)
        row, den = _integer_row(coeffs, ncols, art_sign[i])
        if slack_col[i] is not None:
            row[slack_col[i]] = art_sign[i] * slack_sign[i] * den
        row[art_col[i]] = den
        tableau.append(row)
        dens.append(den)
        if art_sign[i] < 0:
            b[i] = -b[i]
    beta = list(b)  # basic values; artificials start basic
    basis = list(art_col)
    basic = [False] * ncols
    for j in basis:
        basic[j] = True
    banned = [False] * ncols

    def pivot_on(r: int, col: int) -> list[int]:
        """Column col enters the basis at row r.  Row r's nonzeros get the
        sign of its entry at col and are divided by their gcd; that entry
        becomes the row's denominator, so it reads 1.  Column col is then
        eliminated from every other row through `_eliminate`, over the
        nonzeros of row r only.  Returns their column indices."""
        basic[basis[r]] = False
        basis[r] = col
        basic[col] = True
        prow = tableau[r]
        nz = _nonzeros(prow)
        g = gcd(*prow)
        if prow[col] < 0:
            g = -g
        if g != 1:
            for j in nz:
                prow[j] //= g
        pden = dens[r] = prow[col]
        for i in range(nrows):
            if i != r and tableau[i][col]:
                tableau[i], dens[i] = _eliminate(tableau[i], dens[i], col, prow, pden, nz)
        return nz

    def run_phase(cost: list[int], cost_den: int) -> tuple[str, list[int], int]:
        """Optimise the cost cost/cost_den from the current basis; returns the
        status and the final z-row as numerators over a denominator."""
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
            use_bland = streak > _DEGENERATE_STREAK_LIMIT
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
            # Ratio test: limit on step t >= 0 for the entering variable.
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
            if t > 0:
                streak = 0
            else:
                streak += 1
            # Update basic values along the direction.
            if t:
                for i in range(nrows):
                    a = tableau[i][enter]
                    if a:
                        beta[i] -= Fraction(a * t.numerator, dens[i] * t.denominator)
            beta[leave_row] = t  # entering variable's new value
            nz = pivot_on(leave_row, enter)
            if zrow[enter]:
                zrow, zden = _eliminate(zrow, zden, enter, tableau[leave_row],
                                        dens[leave_row], nz)

    # Phase 1: minimize the artificial mass.
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
    # Drive basic artificials out where possible; redundant rows keep a
    # zero-valued basic artificial whose row is all-zero on real columns.
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
        # degenerate pivot: the point does not move, so the new basic
        # variable keeps its value 0
        beta[r] = ZERO
        pivot_on(r, piv_col)
    for j in art_col:
        banned[j] = True

    # Phase 2: the real objective.
    costs = [Fraction(c) for c in objective]
    phase2_cost, phase2_den = _integer_row(dict(enumerate(costs)), ncols, 1)
    status, zrow, zden = run_phase(phase2_cost, phase2_den)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, [], ZERO, [])

    x = [ZERO] * ncols
    for r in range(nrows):
        x[basis[r]] = beta[r]
    solution = x[:nvars]
    obj = sum((costs[j] * solution[j] for j in range(nvars)), ZERO)
    # Row duals from the reduced costs of the artificial columns: the
    # artificial for row i has column sigma_i * e_i, so its reduced cost is
    # -sigma_i * y_i.
    duals = [Fraction(-zrow[art_col[i]], zden) * art_sign[i] for i in range(nrows)]
    return LpResult(OPTIMAL, solution, obj, duals)
