"""Exact two-phase primal simplex over the rationals, with variable bounds.

Solves  min c.x  s.t.  A_i.x {<=,==,>=} b_i,  0 <= x <= u  in exact Fraction
arithmetic and reports row duals, which downstream code turns into the
(a, y) dual solution of the subtour-elimination LP.  Bounded variables are
handled natively (nonbasic at lower or upper bound) so flow-style LPs do not
need a constraint row per capacity.

Pivoting uses Dantzig's rule with an automatic switch to Bland's rule after
a run of degenerate pivots, which guarantees termination.

The tableau is dense, but a pivot touches only the nonzeros of the pivot
row: it scales those entries in place and subtracts the same columns from
every other row (and the phase's z-row) with a nonzero in the entering
column.  Exact LP codes such as QSopt_ex get their speed the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ContractViolation, InternalCheckError

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2

_DEGENERATE_STREAK_LIMIT = 64


def _nonzeros(row: list[Fraction]) -> list[int]:
    return [j for j, v in enumerate(row) if v]


def _subtract_multiple(row: list[Fraction], f: Fraction, prow: list[Fraction],
                       nz: list[int]) -> None:
    """row -= f * prow in place, over the columns nz where prow is nonzero."""
    if f == ONE:
        for j in nz:
            row[j] -= prow[j]
    elif f == -ONE:
        for j in nz:
            row[j] += prow[j]
    else:
        for j in nz:
            row[j] -= f * prow[j]


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
    upper: Optional[Sequence[Optional[Fraction]]] = None,
) -> LpResult:
    """Solve the LP exactly; rows are sparse {var: coeff} maps.

    Duals follow the convention that at optimality the reduced cost
    c_j - sum_i duals[i]*A[i][j] is nonnegative for every variable at its
    lower bound; '>=' rows therefore get nonnegative duals and '<=' rows
    nonpositive ones.
    """
    nvars = len(objective)
    nrows = len(rows)
    if not (len(senses) == len(rhs) == nrows):
        raise ContractViolation("rows/senses/rhs length mismatch")
    up = list(upper) if upper is not None else [None] * nvars
    if len(up) != nvars:
        raise ContractViolation("bounds length mismatch")
    bounds: list[Optional[Fraction]] = [None if u is None else Fraction(u) for u in up]
    if any(u is not None and u < 0 for u in bounds):
        return LpResult(INFEASIBLE, [], ZERO, [])
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

    bounds = bounds + [None] * (ncols - nvars)
    tableau: list[list[Fraction]] = []
    for i in range(nrows):
        row = [ZERO] * ncols
        for j, coeff in rows[i].items():
            if not (0 <= j < nvars):
                raise ContractViolation(f"row references unknown variable {j}")
            row[j] = Fraction(coeff)
        if slack_col[i] is not None:
            row[slack_col[i]] = Fraction(slack_sign[i])
        row[art_col[i]] = Fraction(art_sign[i])
        if art_sign[i] < 0:
            row = [-v for v in row]
            row[art_col[i]] = ONE
            tableau.append(row)
            b[i] = -b[i]
        else:
            tableau.append(row)
    beta = list(b)  # basic values; artificials start basic
    basis = list(art_col)
    state = [_AT_LOWER] * ncols
    for j in basis:
        state[j] = _BASIC
    banned = [False] * ncols

    def pivot_on(r: int, col: int) -> list[int]:
        """Column col enters the basis at row r: scale row r to a unit pivot
        and eliminate col from every other row, in place, touching only the
        nonzeros of row r.  Returns their column indices."""
        basis[r] = col
        state[col] = _BASIC
        prow = tableau[r]
        nz = _nonzeros(prow)
        pivot = prow[col]
        if pivot != ONE:
            inv = ONE / pivot
            for j in nz:
                prow[j] *= inv
        for i in range(nrows):
            if i == r:
                continue
            f = tableau[i][col]
            if f:
                _subtract_multiple(tableau[i], f, prow, nz)
        return nz

    def run_phase(cost: list[Fraction]) -> tuple[str, list[Fraction]]:
        zrow = list(cost)
        for r in range(nrows):
            cb = cost[basis[r]]
            if cb:
                _subtract_multiple(zrow, cb, tableau[r], _nonzeros(tableau[r]))
        streak = 0
        pivots = 0
        pivot_cap = 50000 + 500 * (nrows + ncols)
        while True:
            pivots += 1
            if pivots > pivot_cap:
                raise InternalCheckError("simplex-pivot-cap", f"{pivots} pivots")
            use_bland = streak > _DEGENERATE_STREAK_LIMIT
            enter = -1
            best = ZERO
            for j in range(ncols):
                if state[j] == _BASIC or banned[j]:
                    continue
                rc = zrow[j]
                score = -rc if state[j] == _AT_LOWER else rc
                if score > 0:
                    if use_bland:
                        enter = j
                        break
                    if score > best:
                        best, enter = score, j
            if enter < 0:
                return OPTIMAL, zrow
            from_upper = state[enter] == _AT_UPPER
            # Ratio test: limit on step t >= 0 for the entering variable.
            limit: Optional[Fraction] = bounds[enter]
            leave_row = -1
            leave_to_upper = False
            for i in range(nrows):
                a = tableau[i][enter]
                if from_upper:
                    a = -a
                if a > 0:
                    t = beta[i] / a
                    hit_upper = False
                elif a < 0:
                    ub = bounds[basis[i]]
                    if ub is None:
                        continue
                    t = (ub - beta[i]) / (-a)
                    hit_upper = True
                else:
                    continue
                if limit is None or t < limit or (
                    t == limit and leave_row >= 0 and basis[i] < basis[leave_row]
                ):
                    limit = t
                    leave_row = i
                    leave_to_upper = hit_upper
            if limit is None:
                return UNBOUNDED, zrow
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
                        beta[i] += (a * t) if from_upper else (-a * t)
            if leave_row < 0:
                # bound flip, no basis change
                state[enter] = _AT_LOWER if from_upper else _AT_UPPER
                continue
            leaving = basis[leave_row]
            state[leaving] = _AT_UPPER if leave_to_upper else _AT_LOWER
            # entering variable's new value
            beta[leave_row] = (bounds[enter] - t) if from_upper else t
            nz = pivot_on(leave_row, enter)
            f = zrow[enter]
            if f:
                _subtract_multiple(zrow, f, tableau[leave_row], nz)

    # Phase 1: minimize the artificial mass.
    phase1_cost = [ZERO] * ncols
    for j in art_col:
        phase1_cost[j] = ONE
    status, _ = run_phase(phase1_cost)
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
            (j for j in range(ncols) if j not in art_set and state[j] != _BASIC and prow[j]),
            None,
        )
        if piv_col is None:
            continue
        state[basis[r]] = _AT_LOWER
        # degenerate pivot: the point does not move, so the new basic
        # variable keeps its current (bound) value
        beta[r] = bounds[piv_col] if state[piv_col] == _AT_UPPER else ZERO
        pivot_on(r, piv_col)
    for j in art_col:
        banned[j] = True

    # Phase 2: the real objective.
    phase2_cost = [ZERO] * ncols
    for j in range(nvars):
        phase2_cost[j] = Fraction(objective[j])
    status, zrow = run_phase(phase2_cost)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, [], ZERO, [])

    x = [ZERO] * ncols
    for j in range(ncols):
        if state[j] == _AT_UPPER:
            x[j] = bounds[j]
    for r in range(nrows):
        x[basis[r]] = beta[r]
    solution = x[:nvars]
    obj = sum((Fraction(objective[j]) * solution[j] for j in range(nvars)), ZERO)
    # Row duals from the reduced costs of the artificial columns: the
    # artificial for row i has column sigma_i * e_i, so its reduced cost is
    # -sigma_i * y_i.
    duals = [-zrow[art_col[i]] * art_sign[i] for i in range(nrows)]
    return LpResult(OPTIMAL, solution, obj, duals)
