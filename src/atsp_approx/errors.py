"""Exception hierarchy for the solver pipeline."""

from __future__ import annotations

from typing import Any


class AtspError(Exception):
    """Base class for all package errors."""


class InputError(AtspError):
    """Malformed or invalid user input (bad file, bad ids, negative cost, ...).

    CLI exit code 1.
    """


class InfeasibleInstanceError(InputError):
    """The instance cannot be solved (e.g. graph not strongly connected)."""


class ContractViolation(AtspError):
    """A caller broke a documented precondition of an internal operation."""


class BudgetError(InputError):
    """A size budget was exceeded: the vertex cap of the optional Held-Karp
    oracle, or the cell budget of the exact simplex tableau."""


class InternalCheckError(AtspError):
    """An internal guarantee that should always hold was violated.

    Every inequality or identity the analysis promises is re-checked at run
    time; a failure here means a bug, and the exception carries the label of
    the failed check plus a diagnostic payload.  CLI exit code 2.
    """

    def __init__(self, label: str, detail: Any = None):
        self.label = label
        self.detail = detail
        msg = f"internal check failed: {label}"
        if detail is not None:
            msg += f" ({detail})"
        super().__init__(msg)
