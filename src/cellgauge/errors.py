"""Exceptions, audit warnings, and their stable machine codes."""

from __future__ import annotations

import math
from dataclasses import dataclass


class CellGaugeError(Exception):
    """Base class for all errors raised by this package."""


class FormulaSyntaxError(CellGaugeError):
    """Malformed formula text. ``offset`` is the character position in the
    original formula string (the leading ``=`` is position 0)."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


class UnbalancedParensError(FormulaSyntaxError):
    pass


class EmptyFormulaError(FormulaSyntaxError):
    pass


class FormatError(CellGaugeError):
    """Input file or document does not conform to a supported workbook format."""


class UnknownCellError(CellGaugeError, KeyError):
    def __init__(self, address: str):
        super().__init__(f"no such cell in graph: {address}")
        self.address = address

    def __str__(self) -> str:
        # KeyError's __str__ would give the message's repr, quotes and all.
        return self.args[0]


class CycleError(CellGaugeError):
    """Reference cycles in the dependency graph.

    ``cycles`` is a list of cycles, each a list of cell addresses.
    """

    def __init__(self, cycles):
        self.cycles = list(cycles)
        rendered = "; ".join(
            " -> ".join(str(c) for c in cyc) for cyc in self.cycles
        )
        super().__init__(f"reference cycle(s): {rendered}")


class LimitExceededError(CellGaugeError):
    def __init__(self, limit: int):
        super().__init__(f"path enumeration exceeded limit of {limit}")
        self.limit = limit


class RangeBudgetError(CellGaugeError):
    """The ranges of a workbook's formulas cost more than the audit allows
    (``AnalysisConfig.max_range_cells``)."""

    def __init__(self, cell: str, range_text: str, limit: int):
        super().__init__(
            f"range {range_text} in cell {cell} takes the range budget "
            f"past its limit of {limit:,} (--max-range-cells)"
        )
        self.cell = cell
        self.range = range_text
        self.limit = limit


class CascadeBudgetError(CellGaugeError):
    """The cascades of a workbook's bottom-line cells hold more members in
    all than an audit allows (``report.MAX_CASCADE_CELLS``)."""

    def __init__(self, cell: str, limit: int):
        super().__init__(
            f"cascade of cell {cell} takes the cascade budget past its limit "
            f"of {limit:,} members"
        )
        self.cell = cell
        self.limit = limit


class DomainError(CellGaugeError, ValueError):
    """Argument outside the mathematical domain of an operation."""


def require_finite(owner: object, *names: str) -> None:
    """Raise DomainError for the first of ``owner``'s fields ``names`` whose
    value is not a finite number (NaN or an infinity)."""
    for name in names:
        value = getattr(owner, name)
        if not math.isfinite(value):
            raise DomainError(f"{name} must be a finite number, got {value}")


class NotBottomLineWarning(UserWarning):
    """Cascade statistics requested for a cell that still has dependents."""


# Stable warning codes carried by audit reports.
W_FORMULA_ERROR = "W001"
W_DANGLING_REFERENCE = "W002"
W_EMPTY_REFERENCED_CELL = "W003"
W_CYCLE_DETECTED = "W004"
W_RANGE_LINKAGE_VIOLATION = "W005"
W_CROSS_SHEET_DISPERSION_EXCLUDED = "W006"


@dataclass(frozen=True)
class AuditWarning:
    """A non-fatal finding surfaced in reports; ``code`` is one of W001..W006."""

    code: str
    address: str
    message: str
