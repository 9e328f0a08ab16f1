"""Exceptions, audit warnings, their stable machine codes, and the base
class of the package's immutable records."""

from __future__ import annotations

import math
from operator import attrgetter
from typing import NamedTuple

# Sets a field of a ``_Record`` in its ``__init__``, past the refusal.
_set = object.__setattr__


class _Record:
    """An immutable record: ``==`` and ``hash`` by class and field values,
    ``repr`` as ``Name(field=value, ...)``, and no assignment or deletion.

    Its fields are the names in its class's ``_fields``, by default the
    class's ``__slots__``; a subclass's ``__init__`` takes its slots in
    order and sets each with ``_set``, so pickle and copy rebuild a record
    through it, and a class pattern matches the slots by position.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        if cls._fields:
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


class AuditWarning(NamedTuple):
    """A non-fatal finding surfaced in reports; ``code`` is one of W001..W006."""

    code: str
    address: str
    message: str
