"""A1-notation cell and range references.

Columns are 1-based bijective base-26 ("A" = 1, "Z" = 26, "AA" = 27); rows
are 1-based. ``$`` marks an absolute column or row part; a reference may be
qualified with a sheet name (``Data!B7`` or ``'My Data'!B7``). A parsed
reference reads at most column ``XFD`` (16,384), a sheet's last column.
"""

from __future__ import annotations

import re
import reprlib
import sys
from collections.abc import Sequence
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Union

from .errors import _Record, _set

# A sheet name that needs no quotes; any other is quoted, with '' for '.
_PLAIN_SHEET_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_PLAIN_SHEET = re.compile(_PLAIN_SHEET_NAME + r"\Z")

# The one grammar of a cell reference, shared by the address parser, the
# formula lexer and the shape scan: an optional sheet, then column letters
# and a row, each part with an optional "$". A reference ends where no
# letter, digit, "_" or "$" follows, and a bare one followed by "(" is a
# function name instead (LOG10). ``ref_from_match`` reads a match.
REFERENCE = (
    r"(?![A-Za-z]{1,3}[0-9]+\()"
    rf"(?:(?P<sheet>'(?:[^']|'')+'|{_PLAIN_SHEET_NAME})!)?"
    r"(?P<colabs>\$?)(?P<col>[A-Za-z]{1,3})(?P<rowabs>\$?)(?P<row>[0-9]+)"
    r"(?![A-Za-z0-9_$])"
)
_REFERENCE = re.compile(REFERENCE)

MAX_COLUMN = 16_384  # XFD, the last column of a sheet


def column_to_letters(col: int) -> str:
    """1 -> "A", 26 -> "Z", 27 -> "AA", 28 -> "AB"."""
    # One and two letters (A..ZZ, columns 1..702) directly: every rendered
    # address comes through here.
    if 0 < col <= 26:
        return chr(64 + col)
    if 26 < col <= 702:
        high, low = divmod(col - 1, 26)
        return chr(64 + high) + chr(65 + low)
    if col < 1:
        raise ValueError(f"column index must be >= 1, got {col}")
    letters = ""
    while col:
        col, rem = divmod(col - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


def letters_to_column(letters: str) -> int:
    """"A" -> 1, "ab" -> 28: column letters in either case."""
    col = 0
    for ch in letters.upper():
        if not "A" <= ch <= "Z":
            raise ValueError(f"invalid column letters: {letters!r}")
        col = col * 26 + (ord(ch) - ord("A") + 1)
    if col == 0:
        raise ValueError("empty column letters")
    return col


def quote_sheet_name(name: str) -> str:
    """Render a sheet name for use in a reference, quoting when required."""
    if _PLAIN_SHEET.match(name):
        return name
    return "'" + name.replace("'", "''") + "'"


def unquote_sheet_name(text: str) -> str:
    if text.startswith("'") and text.endswith("'"):
        return text[1:-1].replace("''", "'")
    return text


class CellRef(_Record):
    """A single-cell reference; ``sheet`` is None for same-sheet references."""

    __slots__ = ("sheet", "column", "row", "col_absolute", "row_absolute")

    def __init__(self, sheet: Optional[str], column: int, row: int,
                 col_absolute: bool = False, row_absolute: bool = False):
        if column < 1 or row < 1:
            raise ValueError(f"column and row must be >= 1, got ({column}, {row})")
        _set(self, "sheet", sheet)
        _set(self, "column", column)
        _set(self, "row", row)
        _set(self, "col_absolute", col_absolute)
        _set(self, "row_absolute", row_absolute)

    def key(self) -> tuple[str, int, int]:
        """Location identity: sheet name (case-insensitive), column, row."""
        return ((self.sheet or "").casefold(), self.column, self.row)

    def address(self) -> "CellRef":
        """The same location with absolute markers stripped."""
        if not (self.col_absolute or self.row_absolute):
            return self
        return CellRef(self.sheet, self.column, self.row)

    def with_sheet(self, sheet: str) -> "CellRef":
        return CellRef(sheet, self.column, self.row, self.col_absolute, self.row_absolute)

    def render(self, include_sheet: bool = True) -> str:
        text = (
            ("$" if self.col_absolute else "")
            + column_to_letters(self.column)
            + ("$" if self.row_absolute else "")
            + str(self.row)
        )
        if include_sheet and self.sheet is not None:
            return f"{quote_sheet_name(self.sheet)}!{text}"
        return text

    def __str__(self) -> str:
        return self.render()


class RangeRef(_Record):
    """A rectangular range; both endpoints are on the same sheet and the
    start corner is normalized to the top-left."""

    __slots__ = ("start", "end")

    def __init__(self, start: CellRef, end: CellRef):
        _set(self, "start", start)
        _set(self, "end", end)

    @staticmethod
    def normalized(start: CellRef, end: CellRef) -> "RangeRef":
        """Build a range, swapping column/row parts so start <= end."""
        (c1, ca1), (c2, ca2) = sorted(
            [(start.column, start.col_absolute), (end.column, end.col_absolute)],
            key=lambda t: t[0],
        )
        (r1, ra1), (r2, ra2) = sorted(
            [(start.row, start.row_absolute), (end.row, end.row_absolute)],
            key=lambda t: t[0],
        )
        sheet = start.sheet if start.sheet is not None else end.sheet
        return RangeRef(
            CellRef(sheet, c1, r1, ca1, ra1),
            CellRef(sheet, c2, r2, ca2, ra2),
        )

    @property
    def width(self) -> int:
        return self.end.column - self.start.column + 1

    @property
    def height(self) -> int:
        return self.end.row - self.start.row + 1

    def cells(self) -> Iterator[CellRef]:
        """All member cells, row-major from the start corner."""
        for row in range(self.start.row, self.end.row + 1):
            for col in range(self.start.column, self.end.column + 1):
                yield CellRef(self.start.sheet, col, row)

    def render(self, include_sheet: bool = True) -> str:
        return (
            self.start.render(include_sheet)
            + ":"
            + self.end.render(include_sheet=False)
        )

    def __str__(self) -> str:
        return self.render()


def ref_from_match(m: re.Match) -> CellRef:
    """The reference a match of :data:`REFERENCE` denotes.

    Raises ValueError when its row is 0, has more digits than ``int()``
    converts, or its column is past XFD.
    """
    try:
        row = int(m["row"])
    except ValueError:  # past int()'s digit limit
        raise ValueError(f"row has more than {sys.get_int_max_str_digits()} digits") from None
    if row < 1:
        raise ValueError("row index must be >= 1")
    column = letters_to_column(m["col"])
    if column > MAX_COLUMN:
        raise ValueError("column must be at most XFD")
    sheet = m["sheet"]
    return CellRef(unquote_sheet_name(sheet) if sheet else None, column, row,
                   m["colabs"] == "$", m["rowabs"] == "$")


def parse_cell_address(text: str) -> CellRef:
    """Parse an address like ``B2``, ``$A$1`` or ``Data!B7``.

    Raises ValueError for anything that is not a single-cell reference.
    """
    m = _REFERENCE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"not a cell reference: {_quoted_head(text)}")
    try:
        return ref_from_match(m)
    except ValueError as exc:
        raise ValueError(f"{exc} in {_quoted_head(text)}") from None


def _quoted_head(value: object) -> str:
    """``value`` as ``repr`` gives it, cut to about 20 characters, so an
    error names a long value in one short line: a text is cut to its first
    20 characters and then quoted, any other value's ``reprlib`` text (which
    stops at a few items and levels) is cut after."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 20 else repr(value[:20]) + "..."
    text = reprlib.repr(value)
    return text if len(text) <= 20 else text[:20] + "..."


def _quoted_names(names: Iterable[str]) -> str:
    """The sorted ``names`` as a list's text, which names only the first, by
    its head (``_quoted_head``), once the whole passes 100 characters."""
    names = sorted(names)
    text = repr(names)
    if len(text) <= 100:
        return text
    return "[" + _quoted_head(names[0]) + (", ...]" if len(names) > 1 else "]")


class Locations(Sequence):
    """Cells given by location, as three parallel lists: cell k is on the
    sheet named ``sheets[k]`` (None for the same sheet), in column
    ``columns[k]`` and row ``rows[k]``.

    It reads as a sequence of ``CellRef``, each built when it is read (a
    slice reads as ``Locations``); ``render`` gives every cell's text
    without building one.
    """

    __slots__ = ("sheets", "columns", "rows")

    def __init__(self, sheets: list[Optional[str]], columns: list[int], rows: list[int]):
        self.sheets = sheets
        self.columns = columns
        self.rows = rows

    @classmethod
    def of(cls, refs: Iterable[CellRef]) -> "Locations":
        """The locations of ``refs``, without their absolute markers."""
        refs = list(refs)
        return cls(list(map(attrgetter("sheet"), refs)),
                   list(map(attrgetter("column"), refs)),
                   list(map(attrgetter("row"), refs)))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k: Union[int, slice]) -> Union[CellRef, "Locations"]:
        if isinstance(k, slice):
            return Locations(self.sheets[k], self.columns[k], self.rows[k])
        return CellRef(self.sheets[k], self.columns[k], self.rows[k])

    def render(self) -> list[str]:
        """``[ref.render() for ref in self]``, quoting each sheet name and
        lettering each column once."""
        prefixes = {name: "" if name is None else quote_sheet_name(name) + "!"
                    for name in set(self.sheets)}
        letters = {column: column_to_letters(column) for column in set(self.columns)}
        return [f"{prefix}{col}{row}" for prefix, col, row in zip(
            map(prefixes.__getitem__, self.sheets),
            map(letters.__getitem__, self.columns), self.rows)]
