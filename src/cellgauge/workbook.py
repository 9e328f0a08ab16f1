"""Multi-sheet workbook model and file loading.

Two input formats are supported: a JSON workbook document (the canonical
format) and a CSV grid that becomes a single sheet named ``Sheet1``. Cells
whose text begins with ``=`` are parsed as formulas; malformed formulas are
downgraded to string data cells with a W001 warning so an audit can proceed
on broken workbooks. A CSV with malformed quoting is a FormatError, and so
is a sheet name, formula or string value that is not valid Unicode (a lone
surrogate, which JSON's ``\\ud800`` escape gives).

A sheet keeps its cells as columns in document order (``Sheet``): an index
from each (row, column) key to a position, a values column (None at a
formula row) and, for the formula rows only, their source texts and shapes.
The loader fills these columns and builds no ``Cell`` and no ``CellRef`` per
cell or per reference. One pass checks each cell doc in a fixed order, and
the first check it fails gives its error; a well-formed doc costs one
key-set test, one address match with a per-load memo of column letters, and
its value typed inline. ``Sheet.cells``, ``Workbook.cell``,
``iter_cells`` and ``formula_cells`` build ``Cell`` objects from the columns
on first read.

Most formulas in a model are copies of one another, identical up to the
shift of their relative references. Once a sheet's docs are checked, its
formula texts are keyed a skeleton group at a time (``formula.shape_keys``),
and every copy carries the ``FormulaShape`` of its key. Texts that differ
only in numbers and cell coordinates share a template, so the load parses
once per template (``formula.Template``) and builds each shape, one way,
from its template, its text's numbers and its key. No AST outlives the
load; ``Cell.ast`` parses a copy's text again when read. A text that fails
to parse is parsed, and reports its error offset, on its own.

The workbook holds cells only; the dependency graph (``graph.py``) is what
maps a formula's references to the cells they read.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from itertools import compress
from pathlib import Path
from typing import Iterator, Optional, Union

from .errors import (
    AuditWarning,
    FormatError,
    FormulaSyntaxError,
    W_FORMULA_ERROR,
    _Record,
    _set,
)
from .formula import (FormulaAst, FormulaShape, Template, _Cuts, parse_formula, shape_keys,
                      template_key)
from .refs import MAX_COLUMN, CellRef, _quoted_head, letters_to_column, parse_cell_address

DataValue = Union[float, str, bool]

# The common form of a cell's "ref": upper-case letters and a row of at
# most seven digits with no leading zero. Anything else, or a column past
# XFD, goes through ``parse_cell_address``, which also turns a row past
# ``int``'s digit limit into an error.
_PLAIN_ADDRESS = re.compile(r"\$?([A-Z]{1,3})\$?([1-9][0-9]{0,6})\Z")
_CELL_FIELDS = frozenset(("ref", "value", "formula"))


class Cell(_Record):
    """A non-empty cell: either data (``value``) or a formula (``source``,
    its text, with the ``shape`` it shares with its copies).

    A formula cell keeps no AST. ``shape.references(column, row)`` gives
    its reference leaves from its address, and ``ast`` parses ``source`` on
    each read. Cells compare and print by
    address, value and source, so neither parses.
    """

    __slots__ = ("address", "value", "source", "shape")
    _fields = ("address", "value", "source")

    def __init__(self, address: CellRef, value: Optional[DataValue] = None,
                 source: Optional[str] = None, shape: Optional[FormulaShape] = None):
        _set(self, "address", address)  # sheet always set, no absolute markers
        _set(self, "value", value)
        _set(self, "source", source)
        _set(self, "shape", shape)

    @property
    def is_formula(self) -> bool:
        return self.shape is not None

    @property
    def ast(self) -> Optional[FormulaAst]:
        """The formula's AST, parsed from ``source`` on each read; None for a
        data cell."""
        return None if self.shape is None else parse_formula(self.source)


class Sheet:
    """A sheet's cells as columns in document order.

    ``index`` maps each cell's (row, column) key to its position, and
    ``values[k]`` is the value at position k, None at a formula row. The
    formula rows alone, in position order, have their positions in
    ``formula_rows`` and their texts and shapes in ``sources`` and
    ``shapes``. ``cells`` is the
    same cells as a dict of ``Cell`` by (row, column) key, built on first
    read and then kept. Sheets compare by name and ``cells``.
    """

    __slots__ = ("name", "index", "values", "formula_rows", "sources", "shapes", "_cells")

    def __init__(self, name: str):
        self.name = name
        self.index: dict[tuple[int, int], int] = {}
        self.values: list[Optional[DataValue]] = []
        self.formula_rows: list[int] = []
        self.sources: list[str] = []
        self.shapes: list[FormulaShape] = []
        self._cells: Optional[dict[tuple[int, int], Cell]] = None

    @property
    def cells(self) -> dict[tuple[int, int], Cell]:
        if self._cells is None:
            name, keys = self.name, list(self.index)
            built = [None if value is None else Cell(CellRef(name, column, row), value)
                     for (row, column), value in zip(keys, self.values)]
            for pos, source, shape in zip(self.formula_rows, self.sources, self.shapes):
                row, column = keys[pos]
                built[pos] = Cell(CellRef(name, column, row), source=source, shape=shape)
            self._cells = dict(zip(keys, built))
        return self._cells

    def cell(self, column: int, row: int) -> Optional[Cell]:
        return self.cells.get((row, column))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sheet):
            return NotImplemented
        return self.name == other.name and self.cells == other.cells

    __hash__ = None  # type: ignore[assignment]


class Workbook:
    """Sheets in order, where the workbook came from, and its load's
    warnings. Workbooks compare by all three."""

    def __init__(self, sheets: Optional[list[Sheet]] = None, provenance: str = "<memory>",
                 warnings: Optional[list[AuditWarning]] = None):
        self.sheets = [] if sheets is None else sheets
        self.provenance = provenance
        self.warnings = [] if warnings is None else warnings
        self._index = {s.name.casefold(): i for i, s in enumerate(self.sheets)}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.sheets, self.provenance, self.warnings)
                == (other.sheets, other.provenance, other.warnings))

    def add_sheet(self, sheet: Sheet) -> None:
        fold = sheet.name.casefold()
        if not sheet.name:
            raise FormatError("sheet name must be non-empty")
        if fold in self._index:
            raise FormatError(f"duplicate sheet name {sheet.name!r}")
        self._index[fold] = len(self.sheets)
        self.sheets.append(sheet)

    def sheet(self, name: str) -> Optional[Sheet]:
        idx = self._index.get(name.casefold())
        return self.sheets[idx] if idx is not None else None

    def cell(self, addr: Union[CellRef, str]) -> Optional[Cell]:
        if isinstance(addr, str):
            addr = parse_cell_address(addr)
        if addr.sheet is None:
            raise ValueError("cell lookup requires a sheet-qualified address")
        sheet = self.sheet(addr.sheet)
        if sheet is None:
            return None
        return sheet.cell(addr.column, addr.row)

    def iter_cells(self) -> Iterator[Cell]:
        for sheet in self.sheets:
            yield from sheet.cells.values()

    def formula_cells(self) -> Iterator[Cell]:
        for cell in self.iter_cells():
            if cell.is_formula:
                yield cell


# --- Loading ---------------------------------------------------------------

def _is_unicode(text: str) -> bool:
    """Whether ``text`` is valid Unicode. A JSON ``\\ud800`` escape decodes
    to a lone surrogate, which no UTF-8 output can carry."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _typed_value(raw: object, sheet: str, key: tuple[int, int]) -> DataValue:
    """A value ``_load_cells`` does not type inline, of the cell at (row,
    column) ``key``, whose address is built only for the error message."""
    if isinstance(raw, str):
        if not _is_unicode(raw):
            address = CellRef(sheet, key[1], key[0]).render()
            raise FormatError(f"cell {address} value {raw!r} is not valid Unicode")
        return raw
    if isinstance(raw, (int, float)):
        try:
            value = float(raw)
        except OverflowError:  # an integer literal past float's range
            value = math.inf if raw > 0 else -math.inf
        if not math.isfinite(value):
            address = CellRef(sheet, key[1], key[0]).render()
            raise FormatError(
                f"cell {address} value must be a finite number, got {value!r}"
            )
        return value  # a subclass of int or float
    address = CellRef(sheet, key[1], key[0]).render()
    raise FormatError(f"cell {address} value must be number, string or boolean, got {raw!r}")


class _Shapes:
    """The formula shapes of one load by shape key, their templates by
    template key, and ``shape_keys``'s memos: the number of each
    column-letters or row-digits text, the name of each sheet text and the
    cuts of each text skeleton."""

    __slots__ = ("by_key", "templates", "numbers", "sheets", "cuts")

    def __init__(self):
        self.by_key, self.templates, self.numbers, self.sheets, self.cuts = {}, {}, {}, {}, {}

    def new(self, text: str, column: int, row: int, key: Optional[tuple],
            cuts: Optional[_Cuts]) -> FormulaShape:
        """The shape of ``text`` in cell (column, row), whose shape key
        ``key`` no earlier text had, cut by ``cuts``, built from its
        template: an earlier text's of its template key, else its own
        parse's, which raises FormulaSyntaxError for a text that does not
        parse. A text with no key does not parse; one whose template's first
        text did not parse does not either, and is parsed for its error."""
        at, numbers = (None, ()) if key is None else template_key(text, cuts)
        template = self.templates.get(at)
        if template is None:
            # A text that parses has a key: shape_keys cuts it as _lex does.
            template = self.templates[at] = Template(parse_formula(text))
        shape = self.by_key[key] = FormulaShape(template, numbers, column, row, key)
        return shape


def _add_formulas(sheet: Sheet, cells: list[tuple[int, int]], warnings: list[AuditWarning],
                  shapes: _Shapes) -> None:
    """Fill the sheet's formula columns from its formula docs, whose (row,
    column) keys ``cells`` lists in document order and whose ``values`` hold
    their texts. In that order, a copy takes the shape of the first text of
    its key and skeleton, which looks it up or builds it (``_Shapes.new``);
    a text that does not parse keeps its string value, with a W001 warning
    of its own offset."""
    values, positions = sheet.values, list(map(sheet.index.__getitem__, cells))
    texts = list(map(values.__getitem__, positions))
    rows, columns = zip(*cells) if cells else ((), ())
    first_of, key_of, cuts_of = shape_keys(texts, columns, rows, shapes.numbers, shapes.sheets,
                                           shapes.cuts)
    by_key, found = shapes.by_key, []
    for i, first in enumerate(map(first_of.get, range(len(texts)))):
        shape = found[first] if first is not None and first < i else by_key.get(key_of.get(i))
        if shape is None:
            try:
                shape = shapes.new(texts[i], columns[i], rows[i], key_of.get(i), cuts_of.get(i))
            except FormulaSyntaxError as exc:
                address = CellRef(sheet.name, columns[i], rows[i]).render()
                warnings.append(AuditWarning(W_FORMULA_ERROR, address, str(exc)))
        values[positions[i]] = str(texts[i]) if shape is None else None
        found.append(shape)
    sheet.formula_rows = list(compress(positions, found))
    sheet.sources = list(compress(texts, found))
    sheet.shapes = list(filter(None, found))


def _load_cells(sheet: Sheet, cell_docs: list, warnings: list[AuditWarning],
                shapes: _Shapes) -> None:
    """Append a sheet's cell docs to its columns, in document order.

    Each doc is checked once, in this order, and the first check that fails
    raises FormatError: an object; only known fields; a string ``ref`` with
    no sheet; an address up to column XFD; exactly one of value and formula;
    a string formula in valid Unicode; a valid value, a string one in valid
    Unicode; a key not yet in the sheet. A plain ``ref`` takes its column
    from the load's memo, a float, int, ASCII string or boolean value is
    typed inline, and one ``setdefault`` finds a duplicate. A formula's text
    waits in ``values`` until ``_add_formulas`` keys the sheet's formulas.
    """
    index, values, columns, formulas = sheet.index, sheet.values, shapes.numbers, []
    plain, isfinite = _PLAIN_ADDRESS.match, math.isfinite
    for cell_doc in cell_docs:
        if not isinstance(cell_doc, dict):
            raise FormatError("cell entry must be an object")
        if not cell_doc.keys() <= _CELL_FIELDS:
            raise FormatError(f"unknown cell fields: {sorted(cell_doc.keys() - _CELL_FIELDS)}")
        ref_text = cell_doc.get("ref")
        if not isinstance(ref_text, str):
            raise FormatError('cell "ref" must be a string')
        m = plain(ref_text)
        if m is not None:
            letters, digits = m.groups()
            column = columns.get(letters)
            if column is None:
                column = columns[letters] = letters_to_column(letters)
            row = int(digits)
        if m is None or column > MAX_COLUMN:
            if "!" in ref_text:
                raise FormatError(f"cell ref must not carry a sheet: {_quoted_head(ref_text)}")
            try:
                ref = parse_cell_address(ref_text)
            except ValueError as exc:
                raise FormatError(str(exc)) from exc
            row, column = ref.row, ref.column
        key = (row, column)
        if "formula" in cell_doc:
            if "value" in cell_doc:
                raise FormatError(
                    f"cell {_quoted_head(ref_text)} must have exactly one of value/formula")
            value, text = None, cell_doc["formula"]
            if not isinstance(text, str):
                raise FormatError(f'cell {_quoted_head(ref_text)} "formula" must be a string')
            if not (text.isascii() or _is_unicode(text)):
                address = CellRef(sheet.name, column, row).render()
                raise FormatError(f"cell {address} formula {text!r} is not valid Unicode")
        else:
            try:
                value = cell_doc["value"]
            except KeyError:  # neither value nor formula
                raise FormatError(f"cell {_quoted_head(ref_text)} must have exactly one "
                                  "of value/formula") from None
            kind = type(value)
            if kind is int:
                try:
                    value, kind = float(value), float
                except OverflowError:  # past float's range
                    pass
            if not (kind is float and isfinite(value) or kind is bool
                    or kind is str and value.isascii()):
                value = _typed_value(value, sheet.name, key)
        position = len(values)
        if index.setdefault(key, position) != position:
            address = CellRef(sheet.name, column, row).render()
            raise FormatError(f"duplicate cell {address} in sheet {sheet.name!r}")
        if value is None:  # a formula doc: no value is typed as None
            formulas.append(key)
            value = text
        values.append(value)
    _add_formulas(sheet, formulas, warnings, shapes)


def load_workbook_doc(doc: dict, provenance: str = "<doc>") -> Workbook:
    """Build a workbook from a parsed JSON workbook document.

    Schema: ``{"sheets": [{"name": str, "cells": [{"ref": "A1", "value": v}
    | {"ref": "B2", "formula": "=..."}]}]}``. Unknown fields are rejected.
    """
    if not isinstance(doc, dict):
        raise FormatError("workbook document must be a JSON object")
    extra = set(doc) - {"sheets"}
    if extra:
        raise FormatError(f"unknown top-level fields: {sorted(extra)}")
    sheets = doc.get("sheets")
    if not isinstance(sheets, list):
        raise FormatError('"sheets" must be a list')
    wb = Workbook(provenance=provenance)
    shapes = _Shapes()
    for sheet_doc in sheets:
        if not isinstance(sheet_doc, dict):
            raise FormatError("sheet entry must be an object")
        extra = set(sheet_doc) - {"name", "cells"}
        if extra:
            raise FormatError(f"unknown sheet fields: {sorted(extra)}")
        name = sheet_doc.get("name")
        if not isinstance(name, str) or not name:
            raise FormatError("sheet name must be a non-empty string")
        if not (name.isascii() or _is_unicode(name)):
            raise FormatError(f"sheet name {name!r} is not valid Unicode")
        sheet = Sheet(name)
        wb.add_sheet(sheet)
        cells = sheet_doc.get("cells", [])
        if not isinstance(cells, list):
            raise FormatError('"cells" must be a list')
        _load_cells(sheet, cells, wb.warnings, shapes)
    return wb


def load_csv_grid(text: str, provenance: str = "<csv>") -> Workbook:
    """Load an RFC-4180 CSV grid as a single sheet named ``Sheet1``; bad
    quoting or a field past the csv module's size limit is a FormatError."""
    wb = Workbook(provenance=provenance)
    sheet = Sheet("Sheet1")
    wb.add_sheet(sheet)
    shapes = _Shapes()
    index, values, formulas = sheet.index, sheet.values, []
    reader = csv.reader(io.StringIO(text), strict=True)
    try:
        for row_idx, row in enumerate(reader, start=1):
            for col_idx, raw in enumerate(row, start=1):
                if raw == "":
                    continue
                key = (row_idx, col_idx)
                index[key] = len(values)
                if raw.startswith("="):
                    formulas.append(key)
                    values.append(raw)
                    continue
                upper = raw.strip().upper()
                if upper in ("TRUE", "FALSE"):
                    value: DataValue = upper == "TRUE"
                else:
                    try:
                        value = float(raw)
                    except ValueError:
                        value = raw
                    else:
                        if not math.isfinite(value):  # "nan", "inf", "1e400"
                            value = raw
                values.append(value)
    except csv.Error as exc:
        raise FormatError(f"invalid CSV at line {reader.line_num}: {exc}") from exc
    _add_formulas(sheet, formulas, wb.warnings, shapes)
    return wb


def load_workbook(path: Union[str, Path], format: str = "auto",
                  data: Optional[bytes] = None) -> Workbook:
    """Load a workbook from disk; ``format`` is auto, workbook-doc or csv-grid.

    ``data`` is the file's content when the caller has already read it; the
    file is then not read again.
    """
    path = Path(path)
    if format == "auto":
        suffix = path.suffix.lower()
        if suffix == ".json":
            format = "workbook-doc"
        elif suffix == ".csv":
            format = "csv-grid"
        else:
            raise FormatError(
                f"cannot infer format from extension {suffix!r}; pass format explicitly"
            )
    if data is None:
        data = path.read_bytes()
    # Decoded as Path.read_text would, universal newlines included.
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not valid UTF-8: {exc}") from exc
    if format == "workbook-doc":
        # A JSONDecodeError is a ValueError, as is an integer literal past
        # the interpreter's 4,300-digit limit; nesting too deep recurses.
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
        return load_workbook_doc(doc, provenance=str(path))
    if format == "csv-grid":
        return load_csv_grid(text, provenance=str(path))
    raise FormatError(f"unknown format {format!r}")
