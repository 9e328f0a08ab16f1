"""The loaders as they were before the columnar workbook, verbatim.

``load_workbook_doc`` and ``load_csv_grid`` here built one ``Cell`` and one
validated ``CellRef`` per cell into a dict per sheet, checking each cell
doc field by field. ``test_loader.py`` checks the columnar loaders against
them: equal cells, values, sources, references and W001 warnings, or the
same FormatError message.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field
from typing import Optional, Union

from cellgauge.errors import (
    AuditWarning,
    FormatError,
    FormulaSyntaxError,
    W_FORMULA_ERROR,
)
from cellgauge.formula import FormulaShape, NumberLiteral, Template, parse_formula, walk
from cellgauge.refs import MAX_COLUMN, CellRef, _quoted_head, letters_to_column, parse_cell_address
from cellgauge.workbook import Cell, Workbook

from copies_oracle import shape_key

DataValue = Union[float, str, bool]

# The common form of a cell's "ref": upper-case letters and a row with no
# leading zero. Anything else, or a column past XFD, goes through
# ``parse_cell_address``.
_PLAIN_ADDRESS = re.compile(r"\$?([A-Z]{1,3})\$?([1-9][0-9]*)\Z")


@dataclass
class Sheet:
    name: str
    cells: dict[tuple[int, int], Cell] = field(default_factory=dict)  # (row, col)

    def cell(self, column: int, row: int) -> Optional[Cell]:
        return self.cells.get((row, column))

    def add(self, cell: Cell) -> None:
        key = (cell.address.row, cell.address.column)
        if key in self.cells:
            raise FormatError(
                f"duplicate cell {cell.address.render()} in sheet {self.name!r}"
            )
        self.cells[key] = cell


# --- Loading ---------------------------------------------------------------

def _typed_value(raw: object, address: CellRef) -> DataValue:
    if isinstance(raw, bool):
        return raw
    if isinstance(raw, (int, float)):
        try:
            value = float(raw)
        except OverflowError:  # an integer literal past float's range
            value = math.inf if raw > 0 else -math.inf
        if not math.isfinite(value):
            raise FormatError(
                f"cell {address.render()} value must be a finite number, got {value!r}"
            )
        return value
    if isinstance(raw, str):
        return raw
    raise FormatError(
        f"cell {address.render()} value must be number, string or boolean, got {raw!r}")


@dataclass
class _Shapes:
    """The formula shapes of one load by shape key, and ``shape_key``'s
    memos: what each reference text denotes, and the cuts of each text
    skeleton."""

    by_key: dict[tuple, FormulaShape] = field(default_factory=dict)
    refs: dict = field(default_factory=dict)
    cuts: dict = field(default_factory=dict)


def _make_cell(address: CellRef, text_or_value, warnings: list[AuditWarning],
               is_formula: bool, shapes: _Shapes) -> Cell:
    if not is_formula:
        return Cell(address=address, value=_typed_value(text_or_value, address))
    keyed = shape_key(text_or_value, address.column, address.row, shapes.refs,
                      shapes.cuts)
    shape = shapes.by_key.get(keyed[0]) if keyed is not None else None
    if shape is not None:
        return Cell(address=address, source=text_or_value, shape=shape)
    try:
        ast = parse_formula(text_or_value)
    except FormulaSyntaxError as exc:
        warnings.append(
            AuditWarning(W_FORMULA_ERROR, address.render(), str(exc))
        )
        return Cell(address=address, value=str(text_or_value))
    numbers = [repr(node.value) for node in walk(ast.root) if type(node) is NumberLiteral]
    shape = FormulaShape(Template(ast), numbers, address.column, address.row, keyed[0])
    if keyed is not None:
        shapes.by_key[keyed[0]] = shape
    return Cell(address=address, source=text_or_value, shape=shape)


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
        sheet = Sheet(name=name)
        wb.add_sheet(sheet)
        cells = sheet_doc.get("cells", [])
        if not isinstance(cells, list):
            raise FormatError('"cells" must be a list')
        for cell_doc in cells:
            if not isinstance(cell_doc, dict):
                raise FormatError("cell entry must be an object")
            extra = set(cell_doc) - {"ref", "value", "formula"}
            if extra:
                raise FormatError(f"unknown cell fields: {sorted(extra)}")
            ref_text = cell_doc.get("ref")
            if not isinstance(ref_text, str):
                raise FormatError('cell "ref" must be a string')
            if "!" in ref_text:
                raise FormatError(f"cell ref must not carry a sheet: {_quoted_head(ref_text)}")
            plain = _PLAIN_ADDRESS.match(ref_text)
            if plain is not None and (column := letters_to_column(plain[1])) <= MAX_COLUMN:
                address = CellRef(name, column, int(plain[2]))
            else:
                try:
                    ref = parse_cell_address(ref_text)
                except ValueError as exc:
                    raise FormatError(str(exc)) from exc
                address = CellRef(name, ref.column, ref.row)
            has_value = "value" in cell_doc
            has_formula = "formula" in cell_doc
            if has_value == has_formula:
                raise FormatError(
                    f"cell {_quoted_head(ref_text)} must have exactly one of value/formula"
                )
            if has_formula and not isinstance(cell_doc["formula"], str):
                raise FormatError(f'cell {_quoted_head(ref_text)} "formula" must be a string')
            payload = cell_doc["formula"] if has_formula else cell_doc["value"]
            sheet.add(_make_cell(address, payload, wb.warnings, has_formula, shapes))
    return wb


def load_csv_grid(text: str, provenance: str = "<csv>") -> Workbook:
    """Load an RFC-4180 CSV grid as a single sheet named ``Sheet1``; bad
    quoting or a field past the csv module's size limit is a FormatError."""
    wb = Workbook(provenance=provenance)
    sheet = Sheet(name="Sheet1")
    wb.add_sheet(sheet)
    shapes = _Shapes()
    reader = csv.reader(io.StringIO(text), strict=True)
    try:
        for row_idx, row in enumerate(reader, start=1):
            for col_idx, raw in enumerate(row, start=1):
                if raw == "":
                    continue
                address = CellRef("Sheet1", col_idx, row_idx)
                if raw.startswith("="):
                    sheet.add(_make_cell(address, raw, wb.warnings, True, shapes))
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
                sheet.add(Cell(address=address, value=value))
    except csv.Error as exc:
        raise FormatError(f"invalid CSV at line {reader.line_num}: {exc}") from exc
    return wb

