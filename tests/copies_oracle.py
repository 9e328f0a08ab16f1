"""Copies as they were loaded and resolved before offset-keyed shapes.

Before, ``shape_key`` also returned a text's references: each distinct
reference text of a load went once through ``parse_cell_address`` into a
per-load memo, and the load kept a tuple of ``CellRef`` per formula row
(``Sheet.refs``; None for the text a shape was built from, whose AST leaves
the shape kept). The graph then resolved each copy's references one
``CellRef`` at a time: ``_resolve`` per reference, then a ``(row, column)``
lookup. ``_scan_spans``, ``shape_key``, ``_add_formula``, the shape's
``references`` and ``shift_key_at`` and the graph's ``__init__`` below are
that code, verbatim but for where a shape's leaves are kept. The loader
walks a valid document only, with numeric values. ``test_copies.py`` checks
the offset-keyed load and graph against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, product, repeat
from operator import is_, is_not
from typing import Optional, Sequence, Union

from cellgauge.errors import AuditWarning, FormulaSyntaxError, RangeBudgetError, W_FORMULA_ERROR
from cellgauge.formula import (
    _TOKEN,
    _SKELETON,
    FormulaShape,
    NumberLiteral,
    Template,
    _copy_range,
    _layout,
    _shift_key,
    parse_formula,
    walk,
)
from cellgauge.graph import (
    EMPTY_RANGE_CELL_COST,
    MAX_RANGE_CELLS,
    CellGraph,
    DanglingReference,
    require_range_budget,
)
from cellgauge.refs import CellRef, RangeRef, parse_cell_address
from cellgauge.workbook import Sheet, Workbook

_RefInfo = tuple[CellRef, Optional[str], bool, int, bool, int]
_Span = Optional[tuple[int, int]]
_Cuts = tuple[tuple[_Span, _Span], ...]


def _scan_spans(text: str) -> Optional[_Cuts]:
    """The cuts of a formula text after its ``=`` at its references, found
    with ``_TOKEN`` as :func:`_lex` finds its tokens: per reference, the
    span of the run of other tokens before it (None if there is none) and
    its span; last, the run after the last reference and None. None when
    some character starts no token or a string is left open; a reference's
    row and column are not checked here."""
    match = _TOKEN.match
    spans = []
    start = pos = 1
    while pos < len(text):
        m = match(text, pos)
        if m is None or m.lastgroup == "UNTERMINATED":
            return None
        if m.lastgroup == "REF":
            spans.append(((start, pos) if start < pos else None, m.span()))
            start = m.end()
        pos = m.end()
    spans.append(((start, pos) if start < pos else None, None))
    return tuple(spans)


def shape_key(
    text: str, column: int, row: int, memo: dict[str, Optional[_RefInfo]],
    cuts: Optional[dict[str, Optional[_Cuts]]] = None,
) -> Optional[tuple[tuple, tuple[CellRef, ...]]]:
    """The shape key of a formula text in cell (column, row), and its refs.

    The text is cut with the lexer's own token pattern, ``_TOKEN``, so at
    exactly the places :func:`_lex` cuts it. The key is a tuple of the
    verbatim text between references and, for each reference, its sheet
    and each absolute flag with the absolute value or the offset from the
    cell, so two texts share a key exactly when they are copies of one
    formula. The refs are those ``_lex`` would build, in text order. None
    when the text cannot share a shape: when it does not start with ``=``,
    holds a character no token starts with or an unterminated string, or a
    reference to row 0 or past column XFD (such texts fail to parse, and
    each must report its own error offset).

    ``memo`` maps each reference text to what it denotes, and ``cuts`` each
    text skeleton (see ``_SKELETON``) to the cuts :func:`_scan_spans` found
    in the first text with that skeleton, so later texts with it are cut
    without a scan. Both should live as long as one load; without ``cuts``
    the text is scanned.
    """
    if not text.startswith("="):
        return None
    if cuts is None:
        cuts = {}
    skeleton = text.translate(_SKELETON)
    spans = cuts.get(skeleton, False)
    if spans is False:
        spans = cuts[skeleton] = _scan_spans(text)
    if spans is None:  # a character no token starts with
        return None
    key: list = []
    refs: list[CellRef] = []
    for other, ref_span in spans:
        # The text before the reference; None if there is none.
        key.append(None if other is None else text[other[0]:other[1]])
        if ref_span is None:  # the end of the text
            break
        token = text[ref_span[0]:ref_span[1]]
        info = memo.get(token, False)
        if info is False:
            try:
                ref = parse_cell_address(token)
            except ValueError:  # row 0 or a column past XFD
                info = None
            else:
                info = (ref, ref.sheet, ref.col_absolute, ref.column,
                        ref.row_absolute, ref.row)
            memo[token] = info
        if info is None:
            return None
        ref, sheet, col_abs, col, row_abs, ref_row = info
        key += (sheet, col_abs, col if col_abs else col - column,
                row_abs, ref_row if row_abs else ref_row - row)
        refs.append(ref)
    return tuple(key), tuple(refs)


# --- The shape's copy queries, with its first copy's leaves kept beside it ------


def references(
    shape: FormulaShape, leaves: tuple, refs: Optional[tuple[CellRef, ...]]
) -> Sequence[Union[CellRef, RangeRef]]:
    """The reference leaves, in ``walk`` order, of the copy whose
    references in text order are ``refs``: a ``CellRef`` per cell leaf
    and a normalized ``RangeRef`` per range leaf, as in the copy's AST.
    None stands for the references of the copy the shape was built from,
    whose AST leaves are ``leaves``."""
    if refs is None:
        return leaves
    flags = tuple(isinstance(ref, RangeRef) for ref in leaves)
    if not any(flags):
        return refs
    out: list[Union[CellRef, RangeRef]] = []
    refs_left = iter(refs)
    for is_range in flags:
        ref = next(refs_left)
        out.append(_copy_range(ref, next(refs_left)) if is_range else ref)
    return out


def shift_key_at(shape: FormulaShape, leaves: tuple, refs: Optional[tuple[CellRef, ...]],
                 column: int, row: int) -> str:
    """The shift key of the copy in cell (column, row) whose references
    are ``refs`` (as for :func:`references`)."""
    if shape.shift_key is not None:
        return shape.shift_key
    return _shift_key(shape._key_pieces, references(shape, leaves, refs), column, row)


# --- The copy load --------------------------------------------------------------


class RefsSheet(Sheet):
    """A ``Sheet`` that also keeps, per formula row, its ``refs``, and the
    first copy's AST leaves of each shape of its load (``leaves``)."""

    def __init__(self, name: str, leaves: dict):
        super().__init__(name)
        self.refs: list[Optional[tuple[CellRef, ...]]] = []
        self.leaves = leaves


@dataclass
class _Shapes:
    by_key: dict[tuple, FormulaShape] = field(default_factory=dict)
    refs: dict = field(default_factory=dict)
    cuts: dict = field(default_factory=dict)
    leaves: dict = field(default_factory=dict)  # per shape, its first copy's leaves


def _add_formula(sheet: RefsSheet, key: tuple[int, int], text: str,
                 warnings: list[AuditWarning], shapes: _Shapes) -> None:
    """Append the cell with formula ``text`` at ``key``, which the sheet's
    index already gives the next position, to the sheet's columns. A text
    that does not parse becomes a string data cell with a W001 warning."""
    row, column = key
    keyed = shape_key(text, column, row, shapes.refs, shapes.cuts)
    shape = shapes.by_key.get(keyed[0]) if keyed is not None else None
    refs = None
    if shape is not None:
        refs = keyed[1]
    else:
        try:
            ast = parse_formula(text)
        except FormulaSyntaxError as exc:
            warnings.append(AuditWarning(
                W_FORMULA_ERROR, CellRef(sheet.name, column, row).render(), str(exc)))
            sheet.values.append(str(text))
            return
        # A text that parses has a key: shape_key cuts it as _lex does.
        numbers = [repr(node.value) for node in walk(ast.root) if type(node) is NumberLiteral]
        shape = shapes.by_key[keyed[0]] = FormulaShape(Template(ast), numbers, column, row,
                                                       keyed[0])
        shapes.leaves[shape] = tuple(_layout(ast.root)[0])
    sheet.formula_rows.append(len(sheet.values))
    sheet.values.append(None)
    sheet.sources.append(text)
    sheet.shapes.append(shape)
    sheet.refs.append(refs)


def load_workbook_doc(doc: dict) -> Workbook:
    """A valid workbook document whose values are numbers, loaded with
    :func:`_add_formula`."""
    wb = Workbook(provenance="<doc>")
    shapes = _Shapes()
    for sheet_doc in doc["sheets"]:
        sheet = RefsSheet(sheet_doc["name"], shapes.leaves)
        wb.add_sheet(sheet)
        for cell_doc in sheet_doc["cells"]:
            ref = parse_cell_address(cell_doc["ref"])
            key = (ref.row, ref.column)
            sheet.index[key] = len(sheet.values)
            if "formula" in cell_doc:
                _add_formula(sheet, key, cell_doc["formula"], wb.warnings, shapes)
            else:
                sheet.values.append(float(cell_doc["value"]))
    return wb


# --- The graph's per-CellRef resolution -----------------------------------------


def _resolve(wb: Workbook, ref: Union[CellRef, RangeRef], own: Sheet) -> Optional[Sheet]:
    """The sheet a reference reads: ``own`` when unqualified, None when it
    names a missing sheet."""
    name = (ref if isinstance(ref, CellRef) else ref.start).sheet
    return own if name is None else wb.sheet(name)


def _address(sheet: Sheet, pos: int) -> str:
    """The address text of the cell at position ``pos`` of ``sheet``."""
    row, column = list(sheet.index)[pos]
    return CellRef(sheet.name, column, row).render()


class OracleGraph(CellGraph):
    """``CellGraph`` built by resolving each copy's ``CellRef``s one at a
    time, from a workbook :func:`load_workbook_doc` loaded; its queries
    are ``CellGraph``'s."""

    def __init__(self, wb: Workbook, max_range_cells: int = MAX_RANGE_CELLS):
        require_range_budget(max_range_cells)
        self.workbook = wb
        # Per sheet name: the node id of each (row, column) key. A sheet's
        # cells are nodes from its offset on, in position order.
        self._ids: dict[str, dict[tuple[int, int], int]] = {}
        self._offsets: list[int] = []
        n = 0
        for sheet in wb.sheets:
            self._offsets.append(n)
            self._ids[sheet.name] = dict(zip(sheet.index, range(n, n + len(sheet.index))))
            n += len(sheet.index)
        self._populated = n
        # Each populated node's shape, None for a data cell.
        self._shapes: list = [None] * n
        # Per node, in reference order: precedents (with multiplicity) and
        # dependents. Edges point in the direction of data flow. A node
        # without a formula shares one empty tuple of precedents.
        self._preds: list[Union[list[int], tuple[()]]] = [()] * n
        self._succs: list[list[int]] = [[] for _ in range(n)]
        # Per populated node, where each reference's targets end in its
        # precedents; a materialized empty cell has no formula.
        self._ref_ends: list[tuple[int, ...]] = [()] * n
        # Each materialized node's (row, column) key and sheet position,
        # until the sort keys are built from them.
        empty_keys: list[tuple[int, int]] = []
        empty_sheets: list[int] = []
        dangling: list[tuple[int, str, str]] = []  # (node id, text, sheet)

        edges = 0
        range_cells_left = max_range_cells
        layouts: dict[tuple[int, ...], tuple[int, ...]] = {}
        sheet_pos = {sheet.name: pos for pos, sheet in enumerate(wb.sheets)}
        succs = self._succs
        for own, first in zip(wb.sheets, self._offsets):
            for dst, shape, refs in zip(map(first.__add__, own.formula_rows),
                                        own.shapes, own.refs):
                self._shapes[dst] = shape
                preds = self._preds[dst] = []
                ends = []
                for ref in references(shape, own.leaves[shape], refs):
                    sheet = _resolve(wb, ref, own)
                    if sheet is None:
                        first_ref = ref if isinstance(ref, CellRef) else ref.start
                        dangling.append((dst, ref.render(), first_ref.sheet))
                        ends.append(len(preds))
                        continue
                    ids = self._ids[sheet.name]
                    if isinstance(ref, CellRef):
                        target = (ref.row, ref.column)
                        src = ids.get(target)
                        if src is None:  # an empty cell, materialized as data
                            src = ids[target] = len(succs)
                            succs.append([])
                            self._preds.append(())
                            empty_keys.append(target)
                            empty_sheets.append(sheet_pos[sheet.name])
                        preds.append(src)
                        succs[src].append(dst)
                        ends.append(len(preds))
                        continue
                    # A range, resolved in bulk: its area is checked before
                    # it expands, and its empty cells become nodes at once.
                    range_cells_left -= ref.width * ref.height
                    if range_cells_left < 0:
                        raise RangeBudgetError(
                            _address(own, dst - first), ref.render(), max_range_cells)
                    targets = list(product(range(ref.start.row, ref.end.row + 1),
                                           range(ref.start.column, ref.end.column + 1)))
                    found = list(map(ids.get, targets))
                    for src in compress(found, map(is_not, found, repeat(None))):
                        succs[src].append(dst)
                    empty = found.count(None)
                    if empty:
                        range_cells_left -= (EMPTY_RANGE_CELL_COST - 1) * empty
                        if range_cells_left < 0:
                            raise RangeBudgetError(
                                _address(own, dst - first), ref.render(), max_range_cells)
                        new = list(compress(targets, map(is_, found, repeat(None))))
                        ids.update(zip(new, range(len(succs), len(succs) + empty)))
                        succs.extend(map(list, repeat((dst,), empty)))
                        self._preds.extend(repeat((), empty))
                        empty_keys.extend(new)
                        empty_sheets.extend(repeat(sheet_pos[sheet.name], empty))
                        found = map(ids.__getitem__, targets)
                    preds.extend(found)
                    ends.append(len(preds))
                ends = tuple(ends)  # copies of one formula share one tuple
                self._ref_ends[dst] = layouts.setdefault(ends, ends)
                edges += len(preds)

        self.node_count = len(succs)
        self.edge_count = edges
        self._set_sort_keys(empty_keys, empty_sheets)
        self.dangling: list[DanglingReference] = [
            DanglingReference(self.address_of(dst), text, missing)
            for dst, text, missing in dangling]
        self._topo = self._topological_order()
        self.cycles: list[list[CellRef]] = (
            self._find_cycles() if len(self._topo) < self.node_count else []
        )
        self._stats: Optional[tuple[list[int], list[int], list[int]]] = None
