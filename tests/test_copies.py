"""Offset-keyed copies against the per-``CellRef`` load and graph.

A copy is its shape plus its cell: ``shape_key`` reads each reference's
parts at the places its text's skeleton fixes, the load keeps no
references, and the graph resolves a shape's sheets once per sheet and
each copy's targets from its cell plus the offsets. ``copies_oracle``
keeps the code this replaced. On random copied workbooks (anchors mixed,
cross-sheet references to quoted names and to names in another case,
missing sheets, ranges with mixed anchors, copies reaching row 0 or past
column XFD) both must give equal keys, shape classes, reference leaves,
shift keys, W001 warnings, precedent lists and reference ends per node,
dangling references and reports. ``OracleShape`` keeps the shape build
from before a shape took the load's key and one walk: every field of every
loaded shape must equal it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copies_oracle
from cellgauge import refs as refs_module
from cellgauge import report as report_module
from cellgauge.errors import RangeBudgetError
from cellgauge.formula import FormulaShape, _layout, _shift_key, parse_formula, shape_key
from cellgauge.graph import CellGraph, build_graph
from cellgauge.refs import RangeRef, column_to_letters
from cellgauge.report import analyze_workbook, emit_report
from cellgauge.workbook import Workbook, load_workbook_doc
from conftest import count_builds
from test_formula import walk_classify_tokens

# The copies live on "S"; "it's" and "Data" hold data. References name
# each sheet as written and in another case, and two missing sheets.
PREFIXES = ("", "", "'it''s'!", "'IT''S'!", "Data!", "dATA!", "Gone!", "'Gone''s'!")
# Copy blocks start in column B or two columns before XFD, so that a
# relative column can step past it; absolute columns lie near the block,
# so that ranges stay narrow.
ABSOLUTE_COLUMNS = {2: (1, 3, 27), 16382: (16380, 16382, 16384)}

# (column absolute, column offset, absolute column's index, row absolute,
# row offset, absolute row): offsets reach row 0 from row 1, and XFE from XFD.
part = st.tuples(st.booleans(), st.integers(-1, 2), st.integers(0, 2),
                 st.booleans(), st.integers(-1, 2), st.integers(1, 6))
atom = st.one_of(
    st.tuples(st.sampled_from(PREFIXES), st.lists(part, min_size=1, max_size=2)),
    st.sampled_from(("1", '"A1"', "TRUE", "2.5")),
)
template = st.tuples(st.lists(atom, min_size=1, max_size=4),
                     st.sampled_from(("+", "*", "&", ">")),
                     st.sampled_from((None, "SUM", "IF")),
                     st.sampled_from(sorted(ABSOLUTE_COLUMNS)))


def render_part(spec, column: int, row: int, base: int) -> str:
    col_abs, dc, abs_col, row_abs, dr, abs_row = spec
    c = ABSOLUTE_COLUMNS[base][abs_col] if col_abs else column + dc
    r = abs_row if row_abs else row + dr
    return f"{'$' if col_abs else ''}{column_to_letters(c)}{'$' if row_abs else ''}{r}"


def render(tmpl, column: int, row: int) -> str:
    atoms, op, wrap, base = tmpl
    parts = [a if isinstance(a, str)
             else a[0] + ":".join(render_part(p, column, row, base) for p in a[1])
             for a in atoms]
    body = op.join(parts)
    return f"={wrap}({body})" if wrap else "=" + body


data = st.dictionaries(st.tuples(st.integers(1, 4), st.integers(1, 6)), st.integers(-9, 9),
                       max_size=10)
column_data = st.dictionaries(st.integers(1, 16), st.integers(-9, 9), max_size=10)


@st.composite
def copied_docs(draw):
    """A document whose sheet S holds each template copied over a block of
    3 columns and 4 rows, and data in column A; the formulas come first."""
    cells = []
    for i, tmpl in enumerate(draw(st.lists(template, min_size=1, max_size=3))):
        base = tmpl[3]
        for c in range(base, base + 3):
            for r in range(5 * i + 1, 5 * i + 5):
                cells.append({"ref": f"{column_to_letters(c)}{r}", "formula": render(tmpl, c, r)})
    cells += [{"ref": f"A{r}", "value": v} for r, v in draw(column_data).items()]
    sheets = [{"name": "S", "cells": cells}]
    for name in ("it's", "Data"):
        sheets.append({"name": name, "cells": [
            {"ref": f"{column_to_letters(c)}{r}", "value": v}
            for (c, r), v in draw(data).items()]})
    return {"sheets": sheets}


def formula_rows(wb: Workbook):
    """Each formula row as (sheet, position in its formula rows, column, row)."""
    for sheet in wb.sheets:
        keys = list(sheet.index)
        for k, pos in enumerate(sheet.formula_rows):
            row, column = keys[pos]
            yield sheet, k, column, row


def shape_classes(wb: Workbook) -> list[int]:
    first: dict[int, int] = {}
    return [first.setdefault(id(shape), len(first))
            for sheet in wb.sheets for shape in sheet.shapes]


def assert_loads_alike(wb: Workbook, old: Workbook) -> None:
    assert [s.name for s in wb.sheets] == [s.name for s in old.sheets]
    for sheet, want in zip(wb.sheets, old.sheets):
        assert list(sheet.index.items()) == list(want.index.items())
        assert sheet.values == want.values
        assert (sheet.formula_rows, sheet.sources) == (want.formula_rows, want.sources)
    assert shape_classes(wb) == shape_classes(old)
    assert wb.warnings == old.warnings
    for (sheet, k, column, row), (old_sheet, _, _, _) in zip(formula_rows(wb), formula_rows(old)):
        shape, refs = old_sheet.shapes[k], old_sheet.refs[k]
        leaves = old_sheet.leaves[shape]
        assert sheet.shapes[k].references(column, row) == list(
            copies_oracle.references(shape, leaves, refs))
        assert sheet.shapes[k].shift_key_at(column, row) == copies_oracle.shift_key_at(
            shape, leaves, refs, column, row)


def assert_graphs_alike(g: CellGraph, old: CellGraph) -> None:
    assert (g.node_count, g.edge_count) == (old.node_count, old.edge_count)
    assert g.dangling == old.dangling
    assert g.nodes() == old.nodes()
    assert g.cycles == old.cycles
    preds, ends = g.reference_columns()
    old_preds, old_ends = old.reference_columns()
    assert preds == old_preds and ends == old_ends
    for i in range(g.node_count):
        assert g.reference_targets(i) == old.reference_targets(i)


def report_bytes(wb: Workbook, graph=build_graph) -> bytes:
    with patch.object(report_module, "build_graph", graph):
        return emit_report(analyze_workbook(wb))


@settings(max_examples=200, deadline=None)
@given(copied_docs())
def test_copies_load_resolve_and_report_as_the_oracle(doc):
    for cell in doc["sheets"][0]["cells"]:
        if "formula" in cell:
            ref = refs_module.parse_cell_address(cell["ref"])
            keyed = copies_oracle.shape_key(cell["formula"], ref.column, ref.row, {})
            assert shape_key(cell["formula"], ref.column, ref.row, {}, {}, {}) == (
                None if keyed is None else keyed[0])
    wb, old = load_workbook_doc(doc), copies_oracle.load_workbook_doc(doc)
    assert_loads_alike(wb, old)
    assert_graphs_alike(CellGraph(wb), copies_oracle.OracleGraph(old))
    assert report_bytes(wb) == report_bytes(old, copies_oracle.OracleGraph)


class OracleShape(FormulaShape):
    """A shape built as before it took the load's key and one walk: the
    tokens from a walk of their own, and the key cut again from the text."""

    __slots__ = ()

    def __init__(self, ast, column: int, row: int):
        tokens = walk_classify_tokens(ast)
        levels = [t.nesting_level for t in tokens]
        self.n_operators = sum(1 for t in tokens if t.kind == "operator")
        self.n_operands = len(tokens) - self.n_operators
        self.depth_of_nesting = max(levels)
        self.avg_nesting_level = Fraction(sum(levels), len(levels))
        (leaves, self.if_reach, self.ifs, self.decision_count,
         self._key_pieces) = _layout(ast.root)[:5]
        # The parts of the text's references in text order, which is walk order.
        key = shape_key(ast.source, column, row, {}, {}, {})
        parts = iter([key[i:i + 5] for i in range(1, len(key) - 1, 6)])
        self.leaves = tuple(
            (next(parts), next(parts)) if isinstance(leaf, RangeRef) else (next(parts),)
            for leaf in leaves)
        self.relative = not any(part[1] or part[3] for leaf in self.leaves for part in leaf)
        uniform = all(leaf[0][1] == leaf[-1][1] and leaf[0][3] == leaf[-1][3]
                      for leaf in self.leaves)
        self.shift_key = _shift_key(self._key_pieces, self.references(column, row),
                                    column, row) if uniform else None


@settings(max_examples=200, deadline=None)
@given(copied_docs())
def test_every_shape_field_as_the_oracle(doc):
    wb = load_workbook_doc(doc)
    built = set()
    for sheet, k, column, row in formula_rows(wb):
        shape = sheet.shapes[k]
        if id(shape) in built:  # a copy; its shape was built from the first
            continue
        built.add(id(shape))
        want = OracleShape(parse_formula(sheet.sources[k]), column, row)
        for name in FormulaShape.__slots__:
            assert getattr(shape, name) == getattr(want, name), (name, sheet.sources[k])
    assert built


def outcome(build):
    try:
        return build()
    except RangeBudgetError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(copied_docs(), st.integers(0, 80))
def test_range_budget_as_the_oracle(doc, budget):
    g = outcome(lambda: CellGraph(load_workbook_doc(doc), budget))
    old = outcome(lambda: copies_oracle.OracleGraph(copies_oracle.load_workbook_doc(doc), budget))
    if isinstance(old, str):
        assert g == old
    else:
        assert_graphs_alike(g, old)


@pytest.mark.parametrize("ref, text, message", [
    ("B2", "=A0+1", "row index must be >= 1 (at offset 1)"),
    ("D1", "=XFE1+1", "column must be at most XFD (at offset 1)"),
    ("B2", "=A" + "1" * 5000 + "+1", "row has more than 4300 digits (at offset 1)"),
])
def test_a_text_that_cannot_be_a_copy_keeps_its_own_w001(ref, text, message):
    if "digits" in message and sys.get_int_max_str_digits() != 4300:
        pytest.skip("int() has no 4,300-digit limit here")
    # Read as offsets, =A0+1 in B2 would be a copy of =A1+1 in B3, and
    # =XFE1+1 in D1 one of =XFD1+1 in C1, a text of the same skeleton.
    doc = {"sheets": [{"name": "S", "cells": [
        {"ref": "B3", "formula": "=A1+1"}, {"ref": "C1", "formula": "=XFD1+1"},
        {"ref": ref, "formula": text}]}]}
    for load in (load_workbook_doc, copies_oracle.load_workbook_doc):
        wb = load(doc)
        assert [(w.code, w.address, w.message) for w in wb.warnings] == [
            ("W001", f"S!{ref}", message)]
    assert_loads_alike(load_workbook_doc(doc), copies_oracle.load_workbook_doc(doc))


def copied_doc(copies: int) -> dict:
    """``copies`` rows of formulas in six shapes, with cell and range
    references, anchors mixed, to their own sheet and to a quoted one."""
    cells = [{"ref": f"A{r}", "value": r} for r in range(1, copies + 2)]
    for r in range(2, copies + 2):
        cells += [
            {"ref": f"B{r}", "formula": f"=A{r - 1}*2+$A$1"},
            {"ref": f"C{r}", "formula": f"=SUM(A$1:A{r})"},
            {"ref": f"D{r}", "formula": f"=IF(B{r}>0,'it''s'!A{r},C{r})"},
            {"ref": f"E{r}", "formula": f"=SUM(B{r}:D{r})+'IT''S'!$B{r}"},
            {"ref": f"F{r}", "formula": f"=E{r}&\"A1\""},
            {"ref": f"G{r}", "formula": f"=SUM(A{r}:A$2)"},
        ]
    return {"sheets": [{"name": "S", "cells": cells},
                       {"name": "it's", "cells": [{"ref": "A2", "value": 1}]}]}


def test_load_and_graph_build_no_cell_ref_per_copy(monkeypatch):
    # A CellRef is built for a shape (its parse and its shift key), not for
    # a copy: the count is the same for 20 copies of each shape as for 400.
    counts = []
    for copies in (20, 400):
        doc = copied_doc(copies)
        made = count_builds(monkeypatch, refs_module.CellRef)
        g = build_graph(load_workbook_doc(doc))
        monkeypatch.undo()
        assert g.edge_count > copies * 10
        counts.append(made[refs_module.CellRef])
    assert counts[0] == counts[1], counts
