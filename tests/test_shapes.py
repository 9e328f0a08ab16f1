"""Formula shapes against parsing every formula on its own.

A load parses only the first text of each template (texts that differ
only in numbers and cell coordinates share one); a later copy keeps only
its text and shape, its cell gives its references, and its text is parsed
again only when its AST is asked for. These tests load workbooks
and compare every formula cell with what parsing its own text gives: the
AST (through plain ``==``), the references the dependency graph reads, the
cell metrics and the range-linkage shift key, each computed the way they
were before shapes, and every W001 warning with its offset.
"""

from __future__ import annotations

import csv
import io
import re
from fractions import Fraction
from typing import Union

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellgauge import build_graph, load_csv_grid, load_workbook_doc
from cellgauge import formula as formula_module
from cellgauge import workbook as workbook_module
from cellgauge.errors import FormulaSyntaxError, W_FORMULA_ERROR
from cellgauge.formula import (
    _SKELETON,
    AstNode,
    BinaryOp,
    BoolLiteral,
    CellRefNode,
    FormulaShape,
    FunctionCall,
    NumberLiteral,
    RangeRefNode,
    StringLiteral,
    UnaryOp,
    classify_tokens,
    decision_count,
    parse_formula,
    render_number,
    walk,
)
from cellgauge.metrics import formula_metrics
from cellgauge.refs import CellRef, column_to_letters, parse_cell_address
from cellgauge.workbook import Cell, Workbook
from test_copies import OracleShape


def _shift_keys(cells: list[Cell]) -> list[str]:
    """Each formula cell's shift key, as range linkage keys a copy."""
    return [c.shape.shift_key_at(c.address.column, c.address.row) for c in cells]


def old_shift_key(node: AstNode, base_col: int, base_row: int) -> str:
    """The per-cell shift key as range linkage computed it before shapes."""

    def enc_ref(ref: CellRef) -> str:
        sheet = f"{ref.sheet.casefold()}!" if ref.sheet else ""
        col = f"C{ref.column}" if ref.col_absolute else f"c[{ref.column - base_col}]"
        row = f"R{ref.row}" if ref.row_absolute else f"r[{ref.row - base_row}]"
        return sheet + col + row

    parts: list[str] = []
    stack: list[Union[AstNode, str]] = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, str):
            parts.append(n)
        elif isinstance(n, CellRefNode):
            parts.append(enc_ref(n.ref))
        elif isinstance(n, BinaryOp):
            stack.extend((")", n.right, n.op, n.left, "("))
        elif isinstance(n, NumberLiteral):
            parts.append(render_number(n.value))
        elif isinstance(n, RangeRefNode):
            parts.append(enc_ref(n.ref.start) + ":" + enc_ref(n.ref.end))
        elif isinstance(n, FunctionCall):
            items: list[Union[AstNode, str]] = [f"{n.name}("]
            for i, arg in enumerate(n.args):
                if i:
                    items.append(",")
                items.append(arg)
            items.append(")")
            stack.extend(reversed(items))
        elif isinstance(n, UnaryOp):
            stack.extend((")", n.child, f"u{n.op}("))
        elif isinstance(n, StringLiteral):
            parts.append('"' + n.value.replace('"', '""') + '"')
        elif isinstance(n, BoolLiteral):
            parts.append("TRUE" if n.value else "FALSE")
    return "".join(parts)


def old_size_metrics(ast) -> tuple:
    """Operator and operand counts, nesting and decisions of one AST, as
    ``formula_metrics`` computed them per cell before shapes."""
    tokens = classify_tokens(ast)
    n_operators = sum(1 for t in tokens if t.kind == "operator")
    levels = [t.nesting_level for t in tokens]
    return (n_operators, len(tokens) - n_operators, max(levels),
            Fraction(sum(levels), len(levels)), decision_count(ast))


def targets_of(wb: Workbook, leaf, own: str) -> list[CellRef]:
    """The cells a reference leaf of a formula on sheet ``own`` reads, as
    the graph resolved it before shapes: a range's row-major; none for a
    missing sheet."""
    sheet = wb.sheet((leaf if isinstance(leaf, CellRef) else leaf.start).sheet or own)
    cells = [leaf] if isinstance(leaf, CellRef) else leaf.cells()
    return [] if sheet is None else [CellRef(sheet.name, c.column, c.row) for c in cells]


def reference_leaves(ast) -> list:
    """The refs of an AST's reference leaves in ``walk`` order."""
    return [n.ref for n in walk(ast.root) if isinstance(n, (CellRefNode, RangeRefNode))]


def assert_matches_own_parse(wb: Workbook, texts: dict[CellRef, str]) -> int:
    """Every formula text of ``wb`` (``texts`` by address) against its own
    parse; returns the number of cells that are copies of another text."""
    g = build_graph(wb)
    expected_warnings = []
    shapes: set[int] = set()
    copies = 0
    for sheet in wb.sheets:
        for cell in sheet.cells.values():
            text = texts.get(cell.address)
            if text is None:
                assert not cell.is_formula
                continue
            try:
                fresh = parse_formula(text)
            except FormulaSyntaxError as exc:
                expected_warnings.append((cell.address.render(), str(exc)))
                assert not cell.is_formula and cell.value == text
                continue
            assert cell.ast == fresh, text
            assert cell.ast.source == cell.source == text
            # A copy is a formula cell its shape was not built from.
            copies += id(cell.shape) in shapes
            shapes.add(id(cell.shape))
            at = cell.address
            leaves = reference_leaves(fresh)
            assert cell.shape.references(at.column, at.row) == leaves, text
            # The graph reads each reference as the cell's own parse lists it.
            assert [list(g.locations(t)) for t in g.reference_targets(at)] == [
                targets_of(wb, leaf, at.sheet) for leaf in leaves], text
            assert _shift_keys([cell]) == [old_shift_key(fresh.root, at.column, at.row)], text
            m = formula_metrics(cell, g.precedents(at))
            assert (m.n_operators, m.n_operands, m.depth_of_nesting,
                    m.avg_nesting_level, m.decision_count) == old_size_metrics(fresh), text
    got = [(w.address, w.message) for w in wb.warnings if w.code == W_FORMULA_ERROR]
    assert sorted(got) == sorted(expected_warnings)
    return copies


def load_doc(sheets: dict[str, dict[str, object]]) -> tuple[Workbook, dict]:
    """A JSON-document workbook from {sheet: {ref: value-or-'=formula'}},
    and its formula texts by address."""
    doc = {"sheets": []}
    texts = {}
    for name, cells in sheets.items():
        entries = []
        for ref, content in cells.items():
            if isinstance(content, str) and content.startswith("="):
                entries.append({"ref": ref, "formula": content})
                texts[parse_cell_address(ref).with_sheet(name)] = content
            else:
                entries.append({"ref": ref, "value": content})
        doc["sheets"].append({"name": name, "cells": entries})
    return load_workbook_doc(doc), texts


def load_csv(rows: list[list[str]]) -> tuple[Workbook, dict]:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    wb = load_csv_grid(out.getvalue())
    texts = {
        CellRef("Sheet1", c, r): text
        for r, row in enumerate(rows, start=1)
        for c, text in enumerate(row, start=1)
        if text.startswith("=")
    }
    return wb, texts


def copied_cases() -> dict[str, dict[str, object]]:
    """One sheet per case; each formula is copied over several cells."""
    long_sum = "+".join(["A1"] * 2000)
    return {
        "Data": {f"{column_to_letters(c)}{r}": float(c * r) for c in range(1, 30) for r in range(1, 8)},
        "My Data": {f"A{r}": float(r) for r in range(1, 8)},
        "it's": {"B2": 1.0},
        # Relative, absolute and mixed references.
        "Mixed": {f"B{r}": f"=A{r}+$A$1+A$1+$A{r}+SUM(A{r}:A{r + 1})*SUM($A$1:$A$3)"
                  for r in range(1, 6)},
        # Quoted cross-sheet names, in two spellings of one sheet.
        "Cross": {
            **{f"B{r}": f"='My Data'!A{r}*2+'it''s'!$B$2" for r in range(1, 5)},
            **{f"C{r}": f"='my data'!A{r}*2+Data!A{r}" for r in range(1, 5)},
        },
        # Column letters rolling over from Z to AA along a row.
        "Roll": {
            **{f"{column_to_letters(c)}1": f"={column_to_letters(c - 1)}1+1" for c in range(24, 30)},
            **{f"{column_to_letters(c)}2": f"=SUM({column_to_letters(c - 3)}1:{column_to_letters(c - 1)}1)"
               for c in range(24, 30)},
        },
        # A$3:A1 copied across row 3: normalization swaps its ends there.
        "Flip": {f"C{r}": f"=SUM(A$3:A{r})" for r in range(1, 7)},
        # Text that looks like references: strings, LOG10( and 1E5.
        "Text": {
            **{f"B{r}": f'="A1"&B{r + 10}&"c[0]r[0]"' for r in range(1, 5)},
            **{f"C{r}": f"=LOG10(A{r})+1" for r in range(1, 5)},
            **{f"D{r}": f"=A{r}*1E5+1e-3" for r in range(1, 5)},
        },
        # A copy whose reference lands on row 0 is a W001 with its own offset.
        "Row0": {
            **{f"B{r}": f"=A{r - 1}+1" for r in range(1, 5)},
            **{f"C{r}": f"=SUM($B$1:$B$4)+A{r - 1}" for r in range(1, 5)},
        },
        # Texts containing "[": errors, except inside a string.
        "Bracket": {
            **{f"B{r}": f"=A{r}+c[0]r[0]" for r in range(1, 4)},
            **{f"C{r}": f'="c[0]r[0]"&A{r}' for r in range(1, 4)},
            **{f"D{r}": "=c[0]r[0]" for r in range(1, 4)},
        },
        # A 2,000-term flat sum, copied once.
        "Long": {"B1": "=" + long_sum, "B2": "=" + long_sum.replace("A1", "A2")},
    }


def test_copies_match_their_own_parse():
    wb, texts = load_doc(copied_cases())
    copies = assert_matches_own_parse(wb, texts)
    assert copies == 41  # every text but the first of each shape and the errors


def test_csv_copies_match_their_own_parse():
    rows = [
        [f"{r}", f"=A{r}*2+$A$1", f"=SUM(A$3:A{r})", f'="A1"&B{r}', f"=LOG10(A{r})*1E5",
         f"=A{r - 1}+1", f"=A{r}+c[0]r[0]"]
        for r in range(1, 7)
    ]
    wb, texts = load_csv(rows)
    assert assert_matches_own_parse(wb, texts) > 15


def test_each_shape_is_parsed_once(monkeypatch):
    calls = []
    real = workbook_module.parse_formula

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(workbook_module, "parse_formula", counting)
    wb, _ = load_doc({"S": {
        **{f"A{r}": float(r) for r in range(1, 11)},
        **{f"B{r}": f"=A{r}*2+$A$1" for r in range(1, 11)},
        **{f"C{r}": f"=A{r - 1}+1" for r in range(1, 11)},  # C1 reads row 0
        **{f"D{r}": f"=SUM(A$3:A{r})" for r in range(1, 11)},
    }})
    # B, C2..C10 and D are one shape each; C1 fails on its own text.
    assert sorted(calls) == sorted(["=A0+1", "=A1+1", "=A1*2+$A$1", "=SUM(A$3:A1)"])
    b = [wb.cell(f"S!B{r}") for r in range(1, 11)]
    assert len({id(c.shape) for c in b}) == 1
    # The flipping range keys each cell; the others share one shift key.
    d = [wb.cell(f"S!D{r}") for r in range(1, 11)]
    assert d[0].shape.shift_key is None and b[0].shape.shift_key is not None
    assert _shift_keys(d) == ["SUM(c[-3]r[0]:c[-3]R3)"] * 2 + ["SUM(c[-3]R3:c[-3]r[0])"] * 8


def test_a_load_cuts_each_skeleton_once(monkeypatch):
    # A shape reads its references' parts from the key the load cut, so
    # the text is cut once per skeleton, not again for each shape.
    calls = []
    real = formula_module._scan_spans

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(formula_module, "_scan_spans", counting)
    wb, _ = load_doc({"S": {"A1": 1.0, "B1": "=A1*2", "B2": "=A1*3", "B3": "=A1*4"}})
    assert len({id(c.shape) for c in wb.formula_cells()}) == 3
    assert calls == ["=A1*2"]
    # Chains whose constants keep every text its own shape, and IFs over
    # their ends, as in the if_scan benchmark workload.
    calls.clear()
    cells: dict[str, object] = {"A1": 1.0, "B1": 2.0}
    for r in range(2, 151):
        cells[f"A{r}"] = f"=A{r - 1}+{r % 9 + 1}"
        cells[f"B{r}"] = f"=B{r - 1}+{(r + 4) % 9 + 1}"
    for r in range(1, 31):
        cells[f"D{r}"] = f"=IF(A150>B150, A150-{r * 3}, B150+{r * 3})"
    cells["F1"] = "=SUM(D1:D30)"
    wb, texts = load_doc({"S": cells})
    skeletons = {text.translate(_SKELETON) for text in texts.values()}
    assert len(calls) == len(skeletons) == 6
    assert len({id(c.shape) for c in wb.formula_cells()}) > 30


def test_a_grouped_load_parses_once_per_template_and_scans_once_per_skeleton(monkeypatch):
    # The load keys a sheet's texts a skeleton group at a time, so on a
    # copy-heavy document it scans each skeleton once, and parses the first
    # text of each template once plus each text that fails (W001) once:
    # texts that differ only in numbers and in column letters and row
    # digits share one parse.
    parsed, scanned = [], []
    parse, scan = workbook_module.parse_formula, formula_module._scan_spans
    monkeypatch.setattr(workbook_module, "parse_formula",
                        lambda text: parsed.append(text) or parse(text))
    monkeypatch.setattr(formula_module, "_scan_spans",
                        lambda text: scanned.append(text) or scan(text))
    cells: dict[str, object] = {f"A{r}": float(r) for r in range(1, 301)}
    for r in range(1, 301):
        cells[f"B{r}"] = f"=A{r}*2+$A$1"
        cells[f"C{r}"] = f"=IF(B{r}>0,B{r}+1,B{r}-1)"
        cells[f"D{r}"] = f"=SUM(A$1:A{r})"
    # Row 0 and past XFD beside keyed texts of their skeletons; two copies
    # of a text that fails to parse; and one shape in two skeleton groups.
    cells.update({"E1": "=A0+1", "E2": "=A1+1", "E3": "=XFF3+1", "E4": "=ABC4+1",
                  "E5": "=1+", "E6": "=1+", "F9": "=A9+1", "F10": "=A10+1"})
    sheets = {"S": cells, "T": {f"B{r}": f"=A{r}*2+$A$1" for r in range(1, 50)}}
    wb, texts = load_doc(sheets)
    shapes = {id(c.shape) for c in wb.formula_cells()}
    assert [w.address for w in wb.warnings] == ["S!E1", "S!E3", "S!E5", "S!E6"]
    # "=A1+1", "=ABC4+1" and "=A9+1" are three shapes of one template.
    assert len(shapes) == 6
    assert len(parsed) == 4 + len(wb.warnings) == 4 + 4
    assert sorted(parsed) == sorted(["=A1*2+$A$1", "=IF(B1>0,B1+1,B1-1)", "=SUM(A$1:A1)",
                                     "=A1+1", "=A0+1", "=XFF3+1", "=1+", "=1+"])
    assert wb.cell("S!F10").shape is wb.cell("S!F9").shape
    assert wb.cell("T!B7").shape is wb.cell("S!B1").shape
    skeletons = {text.translate(_SKELETON) for text in texts.values()}
    assert len(scanned) == len(skeletons) == 3 * 3 + 4


def test_cells_compare_and_print_without_an_ast(monkeypatch):
    long_sum = "+".join(["A1"] * 2000)
    sheets = {"S": {"A1": 1.0, "B1": "=" + long_sum, "B2": "=" + long_sum.replace("A1", "A2")}}
    first, _ = load_doc(sheets)
    second, _ = load_doc(sheets)

    def no_ast(*args):
        raise AssertionError("a formula was parsed")

    monkeypatch.setattr(workbook_module, "parse_formula", no_ast)
    b2 = first.cell("S!B2")
    assert b2.shape is first.cell("S!B1").shape  # a copy of B1's shape
    assert b2 == second.cell("S!B2") and hash(b2) == hash(second.cell("S!B2"))
    assert b2 != first.cell("S!B1")
    assert repr(b2) == (f"Cell(address={b2.address!r}, value=None, "
                        f"source={b2.source!r})")
    monkeypatch.undo()
    # The 2,000-level AST prints on an explicit stack.
    assert repr(b2.ast).count("CellRefNode(") == 2000


def test_shapes_are_per_load():
    sheets = {"S": {"A1": 1.0, "B1": "=A1+1", "B2": "=A2+1"}}
    first, _ = load_doc(sheets)
    second, _ = load_doc(sheets)
    assert first.cell("S!B2").shape is not second.cell("S!B2").shape
    assert first.cell("S!B2").shape is first.cell("S!B1").shape


# --- random copied formulas ----------------------------------------------------

_SHEETS = (None, "Data", "'My Data'", "'my data'")
_CONSTANTS = ("1", "1E5", "2.5", "0.5e-2", '"A1"', '"c[0]r[0]"', '""""', "TRUE", "LOG10(4)")
_OPS = ("+", "-", "*", "&", ">", "<=", "<>")


@st.composite
def ref_spec(draw):
    return (draw(st.booleans()), draw(st.integers(-3, 3)), draw(st.integers(1, 30)),
            draw(st.booleans()), draw(st.integers(-1, 2)), draw(st.integers(1, 9)))


@st.composite
def atom(draw):
    kind = draw(st.sampled_from(("ref", "range", "const")))
    if kind == "const":
        return ("const", draw(st.sampled_from(_CONSTANTS)))
    sheet = draw(st.sampled_from(_SHEETS))
    ends = [draw(ref_spec())] if kind == "ref" else [draw(ref_spec()), draw(ref_spec())]
    return (kind, sheet, ends)


@st.composite
def template(draw):
    atoms = draw(st.lists(atom(), min_size=1, max_size=5))
    ops = [draw(st.sampled_from(_OPS)) for _ in atoms[1:]]
    wrap = draw(st.sampled_from((None, "SUM", "IF", "LOG10", "-")))
    return atoms, ops, wrap


def render_ref(spec, column: int, row: int) -> str:
    col_abs, dc, col, row_abs, dr, abs_row = spec
    c = col if col_abs else column + dc
    r = abs_row if row_abs else row + dr
    return f"{'$' if col_abs else ''}{column_to_letters(c)}{'$' if row_abs else ''}{r}"


def render(tmpl, column: int, row: int) -> str:
    atoms, ops, wrap = tmpl
    parts = []
    for a in atoms:
        if a[0] == "const":
            parts.append(a[1])
            continue
        _, sheet, ends = a
        text = ":".join(render_ref(e, column, row) for e in ends)
        parts.append(f"{sheet}!{text}" if sheet else text)
    body = parts[0] + "".join(op + p for op, p in zip(ops, parts[1:]))
    if wrap == "-":
        return "=-(" + body + ")"
    return f"={wrap}({body})" if wrap else "=" + body


@settings(max_examples=60, deadline=None)
@given(st.lists(template(), min_size=1, max_size=4))
def test_random_copies_match_their_own_parse(templates):
    # Each template is copied over columns X..AC (across Z -> AA) and rows
    # 1..4; relative offsets reach row 0 on row 1.
    cells: dict[str, object] = {}
    for i, tmpl in enumerate(templates):
        for c in range(24, 30):
            for r in range(1, 5):
                cells[f"{column_to_letters(c)}{r + 5 * i}"] = render(tmpl, c, r + 5 * i)
    wb, texts = load_doc({"Data": {"A1": 1.0}, "My Data": {"B2": 2.0}, "S": cells})
    assert_matches_own_parse(wb, texts)


# --- one template, many fillings ---------------------------------------------------

# A template's holes, each filled from its own pool: a number ("n"), a
# reference's sheet ("s"), column letters ("c") and row digits ("r"). Sheet
# names stay in a template key, so texts that differ in them are parsed
# apart; letters and digits past XFD, row 0 and number spellings go into
# the others.
_FILLS = {
    "n": ("0", "7", "25", "2.5", ".5", "3.", "1e5", "1E5", "1e-3", "10E+2", "9" * 25),
    "s": ("S", "T", "'S'", "s", "'My Data'", "U"),
    "c": ("A", "B", "e", "E", "Z", "AA", "xfd", "XFD", "XFE"),
    "r": ("0", "1", "2", "10", "999", "1048576"),
}
# Template atoms with holes in braces: ranges on one sheet or two, the
# end's own sheet, "$" markers, names that hold digits, a string holding the
# character a template marks its numbers with by default, a number against
# letters, and a dangling operator.
_HOLEY_ATOMS = ("{n}", "{c}{r}", "${c}${r}", "{s}!{c}{r}", "{c}{r}:{c}${r}",
                "{s}!{c}{r}:{c}{r}", "{s}!{c}{r}:{s}!{c}{r}", "LOG10({c}{r})", "LOG10({n})",
                '"{c}{r}"&{c}{r}', '"\uffff"&{n}', "{n}%", "-{n}", "{n}{c}{r}", "{n}+")
_TEMPLATE_OPS = ("+", "*", "^", "&", "<=", ",")


@st.composite
def template_fillings(draw):
    """Texts of one template shape, each with its holes filled afresh."""
    atoms = draw(st.lists(st.sampled_from(_HOLEY_ATOMS), min_size=1, max_size=4))
    ops = [draw(st.sampled_from(_TEMPLATE_OPS)) for _ in atoms[1:]]
    body = atoms[0] + "".join(op + atom for op, atom in zip(ops, atoms[1:]))
    form = "=" + draw(st.sampled_from(("{}", "SUM({})", "IF({})", "-({})"))).format(body)
    texts = []
    for _ in range(draw(st.integers(2, 8))):
        texts.append(re.sub(r"\{(\w)\}", lambda m: draw(st.sampled_from(_FILLS[m[1]])), form))
    return texts


@example(["=SUM(S!A1:T!B2)", "=SUM(S!A1:S!B2)"])
@example(["=SUM(S!A1:S!B2)", "=SUM(S!A1:T!B2)", "=SUM(S!C3:S!D4)", "=SUM(S!C3:T!D4)"])
@example(["=1+", "=1+", "=2+", "=1+"])
@example(["=LOG10(A1)+1", "=LOG10(4)+1", "=LOG10(A2)+25", "=LOG11(A3)+7"])
@example(["=A1*1e5", "=A2*1E5", "=A3*1A5", "=B1*1E5+E5"])
@example(["=A1+1", "=A0+1", "=B2+2", "=XFE3+1", "=C3+3", "=XFD4+4"])
@example(["=A1+1", "=3..5+1"])  # alike but for the kinds of their holes
# A string holding the default number mark U+FFFF, then also U+0080, the
# first mark tried after it, beside numbers.
@example(['="\uffff"&1+A1', '="\uffff"&2.5+B2', '="\uffff"&1E5*C3'])
@example(['=LEN("\uffff\x80")+7+A1', '=LEN("\uffff\x80")+.5+B2', '=LEN("\uffff\x80")+3.+A9'])
@settings(max_examples=150, deadline=None)
@given(template_fillings())
def test_a_template_shapes_its_texts_as_their_own_parses(texts):
    # Texts of one template share a parse: each loaded shape equals the
    # oracle's shape of the text's own parse in every field, and a text
    # gets a W001, with its own message, exactly when its own parse fails.
    cells = {f"{column_to_letters(2 + k % 3)}{1 + k // 3}": text for k, text in enumerate(texts)}
    wb, _ = load_doc({"S": cells, "T": {"A1": 1.0}, "My Data": {"A1": 2.0}})
    sheet, expected = wb.sheet("S"), []
    for ref, text in cells.items():
        at = parse_cell_address(ref)
        cell = sheet.cell(at.column, at.row)
        try:
            ast = parse_formula(text)
        except FormulaSyntaxError as exc:
            expected.append((f"S!{ref}", str(exc)))
            assert not cell.is_formula and cell.value == text
            continue
        want = OracleShape(ast, at.column, at.row)
        for name in FormulaShape.__slots__:
            assert getattr(cell.shape, name) == getattr(want, name), (name, text)
    assert sorted((w.address, w.message) for w in wb.warnings
                  if w.code == W_FORMULA_ERROR) == sorted(expected)


# --- the audit works on shapes and node ids ---------------------------------------


def test_audit_builds_no_ast_and_looks_up_only_terminals(monkeypatch):
    # The load parses each template once and the audit parses nothing: each
    # copy is its shape and its cell, even where a range mixing anchors makes
    # range linkage key each cell on its own. After the graph is built every
    # stage passes node ids: the only address lookups left are the cascade
    # stages' one per bottom-line cell.
    from cellgauge import analyze_workbook
    from cellgauge.graph import CellGraph
    from test_acceptance import generate_large_workbook_doc

    calls = {"parse_formula": 0, "_idx": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(workbook_module, "parse_formula")
    counting(CellGraph, "_idx")
    doc = generate_large_workbook_doc()
    # A$3:A{r} copied across row 3, where normalization swaps its ends.
    doc["sheets"].append({"name": "Flip", "cells": [
        *({"ref": f"A{r}", "value": float(r)} for r in range(1, 11)),
        *({"ref": f"C{r}", "formula": f"=SUM(A$3:A{r})"} for r in range(1, 11)),
    ]})
    wb = load_workbook_doc(doc)
    shapes = {id(c.shape): c.shape for c in wb.formula_cells()}
    assert len(shapes) == 207 and not wb.warnings
    # Nine templates, their sheet names as written, and the flip's one.
    assert calls["parse_formula"] == 10
    flip = wb.sheet("Flip")
    assert flip.cell(3, 1).shape.shift_key is None
    report = analyze_workbook(wb)
    assert calls["parse_formula"] == 10
    assert len(report.cascades) == 910
    assert calls["_idx"] <= len(report.cascades)
    # A copy is a formula cell its shape was not built from.
    assert sum(1 for _ in wb.formula_cells()) - len(shapes) == 8053
    # The flip splits the copies into two runs, one per shift key.
    flip_runs = sorted(f.target_range.render() for f in report.range_findings
                       if f.target_range.start.sheet == "Flip")
    assert flip_runs == ["Flip!C1:C2", "Flip!C3:C10"]
