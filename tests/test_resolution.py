"""Oracle tests for the one reference resolution.

The dependency graph is the only code that maps a reference to cells;
conditional discovery and range linkage read each reference's targets from
it. The reference-arc builder and range linkage that resolved references on
their own are kept below verbatim as reference implementations: the graph
must hold the same arcs (as its precedent lists and node order) and dangling
references, and range linkage must give the same findings. Conditional
discovery is checked against the independent naive scan of
``test_conditionals``. Both run on the oracle fixtures and on seeded random
multi-sheet workbooks with copied runs, missing-sheet references,
cross-sheet ranges and duplicate references.
"""

import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import pytest

from cellgauge import graph, metrics
from cellgauge.formula import AstNode, CellRefNode, FormulaAst, RangeRefNode, walk
from cellgauge.graph import DanglingReference
from cellgauge.metrics import RangeLinkageFinding
from cellgauge.refs import CellRef, RangeRef
from cellgauge.report import analyze_workbook
from cellgauge.workbook import Cell, Workbook

from conftest import make_graph, make_workbook
from test_conditionals import (
    ORACLE_FIXTURES,
    _sheet_prefix,
    assert_matches_naive,
    random_conditional_workbook,
)
from test_copy_classes import _populated_extent


# --- reference implementations, verbatim ------------------------------------------


@dataclass(frozen=True)
class ResolvedReference:
    """One single-cell reference arc from a formula cell to a precedent."""

    from_cell: CellRef
    to_cell: CellRef
    via_range: bool
    ref_style: str  # "absolute" | "relative" | "mixed"


def _style_of(flags: list[bool]) -> str:
    if all(flags):
        return "absolute"
    if not any(flags):
        return "relative"
    return "mixed"


def _resolve_all(wb: Workbook) -> tuple[list[ResolvedReference], list[DanglingReference]]:
    resolved: list[ResolvedReference] = []
    dangling: list[DanglingReference] = []
    for cell in wb.formula_cells():
        own_sheet = cell.address.sheet
        for node in walk(cell.ast.root):
            if isinstance(node, CellRefNode):
                targets = [node.ref]
                via_range = False
                style = _style_of([node.ref.col_absolute, node.ref.row_absolute])
                text = node.ref.render()
            elif isinstance(node, RangeRefNode):
                targets = list(node.ref.cells())
                via_range = True
                style = _style_of([
                    node.ref.start.col_absolute, node.ref.start.row_absolute,
                    node.ref.end.col_absolute, node.ref.end.row_absolute,
                ])
                text = node.ref.render()
            else:
                continue
            sheet_name = targets[0].sheet or own_sheet
            sheet = wb.sheet(sheet_name)
            if sheet is None:
                dangling.append(DanglingReference(cell.address, text, sheet_name))
                continue
            for t in targets:
                resolved.append(ResolvedReference(
                    from_cell=cell.address,
                    to_cell=CellRef(sheet.name, t.column, t.row),
                    via_range=via_range,
                    ref_style=style,
                ))
    return resolved, dangling


def _shift_keys(cells: list[Cell]) -> list[Optional[str]]:
    """Each formula cell's shift key (``FormulaShape.shift_key_at``); None
    for a data cell."""
    return [
        None if c.shape is None
        else c.shape.shift_key_at(c.address.column, c.address.row)
        for c in cells
    ]


def _runs_along(cells: list[Cell], fixed: str,
                keys: Optional[list[Optional[str]]] = None) -> list[list[int]]:
    """Maximal runs of >= 2 consecutive shift-equivalent formula cells, each
    as the positions of its cells in ``cells``; data cells join no run.

    ``fixed`` is the constant axis: "column" groups vertical runs, "row"
    groups horizontal ones. ``keys[i]`` is the shift key of ``cells[i]``;
    it is computed here when not given.
    """
    if keys is None:
        keys = _shift_keys(cells)
    groups: dict[tuple, list[tuple[int, str, int]]] = {}
    for i, (cell, key_text) in enumerate(zip(cells, keys)):
        if key_text is None:
            continue
        a = cell.address
        if fixed == "column":
            group, pos = (a.sheet, a.column), a.row
        else:
            group, pos = (a.sheet, a.row), a.column
        groups.setdefault(group, []).append((pos, key_text, i))
    runs = []
    for entries in groups.values():
        entries.sort(key=lambda e: e[0])
        run: list[tuple[int, str, int]] = []
        for entry in entries:
            if run and (entry[0] != run[-1][0] + 1 or entry[1] != run[-1][1]):
                if len(run) >= 2:
                    runs.append([e[2] for e in run])
                run = []
            run.append(entry)
        if len(run) >= 2:
            runs.append([e[2] for e in run])
    return runs


def _ref_nodes(ast: FormulaAst) -> list[AstNode]:
    return [
        n for n in walk(ast.root) if isinstance(n, (CellRefNode, RangeRefNode))
    ]


def _touched(node: AstNode, own_sheet: str, wb: Workbook) -> Optional[list[CellRef]]:
    """Cells a reference node reads, or None when the sheet does not exist."""
    if isinstance(node, CellRefNode):
        refs = [node.ref]
    else:
        refs = list(node.ref.cells())
    sheet_name = refs[0].sheet or own_sheet
    sheet = wb.sheet(sheet_name)
    if sheet is None:
        return None
    return [CellRef(sheet.name, r.column, r.row) for r in refs]


def check_range_linkage(wb: Workbook) -> list[RangeLinkageFinding]:
    """Audit copied-formula runs against their source regions.

    Detects maximal vertical and horizontal runs of shift-equivalent
    formulas; for every reference position shared by the run's formulas it
    compares the populated source extent against the expected one
    (``s`` for absolute references, run length + ``s`` - 1 for relative).
    """
    findings: list[RangeLinkageFinding] = []
    formula_cells = list(wb.formula_cells())
    for vertical in (True, False):
        runs = [[formula_cells[p] for p in run]
                for run in _runs_along(formula_cells, "column" if vertical else "row")]
        for run in runs:
            first, last = run[0].address, run[-1].address
            target = RangeRef(
                CellRef(first.sheet, first.column, first.row),
                CellRef(last.sheet, last.column, last.row),
            )
            slots = len(_ref_nodes(run[0].ast))
            for slot in range(slots):
                touched_sets = []
                for cell in run:
                    node = _ref_nodes(cell.ast)[slot]
                    touched = _touched(node, cell.address.sheet, wb)
                    if touched is None:
                        break
                    touched_sets.append(touched)
                if len(touched_sets) != len(run):
                    continue
                s = len(touched_sets[0])
                axis_ok = all(
                    len({c.column for c in ts} if vertical else {c.row for c in ts}) == 1
                    for ts in touched_sets
                )
                if not axis_ok:
                    continue
                keys = [frozenset(c.key() for c in ts) for ts in touched_sets]
                style = "absolute" if all(k == keys[0] for k in keys) else "relative"
                expected = s if style == "absolute" else len(run) + s - 1
                union: dict[tuple, CellRef] = {}
                for ts in touched_sets:
                    for c in ts:
                        union.setdefault(c.key(), c)
                actual, bounds = _populated_extent(wb, list(union.values()), vertical)
                if bounds is None:
                    cells = sorted(union.values(), key=lambda c: (c.row, c.column))
                    bounds = RangeRef(cells[0], cells[-1])
                findings.append(RangeLinkageFinding(
                    source_range=bounds,
                    target_range=target,
                    s=s,
                    ref_style=style,
                    expected_extent=expected,
                    actual_extent=actual,
                    verdict="ok" if expected == actual else "violation",
                ))
    return findings


# --- random workbooks with copied-formula runs -------------------------------------

MISSING_PREFIXES = ("Nope!", "'No Such'!")
COLUMN_LETTERS = "ABCDEFGHIJKL"


def _part(col, row, col_abs, row_abs, dc, dr):
    """A1 text of one reference part, its relative parts shifted by (dc, dr)."""
    col = col if col_abs else col + dc
    row = row if row_abs else row + dr
    return f"{'$' if col_abs else ''}{COLUMN_LETTERS[col - 1]}{'$' if row_abs else ''}{row}"


def _random_slot(rng, names, rows, shapes):
    """One reference of a run template: (prefix, corners) with corners
    [(column, row, column absolute, row absolute)], one per range end."""
    roll = rng.random()
    if roll < 0.07:
        prefix = rng.choice(MISSING_PREFIXES)
        shapes["missing_sheet_slot"] += 1
    elif roll < 0.4:
        name = rng.choice(names)
        prefix = _sheet_prefix(rng, name)
        shapes["cross_sheet_random_case"] += prefix.strip("'!") != name
    else:
        prefix = ""
    flags = rng.choice([(False, False), (True, True), (True, False), (False, True)])
    corners = [(rng.randint(1, 3), rng.randint(1, rows + 2)) + flags]
    if rng.random() < 0.4:
        c2, r2 = rng.randint(corners[0][0], 3), corners[0][1] + rng.randint(0, 2)
        end_flags = flags if rng.random() < 0.7 else rng.choice(
            [(False, False), (True, True), (True, False), (False, True)])
        corners.append((c2, r2) + end_flags)
        if prefix and prefix not in MISSING_PREFIXES:
            shapes["cross_sheet_range"] += 1
    shapes["absolute_or_mixed_slot"] += any(c[2] or c[3] for c in corners)
    return prefix, corners


def _render_slot(slot, dc, dr):
    prefix, corners = slot
    text = prefix + ":".join(_part(*c, dc, dr) for c in corners)
    return f"SUM({text})" if len(corners) == 2 else text


def _render_template(form, slots, dc, dr):
    texts = [_render_slot(s, dc, dr) for s in slots]
    if form == "if":
        return f"=IF({texts[0]}>2,{texts[1]},{'+'.join(texts[2:]) or '0'})"
    return "=" + "+".join(texts)


def random_run_workbook(seed, shapes):
    """``random_conditional_workbook`` plus copied-formula runs.

    Columns A-C hold that workbook's acyclic cells. Vertical runs in columns
    E-G and horizontal runs on rows 12-13 copy a template of 2-4 reference
    slots; each template slot reads columns A-C of any sheet (or names a
    missing sheet), so a relative column always points left of the formula
    and the workbook stays acyclic.
    """
    rng = random.Random(seed)
    sheets = random_conditional_workbook(seed)
    sheets.pop("Chains", None)  # long plain chains add no reference shape
    names = list(sheets)
    rows = 6
    for name in names:
        cells = sheets[name]
        for r in range(1, rows + 3):  # data beyond the formulas, for extents
            for c in "ABC":
                if f"{c}{r}" not in cells and rng.random() < 0.3:
                    cells[f"{c}{r}"] = rng.randint(1, 9)
        runs = [("v", col, rng.randint(1, 3)) for col in (5, 6, 7) if rng.random() < 0.8]
        runs += [("h", 5, row) for row in (12, 13) if rng.random() < 0.6]
        for direction, col, row in runs:
            slots = [_random_slot(rng, names, rows, shapes) for _ in range(rng.randint(2, 4))]
            if rng.random() < 0.3:
                slots.append(rng.choice(slots))
                shapes["duplicate_slot"] += 1
            form = rng.choice(["sum", "if"])
            length = rng.randint(2, 5)
            shapes["runs"] += 1
            for i in range(length):
                dc, dr = (0, i) if direction == "v" else (i, 0)
                cells[f"{COLUMN_LETTERS[col + dc - 1]}{row + dr}"] = _render_template(
                    form, slots, dc, dr)
    return sheets


# --- the oracle ----------------------------------------------------------------------


def assert_graph_matches_arcs(wb, g, arcs, dangling, label):
    """The graph holds exactly the reference arcs: each formula's precedents
    in reference order, populated cells as nodes in ``iter_cells`` order and
    then empty targets in first-reference order, and the same dangling
    references."""
    by_cell: dict[CellRef, list[CellRef]] = {}
    for a in arcs:
        by_cell.setdefault(a.from_cell, []).append(a.to_cell)
    for cell in wb.formula_cells():
        assert g.precedents(cell.address) == by_cell.pop(cell.address, []), label
    assert not by_cell, label
    nodes = [c.address for c in wb.iter_cells()]
    populated = {a.key() for a in nodes}
    for a in arcs:
        if a.to_cell.key() not in populated:
            populated.add(a.to_cell.key())
            nodes.append(a.to_cell)
    assert g.nodes() == nodes, label
    assert g.edge_count == len(arcs), label
    assert g.dangling == dangling, label


def assert_resolution_matches(wb, g, label):
    """Today's results against the reference ones; returns the arcs, the
    dangling references, the findings and the constructs."""
    arcs, dangling = _resolve_all(wb)
    assert_graph_matches_arcs(wb, g, arcs, dangling, label)
    findings = check_range_linkage(wb)
    assert metrics.check_range_linkage(g) == findings, label
    constructs = assert_matches_naive(wb, g, label)
    return arcs, dangling, findings, constructs


@pytest.mark.parametrize("cells", ORACLE_FIXTURES)
def test_resolution_matches_reference_on_fixtures(cells):
    wb, g = make_graph({"S": cells})
    assert_resolution_matches(wb, g, cells)


def test_resolution_matches_reference_on_random_workbooks():
    shapes = Counter()
    seen = Counter()
    for seed in range(200):
        wb, g = make_graph(random_run_workbook(seed, shapes))
        assert not g.is_cyclic, seed
        arcs, dangling, findings, constructs = assert_resolution_matches(wb, g, seed)
        per_run = Counter(f.target_range for f in findings)
        seen["constructs"] += len(constructs)
        seen["multi_slot_runs"] += sum(1 for n in per_run.values() if n >= 2)
        seen["findings_ok"] += sum(f.verdict == "ok" for f in findings)
        seen["findings_violation"] += sum(f.verdict == "violation" for f in findings)
        seen["findings_absolute"] += sum(f.ref_style == "absolute" for f in findings)
        seen["findings_relative"] += sum(f.ref_style == "relative" for f in findings)
        dangling_cells = {d.from_cell.key() for d in dangling}
        seen["runs_with_dangling_slot"] += sum(
            any(CellRef(t.start.sheet, c, r).key() in dangling_cells
                for r in range(t.start.row, t.end.row + 1)
                for c in range(t.start.column, t.end.column + 1))
            for t in per_run)
        seen["cross_sheet_range_arcs"] += sum(
            a.via_range and a.from_cell.sheet != a.to_cell.sheet for a in arcs)
        seen["absolute_arcs"] += sum(a.ref_style == "absolute" for a in arcs)
        seen["mixed_arcs"] += sum(a.ref_style == "mixed" for a in arcs)
        seen["duplicate_arcs"] += sum(
            n - 1 for n in Counter((a.from_cell, a.to_cell) for a in arcs).values())
    # Every shape the layer must agree on shows up, many times over.
    for shape in ("runs", "missing_sheet_slot", "cross_sheet_range",
                  "cross_sheet_random_case", "absolute_or_mixed_slot", "duplicate_slot"):
        assert shapes[shape] > 50, shapes
    assert min(seen.values()) > 50, seen


def test_each_reference_is_resolved_once_per_audit(monkeypatch):
    # Conditional discovery and range linkage read what the graph resolved,
    # so an audit resolves every reference node exactly once: it builds one
    # graph, which keeps one end of targets per reference.
    wb = make_workbook({
        "In": {"A1": 1, "A2": 2, "A3": 3, "B1": "=IF(A1>0,A2,A3)"},
        "Calc": {
            **{f"A{r}": f"=IF(A{r - 1}>0,A{r - 1},In!B1)" for r in range(2, 8)},
            "A1": "=IF(In!A1>1,In!B1,0)",
            **{f"B{r}": f"=SUM(In!$A$1:$A$3)+A{r}+Nope!C{r}" for r in range(1, 6)},
            "C1": "=IF(A7>0,SUM(B1:B5),'No Such'!A1:B2)",
        },
    })
    references = sum(
        isinstance(node, (CellRefNode, RangeRefNode))
        for cell in wb.formula_cells() for node in walk(cell.ast.root))
    graphs = []
    init = graph.CellGraph.__init__

    def recording_init(self, *args, **kwargs):
        graphs.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(graph.CellGraph, "__init__", recording_init)
    report = analyze_workbook(wb)
    assert len(graphs) == 1
    assert sum(map(len, graphs[0].reference_columns()[1])) == references == 41
    assert report.range_findings and report.cascades
    assert any(c.conditionals for c in report.cascades)
    assert {w.code for w in report.warnings} >= {"W002", "W005", "W006"}
