"""Per-copy-class work against the per-copy computation it replaces.

Copies of one formula share a shape, and the audit does some of its work
once per copy class: cell metrics once per (shape, sheet) for a shape whose
references are all relative, and range linkage once per run, from the run's
first and last copies, mixed-anchor runs (``A$3:A1``) included. The
properties here check, on random workbooks, that each class-level result
equals what the per-copy computation gives: ``oracle_formula_metrics``,
cell metrics as they were computed one precedent address at a time, on
every cell under each dispersion mode, and ``oracle_check_range_linkage``,
the range-linkage check as it was when it read every copy's targets, with
its populated-extent helper ``_populated_extent`` and the block walk
``_block_through`` that helper calls kept verbatim.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from hypothesis import example, given
from hypothesis import strategies as st

from cellgauge.graph import CellGraph, build_graph
from cellgauge.metrics import (
    DISPERSION_MODES,
    CellMetrics,
    DispersionConfig,
    RangeLinkageFinding,
    check_range_linkage,
    formula_metrics,
)
from cellgauge.refs import CellRef, RangeRef, column_to_letters
from cellgauge.report import AnalysisConfig, _cell_metrics, analyze_workbook, emit_report
from cellgauge.workbook import Cell, Workbook, load_workbook_doc
from conftest import count_builds
from range_linkage_oracle import _copied_runs


def _block_through(
    wb: Workbook, sheet: str, vertical: bool, line: int, pos: int,
    blocks: dict[tuple, tuple[int, int]],
) -> tuple[int, RangeRef]:
    """Size and bounds of the block of populated cells, contiguous along
    ``line`` (a column when ``vertical``, else a row), that holds the
    populated cell at position ``pos`` of that line.

    ``blocks`` keeps the bounds of every block walked, by (sheet, axis,
    line, position), so calls that share it walk each cell at most once per
    axis.
    """
    found = blocks.get((sheet, vertical, line, pos))
    if found is None:
        index = wb.sheet(sheet).index
        if vertical:
            def populated(p: int) -> bool:
                return (p, line) in index
        else:
            def populated(p: int) -> bool:
                return (line, p) in index
        lo = hi = pos
        while lo > 1 and populated(lo - 1):
            lo -= 1
        while populated(hi + 1):
            hi += 1
        found = (lo, hi)
        for p in range(lo, hi + 1):
            blocks[(sheet, vertical, line, p)] = found
    lo, hi = found
    if vertical:
        bounds = RangeRef(CellRef(sheet, line, lo), CellRef(sheet, line, hi))
    else:
        bounds = RangeRef(CellRef(sheet, lo, line), CellRef(sheet, hi, line))
    return hi - lo + 1, bounds


def _populated_extent(
    wb: Workbook, union: list[CellRef], vertical: bool,
    blocks: Optional[dict[tuple, tuple[int, int]]] = None,
) -> tuple[int, Optional[RangeRef]]:
    """Size and bounds of the contiguous populated source run.

    Anchored at the first (top-most/left-most) referenced cell that is
    populated; 0 when no referenced cell is populated. ``blocks`` is as for
    :func:`_block_through`.
    """
    union = sorted(union, key=lambda c: (c.row, c.column) if vertical else (c.column, c.row))
    anchor = next((c for c in union if wb.cell(c) is not None), None)
    if anchor is None:
        return 0, None
    line, pos = (anchor.column, anchor.row) if vertical else (anchor.row, anchor.column)
    return _block_through(wb, anchor.sheet, vertical, line, pos,
                          {} if blocks is None else blocks)


def oracle_check_range_linkage(wb: Workbook, g: CellGraph) -> list[RangeLinkageFinding]:
    """Audit copied-formula runs against their source regions.

    Detects maximal vertical and horizontal runs of shift-equivalent
    formulas; for every reference position shared by the run's formulas it
    compares the populated source extent against the expected one
    (``s`` for absolute references, run length + ``s`` - 1 for relative).
    What each reference reads comes from ``g``, the graph of ``wb``; a
    position where some formula names a missing sheet is skipped. Runs are
    found over the graph's formula cells, so each run is a list of node ids.
    """
    findings: list[RangeLinkageFinding] = []
    addr = g.address_of
    blocks: dict[tuple, tuple[int, int]] = {}
    for vertical, runs in zip((True, False), _copied_runs(g)):
        for run in runs:
            target = RangeRef(addr(run[0]), addr(run[-1]))
            resolved = [g.reference_targets(i) for i in run]
            for touched_sets in zip(*resolved):
                if not all(touched_sets):  # a reference to a missing sheet
                    continue
                s = len(touched_sets[0])
                axis_ok = all(
                    len({addr(i).column for i in ts} if vertical
                        else {addr(i).row for i in ts}) == 1
                    for ts in touched_sets
                )
                if not axis_ok:
                    continue
                # A node id stands for one cell, so id sets compare cell sets.
                keys = [frozenset(ts) for ts in touched_sets]
                style = "absolute" if all(k == keys[0] for k in keys) else "relative"
                expected = s if style == "absolute" else len(run) + s - 1
                union = [addr(i) for i in dict.fromkeys(i for ts in touched_sets for i in ts)]
                actual, bounds = _populated_extent(wb, union, vertical, blocks)
                if bounds is None:
                    cells = sorted(union, key=lambda c: (c.row, c.column))
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


# --- Random copied formulas --------------------------------------------------
#
# Data fills columns 1-10 and rows 1-22 of every sheet at random (some
# cells stay empty); formulas sit at column 12 or right of it and row 5 or
# below, so a relative column part of -11..4 and row part of -4..4 always
# name a real cell. A template is a list of references, each a sheet prefix
# and one or two corners; a corner part is absolute or relative (an offset
# from the copy), and an absolute part of the same draw names column 1..16
# or row 1..9.

HOSTS = ("S1", "S2", "S3")
PREFIXES = ("", "", "S1!", "s2!", "Data!", "Nope!")

corner = st.tuples(  # (absolute, value) of the column part and of the row part
    st.tuples(st.booleans(), st.integers(-11, 4)), st.tuples(st.booleans(), st.integers(-4, 4)))
reference = st.tuples(st.sampled_from(PREFIXES), st.lists(corner, min_size=1, max_size=2))
template = st.lists(reference, min_size=1, max_size=3)


def render(tpl, column: int, row: int) -> str:
    """A template's formula text as the copy in (column, row) reads."""
    terms = []
    for prefix, corners in tpl:
        text = ":".join(
            ("$" + column_to_letters(col + 12) if col_abs
             else column_to_letters(column + col))
            + (f"${rw + 5}" if row_abs else str(row + rw))
            for (col_abs, col), (row_abs, rw) in corners)
        terms.append(f"SUM({prefix}{text})" if len(corners) == 2 else prefix + text)
    return "=" + "+".join(terms)


@st.composite
def copied_docs(draw):
    """Workbook documents of blocks of copies of a few templates on several
    sheets, over half-filled data; a block is one template over a
    rectangle, so it holds vertical and horizontal runs."""
    cells: dict[str, dict[str, dict]] = {name: {} for name in HOSTS + ("Data",)}
    for name, sheet in cells.items():
        filled = draw(st.sets(st.tuples(st.integers(1, 10), st.integers(1, 22)), max_size=60))
        for c, r in filled:
            ref = f"{column_to_letters(c)}{r}"
            sheet[ref] = {"ref": ref, "value": float(c * r)}
    templates = draw(st.lists(template, min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 6))):
        tpl = templates[draw(st.integers(0, len(templates) - 1))]
        sheet = cells[draw(st.sampled_from(HOSTS))]
        width, height = draw(st.integers(1, 4)), draw(st.integers(1, 6))
        left, top = 12 + draw(st.integers(0, 8)), 5 + draw(st.integers(0, 12))
        for c in range(left, left + width):
            for r in range(top, top + height):
                ref = f"{column_to_letters(c)}{r}"
                sheet[ref] = {"ref": ref, "formula": render(tpl, c, r)}
    return {"sheets": [
        {"name": name, "cells": list(sheet.values())} for name, sheet in cells.items()]}


def copied_workbook():
    """The workbooks of ``copied_docs``."""
    return copied_docs().map(load_workbook_doc)


# --- Cell metrics as one formula at a time computed them, verbatim but for
# the names; the audit's records and ``formula_metrics`` must equal them,
# floats to the bit.


def oracle_dispersion(
    deltas: Sequence[tuple[int, int]], cfg: DispersionConfig = DispersionConfig()
) -> tuple[float, float]:
    """(DR, delta sum) for a formula's same-sheet reference deltas."""
    if cfg.mode == "product":
        delta = sum(abs(dx * dy) for dx, dy in deltas)
    elif cfg.mode == "manhattan":
        delta = sum(abs(dx) + abs(dy) for dx, dy in deltas)
    else:
        delta = sum(math.hypot(dx, dy) for dx, dy in deltas)
    dr = -math.expm1(-cfg.alpha * delta)
    # The score lives in [0, 1); keep that true when exp() underflows.
    return min(dr, math.nextafter(1.0, 0.0)), delta


def oracle_spans(deltas: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """(column span, row span): max positive minus max negative delta."""
    if not deltas:
        return 0, 0
    dxs = [dx for dx, _ in deltas]
    dys = [dy for _, dy in deltas]
    return (
        max(0, max(dxs)) - min(0, min(dxs)),
        max(0, max(dys)) - min(0, min(dys)),
    )


def oracle_formula_metrics(
    cell: Cell,
    precedents: Sequence[CellRef],
    cfg: DispersionConfig = DispersionConfig(),
) -> CellMetrics:
    """Size, structure, and reference-geometry metrics for one cell.

    Data cells yield the all-zero record. ``precedents`` must be the cell's
    own precedent addresses in reference order (ranges expanded, duplicates
    kept), as :meth:`CellGraph.precedents` gives them. A precedent on
    another sheet counts as cross-sheet; the rest give (column, row) deltas.
    Sizes, nesting and decisions come from the cell's shape.
    """
    if not cell.is_formula:
        return CellMetrics(address=cell.address)
    shape = cell.shape
    at = cell.address
    deltas = [(p.column - at.column, p.row - at.row)
              for p in precedents if p.sheet == at.sheet]
    cross_sheet = len(precedents) - len(deltas)
    dr, delta_sum = oracle_dispersion(deltas, cfg)
    col_span, row_span = oracle_spans(deltas)
    mixed = any(dx == 0 and dy != 0 for dx, dy in deltas) and any(
        dx != 0 and dy == 0 for dx, dy in deltas
    )
    return CellMetrics(
        address=cell.address,
        n_operators=shape.n_operators,
        n_operands=shape.n_operands,
        depth_of_nesting=shape.depth_of_nesting,
        avg_nesting_level=shape.avg_nesting_level,
        decision_count=shape.decision_count,
        n_references=len(precedents),
        dispersion=dr,
        delta_sum=delta_sum,
        col_span=col_span,
        row_span=row_span,
        cross_sheet_ref_count=cross_sheet,
        mixed_axis_flag=mixed,
        forward_ref_count=sum(1 for dx, dy in deltas if dx > 0 or dy > 0),
    )


@given(copied_workbook(), st.sampled_from(DISPERSION_MODES))
def test_cell_metrics_match_formula_metrics_on_every_cell(wb, mode):
    cfg = DispersionConfig(mode=mode)
    g = build_graph(wb)
    cells = list(wb.iter_cells())  # node i is cells[i]
    want = [oracle_formula_metrics(cells[i], g.precedents(i), cfg) for i in g.cell_ids()]
    assert [formula_metrics(cells[i], g.precedents(i), cfg) for i in g.cell_ids()] == want
    assert analyze_workbook(wb, AnalysisConfig(dispersion=cfg)).cells == want


# --- Ranges read as rectangles ------------------------------------------------
#
# The audit reads each reference from its two corners and sums its deltas
# in closed form. Formulas sit in C3:F8 of sheet S, inside the data area
# A1:H10 of S and Data, so a range can straddle the formula's own row or
# column (dx or dy crosses 0), or hold the formula itself. A reference may
# name its corners in either order and anchor each part, name its own sheet
# in another case, another sheet, or a missing one, or repeat an earlier
# reference.

RECT_PREFIXES = ("", "", "S!", "s!", "Data!", "DATA!", "Nope!")
rect_corner = st.tuples(st.booleans(), st.integers(1, 8), st.booleans(), st.integers(1, 10))


def _corner_text(corner) -> str:
    col_abs, col, row_abs, row = corner
    return f"{'$' if col_abs else ''}{column_to_letters(col)}{'$' if row_abs else ''}{row}"


@st.composite
def rectangle_workbook(draw):
    cells: dict[str, list[dict]] = {}
    for name in ("S", "Data"):
        filled = draw(st.sets(st.tuples(st.integers(1, 8), st.integers(1, 10)), max_size=40))
        cells[name] = [{"ref": f"{column_to_letters(c)}{r}", "value": float(c + r)}
                       for c, r in sorted(filled)
                       if not (name == "S" and 3 <= c <= 6 and 3 <= r <= 8)]
    at = draw(st.lists(st.tuples(st.integers(3, 6), st.integers(3, 8)), min_size=1,
                       max_size=4, unique=True))
    for c, r in at:
        terms: list[str] = []
        for _ in range(draw(st.integers(1, 4))):
            if terms and draw(st.integers(0, 4)) == 0:
                terms.append(draw(st.sampled_from(terms)))  # a repeated reference
                continue
            corners = draw(st.lists(rect_corner, min_size=1, max_size=2))
            terms.append(f"SUM({draw(st.sampled_from(RECT_PREFIXES))}"
                         f"{':'.join(map(_corner_text, corners))})")
        cells["S"].append({"ref": f"{column_to_letters(c)}{r}", "formula": "=" + "+".join(terms)})
    return load_workbook_doc({"sheets": [
        {"name": name, "cells": docs} for name, docs in cells.items()]})


@given(rectangle_workbook(), st.sampled_from(DISPERSION_MODES))
# D3 reads C3:E5 from its own row down: dx = 0 with dy != 0 only below it.
@example(load_workbook_doc({"sheets": [{"name": "S", "cells": [
    {"ref": "C4", "value": 1.0}, {"ref": "D3", "formula": "=SUM(C3:E5)"}]}]}), "product")
def test_cell_metrics_read_ranges_as_rectangles(wb, mode):
    cfg = DispersionConfig(mode=mode)
    g = build_graph(wb)
    cells = list(wb.iter_cells())  # node i is cells[i]
    want = [oracle_formula_metrics(cells[i], g.precedents(i), cfg) for i in g.cell_ids()]
    got = analyze_workbook(wb, AnalysisConfig(dispersion=cfg)).cells
    # Equal records may still differ in a delta sum's type, which the report shows.
    assert [(m, type(m.delta_sum)) for m in got] == [(m, type(m.delta_sum)) for m in want]


def test_cell_metrics_read_two_corners_per_reference(monkeypatch):
    # A SUM over a half-empty 60 x 100 rectangle and a formula of three
    # references: cell metrics read node locations for the two formula cells
    # and at most two corners per reference, not the 6,003 cells they read.
    doc = {"sheets": [{"name": "S", "cells": (
        [{"ref": f"{column_to_letters(c)}{r}", "value": float(c * r)}
         for r in range(1, 101) for c in range(1, 61) if (c + r) % 2]
        + [{"ref": "BZ1", "formula": "=SUM(A1:BH100)"},
           {"ref": "BZ2", "formula": "=A1+B2*SUM(C1:D1)"}])}]}
    g = build_graph(load_workbook_doc(doc))
    passed: list[int] = []
    locations = CellGraph.locations

    def counted(self, ids):
        ids = list(ids)
        passed.append(len(ids))
        return locations(self, ids)
    monkeypatch.setattr(CellGraph, "locations", counted)
    records, index = _cell_metrics(g, DispersionConfig())
    assert sum(passed) <= 2 + 2 * 4
    assert [records[index[g.node_id(a)]].n_references
            for a in ("S!BZ1", "S!BZ2")] == [6_000, 4]


def test_shared_records_are_built_once_and_listed_on_first_read(monkeypatch):
    # A half-empty 40 x 100 rectangle read by one SUM, and one all-relative
    # formula copied down a column: analysis and emission build one record
    # for the data cells, one for the SUM and one for the copies, and none
    # per cell until ``cells`` is read.
    doc = {"sheets": [{"name": "S", "cells": (
        [{"ref": f"{column_to_letters(c)}{r}", "value": float(c * r)}
         for r in range(1, 101) for c in range(1, 41) if (c + r) % 2]
        + [{"ref": "AP1", "formula": "=SUM(A1:AN100)"}]
        + [{"ref": f"AQ{r}", "formula": f"=A{r}*2+B{r}"} for r in range(1, 101)])}]}
    wb = load_workbook_doc(doc)
    with monkeypatch.context() as patch:
        built = count_builds(patch, CellMetrics)
        report = analyze_workbook(wb)
        emit_report(report, "json")
        emit_report(report, "text")
    assert built == {CellMetrics: 3}
    g = build_graph(wb)
    cells = list(wb.iter_cells())  # node i is cells[i]
    assert len(cells) == 2_101
    assert report.cells == [formula_metrics(cells[i], g.precedents(i)) for i in g.cell_ids()]


@given(copied_workbook())
def test_range_linkage_matches_the_per_copy_check(wb):
    g = build_graph(wb)
    assert check_range_linkage(g) == oracle_check_range_linkage(wb, g)


def test_one_shape_on_two_sheets_keeps_each_sheets_record():
    # The same text on S1 reads its own sheet and on S2 another one, so the
    # copies share a shape but not their deltas.
    doc = {"sheets": [
        {"name": "S1", "cells": [{"ref": "A1", "value": 1.0},
                                 {"ref": "B2", "formula": "=S1!A1+A1"},
                                 {"ref": "B3", "formula": "=S1!A2+A2"}]},
        {"name": "S2", "cells": [{"ref": "B2", "formula": "=S1!A1+A1"},
                                 {"ref": "B3", "formula": "=S1!A2+A2"}]},
    ]}
    wb = load_workbook_doc(doc)
    shapes = {id(cell.shape) for cell in wb.iter_cells() if cell.is_formula}
    assert len(shapes) == 1
    by_address = {m.address.render(): m for m in analyze_workbook(wb).cells}
    assert by_address["S1!B3"].cross_sheet_ref_count == 0
    assert by_address["S1!B3"].n_references == 2
    assert by_address["S2!B3"].cross_sheet_ref_count == 1
    assert by_address["S2!B3"].dispersion == by_address["S2!B2"].dispersion


def test_a_mixed_anchor_run_is_read_from_its_ends():
    # SUM(A$3:A1) flips its ends at row 3, so its copies key by their own
    # references and split into two runs. Each run's slot keeps its top-left
    # or its bottom cell and grows or shrinks along the run: it is relative,
    # and ``s`` is the first copy's cell count.
    doc = {"sheets": [{"name": "S", "cells": (
        [{"ref": f"A{r}", "value": float(r)} for r in range(1, 9)]
        + [{"ref": f"C{r}", "formula": f"=SUM(A$3:A{r})"} for r in range(1, 9)])}]}
    wb = load_workbook_doc(doc)
    g = build_graph(wb)
    findings = check_range_linkage(g)
    assert findings == oracle_check_range_linkage(wb, g)
    assert [f.target_range.render() for f in findings] == ["S!C1:C2", "S!C3:C8"]
    assert [(f.ref_style, f.s) for f in findings] == [("relative", 3), ("relative", 1)]

