import copy
import random

from cellgauge.graph import build_graph
from cellgauge.metrics import check_range_linkage
from cellgauge.report import analyze_workbook, emit_report
from cellgauge.workbook import load_workbook_doc

from conftest import make_workbook


def col_run(formula_by_row, data_rows, data_col="A", formula_col="B"):
    cells = {f"{data_col}{r}": float(r) for r in data_rows}
    cells.update({f"{formula_col}{r}": f for r, f in formula_by_row.items()})
    return make_workbook({"S": cells})


def only_vertical(findings):
    return [f for f in findings if f.target_range.width == 1]


def test_absolute_linkage_ok():
    # Five copies, all reading the same three absolute cells; the source
    # column holds exactly three values.
    wb = col_run({r: "=SUM($A$1:$A$3)" for r in range(1, 6)}, data_rows=[1, 2, 3])
    findings = check_range_linkage(build_graph(wb))
    assert len(findings) == 1
    f = findings[0]
    assert f.ref_style == "absolute"
    assert f.s == 3
    assert f.expected_extent == 3
    assert f.actual_extent == 3
    assert f.verdict == "ok"
    assert f.target_range.render() == "S!B1:B5"
    assert f.source_range.render() == "S!A1:A3"


def test_absolute_linkage_violation_extra_source_row():
    # A fourth populated source row is never consumed.
    wb = col_run({r: "=SUM($A$1:$A$3)" for r in range(1, 6)}, data_rows=[1, 2, 3, 4])
    f = check_range_linkage(build_graph(wb))[0]
    assert f.ref_style == "absolute"
    assert f.expected_extent == 3
    assert f.actual_extent == 4
    assert f.verdict == "violation"


def test_relative_linkage_ok():
    # B1..B5 read A1:A2 shifted down one row per copy; the source column
    # must then hold 5 + 2 - 1 = 6 values.
    formulas = {r: f"=SUM(A{r}:A{r + 1})" for r in range(1, 6)}
    wb = col_run(formulas, data_rows=range(1, 7))
    f = check_range_linkage(build_graph(wb))[0]
    assert f.ref_style == "relative"
    assert f.s == 2
    assert f.expected_extent == 6
    assert f.actual_extent == 6
    assert f.verdict == "ok"
    assert f.source_range.render() == "S!A1:A6"


def test_relative_linkage_violation_short_source():
    # Same run but the last copy reaches into an empty cell (A6).
    formulas = {r: f"=SUM(A{r}:A{r + 1})" for r in range(1, 6)}
    wb = col_run(formulas, data_rows=range(1, 6))
    f = check_range_linkage(build_graph(wb))[0]
    assert f.ref_style == "relative"
    assert f.expected_extent == 6
    assert f.actual_extent == 5
    assert f.verdict == "violation"


def test_single_relative_references_expect_run_length():
    # s = 1: each copy reads one shifted cell, so the source extent must
    # equal the run length.
    formulas = {r: f"=A{r}*2" for r in range(1, 5)}
    wb = col_run(formulas, data_rows=range(1, 5))
    f = check_range_linkage(build_graph(wb))[0]
    assert f.s == 1 and f.ref_style == "relative"
    assert f.expected_extent == 4 and f.actual_extent == 4
    assert f.verdict == "ok"


def test_horizontal_run():
    cells = {"A1": 1.0, "B1": 2.0, "C1": 3.0,
             "A2": "=A1*2", "B2": "=B1*2", "C2": "=C1*2"}
    wb = make_workbook({"S": cells})
    findings = [f for f in check_range_linkage(build_graph(wb)) if f.target_range.height == 1]
    assert len(findings) == 1
    f = findings[0]
    assert f.target_range.render() == "S!A2:C2"
    assert f.ref_style == "relative"
    assert f.expected_extent == 3 and f.actual_extent == 3
    assert f.verdict == "ok"


def test_horizontal_absolute_run():
    # A2..D2 all read the fixed block A1:C1; three source cells populated.
    cells = {"A1": 1.0, "B1": 2.0, "C1": 3.0}
    cells.update({f"{c}2": "=SUM($A$1:$C$1)" for c in "ABCD"})
    wb = make_workbook({"S": cells})
    findings = [f for f in check_range_linkage(build_graph(wb)) if f.target_range.height == 1]
    (f,) = findings
    assert f.ref_style == "absolute"
    assert f.expected_extent == f.actual_extent == 3
    assert f.verdict == "ok"


def test_horizontal_relative_violation():
    # Width-wise analog of the short-source case: the last copy reads E1,
    # which is empty.
    cells = {f"{c}1": 1.0 for c in "ABCD"}
    cells.update({f"{c}2": f"={c}1*2" for c in "ABCDE"})
    wb = make_workbook({"S": cells})
    findings = [f for f in check_range_linkage(build_graph(wb)) if f.target_range.height == 1]
    (f,) = findings
    assert f.ref_style == "relative"
    assert (f.expected_extent, f.actual_extent) == (5, 4)
    assert f.verdict == "violation"


def test_short_runs_ignored():
    wb = make_workbook({"S": {"A1": 1.0, "B1": "=A1*2"}})
    assert check_range_linkage(build_graph(wb)) == []


def test_differing_formulas_break_run():
    wb = make_workbook({"S": {
        "A1": 1.0, "A2": 2.0, "A3": 3.0,
        "B1": "=A1*2", "B2": "=A2*3", "B3": "=A3*2",
    }})
    assert only_vertical(check_range_linkage(build_graph(wb))) == []


def test_multi_column_source_skipped():
    # Vertical run reading a two-column block has no single source column.
    formulas = {r: f"=SUM(A{r}:B{r})" for r in (1, 2, 3)}
    cells = {f"A{r}": 1.0 for r in (1, 2, 3)}
    cells.update({f"B{r}": 2.0 for r in (1, 2, 3)})
    cells.update({f"C{r}": f for r, f in formulas.items()})
    wb = make_workbook({"S": cells})
    assert only_vertical(check_range_linkage(build_graph(wb))) == []


def test_cross_sheet_source_checked():
    formulas = {r: f"=SUM(Data!A{r}:A{r + 1})" for r in range(1, 4)}
    wb = make_workbook({
        "Data": {f"A{r}": float(r) for r in range(1, 5)},
        "Calc": {f"B{r}": f for r, f in formulas.items()},
    })
    f = check_range_linkage(build_graph(wb))[0]
    assert f.source_range.render() == "Data!A1:A4"
    assert f.expected_extent == 4 and f.actual_extent == 4
    assert f.verdict == "ok"


def test_fully_empty_source_reports_zero_extent():
    formulas = {r: f"=SUM(Z{r}:Z{r + 1})" for r in range(1, 4)}
    wb = make_workbook({"S": {f"B{r}": f for r, f in formulas.items()}})
    f = check_range_linkage(build_graph(wb))[0]
    assert f.actual_extent == 0
    assert f.verdict == "violation"


def test_string_literals_with_quotes_do_not_make_copies():
    # "a","b" and "a"",""b" read alike unless a literal's quotes are doubled
    # in the shift key; then C1 and C2 would form a run over A1:A3.
    wb = make_workbook({"S": {
        **{f"A{r}": float(r) for r in range(1, 4)},
        "C1": '=CONCAT(A1,"a","b")',
        "C2": '=CONCAT(A2,"a"",""b")',
    }})
    assert check_range_linkage(build_graph(wb)) == []


def alternating_pairs(n):
    """Column A holds data in rows 1..n; column B alternates =A{r}*2 and
    =A{r}+2 in pairs, so every run is two cells over one tall column."""
    cells = {f"A{r}": float(r) for r in range(1, n + 1)}
    cells.update({f"B{r}": f"=A{r}*2" if (r - 1) // 2 % 2 == 0 else f"=A{r}+2"
                  for r in range(1, n + 1)})
    return make_workbook({"S": cells})


def test_short_runs_over_a_tall_column_are_linear():
    # Each run's source extent is the whole column; walking it once per run
    # made range linkage quadratic in the column's height.
    from cellgauge import metrics
    from test_conditionals import _lines_run
    from test_resolution import check_range_linkage as reference

    def work(n):
        wb = alternating_pairs(n)
        g = build_graph(wb)
        return _lines_run(lambda: check_range_linkage(g), (metrics,))

    small, large = work(500), work(1000)
    assert large < 2.2 * small, (small, large)
    wb = alternating_pairs(40)
    findings = check_range_linkage(build_graph(wb))
    assert findings == reference(wb)
    assert {(f.actual_extent, f.verdict) for f in findings} == {(40, "violation")}


def copied_doc():
    """Two sheets, whose names sort against their order, each with copied
    runs down columns B-D and along row 11."""
    sheets = []
    for name in ("Zeta", "Alpha"):
        cells = [{"ref": f"A{r}", "value": r} for r in range(1, 7)]
        cells += [{"ref": f"{c}10", "value": k} for k, c in enumerate("ABCDEF")]
        for r in range(1, 6):
            cells += [{"ref": f"B{r}", "formula": f"=SUM($A$1:A{r})"},
                      {"ref": f"C{r}", "formula": f"=A{r}*2"},
                      {"ref": f"D{r}", "formula": f"=Zeta!A{r + 1}+1"}]
        for c, left in zip("BCDEF", "ABCDE"):
            cells += [{"ref": f"{c}11", "formula": f"={left}10*3"}]
        sheets.append({"name": name, "cells": cells})
    return {"sheets": sheets}


def test_range_findings_follow_line_order_whatever_the_doc_order():
    # Runs were listed in the order their lines first appeared in the
    # document, so reordering cell docs reordered range_findings.
    doc = copied_doc()
    wb = load_workbook_doc(doc)
    want = emit_report(analyze_workbook(wb))
    findings = check_range_linkage(build_graph(wb))
    position = {"Zeta": 0, "Alpha": 1}

    def order(f):  # vertical runs by sheet, column, first row; then horizontal
        start, end = f.target_range.start, f.target_range.end
        vertical = start.column == end.column
        line, first = (start.column, start.row) if vertical else (start.row, start.column)
        return not vertical, position[start.sheet], line, first

    assert len({order(f) for f in findings}) == 8
    assert list(map(order, findings)) == sorted(map(order, findings))
    rng = random.Random(2024)
    for _ in range(5):
        shuffled = copy.deepcopy(doc)
        for sheet in shuffled["sheets"]:
            rng.shuffle(sheet["cells"])
        assert emit_report(analyze_workbook(load_workbook_doc(shuffled))) == want
