"""Totality of the audit: any loaded workbook gives a report, or a budget
error that the CLI turns into exit 2, and ``cellgauge analyze`` exits only
with a code its documentation gives, never 4 (a crash).

The workbooks come from an IF-heavy, reference-heavy formula grammar: cell
and range references with any anchors, same-sheet, cross-sheet (a quoted
name, in any case) and missing-sheet targets, empty cells, and references
to a cell's own row or a later one, so cycles (exit 3) are common. Both
budgets are drawn small, so every example stays bounded and many go past
one.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellgauge import report as report_module
from cellgauge.cli import main
from cellgauge.errors import CascadeBudgetError, RangeBudgetError, W_CYCLE_DETECTED
from cellgauge.report import AnalysisConfig, analyze_workbook, emit_report
from cellgauge.workbook import load_workbook_doc

SHEETS = ("S", "Data", "My Sheet")
ADDRESSES = [f"{column}{row}" for column in "ABC" for row in range(1, 5)]

CELL = st.builds("{}{}{}{}".format, st.sampled_from(["", "$"]), st.sampled_from("ABCD"),
                 st.sampled_from(["", "$"]), st.integers(1, 5))
PREFIX = st.sampled_from(["", "", "", "S!", "data!", "'My Sheet'!", "'my sheet'!", "Nope!"])
REF = st.builds("{}{}".format, PREFIX, CELL)
RANGE = st.builds("{}{}:{}".format, PREFIX, CELL, CELL)
EXPR = st.recursive(
    st.one_of(st.integers(0, 9).map(str), REF, REF, RANGE.map("SUM({})".format)),
    lambda inner: st.one_of(
        st.builds("IF({}>{},{},{})".format, inner, st.integers(0, 5), inner, inner),
        st.builds("IF({},{},{})".format, inner, inner, inner),
        st.builds("IF({},{})".format, inner, inner),
        st.builds("{}({},{})".format,
                  st.sampled_from(["SUM", "MAX", "MIN", "AVERAGE", "AND", "OR"]), inner, inner),
        st.builds("NOT({})".format, inner),
        st.builds("{}{}{}".format, inner, st.sampled_from("+-*/^"), inner),
        st.builds("-{}".format, inner)),
    max_leaves=8)
FORMULA = EXPR.map("={}".format)
CONTENT = st.one_of(st.integers(-5, 9), st.booleans(), st.sampled_from(["", "x"]),
                    FORMULA, FORMULA, FORMULA, FORMULA)


def _cell_doc(ref: str, content) -> dict:
    if isinstance(content, str) and content.startswith("="):
        return {"ref": ref, "formula": content}
    return {"ref": ref, "value": content}


DOCS = st.builds(
    lambda sheets: {"sheets": [
        {"name": name, "cells": [_cell_doc(ref, c) for ref, c in cells.items()]}
        for name, cells in sheets]},
    st.lists(st.tuples(st.sampled_from(SHEETS),
                       st.dictionaries(st.sampled_from(ADDRESSES), CONTENT,
                                       min_size=1, max_size=8)),
             min_size=1, max_size=3, unique_by=lambda sheet: sheet[0]))
# Small enough that some examples go past each budget.
BUDGETS = st.one_of(st.integers(0, 60), st.integers(200, 1_000))

# A cycle through IFs across two sheets, and a range that empties the budget.
CYCLE = {"sheets": [
    {"name": "S", "cells": [{"ref": "A1", "formula": "=IF(Data!A1>0,S!B1,1)"},
                            {"ref": "B1", "formula": "=SUM(A1:C4)"}]},
    {"name": "Data", "cells": [{"ref": "A1", "formula": "=IF(S!A1,2)"}]}]}


@given(DOCS, BUDGETS, BUDGETS)
@example(CYCLE, 80, 80)
@example(CYCLE, 5, 80)
@settings(deadline=None)
def test_any_loaded_workbook_gives_a_report_or_a_budget_error(doc, range_budget,
                                                              cascade_budget):
    wb = load_workbook_doc(doc)
    with mock.patch.object(report_module, "MAX_CASCADE_CELLS", cascade_budget):
        try:
            report = analyze_workbook(wb, AnalysisConfig(max_range_cells=range_budget))
        except (RangeBudgetError, CascadeBudgetError):
            return
    assert report.exit_code() == (3 if report.cyclic else 1 if report.warnings else 0)
    assert (json.loads(emit_report(report, "json"))["cascades"] is None) == report.cyclic
    assert emit_report(report, "text")


@given(DOCS, BUDGETS, BUDGETS, st.sampled_from(["json", "text"]))
@example(CYCLE, 80, 80, "json")
@settings(deadline=None)
def test_the_cli_exits_with_a_documented_code(doc, range_budget, cascade_budget, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "wb.json"), Path(tmp, "report")
        path.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with mock.patch.object(report_module, "MAX_CASCADE_CELLS", cascade_budget), \
                redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(["analyze", str(path), "--out", str(out), "--format", fmt,
                         "--max-range-cells", str(range_budget)])
        if code == 2:  # only a budget stops an audit of a loaded workbook
            assert "budget past its limit" in err.getvalue()
            assert not out.exists()
            return
        assert err.getvalue() == ""
        written = out.read_bytes()
    assert written
    if fmt == "json":
        report = json.loads(written)
        cyclic = any(w["code"] == W_CYCLE_DETECTED for w in report["warnings"])
        assert cyclic == (report["cascades"] is None)
        assert code == (3 if cyclic else 1 if report["warnings"] else 0)
    else:
        assert code in (0, 1, 3)
