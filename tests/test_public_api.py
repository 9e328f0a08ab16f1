"""The package's public surface: what ``cellgauge`` exports, the names that
are gone, README's documentation of every export, and README's library
examples, run as written."""

import importlib
import json
import re
from pathlib import Path

import pytest

import cellgauge

README = Path(__file__).resolve().parent.parent / "README.md"

EXPORTS = [
    "__version__",
    "AnalysisConfig",
    "AuditWarning",
    "BetaConfig",
    "CascadeBudgetError",
    "CascadeReliability",
    "CascadeStats",
    "Cell",
    "CellGaugeError",
    "CellGraph",
    "CellMetrics",
    "CellRef",
    "ClassifiedToken",
    "ConditionalConstruct",
    "CycleError",
    "DispersionConfig",
    "DomainError",
    "EmptyFormulaError",
    "FormatError",
    "FormulaAst",
    "FormulaSyntaxError",
    "LimitExceededError",
    "ModularMetrics",
    "RangeBudgetError",
    "RangeLinkageFinding",
    "RangeRef",
    "ReliabilityConfig",
    "UnbalancedParensError",
    "UnknownCellError",
    "Workbook",
    "WorkbookReport",
    "adjusted_cell_rate",
    "analyze",
    "analyze_workbook",
    "bottom_line_error_rate",
    "build_graph",
    "cascade_reliability",
    "check_range_linkage",
    "classify_tokens",
    "decision_count",
    "emit_report",
    "find_conditionals",
    "formula_metrics",
    "load_csv_grid",
    "load_workbook",
    "load_workbook_doc",
    "modular_metrics",
    "parse_cell_address",
    "parse_formula",
    "render_formula",
    "survive_factors",
]

# Each removed name and where it was: a module, or a module's class.
REMOVED = [
    ("cellgauge.conditionals", "conditional_complexity"),
    ("cellgauge.conditionals", "cascade_conditional_report"),
    ("cellgauge.metrics", "dispersion"),
    ("cellgauge.metrics", "spans"),
    ("cellgauge.metrics", "_of_deltas"),
    ("cellgauge.metrics", "decision_count"),
    ("cellgauge.refs", "render_ref"),
    ("cellgauge.reliability", "cell_error_rates"),
    ("cellgauge.workbook:Workbook", "formula_cells"),
    ("cellgauge.graph:CellGraph", "has_cell"),
    ("cellgauge.graph:CellGraph", "nodes"),
    ("cellgauge.graph:CellGraph", "precedent_ids"),
    ("cellgauge.graph:CellGraph", "fan_in"),
    ("cellgauge.graph:CellGraph", "bottom_line_cells"),
    ("cellgauge.graph:CellGraph", "input_cells"),
    ("cellgauge.graph:CellGraph", "cascade_members"),
    ("cellgauge.report", "_Columns"),
    ("cellgauge.report", "CellColumns"),
    ("cellgauge.report", "WarningColumns"),
]


def test_exports_are_the_kept_surface():
    assert cellgauge.__all__ == EXPORTS
    for name in EXPORTS:
        assert getattr(cellgauge, name) is not None, name


@pytest.mark.parametrize("owner, name", REMOVED)
def test_removed_names_are_gone(owner, name):
    module, _, cls = owner.partition(":")
    holder = importlib.import_module(module)
    if cls:
        holder = getattr(holder, cls)
    assert not hasattr(holder, name)
    if name != "decision_count":  # it stays, from cellgauge.formula
        assert not hasattr(cellgauge, name)


def test_every_export_is_documented_in_the_readme():
    # The text between backtick pairs: inline code and fenced blocks.
    code = " ".join(README.read_text(encoding="utf-8").split("`")[1::2])
    missing = [name for name in EXPORTS[1:]
               if not re.search(rf"\b{re.escape(name)}\b", code)]
    assert missing == []


# A model with sheets In and Out and a formula in Out!B2, which the
# examples read.
MODEL = {"sheets": [
    {"name": "In", "cells": [{"ref": "A1", "value": 2}, {"ref": "A2", "value": 3}]},
    {"name": "Out", "cells": [{"ref": "A1", "value": 1},
                              {"ref": "B2", "formula": "=SUM(In!A1:A2)*A1+IF(In!A1>0,1,2)"}]},
]}


def test_library_use_examples_run(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) >= 3
    (tmp_path / "model.json").write_text(json.dumps(MODEL), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for k, block in enumerate(blocks):
        # The by-hand shape recipe reads a formula ``text`` in cell
        # (``column``, ``row``).
        scope = {"text": "=In!A1*2+B$3", "column": 2, "row": 2}
        exec(compile(block, f"README.md, Library use block {k}", "exec"), scope)
