"""The columnar loaders against the loaders they replace.

``loader_oracle`` keeps the earlier ``load_workbook_doc`` and
``load_csv_grid`` verbatim: one ``Cell`` and one ``CellRef`` per cell, each
cell doc checked field by field. On random documents, valid and invalid,
both loaders must give equal cells (values typed alike), sources,
references and W001 warnings, or the same FormatError message. Any JSON
document and any CSV text must give a workbook or a FormatError. The
audit of the acceptance document builds no ``Cell`` beyond one per
copy-class metrics call, and its load no ``CellRef`` per data cell.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import loader_oracle
from cellgauge import report as report_module
from cellgauge.cli import main
from cellgauge import workbook as workbook_module
from cellgauge.errors import FormatError, FormulaSyntaxError
from cellgauge.formula import parse_formula
from cellgauge.graph import build_graph
from cellgauge.refs import REFERENCE, CellRef, column_to_letters, parse_cell_address
from cellgauge.report import analyze_workbook, emit_report
from cellgauge.workbook import Cell, Workbook, load_csv_grid, load_workbook_doc

from test_acceptance import generate_large_workbook_doc


def _cells(wb: Workbook) -> list[tuple]:
    """Every cell of ``wb`` by sheet, in sheet order, with its value's type
    (True equals 1.0) and what ``==`` on cells leaves out: a formula's
    reference leaves and shift key."""
    return [
        (sheet.name, key, cell, type(cell.value)) + (() if cell.shape is None else (
            cell.shape.references(cell.address.column, cell.address.row),
            cell.shape.shift_key_at(cell.address.column, cell.address.row)))
        for sheet in wb.sheets for key, cell in sheet.cells.items()
    ]


def _shape_classes(wb: Workbook) -> list[int]:
    """Which cells share one shape object, as the position of each formula
    cell's shape among the shapes in order of first use."""
    first: dict[int, int] = {}
    return [first.setdefault(id(cell.shape), len(first))
            for cell in wb.iter_cells() if cell.shape is not None]


def assert_loads_alike(load, oracle, source) -> None:
    """``load(source)`` and ``oracle(source)`` give equal workbooks, or
    FormatErrors with one message."""
    try:
        want = oracle(source)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            load(source)
        assert str(got.value) == str(exc)
        return
    wb = load(source)
    assert [s.name for s in wb.sheets] == [s.name for s in want.sheets]
    assert _cells(wb) == _cells(want)
    assert _shape_classes(wb) == _shape_classes(want)
    assert wb.warnings == want.warnings


# --- Random documents -------------------------------------------------------
#
# Most cell docs are well formed: a plain ref, or one in lower case, with
# "$" anchors, a space or a leading zero, and a finite number, a string, a
# boolean or a formula text (some of which fail to parse, for W001). At
# most one cell doc of a sheet has faults, one or two of: a ref past XFD
# (one with a row past int's digit limit), at row 0, sheet-qualified, not a
# reference or not a string; an int past float's range, NaN, an infinity
# or a non-scalar value; a non-string formula; both value and formula or
# neither; an extra field; a duplicate ref; or no object at all. A doc with
# two faults raises the error of the check that comes first. One document
# in three also has a fault above the cells.

REFS = [f"{c}{r}" for c in "ABCDE" for r in range(1, 9)] + [
    "AA9", "XFD1", "a1", "$B$2", "C$3", " D4", "E05", "A12345678"]
# A row of more digits than int() converts.
LONG_ROW = "9" * 5_000
BAD_REFS = ["XFE1", "XFE" + LONG_ROW, "AAAA1", "A0", "S!A1", "1A", "", "A1:B2", 5, None,
            ["A1"]]
# Every code point but the surrogates, as st.text() draws them, but without
# the scan of the utf-8 codec that st.text() makes on its first draw. A bare
# st.characters() draws lone surrogates too, which the loader rejects (a
# value no UTF-8 report can carry) and the per-cell loader takes.
TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=4)
VALUES = st.one_of(st.floats(-1e6, 1e6), st.integers(-10 ** 6, 10 ** 6),
                   st.booleans(), TEXT)
BAD_VALUES = [10 ** 400, -(10 ** 400), 2 ** 1024 - 1, float("nan"), float("inf"),
              float("-inf"), None, [], {}]
FORMULAS = st.sampled_from([
    "=A1+1", "=A2+1", "=B1*2", "=SUM(A1:B2)", "=SUM(a1:$B$2)", "=IF(A1>0,1,2)",
    "=1+", "=", "A1", "=XFE1", "=A0+1", "=S!A1+T!B2", "=LOG10(4)"])
FAULTS = ["ref", "value", "formula", "both", "neither", "extra", "duplicate", "other"]


@st.composite
def cell_list(draw) -> list:
    """Cell docs, at most one of them with one or two faults."""
    refs = draw(st.lists(st.sampled_from(REFS), unique=True, max_size=10))
    faulty = draw(st.integers(0, 2 * len(refs)))  # no fault past the end
    docs: list = []
    for k, ref in enumerate(refs):
        faults = (draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2))
                  if k == faulty else ())
        if "other" in faults:
            docs.append(draw(st.sampled_from([None, "A1", ["A1", 1]])))
            continue
        if "ref" in faults:
            ref = draw(st.sampled_from(BAD_REFS))
        elif "duplicate" in faults and docs:  # only this doc can be no object
            ref = draw(st.sampled_from(docs))["ref"]
        doc = {"ref": ref}
        if "value" in faults:
            doc["value"] = draw(st.sampled_from(BAD_VALUES))
        if "formula" in faults:
            doc["formula"] = draw(st.sampled_from([5, None]))
        if "both" in faults:
            doc.setdefault("formula", draw(FORMULAS))
            doc.setdefault("value", draw(VALUES))
        elif "neither" not in faults and len(doc) == 1:
            if draw(st.booleans()):
                doc["formula"] = draw(FORMULAS)
            else:
                doc["value"] = draw(VALUES)
        if "extra" in faults:
            doc["note"] = 1
        docs.append(doc)
    return docs


@st.composite
def documents(draw):
    names = draw(st.lists(st.sampled_from(["S", "T", "My Sheet"]), min_size=1,
                          max_size=3, unique=True))
    doc = {"sheets": [{"name": name, "cells": draw(cell_list())} for name in names]}
    flaw = draw(st.sampled_from([None] * 10 + ["top", "sheets", "sheet", "name", "cells"]))
    last = doc["sheets"][-1]
    if flaw == "top":
        doc["extra"] = 1
    elif flaw == "sheets":
        doc["sheets"] = {}
    elif flaw == "sheet":
        last["extra"] = 1
    elif flaw == "name":
        last["name"] = draw(st.sampled_from(["", 3, "s" if names[0] == "S" else "t"]))
    elif flaw == "cells":
        last["cells"] = {}
    return doc


DOCS = documents()

# Any JSON value, and any JSON value as a cell doc or a sheet's cell list.
JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | TEXT
    | st.sampled_from(["A1", "XFD" + LONG_ROW, "A" + LONG_ROW]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["ref", "value", "formula", "sheets", "name",
                                       "cells", "x"]), children, max_size=4),
    max_leaves=12,
)
ANY_DOCS = st.one_of(
    JSON,
    st.builds(lambda cells: {"sheets": [{"name": "S", "cells": cells}]},
              st.lists(JSON, max_size=4)),
    st.builds(lambda cells: {"sheets": [{"name": "S", "cells": cells}]}, JSON),
)


@given(DOCS)
def test_doc_loader_matches_the_per_cell_loader(doc):
    assert_loads_alike(load_workbook_doc, loader_oracle.load_workbook_doc, doc)


@given(ANY_DOCS)
@example({"sheets": [{"name": "S", "cells": [{"ref": "XFD" + LONG_ROW, "value": 1}]}]})
def test_any_json_document_gives_a_workbook_or_a_format_error(doc):
    try:
        wb = load_workbook_doc(doc)
    except FormatError:
        pass
    else:
        assert isinstance(wb, Workbook)
    try:
        loader_oracle.load_workbook_doc(doc)
    except FormatError:
        pass
    except ValueError:  # the per-cell loader's int() of a row past the digit limit
        return
    assert_loads_alike(load_workbook_doc, loader_oracle.load_workbook_doc, doc)


CSV_FIELDS = st.sampled_from([
    "", "1", "1.5", "-2e3", "1e400", "nan", "inf", "TRUE", " false ", "x", "=A1+1",
    "=B1*2", "=SUM(A1:B2)", "=1+", '"=A1,2"', '"a""b"', '"open', "=A0",
])
CSV_TEXTS = st.one_of(
    st.text(max_size=30),
    st.lists(st.lists(CSV_FIELDS, max_size=4), max_size=5).map(
        lambda rows: "\n".join(",".join(row) for row in rows)),
)


@given(CSV_TEXTS)
def test_any_csv_text_gives_a_workbook_or_a_format_error(text):
    try:
        wb = load_csv_grid(text)
    except FormatError:
        pass
    else:
        assert isinstance(wb, Workbook)
    assert_loads_alike(load_csv_grid, loader_oracle.load_csv_grid, text)


@pytest.mark.parametrize("cells, message", [
    ([{"ref": "A1", "value": 1}, {"ref": "A1", "value": 2}], "duplicate cell S!A1 in sheet 'S'"),
    ([{"ref": "A1", "value": 1}, {"ref": "$A$1", "formula": "=1"}],
     "duplicate cell S!A1 in sheet 'S'"),
    ([{"ref": "XFE1", "value": 1}], "column must be at most XFD in 'XFE1'"),
    ([{"ref": "A1", "value": 1}, {"ref": "A1", "value": float("nan")}],
     "cell S!A1 value must be a finite number, got nan"),
    ([{"ref": "B1", "value": 10 ** 400}], "cell S!B1 value must be a finite number, got inf"),
    ([{"ref": "B1", "value": 1, "formula": "=1"}],
     "cell 'B1' must have exactly one of value/formula"),
    ([{"ref": "B1"}], "cell 'B1' must have exactly one of value/formula"),
    ([{"ref": "B1", "value": None}],
     "cell S!B1 value must be number, string or boolean, got None"),
    ([{"ref": "B1", "value": [1]}],
     "cell S!B1 value must be number, string or boolean, got [1]"),
    ([{"ref": "B1", "formula": None}], 'cell \'B1\' "formula" must be a string'),
    ([{"ref": "B1", "value": 1, "note": ""}], "unknown cell fields: ['note']"),
    ([{"ref": "S!B1", "value": 1}], "cell ref must not carry a sheet: 'S!B1'"),
    # Docs with two faults give the error of the check that comes first.
    ([{"ref": "B1", "value": 1, "formula": None}],
     "cell 'B1' must have exactly one of value/formula"),
    ([{"ref": "S!B1", "value": 1, "formula": "=1"}],
     "cell ref must not carry a sheet: 'S!B1'"),
    ([{"ref": "B1", "formula": 5, "note": ""}], "unknown cell fields: ['note']"),
])
def test_each_faulty_doc_raises_its_first_error(cells, message):
    doc = {"sheets": [{"name": "S", "cells": cells}]}
    with pytest.raises(FormatError) as exc:
        load_workbook_doc(doc)
    assert str(exc.value) == message
    assert_loads_alike(load_workbook_doc, loader_oracle.load_workbook_doc, doc)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() converts rows of any length")
@pytest.mark.parametrize("column", ["A", "XFD", "XFE", "a"])
def test_a_row_past_the_digit_limit_is_a_format_error(column):
    # The per-cell loader let int()'s ValueError escape up to column XFD.
    ref = column + "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ValueError) as parsed:
        parse_cell_address(ref)
    with pytest.raises(FormatError) as exc:
        load_workbook_doc({"sheets": [{"name": "S", "cells": [{"ref": ref, "value": 1}]}]})
    assert str(exc.value) == str(parsed.value)
    # One short line: the ref is quoted by its head, and int()'s advice is left out.
    assert len(str(exc.value)) < 80 and "set_int_max_str_digits" not in str(exc.value)


# A ref of 4,000 digits parses (int() converts up to 4,300), so each check
# after the parse sees it whole; one carrying a sheet is refused before.
@pytest.mark.parametrize("cell", [
    {"ref": "S!A" + LONG_ROW, "value": 1},
    {"ref": "A" + LONG_ROW[:4_000], "value": 1, "formula": "=1"},
    {"ref": "A" + LONG_ROW[:4_000]},
    {"ref": "A" + LONG_ROW[:4_000], "formula": None},
], ids=["sheet", "both", "neither", "formula"])
def test_a_long_ref_gives_a_short_error_line(cell, tmp_path, capsys):
    path = tmp_path / "wb.json"
    path.write_text(json.dumps({"sheets": [{"name": "S", "cells": [cell]}]}))
    assert main(["analyze", str(path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: cell ") and len(line.encode()) < 200, line[:200]


LONG_TEXT = "x" * 100_000


def _sheet(*cells) -> dict:
    return {"sheets": [{"name": "S", "cells": list(cells)}]}


# Each input puts a 100,000-character text, or 20,000 field names, where an
# error names it; "\ud800" is a lone surrogate. The last one's doc is
# sound, and its weights file is not.
@pytest.mark.parametrize("doc, weights", [
    ({"sheets": [{"name": LONG_TEXT}, {"name": LONG_TEXT}]}, None),
    ({"sheets": [], LONG_TEXT: 1}, None),
    ({"sheets": [{"name": "S", LONG_TEXT: 1}]}, None),
    ({"sheets": [{"name": LONG_TEXT + "\ud800"}]}, None),
    (_sheet({"ref": "A1", "value": 1, LONG_TEXT: 1}), None),
    (_sheet({"ref": "A1", "value": 1, **{f"f{k}": 1 for k in range(20_000)}}), None),
    (_sheet({"ref": "A1", "formula": "=" + LONG_TEXT + "\ud800"}), None),
    (_sheet({"ref": "A1", "value": LONG_TEXT + "\ud800"}), None),
    (_sheet({"ref": "A1", "value": [LONG_TEXT]}), None),
    (_sheet({"ref": "A1", "value": 1}), {LONG_TEXT: 1}),
], ids=["duplicate sheet", "top-level field", "sheet field", "sheet name", "cell field",
        "many cell fields", "formula", "string value", "value type", "weight key"])
def test_a_long_input_text_gives_a_short_error_line(doc, weights, tmp_path, capsys):
    path = tmp_path / "wb.json"
    path.write_text(json.dumps(doc))
    args = ["analyze", str(path)]
    if weights is not None:
        (tmp_path / "weights.json").write_text(json.dumps(weights))
        args += ["--weights", str(tmp_path / "weights.json")]
    assert main(args) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and len(line.encode()) <= 200, line[:300]


@pytest.mark.parametrize("doc, message", [
    ({"sheets": [{"name": "S", "cells": [], "note": 1, "more": 2}]},
     "unknown sheet fields: ['more', 'note']"),
    ({"sheets": [], "n" * 101: 1}, "unknown top-level fields: ['nnnnnnnnnnnnnnnnnnnn'...]"),
    ({"sheets": [], "b" * 60: 1, "a" * 60: 1},
     "unknown top-level fields: ['aaaaaaaaaaaaaaaaaaaa'..., ...]"),
    (_sheet({"ref": "A1", "value": {"k": 1}}),
     "cell S!A1 value must be number, string or boolean, got {'k': 1}"),
    (_sheet({"ref": "A1", "value": list(range(100, 200))}),
     "cell S!A1 value must be number, string or boolean, got [100, 101, 102, 103,..."),
], ids=["short fields", "a long field", "long fields", "a short value", "a long value"])
def test_a_long_list_or_value_is_named_by_its_head(doc, message):
    # A short list of fields or a short value is named whole, as before.
    with pytest.raises(FormatError) as exc:
        load_workbook_doc(doc)
    assert str(exc.value) == message


def test_a_csv_field_past_column_xfd_is_a_format_error():
    # Column XFD (16,384) is a sheet's last, as for a JSON doc's "ref"; empty
    # fields past it are no cells.
    at_xfd = "," * 16_383 + "1"
    assert load_csv_grid(at_xfd + "," * 10).cell("Sheet1!XFD1").value == 1.0
    with pytest.raises(FormatError) as exc:
        load_csv_grid('1,"two\nlines"\n' + at_xfd + ",,2\n")
    assert str(exc.value) == "invalid CSV at line 3: a field in column 16386 is past column XFD"


def test_a_number_of_a_subclass_of_int_or_float_loads_as_a_float():
    # JSON gives no such value, but a document built in Python may: it is
    # typed past the inline check of exact types, as the per-cell loader types it.
    class Amount(float):
        pass

    class Count(int):
        pass

    doc = {"sheets": [{"name": "S", "cells": [
        {"ref": "A1", "value": Amount(2.5)}, {"ref": "A2", "value": Count(3)}]}]}
    wb = load_workbook_doc(doc)
    assert [(c.value, type(c.value)) for c in wb.iter_cells()] == [(2.5, float), (3.0, float)]
    assert_loads_alike(load_workbook_doc, loader_oracle.load_workbook_doc, doc)


# --- Skeleton groups -----------------------------------------------------------
#
# A load keys a sheet's formula texts a skeleton group at a time: texts whose
# letters and digits may differ but whose character classes agree (see
# formula._SKELETON). Each grid puts texts of one skeleton whose keys fare
# differently side by side, and is loaded as CSV and as the same JSON document.

PAST_DIGITS = 4_301  # one digit past int()'s default limit
SKELETON_GRIDS = {
    # B1 would read A0 at the offsets at which B2 reads A1.
    "row 0 beside row 5": [["=A5+1", "=A0+1"], ["=A6+1", "=A1+1"]],
    # XFE's "E" is a class of its own, so "=XFE1+1" has another skeleton.
    "past XFD beside ABC": [["=XFE1+1", "=ABC1+1"], ["=XFF2+1", "=ABC2+1"]],
    "rows past the digit limit": [["=A" + "1" * PAST_DIGITS + "+1",
                                   "=B" + "2" * PAST_DIGITS + "+1"]],
    "a non-ASCII sheet": [["='Sé'!A1+1", "='Sa'!A1+1"], ["='Sé'!A2+1", "='Sé'!A2+1"]],
    "1e5 beside 1E5": [["=B1*1e5", "=C1*1E5"], ["=B2*1e5", "=C2*1E5"]],
    "lower-case refs": [["=a1+b$2", "=B1+C$2"], ["=a2+$b2", "=$A3+b3"]],
}


def _grid_sources(rows: list[list[str]]) -> tuple[str, dict]:
    """A grid of formula texts as CSV text and as the equivalent JSON
    document, whose one sheet is named as the CSV loader names it."""
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    cells = [{"ref": f"{column_to_letters(c)}{r}", "formula": text}
             for r, row in enumerate(rows, start=1) for c, text in enumerate(row, start=1)]
    return out.getvalue(), {"sheets": [{"name": "Sheet1", "cells": cells}]}


def _fails_alone(text: str) -> bool:
    try:
        parse_formula(text)
    except FormulaSyntaxError:
        return True
    return False


def _assert_own_errors(wb: Workbook) -> None:
    """A W001 for each formula text that fails to parse on its own, in
    document order, with the error its text gives alone, offset included."""
    failing = [cell for cell in wb.iter_cells()
               if isinstance(cell.value, str) and cell.value.startswith("=")
               and _fails_alone(cell.value)]
    assert [w.address for w in wb.warnings] == [c.address.render() for c in failing]
    for warning in wb.warnings:
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(wb.cell(warning.address).value)
        assert warning.message == str(exc.value)


@pytest.mark.parametrize("rows", SKELETON_GRIDS.values(), ids=SKELETON_GRIDS)
def test_each_skeleton_group_loads_as_the_per_cell_loader_loads_it(rows):
    text, doc = _grid_sources(rows)
    assert_loads_alike(load_csv_grid, loader_oracle.load_csv_grid, text)
    assert_loads_alike(load_workbook_doc, loader_oracle.load_workbook_doc, doc)
    for wb in (load_csv_grid(text), load_workbook_doc(doc)):
        _assert_own_errors(wb)


def test_a_shape_first_met_on_a_later_sheet_is_shared_by_its_later_copies():
    doc = {"sheets": [
        {"name": "S", "cells": [{"ref": "B1", "formula": "=A1*2"},
                                {"ref": "B2", "formula": "=A0*2"}]},
        {"name": "T", "cells": [{"ref": "C5", "formula": "=B5+1"},
                                {"ref": "B2", "formula": "=A2*2"}]},
        {"name": "U", "cells": [{"ref": "D10", "formula": "=C10+1"},
                                {"ref": "B3", "formula": "=a3*2"}]},
    ]}
    assert_loads_alike(load_workbook_doc, loader_oracle.load_workbook_doc, doc)
    wb = load_workbook_doc(doc)
    assert wb.cell("U!D10").shape is wb.cell("T!C5").shape
    # A key holds columns, not their letters, so "a3" copies "A1" too.
    assert wb.cell("T!B2").shape is wb.cell("S!B1").shape is wb.cell("U!B3").shape
    _assert_own_errors(wb)
    assert [w.address for w in wb.warnings] == ["S!B2"]


# --- Objects built per cell ----------------------------------------------------


def _counting(patch, cls, counts):
    init = cls.__init__

    def counted(self, *args, **kwargs):
        counts[cls] += 1
        init(self, *args, **kwargs)
    patch.setattr(cls, "__init__", counted)


def test_the_audit_builds_a_cell_only_per_metrics_call(monkeypatch):
    # Loading, auditing and emitting the acceptance document builds one Cell
    # per copy-class formula_metrics call and no other; outside the parser,
    # which runs once per shape, the load builds at most one CellRef per
    # distinct reference text, and none per data cell.
    doc = generate_large_workbook_doc()
    texts = {m[0] for sheet in doc["sheets"] for cell in sheet["cells"]
             if "formula" in cell for m in re.finditer(REFERENCE, cell["formula"])}
    counts = {Cell: 0, CellRef: 0}
    parsed = []  # CellRefs built inside each parse_formula call
    calls = []
    with monkeypatch.context() as patch:
        for cls in counts:
            _counting(patch, cls, counts)
        parse, metrics = workbook_module.parse_formula, report_module.formula_metrics

        def parsing(text):
            before = counts[CellRef]
            try:
                return parse(text)
            finally:
                parsed.append(counts[CellRef] - before)

        def measuring(*args, **kwargs):
            calls.append(args[0])
            return metrics(*args, **kwargs)
        patch.setattr(workbook_module, "parse_formula", parsing)
        patch.setattr(report_module, "formula_metrics", measuring)
        wb = load_workbook_doc(doc)
        assert counts[Cell] == 0
        assert counts[CellRef] - sum(parsed) <= len(texts)
        report = analyze_workbook(wb)
        emit_report(report, "json")
        emit_report(report, "text")
    assert 0 < len(calls) == counts[Cell] < 300
    assert len(report.cells) == 10_000

    # One more data sheet of 2,000 cells adds no CellRef to the load.
    bigger = {"sheets": doc["sheets"] + [{"name": "More", "cells": [
        {"ref": f"A{r}", "value": r} for r in range(1, 2_001)]}]}
    with monkeypatch.context() as patch:
        counts = {Cell: 0, CellRef: 0}
        _counting(patch, CellRef, counts)
        load_workbook_doc(doc)
        small = counts[CellRef]
        counts[CellRef] = 0
        load_workbook_doc(bigger)
    assert counts[CellRef] == small


def test_lazy_views_equal_the_per_cell_loaders_cells():
    doc = generate_large_workbook_doc()
    wb, want = load_workbook_doc(doc), loader_oracle.load_workbook_doc(doc)
    assert _cells(wb) == _cells(want)
    assert list(wb.iter_cells()) == list(want.iter_cells())
    assert ([c for c in wb.iter_cells() if c.is_formula]
            == [c for c in want.iter_cells() if c.is_formula])
    assert all(wb.cell(c.address) == c for c in want.iter_cells())
    assert wb.cell("Data!AY36") is None and wb.cell("Nope!A1") is None
    g = build_graph(wb)
    cells = list(want.iter_cells())  # node i is cells[i]
    assert [g.workbook.cell(g.address_of(i)) for i in range(len(cells))] == cells
