import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellgauge.cli import main
from cellgauge.errors import FormatError
from cellgauge.graph import build_graph
from cellgauge.metrics import DispersionConfig, formula_metrics
from cellgauge.refs import CellRef, parse_cell_address
from cellgauge.workbook import (
    load_csv_grid,
    load_workbook,
    load_workbook_doc,
)
from cellgauge.formula import CellRefNode, RangeRefNode, walk

from conftest import make_graph, make_workbook


def test_csv_two_cell_grid():
    wb = load_csv_grid("3,=A1*2\n")
    a1 = wb.cell("Sheet1!A1")
    b1 = wb.cell("Sheet1!B1")
    assert a1.value == 3.0 and not a1.is_formula
    assert b1.is_formula and b1.ast.source == "=A1*2"


def test_csv_typing_and_quoting():
    wb = load_csv_grid('TRUE,false,hello,"=SUM(A1,B1)",1.5,"=IF(A2=""x"",1,2)"\n'
                       ',still here\n')
    assert wb.cell("Sheet1!A1").value is True
    assert wb.cell("Sheet1!B1").value is False
    assert wb.cell("Sheet1!C1").value == "hello"
    assert wb.cell("Sheet1!D1").is_formula
    assert wb.cell("Sheet1!E1").value == 1.5
    assert wb.cell("Sheet1!F1").ast.source == '=IF(A2="x",1,2)'
    assert wb.cell("Sheet1!A2") is None  # empty cells are skipped
    assert wb.cell("Sheet1!B2").value == "still here"


def test_doc_cross_sheet():
    wb, g = make_graph({
        "In": {"A1": 1},
        "Out": {"A1": "=In!A1+1"},
    })
    assert g.edge_count == 1
    assert g.precedents(CellRef("Out", 1, 1)) == [CellRef("In", 1, 1)]


def test_bad_formula_degrades_to_string_with_warning():
    wb = make_workbook({"S": {"A1": "=SUM("}})
    assert wb.warnings and wb.warnings[0].code == "W001"
    assert wb.warnings[0].address == "S!A1"
    cell = wb.cell("S!A1")
    assert not cell.is_formula and cell.value == "=SUM("


@pytest.mark.parametrize("doc", [
    {"sheets": [{"name": "S", "cells": []}], "extra": 1},
    {"sheets": [{"name": "S", "cells": [], "bogus": 1}]},
    {"sheets": [{"name": "S", "cells": [{"ref": "A1"}]}]},
    {"sheets": [{"name": "S", "cells": [{"ref": "A1", "value": 1, "formula": "=1"}]}]},
    {"sheets": [{"name": "S", "cells": [{"ref": "A1", "value": 1, "note": "x"}]}]},
    {"sheets": [{"name": "S", "cells": [{"ref": "Other!A1", "value": 1}]}]},
    {"sheets": [{"name": "S", "cells": [{"ref": "??", "value": 1}]}]},
    {"sheets": [{"name": "S", "cells": [{"ref": "A1", "value": None}]}]},
    {"sheets": [{"name": "S", "cells": [{"ref": "A1", "value": 1}, {"ref": "A1", "value": 2}]}]},
    {"sheets": [{"name": "S", "cells": []}, {"name": "s", "cells": []}]},
    {"sheets": [{"name": "", "cells": []}]},
    {"sheets": {}},
    [],
])
def test_doc_strictness(doc):
    with pytest.raises(FormatError):
        load_workbook_doc(doc)


def test_load_by_extension(tmp_path):
    doc = {"sheets": [{"name": "S", "cells": [{"ref": "A1", "value": 7}]}]}
    p = tmp_path / "wb.json"
    p.write_text(json.dumps(doc))
    wb = load_workbook(p)
    assert wb.cell("S!A1").value == 7.0
    c = tmp_path / "grid.csv"
    c.write_text("1,2\n")
    assert load_workbook(c).cell("Sheet1!B1").value == 2.0
    with pytest.raises(FormatError):
        load_workbook(tmp_path / "wb.xlsx")


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_workbook(tmp_path / "nope.json")


def test_invalid_json_is_format_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(FormatError):
        load_workbook(p)


def one_value_doc(value_text: str) -> str:
    return '{"sheets": [{"name": "S", "cells": [{"ref": "B2", "value": %s}]}]}' % value_text


@pytest.mark.parametrize("value_text, shown", [
    ("1e400", "inf"), ("-1e400", "-inf"), ("NaN", "nan"), ("Infinity", "inf"),
    ("-Infinity", "-inf"), ("1" + "0" * 400, "inf"), ("-1" + "0" * 400, "-inf"),
], ids=["1e400", "-1e400", "NaN", "Infinity", "-Infinity", "10**400", "-10**400"])
def test_non_finite_json_value_exits_two_naming_the_cell(tmp_path, capsys, value_text, shown):
    path = tmp_path / "wb.json"
    path.write_text(one_value_doc(value_text))
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cell S!B2 value must be a finite number, got {shown}\n"


@pytest.mark.parametrize("text", [
    one_value_doc("1" * 5000),  # past the interpreter's int-from-text digit limit
    "[" * 100_000,  # past the decoder's recursion limit
], ids=["long_integer", "deep_nesting"])
def test_json_the_decoder_refuses_exits_two(tmp_path, capsys, text):
    path = tmp_path / "wb.json"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid JSON: ")


def test_finite_json_values_load_as_floats():
    wb = load_workbook_doc(json.loads(one_value_doc("1.7976931348623157e308")))
    assert wb.cell("S!B2").value == 1.7976931348623157e308
    wb = load_workbook_doc(json.loads(one_value_doc("-" + "9" * 300)))
    assert wb.cell("S!B2").value == -float("9" * 300)


def test_csv_fields_that_parse_only_to_non_finite_floats_stay_text():
    wb = load_csv_grid("nan,inf,1e400,-Infinity, NaN ,2.5,-1e308\n")
    values = [wb.cell(f"Sheet1!{c}1").value for c in "ABCDEFG"]
    assert values == ["nan", "inf", "1e400", "-Infinity", " NaN ", 2.5, -1e308]


def expected_address(ref: str):
    """What ``parse_cell_address`` makes of a cell's "ref": its (column,
    row) or its error message."""
    try:
        addr = parse_cell_address(ref)
    except ValueError as exc:
        return str(exc)
    return addr.column, addr.row


def loaded_address(ref: str):
    try:
        wb = load_workbook_doc({"sheets": [{"name": "S", "cells": [{"ref": ref, "value": 1}]}]})
    except FormatError as exc:
        return str(exc)
    (cell,) = wb.iter_cells()
    assert cell.address.sheet == "S" and not cell.address.col_absolute
    return cell.address.column, cell.address.row


@pytest.mark.parametrize("ref", [
    "A1", "Z9", "AA10", "XFD1048576", "ZZZ7", "XFE3", "$A$1", "$B7", "C$8",
    "A01", "A0", "A00", "a1", "aB3", " A1", "A1 ", "\tA1\n", "AAAA1", "A", "1",
    "", "??", "A-1", "A1.5", "$$A1", "A$$1",
])
def test_cell_refs_load_as_parse_cell_address_reads_them(ref):
    assert loaded_address(ref) == expected_address(ref)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=list("$AZaz0189 \t"), max_size=8))
def test_any_cell_ref_loads_as_parse_cell_address_reads_it(ref):
    assert loaded_address(ref) == expected_address(ref)


@pytest.mark.parametrize("ref", ["XFE3", "ZZZ7", "$XFE$3", "xfe3", " XFE3"])
def test_cell_refs_past_xfd_are_format_errors(ref, tmp_path, capsys):
    # XFD (16,384) is a sheet's last column, for a ref in the plain form and
    # in parse_cell_address alike; a load names the ref and exits 2.
    assert loaded_address(ref) == f"column must be at most XFD in {ref!r}"
    path = tmp_path / "wb.json"
    path.write_text(json.dumps({"sheets": [{"name": "S", "cells": [{"ref": ref, "value": 1}]}]}))
    assert main(["analyze", str(path)]) == 2
    assert repr(ref) in capsys.readouterr().err


def test_formula_references_past_xfd_are_w001():
    wb = make_workbook({"S": {"A1": "=XFE1+1", "A2": "=1+S!$xfe$2", "A3": "=XFD1+1",
                              "A4": "=XFE1(2)"}})
    warnings = {w.address: w.message for w in wb.warnings}
    assert warnings == {
        "S!A1": "column must be at most XFD (at offset 1)",
        "S!A2": "column must be at most XFD (at offset 3)",
    }
    assert wb.cell("S!A3").is_formula
    # A bare reference before "(" is a function name, whatever its column.
    assert wb.cell("S!A4").is_formula and wb.cell("S!A4").shape.n_operators == 1


# --- resolution ---------------------------------------------------------------


def test_duplicate_references_kept():
    wb, g = make_graph({"S": {"A1": 1, "B1": "=A1+A1"}})
    assert g.precedents("S!B1") == [CellRef("S", 1, 1)] * 2
    assert g.edge_count == 2


def test_range_expansion():
    wb, g = make_graph({"S": {"B1": "=SUM(A1:A3)"}})
    got = [p.render(include_sheet=False) for p in g.precedents("S!B1")]
    assert got == ["A1", "A2", "A3"]


def test_empty_workbook_resolves_empty():
    wb, g = make_graph({"S": {}})
    assert (g.node_count, g.edge_count, g.dangling) == (0, 0, [])


def test_dangling_reference_detected():
    wb, g = make_graph({"S": {"A1": "=Missing!B2+1"}})
    assert g.precedents("S!A1") == [] and g.edge_count == 0
    assert len(g.dangling) == 1
    assert g.dangling[0].from_cell == CellRef("S", 1, 1)
    assert g.dangling[0].target_text == "Missing!B2"
    assert g.dangling[0].missing_sheet == "Missing"


def test_sheet_names_match_case_insensitively():
    wb, g = make_graph({"Data": {"A1": 5}, "Out": {"A1": "=data!A1"}})
    (p,) = g.precedents("Out!A1")
    assert p.sheet == "Data"  # canonical case restored
    assert p == wb.cell("Data!A1").address


def test_reference_conservation():
    wb, g = make_graph({"S": {
        "C1": "=A1+SUM(B1:B4)+A1*MAX(A1:B2,7)",
    }})
    cell = wb.cell("S!C1")
    singles = sum(isinstance(n, CellRefNode) for n in walk(cell.ast.root))
    area = sum(
        n.ref.width * n.ref.height
        for n in walk(cell.ast.root) if isinstance(n, RangeRefNode)
    )
    assert len(g.precedents("S!C1")) == g.edge_count == singles + area == 2 + 4 + 4


# --- deltas --------------------------------------------------------------------


def deltas_of(wb, g, addr):
    """(column delta, row delta) of each same-sheet precedent of a cell."""
    at = wb.cell(addr).address
    return [(p.column - at.column, p.row - at.row)
            for p in g.precedents(at) if p.sheet == at.sheet]


def metrics_of(formula, at="C3", mode="manhattan"):
    wb, g = make_graph({"S": {at: formula}})
    cell = wb.cell(f"S!{at}")
    return deltas_of(wb, g, cell.address), formula_metrics(
        cell, g.precedents(cell.address), DispersionConfig(mode=mode))


def test_reference_delta_examples():
    deltas, m = metrics_of("=A1")
    assert deltas == [(-2, -2)]
    assert (m.delta_sum, m.col_span, m.row_span, m.forward_ref_count) == (4, 2, 2, 0)
    deltas, m = metrics_of("=C10")
    assert deltas == [(0, 7)]
    assert (m.delta_sum, m.col_span, m.row_span, m.forward_ref_count) == (7, 0, 7, 1)


def test_reference_delta_cross_sheet_marker():
    wb, g = make_graph({"In": {"A1": 1}, "Out": {"A1": "=In!A1"}})
    assert deltas_of(wb, g, "Out!A1") == []
    m = formula_metrics(wb.cell("Out!A1"), g.precedents("Out!A1"))
    assert (m.n_references, m.cross_sheet_ref_count) == (1, 1)
    assert (m.delta_sum, m.col_span, m.row_span) == (0, 0, 0)


def test_delta_antisymmetry():
    wb, g = make_graph({"S": {"C3": "=A1", "A1": "=C3"}})
    (d1,) = deltas_of(wb, g, "S!C3")
    (d2,) = deltas_of(wb, g, "S!A1")
    assert d1 == (-d2[0], -d2[1])


def test_loading_deterministic():
    doc = {"sheets": [
        {"name": "B", "cells": [{"ref": "A2", "value": 2}, {"ref": "A1", "value": 1}]},
        {"name": "A", "cells": [{"ref": "Z9", "formula": "=B!A1"}]},
    ]}
    wb1 = load_workbook_doc(doc)
    wb2 = load_workbook_doc(doc)
    assert wb1 == wb2 and wb1.sheets[0] != wb1.sheets[1]
    other = {"sheets": [{**doc["sheets"][0], "cells": [{"ref": "A2", "value": 3}]},
                        doc["sheets"][1]]}
    assert load_workbook_doc(other) != wb1
    assert [s.name for s in wb1.sheets] == [s.name for s in wb2.sheets]
    assert [c.address for c in wb1.iter_cells()] == [c.address for c in wb2.iter_cells()]
    g1, g2 = build_graph(wb1), build_graph(wb2)
    assert g1.nodes() == g2.nodes()
    assert ([g1.precedents(c.address) for c in wb1.formula_cells()]
            == [g2.precedents(c.address) for c in wb2.formula_cells()])
