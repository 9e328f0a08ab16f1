import contextlib
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cellgauge
from cellgauge import graph as graph_module
from cellgauge import report as report_module
from cellgauge.cli import main
from cellgauge.errors import FormatError
from cellgauge.graph import build_graph
from cellgauge.refs import quote_sheet_name
from cellgauge.reliability import adjusted_cell_rate
from cellgauge.report import AnalysisConfig, analyze, analyze_workbook, emit_report
from cellgauge.workbook import load_workbook

from conftest import FIVE_CELL_SHEETS, NINE_CELL_SHEETS, make_workbook
from test_conditionals import ORACLE_FIXTURES


def write_doc(tmp_path, sheets, name="wb.json"):
    doc = {"sheets": []}
    for sheet_name, cells in sheets.items():
        entries = []
        for ref, content in cells.items():
            if isinstance(content, str) and content.startswith("="):
                entries.append({"ref": ref, "formula": content})
            else:
                entries.append({"ref": ref, "value": content})
        doc["sheets"].append({"name": sheet_name, "cells": entries})
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def five_cell_path(tmp_path):
    return write_doc(tmp_path, FIVE_CELL_SHEETS)


def test_analyze_five_cell_fixture(five_cell_path):
    report = analyze(five_cell_path)
    assert report.exit_code() == 0
    assert len(report.cascades) == 1
    entry = report.cascades[0]
    assert entry.stats.cell_count == 5
    assert abs(entry.reliability.uniform_e - 0.0961) <= 5e-5


def test_analyze_empty_workbook(tmp_path):
    path = write_doc(tmp_path, {"S": {}})
    report = analyze(path)
    assert report.exit_code() == 0
    assert report.cells == [] and report.cascades == []
    d = report.as_dict()
    assert d["cells"] == [] and d["cascades"] == []


def test_analyze_cycle(tmp_path):
    path = write_doc(tmp_path, {"S": {"A1": "=B1", "B1": "=A1"}})
    report = analyze(path)
    assert report.exit_code() == 3
    assert report.cascades is None
    codes = {w.code for w in report.warnings}
    assert "W004" in codes
    w004 = next(w for w in report.warnings if w.code == "W004")
    assert "S!A1" in w004.message and "S!B1" in w004.message
    assert report.as_dict()["cascades"] is None
    # Graph-independent sections survive.
    assert len(report.cells) == 2


def test_analyze_with_warnings_exit_one(tmp_path):
    path = write_doc(tmp_path, {"S": {"A1": "=SUM("}})
    report = analyze(path)
    assert report.exit_code() == 1
    assert [w.code for w in report.warnings] == ["W001"]


def test_warning_catalog(tmp_path):
    path = write_doc(tmp_path, {
        "In": {"A1": 1},
        "Out": {
            "A1": "=SUM(",             # W001
            "A2": "=Missing!B1",       # W002
            "A3": "=In!A1+Z99",        # W003 (Z99 empty) + W006 (cross-sheet)
        },
    })
    report = analyze(path)
    codes = {w.code for w in report.warnings}
    assert codes == {"W001", "W002", "W003", "W006"}


def test_range_violation_warning(tmp_path):
    cells = {f"A{r}": float(r) for r in range(1, 6)}
    cells.update({f"B{r}": f"=SUM(A{r}:A{r + 1})" for r in range(1, 6)})
    path = write_doc(tmp_path, {"S": cells})
    report = analyze(path)
    assert any(w.code == "W005" for w in report.warnings)
    assert any(f.verdict == "violation" for f in report.range_findings)


def test_json_round_trip_and_schema(five_cell_path):
    report = analyze(five_cell_path)
    payload = emit_report(report, "json")
    parsed = json.loads(payload)
    assert parsed == report.as_dict()
    assert sorted(parsed) == [
        "cascades", "cells", "config", "meta", "modular", "range_findings",
        "warnings",
    ]
    cell_keys = {
        "address", "n_operators", "n_operands", "depth_of_nesting",
        "avg_nesting_level", "decision_count", "n_references", "dispersion",
        "delta_sum", "col_span", "row_span", "cross_sheet_ref_count",
        "mixed_axis_flag", "forward_ref_count",
    }
    assert set(parsed["cells"][0]) == cell_keys
    cascade_keys = {
        "terminal", "cell_count", "total_paths", "avg_reachability",
        "avg_path_length", "max_path_length", "uniform_e", "adjusted_e",
        "conditionals",
    }
    assert set(parsed["cascades"][0]) == cascade_keys
    assert parsed["cascades"][0]["conditionals"][0].keys() == {"cell", "o_value"}
    assert parsed["meta"]["input_sha256"]


def test_json_deterministic(five_cell_path):
    a = emit_report(analyze(five_cell_path), "json")
    b = emit_report(analyze(five_cell_path), "json")
    assert a == b


def test_json_deterministic_across_processes(five_cell_path):
    # The children import the package this test imported, installed or not.
    package_root = str(Path(cellgauge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)

    def run():
        return subprocess.run(
            [sys.executable, "-m", "cellgauge.cli", "analyze", str(five_cell_path)],
            capture_output=True, check=True, env=env,
        ).stdout

    assert run() == run()


def test_text_one_row_per_cell(tmp_path, monkeypatch):
    monkeypatch.setenv("CELLGAUGE_NO_COLOR", "1")
    path = write_doc(tmp_path, {"S": {"A1": 7}})
    text = emit_report(analyze(path), "text").decode()
    rows = [line for line in text.splitlines() if line.startswith("S!")]
    assert len(rows) == 1 and rows[0].startswith("S!A1")


def test_text_report_ranks_cells_as_sorting_them_all_does(monkeypatch):
    # Thirty data cells tie on their rate, and their address texts sort
    # apart from sheet order (S!A10 before S!A2); copies share a record.
    monkeypatch.setenv("CELLGAUGE_NO_COLOR", "1")
    cells = {f"A{r}": float(r) for r in range(1, 31)}
    cells.update({f"B{r}": f"=A{r}*2" for r in range(1, 4)}, C1="=SUM(A1:A30)")
    report = analyze_workbook(make_workbook({"S": cells, "T-1": {"A1": 1, "B1": "=S!A1+A1"}}))
    text = emit_report(report, "text").decode()  # before anything reads report.cells
    want = sorted(report.cells, key=lambda m: (-adjusted_cell_rate(m), m.address.render()))
    table = text.split("TOP RISK CELLS")[1].split("\n\n")[0].splitlines()[3:]
    assert [line.split()[:2] for line in table] == [
        [m.address.render(), f"{adjusted_cell_rate(m):.4f}"] for m in want[:20]]
    assert "cells: 36 (5 formulas)" in text


def test_no_color_env(five_cell_path, monkeypatch):
    monkeypatch.setenv("CELLGAUGE_NO_COLOR", "1")
    plain = emit_report(analyze(five_cell_path), "text")
    assert b"\x1b[" not in plain
    monkeypatch.delenv("CELLGAUGE_NO_COLOR")
    styled = emit_report(analyze(five_cell_path), "text")
    assert b"\x1b[" in styled


# --- CLI -------------------------------------------------------------------------


def test_cli_analyze_json_stdout(five_cell_path, capsys):
    code = main(["analyze", str(five_cell_path)])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["cascades"][0]["cell_count"] == 5
    assert parsed["cascades"][0]["uniform_e"] == pytest.approx(0.0961, abs=5e-5)


def test_cli_analyze_out_file(five_cell_path, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["analyze", str(five_cell_path), "--out", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out_path.read_text())["meta"]["tool"] == "cellgauge"


@pytest.mark.parametrize("where, reason", [
    ("missing/dir/r.json", "No such file or directory"),
    (".", "Is a directory"),
])
def test_cli_analyze_unwritable_out_exits_two(five_cell_path, tmp_path, capsys, where, reason):
    out = tmp_path / where
    assert main(["analyze", str(five_cell_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write report to {out}: {reason}\n"


def run_cli(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """``cellgauge`` run in a child process, on the package this test imported."""
    package_root = str(Path(cellgauge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "cellgauge.cli", *args],
                          stderr=subprocess.PIPE, env=env, **kwargs)


@pytest.mark.parametrize("stdout, reason", [
    ("/dev/full", "No space left on device"), (None, "it is closed")])
@pytest.mark.parametrize("command", [["analyze"], ["analyze", "--format", "text"],
                                     ["paths", "--cell", "S!B1"], ["check-ranges"]])
def test_cli_unwritable_stdout_exits_two(tmp_path, command, stdout, reason):
    # One error line, no traceback and no "Exception ignored" at exit.
    path = write_doc(tmp_path, {"S": {"A1": 1, "B1": "=A1*2"}})
    args = [command[0], str(path), *command[1:]]
    if stdout is None:
        done = run_cli(args, preexec_fn=lambda: os.close(1))
    elif not os.path.exists(stdout):
        pytest.skip(f"no {stdout} here")
    else:
        with open(stdout, "wb") as full:
            done = run_cli(args, stdout=full)
    assert done.returncode == 2
    assert done.stderr.decode() == f"error: cannot write to standard output: {reason}\n"


def test_cli_analyze_text(five_cell_path, capsys, monkeypatch):
    monkeypatch.setenv("CELLGAUGE_NO_COLOR", "1")
    code = main(["analyze", str(five_cell_path), "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "TOP RISK CELLS" in out and "CASCADES" in out


def test_cli_flags_echoed_in_config(five_cell_path, capsys):
    main([
        "analyze", str(five_cell_path),
        "--alpha", "0.02", "--beta", "0.1", "--cer", "0.01",
        "--dispersion-mode", "manhattan", "--flag-dr", "0.9", "--flag-span", "5",
    ])
    cfg = json.loads(capsys.readouterr().out)["config"]
    assert cfg["alpha"] == 0.02
    assert cfg["beta"] == 0.1
    assert cfg["base_cer"] == 0.01
    assert cfg["dispersion_mode"] == "manhattan"
    assert cfg["flag_dr"] == 0.9 and cfg["flag_span"] == 5


def test_cli_weights_file(five_cell_path, tmp_path, capsys):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"tokens": 2, "span": 0, "cap": 0.5}))
    code = main(["analyze", str(five_cell_path), "--weights", str(weights)])
    cfg = json.loads(capsys.readouterr().out)["config"]
    assert code == 0
    assert cfg["weights"]["tokens"] == 2.0
    assert cfg["weights"]["span"] == 0.0
    assert cfg["cap"] == 0.5


def test_cli_bad_weights_file(five_cell_path, tmp_path, capsys):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"bogus": 1}))
    code = main(["analyze", str(five_cell_path), "--weights", str(weights)])
    assert code == 2
    assert "unknown weight keys" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("nope", "error: invalid weights file: Expecting value: line 1 column 1 (char 0)"),
    ("[1]", "error: weights file must be a JSON object"),
    ('{"tokens": "x"}', "error: weight 'tokens' must be a number"),
], ids=["not_json", "not_an_object", "not_a_number"])
def test_cli_faulty_weights_file_exits_two_with_one_line(five_cell_path, tmp_path, capsys,
                                                         text, message):
    weights = tmp_path / "w.json"
    weights.write_text(text)
    assert main(["analyze", str(five_cell_path), "--weights", str(weights)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert captured.out == ""


@pytest.mark.parametrize("formula, message", [
    ("=SUM(A2:)", "expected cell reference after ':' (at offset 8)"),
    ("=SUM(A2:S!B3)", "sheet qualifier belongs on the range start (at offset 8)"),
    ("=SUM(A2 B3)", "unexpected 'B3' in argument list (at offset 8)"),
], ids=["no_range_end", "sheet_on_range_end", "missing_comma"])
def test_faulty_range_syntax_is_one_w001(tmp_path, capsys, formula, message):
    path = write_doc(tmp_path, {"S": {"A1": formula}})
    assert main(["analyze", str(path)]) == 1
    warnings = json.loads(capsys.readouterr().out)["warnings"]
    assert [(w["code"], w["address"], w["message"]) for w in warnings] == [
        ("W001", "S!A1", message)]


def test_cli_sheet_entry_that_is_not_an_object_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"sheets": [1]}')
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == "error: sheet entry must be an object\n"


def test_library_rejects_unknown_formats(five_cell_path):
    with pytest.raises(FormatError, match="unknown format 'xlsx'"):
        load_workbook(five_cell_path, format="xlsx")
    with pytest.raises(ValueError, match="unknown report format 'xml'"):
        emit_report(analyze(five_cell_path), "xml")


def test_cli_missing_file(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_invalid_doc(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"sheets": [{"name": "S", "cells": [], "x": 1}]}')
    assert main(["analyze", str(path)]) == 2


def test_cli_warning_exit(tmp_path, capsys):
    path = write_doc(tmp_path, {"S": {"A1": "=SUM("}})
    assert main(["analyze", str(path)]) == 1


def test_cli_cycle_exit_and_report(tmp_path, capsys):
    path = write_doc(tmp_path, {"S": {"A1": "=B1", "B1": "=A1"}})
    code = main(["analyze", str(path)])
    out = capsys.readouterr().out
    assert code == 3
    assert json.loads(out)["cascades"] is None


def test_cli_paths(tmp_path, capsys):
    path = write_doc(tmp_path, {"S": {
        "A1": 1, "B1": "=A1*2", "B2": "=A1+1", "C1": "=B1+B2",
    }})
    code = main(["paths", str(path), "--cell", "S!C1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2 path(s) to S!C1"
    assert "S!A1 -> S!B1 -> S!C1" in lines
    assert "S!A1 -> S!B2 -> S!C1" in lines


def test_cli_paths_limit(tmp_path, capsys):
    path = write_doc(tmp_path, {"S": {
        "A1": 1, "B1": "=A1*2", "B2": "=A1+1", "C1": "=B1+B2",
    }})
    assert main(["paths", str(path), "--cell", "S!C1", "--limit", "1"]) == 1


def test_cli_paths_unknown_cell(tmp_path, capsys):
    path = write_doc(tmp_path, {"S": {"A1": 1}})
    assert main(["paths", str(path), "--cell", "S!Z9"]) == 2
    assert capsys.readouterr().err == "error: no such cell in graph: S!Z9\n"


@pytest.mark.parametrize("limit", ["-1", "-40"])
def test_cli_paths_negative_limit_exits_two(tmp_path, capsys, limit):
    path = write_doc(tmp_path, {"S": {"A1": 1, "B1": "=A1*2"}})
    assert main(["paths", str(path), "--cell", "S!B1", "--limit", limit]) == 2
    assert capsys.readouterr().err == f"error: path limit must be non-negative, got {limit}\n"


def test_cli_paths_cycle(tmp_path, capsys):
    path = write_doc(tmp_path, {"S": {"A1": "=B1", "B1": "=A1"}})
    assert main(["paths", str(path), "--cell", "S!A1"]) == 3


def test_cli_paths_internal_value_error_exits_four(tmp_path, capsys, monkeypatch):
    # paths caught every ValueError as invalid input, so a fault in the
    # graph's own code read as exit 2; only a --cell that is no address is.
    def broken(*args, **kwargs):
        raise ValueError("boom")

    path = write_doc(tmp_path, {"S": {"A1": 1, "B1": "=A1*2"}})
    assert main(["paths", str(path), "--cell", "S!9"]) == 2
    assert capsys.readouterr().err == "error: not a cell reference: 'S!9'\n"
    monkeypatch.setattr("cellgauge.graph.CellGraph.enumerate_paths", broken)
    assert main(["paths", str(path), "--cell", "S!B1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error in paths: ValueError: boom\n"


def test_cli_paths_reads_the_file_before_the_cell(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["paths", str(missing), "--cell", "not a cell"]) == 2
    assert str(missing) in capsys.readouterr().err


def test_cli_check_ranges_ok(tmp_path, capsys):
    cells = {f"A{r}": float(r) for r in range(1, 7)}
    cells.update({f"B{r}": f"=SUM(A{r}:A{r + 1})" for r in range(1, 6)})
    path = write_doc(tmp_path, {"S": cells})
    code = main(["check-ranges", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out


def test_cli_check_ranges_violation(tmp_path, capsys):
    cells = {f"A{r}": float(r) for r in range(1, 6)}
    cells.update({f"B{r}": f"=SUM(A{r}:A{r + 1})" for r in range(1, 6)})
    path = write_doc(tmp_path, {"S": cells})
    code = main(["check-ranges", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "VIOLATION" in out


def test_cli_check_ranges_none(tmp_path, capsys):
    path = write_doc(tmp_path, {"S": {"A1": 1}})
    assert main(["check-ranges", str(path)]) == 0
    assert "no copied-formula runs" in capsys.readouterr().out


# Range linkage reads each reference's targets from the graph. On the cyclic
# workbook every copied run is part of a cycle; on the other, some reference
# slots name a missing sheet and are skipped.
CHECK_RANGES_CASES = {
    "cyclic": (
        {**{f"A{r}": float(r) for r in range(1, 5)},
         **{f"B{r}": f"=SUM(A{r}:A{r + 1})+C{r}" for r in range(1, 5)},
         **{f"C{r}": f"=$A$1*D{r}" for r in range(1, 5)},
         **{f"D{r}": f"=B{r}" for r in range(1, 5)}},
        [
            "VIOLATION S!B1:B4 [relative, s=2] source S!A1:A4 expected 5 actual 4",
            "OK        S!B1:B4 [relative, s=1] source S!C1:C4 expected 4 actual 4",
            "VIOLATION S!C1:C4 [absolute, s=1] source S!A1:A4 expected 1 actual 4",
            "OK        S!C1:C4 [relative, s=1] source S!D1:D4 expected 4 actual 4",
            "OK        S!D1:D4 [relative, s=1] source S!B1:B4 expected 4 actual 4",
        ],
    ),
    "missing_sheet": (
        {**{f"A{r}": float(r) for r in range(1, 4)},
         **{f"B{r}": f"=Nope!A{r}+SUM($A$1:$A$2)+A{r}" for r in range(1, 5)},
         **{f"{c}6": f"=Gone!{c}1*{c}5" for c in "ABC"}},
        [
            "VIOLATION S!B1:B4 [absolute, s=2] source S!A1:A3 expected 2 actual 3",
            "VIOLATION S!B1:B4 [relative, s=1] source S!A1:A3 expected 4 actual 3",
            "VIOLATION S!A6:C6 [relative, s=1] source S!A5:C5 expected 3 actual 0",
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(CHECK_RANGES_CASES))
def test_cli_check_ranges_reads_the_graph(tmp_path, capsys, case):
    cells, lines = CHECK_RANGES_CASES[case]
    path = write_doc(tmp_path, {"S": cells})
    assert main(["check-ranges", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == lines
    assert captured.err == ""


@pytest.mark.parametrize("text, message", [
    # An unterminated quote would swallow the formula into one string cell.
    ('1,"abc\n=A1+1\n', "invalid CSV at line 2: unexpected end of data"),
    ('1\n"ab"c,2\n', "invalid CSV at line 2: ',' expected after '\"'"),
    ("a" * 131_073 + "\n",
     "invalid CSV at line 1: field larger than field limit (131072)"),
], ids=["unterminated_quote", "text_after_quote", "field_too_large"])
@pytest.mark.parametrize("command", ["analyze", "check-ranges"])
def test_csv_load_errors_exit_two(tmp_path, capsys, command, text, message):
    path = tmp_path / "grid.csv"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_csv_input_via_cli(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    path.write_text("3,=A1*2\n")
    code = main(["analyze", str(path)])
    parsed = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(parsed["cells"]) == 2


def test_analyze_reads_input_once(five_cell_path, tmp_path, monkeypatch):
    # The file is replaced right after its first read, so a second read would
    # analyze other bytes than the digest describes.
    analyzed = five_cell_path.read_bytes()
    replacement = write_doc(tmp_path, {"S": {"A1": 1}}, name="other.json").read_bytes()
    reads = []

    def read_once(real):
        def read(self, *args, **kwargs):
            content = real(self, *args, **kwargs)
            if self == five_cell_path:
                reads.append(self)
                five_cell_path.write_bytes(replacement)
            return content
        return read

    monkeypatch.setattr(Path, "read_bytes", read_once(Path.read_bytes))
    monkeypatch.setattr(Path, "read_text", read_once(Path.read_text))
    report = analyze(five_cell_path)
    assert len(reads) == 1
    assert report.input_digest == hashlib.sha256(analyzed).hexdigest()
    assert report.cascades[0].stats.cell_count == 5


def test_analyze_workbook_in_memory():
    wb = make_workbook(FIVE_CELL_SHEETS)
    report = analyze_workbook(wb, AnalysisConfig())
    assert report.cascades[0].stats.cell_count == 5


def digit_limit() -> int:
    """The interpreter's limit on int-to-text digits; 0 where it has none."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


@contextlib.contextmanager
def no_digit_limit():
    before = digit_limit()
    if before:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if before:
            sys.set_int_max_str_digits(before)


def test_astronomical_path_counts_still_emit(monkeypatch):
    # A 1,200-cell doubling chain has 2**1199 paths, far past float range;
    # the report must stay exact for integers and saturate the averages. At
    # 14,300 cells the count has 4,305 digits, past the interpreter's default
    # limit on int-to-text digits, which emission lifts for the call only;
    # json.loads and str() need it lifted too.
    monkeypatch.setenv("CELLGAUGE_NO_COLOR", "1")
    for n in (1200, 14300):
        cells = {"A1": 1.0}
        for k in range(2, n + 1):
            cells[f"A{k}"] = f"=A{k - 1}+A{k - 1}"
        wb = make_workbook({"S": cells})
        report = analyze_workbook(wb, AnalysisConfig())
        entry = report.cascades[0]
        assert entry.stats.total_paths == 2 ** (n - 1)
        before = digit_limit()
        payload, text = emit_report(report, "json"), emit_report(report, "text")
        assert digit_limit() == before
        with no_digit_limit():
            parsed = json.loads(payload)
            assert parsed["cascades"][0]["total_paths"] == 2 ** (n - 1)
            assert str(2 ** (n - 1)).encode() in text
        assert parsed["cascades"][0]["avg_reachability"] > 0


# --- inputs that once crashed the audit ------------------------------------------


DEEP_FORMULAS = {
    "parens": lambda depth: "=" + "(" * depth + "A1" + ")" * depth,
    "ifs": lambda depth: "=" + "IF(A1>0," * depth + "1" + ",2)" * depth,
}


@pytest.mark.parametrize("shape", sorted(DEEP_FORMULAS))
def test_nesting_at_the_cap_analyzes(tmp_path, capsys, shape):
    path = write_doc(tmp_path, {"S": {"A1": 1, "B1": DEEP_FORMULAS[shape](64)}})
    assert main(["analyze", str(path)]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["warnings"] == []
    assert len(parsed["cascades"]) == 1


@pytest.mark.parametrize("formula", [
    DEEP_FORMULAS["parens"](65),
    DEEP_FORMULAS["parens"](130),
    DEEP_FORMULAS["ifs"](65),
    DEEP_FORMULAS["ifs"](400),
    "=" + "-" * 3000 + "A1",
], ids=["parens65", "parens130", "ifs65", "ifs400", "minus3000"])
def test_too_deep_formula_is_w001_data(tmp_path, capsys, formula):
    path = write_doc(tmp_path, {"S": {"A1": 1, "B1": formula}})
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == 1, captured.err
    assert captured.err == ""
    parsed = json.loads(captured.out)
    assert [(w["code"], w["address"]) for w in parsed["warnings"]] == [("W001", "S!B1")]
    assert len(parsed["cells"]) == 2


def test_long_flat_sums_analyze(tmp_path, capsys):
    # Each formula is a 2,000-level left-deep BinaryOp chain with one
    # reference; the two form one vertical copied-formula run.
    tail = "+1" * 1999
    path = write_doc(tmp_path, {"S": {
        "A1": 1, "A2": 2, "B1": "=A1" + tail, "B2": "=A2" + tail,
    }})
    assert main(["analyze", str(path)]) == 0
    parsed = json.loads(capsys.readouterr().out)
    (finding,) = parsed["range_findings"]
    assert finding["target_range"] == "S!B1:B2"
    assert finding["verdict"] == "ok"
    assert {c["address"]: c["n_operands"] for c in parsed["cells"]}["S!B1"] == 2000


def test_unexpected_exception_exits_four(five_cell_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("cellgauge.cli.analyze", broken)
    assert main(["analyze", str(five_cell_path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error in analyze: RuntimeError: boom\n"


# --- Cyclic garbage collection during a command ------------------------------------


@pytest.mark.parametrize("gc_on", [True, False], ids=["gc_on", "gc_off"])
@pytest.mark.parametrize("expected_exit", [0, 2, 4])
def test_gc_setting_restored_after_command(five_cell_path, tmp_path, capsys,
                                            monkeypatch, gc_on, expected_exit):
    path = five_cell_path if expected_exit != 2 else tmp_path / "missing.json"
    if expected_exit == 4:
        def broken(*args, **kwargs):
            assert not gc.isenabled()
            raise RuntimeError("boom")

        monkeypatch.setattr("cellgauge.cli.analyze", broken)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if gc_on else gc.disable()
        assert main(["analyze", str(path), "--out", str(tmp_path / "r.json")]) == expected_exit
        assert gc.isenabled() == gc_on
    finally:
        gc.enable() if was_enabled else gc.disable()


def bad_formula_doc(n: int) -> dict:
    """n cells of each kind of problem: W001 syntax errors, W002 references
    to a missing sheet, W003 empty precedents, plus one W004 cycle."""
    cells = {}
    for r in range(1, n + 1):
        cells[f"A{r}"] = f"=SUM(B{r}"
        cells[f"C{r}"] = f"=Nope!A{r}+1"
        cells[f"D{r}"] = f"=E{r}*2"
    cells["F1"], cells["F2"] = "=F2", "=F1"
    return {"S": cells}


def test_audit_leaves_no_garbage_that_grows_with_the_input(tmp_path):
    # The CLI runs with cyclic collection off, which is safe only if the
    # garbage an audit leaves behind does not grow with the workbook.
    unreachable = {}
    was_enabled = gc.isenabled()
    try:
        for n in (100, 2000):
            path = write_doc(tmp_path, bad_formula_doc(n), name=f"bad{n}.json")
            gc.collect()
            gc.disable()
            assert main(["analyze", str(path), "--out", str(tmp_path / "r.json")]) == 3
            unreachable[n] = gc.collect()
    finally:
        gc.enable() if was_enabled else gc.disable()
    codes = {w["code"] for w in json.loads((tmp_path / "r.json").read_text())["warnings"]}
    assert codes >= {"W001", "W002", "W003", "W004"}
    assert unreachable[100] == unreachable[2000]


# --- Range budget -------------------------------------------------------------

# C1's range A1:B5 reads 2 cells and brings 8 empty ones into the graph
# (10 + 8 x 9 = 82); C2's range $A$1:A3 reads 3 cells that are nodes by then
# (3), 85 in all. C3 reads a missing sheet's range, which expands to nothing.
BUDGET_SHEETS = {"S": {"A1": 1, "A2": 2, "C1": "=SUM(A1:B5)", "C2": "=SUM($A$1:A3)+A1",
                       "C3": "=SUM(Nope!A1:Z99)"}}


@pytest.mark.parametrize("command", [
    ["analyze"], ["analyze", "--format", "text"], ["check-ranges"],
    ["paths", "--cell", "S!C1"],
])
def test_range_budget_exceeded_exits_two_naming_cell_and_range(tmp_path, capsys, command):
    path = write_doc(tmp_path, BUDGET_SHEETS)
    assert main([command[0], str(path), *command[1:], "--max-range-cells", "84"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: range $A$1:A3 in cell S!C2 takes the range budget past its limit "
        "of 84 (--max-range-cells)\n")


def test_range_budget_counts_each_range_and_its_empty_cells(tmp_path, capsys):
    path = write_doc(tmp_path, BUDGET_SHEETS)
    assert main(["analyze", str(path), "--max-range-cells", "85"]) == 1
    within = capsys.readouterr().out
    # A1:B5's area fits in 81, but its empty cells take the budget past it.
    assert main(["analyze", str(path), "--max-range-cells", "81"]) == 2
    assert "range A1:B5 in cell S!C1 " in capsys.readouterr().err
    assert main(["analyze", str(path), "--max-range-cells", "0"]) == 2
    assert "range A1:B5 in cell S!C1 " in capsys.readouterr().err
    # The budget bounds the work, not the result: the report does not list it.
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().out == within
    assert "max_range_cells" not in json.loads(within)["config"]


def test_running_total_fits_the_default_range_budget(tmp_path, capsys):
    # SUM($A$1:Ar) copied down 1,500 rows reads 1,125,750 populated cells,
    # ~100 MB of arcs.
    rows = 1500
    sheet = {f"A{r}": 1 for r in range(1, rows + 1)}
    sheet.update({f"B{r}": f"=SUM($A$1:A{r})" for r in range(1, rows + 1)})
    path = write_doc(tmp_path, {"G": sheet})
    assert main(["analyze", str(path), "--out", str(tmp_path / "report.json")]) == 0
    assert main(["check-ranges", str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", [["analyze"], ["check-ranges"], ["paths", "--cell", "S!C1"]])
def test_negative_range_budget_exits_two(five_cell_path, capsys, command):
    args = [command[0], str(five_cell_path), *command[1:], "--max-range-cells", "-1"]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "error: max_range_cells must be a non-negative integer, got -1\n")


def test_range_budget_in_the_library():
    wb = make_workbook(BUDGET_SHEETS)
    analyze_workbook(wb, AnalysisConfig(max_range_cells=85))
    with pytest.raises(cellgauge.RangeBudgetError) as caught:
        analyze_workbook(wb, AnalysisConfig(max_range_cells=84))
    error = caught.value
    assert (error.cell, error.range, error.limit) == ("S!C2", "$A$1:A3", 84)
    for bad in (-1, True, 2.0):
        with pytest.raises(cellgauge.DomainError):
            AnalysisConfig(max_range_cells=bad)
        with pytest.raises(cellgauge.DomainError):
            build_graph(wb, bad)


# --- The cascade budget ------------------------------------------------------------

# A1 heads a chain down to A30, and B1..B30 each read its end: 30 cascades
# of 31 members, 930 in all.
CONE_SHEETS = {"S": {"A1": 1, **{f"A{r}": f"=A{r - 1}+1" for r in range(2, 31)},
                     **{f"B{r}": f"=A$30*{r}" for r in range(1, 31)}}}


def test_cascade_budget_in_the_library(monkeypatch):
    wb = make_workbook(CONE_SHEETS)
    monkeypatch.setattr(report_module, "MAX_CASCADE_CELLS", 930)
    report = analyze_workbook(wb)
    assert sum(e.stats.cell_count for e in report.cascades) == 930
    monkeypatch.setattr(report_module, "MAX_CASCADE_CELLS", 929)
    with pytest.raises(cellgauge.CascadeBudgetError) as caught:
        analyze_workbook(wb)
    assert (caught.value.cell, caught.value.limit) == ("S!B30", 929)
    monkeypatch.setattr(report_module, "MAX_CASCADE_CELLS", 0)
    with pytest.raises(cellgauge.CascadeBudgetError) as caught:
        analyze_workbook(wb)
    assert caught.value.cell == "S!B1"


def test_graph_queries_draw_on_no_cascade_budget(monkeypatch):
    # The budget bounds one audit's cascades; a graph answers every query,
    # the same one twice included, under the tightest budget.
    monkeypatch.setattr(report_module, "MAX_CASCADE_CELLS", 31)
    g = build_graph(make_workbook(CONE_SHEETS))
    first = g.cascade_stats("S!B8")
    assert first.cell_count == 31
    assert g.cascade_stats("S!B8") == first
    assert all(len(g.member_ids(f"S!B{r}")) == 31 for r in range(1, 31))


def test_cascade_budget_exceeded_exits_two_naming_the_terminal(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, CONE_SHEETS)
    # Exit 1: the chain is a copied run that reads itself (W005).
    assert main(["analyze", str(path)]) == 1
    within = capsys.readouterr().out
    monkeypatch.setattr(report_module, "MAX_CASCADE_CELLS", 930)
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().out == within
    monkeypatch.setattr(report_module, "MAX_CASCADE_CELLS", 929)
    assert main(["analyze", str(path), "--format", "text"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: cascade of cell S!B30 takes the cascade budget past its limit "
        "of 929 members\n")


@pytest.mark.parametrize("sheets", [FIVE_CELL_SHEETS, NINE_CELL_SHEETS, CONE_SHEETS,
                                    *({"S": cells} for cells in ORACLE_FIXTURES)])
def test_every_fixture_fits_the_default_cascade_budget(sheets, monkeypatch):
    # The default budget is far above what any fixture's cascades hold, and
    # a budget of exactly their members gives the same report.
    wb = make_workbook(sheets)
    report = emit_report(analyze_workbook(wb))
    cascades = json.loads(report)["cascades"] or []
    members = sum(c["cell_count"] for c in cascades)
    assert members <= report_module.MAX_CASCADE_CELLS == 100_000_000
    monkeypatch.setattr(report_module, "MAX_CASCADE_CELLS", members)
    assert emit_report(analyze_workbook(wb)) == report
    if members:
        monkeypatch.setattr(report_module, "MAX_CASCADE_CELLS", members - 1)
        with pytest.raises(cellgauge.CascadeBudgetError):
            analyze_workbook(wb)


def cone_sheets(terminals: int) -> dict:
    """CONE_SHEETS with ``terminals`` cells B1.. reading the chain's end."""
    return {"S": {**CONE_SHEETS["S"], **{f"B{r}": f"=A$30*{r}" for r in range(1, terminals + 1)}}}


@pytest.mark.parametrize("terminals", [30, 300])
def test_terminals_that_read_the_same_cells_share_one_cone_walk(terminals, monkeypatch):
    wb = make_workbook(cone_sheets(terminals))
    graphs, walks = [], []
    reach = graph_module._reach

    def built(*args):
        graphs.append(build_graph(*args))
        return graphs[-1]

    def counted(ids, links):
        walks.append(links)
        return reach(ids, links)

    monkeypatch.setattr(report_module, "build_graph", built)
    monkeypatch.setattr(graph_module, "_reach", counted)
    report = analyze_workbook(wb)
    assert [e.stats.cell_count for e in report.cascades] == [31] * terminals
    precedents = graphs[0].reference_columns()[0]
    assert sum(links is precedents for links in walks) == 1


# Two chains, A1..A10 and C1..C20. B1..B5 read A10 and D1..D5 read C20, so
# canonical order interleaves the two groups: B1 (11 members), D1 (21), B2,
# D2, B3 and D3, where 85 members run out.
INTERLEAVED_SHEETS = {"S": {
    "A1": 1, **{f"A{r}": f"=A{r - 1}+1" for r in range(2, 11)},
    "C1": 1, **{f"C{r}": f"=C{r - 1}*2" for r in range(2, 21)},
    **{f"B{r}": f"=A$10*{r}" for r in range(1, 6)},
    **{f"D{r}": f"=C$20+{r}" for r in range(1, 6)}}}


def test_cascade_budget_names_the_terminal_inside_an_interleaved_group(monkeypatch):
    wb = make_workbook(INTERLEAVED_SHEETS)
    monkeypatch.setattr(report_module, "MAX_CASCADE_CELLS", 85)
    with pytest.raises(cellgauge.CascadeBudgetError) as caught:
        analyze_workbook(wb)
    assert (caught.value.cell, caught.value.limit) == ("S!D3", 85)
    assert str(caught.value) == (
        "cascade of cell S!D3 takes the cascade budget past its limit of 85 members")


def test_the_group_that_trips_the_budget_gets_no_rates_or_conditionals(monkeypatch):
    # 300 terminals of 31 members share one cone, and the 100th passes
    # 3,100 - 1 members: the audit stops after the walk, before any
    # terminal's product or finals, so only the walk runs past the budget.
    wb = make_workbook(cone_sheets(300))
    called = []
    monkeypatch.setattr(report_module, "cascade_reliability",
                        lambda *args: called.append("rates"))
    monkeypatch.setattr(report_module, "cascade_finals",
                        lambda *args: called.append("finals"))
    monkeypatch.setattr(report_module, "MAX_CASCADE_CELLS", 31 * 100 - 1)
    with pytest.raises(cellgauge.CascadeBudgetError) as caught:
        analyze_workbook(wb)
    assert caught.value.cell == "S!B100"
    assert called == []


# --- Exit 2 for undecodable bytes and non-finite options ------------------------

def test_workbook_that_is_not_utf8_exits_two_naming_the_file(tmp_path, capsys):
    path = tmp_path / "wb.json"
    path.write_bytes(b'{"sheets": [{"name": "S", "cells": [{"ref": "A1", "value": "\xff"}]}]}')
    for command in (["analyze", str(path)], ["check-ranges", str(path)],
                    ["paths", str(path), "--cell", "S!A1"]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not valid UTF-8: ")
        assert "internal error" not in err


def test_weights_file_that_is_not_utf8_exits_two_naming_the_file(five_cell_path, tmp_path,
                                                                  capsys):
    weights = tmp_path / "w.json"
    weights.write_bytes(b'\xff\xfe{\x00}\x00')
    assert main(["analyze", str(five_cell_path), "--weights", str(weights)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: weights file {weights} is not valid UTF-8: ")


@pytest.mark.parametrize("flags, message", [
    (["--alpha", "inf"], "alpha must be a finite number, got inf"),
    (["--alpha", "nan"], "alpha must be a finite number, got nan"),
    (["--beta", "nan"], "beta must be a finite number, got nan"),
    (["--beta", "inf"], "beta must be a finite number, got inf"),
    (["--flag-dr", "nan"], "flag_dr must be a finite number, got nan"),
    (["--flag-dr=-inf"], "flag_dr must be a finite number, got -inf"),
    (["--cer", "nan"], "base_cer must be a finite number, got nan"),
])
def test_non_finite_options_exit_two(five_cell_path, capsys, flags, message):
    assert main(["analyze", str(five_cell_path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ('{"tokens": NaN}', "w_tokens must be a finite number, got nan"),
    ('{"depth": 1e400}', "w_depth must be a finite number, got inf"),
    ('{"span": -Infinity}', "w_span must be a finite number, got -inf"),
    ('{"cap": Infinity}', "cap must be a finite number, got inf"),
    ('{"data_cell_factor": 1' + "0" * 400 + "}",
     "data_cell_factor must be a finite number, got inf"),
])
def test_non_finite_weights_exit_two(five_cell_path, tmp_path, capsys, text, message):
    weights = tmp_path / "w.json"
    weights.write_text(text)
    assert main(["analyze", str(five_cell_path), "--weights", str(weights)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# --- Exit 2 for text that is not valid Unicode ----------------------------------

# A JSON "\ud800" escape decodes to a lone surrogate, which no UTF-8 report,
# text line or printed path can carry. Each such text exits 2 at load, with
# one line naming its sheet or cell, in every command.
@pytest.mark.parametrize("sheets, message", [
    ({"S\ud800": {"A1": 1}}, "sheet name 'S\\ud800' is not valid Unicode"),
    ({"S": {"A1": 1, "B1": "='X\ud800'!A1+A1"}},
     "cell S!B1 formula \"='X\\ud800'!A1+A1\" is not valid Unicode"),
    ({"S": {"A1": 1, "B1": '=A1&"\udfff"'}},
     "cell S!B1 formula '=A1&\"\\udfff\"' is not valid Unicode"),
    ({"My Data": {"C3": "x\ud83d"}}, "cell 'My Data'!C3 value 'x\\ud83d' is not valid Unicode"),
])
def test_text_that_is_not_valid_unicode_exits_two_naming_it(tmp_path, capsys, sheets, message):
    path = write_doc(tmp_path, sheets)
    cell = next(f"{quote_sheet_name(name)}!A1" for name in sheets)
    for command in (["analyze", str(path)], ["analyze", str(path), "--format", "text"],
                    ["check-ranges", str(path)], ["paths", str(path), "--cell", cell]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_valid_astral_text_still_analyzes(tmp_path, capsys):
    # A surrogate pair in the JSON text is one valid code point.
    path = tmp_path / "wb.json"
    path.write_text('{"sheets": [{"name": "S\\ud83d\\ude00", "cells": ['
                    '{"ref": "A1", "value": "\\ud83d\\ude00"}, '
                    '{"ref": "B1", "formula": "=A1&\\"\\ud83d\\ude00\\""}]}]}')
    assert main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cells"][0]["address"] == "'S\U0001f600'!A1"
