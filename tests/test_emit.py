"""The batched JSON emitter against ``json.dumps(..., indent=2)``.

``emit_report`` writes each row list through the C encoder, ``_BATCH`` rows
per call, into a template per row kind; the pure-Python one-liner it
replaced is kept here as the reference, and every report and arbitrary
JSON value must give the same bytes.
"""

import json
import math
import operator
import random
import sys
from fractions import Fraction
from typing import Union

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cellgauge import load_workbook_doc, report as report_module
from cellgauge.conditionals import ConditionalConstruct
from cellgauge.errors import W_EMPTY_REFERENCED_CELL, AuditWarning
from cellgauge.graph import CascadeStats
from cellgauge.metrics import CellMetrics, ModularMetrics, RangeLinkageFinding
from cellgauge.refs import CellRef, Locations, RangeRef, column_to_letters
from cellgauge.reliability import CascadeReliability
from cellgauge.report import (
    _BATCH,
    _CASCADE,
    _CELL,
    _CONDITIONAL,
    _FINDING,
    _TRIPLE,
    _WARNING,
    AnalysisConfig,
    CascadeEntry,
    Columns,
    WorkbookReport,
    _encode_json,
    _num,
    _row_dicts,
    _Table,
    analyze_workbook,
    emit_report,
)

from conftest import count_builds, make_workbook
from test_acceptance import generate_large_workbook_doc
from test_conditionals import ORACLE_FIXTURES
from test_graph_oracle import OracleGraph


def reference_json(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)


def reference_report(report) -> bytes:
    return (reference_json(report.as_dict()) + "\n").encode("utf-8")


def encode(value) -> str:
    out: list[str] = []
    _encode_json(value, 0, out.append)
    return "".join(out)


@pytest.fixture(scope="module")
def acceptance_report():
    return analyze_workbook(load_workbook_doc(generate_large_workbook_doc()))


# Quotes, backslashes, raw control characters, line breaks, non-ASCII and
# astral text, and the separators' own characters inside strings.
TRICKY_TEXT = st.text(
    alphabet=st.sampled_from(
        list('"\\/\n\r\t\b\f\x00\x1f\x7f ,:[]{}aZ9') + ["é", " ", "日", "\U0001f600"]
    ),
    max_size=12,
)
TEXT = st.one_of(TRICKY_TEXT, st.text(max_size=12))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10 ** 80), max_value=10 ** 80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 5e-324, -0.0]),
    TEXT,
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=600, deadline=None)
@given(JSON_VALUES)
def test_encoder_matches_indented_dumps(value):
    assert encode(value) == reference_json(value)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], {}, ()], [[[]]],
    {"": {"": [{}]}}, [1, [2, [3, [4, []]]]], {"b": 1, "a": [1, {"c": None}]},
    "line\nbreak", ["x\n  y", {"k\n": "v\r\n"}], float("nan"), [float("-inf")],
])
def test_encoder_matches_on_edge_cases(value):
    assert encode(value) == reference_json(value)


def test_rows_encode_like_lists():
    kind = _TRIPLE
    for n in (0, 1, 3, 7):
        items = [(f"P{i}", CellRef(f"Q {i}", i + 1, i % 3 + 1), "R\n") for i in range(n)]
        value = {"rows": _Table(kind, items), "tail": _Table(kind, [])}
        expected = {"rows": _row_dicts(kind, items), "tail": []}
        assert encode(value) == reference_json(expected)


def test_row_kinds_list_their_keys_sorted():
    for kind in (_CELL, _CASCADE, _CONDITIONAL, _FINDING, _TRIPLE, _WARNING):
        assert list(kind.keys) == sorted(kind.keys)


@pytest.mark.parametrize("cells", ORACLE_FIXTURES)
def test_emit_report_matches_reference_on_fixtures(cells):
    report = analyze_workbook(make_workbook({"S": cells}))
    assert emit_report(report, "json") == reference_report(report)


def test_emit_report_matches_reference_on_acceptance_document(acceptance_report):
    assert len(acceptance_report.cells) == 10_000
    assert emit_report(acceptance_report, "json") == reference_report(acceptance_report)


def test_emission_calls_the_encoder_once_per_batch_and_cascade(acceptance_report,
                                                               monkeypatch):
    report = acceptance_report
    calls = 0
    encode_once = json.JSONEncoder.encode

    def counting(self, o):
        nonlocal calls
        calls += 1
        return encode_once(self, o)

    monkeypatch.setattr(json.JSONEncoder, "encode", counting)
    emit_report(report, "json")
    batches = sum(math.ceil(len(rows) / _BATCH) for rows in (
        report.cells, report.cascades, report.range_findings,
        report.modular.triples, report.warnings))
    # One call per batch of rows and one per cascade's conditionals, plus a
    # fixed number for meta, config, modular's small dicts and the keys in
    # the row templates. Row at a time it was 29,937.
    assert batches == 15 and len(report.cascades) == 900
    assert calls <= len(report.cascades) + batches + 80


def test_cascade_conditionals_are_encoded_with_their_cascades_batch(acceptance_report,
                                                                    monkeypatch):
    # 900 cascades list 1,992 conditionals, and none needs a call of its own.
    report = acceptance_report
    calls = 0
    encode_once = json.JSONEncoder.encode

    def counting(self, o):
        nonlocal calls
        calls += 1
        return encode_once(self, o)

    monkeypatch.setattr(json.JSONEncoder, "encode", counting)
    emitted = emit_report(report, "json")
    assert sum(map(len, (e.conditionals for e in report.cascades))) == 1_992
    assert calls <= 15 + 80
    assert emitted == reference_report(report)


SHEET_NAMES = [
    "Plain", "Übersicht", "日本語", 'Q"uote', "Back\\slash",
    "New\nLine", "Tab\tCol", "Apos'trophe", "Smile\U0001f600",
]
LITERALS = ['café', 'say ""hi""', "back\\slash", "two\nlines", " sep", "\x01ctl"]


def _quoted(name: str) -> str:
    return "'" + name.replace("'", "''") + "'"


def awkward_text_workbook(seed: int) -> dict:
    """A seeded workbook whose sheet names, string literals and messages
    carry non-ASCII text, quotes, backslashes, control characters and line
    breaks, with broken formulas, missing sheets, empty precedents, a cycle
    and a copied run."""
    rng = random.Random(seed)
    names = rng.sample(SHEET_NAMES, 3)
    sheets = []
    for s_idx, name in enumerate(names):
        cells = [{"ref": f"A{r}", "value": rng.choice([r, rng.uniform(-5, 5), rng.choice(LITERALS)])}
                 for r in range(1, 6)]
        for r in range(1, 6):
            literal = '"' + rng.choice(LITERALS) + '"'
            other = _quoted(names[rng.randrange(len(names))])
            formula = rng.choice([
                f"=IF(A{r}>0,{literal},{other}!A{rng.randint(1, 5)})",
                f"=SUM(A1:A{r})+{other}!C{rng.randint(1, 9)}",
                f"=LEN({literal})*A{r}",
                f"={_quoted('Fehlt ß' + rng.choice(LITERALS))}!A1+A{r}",
                f"=SUM({literal}",
                f"=A{r}+B{r}",
            ])
            cells.append({"ref": f"B{r}", "formula": formula})
            cells.append({"ref": f"C{r}", "formula": f"=A{r}*2+{other}!A{r}"})
        if s_idx == 0 and seed % 2:
            cells += [{"ref": "D1", "formula": "=D2"}, {"ref": "D2", "formula": "=D1"}]
        sheets.append({"name": name, "cells": cells})
    return {"sheets": sheets}


def test_emit_report_matches_reference_on_awkward_text():
    seen = set()
    for seed in range(40):
        report = analyze_workbook(load_workbook_doc(awkward_text_workbook(seed)))
        emitted = emit_report(report, "json")
        assert emitted == reference_report(report), seed
        text = emitted.decode("utf-8")
        seen.update(mark for mark in ("\\n", '\\"', "\\\\", "\\t", "\\u0001", "é", "\U0001f600")
                    if mark in text)
        seen.update(w.code for w in report.warnings)
        seen.add("cyclic" if report.cyclic else "acyclic")
        if report.range_findings:
            seen.add("range finding")
    assert seen >= {"\\n", '\\"', "\\\\", "\\t", "\\u0001", "é", "\U0001f600",
                    "W001", "W002", "W003", "W004", "cyclic", "acyclic", "range finding"}


# --- W003 warnings as a column ------------------------------------------------

# Every warning code but W004 around a block of W003 warnings: a broken
# formula (W001), a missing sheet (W002), empty cells read by a SUM, a
# copied run and a cross-sheet formula, some on a sheet whose name needs
# quotes (W003), the run's gap (W005) and the cross-sheet reads (W006).
WARNING_SHEETS = {
    "S": {"A1": 1, "A3": 3, "B1": "=A1*2", "B2": "=A2*2", "B3": "=A3*2",
          **{f"{'DE'[k % 2]}{k // 2 + 1}": k for k in range(0, 80, 3)},
          "C1": "=SUM(D1:E40)", "F1": "=1+(", "F2": "=Nope!A1+1",
          "F3": "=Other!A1*2+'My Data'!C3"},
    "Other": {"A1": 5, "B2": "=S!Z9+A1"},
    "My Data": {"A1": 1},
}


def test_warnings_are_the_sorted_list_with_w003_spliced_in():
    wb = make_workbook(WARNING_SHEETS)
    report = analyze_workbook(wb)
    emitted = emit_report(report, "json")
    assert emitted == reference_report(report)
    others = [w for w in report.warning_columns if w.code != W_EMPTY_REFERENCED_CELL]
    empty = OracleGraph(wb).materialized_warnings()
    want = sorted(others + empty, key=operator.attrgetter("code", "address", "message"))
    assert report.warnings == want
    codes = [w.code for w in want]
    first = codes.index(W_EMPTY_REFERENCED_CELL)
    last = len(codes) - codes[::-1].index(W_EMPTY_REFERENCED_CELL)
    assert {"W001", "W002"} <= set(codes[:first]) and {"W005", "W006"} <= set(codes[last:])
    assert last - first == len(empty) == 56  # A2, Z9, C3 and 53 cells of D1:E40
    assert report.exit_code() == 1
    assert emit_report(report, "json") == emitted  # the same once the list is read


def test_empty_range_cells_build_no_address_or_warning_each(monkeypatch):
    # A SUM over a half-empty 60 x 50 rectangle: analysis and both
    # emissions build one W003 record in all, and three CellRefs in all:
    # the address of the data cells' shared record, of the SUM's cell for
    # its metrics call, and of its cascade's terminal. No empty cell and no
    # data cell gets one. JSON emission encodes each distinct record once:
    # 1,501 cell rows over 2 records, and 1,500 W003 rows over 1.
    doc = {"sheets": [{"name": "S", "cells": (
        [{"ref": f"{column_to_letters(c)}{r}", "value": r}
         for r in range(1, 51) for c in range(1, 61) if (c + r) % 2]
        + [{"ref": "BJ1", "formula": "=SUM(A1:BH50)"}])}]}
    wb = load_workbook_doc(doc)
    calls = {"_CELL": 0, "_WARNING": 0}

    def counted(name):
        kind = getattr(report_module, name)

        def values(row):
            calls[name] += 1
            return kind.values(row)
        return kind._replace(values=values)

    with monkeypatch.context() as patch:
        built = count_builds(patch, CellRef, AuditWarning)
        report = analyze_workbook(wb)
        for name in calls:
            patch.setattr(report_module, name, counted(name))
        emitted = emit_report(report, "json")
        assert calls == {"_CELL": 2, "_WARNING": 1}
        emit_report(report, "text")
    assert report.warning_columns.addresses[:3] == ["S!A1", "S!A11", "S!A13"]
    assert len(report.cell_columns) == 1_501 and len(report.cell_columns.distinct) == 2
    assert len(report.warning_columns) == 1_500
    assert built == {CellRef: 3, AuditWarning: 1}
    assert emitted == reference_report(report)


# --- Rows of every kind at the batch boundaries -------------------------------

FRACTIONS = st.one_of(
    st.fractions(),
    st.builds(Fraction, st.integers(-(10 ** 400), 10 ** 400), st.integers(1, 10 ** 6)),
    st.builds(Fraction, st.integers(-5, 5), st.integers(10 ** 350, 10 ** 400)),
)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([5e-324, -5e-324, -0.0, 0.0, 1.7976931348623157e308,
                     float("nan"), float("inf"), float("-inf"), 0.1234565, 2.5e-7]),
)
INTS = st.one_of(st.booleans(), st.integers(), st.integers(-(10 ** 80), 10 ** 80),
                 st.sampled_from([10 ** 80 + 1, -(10 ** 81), 3 ** 299]))
NUMBERS = st.one_of(FLOATS, INTS, FRACTIONS)
ADDRESSES = st.builds(CellRef, TEXT, st.integers(1, 20_000), st.integers(1, 10 ** 7))
RANGES = st.builds(RangeRef, ADDRESSES, ADDRESSES)

CELL_ROWS = st.builds(
    CellMetrics, ADDRESSES, n_operators=INTS, n_operands=INTS,
    depth_of_nesting=INTS, avg_nesting_level=NUMBERS, decision_count=INTS,
    n_references=INTS, dispersion=NUMBERS, delta_sum=NUMBERS, col_span=INTS,
    row_span=INTS, cross_sheet_ref_count=INTS, mixed_axis_flag=st.booleans(),
    forward_ref_count=INTS,
)
CONDITIONAL_ROWS = st.tuples(
    st.builds(ConditionalConstruct, ADDRESSES, st.just((0,)), st.just(()),
              st.integers(0, 3), st.booleans(), st.integers(0, 9)),
    st.one_of(FLOATS, st.integers(-(10 ** 80), 10 ** 80), st.fractions()),
)
CASCADE_ROWS = st.builds(
    lambda terminal, stats, rel, conditionals: CascadeEntry(
        CascadeStats(terminal, *stats),
        CascadeReliability(terminal, *rel), tuple(conditionals)),
    ADDRESSES,
    st.tuples(INTS, NUMBERS, NUMBERS, INTS, INTS),
    st.tuples(INTS, NUMBERS, NUMBERS),
    st.lists(CONDITIONAL_ROWS, max_size=3),
)
FINDING_ROWS = st.builds(RangeLinkageFinding, RANGES, RANGES, INTS, TEXT, INTS, INTS, TEXT)
TRIPLE_ROWS = st.tuples(TEXT, ADDRESSES, TEXT)
WARNING_ROWS = st.builds(AuditWarning, TEXT, TEXT, TEXT)


def repeated(pool: list, n: int) -> list:
    """``n`` rows drawn in turn from ``pool``, so neighbours differ."""
    return [pool[i % len(pool)] for i in range(n)]


@pytest.mark.parametrize("n", [0, 1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1])
# Shrinking a report of thousands of rows takes minutes; a failure is
# reported as drawn.
@settings(max_examples=8, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_emit_report_matches_reference_on_rows_of_every_kind(n, data):
    def rows(strategy):
        return repeated(data.draw(st.lists(strategy, min_size=1, max_size=5)), n)

    cascades = None if data.draw(st.booleans()) and n else rows(CASCADE_ROWS)
    report = WorkbookReport(
        tool_version=data.draw(TEXT),
        input_digest=data.draw(TEXT),
        config=AnalysisConfig(),
        cells=rows(CELL_ROWS),
        cascades=cascades,
        modular=ModularMetrics(
            triples=tuple(rows(TRIPLE_ROWS)),
            triple_count_by_pair=data.draw(st.dictionaries(st.tuples(TEXT, TEXT), INTS, max_size=3)),
            unreferenced_data_pct=data.draw(NUMBERS),
            module_fan_in=data.draw(st.dictionaries(TEXT, INTS, max_size=3)),
            module_fan_out=data.draw(st.dictionaries(TEXT, INTS, max_size=3)),
        ),
        range_findings=rows(FINDING_ROWS),
        warnings=rows(WARNING_ROWS),
    )
    assert emit_report(report, "json") == reference_report(report)


@pytest.mark.parametrize("n", [_BATCH, 2 * _BATCH + 1])
@settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_emit_report_matches_reference_on_shared_rows(n, data):
    # Emission encodes a record's values once per position among the
    # distinct records however many rows use it. Each column's distinct
    # records hold a record equal to another at a different position, and
    # one record that no row uses; each warning code comes with more than
    # one message.
    def columns(addresses, rows):
        distinct = data.draw(st.lists(rows, min_size=1, max_size=4))
        distinct += [distinct[0]._replace(), data.draw(rows)]  # equal; unused
        pattern = data.draw(st.lists(st.integers(0, len(distinct) - 2),
                                     min_size=1, max_size=7))
        return Columns(addresses, distinct, [pattern[k % len(pattern)] for k in range(n)])

    sheets = data.draw(st.lists(st.sampled_from([None, *SHEET_NAMES]), min_size=1,
                                max_size=3, unique=True))
    addresses = [CellRef(sheets[k % len(sheets)], k % 30 + 1, k // 30 + 1) for k in range(n)]
    codes = data.draw(st.lists(TEXT, min_size=1, max_size=2, unique=True))
    messages = data.draw(st.lists(TEXT, min_size=2, max_size=3, unique=True))
    warning_rows = st.builds(AuditWarning, st.sampled_from(codes), TEXT,
                             st.sampled_from(messages))
    cells = columns(Locations.of(addresses), CELL_ROWS)
    warnings = columns([a.render() for a in addresses], warning_rows)
    report = WorkbookReport("v", "d", AnalysisConfig(), cells, [],
                            ModularMetrics((), {}, 0.0, {}, {}), [], warnings)
    assert emit_report(report, "json") == reference_report(report)
    assert [m.address for m in report.cells] == addresses
    assert [w.address for w in report.warnings] == warnings.addresses


def test_rows_given_as_lists_become_columns_and_read_as_read_only_lists():
    # A CellRef list of addresses is taken as Locations, which keep no "$".
    cells = [CellMetrics(CellRef("S", 1, 1, True, True), n_operators=1),
             CellMetrics(CellRef("My Data", 2, 3))]
    warnings = [AuditWarning("W001", "S!A1", "m")]
    report = WorkbookReport("v", "d", AnalysisConfig(), cells, [],
                            ModularMetrics((), {}, 0.0, {}, {}), [], warnings)
    assert isinstance(report.cell_columns.addresses, Locations)
    assert report.cell_columns.addresses.render() == ["S!A1", "'My Data'!B3"]
    assert report.cells == [CellMetrics(CellRef("S", 1, 1), n_operators=1), cells[1]]
    assert report.cells is report.cells and report.warnings == warnings
    for name in ("cells", "warnings"):
        with pytest.raises(AttributeError):
            setattr(report, name, [])
    assert emit_report(report, "json") == reference_report(report)
    assert json.loads(emit_report(report, "json"))["cells"][0]["address"] == "S!A1"


@pytest.mark.parametrize("n", [_BATCH, 2 * _BATCH + 1])
def test_a_cascade_with_batches_of_conditionals(n):
    def conditional(i):
        construct = ConditionalConstruct(CellRef(f"S{i % 3}", i + 1, 1), (0,), (), 1, True, i)
        return construct, [i, 0.5 * i, float("nan"), -0.0, Fraction(1, 3)][i % 5]

    terminal = CellRef("S", 1, 1)
    entries = [
        CascadeEntry(CascadeStats(terminal, 2, Fraction(1, 3), Fraction(2), 1, 3),
                     CascadeReliability(terminal, 3, 0.1, 0.2), conditionals)
        for conditionals in ((), tuple(map(conditional, range(n))), ())
    ]
    report = WorkbookReport("v", "d", AnalysisConfig(), [], entries,
                            ModularMetrics((), {}, 0.0, {}, {}), [], [])
    assert emit_report(report, "json") == reference_report(report)


# --- _num against the version before its fast path ----------------------------


def _to_float_before(x) -> float:
    """float() that saturates instead of overflowing on huge rationals."""
    if isinstance(x, Fraction):
        try:
            return float(x)
        except OverflowError:
            return sys.float_info.max if x > 0 else -sys.float_info.max
    return float(x)


def _num_before(x) -> Union[int, float]:
    if isinstance(x, Fraction):
        x = _to_float_before(x)
    if isinstance(x, float):
        if math.isinf(x):
            x = sys.float_info.max if x > 0 else -sys.float_info.max
        return round(x, 6)
    return x


@settings(max_examples=1000, deadline=None)
@given(st.one_of(SCALARS, NUMBERS))
def test_num_matches_the_version_before_its_fast_path(x):
    got, want = _num(x), _num_before(x)
    assert type(got) is type(want)
    assert repr(got) == repr(want)  # tells -0.0 from 0.0, and NaN from NaN


@pytest.mark.parametrize("x", [
    -0.0, float("nan"), float("inf"), float("-inf"), True, False, 0, -(10 ** 90),
    5e-324, 0.0000005, 0.0000015, 2.675, Fraction(10 ** 400, 3), Fraction(-(10 ** 400), 7),
    Fraction(1, 10 ** 400), Fraction(-1, 3), Fraction(0), None, "1.5",
])
def test_num_matches_the_version_before_on_edge_cases(x):
    got, want = _num(x), _num_before(x)
    assert (type(got), repr(got)) == (type(want), repr(want))
