"""The streaming JSON emitter against ``json.dumps(..., indent=2)``.

``emit_report`` builds the canonical report through the C encoder one row
at a time; the pure-Python one-liner it replaced is kept here as the
reference, and every report and arbitrary JSON value must give the same
bytes.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellgauge import load_workbook_doc
from cellgauge.report import _encode_json, _Rows, analyze_workbook, emit_report

from conftest import make_workbook
from test_acceptance import generate_large_workbook_doc
from test_conditionals import ORACLE_FIXTURES


def reference_json(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)


def reference_report(report) -> bytes:
    return (reference_json(report.as_dict()) + "\n").encode("utf-8")


def encode(value) -> str:
    out: list[str] = []
    _encode_json(value, 0, out)
    return "".join(out)


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
    def build(n):
        return {"n": n, "nested": [n] * (n % 3)}

    for items in ([], [0], [1, 2, 3], list(range(7))):
        value = {"rows": _Rows(build, items), "tail": _Rows(build, [])}
        expected = {"rows": [build(n) for n in items], "tail": []}
        assert encode(value) == reference_json(expected)


@pytest.mark.parametrize("cells", ORACLE_FIXTURES)
def test_emit_report_matches_reference_on_fixtures(cells):
    report = analyze_workbook(make_workbook({"S": cells}))
    assert emit_report(report, "json") == reference_report(report)


def test_emit_report_matches_reference_on_acceptance_document():
    report = analyze_workbook(load_workbook_doc(generate_large_workbook_doc()))
    assert len(report.cells) == 10_000
    assert emit_report(report, "json") == reference_report(report)


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
