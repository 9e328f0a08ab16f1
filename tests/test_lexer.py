"""The one reference grammar against the lexer it replaced.

``oracle_lex`` is the formula lexer as it was before the token pattern
shared ``refs.REFERENCE``: a character-by-character scan with its own
reference regex and a hand-coded exception for ``LOG10(``. Its one addition
is the XFD column check. The properties check that the lexer, the shape scan
and the address parser read formula-like text exactly as it does, that the
shape scan cuts a text where the lexer's tokens start and end, and that it
may reuse one text's cuts for another of the same skeleton. The token
pattern's unrolled string alternative matches as the per-character one it
replaced, and lexes a long literal in little memory.
"""

from __future__ import annotations

import re
import string
import tracemalloc
from unittest.mock import patch

from hypothesis import given
from hypothesis import strategies as st

from cellgauge import formula, load_workbook_doc
from cellgauge.errors import FormulaSyntaxError
from cellgauge.formula import _SKELETON, _lex, _scan_spans, _Token, classify_tokens, shape_key
from cellgauge.refs import (
    MAX_COLUMN,
    CellRef,
    letters_to_column,
    parse_cell_address,
    unquote_sheet_name,
)

_WS = re.compile(r"[ \t\r\n]+")
_NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_REF = re.compile(
    r"(?:(?P<sheet>'(?:[^']|'')+'|[A-Za-z_][A-Za-z0-9_]*)!)?"
    r"(?P<colabs>\$?)(?P<col>[A-Za-z]{1,3})(?P<rowabs>\$?)(?P<row>[0-9]+)"
    r"(?![A-Za-z0-9_$])"
)
_OPERATORS = ("<=", ">=", "<>", "=", "<", ">", "+", "-", "*", "/", "^", "&", "%")


def oracle_lex(text: str, base_offset: int) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ws = _WS.match(text, i)
        if ws:
            i = ws.end()
            continue
        off = base_offset + i
        ch = text[i]
        if ch == '"':
            j = i + 1
            parts: list[str] = []
            while True:
                if j >= n:
                    raise FormulaSyntaxError("unterminated string literal", off)
                if text[j] == '"':
                    if j + 1 < n and text[j + 1] == '"':
                        parts.append('"')
                        j += 2
                        continue
                    break
                parts.append(text[j])
                j += 1
            tokens.append(_Token("STRING", text[i : j + 1], off, "".join(parts)))
            i = j + 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(_Token("NUMBER", m.group(), off, float(m.group())))
            i = m.end()
            continue
        m = _REF.match(text, i)
        # A name followed by "(" is a function call even when it looks like a
        # cell reference (e.g. LOG10); names with a sheet prefix never are.
        if m and not (
            m.group("sheet") is None
            and m.end() < n
            and text[m.end()] == "("
            and not m.group("colabs")
            and not m.group("rowabs")
        ):
            row = int(m.group("row"))
            if row < 1:
                raise FormulaSyntaxError("row index must be >= 1", off)
            if letters_to_column(m.group("col")) > MAX_COLUMN:
                raise FormulaSyntaxError("column must be at most XFD", off)
            sheet = m.group("sheet")
            ref = CellRef(
                sheet=unquote_sheet_name(sheet) if sheet else None,
                column=letters_to_column(m.group("col")),
                row=row,
                col_absolute=m.group("colabs") == "$",
                row_absolute=m.group("rowabs") == "$",
            )
            tokens.append(_Token("REF", m.group(), off, ref))
            i = m.end()
            continue
        m = _NAME.match(text, i)
        if m:
            tokens.append(_Token("NAME", m.group(), off))
            i = m.end()
            continue
        if ch == "(":
            tokens.append(_Token("LPAREN", ch, off))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("RPAREN", ch, off))
            i += 1
            continue
        if ch == ",":
            tokens.append(_Token("COMMA", ch, off))
            i += 1
            continue
        if ch == ":":
            tokens.append(_Token("COLON", ch, off))
            i += 1
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(_Token("OP", op, off))
                i += len(op)
                break
        else:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", off)
    tokens.append(_Token("EOF", "", base_offset + n))
    return tokens


# Formula-like text built from pieces around the edges of the grammar:
# references with and without anchors and sheets, the last column and the
# ones past it, row 0, references followed by "(" (function names when
# bare), numbers with exponents, strings with doubled quotes; sometimes with
# one stray character that no token starts with, or a string left open by
# a doubled quote.
_SHEETS = ("", "", "", "Data!", "data!", "'My Data'!", "'it''s'!", "_x!")
_COLUMNS = ("A", "z", "AB", "XFD", "xfd", "XFE", "ZZZ", "ABCD", "LOG")
_ROWS = ("1", "9", "10", "0", "00", "01", "1048576")
_TOKENS = (
    "(", "SUM(", "IF(", "1E5", "2.5", ".5", "1e-3", "12", '"A1"', '""', '"x""y"',
    "TRUE", ":", ",", ")", "+", "-", "*", "/", "^", "&", "%", "<=", ">=", "<>",
    "=", "<", " ", "\t", "\n", "A", "AB", "_", ".", "e", "0", "1",
)
_STRAYS = ('"', '"x""', "'", "$", "!", "#", "[", "''")


@st.composite
def reference_like(draw) -> str:
    return "".join((
        draw(st.sampled_from(_SHEETS)),
        draw(st.sampled_from(("", "$"))),
        draw(st.sampled_from(_COLUMNS)),
        draw(st.sampled_from(("", "$"))),
        draw(st.sampled_from(_ROWS)),
        draw(st.sampled_from(("", "", "("))),
    ))


@st.composite
def pieced_formula(draw) -> str:
    pieces = draw(st.lists(st.one_of(reference_like(), st.sampled_from(_TOKENS)), max_size=10))
    if draw(st.booleans()):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(_STRAYS)))
    return "".join(pieces)


formula_like = st.one_of(
    pieced_formula(),
    st.text(alphabet="$!'\"(),:.+-AaBEeFXxDZ_019 ", max_size=16),
)


def lexed(text: str):
    """The tokens ``_lex`` gives for a formula body, as tuples, or its
    error's type, message and offset."""
    try:
        return [(t.kind, t.text, t.offset, t.value) for t in _lex(text, 1)]
    except FormulaSyntaxError as exc:
        return type(exc), str(exc), exc.offset


@given(formula_like)
def test_lexer_matches_the_oracle(body):
    try:
        want = [(t.kind, t.text, t.offset, t.value) for t in oracle_lex(body, 1)]
    except FormulaSyntaxError as exc:
        want = type(exc), str(exc), exc.offset
    assert lexed(body) == want


@given(formula_like, st.integers(1, 40), st.integers(1, 40))
def test_shape_scan_finds_the_lexers_references(body, column, row):
    tokens = lexed(body)
    keyed = shape_key("=" + body, column, row, {}, {}, {})
    # A text the lexer refuses cannot share a shape, and every text it
    # accepts can.
    assert (keyed is None) == isinstance(tokens, tuple)
    if keyed is not None:
        # Each reference's five key parts: its sheet, and per axis its
        # absolute flag with the value or the offset from the cell.
        assert [keyed[i:i + 5] for i in range(1, len(keyed) - 1, 6)] == [
            (ref.sheet, ref.col_absolute, ref.column - (0 if ref.col_absolute else column),
             ref.row_absolute, ref.row - (0 if ref.row_absolute else row))
            for kind, _, _, ref in tokens if kind == "REF"]


@given(formula_like)
def test_scan_cuts_where_the_lexer_does(body):
    # The scan leaves a reference's row and column to shape_key, so _lex is
    # compared here with its references read but not checked; then it can
    # fail only at a character no token starts with or at an open string.
    text = "=" + body
    with patch.object(formula, "ref_from_match", lambda m: None):
        tokens = lexed(body)
    cuts = _scan_spans(text)
    assert (cuts is None) == isinstance(tokens, tuple)
    if cuts is None:
        assert tokens[1].startswith(("unexpected character", "unterminated string literal"))
        return
    assert [ref[:2] for _, ref in cuts if ref is not None] == [
        (offset, offset + len(token)) for kind, token, offset, _ in tokens if kind == "REF"]
    # The runs of other tokens and the references tile the text after "=".
    tiles = [span[:2] for pair in cuts for span in pair if span is not None]
    assert [end for _, end in tiles[:-1]] == [start for start, _ in tiles[1:]]
    if body:
        assert (tiles[0][0], tiles[-1][1]) == (1, len(text))


@given(formula_like)
def test_address_parser_reads_a_lone_reference_token(text):
    tokens = lexed(text)
    try:
        ref = parse_cell_address(text)
    except ValueError:
        ref = None
    lone = not isinstance(tokens, tuple) and [t[0] for t in tokens] == ["REF", "EOF"]
    assert (ref is not None) == lone
    if lone:
        assert ref == tokens[0][3]


# Each ASCII letter and digit with the characters of its skeleton class, as
# ``_SKELETON`` defines the classes; any other character is alone in its own.
_CLASSMATES = {
    c: [d for d in string.ascii_letters + string.digits
        if d.translate(_SKELETON) == c.translate(_SKELETON)]
    for c in string.ascii_letters + string.digits
}


# Pieces where a letter's class decides the cut: an exponent's e/E next to
# digits (1E5 is a number, 1A5 a number and a reference).
_EXPONENT_PIECES = ("1E5", "2e-3", ".5e1", "1", "09", "e", "E", "E1", "e12", "a1",
                    "+", "(", "SUM(", ":")


@st.composite
def same_skeleton_pair(draw):
    """A formula-like text and a rewrite of it that swaps characters only
    within their skeleton classes (letters other than e/E among themselves,
    digits among themselves)."""
    text = "=" + draw(st.one_of(
        formula_like, st.lists(st.sampled_from(_EXPONENT_PIECES), max_size=8).map("".join)))
    picks = draw(st.lists(st.integers(0, 99), min_size=len(text), max_size=len(text)))
    mates = [_CLASSMATES.get(c, [c]) for c in text]
    return text, "".join(m[k % len(m)] for m, k in zip(mates, picks))


@given(same_skeleton_pair())
def test_texts_of_one_skeleton_scan_alike(pair):
    text, rewrite = pair
    assert text.translate(_SKELETON) == rewrite.translate(_SKELETON)
    assert _scan_spans(rewrite) == _scan_spans(text)


@given(same_skeleton_pair(), st.integers(1, 40), st.integers(1, 40))
def test_shape_key_reuses_the_cuts_of_a_text_of_the_same_skeleton(pair, column, row):
    text, rewrite = pair
    columns: dict = {}
    sheets: dict = {}
    cuts: dict = {}
    shape_key(text, column, row, columns, sheets, cuts)
    assert shape_key(rewrite, column, row, columns, sheets, cuts) == shape_key(
        rewrite, column, row, {}, {}, {})


# --- String literals in constant backtracking state ----------------------------

# The STRING alternative as it was, with one alternation per character, and
# as it is, unrolled into runs of other characters joined by quote pairs.
_PER_CHARACTER_STRING = r'(?P<STRING>"(?:[^"]|"")*"(?!"))'
_UNROLLED_STRING = r'(?P<STRING>"[^"]*(?:""[^"]*)*"(?!"))'
_PER_CHARACTER_TOKEN = re.compile(
    formula._TOKEN.pattern.replace(_UNROLLED_STRING, _PER_CHARACTER_STRING))


def test_the_token_pattern_holds_the_unrolled_string():
    assert formula._TOKEN.pattern.count(_UNROLLED_STRING) == 1
    assert _PER_CHARACTER_TOKEN.pattern.count(_PER_CHARACTER_STRING) == 1


@given(st.text(alphabet='"a=', max_size=40))
def test_unrolled_string_matches_as_the_per_character_one(text):
    # At every position: the same token kind and span, or no token.
    for pos in range(len(text) + 1):
        new = formula._TOKEN.match(text, pos)
        old = _PER_CHARACTER_TOKEN.match(text, pos)
        assert (new and (new.lastgroup, new.span())) == (old and (old.lastgroup, old.span()))


def test_a_one_megabyte_string_literal_loads_in_little_memory():
    # The per-character alternative kept backtracking state per character:
    # this load peaked near 195 MB under tracemalloc, all but ~5 MB of it in
    # the shape scan.
    literal = ("a" * 999 + '""') * 1_000
    doc = {"sheets": [{"name": "S", "cells": [
        {"ref": "A1", "formula": f'="{literal}"'}]}]}
    tracemalloc.start()
    try:
        wb = load_workbook_doc(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (token,) = classify_tokens(wb.cell("S!A1").ast)
    assert len(token.text) == len(literal) + 2
    assert peak < 20_000_000, peak
