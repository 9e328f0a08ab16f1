import itertools
import re
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellgauge.refs import (
    CellRef,
    Locations,
    RangeRef,
    column_to_letters,
    letters_to_column,
    parse_cell_address,
)


def brute_force_letters(count):
    """Column letters in order by brute-force enumeration over lengths."""
    out = []
    for length in (1, 2, 3):
        for combo in itertools.product(string.ascii_uppercase, repeat=length):
            out.append("".join(combo))
            if len(out) == count:
                return out
    return out


def test_column_codec_against_enumeration():
    expected = brute_force_letters(1000)
    assert [column_to_letters(i) for i in range(1, 1001)] == expected
    for i, letters in enumerate(expected, start=1):
        assert letters_to_column(letters) == i


def loop_column_to_letters(col):
    """``column_to_letters`` as it was before its one- and two-letter fast
    path: one divmod per letter."""
    letters = ""
    while col:
        col, rem = divmod(col - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


def test_column_letters_match_the_loop_on_every_column():
    for col in range(1, 16_385):  # A..XFD
        assert column_to_letters(col) == loop_column_to_letters(col), col
    for col in (0, -1):
        with pytest.raises(ValueError):
            column_to_letters(col)


def loop_letters_to_column(letters):
    """``letters_to_column`` as a reference loop: one step per letter of
    the upper-cased text."""
    col = 0
    for ch in letters.upper():
        if not "A" <= ch <= "Z":
            raise ValueError(f"invalid column letters: {letters!r}")
        col = col * 26 + (ord(ch) - ord("A") + 1)
    if col == 0:
        raise ValueError("empty column letters")
    return col


def test_column_numbers_match_the_loop_on_every_column():
    for col in range(1, 16_385):  # A..XFD
        letters = column_to_letters(col)
        for text in (letters, letters.lower()):
            assert letters_to_column(text) == loop_letters_to_column(text) == col, text
    # Non-ASCII text the loop upper-cases into ASCII letters ("ß" to "SS")
    # reads as the loop reads it, and everything else fails as it did.
    for text in ("ß", "ı", "ﬀ", "Aß"):
        assert letters_to_column(text) == loop_letters_to_column(text), text
    for text in ("", "A1", "1", "É", "Ä", "AÄ", "éb", "A B", "$A", "日"):
        with pytest.raises(ValueError) as loop_error:
            loop_letters_to_column(text)
        with pytest.raises(ValueError, match="^" + re.escape(str(loop_error.value)) + "$"):
            letters_to_column(text)


def test_column_codec_known_values():
    assert column_to_letters(1) == "A"
    assert column_to_letters(26) == "Z"
    assert column_to_letters(27) == "AA"
    assert column_to_letters(28) == "AB"
    assert letters_to_column("ab") == 28


@given(st.integers(min_value=1, max_value=3_000_000))
def test_column_codec_roundtrip(col):
    assert letters_to_column(column_to_letters(col)) == col


def test_render_ref_examples():
    assert CellRef(None, 1, 1, True, True).render() == "$A$1"
    assert CellRef(None, 28, 3).render() == "AB3"
    assert CellRef("Data", 2, 7).render() == "Data!B7"


def test_render_quotes_awkward_sheet_names():
    assert CellRef("My Data", 1, 1).render() == "'My Data'!A1"
    assert parse_cell_address("'My Data'!A1") == CellRef("My Data", 1, 1)


# Plain identifiers and names that need quotes (quotes, a backslash, a line
# break, non-ASCII, a leading digit), and no sheet at all.
RENDER_SHEETS = st.sampled_from([
    None, "Plain", "_x1", "S", "My Data", "Apos'trophe", 'Q"uote', "Back\\slash",
    "New\nLine", "Übersicht", "日本語", "1st", "",
])
RENDER_COLUMNS = st.one_of(st.integers(1, 16_384),
                           st.sampled_from([1, 26, 27, 702, 703, 16_384]))
@given(st.lists(st.builds(CellRef, RENDER_SHEETS, RENDER_COLUMNS, st.integers(1, 10 ** 7)),
                max_size=40))
def test_locations_render_and_read_as_their_refs(refs):
    locations = Locations.of(refs)
    assert locations.render() == [ref.render() for ref in refs]
    assert list(locations) == refs and len(locations) == len(refs)


@pytest.mark.parametrize("text,expected", [
    ("A1", CellRef(None, 1, 1)),
    ("$A$1", CellRef(None, 1, 1, True, True)),
    ("$C2", CellRef(None, 3, 2, True, False)),
    ("C$2", CellRef(None, 3, 2, False, True)),
    ("Data!B7", CellRef("Data", 2, 7)),
    ("aa10", CellRef(None, 27, 10)),
])
def test_parse_cell_address(text, expected):
    assert parse_cell_address(text) == expected


def test_parse_render_normalizes_case():
    assert parse_cell_address("ab3").render() == "AB3"
    assert parse_cell_address("$ab$3").render() == "$AB$3"


@pytest.mark.parametrize("bad", ["", "A", "1", "A0", "1A", "A1:B2", "Sheet!", "!A1"])
def test_parse_cell_address_rejects(bad):
    with pytest.raises(ValueError):
        parse_cell_address(bad)


def test_invalid_coordinates_rejected():
    with pytest.raises(ValueError):
        CellRef(None, 0, 1)
    with pytest.raises(ValueError):
        CellRef(None, 1, 0)


def test_range_normalization_swaps_corners():
    r = RangeRef.normalized(CellRef(None, 3, 5), CellRef(None, 1, 2))
    assert (r.start.column, r.start.row) == (1, 2)
    assert (r.end.column, r.end.row) == (3, 5)
    assert r.width == 3 and r.height == 4


def test_range_cells_row_major():
    r = RangeRef.normalized(CellRef("S", 1, 1), CellRef("S", 2, 2))
    assert [c.render(include_sheet=False) for c in r.cells()] == ["A1", "B1", "A2", "B2"]
    assert all(c.sheet == "S" for c in r.cells())
