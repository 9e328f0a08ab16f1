"""Seeded workbook generators and the report invariants each one implies.

Every generator takes a seed and returns a ``Workload``: the workbook
document, the exit code ``cellgauge analyze`` must return on it, and a check
that tests the emitted report against facts derived from the construction
alone. Nothing here imports cellgauge, so the expectations are independent of
the code under test.

The seed changes only data values and formula constants, never the shape of
a workbook, so every seed of one workload costs the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 1234

# A report check returns a list of human-readable violations (empty = pass).
Check = Callable[[dict], list]


@dataclass(frozen=True)
class Workload:
    doc: dict
    expected_exit: int
    check: Check


def col_letters(col: int) -> str:
    """1 -> "A", 26 -> "Z", 27 -> "AA"."""
    letters = ""
    while col:
        col, rem = divmod(col - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


def _expect(errors: list, what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


def _codes(report: dict, code: str) -> int:
    return sum(1 for w in report["warnings"] if w["code"] == code)


# --- acceptance10k ------------------------------------------------------------


def acceptance10k(seed: int) -> Workload:
    """The 10,000-cell acceptance workbook.

    Same construction as ``tests/test_acceptance.py::generate_large_workbook_doc``;
    with seed 1234 the document is identical to the test's. Only the data
    values depend on the seed.
    """
    rng = random.Random(seed)
    sheets = []

    data_cells = []
    for r in range(1, 36):          # 35 rows x 50 cols = 1750 data cells
        for c in range(1, 51):
            data_cells.append({
                "ref": f"{col_letters(c)}{r}",
                "value": round(rng.uniform(-50, 150), 3),
            })
    sheets.append({"name": "Data", "cells": data_cells})

    n_rows, n_cols = 50, 49          # 3 x 2450 = 7350 formula cells
    for s in range(1, 4):
        cells = []
        for r in range(1, n_rows + 1):
            for c in range(1, n_cols + 1):
                ref = f"{col_letters(c)}{r}"
                left = f"{col_letters(max(c - 1, 1))}{r}"
                if c == 1:
                    src_col = col_letters((r * 7 + s) % 50 + 1)
                    src_row = (r * 3 + s) % 35 + 1
                    formula = f"=Data!{src_col}{src_row}*2"
                elif c % 7 == 3:
                    formula = f"=IF({left}>0, {left}+1, 0)"
                elif c % 5 == 0:
                    lo = col_letters(c - 3)
                    hi = col_letters(c - 1)
                    formula = f"=SUM({lo}{r}:{hi}{r})"
                elif (r + c) % 13 == 0 and s > 1:
                    formula = f"={left}+Calc{s - 1}!{ref}"
                else:
                    formula = f"={left}+{c}"
                cells.append({"ref": ref, "formula": formula})
        sheets.append({"name": f"Calc{s}", "cells": cells})

    last = col_letters(n_cols)
    summary_cells = []
    for r in range(1, 51):           # 50 rows x 18 cols = 900 cells
        for c in range(1, 19):
            a = c % 3 + 1
            b = (c + 1) % 3 + 1
            summary_cells.append({
                "ref": f"{col_letters(c)}{r}",
                "formula": f"=Calc{a}!{last}{r}+Calc{b}!{last}{r}*0.5",
            })
    sheets.append({"name": "Summary", "cells": summary_cells})

    def check(report: dict) -> list:
        errors: list = []
        _expect(errors, "cells", len(report["cells"]), 10_000)
        cascades = report["cascades"] or []
        _expect(errors, "cascades", len(cascades), 900)
        _expect(errors, "terminal sheets", {c["terminal"].split("!")[0] for c in cascades},
                {"Summary"})
        return errors

    # Column-1 formulas read Data!, Summary reads two Calc sheets: W006.
    return Workload({"sheets": sheets}, expected_exit=1, check=check)


# --- if_scan --------------------------------------------------------------------

IF_CELLS = 120
CHAIN = 1000


def if_scan(seed: int) -> Workload:
    """IF cells that each read the ends of two long formula chains.

    Columns A and B hold a data cell and ``CHAIN`` formulas ``=<above>+k``;
    the constants never repeat between neighbours, so no copied-formula run
    forms. Column D holds ``IF_CELLS`` IFs over A and B's last cells, and F1
    sums them. Every IF argument is conditionless, so each construct is final
    with complexity 2, and the one cascade is F1's.
    """
    rng = random.Random(seed)
    phase = rng.randrange(9)
    gap = rng.randrange(1, 9)  # keeps B's constant different from A's
    end = CHAIN + 1
    cells = [
        {"ref": "A1", "value": round(rng.uniform(-50, 150), 3)},
        {"ref": "B1", "value": round(rng.uniform(-50, 150), 3)},
    ]
    for r in range(2, end + 1):
        cells.append({"ref": f"A{r}", "formula": f"=A{r - 1}+{(r + phase) % 9 + 1}"})
        cells.append({"ref": f"B{r}", "formula": f"=B{r - 1}+{(r + phase + gap) % 9 + 1}"})
    for r in range(1, IF_CELLS + 1):
        c = rng.randint(1, 99)
        cells.append({
            "ref": f"D{r}",
            "formula": f"=IF(A{end}>B{end}, A{end}-{c}, B{end}+{c})",
        })
    cells.append({"ref": "F1", "formula": f"=SUM(D1:D{IF_CELLS})"})

    def check(report: dict) -> list:
        errors: list = []
        cascades = report["cascades"] or []
        _expect(errors, "cascades", len(cascades), 1)
        if len(cascades) != 1:
            return errors
        (cascade,) = cascades
        conds = cascade["conditionals"]
        _expect(errors, "final constructs", len(conds), IF_CELLS)
        _expect(errors, "o_values", {c["o_value"] for c in conds}, {2})
        _expect(errors, "cell_count", cascade["cell_count"], 2 * end + IF_CELLS + 1)
        # Each IF reads both chain ends twice; each chain end has one path.
        _expect(errors, "total_paths", cascade["total_paths"], 4 * IF_CELLS)
        _expect(errors, "max_path_length", cascade["max_path_length"], end + 2)
        _expect(errors, "decision cells",
                sum(1 for c in report["cells"] if c["decision_count"] > 0), IF_CELLS)
        return errors

    return Workload({"sheets": [{"name": "Calc", "cells": cells}]},
                    expected_exit=0, check=check)


# --- wide_range -----------------------------------------------------------------

WIDE_ROWS = 2500
WIDE_COLS = 26


def wide_range(seed: int) -> Workload:
    """One SUM over a WIDE_ROWS x WIDE_COLS rectangle, exactly half populated.

    Each member, empty or not, is read once, so it adds one path; each empty
    member is materialized with one W003 warning.
    """
    rng = random.Random(seed)
    size = WIDE_ROWS * WIDE_COLS
    filled = sorted(rng.sample(range(size), size // 2))
    cells = []
    for i in filled:
        r, c = divmod(i, WIDE_COLS)
        cells.append({
            "ref": f"{col_letters(c + 1)}{r + 1}",
            "value": round(rng.uniform(-50, 150), 3),
        })
    corner = f"{col_letters(WIDE_COLS)}{WIDE_ROWS}"
    terminal = f"{col_letters(WIDE_COLS + 2)}1"
    cells.append({"ref": terminal, "formula": f"=SUM(A1:{corner})"})
    empty = size - len(filled)

    def check(report: dict) -> list:
        errors: list = []
        cascades = report["cascades"] or []
        _expect(errors, "cascades", len(cascades), 1)
        if len(cascades) == 1:
            _expect(errors, "total_paths", cascades[0]["total_paths"], size)
            _expect(errors, "cell_count - 1", cascades[0]["cell_count"] - 1, size)
            _expect(errors, "max_path_length", cascades[0]["max_path_length"], 2)
        _expect(errors, "W003", _codes(report, "W003"), empty)
        _expect(errors, "warnings", len(report["warnings"]), empty)
        return errors

    return Workload({"sheets": [{"name": "Grid", "cells": cells}]},
                    expected_exit=1, check=check)


# --- deep_chain -----------------------------------------------------------------

DEEP_COLS = 30
DEPTH = 300


def deep_chain(seed: int) -> Workload:
    """DEEP_COLS columns of DEPTH-cell chains ``=IF(p>0,p+1,p-1)``.

    Row 1 is data; every formula reads the cell above three times, so a
    column's terminal has 3^(DEPTH-1) paths, far past int64. Each vertical
    run of copies reads a source that overlaps the run itself, so each of the
    three reference slots of each column is one W005 violation; the
    horizontal runs along a row read a fully populated row and pass.
    """
    rng = random.Random(seed)
    cells = []
    for r in range(1, DEPTH + 1):
        for c in range(1, DEEP_COLS + 1):
            ref = f"{col_letters(c)}{r}"
            if r == 1:
                cells.append({"ref": ref, "value": round(rng.uniform(-50, 150), 3)})
            else:
                p = f"{col_letters(c)}{r - 1}"
                cells.append({"ref": ref, "formula": f"=IF({p}>0,{p}+1,{p}-1)"})

    def check(report: dict) -> list:
        errors: list = []
        cascades = report["cascades"] or []
        _expect(errors, "cascades", len(cascades), DEEP_COLS)
        for cascade in cascades:
            where = cascade["terminal"]
            _expect(errors, f"{where} total_paths", cascade["total_paths"], 3 ** (DEPTH - 1))
            _expect(errors, f"{where} cell_count", cascade["cell_count"], DEPTH)
            _expect(errors, f"{where} max_path_length", cascade["max_path_length"], DEPTH)
        _expect(errors, "W005", _codes(report, "W005"), 3 * DEEP_COLS)
        _expect(errors, "warnings", len(report["warnings"]), 3 * DEEP_COLS)
        return errors

    return Workload({"sheets": [{"name": "Chain", "cells": cells}]},
                    expected_exit=1, check=check)


GENERATORS = {
    "acceptance10k": acceptance10k,
    "if_scan": if_scan,
    "wide_range": wide_range,
    "deep_chain": deep_chain,
}
