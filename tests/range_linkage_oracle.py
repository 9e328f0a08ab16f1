"""Range linkage as it was when it found runs cell by cell, kept verbatim as
an oracle.

``_copied_runs`` keys, sorts and walks every formula cell along each axis;
``_block_through`` walks the populated block that holds the first populated
cell of a segment, keeping each walked cell's block; and
``check_range_linkage`` reads each run's slots one ``locations`` call at a
time. ``cellgauge.metrics.check_range_linkage``, which finds runs per shift
key from packed ints, must give the same findings in the same order.
"""

from __future__ import annotations

from typing import Optional

from cellgauge.formula import FormulaShape
from cellgauge.graph import CellGraph
from cellgauge.metrics import RangeLinkageFinding
from cellgauge.refs import CellRef, RangeRef


def _block_through(index: dict[tuple[int, int], int], vertical: bool, line: int,
                   lo: int, hi: int, blocks: dict[tuple, tuple[int, int]],
                   ) -> Optional[tuple[int, int]]:
    """The first and last position of the block of populated cells,
    contiguous along ``line`` (a column when ``vertical``, else a row) of
    the sheet whose cell ``index`` is given, that holds the first populated
    cell of the segment ``lo..hi`` of that line; None when the segment has
    none. ``blocks`` keeps the bounds of every block walked on the sheet,
    by (axis, line, position), so calls that share it walk each cell at
    most once per axis."""
    if vertical:
        def populated(p: int) -> bool:
            return (p, line) in index
    else:
        def populated(p: int) -> bool:
            return (line, p) in index
    pos = next(filter(populated, range(lo, hi + 1)), None)
    if pos is None:
        return None
    found = blocks.get((vertical, line, pos))
    if found is None:
        lo = hi = pos
        while lo > 1 and populated(lo - 1):
            lo -= 1
        while populated(hi + 1):
            hi += 1
        found = (lo, hi)
        for p in range(lo, hi + 1):
            blocks[(vertical, line, p)] = found
    return found


def _copied_runs(g: CellGraph) -> tuple[list[list[int]], list[list[int]]]:
    """The vertical and the horizontal runs of ``g``'s formula cells: each a
    maximal run of >= 2 cells, consecutive along one column (or row), that
    share a shift key (``FormulaShape.shift_key_at``), as node ids. Vertical
    runs come by sheet position, column and first row, horizontal ones by
    sheet position, row and first column, whatever the order of the cells
    in the document."""
    ids, shapes = g.formulas()
    at = g.locations(ids)
    keys = list(map(FormulaShape.shift_key_at, shapes, at.columns, at.rows))
    position = {sheet.name: k for k, sheet in enumerate(g.workbook.sheets)}
    sheets = list(map(position.__getitem__, at.sheets))
    runs: tuple[list[list[int]], list[list[int]]] = ([], [])
    for found, lines, positions in zip(runs, (at.columns, at.rows), (at.rows, at.columns)):
        run: list[int] = []
        last = None
        for sheet, line, pos, key, i in sorted(zip(sheets, lines, positions, keys, ids)):
            if (sheet, line, pos - 1, key) != last:  # not the next copy of the run
                if len(run) >= 2:
                    found.append(run)
                run = []
            run.append(i)
            last = (sheet, line, pos, key)
        if len(run) >= 2:
            found.append(run)
    return runs


def check_range_linkage(g: CellGraph) -> list[RangeLinkageFinding]:
    """Audit copied-formula runs against their source regions.

    Detects maximal vertical and horizontal runs of shift-equivalent
    formulas; for every reference position shared by the run's formulas it
    compares the populated source extent against the expected one
    (``s`` for absolute references, run length + ``s`` - 1 for relative).
    What each reference reads comes from ``g``; a position where some
    formula names a missing sheet is skipped. Runs are found over the
    graph's formula cells (``g.formulas()``), so each run is a list of node
    ids.

    The copies of a run share one shift key, so along the run each end of
    a reference slot stays put or moves one step per copy: a relative slot
    moves, a slot whose range mixes anchors (``A$3:A1``) grows or shrinks,
    and no slot swaps its ends. A reference's targets list its rectangle
    row-major, so the first and last targets of the run's first and last
    copies, four node ids, fix a slot. It is checked when the first copy's
    two lie on one line along the run's axis; over all its copies it reads
    the segment of that line from the lower of the two first targets to the
    higher of the two last ones; and it is absolute only when the last copy
    reads exactly the first copy's cells. ``s`` is the first copy's cell
    count.
    """
    findings: list[RangeLinkageFinding] = []
    addr = g.address_of
    blocks: dict[str, dict[tuple, tuple[int, int]]] = {}  # per sheet
    for vertical, runs in zip((True, False), _copied_runs(g)):
        for run in runs:
            target = RangeRef(addr(run[0]), addr(run[-1]))
            for first, last in zip(g.reference_targets(run[0]), g.reference_targets(run[-1])):
                if not first:  # a reference to a missing sheet
                    continue
                at = g.locations((first[0], first[-1], last[0], last[-1]))
                along, across = (at.rows, at.columns) if vertical else (at.columns, at.rows)
                line, sheet = across[0], at.sheets[0]
                if across[1] != line:  # the first copy spans more than one line
                    continue
                lo, hi = min(along[0], along[2]), max(along[1], along[3])
                block = _block_through(g.workbook.sheet(sheet).index, vertical, line, lo, hi,
                                       blocks.setdefault(sheet, {}))
                lo, hi = block or (lo, hi)
                ends = [CellRef(sheet, line, p) if vertical else CellRef(sheet, p, line)
                        for p in (lo, hi)]
                actual = 0 if block is None else hi - lo + 1
                s = len(first)
                absolute = first[0] == last[0] and first[-1] == last[-1]
                expected = s if absolute else len(run) + s - 1
                findings.append(RangeLinkageFinding(
                    source_range=RangeRef(*ends), target_range=target, s=s,
                    ref_style="absolute" if absolute else "relative",
                    expected_extent=expected, actual_extent=actual,
                    verdict="ok" if expected == actual else "violation"))
    return findings
