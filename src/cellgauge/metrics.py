"""Per-formula and workbook-level complexity metrics.

Covers operator/operand counts and nesting levels, decision counts,
dispersion of references with column/row spans, consistency checks for
copied-formula ranges, and cross-sheet coupling (data binding triples).

For formula-size metrics a range reference is a single operand; reference
counts, dispersion and spans count every member cell of a range, read from
its rectangle's corners (``Rectangles``), and the graph's cross-sheet arcs
give the data binding triples. Range linkage reads each run formula's
per-reference targets from the graph, one target list per reference slot.
Range linkage and modular metrics read the graph's node-id columns (its
formula cells' ids and shapes, the nodes' locations and dependents), so
neither builds a ``Cell`` or looks a cell up by its address.

Sizes, nesting, decision counts and shift keys depend only on a formula's
shape (``formula.FormulaShape``), which the load computes once for all the
copies of a formula; they are read from the cell's shape, not recomputed
per cell. A shape whose ranges mix anchors keys each copy from the leaves
its shape gives at the copy's cell, so no stage reads an AST. Range linkage walks each
populated source block once per axis, however many runs read it, and reads
every run from its first and last copies alone: copies that share a shift
key move, grow or shrink each reference slot one step per copy, so a slot
is read from its copies' four corner ids.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import itemgetter, not_
from typing import NamedTuple, Optional, Sequence, Union

from .errors import DomainError, _Record, _set, require_finite
from .formula import FormulaShape, decision_count  # decision_count re-exported
from .graph import CellGraph
from .refs import CellRef, Locations, RangeRef
from .workbook import Cell

DISPERSION_MODES = ("product", "manhattan", "euclidean")


class DispersionConfig(_Record):
    """Dispersion scoring: DR = 1 - exp(-alpha * delta).

    ``product`` sums |dx*dy| per reference (same-row/column references
    contribute nothing); ``manhattan`` sums |dx|+|dy|; ``euclidean`` sums
    sqrt(dx^2+dy^2).
    """

    __slots__ = ("alpha", "mode")

    def __init__(self, alpha: float = 0.01, mode: str = "product"):
        _set(self, "alpha", alpha)
        _set(self, "mode", mode)
        require_finite(self, "alpha")
        if not self.alpha > 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if self.mode not in DISPERSION_MODES:
            raise DomainError(f"mode must be one of {DISPERSION_MODES}, got {self.mode!r}")


class CellMetrics(NamedTuple):
    address: CellRef
    n_operators: int = 0
    n_operands: int = 0
    depth_of_nesting: int = 0
    avg_nesting_level: Fraction = Fraction(0)
    decision_count: int = 0
    n_references: int = 0
    dispersion: float = 0.0
    delta_sum: float = 0
    col_span: int = 0
    row_span: int = 0
    cross_sheet_ref_count: int = 0
    mixed_axis_flag: bool = False
    forward_ref_count: int = 0

    @property
    def is_formula(self) -> bool:
        return self.n_operators + self.n_operands > 0


def _abs_sum(lo: int, hi: int) -> int:
    """The sum of |x| over lo..hi."""
    if lo > 0 or hi < 0:
        return abs(lo + hi) * (hi - lo + 1) // 2
    return (lo * (lo - 1) + hi * (hi + 1)) // 2


def _geometry(sheet: Optional[str], column: int, row: int, firsts: Locations,
              lasts: Locations, cfg: DispersionConfig) -> dict:
    """The reference-geometry fields of ``CellMetrics`` for the formula in
    (``column``, ``row``) on ``sheet`` whose reference k reads the rectangle
    from ``firsts[k]`` to ``lasts[k]``, row-major. On the formula's sheet a
    rectangle reads every delta (dx, dy) in x0..x1 by y0..y1: its sums and
    counts are closed forms, and only the euclidean float sum visits each
    delta, in reference order."""
    n = same = delta = forward = 0
    left = right = up = down = 0  # the extreme deltas, and 0
    on_x = on_y = False  # some delta has dx == 0 and dy != 0; some dy == 0 and dx != 0
    dxs, dys = [], []  # euclidean: each rectangle's deltas, row-major
    mode = cfg.mode
    for at, c0, r0, c1, r1 in zip(firsts.sheets, firsts.columns, firsts.rows,
                                  lasts.columns, lasts.rows):
        w, h = c1 - c0 + 1, r1 - r0 + 1
        n += w * h
        if at != sheet:
            continue
        same += w * h
        x0, x1, y0, y1 = c0 - column, c1 - column, r0 - row, r1 - row
        if mode == "euclidean":
            dxs.append(chain.from_iterable(repeat(range(x0, x1 + 1), h)))
            dys.append(chain.from_iterable(map(repeat, range(y0, y1 + 1), repeat(w))))
        else:
            sx, sy = _abs_sum(x0, x1), _abs_sum(y0, y1)
            delta += sx * sy if mode == "product" else h * sx + w * sy
        # Forward: every delta but those with dx <= 0 and dy <= 0.
        forward += w * h - max(0, min(x1, 0) - x0 + 1) * max(0, min(y1, 0) - y0 + 1)
        on_x = on_x or (x0 <= 0 <= x1 and (y0, y1) != (0, 0))
        on_y = on_y or (y0 <= 0 <= y1 and (x0, x1) != (0, 0))
        left, right, up, down = min(left, x0), max(right, x1), min(up, y0), max(down, y1)
    if dxs:  # one float sum in reference order, as one delta at a time gives
        delta = sum(map(math.hypot, chain.from_iterable(dxs), chain.from_iterable(dys)))
    dr = -math.expm1(-cfg.alpha * delta)
    return dict(
        n_references=n, cross_sheet_ref_count=n - same,
        # The score lives in [0, 1); keep that true when exp() underflows.
        dispersion=min(dr, math.nextafter(1.0, 0.0)), delta_sum=delta,
        col_span=right - left, row_span=down - up,
        mixed_axis_flag=on_x and on_y, forward_ref_count=forward)


def _of_deltas(deltas: Sequence[tuple[int, int]], cfg: DispersionConfig) -> dict:
    at = Locations([None] * len(deltas), [dx for dx, _ in deltas], [dy for _, dy in deltas])
    return _geometry(None, 0, 0, at, at, cfg)  # one-cell rectangles from (0, 0)


def dispersion(
    deltas: Sequence[tuple[int, int]], cfg: DispersionConfig = DispersionConfig()
) -> tuple[float, float]:
    """(DR, delta sum) for a formula's same-sheet (dx, dy) reference deltas."""
    return itemgetter("dispersion", "delta_sum")(_of_deltas(deltas, cfg))


def spans(deltas: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """(column span, row span): max positive minus max negative delta."""
    return itemgetter("col_span", "row_span")(_of_deltas(deltas, DispersionConfig()))


class Rectangles(NamedTuple):
    """A formula's references that read cells, in reference order: reference
    k reads the rectangle from ``firsts[k]`` to ``lasts[k]``, its top-left
    and bottom-right cells."""

    firsts: Locations
    lasts: Locations


def formula_metrics(
    cell: Cell,
    precedents: Union[Rectangles, Sequence[CellRef]],
    cfg: DispersionConfig = DispersionConfig(),
) -> CellMetrics:
    """Size, structure, and reference-geometry metrics for one cell.

    Data cells yield the all-zero record. ``precedents`` are the cell's
    references as ``Rectangles``, or its own precedent addresses in
    reference order (ranges expanded, duplicates kept), as
    :meth:`CellGraph.precedents` gives them, each read as a one-cell
    rectangle; ``Locations`` are read by their columns, so no ``CellRef``
    is built. A precedent on another sheet counts as cross-sheet; the rest
    give (column, row) deltas. Sizes, nesting and decisions come from the
    cell's shape.
    """
    if not cell.is_formula:
        return CellMetrics(address=cell.address)
    if not isinstance(precedents, Rectangles):
        cells = precedents if isinstance(precedents, Locations) else Locations.of(precedents)
        precedents = Rectangles(cells, cells)
    shape = cell.shape
    at = cell.address
    return CellMetrics(
        address=at,
        n_operators=shape.n_operators,
        n_operands=shape.n_operands,
        depth_of_nesting=shape.depth_of_nesting,
        avg_nesting_level=shape.avg_nesting_level,
        decision_count=shape.decision_count,
        **_geometry(at.sheet, at.column, at.row, *precedents, cfg),
    )


# --- Range linkage -----------------------------------------------------------

class RangeLinkageFinding(NamedTuple):
    """Consistency check between a copied-formula run and its source region.

    For a run of height S_HB whose formulas each read ``s`` consecutive
    source cells, the populated source extent must equal ``s`` under
    absolute referencing and ``S_HB + s - 1`` under relative referencing.
    """

    source_range: RangeRef
    target_range: RangeRef
    s: int
    ref_style: str  # "absolute" | "relative"
    expected_extent: int
    actual_extent: int
    verdict: str  # "ok" | "violation"


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


# --- Modular structure --------------------------------------------------------

class ModularMetrics(NamedTuple):
    """Cross-sheet coupling and dead-data measurements.

    A data binding triple (P, Q, R) records that cell Q on sheet P is read
    by at least one formula on sheet R; triples are deduplicated.
    """

    triples: tuple[tuple[str, CellRef, str], ...]
    triple_count_by_pair: dict[tuple[str, str], int]
    unreferenced_data_pct: float
    module_fan_in: dict[str, int]
    module_fan_out: dict[str, int]


def modular_metrics(g: CellGraph) -> ModularMetrics:
    """Data binding triples, module fan-in/out and the share of data cells
    nothing reads, from ``g`` by node id."""
    sheets = g.workbook.sheets
    triples: set[tuple[str, int, str]] = set()  # (P, node id of Q, R)
    shapes = g.shapes()
    sheet_of = g.sheet_names()
    preds = g.reference_columns()[0]
    # A triple crosses sheets, so a workbook of one sheet has none.
    for i in g.formulas()[0] if len(sheets) > 1 else ():
        r = sheet_of[i]
        for q in preds[i]:
            if sheet_of[q] != r:
                triples.add((sheet_of[q], q, r))
    # Every arc ends at a formula that reads its source, so a data cell
    # nothing reads is one with no dependents.
    outs = list(compress(g.fan_outs(), map(not_, shapes)))  # per data cell
    data_cells, unreferenced = len(outs), outs.count(0)
    fan_in: dict[str, set[str]] = {s.name: set() for s in sheets}
    fan_out: dict[str, set[str]] = {s.name: set() for s in sheets}
    for p, _, r in triples:
        fan_out[p].add(r)
        fan_in[r].add(p)
    pct = 100.0 * unreferenced / data_cells if data_cells else 0.0
    sheet_idx = {s.name: i for i, s in enumerate(sheets)}
    addr = g.address_of
    ordered = sorted(
        ((p, addr(q), r) for p, q, r in triples),
        key=lambda t: (sheet_idx[t[0]], t[1].row, t[1].column, sheet_idx[t[2]]),
    )
    counts: dict[tuple[str, str], int] = {}
    for p, _, r in ordered:
        counts[(p, r)] = counts.get((p, r), 0) + 1
    return ModularMetrics(
        triples=tuple(ordered),
        triple_count_by_pair=counts,
        unreferenced_data_pct=pct,
        module_fan_in={name: len(v) for name, v in fan_in.items()},
        module_fan_out={name: len(v) for name, v in fan_out.items()},
    )
