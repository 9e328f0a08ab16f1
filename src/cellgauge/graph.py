"""Workbook dependency multigraph and cascade statistics.

The graph is the only code that maps a reference to the cells it reads. It
reads the workbook's columns (``workbook.Sheet``), not ``Cell`` objects:
each sheet's cells are nodes from the sheet's offset on, in position order,
so a node id is the sheet's offset plus the cell's position, and only the
formula rows are walked. A formula is its shape plus its cell: the sheets
of a shape's reference leaves (``FormulaShape.leaves``, in ``walk`` order)
are resolved once per shape and sheet, and a copy's targets are its cell
plus the leaves' offsets, looked up as node ids with no ``CellRef``. A
referenced empty cell is materialized as a zero-fan-in data node when it
is first referenced. A range resolves in bulk: one dict lookup per cell in
C, and its empty cells become nodes together. A reference to a missing
sheet reads nothing and is kept in ``CellGraph.dangling``. Conditional
discovery and range linkage read each reference's targets from the graph
(``reference_columns``, ``reference_targets``).

Each node has one int sort key whose order is canonical order (sheet
position, row, column), and every canonical sort compares these ints. A
node is only its key: its ``CellRef`` is built when a query returns it or
an error names it, and ``locations`` reads many nodes' sheets, columns and
rows, and renders their addresses, from their keys alone.

Every query takes a node id as well as an address. After the graph is
built, the audit's stages read the graph alone (its workbook is
``CellGraph.workbook``) and work on node-id columns only: the formula
cells' ids and shapes (``formulas``), each node's shape (``shapes``), the
precedent lists by id, per-cell rates as a list indexed by id, and each
cascade's members as ids. No stage looks a cell up by its address.

Edges point in the direction of data flow (referenced cell -> referencing
cell), one edge per resolved reference, so duplicate references and expanded
ranges produce parallel edges that multiply path counts.

Reachability of a cell is the number of distinct reference paths from
zero-fan-in cells: 1 for a cell without precedents, otherwise the sum of the
reachabilities of its precedents over all incoming edges.

Each cell keeps its predecessor and successor lists in reference order. Path
counts, path-length sums and longest paths depend only on a cell's ancestors,
so one pass in topological order computes them for every cell in exact Python
integers; a cascade then needs only its terminal's precedent closure, which
bottom-line cells that read the same cells share (``CascadeGroup``). All
averages are exact ``Fraction`` values.
"""

from __future__ import annotations

import warnings as _warnings
from bisect import bisect_left
from fractions import Fraction
from itertools import chain, compress, product, repeat
from operator import and_, is_, is_not, itemgetter, lshift, not_, or_, rshift
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .errors import (
    CycleError,
    DomainError,
    LimitExceededError,
    NotBottomLineWarning,
    RangeBudgetError,
    UnknownCellError,
)
from .refs import CellRef, Locations, parse_cell_address
from .workbook import Workbook

# The range budget counts what ranges cost an audit. Each cell a range
# reads is one arc, ~90 bytes of peak RSS; an empty one also becomes a node
# and a W003 warning row (no cell row), ~0.5 KB in all, and counts
# EMPTY_RANGE_CELL_COST. The default budget caps the range-driven part of
# an audit's peak RSS near 0.9 GB.
EMPTY_RANGE_CELL_COST = 10
MAX_RANGE_CELLS = 10_000_000


def require_range_budget(budget: object) -> None:
    """Raise DomainError unless ``budget`` is a non-negative integer."""
    if type(budget) is not int or budget < 0:
        raise DomainError(
            f"max_range_cells must be a non-negative integer, got {budget!r}")


def _reach(ids: Iterable[int], links: list) -> set[int]:
    """Nodes ``ids`` and every node reached from them through ``links``,
    each node's precedents or dependents by node id. A node without links
    has nothing more to visit, so it is never pushed."""
    seen = set(ids)
    stack = list(filter(links.__getitem__, seen))
    while stack:
        for w in links[stack.pop()]:
            if w not in seen:
                seen.add(w)
                if links[w]:
                    stack.append(w)
    return seen


# A cell address, or an int: a node id of the graph at hand.
AddrLike = Union[CellRef, str, int]


class DanglingReference(NamedTuple):
    """A formula reference that names a sheet the workbook does not have."""

    from_cell: CellRef
    target_text: str
    missing_sheet: str


class CascadeStats(NamedTuple):
    """Path statistics over one bottom-line cell's precedent closure;
    ``total_paths`` is the terminal's reachability. ``CellGraph.member_ids``
    lists the members, so every source of a cascade's stats gives equal ones."""

    terminal: CellRef
    total_paths: int
    avg_reachability: Fraction
    avg_path_length: Fraction
    max_path_length: int
    cell_count: int


class CascadeGroup(NamedTuple):
    """The cascades of bottom-line cells that read the same set of nodes:
    ``order`` is that set and every precedent of it in canonical order, and
    ``terminals`` per terminal ``(node id, at, stats)``, where ``order[:at]``
    sorts before it. A terminal's cascade is ``order`` plus itself, in
    canonical order ``order[:at]``, the terminal, ``order[at:]``."""

    order: list[int]
    terminals: list[tuple[int, int, CascadeStats]]


class CellGraph:
    """Immutable directed multigraph over the non-empty cells of a workbook.

    Every formula is resolved here straight into node ids: populated cells
    are nodes 0.. in ``workbook.iter_cells()`` order, and each empty cell
    becomes a node when it is first referenced. References to missing sheets
    are collected in ``dangling`` and add no edge.

    Every query takes a cell address (a ``CellRef`` or its text) or a node
    id, and raises UnknownCellError for one that names no node. The audit's
    stages pass node ids, so after the graph is built no stage looks a cell
    up by its address.

    The ranges of all formulas together may cost at most
    ``max_range_cells``: each range reference counts its area before it
    expands, and each empty cell it brings into the graph counts
    ``EMPTY_RANGE_CELL_COST`` in all. A range that would go past the budget
    raises RangeBudgetError, before it expands or when its empty cells
    take the budget past its limit.
    """

    def __init__(self, wb: Workbook, max_range_cells: int = MAX_RANGE_CELLS):
        require_range_budget(max_range_cells)
        self.workbook = wb
        # Per sheet name: the node id of each (row, column) key. A sheet's
        # cells are nodes from its offset on, in position order.
        self._ids: dict[str, dict[tuple[int, int], int]] = {}
        self._offsets: list[int] = []
        n = 0
        for sheet in wb.sheets:
            self._offsets.append(n)
            self._ids[sheet.name] = dict(zip(sheet.index, range(n, n + len(sheet.index))))
            n += len(sheet.index)
        self._populated = n
        # Each populated node's shape, None for a data cell.
        self._shapes: list = [None] * n
        # Per node, in reference order: precedents (with multiplicity) and
        # dependents. Edges point in the direction of data flow. A node
        # without a formula shares one empty tuple of precedents.
        self._preds: list[Union[list[int], tuple[()]]] = [()] * n
        self._succs: list[list[int]] = [[] for _ in range(n)]
        # Per populated node, where each reference's targets end in its
        # precedents; a materialized empty cell has no formula.
        self._ref_ends: list[tuple[int, ...]] = [()] * n
        # Each materialized node's (row, column) key and sheet position,
        # until the sort keys are built from them.
        empty_keys: list[tuple[int, int]] = []
        empty_sheets: list[int] = []
        dangling: list[tuple[int, str, str]] = []  # (node id, text, sheet)

        edges = 0
        range_cells_left = max_range_cells
        layouts: dict[tuple[int, ...], tuple[int, ...]] = {}
        sheet_pos = {sheet.name: pos for pos, sheet in enumerate(wb.sheets)}
        succs = self._succs
        for own, first in zip(wb.sheets, self._offsets):
            # The formula rows' (row, column) keys: their values are None.
            keys = compress(own.index, map(is_, own.values, repeat(None)))
            # Per shape: each leaf's sheet as its id dict and position
            # (None when missing), its parts and a range's end parts; and
            # when every leaf is a cell on a sheet there is, the ends of a
            # copy that reads no empty cell.
            plans: dict = {}
            for pos, shape, (row, column) in zip(own.formula_rows, own.shapes, keys):
                dst = first + pos
                self._shapes[dst] = shape
                entry = plans.get(shape)
                if entry is None:
                    plan = [(None, None, leaf[0][1:], None) if sheet is None else (
                        self._ids[sheet.name], sheet_pos[sheet.name], leaf[0][1:],
                        leaf[1][1:] if len(leaf) == 2 else None)
                        for leaf in shape.leaves
                        for sheet in [own if leaf[0][0] is None else wb.sheet(leaf[0][0])]]
                    ends = tuple(range(1, len(plan) + 1))
                    cells = all(ids is not None and end is None for ids, _, _, end in plan)
                    entry = plans[shape] = plan, layouts.setdefault(ends, ends) if cells else None
                plan, ends = entry
                if ends is not None:
                    preds = []  # a loop: a comprehension is a call per copy before 3.12
                    for ids, _, (col_abs, col, row_abs, r), _ in plan:
                        preds.append(ids.get((r if row_abs else row + r,
                                              col if col_abs else column + col)))
                    if None not in preds:  # no empty cell to materialize
                        self._preds[dst] = preds
                        for src in preds:
                            succs[src].append(dst)
                        self._ref_ends[dst] = ends
                        edges += len(preds)
                        continue
                preds = self._preds[dst] = []
                ends = []
                for k, (ids, at, (col_abs, col, row_abs, r), end) in enumerate(plan):
                    if ids is None:  # a missing sheet, read by no edge
                        ref = shape.references(column, row)[k]
                        dangling.append((dst, ref.render(), shape.leaves[k][0][0]))
                        ends.append(len(preds))
                        continue
                    # A cell, or a range resolved in bulk: a range's area
                    # is checked before it expands, and its empty cells
                    # become nodes at once.
                    r = r2 = r if row_abs else row + r
                    col = col2 = col if col_abs else column + col
                    if end is not None:
                        col_abs, col2, row_abs, r2 = end
                        r2 = r2 if row_abs else row + r2
                        col2 = col2 if col_abs else column + col2
                        r, r2 = min(r, r2), max(r, r2)
                        col, col2 = min(col, col2), max(col, col2)
                        range_cells_left -= (r2 - r + 1) * (col2 - col + 1)
                    if range_cells_left >= 0:
                        targets = list(product(range(r, r2 + 1), range(col, col2 + 1)))
                        found = list(map(ids.get, targets))
                        empty = found.count(None)
                        if end is not None:
                            range_cells_left -= (EMPTY_RANGE_CELL_COST - 1) * empty
                    if range_cells_left < 0:
                        raise RangeBudgetError(
                            CellRef(own.name, column, row).render(),
                            shape.references(column, row)[k].render(), max_range_cells)
                    for src in compress(found, map(is_not, found, repeat(None))):
                        succs[src].append(dst)
                    if empty:
                        new = list(compress(targets, map(is_, found, repeat(None))))
                        ids.update(zip(new, range(len(succs), len(succs) + empty)))
                        succs.extend(map(list, repeat((dst,), empty)))
                        self._preds.extend(repeat((), empty))
                        empty_keys.extend(new)
                        empty_sheets.extend(repeat(at, empty))
                        found = map(ids.__getitem__, targets)
                    preds.extend(found)
                    ends.append(len(preds))
                ends = tuple(ends)  # copies of one formula share one tuple
                self._ref_ends[dst] = layouts.setdefault(ends, ends)
                edges += len(preds)

        self.node_count = len(succs)
        self.edge_count = edges
        self._set_sort_keys(empty_keys, empty_sheets)
        self.dangling: list[DanglingReference] = [
            DanglingReference(self.address_of(dst), text, missing)
            for dst, text, missing in dangling]
        self._topo = self._topological_order()
        self.cycles: list[list[CellRef]] = (
            self._find_cycles() if len(self._topo) < self.node_count else []
        )
        self._stats: Optional[tuple[list[int], list[int], list[int]]] = None

    def _set_sort_keys(self, empty_keys: list[tuple[int, int]],
                       empty_sheets: list[int]) -> None:
        """Give each node one int whose order is canonical order: its sheet
        position, row and column, as bit fields wide enough for the
        largest row and column of any node, populated or materialized."""
        sheets = self.workbook.sheets
        self._sheet_names = [sheet.name for sheet in sheets]
        keys = list(chain.from_iterable(sheet.index for sheet in sheets))
        keys += empty_keys
        rows = list(map(itemgetter(0), keys))
        columns = list(map(itemgetter(1), keys))
        self._column_bits = max(columns, default=0).bit_length()
        row_bits = max(rows, default=0).bit_length()
        self._sheet_shift = row_bits + self._column_bits
        self._column_mask = (1 << self._column_bits) - 1
        self._row_mask = (1 << row_bits) - 1
        sort_keys = map(or_, map(lshift, rows, repeat(self._column_bits)), columns)
        if len(sheets) > 1:
            positions = chain.from_iterable(
                repeat(pos, len(sheet.index)) for pos, sheet in enumerate(sheets))
            sort_keys = map(or_, sort_keys, map(
                lshift, chain(positions, empty_sheets), repeat(self._sheet_shift)))
        self._sort_keys: list[int] = list(sort_keys)

    # -- node lookup --------------------------------------------------------

    def _idx(self, addr: Union[CellRef, str]) -> int:
        if isinstance(addr, str):
            addr = parse_cell_address(addr)
        sheet = self.workbook.sheet(addr.sheet) if addr.sheet is not None else None
        idx = None if sheet is None else self._ids[sheet.name].get((addr.row, addr.column))
        if idx is None:
            raise UnknownCellError(addr.render())
        return idx

    def _node(self, addr: AddrLike) -> int:
        if not isinstance(addr, int):
            return self._idx(addr)
        if not 0 <= addr < self.node_count:  # a negative id would index from the end
            raise UnknownCellError(f"node {addr}")
        return addr

    def node_id(self, addr: Union[CellRef, str]) -> int:
        """The node id of a cell; UnknownCellError when it is not a node."""
        return self._idx(addr)

    def cell_ids(self) -> list[int]:
        """The node ids of the workbook's cells, canonical sheet/row/column
        order."""
        return self.canonical(range(self._populated))

    def shapes(self) -> list:
        """Each populated node's ``FormulaShape`` by node id; None for a
        data cell."""
        return list(self._shapes)

    def formulas(self) -> tuple[list[int], list]:
        """The formula cells' node ids, ascending, with their shapes in the
        same order."""
        ids: list[int] = []
        shapes: list = []
        for sheet, first in zip(self.workbook.sheets, self._offsets):
            ids += map(first.__add__, sheet.formula_rows)
            shapes += sheet.shapes
        return ids, shapes

    def address_of(self, idx: int) -> CellRef:
        """A node's address, built from its sort key."""
        key = self._sort_keys[idx]
        return CellRef(self._sheet_names[key >> self._sheet_shift],
                       key & self._column_mask,
                       key >> self._column_bits & self._row_mask)

    def _addresses(self, ids: Iterable[int]) -> list[CellRef]:
        return list(map(self.address_of, ids))

    def locations(self, ids: Iterable[int]) -> Locations:
        """The locations of nodes ``ids``, read from their sort keys: no
        ``CellRef`` is built until one is read."""
        keys = list(map(self._sort_keys.__getitem__, ids))
        return Locations(
            self._sheets_of(keys), list(map(and_, keys, repeat(self._column_mask))),
            list(map(and_, map(rshift, keys, repeat(self._column_bits)),
                     repeat(self._row_mask))))

    def grid_keys(self, ids: Iterable[int]) -> tuple[list[int], int, int]:
        """The sort keys of nodes ``ids`` (bit fields: sheet position, row,
        column) and the widths of their column and row fields."""
        return (list(map(self._sort_keys.__getitem__, ids)), self._column_bits,
                self._sheet_shift - self._column_bits)

    def _sheets_of(self, keys: list[int]) -> list[str]:
        if len(self._sheet_names) == 1:  # every node is on the one sheet
            return self._sheet_names * len(keys)
        return list(map(self._sheet_names.__getitem__,
                        map(rshift, keys, repeat(self._sheet_shift))))

    def sheet_names(self) -> list[str]:
        """The sheet name of each node, by node id."""
        return self._sheets_of(self._sort_keys)

    def precedents(self, addr: AddrLike) -> list[CellRef]:
        """The cells a cell reads, one per resolved reference, in reference
        order: ranges expanded row-major, duplicates kept."""
        return self._addresses(self._preds[self._node(addr)])

    def reference_targets(self, addr: AddrLike) -> list[list[int]]:
        """The node ids each reference of a cell's formula reads, one list
        per reference in ``walk`` order: a range's cells row-major, and no
        target for a reference to a missing sheet."""
        idx = self._node(addr)
        if idx >= self._populated:
            return []
        preds, ends = self._preds[idx], self._ref_ends[idx]
        return [preds[o and ends[o - 1]:end] for o, end in enumerate(ends)]

    def reference_columns(self) -> tuple[list, list[tuple[int, ...]]]:
        """The graph's own lists behind ``reference_targets``, to read only:
        by node id, precedent ids ``preds`` and reference ``ends``; reference
        o of node v reads ``preds[v][o and ends[v][o - 1]:ends[v][o]]``."""
        return self._preds, self._ref_ends

    def canonical(self, ids: Iterable[int]) -> list[int]:
        """Node ids sorted into canonical sheet/row/column order."""
        return sorted(ids, key=self._sort_keys.__getitem__)

    def downstream(self, ids: Iterable[int]) -> set[int]:
        """Nodes ``ids`` and every node that reads one of them, directly or
        through other cells."""
        return _reach(ids, self._succs)

    # -- degrees and roles ----------------------------------------------------

    def fan_out(self, addr: AddrLike) -> int:
        return len(self._succs[self._node(addr)])

    def fan_outs(self) -> list[int]:
        """Each node's number of dependents, by node id."""
        return list(map(len, self._succs))

    def bottom_line_ids(self) -> list[int]:
        """The node ids of the formula cells with no dependents, in
        canonical sheet/row/column order."""
        ids = self.formulas()[0]
        return self.canonical(compress(ids, map(not_, map(self._succs.__getitem__, ids))))

    def materialized_ids(self) -> range:
        """The node ids of the empty cells the graph materialized, ascending."""
        return range(self._populated, self.node_count)

    def materialized_locations(self) -> Locations:
        """The empty cells the graph materialized, in canonical order."""
        return self.locations(self.canonical(self.materialized_ids()))

    def materialized_cells(self) -> list[CellRef]:
        return list(self.materialized_locations())

    # -- cycles ---------------------------------------------------------------

    @property
    def is_cyclic(self) -> bool:
        return bool(self.cycles)

    def _ensure_acyclic(self) -> None:
        if self.cycles:
            raise CycleError(
                [[a.render() for a in cyc] for cyc in self.cycles]
            )

    def topological_order(self) -> list[int]:
        """Every node id, each after all the nodes it reads; CycleError on a
        cyclic graph."""
        self._ensure_acyclic()
        return list(self._topo)

    def _topological_order(self) -> list[int]:
        """Kahn's algorithm; shorter than ``node_count`` when there is a cycle."""
        succs = self._succs
        deg = list(map(len, self._preds))
        order = list(compress(range(self.node_count), map(not_, deg)))
        for v in order:  # the loop also visits the nodes appended below
            for w in succs[v]:
                deg[w] -= 1
                if not deg[w]:
                    order.append(w)
        return order

    def _find_cycles(self) -> list[list[CellRef]]:
        """Strongly connected components of more than one node, plus
        self-loops, by Kosaraju's two passes over the nodes Kahn's pass
        left: every cycle lies among them, and so does every dependent of
        one of them."""
        succs, preds = self._succs, self._preds
        left = set(range(self.node_count)).difference(self._topo)
        # Pass 1, over dependents: each node finishes after every node it
        # reaches that no earlier walk reached.
        finished: list[int] = []
        seen: set[int] = set()
        for root in left:
            if root in seen:
                continue
            seen.add(root)
            stack = [(root, iter(succs[root]))]
            while stack:
                v, out = stack[-1]
                for w in out:
                    if w not in seen:
                        seen.add(w)
                        stack.append((w, iter(succs[w])))
                        break
                else:
                    stack.pop()
                    finished.append(v)
        # Pass 2, over precedents, last finished first: each walk takes the
        # nodes of one component.
        cycles = []
        for root in reversed(finished):
            if root not in left:
                continue
            left.remove(root)
            comp = [root]
            for v in comp:  # the loop also visits the nodes appended below
                for p in preds[v]:
                    if p in left:
                        left.remove(p)
                        comp.append(p)
            if len(comp) > 1 or root in preds[root]:
                cycles.append(self.canonical(comp))
        cycles.sort(key=lambda cyc: self._sort_keys[cyc[0]])
        return [self._addresses(cyc) for cyc in cycles]

    # -- path statistics --------------------------------------------------------

    def _path_stats(self) -> tuple[list[int], list[int], list[int]]:
        """Per node: path count, summed path length and longest path length.

        Paths start at zero-fan-in cells and lengths count cells. The values
        depend only on a node's ancestors, so one topological pass serves
        every cell and every cascade.

        Each node folds its precedents in one plain loop. Most nodes read
        one to three cells, where ``sum(map(...))`` reductions cost more in
        calls than in adding; and on CPython 3.11 the loop is also faster per
        precedent at every fan-in measured, up to a 65,000-cell range, so a
        range takes it too.
        """
        if self._stats is None:
            n = self.node_count
            # A zero-fan-in node has one path, one cell long.
            count, length_sum, max_len = [1] * n, [1] * n, [1] * n
            preds_of = self._preds
            for v in self._topo:
                preds = preds_of[v]
                if preds:
                    c = s = m = 0
                    for p in preds:
                        c += count[p]
                        s += length_sum[p]
                        if max_len[p] > m:
                            m = max_len[p]
                    count[v], length_sum[v], max_len[v] = c, s + c, m + 1
            self._stats = count, length_sum, max_len
        return self._stats

    def reachability(self, addr: AddrLike) -> int:
        """Number of distinct reference paths reaching a cell (>= 1)."""
        idx = self._node(addr)
        self._ensure_acyclic()
        return self._path_stats()[0][idx]

    # -- cascades ----------------------------------------------------------------

    def member_ids(self, addr: AddrLike) -> list[int]:
        """The node ids of the terminal plus all its transitive precedents,
        canonical order."""
        idx = self._node(addr)
        self._ensure_acyclic()
        return self.canonical(_reach((idx,), self._preds))

    def cascade_stats(self, addr: AddrLike) -> CascadeStats:
        """Reachability and path-length statistics for one terminal cell.

        Path length counts cells, so a direct data->formula path has length 2.
        If the cell still has dependents a NotBottomLineWarning is emitted and
        the statistics cover its precedent closure anyway.
        """
        idx = self._node(addr)
        self._ensure_acyclic()
        if self._succs[idx]:
            _warnings.warn(
                f"{self.address_of(idx).render()} has dependents; "
                "cascade statistics cover its precedent closure",
                NotBottomLineWarning,
                stacklevel=2,
            )
        return self._cascade_group([idx]).terminals[0][2]

    def cascade_groups(self, terminals: Iterable[int]) -> Iterator[CascadeGroup]:
        """The cascades of bottom-line cells ``terminals`` by the set of
        nodes each reads, one walk, sort and path-count sum per group, in
        the order of each group's first terminal. Each group is built when
        asked for, so a caller that drops it first holds one cone at a time."""
        self._ensure_acyclic()
        groups: dict[frozenset[int], list[int]] = {}
        for t in terminals:
            groups.setdefault(frozenset(self._preds[t]), []).append(t)
        return map(self._cascade_group, list(groups.values()))

    def _cascade_group(self, terminals: list[int]) -> CascadeGroup:
        count, length_sum, max_len = self._path_stats()
        key = self._sort_keys.__getitem__
        order = self.canonical(_reach(self._preds[terminals[0]], self._preds))
        paths = sum(map(count.__getitem__, order))
        return CascadeGroup(order, [(t, bisect_left(order, key(t), key=key), CascadeStats(
            terminal=self.address_of(t),
            total_paths=count[t],
            avg_reachability=Fraction(paths + count[t], len(order) + 1),
            avg_path_length=Fraction(length_sum[t], count[t]),
            max_path_length=max_len[t],
            cell_count=len(order) + 1,
        )) for t in terminals])

    # -- path enumeration ----------------------------------------------------------

    def enumerate_paths(self, addr: AddrLike, limit: int = 100_000) -> list[list[CellRef]]:
        """All source-to-terminal reference paths, depth-first.

        Parallel edges yield one path each. Raises LimitExceededError as soon
        as more than ``limit`` paths exist, and DomainError when ``limit`` is
        negative.
        """
        if limit < 0:
            raise DomainError(f"path limit must be non-negative, got {limit}")
        terminal = self._node(addr)
        self._ensure_acyclic()
        paths: list[list[CellRef]] = []
        # Depth-first over incoming edges; trail holds the path terminal-first.
        trail = [terminal]
        edge_pos = [0]
        while trail:
            v = trail[-1]
            preds = self._preds[v]
            pos = edge_pos[-1]
            if not preds:
                if len(paths) >= limit:
                    raise LimitExceededError(limit)
                paths.append(self._addresses(reversed(trail)))
            if pos < len(preds):
                edge_pos[-1] = pos + 1
                trail.append(preds[pos])
                edge_pos.append(0)
            else:
                trail.pop()
                edge_pos.pop()
        return paths


def build_graph(wb: Workbook, max_range_cells: int = MAX_RANGE_CELLS) -> CellGraph:
    """Build the dependency graph of a workbook.

    Cycle detection always runs: the graph is returned with ``cycles``
    populated, and reachability/path operations raise CycleError on a cyclic
    graph. RangeBudgetError when the ranges of its formulas cost more than
    ``max_range_cells`` (see ``CellGraph``).
    """
    return CellGraph(wb, max_range_cells)
