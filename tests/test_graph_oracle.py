"""The dependency graph against the one it replaced.

``CellGraph`` resolves each range in bulk, orders nodes by one int key and
builds the address of a materialized empty cell only when a query asks for
it. ``OracleGraph`` below is the graph as it was before, kept verbatim but
for its name: it built a ``CellRef`` and a sort-key tuple for every node
and resolved ranges cell by cell. On random workbooks every public query
must answer the same, including errors from the range budget.
"""

from __future__ import annotations

import warnings as _warnings
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Union

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellgauge.errors import (
    AuditWarning,
    CycleError,
    DomainError,
    LimitExceededError,
    NotBottomLineWarning,
    RangeBudgetError,
    UnknownCellError,
    W_EMPTY_REFERENCED_CELL,
)
from cellgauge.graph import (
    EMPTY_RANGE_CELL_COST,
    MAX_RANGE_CELLS,
    CascadeStats,
    CellGraph,
    DanglingReference,
    require_range_budget,
)
from cellgauge.refs import CellRef, RangeRef, column_to_letters, parse_cell_address
from cellgauge.workbook import Cell, Sheet, Workbook, load_workbook_doc

AddrLike = Union[CellRef, str, int]


# --- The graph before bulk ranges and int keys, verbatim -----------------------


def _resolve(wb: Workbook, ref: Union[CellRef, RangeRef], own: Sheet) -> Optional[Sheet]:
    """The sheet a reference reads: ``own`` when unqualified, None when it
    names a missing sheet."""
    name = (ref if isinstance(ref, CellRef) else ref.start).sheet
    return own if name is None else wb.sheet(name)


def _targets(ref: Union[CellRef, RangeRef]) -> Iterable[tuple[int, int]]:
    """The ``(row, column)`` keys a reference reads, row-major."""
    if isinstance(ref, CellRef):
        return ((ref.row, ref.column),)
    return product(range(ref.start.row, ref.end.row + 1),
                   range(ref.start.column, ref.end.column + 1))



class OracleGraph:
    """Immutable directed multigraph over the non-empty cells of a workbook.

    Every formula is resolved here straight into node ids: populated cells
    are nodes 0.. in ``iter_cells`` order (``cells()``), and each empty cell
    becomes a node when it is first referenced. References to missing sheets
    are collected in ``dangling`` and add no edge.

    Every query takes a cell address (a ``CellRef`` or its text) or a node
    id. The audit's stages pass node ids, so after the graph is built no
    stage looks a cell up by its address.

    The ranges of all formulas together may cost at most
    ``max_range_cells``: each range reference counts its area before it
    expands, and each empty cell it brings into the graph counts
    ``EMPTY_RANGE_CELL_COST`` in all. A range that would go past the budget
    raises RangeBudgetError, before it expands or when its empty cells
    take the budget past its limit.
    """

    def __init__(self, wb: Workbook, max_range_cells: int = MAX_RANGE_CELLS):
        require_range_budget(max_range_cells)
        self._wb = wb
        self._addrs: list[CellRef] = []
        self._cells: list[Cell] = []  # the populated nodes' cells
        self._sort_keys: list[tuple[int, int, int]] = []
        # Per node, in reference order: precedents (with multiplicity) and
        # dependents. Edges point in the direction of data flow.
        self._preds: list[list[int]] = []
        self._succs: list[list[int]] = []
        # Per sheet name: the node id of each (row, column) key.
        self._ids: dict[str, dict[tuple[int, int], int]] = {}
        self.dangling: list[DanglingReference] = []

        def add_node(addr: CellRef, sort_key: tuple) -> int:
            self._addrs.append(addr)
            self._sort_keys.append(sort_key)
            self._preds.append([])
            self._succs.append([])
            return len(self._addrs) - 1

        sheet_pos = {}
        for pos, sheet in enumerate(wb.sheets):
            sheet_pos[sheet.name] = pos
            self._ids[sheet.name] = {
                key: add_node(cell.address, (pos,) + key)
                for key, cell in sheet.cells.items()
            }
            self._cells.extend(sheet.cells.values())
        self._populated = len(self._addrs)
        # Per populated node, where each reference's targets end in its
        # precedents; a materialized empty cell has no formula.
        self._ref_ends: list[tuple[int, ...]] = [()] * self._populated

        edges = 0
        range_cells_left = max_range_cells
        layouts: dict[tuple[int, ...], tuple[int, ...]] = {}
        for own in wb.sheets:
            own_ids = self._ids[own.name]
            for key, cell in own.cells.items():
                if cell.shape is None:
                    continue
                dst = own_ids[key]
                preds = self._preds[dst]
                ends = []
                for ref in cell.shape.references(cell.address.column, cell.address.row):
                    sheet = _resolve(wb, ref, own)
                    if sheet is None:
                        first = ref if isinstance(ref, CellRef) else ref.start
                        self.dangling.append(
                            DanglingReference(cell.address, ref.render(), first.sheet))
                    else:
                        is_range = isinstance(ref, RangeRef)
                        if is_range:  # checked before it expands
                            range_cells_left -= ref.width * ref.height
                            if range_cells_left < 0:
                                raise RangeBudgetError(
                                    cell.address.render(), ref.render(), max_range_cells)
                        ids = self._ids[sheet.name]
                        for target in _targets(ref):
                            src = ids.get(target)
                            if src is None:  # an empty cell, materialized as data
                                if is_range:
                                    range_cells_left -= EMPTY_RANGE_CELL_COST - 1
                                    if range_cells_left < 0:
                                        raise RangeBudgetError(
                                            cell.address.render(), ref.render(),
                                            max_range_cells)
                                row, column = target
                                src = ids[target] = add_node(
                                    CellRef(sheet.name, column, row),
                                    (sheet_pos[sheet.name], row, column))
                            preds.append(src)
                            self._succs[src].append(dst)
                    ends.append(len(preds))
                ends = tuple(ends)  # copies of one formula share one tuple
                self._ref_ends[dst] = layouts.setdefault(ends, ends)
                edges += len(preds)

        self.node_count = len(self._addrs)
        self.edge_count = edges
        self._topo = self._topological_order()
        self.cycles: list[list[CellRef]] = (
            self._find_cycles() if len(self._topo) < self.node_count else []
        )
        self._stats: Optional[tuple[list[int], list[int], list[int]]] = None

    # -- node lookup --------------------------------------------------------

    def _idx(self, addr: Union[CellRef, str]) -> int:
        if isinstance(addr, str):
            addr = parse_cell_address(addr)
        sheet = self._wb.sheet(addr.sheet) if addr.sheet is not None else None
        idx = None if sheet is None else self._ids[sheet.name].get((addr.row, addr.column))
        if idx is None:
            raise UnknownCellError(addr.render())
        return idx

    def _node(self, addr: AddrLike) -> int:
        return addr if isinstance(addr, int) else self._idx(addr)

    def node_id(self, addr: Union[CellRef, str]) -> int:
        """The node id of a cell; UnknownCellError when it is not a node."""
        return self._idx(addr)

    def has_cell(self, addr: AddrLike) -> bool:
        try:
            self._node(addr)
            return True
        except UnknownCellError:
            return False

    def nodes(self) -> list[CellRef]:
        return list(self._addrs)

    def cells(self) -> list[Cell]:
        """The workbook's cells in node order: node ``i`` is ``cells()[i]``."""
        return list(self._cells)

    def cell_ids(self) -> list[int]:
        """The node ids of the workbook's cells, canonical sheet/row/column
        order."""
        return self._canonical(range(self._populated))

    def address_of(self, idx: int) -> CellRef:
        return self._addrs[idx]

    def formula_of(self, idx: int) -> Optional[Cell]:
        """The formula cell of a node; None for a data or empty cell."""
        if idx < self._populated:
            cell = self._cells[idx]
            if cell.shape is not None:
                return cell
        return None

    def precedents(self, addr: AddrLike) -> list[CellRef]:
        """The cells a cell reads, one per resolved reference, in reference
        order: ranges expanded row-major, duplicates kept."""
        return [self._addrs[p] for p in self._preds[self._node(addr)]]

    def precedent_ids(self, addr: AddrLike) -> list[int]:
        """The node ids of ``precedents(addr)``, in the same order."""
        return list(self._preds[self._node(addr)])

    def reference_targets(self, addr: AddrLike) -> list[list[int]]:
        """The node ids each reference of a cell's formula reads, one list
        per reference in ``walk`` order: a range's cells row-major, and no
        target for a reference to a missing sheet."""
        idx = self._node(addr)
        if idx >= self._populated:
            return []
        preds, start, targets = self._preds[idx], 0, []
        for end in self._ref_ends[idx]:
            targets.append(preds[start:end])
            start = end
        return targets

    def _canonical(self, indices: Iterable[int]) -> list[int]:
        return sorted(indices, key=self._sort_keys.__getitem__)

    # -- degrees and roles ----------------------------------------------------

    def fan_in(self, addr: AddrLike) -> int:
        return len(self._preds[self._node(addr)])

    def fan_out(self, addr: AddrLike) -> int:
        return len(self._succs[self._node(addr)])

    def bottom_line_cells(self) -> list[CellRef]:
        """Formula cells with no dependents, in canonical sheet/row/column order."""
        idxs = [
            i
            for i, cell in enumerate(self._cells)
            if cell.shape is not None and not self._succs[i]
        ]
        return [self._addrs[i] for i in self._canonical(idxs)]

    def input_cells(self) -> list[CellRef]:
        idxs = [i for i in range(self.node_count) if not self._preds[i]]
        return [self._addrs[i] for i in self._canonical(idxs)]

    def materialized_cells(self) -> list[CellRef]:
        idxs = range(self._populated, self.node_count)
        return [self._addrs[i] for i in self._canonical(idxs)]

    def materialized_warnings(self) -> list[AuditWarning]:
        message = "referenced cell is empty; treated as data cell with value 0"
        return [AuditWarning(W_EMPTY_REFERENCED_CELL, text, message)
                for text in map(CellRef.render, self.materialized_cells())]

    # -- cycles ---------------------------------------------------------------

    @property
    def is_cyclic(self) -> bool:
        return bool(self.cycles)

    def _ensure_acyclic(self) -> None:
        if self.cycles:
            raise CycleError(
                [[a.render() for a in cyc] for cyc in self.cycles]
            )

    def _topological_order(self) -> list[int]:
        """Kahn's algorithm; shorter than ``node_count`` when there is a cycle."""
        deg = [len(preds) for preds in self._preds]
        order = [v for v in range(self.node_count) if not deg[v]]
        for v in order:  # the loop also visits the nodes appended below
            for w in self._succs[v]:
                deg[w] -= 1
                if not deg[w]:
                    order.append(w)
        return order

    def _find_cycles(self) -> list[list[CellRef]]:
        """Strongly connected components of size > 1, plus self-loops."""
        n = self.node_count
        index = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack: list[int] = []
        sccs: list[list[int]] = []
        counter = 0
        for root in range(n):
            if index[root] != -1:
                continue
            work = [(root, 0)]
            while work:
                v, ei = work.pop()
                if ei == 0:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = True
                advanced = False
                out = self._succs[v]
                for k in range(ei, len(out)):
                    w = out[k]
                    if index[w] == -1:
                        work.append((v, k + 1))
                        work.append((w, 0))
                        advanced = True
                        break
                    if on_stack[w]:
                        low[v] = min(low[v], index[w])
                if advanced:
                    continue
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(comp)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
        cycles = [
            self._canonical(comp) for comp in sccs
            if len(comp) > 1 or comp[0] in self._preds[comp[0]]
        ]
        cycles.sort(key=lambda cyc: self._sort_keys[cyc[0]])
        return [[self._addrs[i] for i in cyc] for cyc in cycles]

    # -- path statistics --------------------------------------------------------

    def _path_stats(self) -> tuple[list[int], list[int], list[int]]:
        """Per node: path count, summed path length and longest path length.

        Paths start at zero-fan-in cells and lengths count cells. The values
        depend only on a node's ancestors, so one topological pass serves
        every cell and every cascade.
        """
        if self._stats is None:
            n = self.node_count
            count, length_sum, max_len = [0] * n, [0] * n, [0] * n
            for v in self._topo:
                preds = self._preds[v]
                if preds:
                    c = sum(count[p] for p in preds)
                    count[v] = c
                    length_sum[v] = sum(length_sum[p] for p in preds) + c
                    max_len[v] = 1 + max(max_len[p] for p in preds)
                else:
                    count[v] = length_sum[v] = max_len[v] = 1
            self._stats = count, length_sum, max_len
        return self._stats

    def _closure(self, idx: int) -> set[int]:
        """A node plus all its transitive precedents."""
        seen = {idx}
        stack = [idx]
        while stack:
            for p in self._preds[stack.pop()]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

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
        return self._canonical(self._closure(idx))

    def cascade_members(self, addr: AddrLike) -> list[CellRef]:
        """The terminal plus all its transitive precedents, canonical order."""
        return [self._addrs[i] for i in self.member_ids(addr)]

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
                f"{self._addrs[idx].render()} has dependents; "
                "cascade statistics cover its precedent closure",
                NotBottomLineWarning,
                stacklevel=2,
            )
        count, length_sum, max_len = self._path_stats()
        members = self.member_ids(idx)
        paths = count[idx]
        return CascadeStats(
            terminal=self._addrs[idx],
            total_paths=paths,
            avg_reachability=Fraction(sum(count[i] for i in members), len(members)),
            avg_path_length=Fraction(length_sum[idx], paths),
            max_path_length=max_len[idx],
            cell_count=len(members),
        )

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
                paths.append([self._addrs[i] for i in reversed(trail)])
            if pos < len(preds):
                edge_pos[-1] = pos + 1
                trail.append(preds[pos])
                edge_pos.append(0)
            else:
                trail.pop()
                edge_pos.pop()
        return paths


# --- Random workbooks ------------------------------------------------------------
#
# Two sheets, one of whose names needs quotes, populated at random in
# columns 1-5 and rows 1-6. Formulas read single cells and ranges up to
# column 7 and row 9, so they read data, formula and empty cells, often in
# overlapping ranges, on their own sheet, on the other one or on a missing
# one. Some read a small range far below every populated row.

SHEETS = ("S", "My Data")
PREFIXES = ("", "", "S!", "'My Data'!", "Nope!")
FAR_ROWS = (5_000, 10 ** 20)

corner = st.tuples(st.integers(1, 7), st.integers(1, 9))


def a1(column: int, row: int) -> str:
    return f"{column_to_letters(column)}{row}"


reference = st.one_of(
    st.builds(lambda p, c: p + a1(*c), st.sampled_from(PREFIXES), corner),
    st.builds(lambda p, c1, c2: f"SUM({p}{a1(*c1)}:{a1(*c2)})",
              st.sampled_from(PREFIXES), corner, corner),
    st.builds(lambda p, c, row: f"SUM({p}{a1(c, row)}:{a1(c + 1, row + 2)})",
              st.sampled_from(PREFIXES), st.integers(1, 6), st.sampled_from(FAR_ROWS)),
)
formula = st.lists(reference, min_size=1, max_size=4).map(lambda refs: "=" + "+".join(refs))
content = st.one_of(st.integers(-9, 9), formula)
sheet_cells = st.dictionaries(st.tuples(st.integers(1, 5), st.integers(1, 6)), content,
                              max_size=14)


# Cycle-heavy workbooks: most cells of a 3 x 3 block on each sheet are
# formulas that read cells of a 4 x 4 block, so cells read themselves
# (self-loops), each other (2-cycles and longer), the same cell twice
# (parallel edges) and the other sheet, and a cycle's cone holds empty
# cells; a component that reads another one is linked one way.
near_reference = st.builds(lambda p, c: p + a1(*c), st.sampled_from(("", "", "S!", "'My Data'!")),
                           st.tuples(st.integers(1, 4), st.integers(1, 4)))
near_formula = st.lists(near_reference, min_size=1, max_size=3).map(
    lambda refs: "=" + "+".join(refs))
dense_cells = st.dictionaries(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                              st.one_of(st.integers(-9, 9), *[near_formula] * 4),
                              min_size=6, max_size=9)


@st.composite
def workbooks(draw, cells=sheet_cells):
    doc = {"sheets": []}
    for name in SHEETS:
        sheet = []
        for (column, row), value in draw(cells).items():
            key = "formula" if isinstance(value, str) else "value"
            sheet.append({"ref": a1(column, row), key: value})
        doc["sheets"].append({"name": name, "cells": sheet})
    return load_workbook_doc(doc)


def outcome(call):
    """A query's value, or its error's type and message."""
    try:
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", NotBottomLineWarning)
            return call()
    except (CycleError, LimitExceededError, RangeBudgetError) as exc:
        return type(exc), str(exc)


def assert_same_graph(g: CellGraph, oracle: OracleGraph) -> None:
    n = g.node_count
    assert list(g.locations(range(n))) == oracle.nodes()
    assert (n, g.edge_count, g.dangling) == (
        oracle.node_count, oracle.edge_count, oracle.dangling)
    preds = g.reference_columns()[0]
    for i in range(n):
        assert g.address_of(i) == oracle.address_of(i)
        assert g.precedents(i) == oracle.precedents(i)
        assert list(preds[i]) == oracle.precedent_ids(i)
        assert g.reference_targets(i) == oracle.reference_targets(i)
    assert g.materialized_cells() == oracle.materialized_cells()
    assert list(g.locations(g.canonical(
        i for i, p in enumerate(preds) if not p))) == oracle.input_cells()
    assert list(g.locations(g.bottom_line_ids())) == oracle.bottom_line_cells()
    assert g.cell_ids() == oracle.cell_ids()
    assert g.cycles == oracle.cycles
    closures = [oracle._closure(j) for j in range(n)]
    for i in range(n):
        assert g.downstream([i]) == {j for j in range(n) if i in closures[j]}
        for query in ("member_ids", "cascade_stats"):
            assert outcome(lambda: getattr(g, query)(i)) == outcome(
                lambda: getattr(oracle, query)(i))
        assert outcome(lambda: list(g.locations(g.member_ids(i)))) == outcome(
            lambda: oracle.cascade_members(i))
        assert outcome(lambda: g.enumerate_paths(i, limit=6)) == outcome(
            lambda: oracle.enumerate_paths(i, limit=6))


# Every kind of cycle at once: S!A1 reads itself; S!B1 and S!C1 read each
# other, C1 twice; 'My Data'!B1:D1 is a 3-cycle that reads S!B1's
# component one way; S!B1 reads the self-loop through 'My Data'!A1, whose
# empty D9 is in both cones; and S!D1 is a dependent of a cycle.
LINKED_CYCLES = load_workbook_doc({"sheets": [
    {"name": "S", "cells": [
        {"ref": "A1", "formula": "=A1*2"},
        {"ref": "B1", "formula": "=C1+'My Data'!A1"},
        {"ref": "C1", "formula": "=B1+B1"},
        {"ref": "D1", "formula": "='My Data'!B1+1"},
        {"ref": "E1", "value": 5}]},
    {"name": "My Data", "cells": [
        {"ref": "A1", "formula": "=S!A1+D9"},
        {"ref": "B1", "formula": "=C1"},
        {"ref": "C1", "formula": "=D1+S!B1"},
        {"ref": "D1", "formula": "=B1+E5"}]},
]})


@settings(deadline=None)
@given(st.one_of(workbooks(), workbooks(dense_cells)))
@example(LINKED_CYCLES)
def test_graph_answers_as_the_oracle(wb):
    g = outcome(lambda: CellGraph(wb))
    assert isinstance(g, CellGraph)  # the default budget is far away
    assert_same_graph(g, OracleGraph(wb))


@settings(deadline=None)
@given(workbooks(), st.integers(0, 400))
def test_range_budget_as_the_oracle(wb, budget):
    g = outcome(lambda: CellGraph(wb, budget))
    oracle = outcome(lambda: OracleGraph(wb, budget))
    if isinstance(oracle, OracleGraph):
        assert_same_graph(g, oracle)
    else:
        assert g == oracle


def test_far_rows_keep_their_order_and_addresses():
    # Empty cells read far below every populated row, on both sheets: their
    # keys need a row field wider than any populated row does.
    wb = load_workbook_doc({"sheets": [
        {"name": "S", "cells": [
            {"ref": "A1", "value": 1},
            {"ref": "B1", "formula": "=SUM(A99999999999999999998:B99999999999999999999)"
                                     "+'My Data'!C5000+A2"}]},
        {"name": "My Data", "cells": [
            {"ref": "A1", "formula": "=S!A7+SUM(S!A3:A4)"}]},
    ]})
    g, oracle = CellGraph(wb), OracleGraph(wb)
    assert_same_graph(g, oracle)
    assert [a.render() for a in g.materialized_cells()] == [
        "S!A2", "S!A3", "S!A4", "S!A7", "S!A99999999999999999998", "S!B99999999999999999998",
        "S!A99999999999999999999", "S!B99999999999999999999", "'My Data'!C5000"]
