"""Discovery and branch complexity of IF constructs.

Every IF call in a formula is a conditional construct. Its M set holds the
IFs that its condition and value branches reach without crossing another
IF: IFs inside the same formula, and IFs in formula cells reached through
cell and range references. Scanning stops at the first IF on a path because
that construct accounts for its own subtree. Each value branch that reaches
no IF is one conditionless computational cascade (N counts them).

What a cell contributes to such a scan depends only on the cell, so it is
computed once per formula cell as the cell's *frontier*: the IFs at the top
level of its formula (not inside another IF) plus the frontiers of the
formula cells it reads outside any IF. Frontiers are built on demand with an
explicit stack. A cell that adds no IF and reads one non-empty frontier
shares that frontier's frozenset. An IF argument reaches its own top-level
IFs plus the frontiers of the cells it reads, and each formula's AST is
walked once to collect both the IF nodes and those per-argument pieces.
The cells a reference reads come from the dependency graph, which numbers
references in ``walk`` order.

The branch complexity of a construct with nested/precedent constructs S_i
and N conditionless branches is ``(sum of their complexities + N)^(1+beta)``,
evaluated bottom-up: at beta = 0 it is exactly the number of logically
disjunctive branch selections that can produce the construct's value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import CycleError, DomainError
from .formula import CellRefNode, FunctionCall, RangeRefNode, child_nodes
from .graph import CellGraph
from .refs import CellRef
from .workbook import Cell, Workbook

ConstructId = tuple[CellRef, tuple[int, ...]]

# What one expression reaches without crossing an IF: the ids of its
# top-level IF calls, and the ordinals of its references outside any IF.
_Reach = tuple[list[ConstructId], list[int]]
# The IF calls of one formula in path order, each as (path, reach of every
# argument).
_Ifs = list[tuple[tuple[int, ...], list[_Reach]]]

_EMPTY: frozenset = frozenset()


@dataclass(frozen=True)
class BetaConfig:
    beta: float = 0.0

    def __post_init__(self):
        if self.beta < 0:
            raise DomainError(f"beta must be >= 0, got {self.beta}")


@dataclass(frozen=True)
class ConditionalConstruct:
    """One IF call, located by its cell and AST path (child index chain)."""

    cell: CellRef
    path: tuple[int, ...]
    nested_or_precedent: tuple[ConstructId, ...]
    conditionless_branches: int
    is_final: bool

    @property
    def id(self) -> ConstructId:
        return (self.cell, self.path)


def _walk_formula(cell: Cell) -> tuple[_Reach, _Ifs]:
    """One pass over a formula: its own reach and its IF calls. The pass is
    pre-order, so references are numbered in ``walk`` order, as the graph
    lists their targets."""
    addr = cell.address
    own: _Reach = ([], [])
    ifs: _Ifs = []
    ordinal = 0
    stack = [((), cell.ast.root, own)]
    while stack:
        path, node, reach = stack.pop()
        if isinstance(node, FunctionCall) and node.name == "IF":
            reach[0].append((addr, path))  # that construct owns its own subtree
            args: list[_Reach] = [([], []) for _ in node.args]
            ifs.append((path, args))
            for i in range(len(args) - 1, -1, -1):
                stack.append((path + (i,), node.args[i], args[i]))
        elif isinstance(node, (CellRefNode, RangeRefNode)):
            reach[1].append(ordinal)
            ordinal += 1
        else:
            children = child_nodes(node)
            for i in range(len(children) - 1, -1, -1):
                stack.append((path + (i,), children[i], reach))
    return own, ifs


def _formulas_read(
    g: CellGraph, targets: list[list[int]], ordinals: Iterable[int]
) -> Iterator[Cell]:
    """Formula cells behind the references ``ordinals`` of a formula whose
    per-reference targets are ``targets``."""
    for o in ordinals:
        for t in targets[o]:
            cell = g.formula_of(t)
            if cell is not None:
                yield cell


def _merge(ifs: list[ConstructId], frontiers: list[frozenset]) -> frozenset:
    """Union of own IFs and read frontiers, sharing a lone frontier's set."""
    parts = [f for f in frontiers if f]
    if not ifs:
        if not parts:
            return _EMPTY
        if all(p is parts[0] for p in parts):
            return parts[0]
    merged = set(ifs)
    for p in parts:
        merged |= p
    return frozenset(merged)


class _Frontiers:
    """Each formula cell's frontier: the IF constructs it reaches without
    crossing an IF, computed at most once and only for cells something reads.

    Every formula is walked once, by :meth:`_walk`. Until its frontier is
    needed, a cell keeps only its own reach; a formula walked ahead of
    canonical order (because an earlier IF reads it) also keeps its IFs
    until :meth:`ifs_of` hands them out. Keeping every formula's IF
    arguments alive instead lets garbage collection dominate on long IF
    chains.
    """

    def __init__(self, g: CellGraph):
        self.g = g
        self._known: dict[int, frozenset] = {}  # by id(cell)
        self._tops: dict[int, _Reach] = {}  # walked, frontier not yet built
        self._ahead: dict[int, _Ifs] = {}  # walked ahead of canonical order

    def _walk(self, cell: Cell) -> _Ifs:
        own, ifs = _walk_formula(cell)
        if own[0] or own[1]:
            self._tops[id(cell)] = own
        else:
            self._known[id(cell)] = _EMPTY
        return ifs

    def ifs_of(self, cell: Cell) -> _Ifs:
        """The IF calls of a formula cell, walking it unless already walked."""
        key = id(cell)
        if key in self._known or key in self._tops:
            return self._ahead.pop(key, [])
        return self._walk(cell)

    def of(self, start: Cell) -> frozenset:
        """The frontier of a formula cell, built in post-order on an explicit
        stack together with those of the formula cells it reads outside IFs."""
        known = self._known
        found = known.get(id(start))
        if found is not None:
            return found
        reads: dict[int, list[Cell]] = {}  # expanded cells not yet finished
        stack = [start]
        while stack:
            cell = stack[-1]
            key = id(cell)
            if key in known:
                stack.pop()
                continue
            top = self._tops.get(key)
            if top is None:
                ifs = self._walk(cell)
                if ifs:
                    self._ahead[key] = ifs
                continue
            deps = reads.get(key)
            if deps is None:
                targets = self.g.reference_targets(cell.address)
                deps = reads[key] = list(_formulas_read(self.g, targets, top[1]))
                pending = [d for d in deps if id(d) not in known]
                if pending:
                    for d in pending:
                        if id(d) in reads:
                            raise CycleError([[d.address.render()]])
                    stack.extend(pending)
                    continue
            known[key] = _merge(top[0], [known[id(d)] for d in deps])
            del self._tops[key], reads[key]
            stack.pop()
        return known[id(start)]


def find_conditionals(wb: Workbook, g: CellGraph) -> list[ConditionalConstruct]:
    """Discover every IF construct in the workbook with its M set and N.

    Raises CycleError on a cyclic reference graph.
    """
    if g.is_cyclic:
        raise CycleError([[a.render() for a in cyc] for cyc in g.cycles])

    frontiers = _Frontiers(g)
    records: list[tuple[ConstructId, set[ConstructId], int]] = []
    reached: set[ConstructId] = set()
    for sheet in wb.sheets:  # canonical order: sheet, row, column, path
        formulas = sorted(key for key, c in sheet.cells.items() if c.ast is not None)
        for key in formulas:
            cell = sheet.cells[key]
            ifs = frontiers.ifs_of(cell)
            targets = g.reference_targets(cell.address) if ifs else []
            for path, args in ifs:
                m_set: set[ConstructId] = set()
                n = 0
                for arg_idx, (arg_ifs, ordinals) in enumerate(args):
                    hit = bool(arg_ifs)
                    m_set.update(arg_ifs)
                    for target in _formulas_read(g, targets, ordinals):
                        f = frontiers.of(target)
                        if f:
                            hit = True
                            m_set |= f
                    if arg_idx > 0 and not hit:
                        n += 1  # a conditionless value branch
                reached |= m_set
                records.append(((cell.address, path), m_set, n))

    position = {cid: i for i, (cid, _, _) in enumerate(records)}
    return [
        ConditionalConstruct(
            cell=cid[0],
            path=cid[1],
            nested_or_precedent=tuple(sorted(m_set, key=position.__getitem__)),
            conditionless_branches=n,
            is_final=cid not in reached,
        )
        for cid, m_set, n in records
    ]


def all_complexities(
    constructs: Sequence[ConditionalConstruct],
    cfg: BetaConfig = BetaConfig(),
) -> dict[ConstructId, float]:
    """Branch complexity of every construct, bottom-up in post-order.

    An explicit stack replaces recursion, so long IF chains need no deep
    call stack. Raises CycleError when a construct reaches itself.
    """
    registry = {c.id: c for c in constructs}
    memo: dict[ConstructId, float] = {}
    in_progress: set[ConstructId] = set()
    for root in constructs:
        stack = [root.id]
        while stack:
            cid = stack[-1]
            if cid in memo:
                stack.pop()
                continue
            c = registry[cid]
            if cid not in in_progress:
                in_progress.add(cid)
                for sub in c.nested_or_precedent:
                    if sub in in_progress:
                        raise CycleError([[sub[0].render()]])
                    if sub not in memo:
                        stack.append(sub)
                continue
            base = sum(memo[i] for i in c.nested_or_precedent) + c.conditionless_branches
            if cfg.beta:
                try:
                    value = base ** (1.0 + cfg.beta)
                except OverflowError:
                    value = math.inf
            else:
                value = base
            in_progress.discard(cid)
            memo[cid] = value
            stack.pop()
    return memo


def conditional_complexity(
    s: ConditionalConstruct,
    cfg: BetaConfig = BetaConfig(),
    constructs: Optional[Sequence[ConditionalConstruct]] = None,
) -> float:
    """Branch complexity of one construct.

    ``constructs`` must contain every construct reachable from ``s``; it
    defaults to just ``s`` (valid only when the construct has no M set).
    """
    return all_complexities(constructs if constructs is not None else [s], cfg)[s.id]


def finals_by_cell(
    constructs: Iterable[ConditionalConstruct],
) -> dict[CellRef, list[ConditionalConstruct]]:
    """The final constructs of each cell, in construct order."""
    by_cell: dict[CellRef, list[ConditionalConstruct]] = {}
    for c in constructs:
        if c.is_final:
            by_cell.setdefault(c.cell, []).append(c)
    return by_cell


def cascade_finals(
    members: Iterable[CellRef],
    finals: Mapping[CellRef, list[ConditionalConstruct]],
) -> list[ConditionalConstruct]:
    """The final constructs of a cascade's members, in construct order.

    ``members`` must be in canonical sheet/row/column order, as cascades
    list them; constructs follow that order too, so picking each member's
    finals in turn keeps construct order in time linear in the members.
    """
    return [c for addr in members for c in finals.get(addr, ())]


def cascade_conditional_report(
    g: CellGraph,
    constructs: Sequence[ConditionalConstruct],
    terminal: CellRef,
    cfg: BetaConfig = BetaConfig(),
) -> list[tuple[ConditionalConstruct, float]]:
    """(final construct, complexity) pairs within one terminal's cascade."""
    complexity = all_complexities(constructs, cfg)
    finals = cascade_finals(g.cascade_members(terminal), finals_by_cell(constructs))
    return [(c, complexity[c.id]) for c in finals]
