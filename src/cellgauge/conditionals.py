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
cells it reads outside any IF. Only a formula cell downstream of some IF
cell (``CellGraph.downstream``) can have a non-empty frontier; one pass over
the graph's topological order (``CellGraph.topological_order``) computes
theirs into a list by node id, and every other node's frontier is empty. A
cell that adds no IF and reads one non-empty frontier shares that
frontier's frozenset. An IF argument reaches its own top-level IFs plus the
frontiers of the cells it reads.
Where a formula's IFs sit and which references each argument holds depend
only on its shape, so the load computes that layout once per shape
(``FormulaShape.if_reach`` and ``ifs``) and each cell pairs it with its
node id; no AST is walked. The cells a reference reads come from the
dependency graph, which numbers references in ``walk`` order, by node id.
Discovery and complexity key constructs by integers, (node id, path) and
list position, and build the public ``(CellRef, path)`` ids only for what
they return.

The branch complexity of a construct with nested/precedent constructs S_i
and N conditionless branches is ``(sum of their complexities + N)^(1+beta)``,
evaluated bottom-up: at beta = 0 it is exactly the number of logically
disjunctive branch selections that can produce the construct's value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence

from .errors import CycleError, DomainError, require_finite
from .graph import CellGraph
from .refs import CellRef
from .workbook import Workbook

ConstructId = tuple[CellRef, tuple[int, ...]]
# A construct inside this module: (node id of its cell, path).
_Key = tuple[int, tuple[int, ...]]

_EMPTY: frozenset = frozenset()


@dataclass(frozen=True)
class BetaConfig:
    beta: float = 0.0

    def __post_init__(self):
        require_finite(self, "beta")
        if self.beta < 0:
            raise DomainError(f"beta must be >= 0, got {self.beta}")


@dataclass(frozen=True)
class ConditionalConstruct:
    """One IF call, located by its cell and AST path (child index chain);
    ``node`` is the cell's node id in the graph it was found in."""

    cell: CellRef
    path: tuple[int, ...]
    nested_or_precedent: tuple[ConstructId, ...]
    conditionless_branches: int
    is_final: bool
    node: int

    @property
    def id(self) -> ConstructId:
        return (self.cell, self.path)


def _merge(ifs: list[_Key], frontiers: list[frozenset]) -> frozenset:
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


def _frontiers(g: CellGraph, if_cells: list[int]) -> list[frozenset]:
    """Each node's frontier by node id: the IF constructs it reaches without
    crossing an IF, as (node id, path) keys. Only the formula cells
    downstream of ``if_cells`` (the IF cells) can reach one; every other
    node's frontier is empty. One pass in topological order builds each of
    their frontiers after those of the cells it reads. A cell's own reach
    comes from its shape (``FormulaShape.if_reach``), paired with its node
    id."""
    shapes = g.shapes()
    down = g.downstream(if_cells)
    frontier = [_EMPTY] * g.node_count
    order = g.topological_order()
    for v in compress(order, map(down.__contains__, order)):
        top_ifs, top_refs = shapes[v].if_reach
        targets = g.reference_targets(v) if top_refs else []
        frontier[v] = _merge([(v, p) for p in top_ifs],
                             [frontier[t] for o in top_refs for t in targets[o]])
    return frontier


def find_conditionals(wb: Workbook, g: CellGraph) -> list[ConditionalConstruct]:
    """Discover every IF construct in the workbook with its M set and N.

    ``g`` is the graph of ``wb``. Raises CycleError on a cyclic reference
    graph. Constructs are keyed by (node id, path) throughout; the public
    ``(CellRef, path)`` ids are built once per construct, for the result.
    """
    if g.is_cyclic:
        raise CycleError([[a.render() for a in cyc] for cyc in g.cycles])

    ids, shapes, _ = g.formulas()
    shape_of = dict(compress(zip(ids, shapes), map(attrgetter("ifs"), shapes)))
    # Canonical order: sheet, row, column, path.
    if_cells = g.canonical(shape_of)
    frontier = _frontiers(g, if_cells) if if_cells else []  # only IF arguments read it
    records: list[tuple[_Key, set[_Key], int]] = []
    reached: set[_Key] = set()
    for v in if_cells:
        targets = g.reference_targets(v)
        for path, args in shape_of[v].ifs:
            m_set: set[_Key] = set()
            n = 0
            for arg_idx, (arg_ifs, ordinals) in enumerate(args):
                hit = bool(arg_ifs)
                if arg_ifs:
                    m_set.update([(v, p) for p in arg_ifs])
                for o in ordinals:
                    for t in targets[o]:
                        if frontier[t]:
                            hit = True
                            m_set |= frontier[t]
                if arg_idx > 0 and not hit:
                    n += 1  # a conditionless value branch
            reached |= m_set
            records.append(((v, path), m_set, n))

    position = {key: i for i, (key, _, _) in enumerate(records)}
    ids = [(g.address_of(v), path) for (v, path), _, _ in records]
    return [
        ConditionalConstruct(
            cell=ids[i][0],
            path=key[1],
            nested_or_precedent=tuple(
                ids[j] for j in sorted(map(position.__getitem__, m_set))),
            conditionless_branches=n,
            is_final=key not in reached,
            node=key[0],
        )
        for i, (key, m_set, n) in enumerate(records)
    ]


def all_complexities(
    constructs: Sequence[ConditionalConstruct],
    cfg: BetaConfig = BetaConfig(),
) -> dict[ConstructId, float]:
    """Branch complexity of every construct, bottom-up in post-order.

    Works on construct positions: each nested id is looked up once, and
    the walk then runs on list indices. An explicit stack replaces
    recursion, so long IF chains need no deep call stack. Raises CycleError
    when a construct reaches itself.
    """
    position = {c.id: i for i, c in enumerate(constructs)}
    nested = [[position[sub] for sub in c.nested_or_precedent] for c in constructs]
    memo: list[Optional[float]] = [None] * len(constructs)
    in_progress = [False] * len(constructs)
    for root in range(len(constructs)):
        stack = [root]
        while stack:
            i = stack[-1]
            if memo[i] is not None:
                stack.pop()
                continue
            if not in_progress[i]:
                in_progress[i] = True
                for j in nested[i]:
                    if in_progress[j]:
                        raise CycleError([[constructs[j].cell.render()]])
                    if memo[j] is None:
                        stack.append(j)
                continue
            base = sum(memo[j] for j in nested[i]) + constructs[i].conditionless_branches
            if cfg.beta:
                try:
                    value = base ** (1.0 + cfg.beta)
                except OverflowError:
                    value = math.inf
            else:
                value = base
            in_progress[i] = False
            memo[i] = value
            stack.pop()
    return {c.id: value for c, value in zip(constructs, memo)}


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
) -> dict[int, list[ConditionalConstruct]]:
    """The final constructs of each cell by node id, in construct order."""
    by_cell: dict[int, list[ConditionalConstruct]] = {}
    for c in constructs:
        if c.is_final:
            by_cell.setdefault(c.node, []).append(c)
    return by_cell


def cascade_finals(
    member_ids: Iterable[int],
    finals: Mapping[int, list[ConditionalConstruct]],
) -> list[ConditionalConstruct]:
    """The final constructs of a cascade's members, in construct order.

    ``member_ids`` must be in canonical sheet/row/column order, as cascades
    list them; constructs follow that order too, so picking each member's
    finals in turn keeps construct order in time linear in the members.
    Without any final construct no member is scanned.
    """
    if not finals:
        return []
    return [c for i in member_ids for c in finals.get(i, ())]


def cascade_conditional_report(
    g: CellGraph,
    constructs: Sequence[ConditionalConstruct],
    terminal: CellRef,
    cfg: BetaConfig = BetaConfig(),
) -> list[tuple[ConditionalConstruct, float]]:
    """(final construct, complexity) pairs within one terminal's cascade;
    ``constructs`` are those ``find_conditionals`` found in ``g``."""
    complexity = all_complexities(constructs, cfg)
    finals = cascade_finals(g.member_ids(terminal), finals_by_cell(constructs))
    return [(c, complexity[c.id]) for c in finals]
