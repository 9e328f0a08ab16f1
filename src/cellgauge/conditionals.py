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
explicit stack and kept by node id. A cell that adds no IF and reads one
non-empty frontier shares that frontier's frozenset. An IF argument reaches
its own top-level IFs plus the frontiers of the cells it reads. Where a
formula's IFs sit and which references each argument holds depend only on
its shape, so the load computes that layout once per shape
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
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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


def _formulas_read(
    g: CellGraph, targets: list[list[int]], ordinals: Iterable[int]
) -> Iterator[int]:
    """Node ids of the formula cells behind the references ``ordinals`` of
    a formula whose per-reference targets are ``targets``."""
    for o in ordinals:
        for t in targets[o]:
            if g.formula_of(t) is not None:
                yield t


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


class _Frontiers:
    """Each formula cell's frontier by node id: the IF constructs it reaches
    without crossing an IF, as (node id, path) keys, computed at most once
    and only for cells something reads. A cell's own reach comes from its
    shape (``FormulaShape.if_reach``), paired with its node id."""

    def __init__(self, g: CellGraph):
        self.g = g
        self._known: dict[int, frozenset] = {}

    def of(self, start: int) -> frozenset:
        """The frontier of a formula node, built in post-order on an explicit
        stack together with those of the formula cells it reads outside IFs."""
        found = self._known.get(start)
        if found is not None:
            return found
        g, known = self.g, self._known
        reads: dict[int, list[int]] = {}  # expanded nodes not yet finished
        stack = [start]
        while stack:
            v = stack[-1]
            if v in known:
                stack.pop()
                continue
            top_ifs, top_refs = g.formula_of(v).shape.if_reach
            deps = reads.get(v)
            if deps is None:
                deps = reads[v] = (
                    list(_formulas_read(g, g.reference_targets(v), top_refs))
                    if top_refs else [])
                pending = [d for d in deps if d not in known]
                if pending:
                    for d in pending:
                        if d in reads:
                            raise CycleError([[g.address_of(d).render()]])
                    stack.extend(pending)
                    continue
            known[v] = _merge([(v, p) for p in top_ifs], [known[d] for d in deps])
            del reads[v]
            stack.pop()
        return known[start]


def find_conditionals(wb: Workbook, g: CellGraph) -> list[ConditionalConstruct]:
    """Discover every IF construct in the workbook with its M set and N.

    ``g`` is the graph of ``wb``. Raises CycleError on a cyclic reference
    graph. Constructs are keyed by (node id, path) throughout; the public
    ``(CellRef, path)`` ids are built once per construct, for the result.
    """
    if g.is_cyclic:
        raise CycleError([[a.render() for a in cyc] for cyc in g.cycles])

    frontiers = _Frontiers(g)
    records: list[tuple[_Key, set[_Key], int]] = []
    reached: set[_Key] = set()
    cells = g.cells()
    for v in g.cell_ids():  # canonical order: sheet, row, column, path
        cell = cells[v]
        if cell.shape is None or not cell.shape.ifs:
            continue
        targets = g.reference_targets(v)
        for path, args in cell.shape.ifs:
            m_set: set[_Key] = set()
            n = 0
            for arg_idx, (arg_ifs, ordinals) in enumerate(args):
                hit = bool(arg_ifs)
                if arg_ifs:
                    m_set.update([(v, p) for p in arg_ifs])
                for target in _formulas_read(g, targets, ordinals):
                    f = frontiers.of(target)
                    if f:
                        hit = True
                        m_set |= f
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
    """
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
