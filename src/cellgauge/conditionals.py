"""Discovery and branch complexity of IF constructs.

Every IF call in a formula is a conditional construct. Its M set holds the
IFs that its condition and value branches reach without crossing another
IF: IFs inside the same formula, and IFs in formula cells reached through
cell and range references. Scanning stops at the first IF on a path because
that construct accounts for its own subtree. Each value branch that reaches
no IF is one conditionless computational cascade (N counts them).

Constructs are numbered by position before discovery: IF cells in canonical
order, each cell's IFs in the path order of its shape's IF layout
(``FormulaShape.ifs``, built once per shape at load), so a construct is its
cell's first position plus the IF's index there. A cell's *frontier* is the
IFs it reaches without crossing one: those at the top level of its formula
(``FormulaShape.if_reach``) plus the frontiers of the cells it reads outside
any IF. One pass in topological order over the formula cells downstream of
an IF cell builds the frontiers and, at each IF cell, each IF's M set as a
sorted list of positions, its N and whether it is final; branch complexity
runs on those lists. The result reads as ``ConditionalConstruct`` objects
built on read, so an audit builds ``(CellRef, path)`` ids only for the
constructs its report lists.

The branch complexity of a construct with nested/precedent constructs S_i
and N conditionless branches is ``(sum of their complexities + N)^(1+beta)``,
evaluated bottom-up: at beta = 0 it is exactly the number of logically
disjunctive branch selections that can produce the construct's value.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .errors import CycleError, DomainError, require_finite
from .graph import CellGraph
from .refs import CellRef
from .workbook import Workbook

ConstructId = tuple[CellRef, tuple[int, ...]]

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


@dataclass(eq=False)
class Constructs(Sequence):
    """IF constructs as columns by position: construct k is in the cell
    ``cells[k]`` (node id ``nodes[k]``) at ``paths[k]``, its M set is the
    positions ``nested[k]``, its N is ``branches[k]`` and ``final[k]`` says
    whether it is final. It reads as a sequence of ``ConditionalConstruct``,
    each built when it is read."""

    nodes: list[int]
    paths: list[tuple[int, ...]]
    nested: list[list[int]]
    branches: list[int]
    final: list[bool]
    cells: Sequence[CellRef]

    @classmethod
    def of(cls, constructs: Sequence[ConditionalConstruct]) -> "Constructs":
        """``constructs`` as columns, matching nested ids to constructs by
        equality; a ``Constructs`` is returned as it is."""
        if isinstance(constructs, Constructs):
            return constructs
        position = {c.id: k for k, c in enumerate(constructs)}
        return cls([c.node for c in constructs], [c.path for c in constructs],
                   [[position[sub] for sub in c.nested_or_precedent] for c in constructs],
                   [c.conditionless_branches for c in constructs],
                   [c.is_final for c in constructs], [c.cell for c in constructs])

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, k: int) -> ConditionalConstruct:
        cells, paths = self.cells, self.paths
        return ConditionalConstruct(
            cells[k], paths[k], tuple((cells[j], paths[j]) for j in self.nested[k]),
            self.branches[k], self.final[k], self.nodes[k])


def find_conditionals(wb: Workbook, g: CellGraph) -> Constructs:
    """Discover every IF construct in the workbook with its M set and N, as
    columns by position (see the module notes). ``g`` is the graph of
    ``wb``. Raises CycleError on a cyclic reference graph."""
    if g.is_cyclic:
        raise CycleError([[a.render() for a in cyc] for cyc in g.cycles])

    shapes = g.shapes()
    if_cells = g.canonical(v for v in g.formulas()[0] if shapes[v].ifs)
    first: dict[int, int] = {}  # each IF cell's first position
    nodes: list[int] = []
    paths: list[tuple[int, ...]] = []
    for v in if_cells:
        first[v] = len(nodes)
        paths += map(itemgetter(0), shapes[v].ifs)
        nodes += repeat(v, len(paths) - len(nodes))
    nested: list[list[int]] = [[]] * len(nodes)
    branches = [0] * len(nodes)
    final = [True] * len(nodes)
    frontier = [_EMPTY] * g.node_count
    down = g.downstream(if_cells)
    order = g.topological_order() if down else []  # no IF: no frontier to build
    for v in compress(order, map(down.__contains__, order)):
        shape = shapes[v]
        top_ifs, top_refs = shape.if_reach
        base = first.get(v)
        targets = g.reference_targets(v)
        parts = [f for o in top_refs
                 for f in filter(None, map(frontier.__getitem__, targets[o]))
                 ] if top_refs else ()
        if top_ifs:
            frontier[v] = frozenset(map(base.__add__, top_ifs)).union(*parts)
        elif parts:  # one frontier read once or more is shared
            frontier[v] = (parts[0] if all(p is parts[0] for p in parts)
                           else _EMPTY.union(*parts))
        if base is None:
            continue
        for k, (_, args) in enumerate(shape.ifs, base):
            m_set: set[int] = set()
            for arg_idx, (arg_ifs, ordinals) in enumerate(args):
                hit = bool(arg_ifs)
                if arg_ifs:
                    m_set.update(map(base.__add__, arg_ifs))
                for o in ordinals:
                    for t in targets[o]:
                        f = frontier[t]
                        if f:
                            hit = True
                            m_set |= f
                if arg_idx and not hit:
                    branches[k] += 1  # a conditionless value branch
            nested[k] = m = sorted(m_set)
            for j in m:
                final[j] = False
    return Constructs(nodes, paths, nested, branches, final, g.locations(nodes))


class Complexities(Mapping):
    """Branch complexities by construct id, in construct order;
    ``by_position[k]`` is that of construct k of ``constructs``."""

    def __init__(self, constructs: Constructs, by_position: list[float]):
        self.constructs = constructs
        self.by_position = by_position

    @cached_property
    def _by_id(self) -> dict[ConstructId, float]:
        return dict(zip(zip(self.constructs.cells, self.constructs.paths), self.by_position))

    def __getitem__(self, cid: ConstructId) -> float:
        return self._by_id[cid]

    def __iter__(self) -> Iterator[ConstructId]:
        return iter(self._by_id)

    def __len__(self) -> int:
        return len(self._by_id)


def all_complexities(
    constructs: Sequence[ConditionalConstruct],
    cfg: BetaConfig = BetaConfig(),
) -> Complexities:
    """Branch complexity of every construct, bottom-up in post-order.

    Runs on construct positions (``Constructs.of``). An explicit stack
    replaces recursion, so long IF chains need no deep call stack. Raises
    CycleError when a construct reaches itself.
    """
    cs = Constructs.of(constructs)
    nested, branches, beta = cs.nested, cs.branches, cfg.beta
    memo: list[Optional[float]] = [None] * len(cs)
    in_progress = [False] * len(cs)
    for root in range(len(cs)):
        stack = [root]
        while stack:
            i = stack[-1]
            if memo[i] is None and not in_progress[i]:
                in_progress[i] = True
                for j in nested[i]:
                    if in_progress[j]:
                        raise CycleError([[cs.cells[j].render()]])
                    if memo[j] is None:
                        stack.append(j)
                continue
            stack.pop()
            if memo[i] is None:  # its nested constructs are done
                in_progress[i] = False
                base = sum(memo[j] for j in nested[i]) + branches[i]
                try:
                    memo[i] = base ** (1.0 + beta) if beta else base
                except OverflowError:
                    memo[i] = math.inf
    return Complexities(cs, memo)


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


def finals_by_cell(constructs: Sequence[ConditionalConstruct]) -> dict[int, list[int]]:
    """The positions of each cell's final constructs by node id, in
    construct order."""
    cs = Constructs.of(constructs)
    by_cell: dict[int, list[int]] = {}
    for k in compress(range(len(cs)), cs.final):
        by_cell.setdefault(cs.nodes[k], []).append(k)
    return by_cell


def cascade_finals(
    member_ids: Iterable[int],
    finals: Mapping[int, list[int]],
) -> list[int]:
    """The positions of the final constructs of a cascade's members, in
    construct order.

    ``member_ids`` must be in canonical sheet/row/column order, as cascades
    list them; constructs follow that order too, so picking each member's
    finals in turn keeps construct order in time linear in the members.
    Without any final construct no member is scanned.
    """
    if not finals:
        return []
    return [k for i in member_ids for k in finals.get(i, ())]


def cascade_conditional_report(
    g: CellGraph,
    constructs: Sequence[ConditionalConstruct],
    terminal: CellRef,
    cfg: BetaConfig = BetaConfig(),
) -> list[tuple[ConditionalConstruct, float]]:
    """(final construct, complexity) pairs within one terminal's cascade;
    ``constructs`` are those ``find_conditionals`` found in ``g``."""
    cs = Constructs.of(constructs)
    complexity = all_complexities(cs, cfg).by_position
    return [(cs[k], complexity[k])
            for k in cascade_finals(g.member_ids(terminal), finals_by_cell(cs))]
