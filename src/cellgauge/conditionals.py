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
sorted list of positions, its N and whether it is final. A frontier of
more than four IFs built from other frontiers is dropped once its last
reader is done, so the frontiers held stay linear in the cells even where
they grow along a chain. The pass also records the order in which it
finishes constructs: IF cells in topological order, each cell's IFs from
its last position to its first, so every construct follows its whole M
set, and branch complexity is one loop in that order. The result reads as
``ConditionalConstruct`` objects built on read, so an audit builds
``(CellRef, path)`` ids only for the constructs its report lists.

The branch complexity of a construct with nested/precedent constructs S_i
and N conditionless branches is ``(sum of their complexities + N)^(1+beta)``,
evaluated bottom-up: at beta = 0 it is exactly the number of logically
disjunctive branch selections that can produce the construct's value.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from itertools import compress, count
from typing import Iterable, NamedTuple, Optional, Union

from .errors import DomainError, _Record, _set, require_finite
from .graph import CellGraph
from .refs import CellRef

ConstructId = tuple[CellRef, tuple[int, ...]]

_EMPTY: frozenset = frozenset()


class BetaConfig(_Record):
    __slots__ = ("beta",)

    def __init__(self, beta: float = 0.0):
        _set(self, "beta", beta)
        require_finite(self, "beta")
        if self.beta < 0:
            raise DomainError(f"beta must be >= 0, got {self.beta}")


class ConditionalConstruct(NamedTuple):
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


class Constructs(Sequence):
    """IF constructs as columns by position: construct k is in the cell
    ``cells[k]`` (node id ``nodes[k]``) at ``paths[k]``, its M set is the
    positions ``nested[k]``, its N is ``branches[k]`` and ``final[k]`` says
    whether it is final. ``order`` holds every position once, each after
    all the positions of its M set: the order in which discovery finished
    them. It reads as a sequence of ``ConditionalConstruct``, each built
    when it is read (a slice reads as a list)."""

    def __init__(self, nodes: list[int], paths: list[tuple[int, ...]],
                 nested: list[list[int]], branches: list[int], final: list[bool],
                 cells: Sequence[CellRef], order: Sequence[int]):
        self.nodes, self.paths, self.nested = nodes, paths, nested
        self.branches, self.final, self.cells, self.order = branches, final, cells, order

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, k: Union[int, slice]):
        if isinstance(k, slice):
            return list(map(self.__getitem__, range(len(self))[k]))
        cells, paths = self.cells, self.paths
        return ConditionalConstruct(
            cells[k], paths[k], tuple((cells[j], paths[j]) for j in self.nested[k]),
            self.branches[k], self.final[k], self.nodes[k])


def find_conditionals(g: CellGraph) -> Constructs:
    """Discover every IF construct in ``g``'s workbook with its M set and N,
    as columns by position (see the module notes). Raises CycleError on a
    cyclic reference graph."""
    g._ensure_acyclic()
    shapes = g.shapes()
    if_cells = g.canonical(v for v in g.formulas()[0] if shapes[v].ifs)
    first: dict[int, int] = {}  # each IF cell's first position
    nodes: list[int] = []
    paths: list[tuple[int, ...]] = []
    for v in if_cells:  # a loop: most IF cells hold one IF
        first[v] = len(nodes)
        for path, _ in shapes[v].ifs:
            paths.append(path)
            nodes.append(v)
    nested: list[list[int]] = [[]] * len(nodes)
    branches = [0] * len(nodes)
    final = [True] * len(nodes)
    frontier = [_EMPTY] * g.node_count
    # Positions as the pass finishes them, allocated once: growing it by
    # appends left the heap about 0.2 MB larger on deep_chain.
    finished = array("q", [0]) * len(nodes)
    slot = count()
    down = g.downstream(if_cells)
    order = g.topological_order() if down else []  # no IF: no frontier to build
    # Reference o of cell v reads preds[v][o and ends[v][o - 1]:ends[v][o]].
    preds_of, ends_of = g.reference_columns()
    # Holding every frontier made memory quadratic in the length of an
    # IF-fed chain. ``readers`` counts the reading arcs still to come of
    # each frontier of more than four IFs built from others; each frontier
    # held to the end is its own cell's IFs, or at most four, which a
    # frozenset keeps in its smallest table.
    readers: dict[int, int] = {}
    for v in compress(order, map(down.__contains__, order)):
        shape = shapes[v]
        top_ifs, top_refs = shape.if_reach
        base = first.get(v)
        preds, ends = preds_of[v], ends_of[v]
        parts = []
        for o in top_refs:  # a one-cell reference's target is read with no slice
            lo = o and ends[o - 1]
            parts += filter(None, (frontier[preds[lo]],) if ends[o] - lo == 1
                            else map(frontier.__getitem__, preds[lo:ends[o]]))
        if top_ifs:  # with no part read, the cell's own IFs are the frontier
            own = frozenset(map(base.__add__, top_ifs))
            frontier[v] = own.union(*parts) if parts else own
        elif parts:  # one frontier read once or more is shared
            frontier[v] = (parts[0] if all(p is parts[0] for p in parts)
                           else _EMPTY.union(*parts))
        if parts and len(frontier[v]) > 4:
            left = g.fan_out(v)
            if left:
                readers[v] = left
            else:  # no cell reads it
                frontier[v] = _EMPTY
        if base is not None:
            k = base + len(shape.ifs)
            # An IF nests only IFs after it in path order: finish them last to first.
            for _, args in reversed(shape.ifs):
                k -= 1
                m_set: set[int] = set()
                for arg_idx, (arg_ifs, ordinals) in enumerate(args):
                    hit = bool(arg_ifs)
                    if arg_ifs:
                        m_set.update(map(base.__add__, arg_ifs))
                    for o in ordinals:
                        lo = o and ends[o - 1]
                        f = frontier[preds[lo]] if ends[o] - lo == 1 else _EMPTY.union(
                            *map(frontier.__getitem__, preds[lo:ends[o]]))
                        if f:
                            hit = True
                            m_set |= f
                    if arg_idx and not hit:
                        branches[k] += 1  # a conditionless value branch
                nested[k] = m = sorted(m_set) if len(m_set) > 1 else [*m_set]
                for j in m:
                    final[j] = False
                finished[next(slot)] = k
        if readers and not readers.keys().isdisjoint(preds):
            for t in preds:
                if t in readers:
                    readers[t] -= 1
                    if not readers[t]:
                        del readers[t]
                        frontier[t] = _EMPTY
    return Constructs(nodes, paths, nested, branches, final, g.locations(nodes), finished)


def all_complexities(constructs: Constructs, cfg: BetaConfig = BetaConfig()) -> list[float]:
    """Branch complexity of each construct ``find_conditionals`` found, by
    position: one loop in ``constructs.order``, where each construct's M set
    is done before it.

    An M set of zero or one construct takes no ``sum`` call: on a chain of
    IFs that each nest one, the calls cost more than the adding. A larger M
    set keeps ``sum``: from Python 3.12 it adds floats with compensation,
    which a plain loop would not match to the last bit."""
    nested, branches, beta = constructs.nested, constructs.branches, cfg.beta
    memo: list[float] = [0.0] * len(constructs)
    for k in constructs.order:
        m = nested[k]
        base = branches[k]
        if m:
            base += memo[m[0]] if len(m) == 1 else sum(map(memo.__getitem__, m))
        try:
            memo[k] = base ** (1.0 + beta) if beta else base
        except OverflowError:
            memo[k] = math.inf
    return memo


def conditional_complexity(
    s: ConditionalConstruct,
    cfg: BetaConfig = BetaConfig(),
    constructs: Optional[Constructs] = None,
) -> float:
    """Branch complexity of one construct.

    ``constructs`` are those ``find_conditionals`` found with ``s``. Without
    them ``s`` must have no M set, and its complexity is N^(1+beta).
    """
    if constructs is None:
        if s.nested_or_precedent:
            raise DomainError(f"the IF at {s.cell.render()} path {s.path} has an M set: "
                              "pass the constructs found with it")
        n = s.conditionless_branches
        return n ** (1.0 + cfg.beta) if cfg.beta else n
    k = next((k for k, at in enumerate(zip(constructs.nodes, constructs.paths))
              if at == (s.node, s.path)), None)
    if k is None:
        raise DomainError(f"the IF at {s.cell.render()} path {s.path} is not among the constructs")
    return all_complexities(constructs, cfg)[k]


def finals_by_cell(constructs: Constructs) -> dict[int, list[int]]:
    """The positions of each cell's final constructs by node id, in
    construct order."""
    by_cell: dict[int, list[int]] = {}
    for k in compress(range(len(constructs)), constructs.final):
        by_cell.setdefault(constructs.nodes[k], []).append(k)
    return by_cell


def cascade_finals(
    member_ids: Iterable[int],
    finals: dict[int, list[int]],
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
    constructs: Constructs,
    terminal: CellRef,
    cfg: BetaConfig = BetaConfig(),
) -> list[tuple[ConditionalConstruct, float]]:
    """(final construct, complexity) pairs within one terminal's cascade;
    ``constructs`` are those ``find_conditionals`` found in ``g``."""
    complexity = all_complexities(constructs, cfg)
    return [(constructs[k], complexity[k])
            for k in cascade_finals(g.member_ids(terminal), finals_by_cell(constructs))]
