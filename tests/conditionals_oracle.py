"""Conditional discovery and branch complexity as they were before IF
constructs were numbered by position, verbatim but for where the IF layout
comes from.

``find_conditionals`` here keyed frontiers and M sets by (node id, path)
tuples, walked the IF cells a second time after the frontier pass, and
built one ``ConditionalConstruct`` and one ``CellRef`` id per construct;
``all_complexities`` matched nested ids to constructs through a dict by
id. Shapes then gave the IF layout by path; ``path_shapes`` rebuilds that
layout from each formula's own parse with the ``_layout`` of the time, so
the oracle shares no layout code with the code it checks.
``test_conditionals.py`` compares every construct field and both
complexity maps against these.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import attrgetter
from types import SimpleNamespace
from typing import Optional, Sequence, Union

from cellgauge.conditionals import BetaConfig, ConditionalConstruct
from cellgauge.errors import CycleError
from cellgauge.formula import AstNode, CellRefNode, FunctionCall, RangeRefNode, child_nodes
from cellgauge.graph import CellGraph
from cellgauge.refs import CellRef, RangeRef
from cellgauge.workbook import Workbook

ConstructId = tuple[CellRef, tuple[int, ...]]
# A construct inside this module: (node id of its cell, path).
_Key = tuple[int, tuple[int, ...]]

_EMPTY: frozenset = frozenset()

Reach = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]
IfLayout = tuple[tuple[tuple[int, ...], tuple[Reach, ...]], ...]


def _layout(root: AstNode) -> tuple[list[Union[CellRef, RangeRef]], Reach, IfLayout]:
    """One pre-order pass over a formula: the refs of its reference leaves,
    its own reach and its IF calls. References are numbered in ``walk``
    order, as the dependency graph lists their targets; a path is the chain
    of child indexes from the root."""
    leaves: list[Union[CellRef, RangeRef]] = []
    own: tuple[list, list] = ([], [])
    ifs: list = []
    stack = [((), root, own)]
    while stack:
        path, node, reach = stack.pop()
        if isinstance(node, FunctionCall) and node.name == "IF":
            reach[0].append(path)  # that construct owns its own subtree
            args: list[tuple[list, list]] = [([], []) for _ in node.args]
            ifs.append((path, args))
            for i in range(len(args) - 1, -1, -1):
                stack.append((path + (i,), node.args[i], args[i]))
        elif isinstance(node, (CellRefNode, RangeRefNode)):
            reach[1].append(len(leaves))
            leaves.append(node.ref)
        else:
            children = child_nodes(node)
            for i in range(len(children) - 1, -1, -1):
                stack.append((path + (i,), children[i], reach))

    def frozen(reach: tuple[list, list]) -> Reach:
        return tuple(reach[0]), tuple(reach[1])

    return leaves, frozen(own), tuple(
        (path, tuple(frozen(arg) for arg in args)) for path, args in ifs)


def path_shapes(g: CellGraph) -> tuple[list[int], dict[int, SimpleNamespace]]:
    """The formula cells' node ids, ascending, and each one's IF layout by
    path (``if_reach`` and ``ifs`` as shapes gave them), from its parse."""
    ids = g.formulas()[0]
    shapes = {}
    for v in ids:
        _, if_reach, ifs = _layout(g.workbook.cell(g.address_of(v)).ast.root)
        shapes[v] = SimpleNamespace(if_reach=if_reach, ifs=ifs)
    return ids, shapes


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
    shapes = path_shapes(g)[1]
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

    ids, by_node = path_shapes(g)
    shapes = [by_node[v] for v in ids]
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
