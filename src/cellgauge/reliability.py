"""Bottom-line error-rate estimation for cell cascades.

With a uniform cell error rate ``e`` and ``n`` cells in a cascade, the
probability of a wrong bottom-line value is ``E = 1 - (1 - e)^n`` (errors
are independent, so correctness must survive every cell). The adjusted
variant replaces the uniform rate with a per-cell rate scaled by that
cell's complexity, so few-but-complex cascades can rank worse than
long-but-trivial ones.

Each node's survive factor ``1 - rate`` is computed once per audit, by node
id (``survive_factors``), and ``cascade_reliability`` folds the factors over
each group of cascades that share a cone (``CellGraph.cascade_groups``).
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DomainError, _Record, _set, require_finite
from .graph import CascadeGroup
from .metrics import CellMetrics
from .refs import CellRef


class ReliabilityConfig(_Record):
    """Base cell error rate plus the complexity-adjustment weights.

    A formula cell's rate is ``min(cap, base_cer * (1 + c))`` with

        c = w_tokens * (N1 + N2) / 10
          + w_depth * (depth - 1)
          + w_dispersion * DR
          + w_decisions * decisions
          + w_span * (col_span + row_span) / 20

    and a data cell's rate is ``base_cer * data_cell_factor``.
    """

    __slots__ = ("base_cer", "w_tokens", "w_depth", "w_dispersion", "w_decisions",
                 "w_span", "data_cell_factor", "cap")

    def __init__(self, base_cer: float = 0.02, w_tokens: float = 1.0,
                 w_depth: float = 1.0, w_dispersion: float = 1.0,
                 w_decisions: float = 1.0, w_span: float = 1.0,
                 data_cell_factor: float = 0.25, cap: float = 0.25):
        for name, value in zip(self.__slots__, (base_cer, w_tokens, w_depth, w_dispersion,
                                                w_decisions, w_span, data_cell_factor, cap)):
            _set(self, name, value)
        require_finite(self, *self.__slots__)
        if not 0.0 <= self.base_cer < 1.0:
            raise DomainError(f"base_cer must be in [0, 1), got {self.base_cer}")
        for name in ("w_tokens", "w_depth", "w_dispersion", "w_decisions", "w_span"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be non-negative")
        if self.data_cell_factor < 0:
            raise DomainError("data_cell_factor must be non-negative")
        if not 0.0 < self.cap <= 1.0:
            raise DomainError(f"cap must be in (0, 1], got {self.cap}")
        if self.cap < self.base_cer:
            raise DomainError("cap must not be below base_cer")


class CascadeReliability(NamedTuple):
    terminal: CellRef
    n: int
    uniform_e: float
    adjusted_e: float


def bottom_line_error_rate(e: float, n: int) -> float:
    """Probability of a wrong terminal value: 1 - (1 - e)^n."""
    if not 0.0 <= e < 1.0:
        raise DomainError(f"cell error rate must be in [0, 1), got {e}")
    if n < 0:
        raise DomainError(f"cascade size must be >= 0, got {n}")
    return 1.0 - (1.0 - e) ** n


def adjusted_cell_rate(
    m: Optional[CellMetrics], cfg: ReliabilityConfig = ReliabilityConfig()
) -> float:
    """Complexity-adjusted error rate for one cell.

    ``None`` (no metrics record) and all-zero records are data cells.
    """
    if m is None or not m.is_formula:
        return cfg.base_cer * cfg.data_cell_factor
    c = (
        cfg.w_tokens * (m.n_operators + m.n_operands) / 10.0
        + cfg.w_depth * (m.depth_of_nesting - 1)
        + cfg.w_dispersion * m.dispersion
        + cfg.w_decisions * m.decision_count
        + cfg.w_span * (m.col_span + m.row_span) / 20.0
    )
    return min(cfg.cap, cfg.base_cer * (1.0 + c))


def cell_error_rates(
    metrics: Iterable[CellMetrics], cfg: ReliabilityConfig = ReliabilityConfig()
) -> list[float]:
    """Each cell's :func:`adjusted_cell_rate`, in the order of ``metrics``.

    Given the metrics of a graph's cells in node order
    (``g.workbook.iter_cells()`` order), the list is indexed by node id. A record
    that many cells share (one object) is rated once.
    """
    metrics = list(metrics)  # keeps each record alive while its id is a key
    distinct = dict(zip(map(id, metrics), metrics))
    rates = {k: adjusted_cell_rate(m, cfg) for k, m in distinct.items()}
    return list(map(rates.__getitem__, map(id, metrics)))


def survive_factors(records: Sequence[Optional[CellMetrics]], index: Sequence[int],
                    node_count: int, cfg: ReliabilityConfig = ReliabilityConfig()) -> list[float]:
    """Each node's survive factor ``1 - rate``, by node id. ``records`` are
    the distinct metrics records of a graph's populated cells, and
    ``index[i]`` is the position in ``records`` of node ``i``'s record, for
    each populated node in node order (``g.workbook.iter_cells()``). Each
    record is rated once, as :func:`cell_error_rates` rates it, and the
    materialized empty cells, the nodes past ``index``, take the data-cell
    rate."""
    factors = [1.0 - adjusted_cell_rate(m, cfg) for m in records]
    survive = list(map(factors.__getitem__, index))
    survive += [1.0 - adjusted_cell_rate(None, cfg)] * (node_count - len(index))
    return survive


def cascade_reliability(group: CascadeGroup, survive: Sequence[float],
                        cfg: ReliabilityConfig = ReliabilityConfig()) -> list[CascadeReliability]:
    """The rates of each cascade of ``group``, in its terminal order, given
    each node's survive factor. A product multiplies the members in canonical
    order: those before the terminal, the terminal, then those after it. One
    terminal ``t`` of graph ``g`` is the group ``next(g.cascade_groups([t]))``."""
    factors = list(map(survive.__getitem__, group.order))
    return [CascadeReliability(
        stats.terminal, stats.cell_count, bottom_line_error_rate(cfg.base_cer, stats.cell_count),
        1.0 - math.prod(factors[at:], start=math.prod(factors[:at], start=1.0) * survive[t]))
        for t, at, stats in group.terminals]
