"""Analysis pipeline and report emission.

``analyze`` runs load -> graph (every reference resolved into node ids) ->
range linkage -> cell metrics -> conditionals -> cascades and reliability
-> modular structure and collects per-cell problems as warnings instead of
aborting; only unreadable or structurally invalid input raises. The graph
resolves each reference once, and every later stage reads from it what a
reference reads. After the graph is built the stages pass node ids and
read the graph's node-id columns, so no ``Cell`` is built but the one each
copy-class ``formula_metrics`` call reads: cell metrics are computed in
node order, rates and final constructs are keyed by node id, and the
cascades walk the bottom-line cells by id. The report keeps its cells as
two columns in canonical order (``CellColumns``): addresses, the graph's
``Locations`` rendered per sheet, and metrics records that many cells
share, such as the one all-zero record of every data cell. It keeps its
warnings the same way (``WarningColumns``): address texts, and records
that every W003 warning shares, so an empty cell a range reads costs the
report one address text.

The JSON form is canonical: sorted keys, floats rounded to six decimals,
stable ordering everywhere, so identical input bytes and configuration
produce byte-identical output. Each kind of report row (cell metrics,
cascade, cascade conditional, range finding, data binding triple, warning)
is declared once, as its sorted keys and a function that gives a row's
values in that order (``_Kind``). ``as_dict`` builds its row dicts from
these declarations, and emission writes the rows in batches: one C-encoder
call per batch of value tuples, whose texts fill a template per kind. Cell
and warning rows encode the values after their address once per shared
record or (code, message) pair, and each row adds only its address.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import heapq
import io
import itertools
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Union

from . import __version__
from .conditionals import (
    BetaConfig,
    ConditionalConstruct,
    all_complexities,
    cascade_finals,
    find_conditionals,
    finals_by_cell,
)
from .errors import (
    AuditWarning,
    CascadeBudgetError,
    W_CROSS_SHEET_DISPERSION_EXCLUDED,
    W_CYCLE_DETECTED,
    W_DANGLING_REFERENCE,
    W_EMPTY_REFERENCED_CELL,
    W_RANGE_LINKAGE_VIOLATION,
    require_finite,
)
from .graph import (
    EMPTY_CELL_MESSAGE,
    MAX_RANGE_CELLS,
    CascadeStats,
    CellGraph,
    build_graph,
    require_range_budget,
)
from .metrics import (
    CellMetrics,
    DispersionConfig,
    ModularMetrics,
    RangeLinkageFinding,
    check_range_linkage,
    formula_metrics,
    modular_metrics,
)
from .refs import CellRef, render_refs
from .reliability import (
    CascadeReliability,
    ReliabilityConfig,
    cascade_reliability,
    cell_error_rates,
)
from .workbook import Workbook, load_workbook


# The most members the cascades of one audit may hold in all. Building and
# summing over one member takes ~0.45 us, so this caps that work near 45 s.
MAX_CASCADE_CELLS = 100_000_000


@dataclass(frozen=True)
class AnalysisConfig:
    """What an audit computes, and ``max_range_cells``, the most the ranges
    of all formulas may cost (see ``CellGraph``; a graph that would need
    more is a RangeBudgetError). The budget bounds the audit's cost, not
    its result, so the report's ``config`` section leaves it out."""

    dispersion: DispersionConfig = DispersionConfig()
    reliability: ReliabilityConfig = ReliabilityConfig()
    beta: BetaConfig = BetaConfig()
    flag_dr: float = 0.5
    flag_span: int = 20
    max_range_cells: int = MAX_RANGE_CELLS

    def __post_init__(self):
        require_finite(self, "flag_dr")
        require_range_budget(self.max_range_cells)


@dataclass(frozen=True)
class CascadeEntry:
    stats: CascadeStats
    reliability: CascadeReliability
    conditionals: tuple[tuple[ConditionalConstruct, float], ...]


class _Columns:
    """Report rows as two columns in report order: ``addresses[k]`` is row
    k's address and ``records[k]`` its record.

    Many rows may share one record object, whose own ``address`` is then
    one of theirs; only the address column says which row is which.
    Iterating gives each row's record at its own address (``_moved``).
    """

    __slots__ = ("addresses", "records")

    def __init__(self, addresses: list, records: list):
        self.addresses = addresses
        self.records = records

    @classmethod
    def of(cls, rows: list):
        """The columns of ``rows``, each record its own."""
        return cls([r.address for r in rows], rows)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator:
        moved = self._moved
        for address, r in zip(self.addresses, self.records):
            yield r if r.address == address else moved(r, address)


class CellColumns(_Columns):
    """A report's cells in canonical order: addresses, a list of ``CellRef``
    or the ``Locations`` that ``analyze_workbook`` gives, and
    ``CellMetrics`` records, one all-zero record for every data cell."""

    __slots__ = ()

    @staticmethod
    def _moved(r: CellMetrics, address: CellRef) -> CellMetrics:
        return replace(r, address=address)


class WarningColumns(_Columns):
    """A report's warnings in report order: address texts and
    ``AuditWarning`` records, one record for every W003 warning."""

    __slots__ = ()

    @staticmethod
    def _moved(w: AuditWarning, address: str) -> AuditWarning:
        return AuditWarning(w.code, address, w.message)


def _rows(name: str) -> property:
    """A report attribute given as a list of rows or as ``_Columns``. It
    reads as the list either way: from columns the list is built on first
    read, and from then on it is the report's rows."""
    slot = "_" + name

    def read(report: "WorkbookReport") -> list:
        rows = getattr(report, slot)
        if isinstance(rows, _Columns):
            rows = list(rows)
            setattr(report, slot, rows)
        return rows

    return property(read, lambda report, rows: setattr(report, slot, rows))


class WorkbookReport:
    """An audit's results.

    ``cells`` may be given as a list of records, or as ``CellColumns``
    whose records many cells share, as ``analyze_workbook`` gives it;
    ``warnings`` likewise as a list or as ``WarningColumns``. Each reads as
    its list either way: from columns the list is built on first read, and
    from then on it is the report's list. Emission and ``exit_code`` read
    ``cell_columns`` and ``warning_columns`` and never build either list.
    """

    cells = _rows("cells")
    warnings = _rows("warnings")

    def __init__(self, tool_version: str, input_digest: str, config: AnalysisConfig,
                 cells: Union[list[CellMetrics], CellColumns],
                 cascades: Optional[list[CascadeEntry]],  # None when the graph is cyclic
                 modular: ModularMetrics, range_findings: list[RangeLinkageFinding],
                 warnings: Union[list[AuditWarning], WarningColumns, None] = None):
        self.tool_version = tool_version
        self.input_digest = input_digest
        self.config = config
        self.cells = cells
        self.cascades = cascades
        self.modular = modular
        self.range_findings = range_findings
        self.warnings = [] if warnings is None else warnings

    @property
    def cell_columns(self) -> CellColumns:
        """The cells as columns. Once ``cells`` is a list, the columns come
        from it, each record its own."""
        cells = self._cells
        return cells if isinstance(cells, CellColumns) else CellColumns.of(cells)

    @property
    def warning_columns(self) -> WarningColumns:
        """The warnings as columns, as ``cell_columns`` gives the cells."""
        warnings = self._warnings
        return (warnings if isinstance(warnings, WarningColumns)
                else WarningColumns.of(warnings))

    @property
    def cyclic(self) -> bool:
        return self.cascades is None

    def exit_code(self) -> int:
        if self.cyclic:
            return 3
        return 1 if len(self._warnings) else 0

    def as_dict(self) -> dict:
        return _report_dict(self)


def analyze_workbook(wb: Workbook, config: AnalysisConfig = AnalysisConfig(),
                     digest: str = "") -> WorkbookReport:
    """Run the full pipeline over an already-loaded workbook."""
    warnings: list[AuditWarning] = list(wb.warnings)
    # Every graph-wide temporary, the graph included, is freed on return.
    cells, cascades, modular, findings, empty_cells = _graph_analysis(
        wb, config, warnings)
    return WorkbookReport(
        tool_version=__version__,
        input_digest=digest,
        config=config,
        cells=cells,
        cascades=cascades,
        modular=modular,
        range_findings=findings,
        warnings=_warning_columns(warnings, empty_cells),
    )


def _warning_columns(warnings: list[AuditWarning],
                     empty_cells: list[str]) -> WarningColumns:
    """``warnings`` and a W003 warning for each address text in
    ``empty_cells``, as columns sorted by (code, address, message).

    Every W003 warning comes from here and has one message, so its rows
    share one record, and sorted they are the address texts in string
    order, between the lower codes and the higher ones.
    """
    warnings.sort(key=operator.attrgetter("code", "address", "message"))
    columns = WarningColumns.of(warnings)
    if empty_cells:
        texts = sorted(empty_cells)
        at = bisect.bisect_right(warnings, W_EMPTY_REFERENCED_CELL,
                                 key=operator.attrgetter("code"))
        columns.addresses[at:at] = texts
        columns.records[at:at] = [AuditWarning(
            W_EMPTY_REFERENCED_CELL, texts[0], EMPTY_CELL_MESSAGE)] * len(texts)
    return columns


def _graph_analysis(
    wb: Workbook, config: AnalysisConfig, warnings: list[AuditWarning],
) -> tuple[CellColumns, Optional[list[CascadeEntry]], ModularMetrics,
           list[RangeLinkageFinding], list[str]]:
    """Range linkage, cell metrics, cascades and modular metrics: every
    stage that reads the dependency graph. Appends their warnings to
    ``warnings``, but for W003: the address texts of the empty cells the
    graph materialized come last in the result."""
    graph = build_graph(wb, config.max_range_cells)
    for d in graph.dangling:
        warnings.append(AuditWarning(
            W_DANGLING_REFERENCE,
            d.from_cell.render(),
            f"reference {d.target_text} names missing sheet {d.missing_sheet!r}",
        ))
    empty_cells = graph.materialized_locations().render()
    for cyc in graph.cycles:
        warnings.append(AuditWarning(
            W_CYCLE_DETECTED,
            cyc[0].render(),
            "reference cycle: " + " -> ".join(a.render() for a in cyc),
        ))

    # Range linkage runs first, so its temporaries sit beside the graph alone
    # rather than beside every cell's metrics and cascade as well.
    findings = check_range_linkage(wb, graph)
    for f in findings:
        if f.verdict == "violation":
            warnings.append(AuditWarning(
                W_RANGE_LINKAGE_VIOLATION,
                f.target_range.render(),
                f"{f.ref_style} linkage to {f.source_range.render()}: "
                f"expected extent {f.expected_extent}, found {f.actual_extent}",
            ))

    # Per node id, then in canonical order for the report.
    by_node = _cell_metrics(graph, config.dispersion)
    order = graph.cell_ids()
    cells = CellColumns(graph.locations(order), list(map(by_node.__getitem__, order)))
    records = cells.records
    for k in itertools.compress(
            itertools.count(), map(operator.attrgetter("cross_sheet_ref_count"), records)):
        warnings.append(AuditWarning(
            W_CROSS_SHEET_DISPERSION_EXCLUDED,
            cells.addresses[k].render(),
            f"{records[k].cross_sheet_ref_count} cross-sheet reference(s) excluded "
            "from dispersion and spans",
        ))

    cascades: Optional[list[CascadeEntry]] = None
    if not graph.is_cyclic:
        constructs = find_conditionals(wb, graph)
        complexity = all_complexities(constructs, config.beta)
        finals = finals_by_cell(constructs)
        # Each construct a cascade lists, built once, with its O value.
        listed: dict[int, tuple[ConditionalConstruct, float]] = {}
        rates = cell_error_rates(by_node, config.reliability)
        cascades = []
        members_left = MAX_CASCADE_CELLS
        for terminal in graph.bottom_line_ids():
            stats = graph.cascade_stats(terminal)
            members_left -= stats.cell_count
            if members_left < 0:
                raise CascadeBudgetError(stats.terminal.render(), MAX_CASCADE_CELLS)
            rel = cascade_reliability(stats, rates, config.reliability)
            conds = tuple(
                listed.get(k) or listed.setdefault(k, (constructs[k], complexity[k]))
                for k in cascade_finals(stats.member_ids, finals))
            # The report keeps no node ids: they name nodes of a graph that
            # is freed on return, and would hold every cascade's members.
            stats = replace(stats, member_ids=())
            cascades.append(CascadeEntry(stats, rel, conds))
    return cells, cascades, modular_metrics(wb, graph), findings, empty_cells


def _cell_metrics(graph: CellGraph, cfg: DispersionConfig) -> list[CellMetrics]:
    """Each populated node's metrics record (``formula_metrics``), by node
    id; many nodes share one record, and its address is the first one's.

    Every data cell shares the all-zero record, built without a call.
    Copies of a formula whose references are all relative read their cells
    at the same offsets, so on one sheet they share the record the first
    copy's call computes. Any other formula gets a call of its own. Each
    call gets the one ``Cell`` it reads, built for it (``formula_of``).
    """
    shapes = graph.shapes()
    first_data = next(itertools.compress(itertools.count(), map(operator.not_, shapes)), None)
    zero = None if first_data is None else CellMetrics(graph.address_of(first_data))
    by_node: list = [zero] * len(shapes)  # then each formula cell's record
    shared: dict[tuple, CellMetrics] = {}  # by (shape, sheet)
    ids, formula_shapes = graph.formulas()
    for i, shape, sheet in zip(ids, formula_shapes, graph.locations(ids).sheets):
        m = shared.get((shape, sheet)) if shape.relative else None
        if m is None:
            m = formula_metrics(graph.formula_of(i),
                                graph.locations(graph.precedent_ids(i)), cfg)
            if shape.relative:
                shared[shape, sheet] = m
        by_node[i] = m
    return by_node


def analyze(path: Union[str, Path], config: AnalysisConfig = AnalysisConfig(),
            format: str = "auto") -> WorkbookReport:
    """Load a workbook file and produce its audit report.

    Raises OSError for unreadable files and FormatError for invalid ones;
    everything else is collected into report warnings.
    """
    data = Path(path).read_bytes()
    wb = load_workbook(path, format=format, data=data)
    return analyze_workbook(wb, config, digest=hashlib.sha256(data).hexdigest())


# --- Canonical JSON -----------------------------------------------------------


def _to_float(x) -> float:
    """float() that saturates instead of overflowing on huge rationals."""
    if isinstance(x, Fraction):
        try:
            # What float(x) computes (numbers.Rational.__float__), inline.
            return x.numerator / x.denominator
        except OverflowError:
            return sys.float_info.max if x > 0 else -sys.float_info.max
    return float(x)


def _num(x) -> Union[int, float]:
    # Finite floats and ints first: isinstance(x, Fraction) on any other
    # type runs ABCMeta.__instancecheck__.
    t = type(x)
    if t is float and math.isfinite(x):
        return round(x, 6)
    if t is int:
        return x
    if isinstance(x, Fraction):
        x = _to_float(x)
    if isinstance(x, float):
        if math.isinf(x):
            x = sys.float_info.max if x > 0 else -sys.float_info.max
        return round(x, 6)
    return x


class _Kind(NamedTuple):
    """One kind of report row: its keys in sorted order, and ``values(row)``,
    which gives a row's values in that order.

    ``nested`` names the one list-valued column, if any, and the kind of
    its rows; ``values`` gives that column as its unbuilt rows.

    ``shared`` marks a kind whose first key is "address" and whose rows
    share the values after it. It splits the rows ``items`` into
    ``(addresses, render, bodies, key)``: ``render(addresses[a:b])`` gives
    the address texts of rows a..b-1, row k's other values are
    ``values(bodies[k])[1:]``, and rows whose bodies have equal ``key``
    have equal values there.
    """

    keys: tuple[str, ...]
    values: Callable[..., tuple]
    nested: Optional[tuple[str, "_Kind"]] = None
    shared: Optional[Callable[..., tuple]] = None


_CELL = _Kind(
    ("address", "avg_nesting_level", "col_span", "cross_sheet_ref_count",
     "decision_count", "delta_sum", "depth_of_nesting", "dispersion",
     "forward_ref_count", "mixed_axis_flag", "n_operands", "n_operators",
     "n_references", "row_span"),
    lambda m: (m.address.render(), _num(m.avg_nesting_level), m.col_span,
               m.cross_sheet_ref_count, m.decision_count, _num(m.delta_sum),
               m.depth_of_nesting, _num(m.dispersion), m.forward_ref_count,
               m.mixed_axis_flag, m.n_operands, m.n_operators,
               m.n_references, m.row_span),
    # Rows are CellColumns; records shared by many cells are one object.
    shared=lambda cells: (cells.addresses, render_refs, cells.records, id),
)
# A cascade's conditional: (ConditionalConstruct, O value).
_CONDITIONAL = _Kind(("cell", "o_value"),
                     lambda co: (co[0].cell.render(), _num(float(co[1]))))
_CASCADE = _Kind(
    ("adjusted_e", "avg_path_length", "avg_reachability", "cell_count",
     "conditionals", "max_path_length", "terminal", "total_paths",
     "uniform_e"),
    lambda e: (_num(e.reliability.adjusted_e), _num(e.stats.avg_path_length),
               _num(e.stats.avg_reachability), e.stats.cell_count,
               e.conditionals, e.stats.max_path_length,
               e.stats.terminal.render(), e.stats.total_paths,
               _num(e.reliability.uniform_e)),
    nested=("conditionals", _CONDITIONAL),
)
_FINDING = _Kind(
    ("actual_extent", "expected_extent", "ref_style", "s", "source_range",
     "target_range", "verdict"),
    lambda f: (f.actual_extent, f.expected_extent, f.ref_style, f.s,
               f.source_range.render(), f.target_range.render(), f.verdict),
)
# A data binding triple: (sheet P, cell Q, sheet R).
_TRIPLE = _Kind(("p", "q", "r"), lambda t: (t[0], t[1].render(), t[2]))
_WARNING = _Kind(("address", "code", "message"),
                 operator.attrgetter("address", "code", "message"),
                 # Rows are WarningColumns, whose addresses are texts.
                 shared=lambda warnings: (
                     warnings.addresses, list, warnings.records, id))


def _row_dicts(kind: _Kind, items) -> list[dict]:
    """The rows ``items`` of ``kind`` as dicts."""
    rows = [dict(zip(kind.keys, kind.values(item))) for item in items]
    if kind.nested is not None:
        key, nested = kind.nested
        for row in rows:
            row[key] = _row_dicts(nested, row[key])
    return rows


class _Table:
    """The rows ``items`` of ``kind``, left unbuilt until emission writes
    them in batches (``_emit_rows``)."""

    __slots__ = ("kind", "items")

    def __init__(self, kind: _Kind, items):
        self.kind = kind
        self.items = items


def _modular_dict(mod: ModularMetrics, rows=_row_dicts) -> dict:
    return {
        "triples": rows(_TRIPLE, mod.triples),
        "triple_count_by_pair": {
            f"{p}->{r}": n for (p, r), n in sorted(mod.triple_count_by_pair.items())
        },
        "unreferenced_data_pct": _num(mod.unreferenced_data_pct),
        "module_fan_in": dict(sorted(mod.module_fan_in.items())),
        "module_fan_out": dict(sorted(mod.module_fan_out.items())),
    }


def _config_dict(cfg: AnalysisConfig) -> dict:
    return {
        "alpha": _num(cfg.dispersion.alpha),
        "dispersion_mode": cfg.dispersion.mode,
        "beta": _num(cfg.beta.beta),
        "base_cer": _num(cfg.reliability.base_cer),
        "weights": {
            "tokens": _num(cfg.reliability.w_tokens),
            "depth": _num(cfg.reliability.w_depth),
            "dispersion": _num(cfg.reliability.w_dispersion),
            "decisions": _num(cfg.reliability.w_decisions),
            "span": _num(cfg.reliability.w_span),
        },
        "data_cell_factor": _num(cfg.reliability.data_cell_factor),
        "cap": _num(cfg.reliability.cap),
        "flag_dr": _num(cfg.flag_dr),
        "flag_span": cfg.flag_span,
    }


def _report_dict(r: WorkbookReport, rows=_row_dicts) -> dict:
    """The canonical report schema.

    ``rows(kind, items)`` turns each row list into its JSON value: by
    default a list of dicts, in emission a ``_Table``.
    """
    return {
        "meta": {
            "tool": "cellgauge",
            "version": r.tool_version,
            "input_sha256": r.input_digest,
        },
        "config": _config_dict(r.config),
        "cells": rows(_CELL, r.cell_columns),
        "cascades": None if r.cascades is None else rows(_CASCADE, r.cascades),
        "modular": _modular_dict(r.modular, rows),
        "range_findings": rows(_FINDING, r.range_findings),
        "warnings": rows(_WARNING, r.warning_columns),
    }


# --- Emission -----------------------------------------------------------------

_INDENT = "  "
_NESTABLE = (dict, list, tuple, _Table)  # a _Table is truthy even when empty
_SCALARS = frozenset((str, int, float, bool, type(None)))
_BATCH = 1024  # rows per C-encoder call
# Encodes a batch of rows' value tuples with "\n" between items; strings
# escape their control characters, so every raw newline is a separator.
_BATCH_ENCODER = json.JSONEncoder(ensure_ascii=False, check_circular=False,
                                  separators=("\n", ": "))


@functools.cache
def _flat_encoder(level: int) -> json.JSONEncoder:
    """The C encoder for a flat value at nesting ``level``: its item
    separator carries the newline and the indentation of the items."""
    return json.JSONEncoder(sort_keys=True, ensure_ascii=False,
                            separators=(",\n" + _INDENT * (level + 1), ": "))


@functools.cache
def _row_template(kind: _Kind, level: int) -> str:
    """A ``%``-template of one ``kind`` row at nesting ``level``: the keys
    and indentation filled in, one ``%s`` per value's JSON text."""
    inner = _INDENT * (level + 1)
    return ("{\n" + ",\n".join(
        inner + json.dumps(key, ensure_ascii=False).replace("%", "%%") + ": %s"
        for key in kind.keys) + "\n" + _INDENT * level + "}")


def _emit_rows(kind: _Kind, items, level: int, write: Callable[[str], object]) -> None:
    """Pass ``write`` the text ``json.dumps`` gives for the list of ``kind``
    rows ``items`` at nesting ``level``, ``_BATCH`` rows per C-encoder call.

    The encoder writes a batch's value tuples as ``[[a\\nb]\\n[c\\nd]]``, so
    stripping the outer brackets and the row boundaries leaves one value's
    text per line, and each row fills its kind's template. A nested
    column's value is encoded as ``null`` and then replaced by the text of
    its own rows.
    """
    if not items:
        write("[]")
        return
    width = len(kind.keys)
    template = _row_template(kind, level + 1)
    sep = ",\n" + _INDENT * (level + 1)
    write("[\n" + _INDENT * (level + 1))
    for start in range(0, len(items), _BATCH):
        batch = list(map(kind.values, items[start:start + _BATCH]))
        if kind.nested is not None:
            key, nested_kind = kind.nested
            at = kind.keys.index(key)
            nested = []
            for i, values in enumerate(batch):
                sub: list[str] = []
                _emit_rows(nested_kind, values[at], level + 2, sub.append)
                nested.append("".join(sub))
                batch[i] = values[:at] + (None,) + values[at + 1:]
        texts = _BATCH_ENCODER.encode(batch)[2:-2].replace("]\n[", "\n").split("\n")
        if kind.nested is not None:
            texts[at::width] = nested
        if start:
            write(sep)
        write(sep.join(map(template.__mod__, zip(*[iter(texts)] * width))))
    write("\n" + _INDENT * level + "]")


def _emit_shared_rows(kind: _Kind, items, level: int,
                      write: Callable[[str], object]) -> None:
    """``_emit_rows`` for a kind whose rows share all but their address
    (``_Kind.shared``).

    The row text after the address is encoded once per distinct body key
    and kept. Each batch of ``_BATCH`` rows is one C-encoder call, for its
    address texts and the values of the bodies it is first to use, and each
    row is written as the template's head, its address and its body's tail.
    A batch whose rows share little clears what is kept, so at most about
    ``2 * _BATCH`` tails are held.
    """
    addresses, render, bodies, key = kind.shared(items)
    if not bodies:
        write("[]")
        return
    head, tail = _row_template(kind, level + 1).split("%s", 1)
    head %= ()  # the template's "%%" is a "%" here
    width = len(kind.keys) - 1
    tails: dict = {}  # body key -> the row's text after its address
    sep = ",\n" + _INDENT * (level + 1)
    write("[\n" + _INDENT * (level + 1))
    for start in range(0, len(bodies), _BATCH):
        batch = bodies[start:start + _BATCH]
        keys = list(map(key, batch))
        if len(tails) > _BATCH:
            tails.clear()
        new = dict(zip(keys, batch))
        for k in new.keys() & tails.keys():
            del new[k]
        values = render(addresses[start:start + _BATCH])
        n = len(values)
        for body in new.values():
            values.extend(kind.values(body)[1:])
        texts = _BATCH_ENCODER.encode(values)[1:-1].split("\n")
        for k, body_texts in zip(new, zip(*[iter(texts[n:])] * width)):
            tails[k] = tail % body_texts
        if start:
            write(sep)
        write(sep.join([head + address + t for address, t
                        in zip(texts[:n], map(tails.__getitem__, keys))]))
    write("\n" + _INDENT * level + "]")


def _holds_container(value) -> bool:
    children = value.values() if isinstance(value, dict) else value
    if _SCALARS.issuperset(map(type, children)):  # the common case, in C
        return False
    return any(isinstance(child, _NESTABLE) and child for child in children)


def _encode_json(value, level: int, write: Callable[[str], object]) -> None:
    """Pass ``write`` the text ``json.dumps(value, sort_keys=True, indent=2,
    ensure_ascii=False)`` gives for ``value`` at nesting ``level``.

    A ``_Table`` is written by ``_emit_rows``. Any other value that holds
    no non-empty container is one call to the C encoder, whose item
    separator carries the newline and the indentation; only the newlines
    next to its brackets are added here. The encoder escapes control
    characters inside strings, so a raw newline can only come from a
    separator. Only containers that hold a non-empty container recurse.
    Dict keys must be str.
    """
    if isinstance(value, _Table):
        emit = _emit_rows if value.kind.shared is None else _emit_shared_rows
        emit(value.kind, value.items, level, write)
        return
    if isinstance(value, (dict, list, tuple)) and _holds_container(value):
        if isinstance(value, dict):
            keys = sorted(value)
            brackets = "{}"
            prefixes = (json.dumps(key, ensure_ascii=False) + ": " for key in keys)
            children = map(value.__getitem__, keys)
        else:
            brackets, prefixes, children = "[]", itertools.repeat(""), value
    else:
        text = _flat_encoder(level).encode(value)
        if len(text) > 2 and text[0] in "[{":
            text = (text[0] + "\n" + _INDENT * (level + 1) + text[1:-1]
                    + "\n" + _INDENT * level + text[-1])
        write(text)
        return
    sep = brackets[0] + "\n" + _INDENT * (level + 1)
    for prefix, child in zip(prefixes, children):
        write(sep + prefix)
        _encode_json(child, level + 1, write)
        sep = ",\n" + _INDENT * (level + 1)
    write("\n" + _INDENT * level + brackets[1])


def _color_enabled() -> bool:
    return not os.environ.get("CELLGAUGE_NO_COLOR")


def _style(text: str, code: str, enabled: bool) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if enabled else text


def _fmt_table(rows: list[list[str]], header: list[str]) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return lines


def _text_report(r: WorkbookReport, top_n: int = 20) -> str:
    color = _color_enabled()
    cfg = r.config
    out: list[str] = []
    out.append(_style(f"cellgauge {r.tool_version} workbook audit", "1", color))
    out.append(f"input sha256: {r.input_digest[:16]}")
    c = _config_dict(cfg)
    out.append(
        "config: alpha={alpha} mode={dispersion_mode} beta={beta} "
        "cer={base_cer} cap={cap}".format(**c)
    )
    out.append("")

    cells = r.cell_columns
    records = cells.records
    warnings = r.warning_columns
    formulas = sum(m.is_formula for m in records)
    out.append(f"cells: {len(records)} ({formulas} formulas)")
    out.append(f"warnings: {len(warnings)}")
    out.append("")

    out.append(_style(f"TOP RISK CELLS (adjusted cell error rate, max {top_n})", "1", color))
    # The row index keeps ties in the order a stable sort would give.
    ranked = heapq.nsmallest(top_n, zip(
        map(operator.neg, cell_error_rates(records, cfg.reliability)),
        render_refs(cells.addresses), range(len(records))))
    rows = []
    for neg, address, k in ranked:
        m = records[k]
        flags = []
        if m.dispersion > cfg.flag_dr:
            flags.append("DR")
        if max(m.col_span, m.row_span) > cfg.flag_span:
            flags.append("SPAN")
        if m.mixed_axis_flag:
            flags.append("MIXED")
        rows.append([
            address,
            f"{-neg:.4f}",
            str(m.n_operators),
            str(m.n_operands),
            str(m.depth_of_nesting),
            f"{float(m.avg_nesting_level):.4f}",
            str(m.decision_count),
            str(m.n_references),
            f"{m.dispersion:.4f}",
            str(m.col_span),
            str(m.row_span),
            ",".join(flags),
        ])
    out.extend(_fmt_table(rows, [
        "cell", "e_i", "N1", "N2", "depth", "NL_avg", "dec", "refs",
        "DR", "cspan", "rspan", "flags",
    ]))
    out.append("")

    out.append(_style("CASCADES", "1", color))
    if r.cascades is None:
        out.append(_style("unavailable: reference cycle detected", "31", color))
    else:
        rows = []
        for e in r.cascades:
            s = e.stats
            conds = "; ".join(
                f"{c.cell.render()}={float(o):.4f}" for c, o in e.conditionals
            )
            rows.append([
                s.terminal.render(),
                str(s.cell_count),
                str(s.total_paths),
                f"{_to_float(s.avg_reachability):.4f}",
                f"{_to_float(s.avg_path_length):.4f}",
                str(s.max_path_length),
                f"{e.reliability.uniform_e:.4f}",
                f"{e.reliability.adjusted_e:.4f}",
                conds,
            ])
        out.extend(_fmt_table(rows, [
            "terminal", "n", "paths", "avg_R", "avg_len", "max_len",
            "uniform_E", "adjusted_E", "conditionals",
        ]))
    out.append("")

    mod = _modular_dict(r.modular)
    out.append(_style("MODULAR STRUCTURE", "1", color))
    out.append(f"data binding triples: {len(mod['triples'])}")
    for pair, n in mod["triple_count_by_pair"].items():
        out.append(f"  {pair}: {n}")
    out.append(f"unreferenced data: {mod['unreferenced_data_pct']:.2f}%")
    out.append("")

    out.append(_style("RANGE FINDINGS", "1", color))
    if r.range_findings:
        rows = []
        for f in r.range_findings:
            verdict = f.verdict
            if verdict == "violation":
                verdict = _style(verdict, "31", color)
            rows.append([
                f.target_range.render(),
                f.source_range.render(),
                str(f.s),
                f.ref_style,
                str(f.expected_extent),
                str(f.actual_extent),
                verdict,
            ])
        out.extend(_fmt_table(rows, [
            "target", "source", "s", "style", "expected", "actual", "verdict",
        ]))
    else:
        out.append("none")
    out.append("")

    out.append(_style(f"WARNINGS ({len(warnings)})", "1", color))
    for address, w in zip(warnings.addresses, warnings.records):
        out.append(_style(f"{w.code} {address}: {w.message}", "33", color))
    out.append("")
    return "\n".join(out)


def emit_report(r: WorkbookReport, format: str = "json") -> bytes:
    """Serialize a report as UTF-8 bytes in ``format`` "json" or "text".

    The JSON form is canonical and deterministic: the bytes of
    ``json.dumps(r.as_dict(), sort_keys=True, indent=2, ensure_ascii=False)``
    plus a trailing newline. ``_encode_json`` writes the report's few small
    dicts through the C encoder and each row list through ``_emit_rows``:
    ``_BATCH`` rows per C-encoder call, each row's value texts put into its
    kind's template. Cell and warning rows go through ``_emit_shared_rows``,
    which encodes what rows share once; the report's cell list is never
    built. No row dict is built and the pure-Python encoder never runs. Each piece is encoded to UTF-8 as it is written into one buffer,
    whose bytes are returned without a copy, so the report's text is never
    held beside its bytes.
    """
    if format == "json":
        buf = io.BytesIO()
        _encode_json(_report_dict(r, _Table), 0,
                     lambda text: buf.write(text.encode("utf-8")))
        buf.write(b"\n")
        return buf.getvalue()  # the buffer itself, not a copy
    if format == "text":
        return _text_report(r).encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")
