"""Analysis pipeline and report emission.

``analyze`` runs load -> graph (every reference resolved into node ids) ->
range linkage -> cell metrics -> conditionals -> cascades and reliability
-> modular structure and collects per-cell problems as warnings instead of
aborting; only unreadable or structurally invalid input raises. The graph
resolves each reference once, and every later stage reads from it what a
reference reads. After the graph is built the stages pass node ids and
read the graph's node-id columns, so no ``Cell`` is built but the one each
copy-class ``formula_metrics`` call reads: cell metrics are computed in
node order, survive factors and final constructs are keyed by node id, and
the cascades walk the bottom-line cells by id, once per set of cells they
read (``CellGraph.cascade_groups``), with one reliability fold per set.
The report keeps its cells only as two columns in canonical order
(``CellColumns``): addresses, the graph's ``Locations``, and metrics
records that many cells share, such as the one all-zero record of every
data cell. It keeps its warnings only the same way (``WarningColumns``):
address texts, and records that every W003 warning shares, so an empty
cell a range reads costs the report one address text. ``report.cells`` and
``report.warnings`` are lists built from the columns on first read.

The JSON form is canonical: sorted keys, floats rounded to six decimals,
stable ordering everywhere, so identical input bytes and configuration
produce byte-identical output. Each kind of report row (cell metrics,
cascade, cascade conditional, range finding, data binding triple, warning)
is declared once, as its sorted keys and a function that gives a row's
values in that order (``_Kind``). ``as_dict`` builds its row dicts from
these declarations, and one emitter, ``_emit_rows``, writes the rows of
every kind in batches: one C-encoder call per batch, nested rows
included, whose texts fill a template per kind. A record's text after the
address is encoded once however many rows share the record, and each row
of columns adds only its address.
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
    _Record,
    _set,
    require_finite,
)
from .graph import (
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
    Rectangles,
    check_range_linkage,
    formula_metrics,
    modular_metrics,
)
from .refs import CellRef, Locations
from .reliability import (
    CascadeReliability,
    ReliabilityConfig,
    adjusted_cell_rate,
    cascade_reliability,
    survive_factors,
)
from .workbook import Cell, Workbook, load_workbook


# The most members the cascades of one audit may hold in all. Building and
# summing over one member of a cone that no other terminal shares takes
# ~0.45 us, so this caps that work near 45 s.
MAX_CASCADE_CELLS = 100_000_000

# The message of every W003 warning.
EMPTY_CELL_MESSAGE = "referenced cell is empty; treated as data cell with value 0"


class AnalysisConfig(_Record):
    """What an audit computes, and ``max_range_cells``, the most the ranges
    of all formulas may cost (see ``CellGraph``; a graph that would need
    more is a RangeBudgetError). The budget bounds the audit's cost, not
    its result, so the report's ``config`` section leaves it out."""

    __slots__ = ("dispersion", "reliability", "beta", "flag_dr", "flag_span",
                 "max_range_cells")

    def __init__(self, dispersion: DispersionConfig = DispersionConfig(),
                 reliability: ReliabilityConfig = ReliabilityConfig(),
                 beta: BetaConfig = BetaConfig(), flag_dr: float = 0.5,
                 flag_span: int = 20, max_range_cells: int = MAX_RANGE_CELLS):
        for name, value in zip(self.__slots__, (dispersion, reliability, beta, flag_dr,
                                                flag_span, max_range_cells)):
            _set(self, name, value)
        require_finite(self, "flag_dr")
        require_range_budget(self.max_range_cells)


class CascadeEntry(NamedTuple):
    stats: CascadeStats
    reliability: CascadeReliability
    conditionals: tuple[tuple[ConditionalConstruct, float], ...]


class _Columns:
    """Report rows as two columns in report order: ``addresses[k]`` is row
    k's address and ``records[k]`` its record.

    Many rows may share one record object, whose own ``address`` is then
    one of theirs; only the address column says which row is which.
    Iterating gives each row's record at its own address (``_moved``), and
    ``head(a, b)`` gives the address texts of rows a..b-1.
    """

    __slots__ = ("addresses", "records")

    def __init__(self, addresses, records: list):
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
    """A report's cells in canonical order: addresses, a ``Locations`` (a
    list of ``CellRef`` is taken as ``Locations.of`` it, which drops ``$``
    markers), and ``CellMetrics`` records, one all-zero record for every
    data cell, also kept as ``distinct`` records and each row's position in
    them, ``index`` (by default each row its own)."""

    __slots__ = ("distinct", "index")

    def __init__(self, addresses: Union[Locations, list[CellRef]],
                 distinct: list[CellMetrics], index: Optional[list[int]] = None):
        if not isinstance(addresses, Locations):
            addresses = Locations.of(addresses)
        self.distinct, self.index = distinct, range(len(distinct)) if index is None else index
        super().__init__(addresses, list(map(distinct.__getitem__, self.index)))

    def head(self, start: int, stop: int) -> list[str]:
        return self.addresses[start:stop].render()

    @staticmethod
    def _moved(r: CellMetrics, address: CellRef) -> CellMetrics:
        return r._replace(address=address)


class WarningColumns(_Columns):
    """A report's warnings in report order: address texts and
    ``AuditWarning`` records, one record for every W003 warning."""

    __slots__ = ()

    def head(self, start: int, stop: int) -> list[str]:
        return self.addresses[start:stop]

    @staticmethod
    def _moved(w: AuditWarning, address: str) -> AuditWarning:
        return AuditWarning(w.code, address, w.message)


class WorkbookReport:
    """An audit's results.

    The report keeps its cells only as ``cell_columns`` (``CellColumns``),
    whose records many cells share, and its warnings only as
    ``warning_columns`` (``WarningColumns``). A list of records given for
    either becomes columns here, each record its own. ``cells`` and
    ``warnings`` are read-only lists, built from the columns on first read;
    emission and ``exit_code`` read the columns and never build them.
    """

    def __init__(self, tool_version: str, input_digest: str, config: AnalysisConfig,
                 cells: Union[list[CellMetrics], CellColumns],
                 cascades: Optional[list[CascadeEntry]],  # None when the graph is cyclic
                 modular: ModularMetrics, range_findings: list[RangeLinkageFinding],
                 warnings: Union[list[AuditWarning], WarningColumns, None] = None):
        self.tool_version = tool_version
        self.input_digest = input_digest
        self.config = config
        self.cell_columns = cells if isinstance(cells, CellColumns) else CellColumns.of(cells)
        self.cascades = cascades
        self.modular = modular
        self.range_findings = range_findings
        self.warning_columns = (warnings if isinstance(warnings, WarningColumns)
                                else WarningColumns.of(warnings or []))
        self._cells: Optional[list[CellMetrics]] = None
        self._warnings: Optional[list[AuditWarning]] = None

    @property
    def cells(self) -> list[CellMetrics]:
        if self._cells is None:
            self._cells = list(self.cell_columns)
        return self._cells

    @property
    def warnings(self) -> list[AuditWarning]:
        if self._warnings is None:
            self._warnings = list(self.warning_columns)
        return self._warnings

    @property
    def cyclic(self) -> bool:
        return self.cascades is None

    def exit_code(self) -> int:
        if self.cyclic:
            return 3
        return 1 if len(self.warning_columns) else 0

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
    # In node order: _warning_columns sorts the texts.
    empty_cells = graph.locations(graph.materialized_ids()).render()
    for cyc in graph.cycles:
        warnings.append(AuditWarning(
            W_CYCLE_DETECTED,
            cyc[0].render(),
            "reference cycle: " + " -> ".join(a.render() for a in cyc),
        ))

    # Range linkage runs first, so its temporaries sit beside the graph alone
    # rather than beside every cell's metrics and cascade as well.
    findings = check_range_linkage(graph)
    for f in findings:
        if f.verdict == "violation":
            warnings.append(AuditWarning(
                W_RANGE_LINKAGE_VIOLATION,
                f.target_range.render(),
                f"{f.ref_style} linkage to {f.source_range.render()}: "
                f"expected extent {f.expected_extent}, found {f.actual_extent}",
            ))

    # Distinct records and each node's index into them, then each cell's
    # record in canonical order for the report.
    distinct, index = _cell_metrics(graph, config.dispersion)
    order = graph.cell_ids()
    cells = CellColumns(graph.locations(order), distinct, list(map(index.__getitem__, order)))
    records = cells.records
    for k in itertools.compress(
            itertools.count(), map(operator.attrgetter("cross_sheet_ref_count"), records)):
        warnings.append(AuditWarning(
            W_CROSS_SHEET_DISPERSION_EXCLUDED,
            cells.addresses[k].render(),
            f"{records[k].cross_sheet_ref_count} cross-sheet reference(s) excluded "
            "from dispersion and spans",
        ))

    cascades = None if graph.is_cyclic else _cascades(graph, distinct, index, config)
    return cells, cascades, modular_metrics(graph), findings, empty_cells


def _cascades(graph: CellGraph, distinct: list[CellMetrics], index: list[int],
              config: AnalysisConfig) -> list[CascadeEntry]:
    """Each bottom-line cell's cascade, canonical order, built once per set
    of cells the terminals read and charged against ``MAX_CASCADE_CELLS``;
    ``distinct`` and ``index`` are what ``_cell_metrics`` returns. The
    stage's temporaries are freed when it returns."""
    constructs = find_conditionals(graph)
    complexity = all_complexities(constructs, config.beta)
    finals = finals_by_cell(constructs)
    # Each construct a cascade lists, built once, with its O value.
    listed = functools.cache(lambda k: (constructs[k], complexity[k]))
    survive = survive_factors(distinct, index, graph.node_count, config.reliability)
    terminals = graph.bottom_line_ids()
    walked: dict[int, CascadeStats] = {}
    entries: dict[int, CascadeEntry] = {}
    charged, members_left = 0, MAX_CASCADE_CELLS
    for group in graph.cascade_groups(terminals):
        # Charge the cascades in canonical order as far as the walked groups
        # give their sizes, before this group's rates and conditionals.
        walked.update((t, stats) for t, _, stats in group.terminals)
        while charged < len(terminals) and terminals[charged] in walked:
            stats = walked[terminals[charged]]
            members_left -= stats.cell_count
            if members_left < 0:
                raise CascadeBudgetError(stats.terminal.render(), MAX_CASCADE_CELLS)
            charged += 1
        # The cone's final constructs, found once, with each terminal's own.
        shared = cascade_finals(group.order, finals)
        for (t, _, stats), rel in zip(
                group.terminals, cascade_reliability(group, survive, config.reliability)):
            keys = sorted(shared + finals[t]) if t in finals else shared
            entries[t] = CascadeEntry(stats, rel, tuple(map(listed, keys)))
        del group  # one group's cone is held at a time
    return list(map(entries.__getitem__, terminals))


def _cell_metrics(graph: CellGraph,
                  cfg: DispersionConfig) -> tuple[list[CellMetrics], list[int]]:
    """The distinct metrics records of the populated nodes
    (``formula_metrics``) and, by node id, the position of each node's
    record among them; many nodes share one record, and its address is the
    first one's.

    Every data cell shares the all-zero record, built without a call.
    Copies of a formula whose references are all relative read their cells
    at the same offsets, so on one sheet they share the record the first
    copy's call computes. Any other formula gets a call of its own. Each
    call gets the one ``Cell`` it reads, built for it from the node's
    address and shape, and its references as ``Rectangles``, two corner
    ids each.
    """
    shapes = graph.shapes()
    first_data = next(itertools.compress(itertools.count(), map(operator.not_, shapes)), None)
    # The all-zero record is first; each data cell keeps index 0.
    distinct = [] if first_data is None else [CellMetrics(graph.address_of(first_data))]
    index = [0] * len(shapes)
    shared: dict[tuple, int] = {}  # record positions by (shape, sheet)
    ids, formula_shapes = graph.formulas()
    preds, ends = graph.reference_columns()
    for i, shape, sheet in zip(ids, formula_shapes, graph.locations(ids).sheets):
        pos = shared.get((shape, sheet)) if shape.relative else None
        if pos is None:
            # A reference's targets list its rectangle row-major: the first
            # and last are its corners.
            at = graph.locations([preds[i][k] for lo, hi in zip((0,) + ends[i], ends[i])
                                  if hi > lo for k in (lo, hi - 1)])
            pos = len(distinct)
            distinct.append(formula_metrics(Cell(graph.address_of(i), shape=shape),
                                            Rectangles(at[::2], at[1::2]), cfg))
            if shape.relative:
                shared[shape, sheet] = pos
        index[i] = pos
    return distinct, index


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
    """

    keys: tuple[str, ...]
    values: Callable[..., tuple]
    nested: Optional[tuple[str, "_Kind"]] = None


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
                 operator.attrgetter("address", "code", "message"))


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
_BATCH = 1024  # rows per C-encoder call
# Encodes a batch of rows' values with "\n" between items; strings escape
# their control characters, so every raw newline is a separator.
_BATCH_ENCODER = json.JSONEncoder(ensure_ascii=False, check_circular=False,
                                  separators=("\n", ": "))


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
    rows ``items`` at nesting ``level``. ``items`` is a list of rows, or
    ``_Columns`` whose rows share records.

    A row of ``_Columns`` starts with a head, the text of its address (the
    kind's first value); the rest of a row is its body, the whole row for a
    row of a list. A body's text is encoded once per record object and
    kept. Each batch of ``_BATCH`` rows is one C-encoder call, for the
    batch's address texts and the values of the records it is first to
    use, with one value's text per line; each record's texts fill the
    kind's template, and each row is written as its head and its body. A
    nested column's value is encoded as ``null`` and then replaced by the
    text of its own rows, whose values the same call encodes after the
    batch's own, each nested row filling its kind's template. A batch that
    finds more than ``_BATCH`` bodies kept clears them, so at most about
    ``2 * _BATCH`` are held.
    """
    if not items:
        write("[]")
        return
    template = _row_template(kind, level + 1)
    if isinstance(items, _Columns):
        head, template = template.split("%s", 1)
        head %= ()  # the template's "%%" is a "%" here
        records, skip = items.records, 1
    else:
        head, records, skip = "", items, 0
    width = len(kind.keys) - skip
    if kind.nested is not None:
        key, nested_kind = kind.nested
        at = kind.keys.index(key) - skip
        sub_template = _row_template(nested_kind, level + 3)
        sub_sep = ",\n" + _INDENT * (level + 3)  # between a nested list's rows
    bodies: dict[int, str] = {}  # record id -> its row's text after the head
    sep = ",\n" + _INDENT * (level + 1)
    write("[\n" + _INDENT * (level + 1))
    for start in range(0, len(records), _BATCH):
        batch = records[start:start + _BATCH]
        keys = list(map(id, batch))
        if len(bodies) > _BATCH:
            bodies.clear()
        new = dict(zip(keys, batch))
        for k in new.keys() & bodies.keys():
            del new[k]
        values = items.head(start, start + _BATCH) if skip else []
        n = len(values)
        subrows = []  # per new record, its nested column's rows
        for record in new.values():
            row = kind.values(record)[skip:]
            if kind.nested is not None:
                subrows.append(row[at])
                row = row[:at] + (None,) + row[at + 1:]
            values.extend(row)
        end = len(values)
        if subrows:
            values.extend(itertools.chain.from_iterable(
                map(nested_kind.values, itertools.chain.from_iterable(subrows))))
        texts = _BATCH_ENCODER.encode(values)[1:-1].split("\n")
        if subrows:
            fills = map(sub_template.__mod__,
                        zip(*[iter(texts[end:])] * len(nested_kind.keys)))
            texts[n + at:end:width] = [
                "[" + sub_sep[1:] + sub_sep.join(itertools.islice(fills, len(sub)))
                + "\n" + _INDENT * (level + 2) + "]" if sub else "[]" for sub in subrows]
        for k, body in zip(new, zip(*[iter(texts[n:end])] * width)):
            bodies[k] = template % body
        rows = map(bodies.__getitem__, keys)
        if skip:
            rows = [head + address + body for address, body in zip(texts[:n], rows)]
        if start:
            write(sep)
        write(sep.join(rows))
    write("\n" + _INDENT * level + "]")


def _encode_json(value, level: int, write: Callable[[str], object]) -> None:
    """Pass ``write`` the text ``json.dumps(value, sort_keys=True, indent=2,
    ensure_ascii=False)`` gives for ``value`` at nesting ``level``.

    A ``_Table`` is written by ``_emit_rows``, and a dict with a ``_Table``
    among its values key by key. Any other value is one ``json.dumps``
    call, with each newline re-indented to ``level``: strings escape their
    control characters, so every raw newline is the encoder's own. Dict
    keys must be str.
    """
    if isinstance(value, _Table):
        _emit_rows(value.kind, value.items, level, write)
    elif isinstance(value, dict) and any(isinstance(v, _Table) for v in value.values()):
        sep = "{\n" + _INDENT * (level + 1)
        for key in sorted(value):
            write(sep + json.dumps(key, ensure_ascii=False) + ": ")
            _encode_json(value[key], level + 1, write)
            sep = ",\n" + _INDENT * (level + 1)
        write("\n" + _INDENT * level + "}")
    else:
        write(json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)
              .replace("\n", "\n" + _INDENT * level))


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
    # Each distinct record rated once; the row index breaks ties as a stable sort.
    rates = [-adjusted_cell_rate(m, cfg.reliability) for m in cells.distinct]
    ranked = heapq.nsmallest(top_n, zip(
        map(rates.__getitem__, cells.index), cells.addresses.render(), range(len(records))))
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
    dicts with ``json.dumps`` and each row list through ``_emit_rows``:
    ``_BATCH`` rows per C-encoder call, each record's value texts put once
    into its kind's template. No row dict is built, and neither is the
    report's cell or warning list. Each piece is encoded to UTF-8 as it is
    written into one buffer, whose bytes are returned without a copy, so
    the report's text is never held beside its bytes. Path counts are
    exact however many digits they have: the interpreter's limit on
    int-to-text digits, where it has one, is lifted for the call only.
    """
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        if format == "json":
            buf = io.BytesIO()
            _encode_json(_report_dict(r, _Table), 0,
                         lambda text: buf.write(text.encode("utf-8")))
            buf.write(b"\n")
            return buf.getvalue()  # the buffer itself, not a copy
        if format == "text":
            return _text_report(r).encode("utf-8")
        raise ValueError(f"unknown report format {format!r}")
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)
