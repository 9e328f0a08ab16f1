"""Analysis pipeline and report emission.

``analyze`` runs load -> graph (every reference resolved into node ids) ->
range linkage -> cell metrics -> conditionals -> cascades and reliability
-> modular structure and collects per-cell problems as warnings instead of
aborting; only unreadable or structurally invalid input raises. The graph
resolves each reference once, and every later stage reads from it what a
reference reads. After the graph is built the stages pass node ids: cell
metrics are computed in node order (and listed in canonical order), rates
and final constructs are keyed by node id, and the only address lookups are
one per bottom-line cell.
The JSON form is canonical: sorted keys, floats rounded to six decimals,
stable ordering everywhere, so identical input bytes and configuration
produce byte-identical output.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

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
    W_CROSS_SHEET_DISPERSION_EXCLUDED,
    W_CYCLE_DETECTED,
    W_DANGLING_REFERENCE,
    W_RANGE_LINKAGE_VIOLATION,
)
from .graph import CascadeStats, build_graph
from .metrics import (
    CellMetrics,
    DispersionConfig,
    ModularMetrics,
    RangeLinkageFinding,
    check_range_linkage,
    formula_metrics,
    modular_metrics,
)
from .reliability import (
    CascadeReliability,
    ReliabilityConfig,
    adjusted_cell_rate,
    cascade_reliability,
    cell_error_rates,
)
from .workbook import Workbook, load_workbook


@dataclass(frozen=True)
class AnalysisConfig:
    dispersion: DispersionConfig = DispersionConfig()
    reliability: ReliabilityConfig = ReliabilityConfig()
    beta: BetaConfig = BetaConfig()
    flag_dr: float = 0.5
    flag_span: int = 20


@dataclass(frozen=True)
class CascadeEntry:
    stats: CascadeStats
    reliability: CascadeReliability
    conditionals: tuple[tuple[ConditionalConstruct, float], ...]


@dataclass
class WorkbookReport:
    tool_version: str
    input_digest: str
    config: AnalysisConfig
    cells: list[CellMetrics]
    cascades: Optional[list[CascadeEntry]]  # None when the graph is cyclic
    modular: ModularMetrics
    range_findings: list[RangeLinkageFinding]
    warnings: list[AuditWarning] = field(default_factory=list)

    @property
    def cyclic(self) -> bool:
        return self.cascades is None

    def exit_code(self) -> int:
        if self.cyclic:
            return 3
        return 1 if self.warnings else 0

    def as_dict(self) -> dict:
        return _report_dict(self)


def analyze_workbook(wb: Workbook, config: AnalysisConfig = AnalysisConfig(),
                     digest: str = "") -> WorkbookReport:
    """Run the full pipeline over an already-loaded workbook."""
    warnings: list[AuditWarning] = list(wb.warnings)
    # Every graph-wide temporary, the graph included, is freed on return.
    cells, cascades, modular, findings = _graph_analysis(wb, config, warnings)
    warnings.sort(key=lambda w: (w.code, w.address, w.message))
    return WorkbookReport(
        tool_version=__version__,
        input_digest=digest,
        config=config,
        cells=cells,
        cascades=cascades,
        modular=modular,
        range_findings=findings,
        warnings=warnings,
    )


def _graph_analysis(
    wb: Workbook, config: AnalysisConfig, warnings: list[AuditWarning],
) -> tuple[list[CellMetrics], Optional[list[CascadeEntry]], ModularMetrics,
           list[RangeLinkageFinding]]:
    """Range linkage, cell metrics, cascades and modular metrics: every
    stage that reads the dependency graph. Appends their warnings to
    ``warnings``."""
    graph = build_graph(wb)
    for d in graph.dangling:
        warnings.append(AuditWarning(
            W_DANGLING_REFERENCE,
            d.from_cell.render(),
            f"reference {d.target_text} names missing sheet {d.missing_sheet!r}",
        ))
    warnings.extend(graph.materialized_warnings())
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
    by_node = [formula_metrics(cell, graph.precedents(i), config.dispersion)
               for i, cell in enumerate(graph.cells())]
    cells = [by_node[i] for i in graph.cell_ids()]
    for m in cells:
        if m.cross_sheet_ref_count:
            warnings.append(AuditWarning(
                W_CROSS_SHEET_DISPERSION_EXCLUDED,
                m.address.render(),
                f"{m.cross_sheet_ref_count} cross-sheet reference(s) excluded "
                "from dispersion and spans",
            ))

    cascades: Optional[list[CascadeEntry]] = None
    if not graph.is_cyclic:
        constructs = find_conditionals(wb, graph)
        complexity = all_complexities(constructs, config.beta)
        finals = finals_by_cell(constructs)
        rates = cell_error_rates(by_node, config.reliability)
        cascades = []
        for terminal in graph.bottom_line_cells():
            stats = graph.cascade_stats(terminal)
            rel = cascade_reliability(stats, rates, config.reliability)
            conds = tuple(
                (c, complexity[c.id]) for c in cascade_finals(stats.member_ids, finals)
            )
            # The report keeps no node ids: they name nodes of a graph that
            # is freed on return, and would hold every cascade's members.
            stats = replace(stats, member_ids=(), input_ids=())
            cascades.append(CascadeEntry(stats, rel, conds))
    return cells, cascades, modular_metrics(wb, graph), findings


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
            return float(x)
        except OverflowError:
            return sys.float_info.max if x > 0 else -sys.float_info.max
    return float(x)


def _num(x) -> Union[int, float]:
    if isinstance(x, Fraction):
        x = _to_float(x)
    if isinstance(x, float):
        if math.isinf(x):
            x = sys.float_info.max if x > 0 else -sys.float_info.max
        return round(x, 6)
    return x


def _metrics_dict(m: CellMetrics) -> dict:
    return {
        "address": m.address.render(),
        "n_operators": m.n_operators,
        "n_operands": m.n_operands,
        "depth_of_nesting": m.depth_of_nesting,
        "avg_nesting_level": _num(m.avg_nesting_level),
        "decision_count": m.decision_count,
        "n_references": m.n_references,
        "dispersion": _num(m.dispersion),
        "delta_sum": _num(m.delta_sum),
        "col_span": m.col_span,
        "row_span": m.row_span,
        "cross_sheet_ref_count": m.cross_sheet_ref_count,
        "mixed_axis_flag": m.mixed_axis_flag,
        "forward_ref_count": m.forward_ref_count,
    }


def _cascade_dict(entry: CascadeEntry) -> dict:
    stats, rel = entry.stats, entry.reliability
    return {
        "terminal": stats.terminal.render(),
        "cell_count": stats.cell_count,
        "total_paths": stats.total_paths,
        "avg_reachability": _num(stats.avg_reachability),
        "avg_path_length": _num(stats.avg_path_length),
        "max_path_length": stats.max_path_length,
        "uniform_e": _num(rel.uniform_e),
        "adjusted_e": _num(rel.adjusted_e),
        "conditionals": [
            {"cell": c.cell.render(), "o_value": _num(float(o))}
            for c, o in entry.conditionals
        ],
    }


def _rows_list(build, items) -> list:
    return [build(item) for item in items]


class _Rows:
    """A list of report rows that the JSON emitter builds one at a time.

    ``_report_dict(r, rows=_Rows)`` gives the report with each row list
    left unbuilt, so emission never holds every row's dict at once.
    """

    __slots__ = ("build", "items")

    def __init__(self, build, items):
        self.build = build
        self.items = items


def _triple_dict(triple: tuple) -> dict:
    p, q, r = triple
    return {"p": p, "q": q.render(), "r": r}


def _modular_dict(mod: ModularMetrics, rows=_rows_list) -> dict:
    return {
        "triples": rows(_triple_dict, mod.triples),
        "triple_count_by_pair": {
            f"{p}->{r}": n for (p, r), n in sorted(mod.triple_count_by_pair.items())
        },
        "unreferenced_data_pct": _num(mod.unreferenced_data_pct),
        "module_fan_in": dict(sorted(mod.module_fan_in.items())),
        "module_fan_out": dict(sorted(mod.module_fan_out.items())),
    }


def _finding_dict(f: RangeLinkageFinding) -> dict:
    return {
        "source_range": f.source_range.render(),
        "target_range": f.target_range.render(),
        "s": f.s,
        "ref_style": f.ref_style,
        "expected_extent": f.expected_extent,
        "actual_extent": f.actual_extent,
        "verdict": f.verdict,
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


def _warning_dict(w: AuditWarning) -> dict:
    return {"code": w.code, "address": w.address, "message": w.message}


def _report_dict(r: WorkbookReport, rows=_rows_list) -> dict:
    """The canonical report schema.

    ``rows(build, items)`` turns each per-row list into its JSON value:
    by default the built list, in emission a ``_Rows``.
    """
    return {
        "meta": {
            "tool": "cellgauge",
            "version": r.tool_version,
            "input_sha256": r.input_digest,
        },
        "config": _config_dict(r.config),
        "cells": rows(_metrics_dict, r.cells),
        "cascades": (
            None if r.cascades is None else rows(_cascade_dict, r.cascades)
        ),
        "modular": _modular_dict(r.modular, rows),
        "range_findings": rows(_finding_dict, r.range_findings),
        "warnings": rows(_warning_dict, r.warnings),
    }


# --- Emission -----------------------------------------------------------------

_INDENT = "  "
_NESTABLE = (dict, list, tuple, _Rows)  # a _Rows is truthy even when empty
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _flat_encoder(level: int) -> json.JSONEncoder:
    """The C encoder for a flat value at nesting ``level``: its item
    separator carries the newline and the indentation of the items."""
    return json.JSONEncoder(sort_keys=True, ensure_ascii=False,
                            separators=(",\n" + _INDENT * (level + 1), ": "))


def _holds_container(value) -> bool:
    children = value.values() if isinstance(value, dict) else value
    if _SCALARS.issuperset(map(type, children)):  # the common case, in C
        return False
    return any(isinstance(child, _NESTABLE) and child for child in children)


def _encode_json(value, level: int, out: list[str]) -> None:
    """Append the text ``json.dumps(value, sort_keys=True, indent=2,
    ensure_ascii=False)`` gives for ``value`` at nesting ``level``.

    A value that holds no non-empty container is one call to the C encoder,
    whose item separator carries the newline and the indentation; only the
    newlines next to its brackets are added here. The encoder escapes
    control characters inside strings, so a raw newline can only come from
    a separator. Only containers that hold a non-empty container recurse,
    and a ``_Rows`` builds its rows one at a time. Dict keys must be str.
    """
    if isinstance(value, _Rows):
        if not value.items:
            out.append("[]")
            return
        brackets, prefixes = "[]", itertools.repeat("")
        children = map(value.build, value.items)
    elif isinstance(value, (dict, list, tuple)) and _holds_container(value):
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
        out.append(text)
        return
    sep = brackets[0] + "\n" + _INDENT * (level + 1)
    for prefix, child in zip(prefixes, children):
        out.append(sep + prefix)
        _encode_json(child, level + 1, out)
        sep = ",\n" + _INDENT * (level + 1)
    out.append("\n" + _INDENT * level + brackets[1])


def _json_chunks(r: WorkbookReport) -> list[str]:
    out: list[str] = []
    _encode_json(_report_dict(r, _Rows), 0, out)
    out.append("\n")
    return out


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

    formulas = [m for m in r.cells if m.is_formula]
    out.append(f"cells: {len(r.cells)} ({len(formulas)} formulas)")
    out.append(f"warnings: {len(r.warnings)}")
    out.append("")

    out.append(_style(f"TOP RISK CELLS (adjusted cell error rate, max {top_n})", "1", color))
    ranked = sorted(
        r.cells,
        key=lambda m: (-adjusted_cell_rate(m, cfg.reliability),
                       m.address.render()),
    )[:top_n]
    rows = []
    for m in ranked:
        flags = []
        if m.dispersion > cfg.flag_dr:
            flags.append("DR")
        if max(m.col_span, m.row_span) > cfg.flag_span:
            flags.append("SPAN")
        if m.mixed_axis_flag:
            flags.append("MIXED")
        rows.append([
            m.address.render(),
            f"{adjusted_cell_rate(m, cfg.reliability):.4f}",
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

    out.append(_style(f"WARNINGS ({len(r.warnings)})", "1", color))
    for w in r.warnings:
        out.append(_style(f"{w.code} {w.address}: {w.message}", "33", color))
    out.append("")
    return "\n".join(out)


def emit_report(r: WorkbookReport, format: str = "json") -> bytes:
    """Serialize a report as UTF-8 bytes in ``format`` "json" or "text".

    The JSON form is canonical and deterministic: the bytes of
    ``json.dumps(r.as_dict(), sort_keys=True, indent=2, ensure_ascii=False)``
    plus a trailing newline. It is produced by ``_encode_json`` through the
    C encoder, one row at a time, so the report's dict of rows and the pure
    Python encoder's chunk list are never held; the text is joined and
    encoded once.
    """
    if format == "json":
        return "".join(_json_chunks(r)).encode("utf-8")
    if format == "text":
        return _text_report(r).encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")
