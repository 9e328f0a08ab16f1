"""Command-line interface.

Exit codes for ``analyze``: 0 clean, 1 analyzed with warnings, 2 unreadable
or invalid input, or output that cannot be written to ``--out`` or to
stdout (closed, full, or a pipe whose reader has gone), 3 reference cycle
detected (a report is still emitted with the graph-dependent sections
marked unavailable), 4 internal error: an
unexpected exception in any command, reported as one ``error: internal error
in <command>: <type>: <message>`` line on stderr without a traceback.
Invalid input includes, in every command, a file that is not UTF-8, a
sheet name, formula or string value that is not valid Unicode (a lone
surrogate from a JSON ``\\ud800`` escape), an option or weight that is not
a finite number, ranges that cost more than ``--max-range-cells`` allows
(see ``graph.CellGraph``), and, in ``analyze``, cascades that hold more
members in all than ``report.MAX_CASCADE_CELLS``.
``check-ranges`` exits 0 when it finds no copied-formula run or none is a
violation, 1 when it prints a ``VIOLATION`` line, and 2 and 4 as above.
``paths`` exits 0 with the paths listed, 1 when more than ``--limit``
paths exist, 2 for invalid input (a ``--cell`` that is not an address or
not in the graph, a negative ``--limit``), 3 on a reference cycle and 4
as above.

``main`` maps each error a command raises to its exit code, and prints it
as one ``error:`` line on stderr. Every command runs with cyclic garbage
collection off; ``main`` restores the caller's setting when it returns.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional, Union

from .conditionals import BetaConfig
from .errors import (
    CellGaugeError,
    CycleError,
    DomainError,
    FormatError,
    LimitExceededError,
)
from .graph import EMPTY_RANGE_CELL_COST, MAX_RANGE_CELLS, build_graph
from .metrics import DispersionConfig, check_range_linkage
from .refs import _quoted_names, parse_cell_address
from .reliability import ReliabilityConfig
from .report import AnalysisConfig, analyze, emit_report
from .workbook import load_workbook

_WEIGHT_KEYS = {
    "tokens": "w_tokens",
    "depth": "w_depth",
    "dispersion": "w_dispersion",
    "decisions": "w_decisions",
    "span": "w_span",
    "data_cell_factor": "data_cell_factor",
    "cap": "cap",
}


def _load_weights(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"weights file {path} is not valid UTF-8: {exc}") from exc
    # A JSONDecodeError is a ValueError, as is an integer literal past the
    # interpreter's 4,300-digit limit; nesting too deep recurses.
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid weights file: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("weights file must be a JSON object")
    unknown = set(doc) - set(_WEIGHT_KEYS)
    if unknown:
        raise FormatError(f"unknown weight keys: {_quoted_names(unknown)}")
    out = {}
    for key, value in doc.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise FormatError(f"weight {key!r} must be a number")
        try:
            out[_WEIGHT_KEYS[key]] = float(value)
        except OverflowError:  # an integer past float's range
            out[_WEIGHT_KEYS[key]] = math.inf
    return out


def _build_config(args: argparse.Namespace) -> AnalysisConfig:
    rel_kwargs = {"base_cer": args.cer}
    if args.weights:
        rel_kwargs.update(_load_weights(args.weights))
    return AnalysisConfig(
        dispersion=DispersionConfig(alpha=args.alpha, mode=args.dispersion_mode),
        reliability=ReliabilityConfig(**rel_kwargs),
        beta=BetaConfig(beta=args.beta),
        flag_dr=args.flag_dr,
        flag_span=args.flag_span,
        max_range_cells=args.max_range_cells,
    )


def _write(payload: Union[bytes, str], out: Optional[str] = None) -> None:
    """Write a command's output to the file ``out``, or else to stdout. If
    it cannot be written, raise an OSError that says where to; a stdout
    that failed is pointed at the null device, so that the interpreter's
    flush at exit does not fail again."""
    stream = sys.stdout
    try:
        if out:
            Path(out).write_bytes(payload)
        elif stream is None:
            raise OSError("it is closed")
        else:
            (stream.buffer if isinstance(payload, bytes) else stream).write(payload)
            stream.flush()
    except OSError as exc:
        if not out and stream is not None:
            with contextlib.suppress(OSError, ValueError), open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), stream.fileno())
        where = f"report to {out}" if out else "to standard output"
        raise OSError(f"cannot write {where}: {exc.strerror or exc}") from exc


def _cmd_analyze(args: argparse.Namespace) -> int:
    report = analyze(args.file, _build_config(args))
    _write(emit_report(report, args.format), args.out)
    return report.exit_code()


def _cmd_paths(args: argparse.Namespace) -> int:
    wb = load_workbook(args.file)
    try:
        cell = parse_cell_address(args.cell)
    except ValueError as exc:
        raise DomainError(str(exc)) from None
    paths = build_graph(wb, args.max_range_cells).enumerate_paths(cell, limit=args.limit)
    lines = [f"{len(paths)} path(s) to {cell.render()}"]
    lines += (" -> ".join(a.render() for a in path) for path in paths)
    _write("\n".join(lines) + "\n")
    return 0


def _cmd_check_ranges(args: argparse.Namespace) -> int:
    findings = check_range_linkage(build_graph(load_workbook(args.file), args.max_range_cells))
    lines = [
        f"{f.verdict.upper():9s} {f.target_range.render()} "
        f"[{f.ref_style}, s={f.s}] source {f.source_range.render()} "
        f"expected {f.expected_extent} actual {f.actual_extent}"
        for f in findings] or ["no copied-formula runs detected"]
    _write("\n".join(lines) + "\n")
    return 1 if any(f.verdict == "violation" for f in findings) else 0


def _add_range_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-range-cells", type=int, default=MAX_RANGE_CELLS,
                   help="most the ranges of all formulas may cost: each cell a "
                        f"range reads counts 1, an empty one {EMPTY_RANGE_CELL_COST}; "
                        f"past it the command exits 2 (default {MAX_RANGE_CELLS:,})")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellgauge",
        description="Audit spreadsheet workbooks for error-prone cells.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full audit report for a workbook")
    p.add_argument("file")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.add_argument("--alpha", type=float, default=0.01,
                   help="dispersion slope constant (default 0.01)")
    p.add_argument("--beta", type=float, default=0.0,
                   help="conditional-complexity exponent adjustment (default 0)")
    p.add_argument("--cer", type=float, default=0.02,
                   help="base cell error rate (default 0.02)")
    p.add_argument("--dispersion-mode", choices=("product", "manhattan", "euclidean"),
                   default="product")
    p.add_argument("--weights", help="JSON file with reliability weights")
    p.add_argument("--flag-dr", type=float, default=0.5,
                   help="flag cells whose dispersion exceeds this (default 0.5)")
    p.add_argument("--flag-span", type=int, default=20,
                   help="flag cells whose column/row span exceeds this (default 20)")
    _add_range_budget(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("paths", help="enumerate reference paths to a cell")
    p.add_argument("file")
    p.add_argument("--cell", required=True, help="terminal cell, e.g. Sheet1!D1")
    p.add_argument("--limit", type=int, default=1000)
    _add_range_budget(p)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("check-ranges", help="copied-range linkage findings only")
    p.add_argument("file")
    _add_range_budget(p)
    p.set_defaults(func=_cmd_check_ranges)

    return parser


# The exit code of each error a command raises, first match first: any
# other exception is an internal error, exit 4.
_EXIT_CODES = ((CycleError, 3), (LimitExceededError, 1), (CellGaugeError, 2), (OSError, 2))


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # A command builds many objects and leaves no garbage cycle that grows
    # with the input, so cyclic garbage collection would only re-walk every
    # AST node and cell on each full pass; reference counting still frees
    # everything else. The caller's setting is restored on return.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (CellGaugeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    except Exception as exc:
        print(
            f"error: internal error in {args.command}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 4
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
