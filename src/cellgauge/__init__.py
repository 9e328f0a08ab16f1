"""Static analysis of spreadsheet workbooks.

Parses formulas, builds the cell dependency graph, computes size/structure/
dispersion/cascade complexity metrics, estimates bottom-line error rates,
and emits audit reports flagging error-prone cells.
"""

__version__ = "0.1.0"

from .conditionals import (
    BetaConfig,
    ConditionalConstruct,
    find_conditionals,
)
from .errors import (
    AuditWarning,
    CascadeBudgetError,
    CellGaugeError,
    CycleError,
    DomainError,
    EmptyFormulaError,
    FormatError,
    FormulaSyntaxError,
    LimitExceededError,
    RangeBudgetError,
    UnbalancedParensError,
    UnknownCellError,
)
from .formula import (
    ClassifiedToken,
    FormulaAst,
    classify_tokens,
    decision_count,
    parse_formula,
    render_formula,
)
from .graph import CascadeStats, CellGraph, build_graph
from .metrics import (
    CellMetrics,
    DispersionConfig,
    ModularMetrics,
    RangeLinkageFinding,
    check_range_linkage,
    formula_metrics,
    modular_metrics,
)
from .refs import CellRef, RangeRef, parse_cell_address
from .reliability import (
    CascadeReliability,
    ReliabilityConfig,
    adjusted_cell_rate,
    bottom_line_error_rate,
    cascade_reliability,
    survive_factors,
)
from .report import (
    AnalysisConfig,
    WorkbookReport,
    analyze,
    analyze_workbook,
    emit_report,
)
from .workbook import (
    Cell,
    Workbook,
    load_workbook,
    load_workbook_doc,
    load_csv_grid,
)

__all__ = [
    "__version__",
    "AnalysisConfig",
    "AuditWarning",
    "BetaConfig",
    "CascadeBudgetError",
    "CascadeReliability",
    "CascadeStats",
    "Cell",
    "CellGaugeError",
    "CellGraph",
    "CellMetrics",
    "CellRef",
    "ClassifiedToken",
    "ConditionalConstruct",
    "CycleError",
    "DispersionConfig",
    "DomainError",
    "EmptyFormulaError",
    "FormatError",
    "FormulaAst",
    "FormulaSyntaxError",
    "LimitExceededError",
    "ModularMetrics",
    "RangeBudgetError",
    "RangeLinkageFinding",
    "RangeRef",
    "ReliabilityConfig",
    "UnbalancedParensError",
    "UnknownCellError",
    "Workbook",
    "WorkbookReport",
    "adjusted_cell_rate",
    "analyze",
    "analyze_workbook",
    "bottom_line_error_rate",
    "build_graph",
    "cascade_reliability",
    "check_range_linkage",
    "classify_tokens",
    "decision_count",
    "emit_report",
    "find_conditionals",
    "formula_metrics",
    "load_csv_grid",
    "load_workbook",
    "load_workbook_doc",
    "modular_metrics",
    "parse_cell_address",
    "parse_formula",
    "render_formula",
    "survive_factors",
]
