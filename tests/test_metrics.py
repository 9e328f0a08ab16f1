from fractions import Fraction
from itertools import compress
from operator import not_

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellgauge.formula import decision_count, parse_formula
from cellgauge.metrics import (
    CellMetrics,
    DispersionConfig,
    ModularMetrics,
    _geometry,
    formula_metrics,
    modular_metrics,
)

from cellgauge.graph import CellGraph, build_graph
from cellgauge.refs import Locations
from cellgauge.workbook import Workbook

from conftest import make_graph, make_workbook
from test_copy_classes import copied_workbook

# Published dispersion table for alpha = 0.01, product mode.
DISPERSION_TABLE = [
    (10, 0.0952),
    (20, 0.1813),
    (50, 0.3935),
    (100, 0.6321),
    (150, 0.7769),
    (200, 0.8647),
    (300, 0.9502),
]


# The raw-delta tests read ``_geometry``, the function the audit runs, with
# each (dx, dy) delta as a one-cell rectangle read from (0, 0).

@pytest.mark.parametrize("delta,expected", DISPERSION_TABLE)
def test_dispersion_reference_table(delta, expected):
    # One reference with |dx*dy| = delta reproduces the table row.
    at = Locations([None], [1], [delta])
    got = _geometry(None, 0, 0, at, at, DispersionConfig())
    assert got["delta_sum"] == delta
    assert abs(got["dispersion"] - expected) <= 5e-5


def test_dispersion_zero_iff_delta_zero():
    at = Locations([None, None], [0, 7], [5, 0])
    got = _geometry(None, 0, 0, at, at, DispersionConfig())
    assert got["delta_sum"] == 0 and got["dispersion"] == 0.0


def test_dispersion_modes():
    at = Locations([None, None], [3, 0], [4, 5])
    dr, d = {}, {}
    for mode in ("product", "manhattan", "euclidean"):
        got = _geometry(None, 0, 0, at, at, DispersionConfig(mode=mode))
        dr[mode], d[mode] = got["dispersion"], got["delta_sum"]
    assert d["product"] == 12
    assert d["manhattan"] == 12
    assert d["euclidean"] == pytest.approx(5.0 + 5.0)
    # Same-column reference contributes nothing in product mode but does in
    # the distance modes.
    one = Locations([None], [0], [5])
    dr_p0 = _geometry(None, 0, 0, one, one, DispersionConfig(mode="product"))["dispersion"]
    dr_m0 = _geometry(None, 0, 0, one, one, DispersionConfig(mode="manhattan"))["dispersion"]
    assert dr_p0 == 0.0 and dr_m0 > 0.0
    assert dr["euclidean"] > 0.0 and dr["manhattan"] > 0.0 and dr["product"] > 0.0


@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), max_size=8),
       st.sampled_from(["product", "manhattan", "euclidean"]))
def test_dispersion_bounds(deltas, mode):
    at = Locations([None] * len(deltas), [dx for dx, _ in deltas], [dy for _, dy in deltas])
    dr = _geometry(None, 0, 0, at, at, DispersionConfig(mode=mode))["dispersion"]
    assert 0.0 <= dr < 1.0


def test_dispersion_strictly_increasing_in_delta_and_alpha():
    values = [_geometry(None, 0, 0, at, at, DispersionConfig())["dispersion"]
              for d in range(0, 500, 25) for at in [Locations([None], [1], [d])]]
    assert all(a < b for a, b in zip(values, values[1:]))
    at = Locations([None], [10], [10])
    alphas = [_geometry(None, 0, 0, at, at, DispersionConfig(alpha=a))["dispersion"]
              for a in (0.001, 0.01, 0.1, 1.0)]
    assert all(a < b for a, b in zip(alphas, alphas[1:]))
    far = Locations([None], [10_000], [10_000])
    assert _geometry(None, 0, 0, far, far, DispersionConfig())["dispersion"] > 0.999999


def test_invalid_dispersion_config():
    with pytest.raises(ValueError):
        DispersionConfig(alpha=0)
    with pytest.raises(ValueError):
        DispersionConfig(mode="chebyshev")


def test_spans_examples():
    for deltas, expected in [([(3, -2), (-1, 4)], (4, 6)), ([(0, 7)], (0, 7)), ([], (0, 0))]:
        at = Locations([None] * len(deltas), [dx for dx, _ in deltas],
                       [dy for _, dy in deltas])
        got = _geometry(None, 0, 0, at, at, DispersionConfig())
        assert (got["col_span"], got["row_span"]) == expected


@given(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=1, max_size=8))
def test_spans_permutation_invariant(deltas):
    got = []
    for order in (deltas, list(reversed(deltas)), sorted(deltas)):
        at = Locations([None] * len(order), [dx for dx, _ in order], [dy for _, dy in order])
        geometry = _geometry(None, 0, 0, at, at, DispersionConfig())
        got.append((geometry["col_span"], geometry["row_span"]))
    base = got[0]
    assert got[1] == base and got[2] == base
    assert base[0] >= 0 and base[1] >= 0


# --- decision count -------------------------------------------------------------


@pytest.mark.parametrize("formula,expected", [
    ("=A1+B1", 0),
    ("=IF(A1>0,1,2)", 1),
    ("=IF(AND(A1>0,OR(B1<5,C1=2)),1,2)", 3),
    ("=IF(A1,1,2)", 1),            # bare non-boolean condition
    ("=IF(TRUE,1,2)", 0),          # constant condition decides nothing
    ("=AND(A1,B1>0)", 2),
    ("=NOT(A1)", 1),
    ("=(A1>0)*1", 1),
    ("=OR(AND(A1>0,A2>0),B1)", 3),
    ("=A1<=B1", 1),
    ("=IF(A1>0,IF(B1>0,1,2),3)", 2),
])
def test_decision_count(formula, expected):
    assert decision_count(parse_formula(formula)) == expected


def test_decision_count_matches_walk_oracle():
    # Independent oracle: count comparison nodes, plus non-boolean logical
    # arguments, plus bare IF conditions, by explicit recursion.
    from cellgauge.formula import BinaryOp, BoolLiteral, FunctionCall, child_nodes

    def boolish(n):
        return (isinstance(n, BinaryOp) and n.op in {"=", "<>", "<", "<=", ">", ">="}) \
            or (isinstance(n, FunctionCall) and n.name in {"AND", "OR", "NOT"})

    def oracle(n):
        total = 1 if (isinstance(n, BinaryOp) and n.op in {"=", "<>", "<", "<=", ">", ">="}) else 0
        if isinstance(n, FunctionCall) and n.name in {"AND", "OR", "NOT"}:
            total += sum(1 for a in n.args if not boolish(a))
        if isinstance(n, FunctionCall) and n.name == "IF" and n.args:
            cond = n.args[0]
            if not boolish(cond) and not isinstance(cond, BoolLiteral):
                total += 1
        return total + sum(oracle(c) for c in child_nodes(n))

    fixtures = [
        "=IF(AND(A1>0,OR(B1<5,C1=2)),IF(D1,1,0),SUM(A1:A3))",
        "=NOT(AND(A1,OR(B1,C1>0)))",
        "=IF(A1>0,IF(A2,IF(TRUE,1,2),3),4)",
    ]
    for f in fixtures:
        ast = parse_formula(f)
        assert decision_count(ast) == oracle(ast.root)


# --- formula metrics (25-formula nesting corpus) ----------------------------------

# (formula, hand-computed sum of token levels, token count, depth)
NL_CORPUS = [
    ("=1", 1, 1, 1),
    ("=1.5", 1, 1, 1),
    ("=A1", 1, 1, 1),
    ("=A1+B1", 3, 3, 1),
    ("=A1+B1*C1", 5, 5, 1),
    ("=-A1", 2, 2, 1),
    ("=A1%", 2, 2, 1),
    ("=(A1+B1)*2", 5, 5, 1),
    ("=SUM(A1:A3)", 3, 2, 2),
    ("=SUM(A1,B1)", 5, 3, 2),
    ("=SUM(A1, MAX(B1,C1))", 11, 5, 3),
    ("=IF(A1>0, A1, 0)", 11, 6, 2),
    ("=MAX(MIN(A1,B1),C1)", 11, 5, 3),
    ("=SQRT(SQRT(16))", 6, 3, 3),
    ("=SUM(A1:B2)*2", 5, 4, 2),
    ("=IF(AND(A1>0,B1<5),SUM(C1:C3),0)", 28, 11, 3),
    ('="a"&"b"', 3, 3, 1),
    ("=TRUE", 1, 1, 1),
    ("=NOT(TRUE)", 3, 2, 2),
    ("=ROUND(A1*B1, 2)", 9, 5, 2),
    ("=Data!B2+1", 3, 3, 1),
    ("=IF(A1>0, IF(A2>0, 1, 2), 3)", 26, 11, 3),
    ("=A1^2^3", 5, 5, 1),
    ("=AVERAGE(A1:A10)/COUNT(A1:A10)", 7, 5, 2),
    ("=MAX(SUM(A1:A2), SUM(B1:B2), 0)", 13, 6, 3),
]


@pytest.mark.parametrize("formula,level_sum,count,depth", NL_CORPUS)
def test_nl_avg_exact_on_corpus(formula, level_sum, count, depth):
    wb, g = make_graph({"S": {"Z9": formula}, "Data": {}})
    cell = wb.cell("S!Z9")
    m = formula_metrics(cell, g.precedents(cell.address))
    assert m.n_operators + m.n_operands == count
    assert m.avg_nesting_level == Fraction(level_sum, count)
    assert m.depth_of_nesting == depth
    assert Fraction(1) <= m.avg_nesting_level <= Fraction(depth)


def metrics_for(sheets, addr):
    wb, g = make_graph(sheets)
    cell = wb.cell(addr)
    return formula_metrics(cell, g.precedents(cell.address))


def test_formula_metrics_flat_example():
    m = metrics_for({"S": {"A1": 1, "B1": 2, "C1": "=A1+B1"}}, "S!C1")
    assert (m.n_operators, m.n_operands) == (1, 2)
    assert m.depth_of_nesting == 1
    assert m.avg_nesting_level == Fraction(1)
    assert m.decision_count == 0
    assert m.n_references == 2
    # deltas: A1 -> (-2, 0), B1 -> (-1, 0); products vanish (same row)
    assert m.delta_sum == 0 and m.dispersion == 0.0
    assert (m.col_span, m.row_span) == (2, 0)


def test_formula_metrics_nested_example():
    m = metrics_for({"S": {"D4": "=SUM(A1, MAX(B1,C1))"}}, "S!D4")
    assert (m.n_operators, m.n_operands) == (2, 3)
    assert m.depth_of_nesting == 3
    assert m.avg_nesting_level == Fraction(11, 5)


def test_data_cell_zero_record():
    wb = make_workbook({"S": {"A1": 42}})
    m = formula_metrics(wb.cell("S!A1"), [])
    assert m == CellMetrics(address=wb.cell("S!A1").address)
    assert not m.is_formula


def test_duplicate_references_counted_per_occurrence():
    m = metrics_for({"S": {"C3": "=A1+A1"}}, "S!C3")
    assert m.n_references == 2
    # both occurrences contribute to the dispersion sum: 2 * |(-2)(-2)|
    assert m.delta_sum == 8


def test_cross_sheet_references_excluded_from_geometry():
    m = metrics_for({"In": {"B2": 5}, "Out": {"A1": "=In!B2+In!B2"}}, "Out!A1")
    assert m.n_references == 2
    assert m.cross_sheet_ref_count == 2
    assert m.delta_sum == 0 and (m.col_span, m.row_span) == (0, 0)


def test_mixed_axis_flag():
    flagged = metrics_for({"S": {"D4": "=D1+A4"}}, "S!D4")
    assert flagged.mixed_axis_flag
    plain = metrics_for({"S": {"D4": "=D1+D2"}}, "S!D4")
    assert not plain.mixed_axis_flag


def test_forward_reference_count():
    m = metrics_for({"S": {"B2": "=C3+A1+B9"}}, "S!B2")
    # C3 points right-and-down, B9 points down, A1 points up-left.
    assert m.forward_ref_count == 2


def test_range_counts_one_operand_many_references():
    m = metrics_for({"S": {"B1": "=SUM(A1:A5)"}}, "S!B1")
    assert m.n_operands == 1
    assert m.n_references == 5


# --- modular metrics ----------------------------------------------------------------


def test_modular_triples_example():
    wb, g = make_graph({
        "In": {"B2": 1, "B3": 2},
        "Out": {"A1": "=In!B2+In!B3"},
    })
    mod = modular_metrics(g)
    rendered = {(p, q.render(), r) for p, q, r in mod.triples}
    assert rendered == {("In", "In!B2", "Out"), ("In", "In!B3", "Out")}
    assert mod.triple_count_by_pair == {("In", "Out"): 2}
    assert mod.module_fan_out == {"In": 1, "Out": 0}
    assert mod.module_fan_in == {"In": 0, "Out": 1}


def test_modular_triples_deduplicated():
    wb, g = make_graph({
        "In": {"B2": 1},
        "Out": {"A1": "=In!B2+In!B2", "A2": "=In!B2"},
    })
    mod = modular_metrics(g)
    assert len(mod.triples) == 1


def test_single_sheet_no_triples():
    wb, g = make_graph({"S": {"A1": 1, "B1": "=A1"}})
    mod = modular_metrics(g)
    assert mod.triples == ()
    assert mod.unreferenced_data_pct == 0.0


def test_unreferenced_data_percentage():
    wb, g = make_graph({"S": {
        "A1": 1, "A2": 2, "A3": 3, "A4": 4, "B1": "=A1*2",
    }})
    mod = modular_metrics(g)
    assert mod.unreferenced_data_pct == 75.0


def test_no_data_cells_gives_zero_pct():
    wb, g = make_graph({"S": {"B1": "=A1"}})  # A1 materialized, not data
    mod = modular_metrics(g)
    assert mod.unreferenced_data_pct == 0.0


# Modular metrics as they were when a set collected every node some formula
# reads, verbatim but for the name; the audit counts unread data cells from
# their dependents instead.

def oracle_modular_metrics(wb: Workbook, g: CellGraph) -> ModularMetrics:
    """Data binding triples, module fan-in/out and the share of data cells
    nothing reads, from ``g``, the graph of ``wb``, by node id."""
    triples: set[tuple[str, int, str]] = set()  # (P, node id of Q, R)
    shapes = g.shapes()
    sheet_of = g.sheet_names()
    read: set[int] = set()  # every node some formula reads
    for i in g.formulas()[0]:
        r = sheet_of[i]
        preds = g.reference_columns()[0][i]
        read.update(preds)
        for q in preds:
            if sheet_of[q] != r:
                triples.add((sheet_of[q], q, r))
    data = list(compress(range(len(shapes)), map(not_, shapes)))
    data_cells = len(data)
    unreferenced = data_cells - sum(map(read.__contains__, data))
    fan_in: dict[str, set[str]] = {s.name: set() for s in wb.sheets}
    fan_out: dict[str, set[str]] = {s.name: set() for s in wb.sheets}
    for p, _, r in triples:
        fan_out[p].add(r)
        fan_in[r].add(p)
    pct = 100.0 * unreferenced / data_cells if data_cells else 0.0
    sheet_idx = {s.name: i for i, s in enumerate(wb.sheets)}
    addr = g.address_of
    ordered = sorted(
        ((p, addr(q), r) for p, q, r in triples),
        key=lambda t: (sheet_idx[t[0]], t[1].row, t[1].column, sheet_idx[t[2]]),
    )
    counts: dict[tuple[str, str], int] = {}
    for p, _, r in ordered:
        counts[(p, r)] = counts.get((p, r), 0) + 1
    return ModularMetrics(
        triples=tuple(ordered),
        triple_count_by_pair=counts,
        unreferenced_data_pct=pct,
        module_fan_in={name: len(v) for name, v in fan_in.items()},
        module_fan_out={name: len(v) for name, v in fan_out.items()},
    )


@given(copied_workbook())
def test_modular_metrics_match_the_read_set_count(wb):
    # Several sheets, references to the missing sheet Nope! and ranges over
    # empty cells.
    g = build_graph(wb)
    assert modular_metrics(g) == oracle_modular_metrics(wb, g)
