"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with -s or -rA to see them)."""

import json
import random
import time
from fractions import Fraction

import pytest

from cellgauge import (
    AnalysisConfig,
    BetaConfig,
    DispersionConfig,
    ReliabilityConfig,
    analyze,
    bottom_line_error_rate,
    conditional_complexity,
    dispersion,
    emit_report,
    find_conditionals,
    formula_metrics,
)
from cellgauge.metrics import check_range_linkage
from cellgauge.refs import column_to_letters
from cellgauge.reliability import cascade_reliability, survive_factors

from conftest import FIVE_CELL_SHEETS, NINE_CELL_SHEETS, make_graph
from test_conditionals import ORACLE_FIXTURES, enumerate_branch_selections
from test_graph import oracle_stats, random_dag_workbook
from test_metrics import DISPERSION_TABLE, NL_CORPUS


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_01_dispersion_table():
    """Seven published (delta, DR) pairs at alpha=0.01, product mode."""
    start = time.perf_counter()
    for delta, expected in DISPERSION_TABLE:
        dr, _ = dispersion([(1, delta)], DispersionConfig(alpha=0.01, mode="product"))
        assert abs(dr - expected) <= 5e-5, (delta, dr, expected)
    assert time.perf_counter() - start < 0.1
    report("1 dispersion table (7 rows, ±5e-5)")


def test_criterion_02_bottom_line_rates_and_fixtures():
    """E(0.02, 5) = 0.0961 and E(0.02, 9) = 0.1663; the two reconstructed
    utility-model workbooks produce cascades of exactly those sizes."""
    assert abs(bottom_line_error_rate(0.02, 5) - 0.0961) <= 5e-5
    assert abs(bottom_line_error_rate(0.02, 9) - 0.1663) <= 5e-5
    for sheets, n in ((FIVE_CELL_SHEETS, 5), (NINE_CELL_SHEETS, 9)):
        wb, g = make_graph(sheets)
        (terminal,) = g.bottom_line_cells()
        stats = g.cascade_stats(terminal)
        assert stats.cell_count == n
        group = next(g.cascade_groups([g.node_id(terminal)]))
        (rel,) = cascade_reliability(group, survive_factors([], [], g.node_count), ReliabilityConfig())
        assert abs(rel.uniform_e - bottom_line_error_rate(0.02, n)) < 1e-15
    report("2 bottom-line error rates (n=5 -> 0.0961, n=9 -> 0.1663)")


def test_criterion_03_reachability_oracle_200_dags():
    """On 200 random DAGs (<=12 nodes, <=3 parallel edges per pair) the
    reachability recurrence and path statistics match exhaustive
    enumeration exactly, in under ten seconds."""
    start = time.perf_counter()
    rng = random.Random(99_2026)
    instances = 0
    while instances < 200:
        wb, g = random_dag_workbook(rng, max_nodes=12, max_multiplicity=3)
        terminals = g.bottom_line_cells()
        if not terminals:
            continue
        instances += 1
        for t in terminals:
            paths = g.enumerate_paths(t, limit=1_000_000)
            count, avg_len, max_len = oracle_stats(paths)
            st = g.cascade_stats(t)
            assert g.reachability(t) == count
            assert st.total_paths == count
            assert st.avg_path_length == avg_len  # exact rationals
            assert st.max_path_length == max_len
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(f"3 reachability oracle (200 DAGs, exact, {elapsed:.2f}s)")


def test_criterion_04_six_cell_cascade_aggregates():
    """A six-cell cascade with terminal reachability 7, an interior cell at
    4, and average reachability 17/6, validated against the enumerator."""
    wb, g = make_graph({"S": {
        "A1": 1,
        "A2": 1,
        "B1": "=A1+A2",
        "B2": "=A1+A2",
        "C1": "=B1+B2",        # interior cell with four paths
        "D1": "=C1+B1+A1",     # terminal
    }})
    assert g.reachability("S!D1") == 7
    assert g.reachability("S!C1") == 4
    assert len(g.enumerate_paths("S!D1")) == 7
    assert len(g.enumerate_paths("S!C1")) == 4
    st = g.cascade_stats("S!D1")
    assert st.cell_count == 6
    assert st.avg_reachability == Fraction(17, 6)
    reach_sum = sum(g.reachability(i) for i in g.member_ids("S!D1"))
    assert Fraction(reach_sum, 6) == Fraction(17, 6)
    report("4 six-cell cascade aggregates (terminal 7, interior 4, avg 17/6)")


def test_criterion_05_branch_complexity_oracle():
    """On 12 fixtures with up to four nested/chained IFs, the complexity at
    beta=0 equals the brute-force disjunctive-branch count exactly, and at
    beta=0.1 equals base**1.1 within 1e-9."""
    assert len(ORACLE_FIXTURES) >= 10
    checked = 0
    for cells in ORACLE_FIXTURES:
        wb, g = make_graph({"S": cells})
        constructs = find_conditionals(g)
        values_beta = {}
        for c in constructs:
            flat = conditional_complexity(c, BetaConfig(0.0), constructs)
            assert flat == len(enumerate_branch_selections(c, constructs))
            values_beta[c.id] = conditional_complexity(c, BetaConfig(0.1), constructs)
            checked += 1
        for c in constructs:
            base = sum(values_beta[i] for i in c.nested_or_precedent)
            base += c.conditionless_branches
            assert abs(values_beta[c.id] - base ** 1.1) <= 1e-9
    report(f"5 branch complexity oracle ({checked} constructs, beta 0 and 0.1)")


def test_criterion_06_range_linkage_rules():
    """Absolute linkage requires source extent = s; relative linkage
    requires extent = run length + s - 1; off-by-one fixtures must fail."""
    def run(data_rows, formula):
        cells = {f"A{r}": float(r) for r in data_rows}
        cells.update({f"B{r}": formula(r) for r in range(1, 6)})
        (finding,) = check_range_linkage(make_graph({"S": cells})[1])
        return finding

    ok_abs = run(range(1, 4), lambda r: "=SUM($A$1:$A$3)")
    assert (ok_abs.ref_style, ok_abs.verdict) == ("absolute", "ok")
    assert ok_abs.expected_extent == ok_abs.actual_extent == 3

    bad_abs = run(range(1, 5), lambda r: "=SUM($A$1:$A$3)")
    assert (bad_abs.ref_style, bad_abs.verdict) == ("absolute", "violation")
    assert (bad_abs.expected_extent, bad_abs.actual_extent) == (3, 4)

    ok_rel = run(range(1, 7), lambda r: f"=SUM(A{r}:A{r + 1})")
    assert (ok_rel.ref_style, ok_rel.verdict) == ("relative", "ok")
    assert ok_rel.expected_extent == ok_rel.actual_extent == 6

    bad_rel = run(range(1, 6), lambda r: f"=SUM(A{r}:A{r + 1})")
    assert (bad_rel.ref_style, bad_rel.verdict) == ("relative", "violation")
    assert (bad_rel.expected_extent, bad_rel.actual_extent) == (6, 5)
    report("6 range linkage rules (absolute s / relative S_HB+s-1)")


def test_criterion_07_reduction_to_uniform():
    """With zero weights, data factor 1 and cap 1 the adjusted bottom-line
    rate equals the uniform one on every fixture cascade."""
    cfg = ReliabilityConfig(
        w_tokens=0, w_depth=0, w_dispersion=0, w_decisions=0, w_span=0,
        data_cell_factor=1.0, cap=1.0,
    )
    fixtures = [
        FIVE_CELL_SHEETS,
        NINE_CELL_SHEETS,
        {"S": {"A1": 1, "B1": "=A1*2", "B2": "=A1+1", "C1": "=B1+B2"}},
        {"S": {"A1": 5, "B1": "=A1", "C1": "=B1"}},
        {"S": {"A1": 1, "A2": 1, "B1": "=A1+A2", "B2": "=A1+A2",
               "C1": "=B1+B2", "D1": "=C1+B1+A1"}},
    ]
    cascades = 0
    for sheets in fixtures:
        wb, g = make_graph(sheets)
        metrics = [formula_metrics(c, g.precedents(c.address)) for c in wb.iter_cells()]
        survive = survive_factors(metrics, range(len(metrics)), g.node_count, cfg)
        for t in g.bottom_line_ids():
            (rel,) = cascade_reliability(next(g.cascade_groups([t])), survive, cfg)
            assert rel.adjusted_e == pytest.approx(rel.uniform_e, rel=1e-12)
            cascades += 1
    assert cascades >= 5
    report(f"7 reduction to uniform rate ({cascades} cascades, rel 1e-12)")


def test_criterion_08_average_nesting_exact():
    """Average nesting level is the exact rational mean of hand-counted
    token levels on the 25-formula corpus."""
    assert len(NL_CORPUS) == 25
    for formula, level_sum, count, _depth in NL_CORPUS:
        wb, g = make_graph({"S": {"Z9": formula}, "Data": {}})
        cell = wb.cell("S!Z9")
        m = formula_metrics(cell, g.precedents(cell.address))
        assert m.avg_nesting_level == Fraction(level_sum, count), formula
    worked = next(m for m in NL_CORPUS if m[0] == "=SUM(A1, MAX(B1,C1))")
    assert Fraction(worked[1], worked[2]) == Fraction(11, 5)
    report("8 average nesting level exact on 25-formula corpus (incl. 11/5)")


# --- criterion 9: scale and determinism -------------------------------------------


def generate_large_workbook_doc():
    """Exactly 10,000 cells: one data sheet, three formula sheets with
    chains, duplicated IF references and row ranges, and a summary sheet
    of cross-sheet aggregates."""
    rng = random.Random(1234)
    sheets = []

    data_cells = []
    for r in range(1, 36):          # 35 rows x 50 cols = 1750 data cells
        for c in range(1, 51):
            data_cells.append({
                "ref": f"{column_to_letters(c)}{r}",
                "value": round(rng.uniform(-50, 150), 3),
            })
    sheets.append({"name": "Data", "cells": data_cells})

    n_rows, n_cols = 50, 49          # 3 x 2450 = 7350 formula cells
    for s in range(1, 4):
        cells = []
        for r in range(1, n_rows + 1):
            for c in range(1, n_cols + 1):
                ref = f"{column_to_letters(c)}{r}"
                left = f"{column_to_letters(max(c - 1, 1))}{r}"
                if c == 1:
                    src_col = column_to_letters((r * 7 + s) % 50 + 1)
                    src_row = (r * 3 + s) % 35 + 1
                    formula = f"=Data!{src_col}{src_row}*2"
                elif c % 7 == 3:
                    formula = f"=IF({left}>0, {left}+1, 0)"
                elif c % 5 == 0:
                    lo = column_to_letters(c - 3)
                    hi = column_to_letters(c - 1)
                    formula = f"=SUM({lo}{r}:{hi}{r})"
                elif (r + c) % 13 == 0 and s > 1:
                    formula = f"={left}+Calc{s - 1}!{ref}"
                else:
                    formula = f"={left}+{c}"
                cells.append({"ref": ref, "formula": formula})
        sheets.append({"name": f"Calc{s}", "cells": cells})

    last = column_to_letters(n_cols)
    summary_cells = []
    for r in range(1, 51):           # 50 rows x 18 cols = 900 cells
        for c in range(1, 19):
            a = c % 3 + 1
            b = (c + 1) % 3 + 1
            summary_cells.append({
                "ref": f"{column_to_letters(c)}{r}",
                "formula": f"=Calc{a}!{last}{r}+Calc{b}!{last}{r}*0.5",
            })
    sheets.append({"name": "Summary", "cells": summary_cells})

    total = sum(len(s["cells"]) for s in sheets)
    assert total == 10_000, total
    return {"sheets": sheets}


def test_criterion_09_scale_and_determinism(tmp_path):
    """A generated 10,000-cell workbook analyzes in under five seconds and
    two runs emit byte-identical canonical JSON."""
    doc = generate_large_workbook_doc()
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))

    # Audit a tiny workbook first, so one-time costs (first calls, lazily
    # built JSON encoders) stay out of the measured runs.
    warm = tmp_path / "warm.json"
    warm.write_text(json.dumps(
        {"sheets": [{"name": "S", "cells": [
            {"ref": "A1", "value": 1}, {"ref": "B1", "formula": "=A1*2"},
        ]}]}
    ))
    analyze(warm)

    config = AnalysisConfig()
    timings = []
    outputs = []
    for _ in range(2):
        start = time.perf_counter()
        rep = analyze(path, config)
        payload = emit_report(rep, "json")
        timings.append(time.perf_counter() - start)
        outputs.append(payload)

    assert outputs[0] == outputs[1]
    assert all(t < 5.0 for t in timings), timings

    parsed = json.loads(outputs[0])
    assert len(parsed["cells"]) == 10_000
    assert len(parsed["cascades"]) == 900
    report(
        "9 scale and determinism (10,000 cells, runs "
        + ", ".join(f"{t:.2f}s" for t in timings)
        + ", byte-identical)"
    )
