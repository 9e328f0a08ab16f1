"""An audit's cascades, computed per precedent set, against each terminal's own.

The audit groups bottom-line cells by the set of cells they read and walks,
sorts and multiplies each group's shared cone once. Every ``CascadeEntry``
must still equal what the per-terminal queries give: ``OracleGraph``'s
statistics and members, a sequential ``survive *= 1 - rate`` product over
those members in canonical order (compared with ``==``), and the final IF
constructs among the members in construct order. The cascade budget must
name the terminal at which the cascades, charged one by one in canonical
order, first go past it.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellgauge import report as report_module
from cellgauge.conditionals import all_complexities, find_conditionals
from cellgauge.errors import CascadeBudgetError
from cellgauge.graph import CellGraph
from cellgauge.refs import column_to_letters
from cellgauge.reliability import (
    ReliabilityConfig,
    adjusted_cell_rate,
    bottom_line_error_rate,
    cascade_reliability,
    survive_factors,
)
from cellgauge.report import analyze_workbook
from cellgauge.workbook import load_workbook_doc

from test_graph_oracle import OracleGraph

SHEETS = ("S", "My Data")
# The cone region: cells that formulas read, each reading only cells before
# it in this list, so the graph is acyclic. On S it starts at row 2, so a
# terminal in row 1 sorts before every member of its cone on that sheet.
CONE = ([("S", column, row) for row in range(2, 6) for column in range(1, 4)]
        + [("My Data", column, row) for row in range(1, 4) for column in range(1, 3)])
# Where terminals go: no cell reads them. S!E1 sorts before the S cone,
# S!E3 inside it and S!E6 after it; My Data's sort after all of S.
TERMINALS = [("S", 5, row) for row in range(1, 7)] + [("My Data", 4, row) for row in range(1, 4)]


def address(at: tuple[str, int, int], own: str) -> str:
    sheet, column, row = at
    a1 = f"{column_to_letters(column)}{row}"
    if sheet == own:
        return a1
    return (f"'{sheet}'" if " " in sheet else sheet) + "!" + a1


def formula(reads: list[tuple[str, int, int]], own: str, as_if: bool) -> str:
    """A formula reading ``reads`` in order (repeats are parallel edges);
    an IF when ``as_if``, and a constant when it reads nothing."""
    refs = [address(at, own) for at in reads]
    if not refs:
        return "=IF(1>0,2,3)" if as_if else "=1+2"
    if as_if:
        return f"=IF({refs[0]}>0,{'+'.join(refs[1:]) or 1},{refs[-1]})"
    return "=" + "+".join(refs)


@st.composite
def shared_cone_workbooks(draw):
    """Cone cells that are empty, data or formulas over earlier cone cells;
    a pool of one to three precedent sets; and terminals that each read one
    set from the pool, its cells in any order, once or twice each."""
    cells: dict[tuple[str, int, int], object] = {}
    for k, at in enumerate(CONE):
        kind = draw(st.sampled_from(("empty", "data", "formula", "formula")))
        if kind == "data":
            cells[at] = draw(st.integers(-9, 9))
        elif kind == "formula" and k:
            reads = draw(st.lists(st.sampled_from(CONE[:k]), min_size=1, max_size=3))
            cells[at] = formula(reads, at[0], draw(st.booleans()))
    pool = draw(st.lists(st.lists(st.sampled_from(CONE), max_size=3, unique=True),
                         min_size=1, max_size=3))
    for at in draw(st.lists(st.sampled_from(TERMINALS), min_size=1, unique=True)):
        reads = draw(st.permutations(draw(st.sampled_from(pool))))
        reads = reads + draw(st.lists(st.sampled_from(reads), max_size=2)) if reads else []
        cells[at] = formula(reads, at[0], draw(st.booleans()))
    doc = {"sheets": [{"name": name, "cells": [
        {"ref": address(at, name), "formula" if isinstance(v, str) else "value": v}
        for at, v in cells.items() if at[0] == name]} for name in SHEETS]}
    return load_workbook_doc(doc)


# S!E1 and S!E5 read {S!A2} and sort before and after it; S!E2 reads nothing;
# S!E3 reads S!A2 twice and sorts inside the cone of S!E6, which reads
# S!A3 (empty) and S!C2, itself an IF over S!A2 and My Data's A1.
EXAMPLE = load_workbook_doc({"sheets": [
    {"name": "S", "cells": [
        {"ref": "A2", "value": 4},
        {"ref": "C2", "formula": "=IF(A2>0,'My Data'!A1,2)"},
        {"ref": "E1", "formula": "=A2*2"},
        {"ref": "E2", "formula": "=1+2"},
        {"ref": "E3", "formula": "=IF(A2>1,A2,0)"},
        {"ref": "E5", "formula": "=A2+1"},
        {"ref": "E6", "formula": "=IF(C2>0,A3,C2)"}]},
    {"name": "My Data", "cells": [
        {"ref": "A1", "value": 3},
        {"ref": "D1", "formula": "=S!A2-1"}]},
]})


def expected_cascades(wb) -> list:
    """Each bottom-line cell's (stats, uniform_e, adjusted_e, conditionals),
    one terminal at a time, in canonical order."""
    oracle, g = OracleGraph(wb), CellGraph(wb)
    records = {m.address: m for m in analyze_workbook(wb).cells}
    cfg = ReliabilityConfig()
    constructs = find_conditionals(g)
    complexity = all_complexities(constructs)
    out = []
    for terminal in oracle.bottom_line_cells():
        members = oracle.member_ids(terminal)
        in_cascade = set(members)
        survive = 1.0
        for i in members:
            survive *= 1.0 - adjusted_cell_rate(records.get(oracle.address_of(i)), cfg)
        conditionals = tuple(
            (constructs[k], complexity[k]) for k in range(len(constructs))
            if constructs.final[k] and constructs.nodes[k] in in_cascade)
        out.append((oracle.cascade_stats(terminal),
                    bottom_line_error_rate(cfg.base_cer, len(members)), 1.0 - survive,
                    conditionals))
    return out


@settings(deadline=None)
@given(shared_cone_workbooks())
@example(EXAMPLE)
def test_each_cascade_is_what_its_terminal_alone_gives(wb):
    expected = expected_cascades(wb)
    cascades = analyze_workbook(wb).cascades
    assert [(e.stats, e.reliability.uniform_e, e.reliability.adjusted_e, e.conditionals)
            for e in cascades] == expected
    for e in cascades:
        assert (e.reliability.terminal, e.reliability.n) == (e.stats.terminal,
                                                            e.stats.cell_count)


@settings(deadline=None)
@given(shared_cone_workbooks())
@example(EXAMPLE)
def test_every_source_gives_a_cascade_one_form(wb):
    # A terminal alone, its group and the report give equal stats, and the
    # fold over a group of one gives the report's reliability to the bit.
    g = CellGraph(wb)
    report = analyze_workbook(wb)
    records = {m.address: m for m in report.cells}
    by_node = [records[c.address] for c in wb.iter_cells()]
    survive = survive_factors(by_node, range(len(by_node)), g.node_count)
    terminals = g.bottom_line_ids()
    grouped = {t: stats for group in g.cascade_groups(terminals)
               for t, _, stats in group.terminals}
    assert len(report.cascades) == len(terminals)
    for t, entry in zip(terminals, report.cascades):
        assert g.cascade_stats(t) == grouped[t] == entry.stats
        (rel,) = cascade_reliability(next(g.cascade_groups([t])), survive)
        assert rel == entry.reliability


@settings(deadline=None)
@given(shared_cone_workbooks(), st.integers(0, 120))
@example(EXAMPLE, 6)  # S!E5, the third terminal of the first group
def test_the_budget_names_the_first_cascade_past_it(wb, budget):
    # Charged one by one in canonical order, the first cascade past the budget.
    charged, want = 0, None
    for stats, *_ in expected_cascades(wb):
        charged += stats.cell_count
        if charged > budget:
            want = stats.terminal.render()
            break
    with mock.patch.object(report_module, "MAX_CASCADE_CELLS", budget):
        try:
            analyze_workbook(wb)
            got = None
        except CascadeBudgetError as error:
            assert error.limit == budget
            got = error.cell
    assert got == want
