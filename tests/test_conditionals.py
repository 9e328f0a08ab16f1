import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conditionals_oracle
from cellgauge import AnalysisConfig, analyze_workbook
from cellgauge.conditionals import (
    BetaConfig,
    ConditionalConstruct,
    all_complexities,
    cascade_finals,
    find_conditionals,
    finals_by_cell,
)
from cellgauge.errors import CycleError, DomainError
from cellgauge.formula import (
    AstNode,
    CellRefNode,
    FunctionCall,
    RangeRefNode,
    child_nodes,
    parse_formula,
)
from cellgauge.graph import CellGraph
from cellgauge.refs import CellRef, column_to_letters
from cellgauge.workbook import Cell, Workbook

from conftest import count_builds, make_graph, make_workbook


def discovered(sheets):
    wb, g = make_graph(sheets)
    constructs = find_conditionals(g)
    return wb, g, constructs


def by_cell(constructs, addr_text):
    hits = [c for c in constructs if c.cell.render() == addr_text]
    assert hits, f"no construct in {addr_text}"
    return hits


def enumerate_branch_selections(construct, constructs):
    """Oracle: materialize every root-to-conditionless-branch chain.

    A chain either ends at one of a construct's own conditionless value
    branches or descends into one of its nested/precedent constructs; the
    number of distinct chains is the number of logically disjunctive ways
    the construct's value can be produced.
    """
    registry = {c.id: c for c in constructs}
    chains = []

    def rec(cid, prefix):
        c = registry[cid]
        for branch in range(c.conditionless_branches):
            chains.append(prefix + [(cid, branch)])
        for sub in c.nested_or_precedent:
            rec(sub, prefix + [(cid, sub)])

    rec(construct.id, [])
    assert len(set(map(tuple, chains))) == len(chains)
    return chains


def naive_complexity(construct, constructs, beta=0.0):
    registry = {c.id: c for c in constructs}

    def rec(cid):
        c = registry[cid]
        base = sum(rec(i) for i in c.nested_or_precedent) + c.conditionless_branches
        return base ** (1.0 + beta) if beta else base

    return rec(construct.id)


# --- discovery ---------------------------------------------------------------


def test_simple_if_both_branches_data():
    wb, g, cs = discovered({"S": {
        "A1": 1, "B1": 2, "C1": 3, "D1": "=IF(A1>0, B1, C1)",
    }})
    (c,) = cs
    assert c.nested_or_precedent == ()
    assert c.conditionless_branches == 2
    assert c.is_final


def test_nested_if_in_branch():
    wb, g, cs = discovered({"S": {
        "A1": 1, "A2": 2, "D1": "=IF(A1>0, IF(A2>0,1,2), 5)",
    }})
    assert len(cs) == 2
    outer = next(c for c in cs if c.path == ())
    inner = next(c for c in cs if c.path != ())
    assert outer.nested_or_precedent == (inner.id,)
    assert outer.conditionless_branches == 1  # only the "5" branch
    assert inner.conditionless_branches == 2
    assert outer.is_final and not inner.is_final


def test_precedent_if_through_reference():
    wb, g, cs = discovered({"S": {
        "A1": 1, "B1": 2,
        "D1": "=IF(B1>0,1,2)",
        "E1": "=IF(A1>0, D1, 5)",
    }})
    outer = by_cell(cs, "S!E1")[0]
    inner = by_cell(cs, "S!D1")[0]
    assert outer.nested_or_precedent == (inner.id,)
    assert outer.conditionless_branches == 1
    assert outer.is_final and not inner.is_final


def test_reference_following_crosses_conditionless_cells():
    wb, g, cs = discovered({"S": {
        "Z1": "=IF(A9>0,1,2)",
        "Y1": "=Z1*2",          # conditionless hop
        "X1": "=IF(A1>0, Y1, 3)",
    }})
    outer = by_cell(cs, "S!X1")[0]
    inner = by_cell(cs, "S!Z1")[0]
    assert outer.nested_or_precedent == (inner.id,)
    assert outer.conditionless_branches == 1


def test_scan_stops_at_first_conditional():
    # W1 sits behind Z1's IF, so X1 must not see it directly.
    wb, g, cs = discovered({"S": {
        "W1": "=IF(B9>0,1,2)",
        "Z1": "=IF(A9>0,W1,2)",
        "X1": "=IF(A1>0, Z1, 3)",
    }})
    outer = by_cell(cs, "S!X1")[0]
    z = by_cell(cs, "S!Z1")[0]
    w = by_cell(cs, "S!W1")[0]
    assert outer.nested_or_precedent == (z.id,)
    assert z.nested_or_precedent == (w.id,)
    assert w.is_final is False and z.is_final is False and outer.is_final


def test_conditional_in_condition_counts_in_m_not_n():
    wb, g, cs = discovered({"S": {
        "D1": "=IF(A9>0,1,2)",
        "X1": "=IF(D1>0, 4, 5)",
    }})
    outer = by_cell(cs, "S!X1")[0]
    assert len(outer.nested_or_precedent) == 1
    assert outer.conditionless_branches == 2  # both value branches stay clean


def test_same_construct_in_both_branches_counts_once():
    wb, g, cs = discovered({"S": {
        "D1": "=IF(A9>0,1,2)",
        "X1": "=IF(A1>0, D1, D1+1)",
    }})
    outer = by_cell(cs, "S!X1")[0]
    assert len(outer.nested_or_precedent) == 1
    assert outer.conditionless_branches == 0


def test_range_references_are_followed():
    wb, g, cs = discovered({"S": {
        "D1": "=IF(A9>0,1,2)", "D2": 5,
        "X1": "=IF(A1>0, SUM(D1:D2), 9)",
    }})
    outer = by_cell(cs, "S!X1")[0]
    assert len(outer.nested_or_precedent) == 1
    assert outer.conditionless_branches == 1


def test_and_or_do_not_create_constructs():
    wb, g, cs = discovered({"S": {"X1": "=IF(AND(A1>0,B1<2), 1, 2)"}})
    assert len(cs) == 1


def test_cycle_propagates():
    wb, g = make_graph({"S": {"A1": "=IF(B1>0,1,2)", "B1": "=A1"}})
    with pytest.raises(CycleError):
        find_conditionals(g)


# --- discovery oracle: the naive per-argument scan ------------------------------


def _if_nodes(root: AstNode) -> list[tuple[tuple[int, ...], FunctionCall]]:
    """(path, node) of every IF call in a formula, in path order."""
    found = []
    stack: list[tuple[tuple[int, ...], AstNode]] = [((), root)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, FunctionCall) and node.name == "IF":
            found.append((path, node))
        children = child_nodes(node)
        for i in range(len(children) - 1, -1, -1):
            stack.append((path + (i,), children[i]))
    return sorted(found, key=lambda e: e[0])


def _scan_for_conditionals(
    start_cell: CellRef,
    start_node: AstNode,
    start_path: tuple[int, ...],
    wb: Workbook,
) -> set:
    """IF constructs reachable from an expression without crossing an IF.

    Follows cell and range references into formula cells; a cell is scanned
    at most once. Requires the reference graph to be acyclic.
    """
    found: set = set()
    visited_cells: set[tuple[str, int, int]] = set()
    stack: list[tuple[CellRef, tuple[int, ...], AstNode]] = [
        (start_cell, start_path, start_node)
    ]
    while stack:
        cell, path, node = stack.pop()
        if isinstance(node, FunctionCall) and node.name == "IF":
            found.add((cell.address(), path))
            continue  # that construct owns its own subtree
        if isinstance(node, (CellRefNode, RangeRefNode)):
            if isinstance(node, CellRefNode):
                targets = [node.ref]
            else:
                targets = list(node.ref.cells())
            sheet_name = targets[0].sheet or cell.sheet
            sheet = wb.sheet(sheet_name)
            if sheet is None:
                continue
            for t in targets:
                target_addr = CellRef(sheet.name, t.column, t.row)
                key = target_addr.key()
                if key in visited_cells:
                    continue
                visited_cells.add(key)
                target = wb.cell(target_addr)
                if target is not None and target.is_formula:
                    stack.append((target_addr, (), target.ast.root))
            continue
        for i, child in enumerate(child_nodes(node)):
            stack.append((cell, path + (i,), child))
    return found


def naive_discovery(wb):
    """{construct id: (M set, N, is_final)} from one scan per IF argument."""
    found = {}
    for cell in (c for c in wb.iter_cells() if c.is_formula):
        for path, node in _if_nodes(cell.ast.root):
            m_set, n = set(), 0
            for arg_idx, arg in enumerate(node.args):
                hits = _scan_for_conditionals(
                    cell.address, arg, path + (arg_idx,), wb)
                m_set |= hits
                if arg_idx > 0 and not hits:
                    n += 1
            m_set.discard((cell.address, path))
            found[(cell.address, path)] = (m_set, n)
    reached = set().union(*(m for m, _ in found.values()))
    return {cid: (m, n, cid not in reached) for cid, (m, n) in found.items()}


def assert_matches_naive(wb, g, label):
    constructs = find_conditionals(g)
    expected = naive_discovery(wb)
    sheet_idx = {s.name.casefold(): i for i, s in enumerate(wb.sheets)}

    def canonical(cid):
        return (sheet_idx[cid[0].sheet.casefold()], cid[0].row, cid[0].column, cid[1])

    assert [c.id for c in constructs] == sorted(expected, key=canonical), label
    for c in constructs:
        m, n, final = expected[c.id]
        got = (c.nested_or_precedent, c.conditionless_branches, c.is_final)
        assert got == (tuple(sorted(m, key=canonical)), n, final), (
            label, c.cell.render(), c.path)
    return constructs


SHEET_NAMES = ("Data", "Calc", "Out Sheet")
COLUMNS = "ABC"


def _sheet_prefix(rng, name):
    spelled = rng.choice((name, name.upper(), name.lower()))
    return f"'{spelled}'!" if " " in spelled else f"{spelled}!"


def _ref_text(rng, col, row):
    return (("$" if rng.random() < 0.3 else "") + COLUMNS[col]
            + ("$" if rng.random() < 0.3 else "") + str(row))


def random_conditional_workbook(seed):
    """A seeded acyclic multi-sheet workbook dense in IFs and references.

    A cell reads only earlier rows of its own sheet or any row of an earlier
    sheet, so the reference graph is acyclic. References are relative or
    absolute, cross-sheet ones spell the sheet name in a random case, a few
    name a missing sheet, and ranges span formula, data and empty cells.
    Every third seed adds a chain sheet: 10 IFs over the ends of two
    50-formula chains.
    """
    rng = random.Random(seed)
    names = SHEET_NAMES[:rng.randint(2, 3)]
    rows = rng.randint(3, 6)
    sheets: dict[str, dict[str, object]] = {name: {} for name in names}

    for s_idx, name in enumerate(names):
        for row in range(1, rows + 1):
            def reference():
                roll = rng.random()
                if roll < 0.05:
                    return "Nope!" + _ref_text(rng, rng.randrange(3), 1)
                if s_idx and (row == 1 or roll < 0.4):
                    other = names[rng.randrange(s_idx)]
                    return (_sheet_prefix(rng, other)
                            + _ref_text(rng, rng.randrange(3), rng.randint(1, rows)))
                return _ref_text(rng, rng.randrange(3), rng.randint(1, row - 1))

            def range_reference():
                c1, c2 = sorted((rng.randrange(3), rng.randrange(3)))
                roll = rng.random()
                if roll < 0.05:
                    return f"Nope!{COLUMNS[c1]}1:{COLUMNS[c2]}2"
                if s_idx and (row == 1 or roll < 0.4):
                    r1, r2 = sorted((rng.randint(1, rows), rng.randint(1, rows)))
                    prefix = _sheet_prefix(rng, names[rng.randrange(s_idx)])
                else:
                    r1, r2 = sorted((rng.randint(1, row - 1), rng.randint(1, row - 1)))
                    prefix = ""
                return (prefix + _ref_text(rng, c1, r1) + ":"
                        + _ref_text(rng, c2, r2))

            can_read = s_idx > 0 or row > 1

            def expr(depth):
                roll = rng.random()
                if depth <= 0 or roll < 0.3:
                    if can_read and rng.random() < 0.7:
                        return reference()
                    return str(rng.randint(1, 9))
                if roll < 0.6:
                    cond = expr(depth - 1) + ">" + str(rng.randint(0, 5))
                    if rng.random() < 0.2:
                        return f"IF({cond}, {expr(depth - 1)})"
                    return f"IF({cond}, {expr(depth - 1)}, {expr(depth - 1)})"
                if roll < 0.75 and can_read:
                    return f"SUM({range_reference()})"
                return f"{expr(depth - 1)}+{expr(depth - 1)}"

            for col in range(3):
                roll = rng.random()
                if roll < 0.15:
                    continue  # left empty
                ref = f"{COLUMNS[col]}{row}"
                if roll < 0.3:
                    sheets[name][ref] = rng.randint(1, 9)
                else:
                    sheets[name][ref] = "=" + expr(rng.randint(0, 3))

    if seed % 3 == 0:
        chain: dict[str, object] = {"A1": 1, "B1": 2}
        for r in range(2, 52):
            chain[f"A{r}"] = f"=A{r - 1}+{r % 9 + 1}"
            chain[f"B{r}"] = f"=B{r - 1}+{(r + 4) % 9 + 1}"
        for r in range(1, 11):
            chain[f"D{r}"] = f"=IF(A51>B51, A51-{r}, B51+{r})"
        chain["F1"] = "=SUM(D1:D10)"
        sheets["Chains"] = chain
    return sheets


def test_discovery_matches_naive_scan_on_random_workbooks():
    seen = {"constructs": 0, "non_final": 0, "cross_cell": 0,
            "cross_sheet": 0, "n_below_branches": 0, "dangling": 0}
    for seed in range(200):
        sheets = random_conditional_workbook(seed)
        wb, g = make_graph(sheets)
        assert not g.is_cyclic, seed
        constructs = assert_matches_naive(wb, g, seed)
        seen["constructs"] += len(constructs)
        seen["dangling"] += sum(
            "Nope!" in c for s in sheets.values() for c in s.values()
            if isinstance(c, str))
        for c in constructs:
            seen["non_final"] += not c.is_final
            seen["cross_cell"] += any(m[0] != c.cell for m in c.nested_or_precedent)
            seen["cross_sheet"] += any(
                m[0].sheet != c.cell.sheet for m in c.nested_or_precedent)
            seen["n_below_branches"] += c.conditionless_branches < 2
    # The corpus really exercises nesting, reference following and misses.
    assert seen["constructs"] > 2000, seen
    assert min(seen.values()) > 50, seen


# --- complexity ---------------------------------------------------------------


def test_single_if_two_branches():
    wb, g, cs = discovered({"S": {"X1": "=IF(A1>0, B1, C1)"}})
    assert all_complexities(cs, BetaConfig(0.0))[0] == 2


def test_nested_complexity_beta_zero():
    wb, g, cs = discovered({"S": {
        "A1": 1, "A2": 2, "D1": "=IF(A1>0, IF(A2>0,1,2), 5)",
    }})
    outer = next(c for c in cs if c.path == ())
    assert all_complexities(cs, BetaConfig(0.0))[cs.index(outer)] == 3
    assert len(enumerate_branch_selections(outer, cs)) == 3


def test_nested_complexity_with_beta():
    wb, g, cs = discovered({"S": {
        "A1": 1, "A2": 2, "D1": "=IF(A1>0, IF(A2>0,1,2), 5)",
    }})
    outer = next(c for c in cs if c.path == ())
    # Bottom-up: the inner construct's own complexity carries the exponent,
    # then the outer base (that value plus one clean branch) carries it too.
    expected = (2.0 ** 1.1 + 1.0) ** 1.1
    got = all_complexities(cs, BetaConfig(0.1))[cs.index(outer)]
    assert got == pytest.approx(expected, abs=1e-9)


ORACLE_FIXTURES = [
    {"X1": "=IF(A1>0, 1, 2)"},
    {"X1": "=IF(A1>0, IF(A2>0,1,2), 5)"},
    {"D1": "=IF(B1>0,1,2)", "X1": "=IF(A1>0, D1, 5)"},
    {"X1": "=IF(a1,IF(b1,IF(c1,IF(d1,1,2),3),4),5)"},
    {"Z1": "=IF(c1,1,2)", "Y1": "=IF(c1,Z1,2)", "X1": "=IF(c1,Y1,1)"},
    {"D1": "=IF(A9>0,1,2)", "X1": "=IF(D1>0, 4, 5)"},
    {"D1": "=IF(A9>0,1,2)", "X1": "=IF(A1>0, D1, D1+1)"},
    {"D1": "=IF(A9>0,1,2)", "E1": "=IF(B9>0,3,4)", "X1": "=IF(A1>0, D1, E1)"},
    {"X1": "=IF(c1, 1+IF(d1,1,2), 7)"},
    {"Z1": "=B9*2", "X1": "=IF(c1, Z1, 3)"},
    {"Z1": "=IF(b9,1,2)", "Y1": "=Z1*2", "X1": "=IF(c1, Y1, 3)"},
    {"D1": "=IF(A9>0,1,2)", "D2": 5, "X1": "=IF(A1>0, SUM(D1:D2), 9)"},
]


@pytest.mark.parametrize("cells", ORACLE_FIXTURES)
def test_discovery_matches_naive_scan_on_fixtures(cells):
    wb, g = make_graph({"S": cells})
    assert_matches_naive(wb, g, cells)


@pytest.mark.parametrize("cells", ORACLE_FIXTURES)
def test_branch_count_oracle(cells):
    wb, g, cs = discovered({"S": cells})
    complexity = all_complexities(cs, BetaConfig(0.0))
    for k, c in enumerate(cs):
        expected = len(enumerate_branch_selections(c, cs))
        assert complexity[k] == expected


@pytest.mark.parametrize("cells", ORACLE_FIXTURES)
@pytest.mark.parametrize("beta", [0.0, 0.05, 0.1, 0.3])
def test_memoized_equals_naive(cells, beta):
    wb, g, cs = discovered({"S": cells})
    complexity = all_complexities(cs, BetaConfig(beta))
    for k, c in enumerate(cs):
        assert complexity[k] == pytest.approx(naive_complexity(c, cs, beta), rel=1e-12)


@pytest.mark.parametrize("cells", ORACLE_FIXTURES)
def test_monotone_in_beta(cells):
    wb, g, cs = discovered({"S": cells})
    by_beta = [all_complexities(cs, BetaConfig(b)) for b in (0.0, 0.1, 0.2, 0.4)]
    for k in range(len(cs)):
        values = [complexity[k] for complexity in by_beta]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_composition_swap_branch_for_unit_conditional():
    # Replacing a conditionless branch with a single-branch conditional
    # (complexity 1) leaves the total unchanged at beta = 0.
    wb1, g1, cs1 = discovered({"S": {"X1": "=IF(c1, A1, B1)"}})
    base = all_complexities(cs1, BetaConfig(0.0))[0]
    wb2, g2, cs2 = discovered({"S": {
        "D1": "=IF(c2, A1)",  # one value branch only
        "X1": "=IF(c1, D1, B1)",
    }})
    outer = by_cell(cs2, "S!X1")[0]
    assert all_complexities(cs2, BetaConfig(0.0))[cs2.index(outer)] == base == 2


def downward_if_chain(length):
    """A{r} = IF(A{r+1}>0, A{r+1}+1, 0) for r = 1..length, over data below."""
    cells = {f"A{r}": f"=IF(A{r + 1}>0,A{r + 1}+1,0)" for r in range(1, length + 1)}
    cells[f"A{length + 1}"] = 1
    return {"S": cells}


def test_long_downward_chain_needs_no_recursion():
    # Canonical order starts at the chain's top, which reads 2,999 IFs deep.
    sheets = downward_if_chain(3000)
    wb, g, cs = discovered(sheets)
    complexity = all_complexities(cs, BetaConfig(0.0))
    finals = [(k, c) for k, c in enumerate(cs) if c.is_final]
    assert [(c.cell.render(), complexity[k]) for k, c in finals] == [("S!A1", 3001)]

    report = analyze_workbook(make_workbook(sheets), AnalysisConfig())
    (cascade,) = report.cascades
    assert [(c.cell.render(), o) for c, o in cascade.conditionals] == [("S!A1", 3001)]


def test_complexity_of_each_construct_by_position():
    # An IF with no M set has complexity N^(1+beta); one with an M set adds
    # its members' complexities to N.
    wb, g, cs = discovered({"S": {"A1": 1, "D1": "=IF(A1>0, IF(A1>1,1,2), 5)"}})
    outer, inner = cs
    assert not inner.nested_or_precedent and outer.nested_or_precedent == (inner.id,)
    assert all_complexities(cs, BetaConfig(0.0)) == [3, 2]
    assert all_complexities(cs, BetaConfig(0.5))[1] == 2 ** 1.5


def test_constructs_slice_to_lists():
    wb, g, cs = discovered({"S": {"A1": 1, "D1": "=IF(A1>0, IF(A1>1,1,2), 5)"}})
    assert cs[0:1] == [cs[0]]
    assert cs[::-1] == [cs[1], cs[0]] == list(reversed(cs))
    assert cs[5:] == []


def test_beta_config_validation():
    with pytest.raises(DomainError):
        BetaConfig(-0.1)


# --- cascade report ---------------------------------------------------------------


def test_cascade_report_single_if():
    wb, g, cs = discovered({"S": {"X1": "=IF(A1>0, B1, C1)"}})
    cx = all_complexities(cs, BetaConfig())
    report = [(cs[k], cx[k]) for k in cascade_finals(g.member_ids("S!X1"), finals_by_cell(cs))]
    assert [(c.cell.render(), o) for c, o in report] == [("S!X1", 2)]


def test_cascade_report_no_conditionals():
    wb, g = make_graph({"S": {"A1": 1, "B1": "=A1*2"}})
    cs = find_conditionals(g)
    assert cascade_finals(g.member_ids("S!B1"), finals_by_cell(cs)) == []


def test_cascade_report_chained():
    wb, g, cs = discovered({"S": {
        "A1": 1, "B1": 2,
        "D1": "=IF(B1>0,1,2)",
        "E1": "=IF(A1>0, D1, 5)",
    }})
    cx = all_complexities(cs, BetaConfig())
    report = [(cs[k], cx[k]) for k in cascade_finals(g.member_ids("S!E1"), finals_by_cell(cs))]
    assert [(c.cell.render(), o) for c, o in report] == [("S!E1", 3)]


def test_cascade_report_only_members():
    wb, g, cs = discovered({"S": {
        "X1": "=IF(A1>0, 1, 2)",
        "Y5": "=IF(B1>0, 3, 4)",
    }})
    report = [cs[k] for k in cascade_finals(g.member_ids("S!X1"), finals_by_cell(cs))]
    assert [c.cell.render() for c in report] == ["S!X1"]


def test_cascade_conditionals_keep_construct_order():
    # Each cascade lists the final constructs of its members in construct
    # order, as the filter over every final construct did; the report and
    # the finals of each terminal's members agree.
    checked = 0
    for seed in range(120):
        sheets = random_conditional_workbook(seed)
        wb, g, cs = discovered(sheets)
        complexity = all_complexities(cs, BetaConfig(0.0))
        finals = finals_by_cell(cs)
        report = analyze_workbook(wb, AnalysisConfig())
        for entry in report.cascades:
            member_ids = g.member_ids(entry.stats.terminal)
            members = {a.key() for a in g.locations(member_ids)}
            expected = [(c, complexity[k]) for k, c in enumerate(cs)
                        if c.is_final and c.cell.key() in members]
            assert list(entry.conditionals) == expected, seed
            assert [(cs[k], complexity[k])
                    for k in cascade_finals(member_ids, finals)] == expected
            checked += len(expected) > 1
    assert checked > 50


def _lines_run(fn, modules):
    """Lines executed inside ``modules`` while ``fn()`` runs."""
    files = {m.__file__ for m in modules}
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(old)
    return count


def test_cascade_conditionals_work_is_linear_in_terminals():
    # N independent IF terminals, each its own cascade with one final
    # construct: choosing each cascade's constructs must not scan all of
    # them, so doubling N at most about doubles the work.
    from cellgauge import conditionals, report

    def work(n):
        wb = make_workbook({"S": {"A1": 1, **{f"B{r}": "=IF(A1>0,1,2)" for r in range(1, n + 1)}}})
        return _lines_run(lambda: analyze_workbook(wb, AnalysisConfig()), (report, conditionals))

    small, large = work(500), work(1000)
    assert large < 2.2 * small, (small, large)


def test_frontier_work_is_linear_in_ifs_reading_a_chain():
    # N IFs each read the end of an N-formula chain without IFs: the chain's
    # frontiers are computed once, not rescanned per IF, so doubling N at
    # most about doubles the work.
    from cellgauge import conditionals, graph

    def work(n):
        wb, g = make_graph({"S": {
            "A1": 1,
            "B1": "=A1+1",
            **{f"B{r}": f"=B{r - 1}+1" for r in range(2, n + 1)},
            **{f"C{r}": f"=IF(B{n}>0,1,2)" for r in range(1, n + 1)},
        }})
        return _lines_run(lambda: find_conditionals(g), (conditionals, graph))

    small, large = work(300), work(600)
    assert large < 2.2 * small, (small, large)


def test_frontier_work_does_not_grow_with_an_unrelated_range():
    # One IF beside a SUM over a half-empty rectangle 26 columns wide: no
    # frontier is computed for the SUM, which is downstream of no IF, so
    # finding conditionals does the same work at 250 rows as at 2,500.
    from cellgauge import conditionals, graph

    def work(rows):
        wb, g = make_graph({"S": {
            **{f"{column_to_letters(c)}{r}": float(r)
               for r in range(1, rows + 1) for c in range(1, 27) if (c + r) % 2},
            "AB1": f"=SUM(A1:Z{rows})",
            "AC1": "=IF(A1>0,1,2)",
        }})
        return _lines_run(lambda: find_conditionals(g), (conditionals, graph))

    small, large = work(250), work(2_500)
    assert large < 1.1 * small, (small, large)


def if_fed_chain(n, **columns):
    """IFs A{k} = IF(C$1>0,1,2) feed a chain B{k} = A{k} + B{k-1}, whose end
    D1's IF reads; each other column named holds its formula template,
    formatted with k, in rows 2..n."""
    cells = {"C1": 1, "D1": f"=IF(B{n}>0,1,0)", "B1": "=A1"}
    cells.update({f"A{k}": "=IF(C$1>0,1,2)" for k in range(1, n + 1)})
    cells.update({f"B{k}": f"=A{k}+B{k - 1}" for k in range(2, n + 1)})
    for column, template in columns.items():
        cells.update({f"{column}{k}": template.format(k=k) for k in range(2, n + 1)})
    return {"S": cells}


@pytest.mark.parametrize("columns", [{}, {"F": "=A{k}+B{k}"}], ids=["chain", "unread"])
def test_frontier_memory_is_linear_in_an_if_fed_chain(columns):
    # Each B{k}'s frontier holds k IFs, and so does each F{k}, which no cell
    # reads. Holding every one until discovery returned traced 88 MB at
    # n = 2,000; each is now dropped after its last reader.
    import tracemalloc

    n = 2000
    wb, g = make_graph(if_fed_chain(n, **columns))
    tracemalloc.start()
    try:
        found = find_conditionals(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak
    d1 = list(found.cells).index(CellRef("S", 4, 1))
    assert found.nested[d1] == [found.nodes.index(g.node_id(f"S!A{k}")) for k in range(1, n + 1)]


# --- IF layouts per shape ----------------------------------------------------------

# The per-formula walk conditional discovery ran on every formula's AST
# before shapes carried the IF layout, kept verbatim as the oracle.
ConstructId = tuple[CellRef, tuple[int, ...]]
_Reach = tuple[list[ConstructId], list[int]]
_Ifs = list[tuple[tuple[int, ...], list[_Reach]]]


def _walk_formula(cell: Cell) -> tuple[_Reach, _Ifs]:
    """One pass over a formula: its own reach and its IF calls. The pass is
    pre-order, so references are numbered in ``walk`` order, as the graph
    lists their targets."""
    addr = cell.address
    own: _Reach = ([], [])
    ifs: _Ifs = []
    ordinal = 0
    stack = [((), cell.ast.root, own)]
    while stack:
        path, node, reach = stack.pop()
        if isinstance(node, FunctionCall) and node.name == "IF":
            reach[0].append((addr, path))  # that construct owns its own subtree
            args: list[_Reach] = [([], []) for _ in node.args]
            ifs.append((path, args))
            for i in range(len(args) - 1, -1, -1):
                stack.append((path + (i,), node.args[i], args[i]))
        elif isinstance(node, (CellRefNode, RangeRefNode)):
            reach[1].append(ordinal)
            ordinal += 1
        else:
            children = child_nodes(node)
            for i in range(len(children) - 1, -1, -1):
                stack.append((path + (i,), children[i], reach))
    return own, ifs


def paired_layout(cell):
    """A formula cell's shape's IF layout paired with its address, in the
    form ``_walk_formula`` returns: each IF index read as its path."""
    addr = cell.address

    def reach(r):
        return [(addr, cell.shape.ifs[k][0]) for k in r[0]], list(r[1])

    return reach(cell.shape.if_reach), [
        (path, [reach(arg) for arg in args]) for path, args in cell.shape.ifs]


def assert_layouts_match_own_parse(wb):
    """Returns the number of IF calls checked."""
    checked = 0
    for cell in (c for c in wb.iter_cells() if c.is_formula):
        parsed = SimpleNamespace(address=cell.address, ast=parse_formula(cell.source))
        expected = _walk_formula(parsed)
        assert paired_layout(cell) == expected, cell.source
        checked += len(expected[1])
    return checked


@pytest.mark.parametrize("cells", ORACLE_FIXTURES)
def test_shape_if_layout_matches_walk_on_fixtures(cells):
    assert assert_layouts_match_own_parse(make_workbook({"S": cells})) > 0


def test_shape_if_layout_matches_walk_on_random_workbooks():
    checked = copies = 0
    for seed in range(200):
        wb = make_workbook(random_conditional_workbook(seed))
        checked += assert_layouts_match_own_parse(wb)
        # A copy is a formula cell its shape was not built from.
        shapes = [c.shape for c in wb.iter_cells() if c.is_formula]
        copies += len(shapes) - len(set(map(id, shapes)))
    assert checked > 2000 and copies > 500, (checked, copies)


# --- against discovery and complexity before positions ----------------------------


def assert_finished_order(cs):
    """``cs.order`` lists every position once, each after its M set."""
    order = list(cs.order)
    assert sorted(order) == list(range(len(cs)))
    done = [False] * len(cs)
    for k in order:
        assert all(done[j] for j in cs.nested[k]), k
        done[k] = True


def assert_matches_oracle(wb, g):
    """Every construct field and the (id, complexity) pairs at beta 0 and
    0.5 equal those of the code in ``conditionals_oracle``, by position, or
    both raise CycleError. Returns the constructs found."""
    try:
        want = conditionals_oracle.find_conditionals(wb, g)
    except CycleError:
        with pytest.raises(CycleError):
            find_conditionals(g)
        return []
    got = find_conditionals(g)
    assert len(got) == len(want)
    for c, w in zip(got, want):
        assert (c.cell, c.path, c.nested_or_precedent, c.conditionless_branches,
                c.is_final, c.node) == (w.cell, w.path, w.nested_or_precedent,
                                        w.conditionless_branches, w.is_final, w.node)
    assert_finished_order(got)
    ids = [c.id for c in got]
    for beta in (0.0, 0.5):
        expected = list(conditionals_oracle.all_complexities(want, BetaConfig(beta)).items())
        assert list(zip(ids, all_complexities(got, BetaConfig(beta)))) == expected
    return want


def test_constructs_match_the_oracle_on_random_workbooks():
    constructs = non_final = 0
    for seed in range(120):
        wb, g = make_graph(random_conditional_workbook(seed))
        found = assert_matches_oracle(wb, g)
        constructs += len(found)
        non_final += sum(not c.is_final for c in found)
    assert constructs > 1000 and non_final > 200, (constructs, non_final)


# IFs with an M set of zero, one, two and three constructs, and a chain in
# which each IF nests the one above it.
NESTED_IFS = {
    "Z1": 5,
    "A1": "=IF(Z1>0,1,2)",                         # none nested, N = 2
    "B1": "=IF(A1>0,A1,3)",                        # one nested, N = 1
    "B2": "=IF(Z1>0,A1,A1)",                       # one nested, N = 0
    "B3": "=IF(B1>0,B2,B1)",                       # two nested, N = 0
    "C1": "=IF(B3>0,IF(A1>0,1,2),IF(B2>0,B1,4))",  # three nested, N = 0
    **{f"D{k}": f"=IF(D{k - 1}>0,D{k - 1},{k})" for k in range(2, 7)},
    "D1": "=IF(C1>0,7,C1)",
}


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_complexities_match_the_oracle_for_zero_one_and_several_nested(beta):
    # Values and their types: an M set of zero or one construct is read
    # without a sum, and must still give what the sum gave, int or float.
    wb, g = make_graph({"S": NESTED_IFS})
    got = find_conditionals(g)
    assert {len(m) for m in got.nested} == {0, 1, 2, 3}
    want = conditionals_oracle.all_complexities(
        conditionals_oracle.find_conditionals(wb, g), BetaConfig(beta))
    values = all_complexities(got, BetaConfig(beta))
    assert [(c.id, v, type(v)) for c, v in zip(got, values)] == [
        (i, v, type(v)) for i, v in want.items()]


IF_REFS = st.sampled_from(
    ["A1", "A2", "$B$1", "B2", "C3", "T!A1", "'T'!B2", "t!C3", "Nope!A1"])
IF_RANGES = st.sampled_from(["A1:A3", "A1:C3", "B$1:B2", "T!A1:B2", "Nope!A1:A2"])
IF_EXPRS = st.recursive(
    st.one_of(st.integers(0, 9).map(str), IF_REFS, IF_RANGES.map("SUM({})".format)),
    lambda inner: st.one_of(
        st.builds("IF({}>0,{},{})".format, inner, inner, inner),
        st.builds("IF({},{})".format, inner, inner),
        st.builds("{}+{}".format, inner, inner),
        st.builds("MAX({},{})".format, inner, inner)),
    max_leaves=10)
IF_CELLS = st.dictionaries(
    st.sampled_from(["A1", "A2", "A3", "B1", "B2", "C3"]),
    st.one_of(st.integers(0, 9), IF_EXPRS.map("={}".format)), max_size=6)


@given(st.fixed_dictionaries({"S": IF_CELLS, "T": IF_CELLS}))
@example({"S": {"A1": "=IF(IF(A2>0,1,2)>0,IF(B1>0,A2,IF(B2,3)),IF(C3>0,T!A1))",
                "A2": "=IF(SUM(T!A1:B2)>0,SUM(A3:B3),Nope!A1)",
                "B1": "=IF(A2,IF(A2,1,2),A2)+IF(T!A1>0,2)", "B2": 4},
          "T": {"A1": "=IF(A2>0,1,2)+IF(A2,A2)", "A2": 3}})
@settings(deadline=None)
def test_constructs_match_the_oracle_with_several_ifs_per_formula(sheets):
    assert_matches_oracle(*make_graph(sheets))


@pytest.mark.parametrize("sheets", [
    # IFs over ranges of IF cells, some read twice.
    {"S": {"A1": "=IF(B9>0,1,2)", "A2": "=IF(A1>0,A1,3)", "A3": 5,
           "B1": "=IF(SUM(A1:A3)>0,MAX(A1:A2),SUM(A2:A3))", "C1": "=IF(B1,SUM(A1:B1))"}},
    # Cross-sheet references in any case, and a missing sheet.
    {"S": {"A1": "=IF(T!A1>0,Nope!A1,'my t'!B1)", "B1": "=IF(SUM(t!A1:B2)>0,1)"},
     "T": {"A1": "=IF(A2>0,A2,2)", "A2": 1, "B2": "=IF('My T'!B1,1,2)"},
     "My T": {"B1": "=IF(Nope!B1:B2,T!A1)"}},
    downward_if_chain(3000),
    # Frontiers of more than four IFs, some shared, each read by IFs.
    if_fed_chain(12, C="=B{k}*2", E="=IF(B{k}>0,A{k},0)", H="=IF(C{k}>0,1,2)"),
])
def test_constructs_match_the_oracle_on_fixtures(sheets):
    assert assert_matches_oracle(*make_graph(sheets))


def test_a_cycle_raises_as_in_the_oracle():
    wb, g = make_graph({"S": {"A1": "=IF(B1>0,1,2)", "B1": "=IF(A1,1)"}})
    assert assert_matches_oracle(wb, g) == []


def test_the_audit_builds_objects_only_for_listed_constructs(monkeypatch):
    # A single IF chain lists one final construct however long it is, so the
    # audit builds the same addresses and constructs at 300 cells as at 3,000.
    counts = count_builds(monkeypatch, CellRef, ConditionalConstruct)
    counts["address_of"] = 0
    address_of = CellGraph.address_of

    def counting(*args):
        counts["address_of"] += 1
        return address_of(*args)

    monkeypatch.setattr(CellGraph, "address_of", counting)

    def work(n):
        wb = make_workbook(downward_if_chain(n))
        counts.update(dict.fromkeys(counts, 0))
        report = analyze_workbook(wb, AnalysisConfig())
        (cascade,) = report.cascades
        assert [(c.cell.render(), o) for c, o in cascade.conditionals] == [("S!A1", n + 1)]
        return dict(counts)

    small, large = work(300), work(3_000)
    assert small == large, (small, large)
    assert small[ConditionalConstruct] == 1
