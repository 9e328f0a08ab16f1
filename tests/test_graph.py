import random
import warnings
from fractions import Fraction

import pytest

from cellgauge.errors import (
    CycleError,
    LimitExceededError,
    NotBottomLineWarning,
    UnknownCellError,
)
from cellgauge.report import analyze_workbook
from conftest import make_graph


def test_duplicate_reference_multi_edge():
    wb, g = make_graph({"S": {"A1": 1, "B1": "=A1+A1"}})
    assert g.fan_in("S!B1") == 2
    assert g.fan_out("S!A1") == 2
    assert g.edge_count == 2


def test_three_cycle_detected():
    wb, g = make_graph({"S": {"A1": "=C1", "B1": "=A1", "C1": "=B1"}})
    assert g.is_cyclic
    assert len(g.cycles) == 1
    assert {a.render() for a in g.cycles[0]} == {"S!A1", "S!B1", "S!C1"}
    with pytest.raises(CycleError):
        g.reachability("S!A1")
    with pytest.raises(CycleError):
        g.cascade_stats("S!A1")
    with pytest.raises(CycleError):
        g.enumerate_paths("S!A1")
    with pytest.raises(CycleError):
        g.topological_order()


def test_self_reference_cycle():
    wb, g = make_graph({"S": {"A1": "=A1+1"}})
    assert g.is_cyclic
    assert [a.render() for a in g.cycles[0]] == ["S!A1"]


def test_cycle_search_work_does_not_grow_with_cells_off_the_cycle():
    # Tarjan's pass visited every node and arc to find a two-cell cycle;
    # the search now walks only the nodes Kahn's pass leaves.
    from cellgauge import graph
    from test_conditionals import _lines_run

    def work(n):
        cells = {"A1": "=B1", "B1": "=A1+1"}
        cells.update((f"C{r}", f"=D{r}*2") for r in range(1, n + 1))
        wb, g = make_graph({"S": cells})
        assert [[a.render() for a in cyc] for cyc in g.cycles] == [["S!A1", "S!B1"]]
        return _lines_run(g._find_cycles, (graph,))

    small, large = work(1000), work(2000)
    assert large <= small, (small, large)


def test_data_only_workbook():
    wb, g = make_graph({"S": {"A1": 1, "B2": 2}})
    assert g.node_count == 2 and g.edge_count == 0
    assert not g.is_cyclic
    assert g.bottom_line_cells() == []


def test_chain_degrees(chain_graph):
    wb, g = chain_graph
    assert g.fan_in("Sheet1!C1") == 1 and g.fan_out("Sheet1!C1") == 0
    assert g.fan_in("Sheet1!A1") == 0 and g.fan_out("Sheet1!A1") == 1
    assert [a.render() for a in g.bottom_line_cells()] == ["Sheet1!C1"]
    assert [a.render() for a in g.input_cells()] == ["Sheet1!A1"]


def test_diamond_fan_in(diamond_graph):
    wb, g = diamond_graph
    assert g.fan_in("Sheet1!C1") == 2


def test_unknown_cell():
    wb, g = make_graph({"S": {"A1": 1}})
    with pytest.raises(UnknownCellError):
        g.fan_in("S!Z99")


def test_empty_referenced_cell_materialized():
    wb, g = make_graph({"S": {"B1": "=A1*2"}})
    assert g.has_cell("S!A1")
    assert g.fan_in("S!A1") == 0
    assert [a.render() for a in g.materialized_cells()] == ["S!A1"]
    # The report, not the graph, gives the materialized cell its warning.
    warned = [(w.code, w.address) for w in analyze_workbook(wb).warnings]
    assert warned == [("W003", "S!A1")]


def test_reachability_of_inputs_is_one(diamond_graph):
    wb, g = diamond_graph
    assert g.reachability("Sheet1!A1") == 1


def test_reachability_diamond(diamond_graph):
    wb, g = diamond_graph
    # Oracle: enumerate every arc sequence from the source to the terminal.
    assert len(g.enumerate_paths("Sheet1!C1")) == 2
    assert g.reachability("Sheet1!C1") == 2


def test_reachability_chain(chain_graph):
    wb, g = chain_graph
    assert g.reachability("Sheet1!C1") == 1


def test_cascade_stats_chain(chain_graph):
    wb, g = chain_graph
    st = g.cascade_stats("Sheet1!C1")
    assert st.total_paths == 1
    assert st.max_path_length == 3
    assert st.avg_path_length == Fraction(3)
    assert st.cell_count == 3


def test_cascade_stats_diamond(diamond_graph):
    wb, g = diamond_graph
    st = g.cascade_stats("Sheet1!C1")
    assert st.total_paths == 2
    assert st.avg_reachability == Fraction(1 + 1 + 1 + 2, 4)
    assert st.avg_path_length == Fraction(3)
    assert st.max_path_length == 3
    assert [a.render() for a in g.input_cells()] == ["Sheet1!A1"]


def test_cascade_on_non_terminal_warns(chain_graph):
    wb, g = chain_graph
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        st = g.cascade_stats("Sheet1!B1")
    assert any(issubclass(w.category, NotBottomLineWarning) for w in caught)
    assert st.cell_count == 2


def test_enumerate_paths_diamond(diamond_graph):
    wb, g = diamond_graph
    paths = [[a.render(include_sheet=False) for a in p]
             for p in g.enumerate_paths("Sheet1!C1")]
    assert sorted(paths) == [["A1", "B1", "C1"], ["A1", "B2", "C1"]]


def test_enumerate_paths_limit(diamond_graph):
    wb, g = diamond_graph
    with pytest.raises(LimitExceededError):
        g.enumerate_paths("Sheet1!C1", limit=1)


def test_handshake_lemma(diamond_graph):
    wb, g = diamond_graph
    total_in = sum(g.fan_in(a) for a in g.nodes())
    total_out = sum(g.fan_out(a) for a in g.nodes())
    assert total_in == total_out == g.edge_count


def test_edge_count_excludes_dangling():
    wb, g = make_graph({"S": {"A1": "=Missing!B1+A2"}})
    assert g.edge_count == 1  # the Missing! arc is dropped, A2 survives
    assert g.has_cell("S!A2") and not g.has_cell("Missing!B1")


def test_reference_targets_one_list_per_reference():
    wb, g = make_graph({
        "S": {"A1": 1, "B2": "=A1*2",
              "C1": "=A1+SUM(A1:B2)+Missing!A1+t!A1+A1"},
        "T": {"A1": "=S!B2"},
    })
    targets = g.reference_targets("S!C1")
    assert [[g.address_of(i).render() for i in t] for t in targets] == [
        ["S!A1"], ["S!A1", "S!B1", "S!A2", "S!B2"], [], ["T!A1"], ["S!A1"]]
    assert [g.workbook.cell(g.address_of(t[0])).is_formula for t in targets if t] == [
        False, False, True, False]
    assert g.reference_targets("S!A1") == []


def test_graph_build_deterministic():
    sheets = {"S": {
        "A1": 1, "A2": 2, "B1": "=A1+A2", "B2": "=SUM(A1:A2)", "C1": "=B1*B2",
    }}
    _, g1 = make_graph(sheets)
    _, g2 = make_graph(sheets)
    assert [a.key() for a in g1.nodes()] == [a.key() for a in g2.nodes()]
    assert g1.edge_count == g2.edge_count
    assert g1.enumerate_paths("S!C1") == g2.enumerate_paths("S!C1")


# --- randomized oracle equivalence ---------------------------------------------


def random_dag_workbook(rng, max_nodes=12, max_multiplicity=3):
    """A random acyclic workbook over one column of cells.

    Node i is cell A(i+1); edges only point from lower to higher indices,
    each with multiplicity 1..max_multiplicity, so the graph is a DAG by
    construction.
    """
    n = rng.randint(2, max_nodes)
    cells = {}
    for j in range(n):
        terms = []
        for i in range(j):
            if rng.random() < 0.35:
                terms.extend([f"A{i + 1}"] * rng.randint(1, max_multiplicity))
        if terms:
            cells[f"A{j + 1}"] = "=" + "+".join(terms)
        else:
            cells[f"A{j + 1}"] = float(j)
    return make_graph({"S": cells})


def oracle_stats(paths):
    """Path statistics computed directly from an enumerated path list."""
    lengths = [len(p) for p in paths]
    return (
        len(paths),
        Fraction(sum(lengths), len(paths)),
        max(lengths),
    )


def test_reachability_matches_enumeration_on_random_dags():
    # Every node, not only terminals: a cell's statistics depend only on its
    # ancestors, which is what lets one global pass serve every cascade.
    rng = random.Random(20240811)
    checked = terminals = 0
    for _ in range(200):
        wb, g = random_dag_workbook(rng)
        order = g.topological_order()  # every node once, after what it reads
        position = {v: k for k, v in enumerate(order)}
        assert sorted(order) == list(range(g.node_count))
        assert all(position[p] < position[v] for v in order for p in g.precedent_ids(v))
        bottom = {a.key() for a in g.bottom_line_cells()}
        for t in g.nodes():
            paths = g.enumerate_paths(t, limit=500_000)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NotBottomLineWarning)
                st = g.cascade_stats(t)
            count, avg_len, max_len = oracle_stats(paths)
            assert g.reachability(t) == count
            assert st.total_paths == count
            assert st.avg_path_length == avg_len
            assert st.max_path_length == max_len
            members = {a.key() for p in paths for a in p}
            member_ids = g.member_ids(t)
            assert members == {g.address_of(i).key() for i in member_ids}
            assert g.cascade_members(t) == [g.address_of(i) for i in member_ids]
            assert st.cell_count == len(members)
            # Within-cascade reachability sums over members.
            reach_sum = sum(g.reachability(i) for i in member_ids)
            assert st.avg_reachability == Fraction(reach_sum, st.cell_count)
            checked += 1
            terminals += t.key() in bottom
    assert terminals > 150 and checked > 1000


# Fan-ins from one to a range, duplicates included: each cell's longest
# precedent path sits first, in the middle or last among its reads.
FAN_IN_CELLS = {
    **{f"A{r}": float(r) for r in range(1, 31)},
    "B1": "=A1",                      # 1 precedent
    "B2": "=B1+B1*B1",                # 3, one cell read three times
    "B3": "=B2+B2+B2",                # 3 again, down a chain
    "B4": "=A2+B3+A3*B2",             # 4 distinct, longest second
    "B5": "=A4+B1+B4+A5+B2",          # 5 with the longest in the middle
    "B6": "=B5+A1",                   # 2, longest first
    "B7": "=A6+A7+A8+B6",             # 4, longest last
    "B8": "=B7+B7+B2+B7+B7+B3",       # 6 with repeats around shorter reads
    "B9": "=SUM(A1:A30)+B8",          # 31: a range, then the longest
    "B10": "=SUM(A1:C3)*B9",          # a range over the chain and empty cells
}


@pytest.mark.parametrize("cell, fan_in", [
    ("B1", 1), ("B2", 3), ("B3", 3), ("B4", 4), ("B5", 5), ("B6", 2), ("B7", 4),
    ("B8", 6), ("B9", 31), ("B10", 10)])
def test_path_statistics_match_enumeration_at_each_fan_in(cell, fan_in):
    # Every precedent counts in the path count, the summed path length and
    # the longest path, whether a cell reads one cell, the same cell three
    # times or a range.
    wb, g = make_graph({"S": FAN_IN_CELLS})
    addr = f"S!{cell}"
    assert g.fan_in(addr) == fan_in
    count, avg_len, max_len = oracle_stats(g.enumerate_paths(addr))
    assert g.reachability(addr) == count
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotBottomLineWarning)
        st = g.cascade_stats(addr)
    assert (st.total_paths, st.avg_path_length, st.max_path_length) == (
        count, avg_len, max_len)


def test_reachability_at_least_one_and_terminal_dominates():
    rng = random.Random(7)
    for _ in range(40):
        wb, g = random_dag_workbook(rng)
        for a in g.nodes():
            assert g.reachability(a) >= 1
        for t in g.bottom_line_cells():
            best_pred = max(
                (g.reachability(p[-2]) for p in g.enumerate_paths(t, limit=500_000)
                 if len(p) >= 2),
                default=0,
            )
            assert g.reachability(t) >= best_pred


def test_adding_edge_never_decreases_reachability():
    base = {"A1": 1.0, "A2": "=A1", "A3": "=A1+A2", "A4": "=A3+A2"}
    more = dict(base)
    more["A4"] = "=A3+A2+A1"  # one extra inbound edge at A4
    _, g1 = make_graph({"S": base})
    _, g2 = make_graph({"S": more})
    assert g2.reachability("S!A4") >= g1.reachability("S!A4")


# --- exact counts beyond machine integers --------------------------------------


def test_exact_arithmetic_beyond_int64():
    # Doubling chain: cell k references cell k-1 twice, so the terminal's
    # reachability is 2**(n-1), far past int64 for n = 80.
    n = 80
    cells = {"A1": 1.0}
    for k in range(2, n + 1):
        cells[f"A{k}"] = f"=A{k - 1}+A{k - 1}"
    wb, g = make_graph({"S": cells})
    expected = 2 ** (n - 1)
    assert g.reachability(f"S!A{n}") == expected
    st = g.cascade_stats(f"S!A{n}")
    assert st.total_paths == expected
    assert st.max_path_length == n
    assert st.avg_path_length == Fraction(n)  # every path visits every cell
    assert st.cell_count == n
