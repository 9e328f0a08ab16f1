import pytest

from cellgauge import reliability
from cellgauge.errors import DomainError
from cellgauge.metrics import CellMetrics, DispersionConfig, formula_metrics
from cellgauge.refs import CellRef
from cellgauge.reliability import (
    ReliabilityConfig,
    adjusted_cell_rate,
    bottom_line_error_rate,
    cascade_reliability,
    cell_error_rates,
    survive_factors,
)

from conftest import FIVE_CELL_SHEETS, NINE_CELL_SHEETS, make_graph


def test_bottom_line_error_rate_published_values():
    assert abs(bottom_line_error_rate(0.02, 5) - 0.0961) <= 5e-5
    assert abs(bottom_line_error_rate(0.02, 9) - 0.1663) <= 5e-5


def test_bottom_line_error_rate_edges():
    assert bottom_line_error_rate(0.0, 17) == 0.0
    assert bottom_line_error_rate(0.3, 0) == 0.0


@pytest.mark.parametrize("e,n", [(-0.1, 3), (1.0, 3), (1.5, 3), (0.02, -1)])
def test_bottom_line_error_rate_domain(e, n):
    with pytest.raises(DomainError):
        bottom_line_error_rate(e, n)


def test_error_rate_monotone_in_n_and_e():
    rates_n = [bottom_line_error_rate(0.02, n) for n in range(0, 30)]
    assert all(a < b for a, b in zip(rates_n, rates_n[1:]))
    rates_e = [bottom_line_error_rate(e, 5) for e in (0.0, 0.01, 0.02, 0.1, 0.5)]
    assert all(a < b for a, b in zip(rates_e, rates_e[1:]))


def test_config_validation():
    with pytest.raises(DomainError):
        ReliabilityConfig(base_cer=1.0)
    with pytest.raises(DomainError):
        ReliabilityConfig(w_depth=-1)
    with pytest.raises(DomainError):
        ReliabilityConfig(cap=0.0)
    with pytest.raises(DomainError):
        ReliabilityConfig(base_cer=0.3, cap=0.2)
    with pytest.raises(DomainError, match="data_cell_factor must be non-negative"):
        ReliabilityConfig(data_cell_factor=-1)


def test_adjusted_rate_data_cell_default():
    assert adjusted_cell_rate(None) == pytest.approx(0.005)
    zero = CellMetrics(address=CellRef("S", 1, 1))
    assert adjusted_cell_rate(zero) == pytest.approx(0.005)


def test_adjusted_rate_single_token_formula():
    # One operand token, depth 1, no references: only the token term is
    # non-zero, so e = base * (1 + 1/10).
    m = CellMetrics(
        address=CellRef("S", 1, 1), n_operators=0, n_operands=1,
        depth_of_nesting=1, decision_count=0,
    )
    assert adjusted_cell_rate(m) == pytest.approx(0.02 * 1.1)


def test_adjusted_rate_caps():
    m = CellMetrics(
        address=CellRef("S", 1, 1), n_operators=200, n_operands=300,
        depth_of_nesting=9, decision_count=40, dispersion=0.99,
        col_span=400, row_span=300,
    )
    assert adjusted_cell_rate(m) == 0.25


def test_adjusted_rate_each_weight_contributes():
    base = CellMetrics(
        address=CellRef("S", 1, 1), n_operators=2, n_operands=3,
        depth_of_nesting=2, decision_count=1, dispersion=0.5,
        col_span=4, row_span=6,
    )
    # c = 5/10 + 1 + 0.5 + 1 + 10/20 = 3.5
    assert adjusted_cell_rate(base) == pytest.approx(0.02 * 4.5)
    only_tokens = ReliabilityConfig(w_depth=0, w_dispersion=0, w_decisions=0, w_span=0)
    assert adjusted_cell_rate(base, only_tokens) == pytest.approx(0.02 * 1.5)


def analyzed_with_rates(sheets, cfg=ReliabilityConfig()):
    """Per cascade: its reliability, each terminal a group of one, and its
    members' rates in member order. The adjusted rate must be a sequential
    ``survive *= 1 - rate`` product over the members, to the last bit."""
    wb, g = make_graph(sheets)
    metrics = [formula_metrics(c, g.precedents(c.address), DispersionConfig())
               for c in wb.iter_cells()]
    rates = cell_error_rates(metrics, cfg)
    survive_of = survive_factors(metrics, range(len(metrics)), g.node_count, cfg)
    out = []
    for t in g.bottom_line_ids():
        (rel,) = cascade_reliability(next(g.cascade_groups([t])), survive_of, cfg)
        member_rates = [rates[i] if i < len(rates) else adjusted_cell_rate(None, cfg)
                        for i in g.member_ids(t)]
        survive = 1.0
        for rate in member_rates:
            survive *= 1.0 - rate
        assert rel.adjusted_e == 1.0 - survive
        out.append((rel, member_rates))
    return out


def analyzed(sheets, cfg=ReliabilityConfig()):
    return [rel for rel, _ in analyzed_with_rates(sheets, cfg)]


def test_five_cell_cascade_uniform_rate():
    (rel,) = analyzed(FIVE_CELL_SHEETS)
    assert rel.n == 5
    assert abs(rel.uniform_e - 0.0961) <= 5e-5


def test_nine_cell_cascade_of_simple_formulas_beats_flat_rate():
    (rel,) = analyzed(NINE_CELL_SHEETS)
    assert rel.n == 9
    assert abs(rel.uniform_e - 0.1663) <= 5e-5
    # Single-operation formulas and data cells come out less error-prone
    # than the flat per-cell rate implies.
    assert rel.adjusted_e < rel.uniform_e


def test_complex_short_cascade_outranks_long_simple_one():
    (five,) = analyzed(FIVE_CELL_SHEETS)
    (nine,) = analyzed(NINE_CELL_SHEETS)
    # Uniform rates order the cascades by length alone...
    assert five.uniform_e < nine.uniform_e
    # ...but complexity adjustment flips the ranking.
    assert five.adjusted_e > nine.adjusted_e


def test_reduction_to_uniform():
    cfg = ReliabilityConfig(
        w_tokens=0, w_depth=0, w_dispersion=0, w_decisions=0, w_span=0,
        data_cell_factor=1.0, cap=1.0,
    )
    for sheets in (FIVE_CELL_SHEETS, NINE_CELL_SHEETS):
        for rel in analyzed(sheets, cfg):
            assert rel.adjusted_e == pytest.approx(rel.uniform_e, rel=1e-12)


def test_all_equal_rates_reduce_exactly():
    # per-cell rates all equal e reduces the product form to 1-(1-e)^n
    e = 0.037
    n = 6
    product = 1.0
    for _ in range(n):
        product *= 1.0 - e
    assert abs((1.0 - product) - bottom_line_error_rate(e, n)) < 1e-14


def test_adjusted_monotone_in_weights_and_base():
    (base,) = analyzed(FIVE_CELL_SHEETS)
    for bump in ("w_tokens", "w_depth", "w_dispersion", "w_decisions", "w_span"):
        (heavier,) = analyzed(FIVE_CELL_SHEETS, ReliabilityConfig(**{bump: 2.0}))
        assert heavier.adjusted_e >= base.adjusted_e
    (hotter,) = analyzed(FIVE_CELL_SHEETS, ReliabilityConfig(base_cer=0.03))
    assert hotter.adjusted_e > base.adjusted_e


def test_adjusted_bounds():
    for sheets in (FIVE_CELL_SHEETS, NINE_CELL_SHEETS):
        ((rel, member_rates),) = analyzed_with_rates(sheets)
        assert 0.0 <= rel.adjusted_e < 1.0
        lo = 1.0 - (1.0 - min(member_rates)) ** rel.n
        hi = 1.0 - (1.0 - max(member_rates)) ** rel.n
        assert lo - 1e-12 <= rel.adjusted_e <= hi + 1e-12


def test_materialized_cells_get_data_rate():
    wb, g = make_graph({"S": {"B1": "=A1*2"}})  # A1 empty -> materialized
    metrics = [formula_metrics(c, g.precedents(c.address)) for c in wb.iter_cells()]
    rates = cell_error_rates(metrics)
    a1 = g.node_id(CellRef("S", 1, 1))
    assert a1 in g.member_ids("S!B1") and a1 >= len(rates)
    b1_rate = rates[g.node_id(CellRef("S", 2, 1))]
    group = next(g.cascade_groups([g.node_id("S!B1")]))
    (rel,) = cascade_reliability(
        group, survive_factors(metrics, range(len(metrics)), g.node_count))
    # A1 gets the data-cell rate, 0.02 * 0.25.
    assert rel.adjusted_e == pytest.approx(1.0 - (1.0 - 0.005) * (1.0 - b1_rate))


def test_survive_factors_rate_each_record_once_and_empty_cells_as_data(monkeypatch):
    cfg = ReliabilityConfig(data_cell_factor=0.5)
    formula = CellMetrics(address=CellRef("S", 1, 1), n_operators=1, n_operands=2,
                          depth_of_nesting=1)
    other = CellMetrics(address=CellRef("S", 1, 2), n_operators=3, n_operands=4,
                        depth_of_nesting=2, decision_count=1)
    zero = CellMetrics(address=CellRef("S", 1, 3))
    metrics = [formula, zero, formula, other, zero, formula]
    rated = []
    real = reliability.adjusted_cell_rate
    monkeypatch.setattr(reliability, "adjusted_cell_rate",
                        lambda m, c: rated.append(m) or real(m, c))
    # The distinct records, and each cell's position among them.
    records, index = [formula, zero, other], [0, 1, 0, 2, 1, 0]
    survive = survive_factors(records, index, len(metrics) + 3, cfg)
    # Each distinct record once, in their order, then the data-cell rate.
    assert rated == [formula, zero, other, None]
    assert rated[0] is formula and rated[1] is zero and rated[2] is other
    assert survive[:len(metrics)] == [1.0 - real(m, cfg) for m in metrics]
    assert survive[len(metrics):] == [1.0 - cfg.base_cer * cfg.data_cell_factor] * 3
    assert survive_factors(records, index, len(metrics), cfg) == survive[:len(metrics)]
    assert survive_factors(metrics, range(len(metrics)), len(metrics), cfg) == survive[:6]
