import numpy as np
import pytest
from conftest import indifference_beta
from hypothesis import given, settings
from hypothesis import strategies as st

from labelinfo.costbenefit import (SignalOption, TradeoffConfig, UtilityKind,
                                   cost, loss,
                                   optimize_sparsity, tradeoff_table,
                                   tradeoff_to_csv, utility)
from labelinfo.labels import LabelKind


def _opt(kind=LabelKind.SOFT, k_hat=1, rho=0.5, cost_units=1.0):
    return SignalOption(kind=kind, k_hat=k_hat, rho=rho, cost_units=cost_units)


def test_cost_schedule():
    assert cost(LabelKind.HARD, 10, 7) == 1.0
    assert cost(LabelKind.SMOOTHED, 10, 7) == 1.0
    assert cost(LabelKind.TYPICALITY, 10, 7) == 2.0
    assert cost(LabelKind.SOFT, 10, 7) == 7.0
    assert cost(LabelKind.SPARSE_SOFT, 10, 7, k_hat=3) == 3.0
    assert cost(LabelKind.TOP_CLASS, 10, 7, k_hat=2) == 2.0
    assert cost(LabelKind.PCA_COORDS, 10, 7, k_hat=5) == 5.0
    assert cost(LabelKind.PCA_COORDS, 10, 7, k_hat=17) == 17.0  # up to n + k


def test_cost_validation():
    with pytest.raises(ValueError):
        cost(LabelKind.SPARSE_SOFT, 10, 7)  # k_hat required
    with pytest.raises(ValueError):
        cost(LabelKind.SPARSE_SOFT, 10, 7, k_hat=0)
    with pytest.raises(ValueError):
        cost(LabelKind.SPARSE_SOFT, 10, 7, k_hat=8)  # above k
    with pytest.raises(ValueError):
        cost(LabelKind.TOP_CLASS, 10, 7, k_hat=8)
    with pytest.raises(ValueError):
        cost(LabelKind.PCA_COORDS, 10, 7, k_hat=18)  # above n + k
    with pytest.raises(ValueError):
        cost(LabelKind.HARD, 0, 7)


def test_utility_linear_and_sigmoid():
    lin = TradeoffConfig(beta=0.0)
    sig = TradeoffConfig(beta=0.0, utility_kind=UtilityKind.SIGMOID)
    assert utility(0.8, lin) == 0.8
    assert utility(0.0, sig) == pytest.approx(0.5)
    assert utility(0.8, sig) == pytest.approx(1 / (1 + np.exp(-0.8)))
    with pytest.raises(ValueError):
        utility(1.2, lin)


def test_config_and_option_validation():
    with pytest.raises(ValueError):
        TradeoffConfig(beta=-0.1)
    with pytest.raises(ValueError):
        _opt(k_hat=0)
    with pytest.raises(ValueError):
        _opt(rho=1.5)
    with pytest.raises(ValueError):
        _opt(cost_units=0.0)


def test_loss_formula():
    cfg = TradeoffConfig(beta=0.2)
    opt = _opt(rho=0.6, cost_units=5.0)
    assert loss(opt, cfg) == pytest.approx(0.2 * 5.0 - 0.6)


def test_beta_zero_prefers_max_rho():
    options = [_opt(kind=LabelKind.HARD, rho=0.3, cost_units=1.0),
               _opt(kind=LabelKind.SOFT, rho=0.9, cost_units=20.0),
               _opt(kind=LabelKind.SPARSE_SOFT, k_hat=5, rho=0.7, cost_units=5.0)]
    best = optimize_sparsity(options, TradeoffConfig(beta=0.0))
    assert best.rho == 0.9


def test_huge_beta_prefers_min_cost():
    options = [_opt(kind=LabelKind.HARD, rho=0.3, cost_units=1.0),
               _opt(kind=LabelKind.SOFT, rho=0.9, cost_units=20.0)]
    best = optimize_sparsity(options, TradeoffConfig(beta=1e6))
    assert best.cost_units == 1.0


def test_tie_breaks_prefer_cheap_then_narrow():
    cfg = TradeoffConfig(beta=0.1)
    # identical losses: 0.1*2-0.5 = -0.3 and 0.1*4-0.7 = -0.3
    a = _opt(kind=LabelKind.SPARSE_SOFT, k_hat=2, rho=0.5, cost_units=2.0)
    b = _opt(kind=LabelKind.SPARSE_SOFT, k_hat=4, rho=0.7, cost_units=4.0)
    assert optimize_sparsity([b, a], cfg) is a
    # equal loss and cost: smaller k_hat wins
    c = _opt(kind=LabelKind.TOP_CLASS, k_hat=1, rho=0.5, cost_units=2.0)
    assert optimize_sparsity([a, c], cfg) is c


def test_optimize_empty_raises():
    with pytest.raises(ValueError):
        optimize_sparsity([], TradeoffConfig(beta=0.0))


def test_indifference_beta_flips_preference():
    hard = _opt(kind=LabelKind.HARD, rho=0.35, cost_units=1.0)
    soft = _opt(kind=LabelKind.SOFT, rho=0.9, cost_units=12.0)
    beta_star = indifference_beta(soft, hard)
    assert beta_star == pytest.approx((0.9 - 0.35) / 11.0)
    below = optimize_sparsity([hard, soft], TradeoffConfig(beta=beta_star * 0.9))
    above = optimize_sparsity([hard, soft], TradeoffConfig(beta=beta_star * 1.1))
    assert below is soft
    assert above is hard
    # exactly at beta*: tie, broken toward the cheaper option
    at = optimize_sparsity([hard, soft], TradeoffConfig(beta=beta_star))
    assert at is hard


def test_indifference_equal_cost_raises():
    a = _opt(rho=0.5, cost_units=3.0)
    b = _opt(rho=0.7, cost_units=3.0)
    with pytest.raises(ValueError):
        indifference_beta(a, b)


def test_tradeoff_table_marks_single_optimum():
    options = [_opt(kind=LabelKind.HARD, rho=0.3, cost_units=1.0),
               _opt(kind=LabelKind.SOFT, rho=0.9, cost_units=10.0),
               _opt(kind=LabelKind.SPARSE_SOFT, k_hat=3, rho=0.75, cost_units=3.0)]
    rows = tradeoff_table(options, TradeoffConfig(beta=0.05))
    assert sum(r["preferred"] for r in rows) == 1
    losses = [r["loss"] for r in rows]
    best_row = rows[int(np.argmin(losses))]
    assert best_row["preferred"] == 1
    assert {r["kind"] for r in rows} == {"hard", "soft", "sparse"}


def test_tradeoff_csv_shape():
    options = [_opt(kind=LabelKind.HARD, rho=0.3, cost_units=1.0)]
    text = tradeoff_to_csv(tradeoff_table(options, TradeoffConfig(beta=0.0)))
    lines = text.strip().splitlines()
    assert lines[0] == "kind,k_hat,rho,c_hat,beta,utility_kind,loss,preferred"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "hard" and fields[-1] == "1"


@settings(deadline=None, max_examples=200)
@given(st.floats(0.0, 10.0), st.floats(-1.0, 1.0),
       st.floats(0.01, 50.0), st.floats(0.01, 50.0))
def test_loss_monotone_in_cost_at_fixed_rho(beta, rho, c1, c2):
    cfg = TradeoffConfig(beta=beta)
    lo, hi = sorted([c1, c2])
    assert loss(_opt(rho=rho, cost_units=lo), cfg) <= loss(
        _opt(rho=rho, cost_units=hi), cfg) + 1e-12


@settings(deadline=None, max_examples=200)
@given(st.floats(0.0, 10.0), st.floats(0.01, 50.0),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
       st.sampled_from(list(UtilityKind)))
def test_loss_decreasing_in_rho_at_fixed_cost(beta, c, r1, r2, ukind):
    cfg = TradeoffConfig(beta=beta, utility_kind=ukind)
    lo, hi = sorted([r1, r2])
    assert loss(_opt(rho=hi, cost_units=c), cfg) <= loss(
        _opt(rho=lo, cost_units=c), cfg) + 1e-12


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.01, 30.0)),
                min_size=1, max_size=8),
       st.floats(0.0, 5.0), st.floats(-1.0, 1.0))
def test_adding_dominated_option_never_changes_choice(pool, beta, rho_dom):
    cfg = TradeoffConfig(beta=beta)
    options = [_opt(rho=r, cost_units=c, k_hat=i + 1)
               for i, (r, c) in enumerate(pool)]
    best = optimize_sparsity(options, cfg)
    # dominated: no better rho, no lower cost, higher k_hat than the winner
    dominated = _opt(rho=min(rho_dom, best.rho),
                     cost_units=best.cost_units + 1.0,
                     k_hat=best.k_hat + 10)
    assert optimize_sparsity(options + [dominated], cfg) is best
