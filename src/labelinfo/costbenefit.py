"""Annotation cost vs. recovery utility: loss L = beta * c_hat - u_hat(rho).

Costs are normalized to hard-label units per point: a hard label costs 1, a
dense soft label k, and the partial signals (sparse, top-class, coordinate)
cost one unit per elicited component. A sparse or top-class label keeps at
most its k class scores, while the n + k items have up to n + k principal
components, so a coordinate label's k_hat may exceed k. The utility scale b
and per-component price c are both absorbed into beta.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .labels import PARTIAL_KINDS, LabelKind
from .render import rows_to_csv
from .validate import check_count, check_real


class UtilityKind(enum.Enum):
    LINEAR = "linear"
    SIGMOID = "sigmoid"


@dataclass(frozen=True)
class TradeoffConfig:
    beta: float
    utility_kind: UtilityKind = UtilityKind.LINEAR

    def __post_init__(self):
        object.__setattr__(self, "beta", check_real("beta", self.beta, ">= 0", lambda b: b >= 0))
        object.__setattr__(self, "utility_kind", UtilityKind(self.utility_kind))


@dataclass(frozen=True)
class SignalOption:
    kind: LabelKind
    k_hat: int
    rho: float
    cost_units: float

    def __post_init__(self):
        check_count("k_hat", self.k_hat, 1)
        check_real("rho", self.rho, "in [-1, 1]", lambda r: -1 <= r <= 1)
        check_real("cost", self.cost_units)


# Per-point cost in hard-label units. Smoothing is a free transform of an
# already-paid hard label; a typicality label is a class plus one rating.
_FLAT_COSTS = {
    LabelKind.HARD: 1.0,
    LabelKind.SMOOTHED: 1.0,
    LabelKind.TYPICALITY: 2.0,
}


def cost(kind: LabelKind, n: int, k: int, k_hat: int | None = None) -> float:
    """Normalized per-point cost c_hat of eliciting a signal of this kind."""
    check_count("n", n, 1)
    check_count("k", k, 1)
    if kind in _FLAT_COSTS:
        return _FLAT_COSTS[kind]
    if kind is LabelKind.SOFT:
        return float(k)
    if kind in PARTIAL_KINDS:
        if k_hat is None:
            raise ValueError(f"{kind.value} cost requires k_hat")
        return float(check_count("k_hat", k_hat, 1, n + k if kind is LabelKind.PCA_COORDS else k))
    raise ValueError(f"no cost model for kind {kind!r}")


def signal_option(kind: LabelKind, n: int, k: int, k_hat: int | None,
                  rho: float) -> SignalOption:
    """The option a signal gives, priced by `cost`.

    A full signal has no k_hat of its own: a soft label counts as k_hat = k
    and any other full label as k_hat = 1.
    """
    c_hat = cost(kind, n, k, k_hat)
    if k_hat is None:
        k_hat = k if kind is LabelKind.SOFT else 1
    return SignalOption(kind=kind, k_hat=k_hat, rho=rho, cost_units=c_hat)


def utility(rho: float, config: TradeoffConfig) -> float:
    check_real("rho", rho, "in [-1, 1]", lambda r: -1 <= r <= 1)
    if config.utility_kind is UtilityKind.LINEAR:
        return float(rho)
    return float(1.0 / (1.0 + np.exp(-rho)))


def loss(option: SignalOption, config: TradeoffConfig) -> float:
    return config.beta * option.cost_units - utility(option.rho, config)


def optimize_sparsity(options, config: TradeoffConfig) -> SignalOption:
    """Minimal-loss option; ties break toward smaller cost, then smaller k_hat."""
    options = list(options)
    if not options:
        raise ValueError("no options to optimize over")
    return min(options, key=lambda o: (loss(o, config), o.cost_units, o.k_hat))


def tradeoff_table(options, config: TradeoffConfig):
    """One row per option with its loss and a preferred flag on the optimum."""
    options = list(options)
    best = optimize_sparsity(options, config)
    rows = []
    for opt in options:
        rows.append({
            "kind": opt.kind.value,
            "k_hat": opt.k_hat,
            "rho": opt.rho,
            "c_hat": opt.cost_units,
            "beta": config.beta,
            "utility_kind": config.utility_kind.value,
            "loss": loss(opt, config),
            "preferred": int(opt is best),
        })
    return rows


_TRADEOFF_COLUMNS = ("kind", "k_hat", "rho", "c_hat", "beta",
                     "utility_kind", "loss", "preferred")


def tradeoff_to_csv(rows) -> str:
    return rows_to_csv(rows, _TRADEOFF_COLUMNS)
