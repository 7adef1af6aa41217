"""Shared pytest hooks and helpers: acceptance verdict lines for the run
summary, the share of constraints a geometry satisfies, and the analyses
that only tests run: effective dimensionality read off a PCA curve, the
beta at which two signals' losses tie, and the constraint CSV that `embed`
reads."""
from dataclasses import dataclass

import numpy as np

from labelinfo.costbenefit import SignalOption, TradeoffConfig, UtilityKind, utility
from labelinfo.triplets import ConstraintSet, _squared_distances

VERDICT_LINES = []


def record_verdict(line: str) -> None:
    VERDICT_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICT_LINES:
        terminalreporter.section("acceptance battery")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)


def satisfied_share(triplets: np.ndarray, coords: np.ndarray) -> float:
    """Share of (anchor, near, far) rows whose anchor is strictly nearer `near` in `coords`."""
    sq = _squared_distances(np.asarray(coords, dtype=float))
    a, b, c = np.asarray(triplets).T
    return float(np.mean(sq[a, b] < sq[a, c]))


@dataclass(frozen=True)
class PcaCurve:
    """(k_hat, rho) pairs with strictly increasing k_hat."""
    points: tuple

    def __post_init__(self):
        pts = tuple((int(kh), float(r)) for kh, r in self.points)
        ks = [kh for kh, _ in pts]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("k_hat values must be strictly increasing")
        object.__setattr__(self, "points", pts)


def effective_dimensionality(rho_target: float, curve: PcaCurve):
    """Smallest k_hat on the curve reaching rho_target.

    Returns (k_hat, saturated); saturated=True means no point reached the
    target and the largest k_hat is reported instead. The curve need not be
    monotone (solver noise), so this scans for the first crossing.
    """
    if not curve.points:
        raise ValueError("curve is empty")
    for k_hat, rho in curve.points:
        if rho >= rho_target:
            return k_hat, False
    return curve.points[-1][0], True


def indifference_beta(a: SignalOption, b: SignalOption,
                      utility_kind: UtilityKind = UtilityKind.LINEAR) -> float:
    """The beta at which two options' losses tie: (u_a - u_b) / (c_a - c_b)."""
    if a.cost_units == b.cost_units:
        raise ValueError("indifference point undefined for equal costs")
    cfg = TradeoffConfig(beta=0.0, utility_kind=utility_kind)
    return (utility(a.rho, cfg) - utility(b.rho, cfg)) / (a.cost_units - b.cost_units)


def constraints_to_csv(constraints: ConstraintSet, source_kind: str = "soft",
                       flip_rate: float = 0.0) -> str:
    """The text `triplets.constraints_from_csv` reads back; the set keeps no
    source kind or flip rate, so the header states the ones given."""
    lines = ["n,k,source_kind,flip_rate",
             f"{constraints.n_points},{constraints.n_centroids},{source_kind},{flip_rate!r}",
             "anchor,near,far"]
    lines.extend(f"{a},{b},{c}" for a, b, c in constraints.triplets)
    return "\n".join(lines) + "\n"
