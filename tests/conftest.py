"""Shared pytest hooks and helpers: acceptance verdict lines for the run
summary, and the share of constraints a geometry satisfies."""
import numpy as np

from labelinfo.triplets import _squared_distances

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
