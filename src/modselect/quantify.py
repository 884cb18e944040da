"""Supervised contribution quantification: the with-without metric."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AccuracyTable


def _mean_differences(views: np.ndarray, with_m: np.ndarray, without_m: np.ndarray) -> np.ndarray:
    """Per column of ``views`` (combinations x views), the mean of its rows ``with_m`` minus ``without_m``."""
    diffs = views[with_m] - views[without_m]
    # Added left to right in table order from +0.0, on every Python version:
    # np.sum adds pairwise, and builtin sum compensates since Python 3.12;
    # either changes the last digit of some contributions.
    diffs[0] += 0.0
    return np.add.accumulate(diffs)[-1] / len(diffs)


def contribution(table: AccuracyTable, modality: str, strategy: str | None = None) -> float:
    """Average accuracy change from adding ``modality`` to a fusion ensemble.

    Computed as the mean, over every nonempty combination of the remaining
    modalities, of the accuracy with the modality minus the accuracy without
    it. The result is in the table's fractional scale; multiply by 100 for
    percentage points.
    """
    if modality not in table.modalities:
        raise KeyError(f"unknown modality {modality!r}")
    rows = table.with_without(modality)
    return float(_mean_differences(table.column(strategy)[:, None], *rows)[0])


def positive_modalities(table: AccuracyTable) -> frozenset[str]:
    """Modalities whose averaged contribution is strictly positive."""
    return frozenset(m for m in table.modalities if contribution(table, m) > 0.0)


@dataclass(frozen=True)
class ContributionReport:
    """Per-modality contributions in percentage points, plus the positive set."""

    modalities: tuple[str, ...]
    averaged: dict[str, float]
    per_strategy: dict[str, dict[str, float]]
    positive: frozenset[str]

    def to_dict(self) -> dict:
        return {
            "modalities": list(self.modalities),
            "contribution_percent": {m: self.averaged[m] for m in self.modalities},
            "per_strategy_percent": {
                s: {m: vals[m] for m in self.modalities}
                for s, vals in self.per_strategy.items()
            },
            "positive_modalities": sorted(self.positive),
        }


def contribution_report(table: AccuracyTable) -> ContributionReport:
    """Contributions for every modality, averaged and per strategy when available."""
    # One view per column: the averaged one, then each strategy's.
    views = np.column_stack((table.column(), table.values)) if table.strategies else table.column()[:, None]
    percent = {m: (100.0 * _mean_differences(views, *table.with_without(m))).tolist() for m in table.modalities}
    averaged = {m: p[0] for m, p in percent.items()}
    per_strategy = {s: {m: p[k] for m, p in percent.items()} for k, s in enumerate(table.strategies, 1)}
    positive = frozenset(m for m, f in averaged.items() if f > 0.0)
    return ContributionReport(table.modalities, averaged, per_strategy, positive)
