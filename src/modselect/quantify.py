"""Supervised contribution quantification: the with-without metric."""

from __future__ import annotations

from dataclasses import dataclass

from .core import AccuracyTable


def contribution(table: AccuracyTable, modality: str, strategy: str | None = None) -> float:
    """Average accuracy change from adding ``modality`` to a fusion ensemble.

    Computed as the mean, over every nonempty combination of the remaining
    modalities, of the accuracy with the modality minus the accuracy without
    it. The result is in the table's fractional scale; multiply by 100 for
    percentage points.
    """
    if modality not in table.modalities:
        raise KeyError(f"unknown modality {modality!r}")
    if len(table.modalities) == 1:
        raise ValueError("no combinations without m")
    accuracy = table.column(strategy)
    with_m, without_m = table.with_without(modality)
    # Python's sum adds left to right in table order; np.sum adds pairwise,
    # which changes the last digit of some contributions.
    diffs = (accuracy[with_m] - accuracy[without_m]).tolist()
    return sum(diffs) / len(diffs)


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
    averaged = {m: 100.0 * contribution(table, m) for m in table.modalities}
    per_strategy = {
        s: {m: 100.0 * contribution(table, m, s) for m in table.modalities}
        for s in table.strategies
    }
    positive = frozenset(m for m, f in averaged.items() if f > 0.0)
    return ContributionReport(table.modalities, averaged, per_strategy, positive)
