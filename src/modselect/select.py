"""Threshold computation and consensus selection of modalities or modality pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .core import Bundle, _tool_block
from .metrics import (
    AggregatedMetrics,
    PairMetricMatrix,
    aggregated_from_matrices,
    correlation_matrix,
    mmd_matrix,
)

CONSENSUS_MODES = ("or", "and")
SELECTION_MODES = ("aggregated", "pairs")


def winsorized_mean(values: Iterable[float], lam: float = 0.2, interpolate: bool = False) -> float:
    """Robust location estimate used for selection thresholds.

    Sorts the values and replaces the ``floor(lam * n)`` smallest and largest
    ones with the nearest retained order statistics before taking the mean.
    When nothing is replaced this is the plain mean; ``lam`` may range from 0
    (plain mean) to 0.5 (median for odd counts).

    With ``interpolate=True`` the estimate is instead assembled as
    ``lam * p_lam + (1 - 2 lam) * trimmed_mean + lam * p_(1-lam)`` using
    linearly interpolated percentiles, an alternative convention kept for
    comparison runs. At ``lam = 0.5`` on an even count nothing is left to
    trim to, so the middle term is left out: both percentiles are the
    median, and so is the estimate.
    """
    a = np.sort(np.asarray(list(values), dtype=np.float64))
    n = a.size
    if n == 0:
        raise ValueError("winsorized mean of an empty collection")
    if not (0.0 <= lam <= 0.5):
        raise ValueError("trust parameter must lie in [0, 0.5]")
    if not np.all(np.isfinite(a)):
        raise ValueError("winsorized mean needs finite values")
    cut = int(math.floor(lam * n))
    if interpolate:
        low = float(np.percentile(a, 100.0 * lam))
        high = float(np.percentile(a, 100.0 * (1.0 - lam)))
        # At lam = 0.5 on an even count the middle is empty: its weight is 0, but its mean NaN.
        middle = a[cut : n - cut].mean() if n > 2 * cut else 0.0
        result = float(lam * low + (1.0 - 2.0 * lam) * middle + lam * high)
    else:
        w = a.copy()
        w[:cut] = a[cut]
        w[n - cut :] = a[n - cut - 1]
        result = float(w.mean())
    # Clamp away summation rounding so n equal values yield exactly that
    # value; thresholds then compare inclusively against their own inputs.
    return float(min(max(result, a[0]), a[-1]))


@dataclass(frozen=True)
class ThresholdConfig:
    """Configuration for threshold computation and consensus selection.

    ``delta_rho`` / ``delta_mmd`` inject explicit thresholds instead of
    computing them, so published cutoffs can be reproduced directly.
    """

    lam: float = 0.2
    consensus: str = "or"
    mode: str = "aggregated"
    delta_rho: float | None = None
    delta_mmd: float | None = None
    exclude_self: bool = True
    interpolate: bool = False

    def __post_init__(self):
        if not (0.0 <= self.lam <= 0.5):
            raise ValueError("trust parameter must lie in [0, 0.5]")
        if self.consensus not in CONSENSUS_MODES:
            raise ValueError(f"consensus must be one of {CONSENSUS_MODES}")
        if self.mode not in SELECTION_MODES:
            raise ValueError(f"mode must be one of {SELECTION_MODES}")
        for name in ("delta_rho", "delta_mmd"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} override must be finite")
            object.__setattr__(self, name, None if value is None else float(value))


@dataclass(frozen=True)
class Threshold:
    value: float | None
    source: str  # computed | override | unavailable

    def to_dict(self) -> dict:
        return {"value": self.value, "source": self.source}


def _subject_json(subject: str | tuple[str, str]) -> tuple[str, str | list[str]]:
    """JSON key and value of a decision's subject: ``name`` or ``pair``."""
    if isinstance(subject, tuple):
        return "pair", list(subject)
    return "name", subject


@dataclass(frozen=True)
class Decision:
    """Outcome of the threshold rule for one subject.

    ``subject`` is a modality name in aggregated mode and an ``(m, n)`` pair
    in pairs mode. A metric missing for the subject is None, and so is its
    pass flag.
    """

    subject: str | tuple[str, str]
    rho: float | None
    mmd: float | None
    rho_pass: bool | None
    mmd_pass: bool | None
    basis: str  # both | correlation-only | discrepancy-only | none
    selected: bool
    reasons: tuple[str, ...]

    def to_dict(self) -> dict:
        key, value = _subject_json(self.subject)
        return {
            key: value,
            "correlation": self.rho,
            "discrepancy": self.mmd,
            "correlation_pass": self.rho_pass,
            "discrepancy_pass": self.mmd_pass,
            "basis": self.basis,
            "selected": self.selected,
            "reasons": list(self.reasons),
        }


# JSON keys of the decision list, the kept subjects and the exclusions.
_REPORT_KEYS = {
    "aggregated": ("modalities", "selected", "excluded"),
    "pairs": ("pairs", "selected_pairs", "excluded_pairs"),
}


@dataclass(frozen=True)
class SelectionReport:
    """Full record of one selection run: its configuration, thresholds, decisions, intermediates."""

    config: ThresholdConfig
    rho_threshold: Threshold
    mmd_threshold: Threshold
    decisions: tuple[Decision, ...] = ()
    notes: tuple[str, ...] = ()
    correlations: PairMetricMatrix | None = None
    discrepancies: PairMetricMatrix | None = None
    aggregates: AggregatedMetrics | None = None

    @property
    def selected(self) -> tuple:
        """Kept subjects: modality names, or ``(m, n)`` pairs in pairs mode."""
        return tuple(d.subject for d in self.decisions if d.selected)

    @property
    def excluded(self) -> tuple[Decision, ...]:
        return tuple(d for d in self.decisions if not d.selected)

    def to_dict(self) -> dict:
        out = {
            "schema": 1,
            "tool": _tool_block(),
            "config": {
                "mode": self.config.mode,
                "consensus": self.config.consensus,
                "lambda": self.config.lam,
                "exclude_self_pairs": self.config.exclude_self,
                "interpolate_percentiles": self.config.interpolate,
                "delta_rho_override": self.config.delta_rho,
                "delta_mmd_override": self.config.delta_mmd,
            },
            "thresholds": {
                "correlation": self.rho_threshold.to_dict(),
                "discrepancy": self.mmd_threshold.to_dict(),
            },
        }
        decisions_key, selected_key, excluded_key = _REPORT_KEYS[self.config.mode]
        out[decisions_key] = [d.to_dict() for d in self.decisions]
        out[selected_key] = [_subject_json(s)[1] for s in self.selected]
        out[excluded_key] = [
            dict([_subject_json(d.subject), ("reasons", list(d.reasons))])
            for d in self.excluded
        ]
        out["notes"] = list(self.notes)
        parts = {"pair_correlations": self.correlations, "pair_discrepancies": self.discrepancies,
                 "aggregated": self.aggregates}
        intermediate = {key: part.to_dict() for key, part in parts.items() if part is not None}
        if intermediate:
            out["intermediate"] = intermediate
        return out


def _threshold(values: list[float], override: float | None, config: ThresholdConfig) -> Threshold:
    if override is not None:
        return Threshold(override, "override")
    if not values:
        return Threshold(None, "unavailable")
    return Threshold(winsorized_mean(values, config.lam, config.interpolate), "computed")


def _decide(
    subject: str | tuple[str, str],
    rho: float | None,
    mmd: float | None,
    rho_thr: Threshold,
    mmd_thr: Threshold,
    consensus: str,
) -> Decision:
    """The selection rule for one subject.

    Each available metric is compared inclusively with its threshold. A
    subject with both is kept when either passes (``or``) or both pass
    (``and``); a subject with one is judged on it alone; a subject with
    neither (a pair, or a modality with no comparable partner and no
    comparable embeddings) is dropped.
    """
    rho_pass = None if rho is None else rho >= rho_thr.value
    mmd_pass = None if mmd is None or mmd_thr.value is None else mmd <= mmd_thr.value
    if rho_pass is None:
        basis = "none" if mmd_pass is None else "discrepancy-only"
    else:
        basis = "correlation-only" if mmd_pass is None else "both"
    passes = [p for p in (rho_pass, mmd_pass) if p is not None]
    selected = bool(passes) and (any(passes) if consensus == "or" else all(passes))
    reasons = []
    if not passes:
        reasons.append(f"no valid metrics for this {'pair' if isinstance(subject, tuple) else 'modality'}")
    elif not selected:
        if rho_pass is False:
            reasons.append(f"correlation {rho:.6g} below threshold {rho_thr.value:.6g}")
        if mmd_pass is False:
            reasons.append(
                f"embedding discrepancy {mmd:.6g} above threshold {mmd_thr.value:.6g}"
            )
    return Decision(subject, rho, mmd, rho_pass, mmd_pass, basis, selected, tuple(reasons))


def _notes(metrics: AggregatedMetrics) -> list[str]:
    """A note for each modality judged on correlation alone, then for each without a correlated partner."""
    names, rho, mmd = metrics.names, metrics.rho, metrics.mmd
    notes = [f"modality {m!r} judged on correlation alone (no comparable embeddings)" for m in names
             if mmd[m] is None and rho[m] is not None]
    return notes + [f"modality {m!r} has no comparable partners: its correlation with every other modality is undefined"
                    for m in names if rho[m] is None]


def _select(
    config: ThresholdConfig,
    subjects: list,
    rho: list[float | None],
    mmd: list[float | None],
    metrics: AggregatedMetrics,
    aggregates: AggregatedMetrics | None = None,
) -> SelectionReport:
    """Threshold the known values, apply :func:`_decide` to every subject, note from ``metrics``."""
    rho_thr = _threshold([v for v in rho if v is not None], config.delta_rho, config)
    mmd_thr = _threshold([v for v in mmd if v is not None], config.delta_mmd, config)
    return SelectionReport(
        config=config,
        rho_threshold=rho_thr,
        mmd_threshold=mmd_thr,
        decisions=tuple(
            _decide(s, r, d, rho_thr, mmd_thr, config.consensus)
            for s, r, d in zip(subjects, rho, mmd)
        ),
        notes=tuple(_notes(metrics)),
        aggregates=aggregates,
    )


def aggregated_select(
    metrics: AggregatedMetrics, config: ThresholdConfig = ThresholdConfig()
) -> SelectionReport:
    """Select individual modalities by thresholding their aggregated metrics.

    A modality is kept when its aggregated correlation reaches the
    correlation threshold or (under the default ``or`` consensus) its
    aggregated discrepancy stays at or below the discrepancy threshold;
    ``and`` requires both. Modalities without comparable embeddings are
    judged on correlation alone, and modalities without a correlation
    partner on discrepancy alone (or not at all, and dropped). Thresholds
    come from the modalities that have the metric. Comparisons are inclusive.
    """
    names = metrics.names
    if len(names) < 2:
        raise ValueError("selection needs alternatives")
    rho = [metrics.rho[m] for m in names]
    mmd = [metrics.mmd[m] for m in names]
    return _select(replace(config, mode="aggregated"), names, rho, mmd, metrics, aggregates=metrics)


def pairs_select(
    correlations: PairMetricMatrix,
    discrepancies: PairMetricMatrix | None = None,
    config: ThresholdConfig = ThresholdConfig(),
) -> SelectionReport:
    """Select modality pairs by thresholding the raw pair metrics.

    Thresholds are computed over the valid off-diagonal pair values (each
    unordered pair counted once). Pairs lacking a valid discrepancy are
    judged on correlation alone, and vice versa. As in aggregated mode, a
    note names each modality with a correlated partner but no discrepancy
    partner, and each modality without a correlated partner.
    """
    names = correlations.names
    if len(names) < 2:
        raise ValueError("selection needs alternatives")
    if discrepancies is not None and discrepancies.names != names:
        raise ValueError("pair matrices cover different modalities")

    pair_list = correlations.pairs()
    upper = np.triu_indices(len(names), 1)  # row-major, the order of pairs()

    def known(matrix: PairMetricMatrix | None) -> list[float | None]:
        if matrix is None:
            return [None] * len(pair_list)
        return [v if ok else None for v, ok in zip(matrix.values[upper].tolist(), matrix.valid[upper].tolist())]

    # The notes aggregated mode writes, from each modality's valid pairs with others.
    metrics = aggregated_from_matrices(correlations, discrepancies)
    return _select(replace(config, mode="pairs"), pair_list, known(correlations), known(discrepancies), metrics)


def run_modselect(bundle: Bundle, config: ThresholdConfig = ThresholdConfig()) -> SelectionReport:
    """Run the full unsupervised pipeline on a bundle.

    Ground-truth labels are never consulted: the pipeline operates on a
    label-stripped view of the bundle. The returned report records the pair
    matrices, aggregated values, thresholds and every selection decision.
    """
    work = bundle.without_labels()
    if len(work.modalities) < 2:
        raise ValueError("selection needs alternatives")
    correlations = correlation_matrix(work)
    discrepancies = mmd_matrix(work)
    aggregates = aggregated_from_matrices(correlations, discrepancies, config.exclude_self)
    if config.mode == "aggregated":
        report = aggregated_select(aggregates, config)
    else:
        report = pairs_select(correlations, discrepancies, config)
        if None in aggregates.rho.values():  # a pairs report lists aggregates only when all are defined
            aggregates = None
    return replace(
        report,
        correlations=correlations,
        discrepancies=discrepancies,
        aggregates=aggregates,
    )
