"""Unsupervised pairwise metrics: prediction correlation and mean-embedding discrepancy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import Bundle, EmbeddingMatrix, as_matrix

# Per-class standard deviations below this are treated as degenerate.
DEGENERATE_STD = 1e-12


def correlation_vector(z_m, z_n) -> np.ndarray:
    """Per-class Pearson correlation of two score matrices across samples.

    Uses population (divide-by-S) moments. Classes where either side's
    standard deviation falls below ``DEGENERATE_STD`` are returned as NaN.
    """
    a = as_matrix(z_m)
    b = as_matrix(z_n)
    if a.shape != b.shape:
        raise ValueError("incompatible score matrices")
    if a.shape[0] < 2:
        raise ValueError("insufficient samples")
    return _correlation(a, _moments(a), b, _moments(b))


def _moments(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class means and population standard deviations."""
    return scores.mean(axis=0), scores.std(axis=0)


def _correlation(a: np.ndarray, moments_a: tuple, b: np.ndarray, moments_b: tuple) -> np.ndarray:
    """Per-class correlation of ``a`` and ``b`` from their moments; NaN where a side is degenerate.

    Each side is centred here, so only the pair's two centred copies and
    their product are alive at once.
    """
    (mean_a, sd_a), (mean_b, sd_b) = moments_a, moments_b
    cov = ((a - mean_a) * (b - mean_b)).mean(axis=0)
    defined = (sd_a >= DEGENERATE_STD) & (sd_b >= DEGENERATE_STD)
    out = np.full(cov.size, np.nan)
    out[defined] = np.clip(cov[defined] / (sd_a[defined] * sd_b[defined]), -1.0, 1.0)
    return out


def _defined_mean(vec: np.ndarray) -> float | None:
    """Mean over the defined (non-NaN) classes; None when no class is defined."""
    defined = ~np.isnan(vec)
    if not defined.any():
        return None
    return float(vec[defined].mean())


def pair_correlation(z_m, z_n) -> float:
    """Mean of the defined per-class correlations between two modalities."""
    rho = _defined_mean(correlation_vector(z_m, z_n))
    if rho is None:
        raise ValueError("degenerate scores")
    return rho


def pair_mmd(h_m, h_n) -> float:
    """Discrepancy between two embedding sets: the norm of their mean difference.

    Sample counts may differ; the embedding dimension may not.
    """
    a = as_matrix(h_m, EmbeddingMatrix)
    b = as_matrix(h_n, EmbeddingMatrix)
    if a.shape[1] != b.shape[1]:
        raise ValueError("incomparable embedding spaces")
    return _mean_distance(a.mean(axis=0), b.mean(axis=0))


def _mean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """The Euclidean distance between two mean vectors."""
    return float(np.linalg.norm(a - b))


@dataclass(frozen=True, eq=False)
class PairMetricMatrix:
    """Symmetric modality-pair metric values with a validity mask."""

    names: tuple[str, ...]
    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        valid = np.asarray(self.valid, dtype=bool)
        n = len(self.names)
        if values.shape != (n, n) or valid.shape != (n, n):
            raise ValueError("pair matrices must be square over the modality names")
        values.setflags(write=False)
        valid.setflags(write=False)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "valid", valid)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no modality named {name!r}") from None

    def value(self, m: str, n: str) -> float:
        i, j = self.index(m), self.index(n)
        if not self.valid[i, j]:
            raise ValueError(f"no valid metric for pair ({m}, {n})")
        return float(self.values[i, j])

    def is_valid(self, m: str, n: str) -> bool:
        return bool(self.valid[self.index(m), self.index(n)])

    def pairs(self) -> list[tuple[str, str]]:
        """Unordered pairs (i < j) in modality order."""
        return [
            (self.names[i], self.names[j])
            for i in range(len(self.names))
            for j in range(i + 1, len(self.names))
        ]

    def to_dict(self) -> dict:
        return {
            "modalities": list(self.names),
            "values": [
                [self.values[i, j] if self.valid[i, j] else None for j in range(len(self.names))]
                for i in range(len(self.names))
            ],
        }


def correlation_matrix(bundle: Bundle) -> PairMetricMatrix:
    """Prediction-correlation matrix over all modality pairs of a bundle.

    Pairs whose scores are degenerate for every class are marked invalid
    instead of raising. Each modality's per-class means and standard
    deviations are taken once; its centred scores are made only while a
    pair it belongs to is scored, so beyond the bundle at most two centred
    S x C matrices and their product are held at once. Every entry keeps
    the bits of :func:`pair_correlation`.
    """
    scores = [as_matrix(rec.scores) for rec in bundle.modalities]
    if scores and scores[0].shape[0] < 2:
        raise ValueError("insufficient samples")
    if any(z.shape != scores[0].shape for z in scores):
        raise ValueError("incompatible score matrices")
    moments = [(z, _moments(z)) for z in scores]  # once per modality, not per pair
    return _pair_matrix(bundle.names, moments, lambda a, b: _defined_mean(_correlation(*a, *b)))


def mmd_matrix(bundle: Bundle) -> PairMetricMatrix:
    """Mean-embedding discrepancy matrix; entries without comparable embeddings are invalid."""
    # Each modality's mean once, not once per pair.
    means = [None if rec.embeddings is None else rec.embeddings.values.mean(axis=0) for rec in bundle.modalities]

    def discrepancy(a, b) -> float | None:  # pair_mmd's value
        return None if a is None or b is None or a.size != b.size else _mean_distance(a, b)

    return _pair_matrix(bundle.names, means, discrepancy)


def _pair_matrix(names, items, metric) -> PairMetricMatrix:
    """``metric(items[i], items[j])`` for every pair i <= j, mirrored; invalid where it is None."""
    n = len(items)
    values = np.zeros((n, n))
    valid = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i, n):
            value = metric(items[i], items[j])
            if value is not None:
                values[i, j] = values[j, i] = value
                valid[i, j] = valid[j, i] = True
    return PairMetricMatrix(names, values, valid)


def aggregate(pairs: PairMetricMatrix, modality: str, exclude_self: bool = True) -> float:
    """Average a modality's pair metric over its valid partners.

    A partner is another modality with a valid pair; under either self-pair
    convention a modality without one raises. With ``exclude_self`` (the
    default) the diagonal is omitted and the divisor is the number of valid
    partners. With ``exclude_self=False`` the diagonal self-pair joins the
    mean and the divisor is the number of valid entries in the row including
    it, which equals the modality count on a fully valid matrix.
    """
    i = pairs.index(modality)
    mask = pairs.valid[i].copy()
    mask[i] = False
    if not mask.any():
        raise ValueError(f"modality {modality!r} has no comparable partners")
    mask[i] = not exclude_self and pairs.valid[i, i]
    return float(pairs.values[i][mask].mean())


@dataclass(frozen=True)
class AggregatedMetrics:
    """Per-modality aggregated correlation and discrepancy values.

    ``mmd`` maps to None for modalities without comparable embeddings; those
    are judged on correlation alone downstream. ``rho`` maps to None for a
    modality whose correlation with every other modality is undefined.
    """

    names: tuple[str, ...]
    rho: Mapping[str, float | None]
    mmd: Mapping[str, float | None]

    def __post_init__(self):
        names = tuple(self.names)
        if set(self.rho) != set(names) or set(self.mmd) != set(names):
            raise ValueError("aggregated metrics must cover every modality exactly once")
        object.__setattr__(self, "names", names)
        for field in ("rho", "mmd"):
            values = getattr(self, field)
            values = {m: None if values[m] is None else float(values[m]) for m in names}
            object.__setattr__(self, field, values)

    def to_dict(self) -> dict:
        return {
            m: {"correlation": self.rho[m], "discrepancy": self.mmd[m]} for m in self.names
        }


def aggregated_from_matrices(
    correlations: PairMetricMatrix,
    discrepancies: PairMetricMatrix | None = None,
    exclude_self: bool = True,
) -> AggregatedMetrics:
    """Aggregate pair matrices into per-modality values; None where a modality has no partner."""

    def known(pairs: PairMetricMatrix | None, name: str) -> float | None:
        if pairs is None:
            return None
        try:
            return aggregate(pairs, name, exclude_self)
        except ValueError:
            return None

    names = correlations.names
    rho = {m: known(correlations, m) for m in names}
    return AggregatedMetrics(names, rho, {m: known(discrepancies, m) for m in names})
