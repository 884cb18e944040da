"""Rule-based late fusion of class scores and the exhaustive combination sweep."""

from __future__ import annotations

import enum
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Sequence

import numpy as np

from .core import AccuracyTable, Bundle, LabelVector, all_combinations, as_matrix


class FusionStrategy(enum.Enum):
    """The six rule-based late-fusion strategies.

    Enum values double as the tokens accepted on the command line and in
    configuration files.
    """

    SUM = "sum"
    SQUARED_SUM = "sqsum"
    PRODUCT = "product"
    MAXIMUM = "max"
    MEDIAN = "median"
    BORDA_COUNT = "borda"


ALL_STRATEGIES: tuple[FusionStrategy, ...] = tuple(FusionStrategy)


def parse_strategies(spec: str) -> tuple[FusionStrategy, ...]:
    """Parse a comma-separated strategy list such as ``"sum,median,borda"``."""
    out: list[FusionStrategy] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            strategy = FusionStrategy(token)
        except ValueError:
            valid = ", ".join(s.value for s in ALL_STRATEGIES)
            raise ValueError(f"unknown strategy {token!r}; valid: {valid}") from None
        if strategy not in out:
            out.append(strategy)
    if not out:
        raise ValueError("no strategies given")
    return tuple(out)


def _borda_points(matrix: np.ndarray) -> np.ndarray:
    # Rank 0 (highest score) earns C-1 points, the lowest rank earns 0.
    # Stable sort on the negated scores breaks score ties in favour of the
    # lower class index.
    n_samples, n_classes = matrix.shape
    order = np.argsort(-matrix, axis=1, kind="stable")
    points = np.empty((n_samples, n_classes), dtype=np.float64)
    descending = np.arange(n_classes - 1, -1, -1, dtype=np.float64)
    np.put_along_axis(points, order, np.broadcast_to(descending, (n_samples, n_classes)), axis=1)
    return points


def fuse(strategy: FusionStrategy, scores: Sequence) -> np.ndarray:
    """Combine per-modality score matrices into one fused score matrix.

    The fused rows are not renormalized to the simplex; only their argmax is
    meaningful downstream. Borda count returns summed rank points.
    """
    matrices = [as_matrix(s) for s in scores]
    if not matrices:
        raise ValueError("fuse needs at least one score matrix")
    shape = matrices[0].shape
    if any(m.shape != shape for m in matrices):
        raise ValueError("incompatible score matrices")
    stack = np.stack(matrices)
    if strategy is FusionStrategy.SUM:
        return stack.sum(axis=0)
    if strategy is FusionStrategy.SQUARED_SUM:
        return (stack * stack).sum(axis=0)
    if strategy is FusionStrategy.PRODUCT:
        return np.prod(stack, axis=0)
    if strategy is FusionStrategy.MAXIMUM:
        return stack.max(axis=0)
    if strategy is FusionStrategy.MEDIAN:
        return np.median(stack, axis=0)
    if strategy is FusionStrategy.BORDA_COUNT:
        points = _borda_points(matrices[0])
        for m in matrices[1:]:
            points += _borda_points(m)
        return points
    raise ValueError(f"unknown strategy {strategy!r}")


def predict(scores) -> LabelVector:
    """Argmax decision per row; ties go to the lowest class index."""
    matrix = as_matrix(scores)
    if matrix.shape[1] < 2:
        raise ValueError("prediction needs at least two classes")
    return LabelVector(np.argmax(matrix, axis=1))


def mpca(pred, truth, n_classes: int) -> float:
    """Mean-per-class accuracy.

    Averages, over the classes that occur in ``truth``, the fraction of that
    class's samples predicted correctly. Classes absent from ``truth`` are
    excluded from the mean.
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if truth.size == 0:
        raise ValueError("no samples")
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("prediction and truth must be 1-D vectors of equal length")
    if truth.min() < 0 or truth.max() >= n_classes:
        raise ValueError(f"truth labels outside [0, {n_classes})")
    if pred.min() < 0 or pred.max() >= n_classes:
        raise ValueError(f"predicted labels outside [0, {n_classes})")
    occurrences = np.bincount(truth, minlength=n_classes)
    correct = np.bincount(truth[pred == truth], minlength=n_classes)
    present = occurrences > 0
    return float(np.mean(correct[present] / occurrences[present]))


# A sweep fuses 2^M - 1 combinations; callers must opt in above this many modalities.
MAX_DEFAULT_UNIVERSE = 16


def thread_count() -> int:
    """Worker count for parallel sweeps, from MODSELECT_THREADS (default: all cores)."""
    raw = os.environ.get("MODSELECT_THREADS", "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"MODSELECT_THREADS must be an integer, got {raw!r}") from None
        return max(1, n)
    return os.cpu_count() or 1


def sweep(
    bundle: Bundle,
    strategies: Iterable[FusionStrategy] = ALL_STRATEGIES,
    allow_large: bool = False,
) -> AccuracyTable:
    """Evaluate every nonempty modality combination under every strategy.

    Singleton combinations involve no fusion, so they are evaluated once and
    replicated across strategies. Combinations may be evaluated on several
    threads (see MODSELECT_THREADS); the result is identical either way.
    More than ``MAX_DEFAULT_UNIVERSE`` modalities need ``allow_large=True``.
    """
    if bundle.labels is None:
        raise ValueError("sweep requires ground truth")
    if not bundle.modalities:
        raise ValueError("sweep needs at least one modality")
    n = len(bundle.modalities)
    if n > MAX_DEFAULT_UNIVERSE and not allow_large:
        raise ValueError(
            f"universe of {n} modalities needs 2^{n} - 1 combination evaluations; "
            "pass allow_large=True to proceed"
        )
    strategy_list = list(dict.fromkeys(strategies))
    if not strategy_list:
        raise ValueError("no strategies given")

    names = bundle.names
    matrices = {rec.name: rec.scores.values for rec in bundle.modalities}
    truth = bundle.labels.values
    n_classes = bundle.n_classes
    combos = all_combinations(names)

    def evaluate(combo: tuple[str, ...]) -> dict[FusionStrategy, float]:
        if len(combo) == 1:
            acc = mpca(predict(matrices[combo[0]]).values, truth, n_classes)
            return {s: acc for s in strategy_list}
        selected = [matrices[name] for name in combo]
        return {
            s: mpca(predict(fuse(s, selected)).values, truth, n_classes)
            for s in strategy_list
        }

    workers = thread_count()
    if workers > 1 and len(combos) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(evaluate, combos))
    else:
        rows = [evaluate(c) for c in combos]

    per_strategy = {(c, s.value): row[s] for c, row in zip(combos, rows) for s in strategy_list}
    return AccuracyTable.from_per_strategy(names, [s.value for s in strategy_list], per_strategy)
