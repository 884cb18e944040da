"""Rule-based late fusion of class scores and the exhaustive combination sweep."""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

import numpy as np

from .core import AccuracyTable, Bundle, LabelVector, as_matrix


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


# Per rule other than median: the term each member contributes to the fused
# scores, and the ufunc that folds a term into the scores so far. Folding
# left to right gives the same bits as numpy's reduction over a stack.
_FOLDS = {
    FusionStrategy.SUM: (np.asarray, np.add),
    FusionStrategy.SQUARED_SUM: (lambda m: m * m, np.add),
    FusionStrategy.PRODUCT: (np.asarray, np.multiply),
    FusionStrategy.MAXIMUM: (np.asarray, np.maximum),
    FusionStrategy.BORDA_COUNT: (_borda_points, np.add),
}


def _median(members: list[np.ndarray], rows: list[np.ndarray]) -> np.ndarray:
    # np.median over the k members, cell by cell, with the same bits. An
    # odd-even transposition network of k rounds sorts them: min and max
    # are exact and run on whole matrices, where numpy's sort along the
    # member axis makes one call per (sample, class) cell. min and max
    # propagate NaN, and k rounds carry it from any member to every row, so
    # a cell is NaN wherever a member is, as in np.median. The sort runs in
    # ``rows``, k + 1 matrices of the members' shape that share no memory
    # with them; the result is one of those rows.
    k = len(members)
    for i in range(0, k - 1, 2):  # round 0 reads the members, never writes them
        np.minimum(members[i], members[i + 1], out=rows[i])
        np.maximum(members[i], members[i + 1], out=rows[i + 1])
    if k % 2:
        np.copyto(rows[k - 1], members[k - 1])
    rows, spare = list(rows[:k]), rows[k]
    for r in range(1, k):
        for i in range(r % 2, k - 1, 2):
            np.minimum(rows[i], rows[i + 1], out=spare)
            np.maximum(rows[i], rows[i + 1], out=rows[i + 1])
            rows[i], spare = spare, rows[i]
    half = k // 2
    if k % 2:
        return rows[half]
    return np.divide(np.add(rows[half - 1], rows[half], out=spare), 2, out=spare)


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
    if strategy is FusionStrategy.MEDIAN:
        return _median(matrices, [np.empty(shape) for _ in range(len(matrices) + 1)])
    if strategy not in _FOLDS:
        raise ValueError(f"unknown strategy {strategy!r}")
    term, fold = _FOLDS[strategy]
    fused = np.array(term(matrices[0]))  # a copy, never the caller's matrix
    for m in matrices[1:]:
        fold(fused, term(m), out=fused)
    return fused


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
    return _mpca(pred, truth, occurrences, occurrences > 0)


def _mpca(pred: np.ndarray, truth: np.ndarray, occurrences: np.ndarray, present: np.ndarray) -> float:
    # mpca without the checks, given the per-class counts of ``truth`` and
    # the mask of the classes that occur. The sum over the count is np.mean
    # with the same bits.
    correct = np.bincount(truth[pred == truth], minlength=occurrences.size)
    rates = correct[present] / occurrences[present]
    return float(np.add.reduce(rates) / rates.size)


# A sweep fuses 2^M - 1 combinations; callers must opt in above this many modalities.
MAX_DEFAULT_UNIVERSE = 16


def sweep(
    bundle: Bundle,
    strategies: Iterable[FusionStrategy] = ALL_STRATEGIES,
    allow_large: bool = False,
) -> AccuracyTable:
    """Evaluate every nonempty modality combination under every strategy.

    Singleton combinations involve no fusion, so they are evaluated once and
    replicated across strategies. Each strategy walks the combinations depth
    first: a combination folds its last member's term (built once per rule)
    into its prefix's fused scores, with the same bits as ``fuse``; median
    sorts each combination's members anew. Both write into output matrices
    allocated once per rule, and one accuracy kernel scores every
    combination against class counts made once.
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
    matrices = [rec.scores.values for rec in bundle.modalities]
    truth, n_classes = bundle.labels.values, bundle.n_classes
    # The checked one-shot path scores the first modality, and so rejects
    # bad labels once; the kernel scores the rest against counts made once.
    first = mpca(predict(matrices[0]).values, truth, n_classes)
    occurrences = np.bincount(truth, minlength=n_classes)
    present = occurrences > 0
    picks = np.empty(truth.size, dtype=np.intp)

    def accuracy(scores: np.ndarray) -> float:
        return _mpca(np.argmax(scores, axis=1, out=picks), truth, occurrences, present)

    per_strategy = {}

    def extend(strategy: FusionStrategy, step, combo: tuple[int, ...], fused: np.ndarray) -> None:
        for longer in (combo + (last,) for last in range(combo[-1] + 1, n)):
            scores = step(fused, longer)
            per_strategy[(tuple(names[i] for i in longer), strategy.value)] = accuracy(scores)
            extend(strategy, step, longer, scores)

    for name, acc in zip(names, [first] + [accuracy(m) for m in matrices[1:]]):
        per_strategy.update({((name,), s.value): acc for s in strategy_list})
    # Each rule writes into output matrices allocated once for its walk, after
    # its terms are built, so that the terms' temporaries never sit on top of
    # them: median sorts k members in k + 1 of them, and a fold keeps the
    # fused scores of a combination of k members in rows[k - 2] while its
    # extensions are walked.
    shape = matrices[0].shape
    for strategy in strategy_list:
        if strategy is FusionStrategy.MEDIAN:
            terms, rows = matrices, [np.empty(shape) for _ in range(n + 1)]
            step = lambda _, combo: _median([matrices[i] for i in combo], rows)  # noqa: E731
        else:  # a member's term is its one-matrix fusion; the folds never write into their inputs
            term, fold = _FOLDS[strategy]
            terms = matrices if term is np.asarray else [fuse(strategy, [m]) for m in matrices]
            rows = [np.empty(shape) for _ in range(n - 1)]
            step = lambda fused, combo: fold(fused, terms[combo[-1]], out=rows[len(combo) - 2])  # noqa: E731
        for i in range(n - 1):  # the last modality has no later one to extend it
            extend(strategy, step, (i,), terms[i])
        del terms, rows, step  # one rule's terms and rows are live at a time
    return AccuracyTable.from_per_strategy(names, [s.value for s in strategy_list], per_strategy)
