"""Rule-based late fusion of class scores and the exhaustive combination sweep."""

from __future__ import annotations

import enum
import functools
import math
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


@functools.cache
def _median_network(k: int) -> tuple[tuple, tuple[int, ...]]:
    """The min and max calls that put the middle of k members on their wires.

    Knuth's merge-exchange sorting network (TAOCP 5.2.2, algorithm M),
    pruned to the outputs the middle wire(s) depend on: a comparator whose
    min (or max) output no kept comparator and no middle wire reads is not
    run, and neither is its other half. Returns ``(ops, middle)``: each op
    ``(ufunc, a, b, out)`` reads buffers ``a`` and ``b`` and writes ``out``,
    where buffers ``0 .. k-1`` are the members (never written) and ``k ..
    2k`` are k + 1 scratch rows; ``middle`` holds the buffer of the middle
    wire, or of the two middle wires when k is even.
    """
    pairs = []
    top = 1 << (k - 1).bit_length() >> 1  # 2^(t-1) for t = ceil(log2 k); 0 for k = 1
    p = top
    while p:
        q, r, d = top, 0, p
        while True:
            pairs.extend((i, i + d) for i in range(k - d) if i & p == r)
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    needed = {(k - 1) // 2, k // 2}
    kept = []
    for i, j in reversed(pairs):
        if i in needed or j in needed:
            kept.append((i, j, i in needed, j in needed))
            needed |= {i, j}
    # Each wire lives in one buffer; a comparator overwrites an input row it
    # owns, so the k + 1 rows hold every live wire plus one spare.
    wire, free, ops = list(range(k)), set(range(k, 2 * k + 1)), []

    def row() -> int:
        free.remove(fresh := min(free))
        return fresh

    for i, j, low, high in reversed(kept):
        a, b = wire[i], wire[j]
        owned = [x for x in (b, a) if x >= k]
        if low and high:
            wire[i] = row()  # min first, into a spare: both inputs are read again
            wire[j] = owned[0] if owned else row()
            ops += [(np.minimum, a, b, wire[i]), (np.maximum, a, b, wire[j])]
        else:  # the other output is read by no one: its wire is dead
            w, dead = (i, j) if low else (j, i)
            wire[w], wire[dead] = owned[0] if owned else row(), None
            ops.append((np.minimum if low else np.maximum, a, b, wire[w]))
        free.update(x for x in owned if x not in (wire[i], wire[j]))
    return tuple(ops), tuple(dict.fromkeys(wire[w] for w in ((k - 1) // 2, k // 2)))


def _median(members: list[np.ndarray], rows: list[np.ndarray]) -> np.ndarray:
    # np.median over the k members, cell by cell, with the same bits, but
    # for the sign of a zero: np.median never returns -0.0, this may (argmax
    # and equality do not tell the two apart). The pruned network of
    # _median_network runs min and max on whole matrices, where numpy's sort
    # along the member axis makes one call per cell. Min and max are exact
    # and propagate NaN, and every output of a sorting network depends on
    # every input, so a cell is NaN wherever a member is, as in np.median.
    # The network writes into ``rows``, k + 1 matrices of the members' shape
    # that share no memory with them; the result is one of those rows.
    if len(members) == 1:
        np.copyto(rows[0], members[0])
        return rows[0]
    ops, middle = _median_network(len(members))
    wires = [*members, *rows]
    for minmax, a, b, out in ops:
        minmax(wires[a], wires[b], out=wires[out])
    if len(middle) == 1:
        return wires[middle[0]]
    low, high = (wires[m] for m in middle)
    return np.divide(np.add(low, high, out=high), 2, out=high)


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
    return _mpca(pred == truth, truth, occurrences, occurrences > 0)


def _mpca(right: np.ndarray, truth: np.ndarray, occurrences: np.ndarray, present: np.ndarray) -> float:
    # mpca without the checks, given which samples are predicted right, the
    # per-class counts of ``truth`` and the mask of the classes that occur.
    # The sum over the count is np.mean with the same bits.
    correct = np.bincount(truth[right], minlength=occurrences.size)
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
    replicated across strategies. The sweep works on class-major (C x S)
    copies of each rule's member terms (the scores, their squares or their
    Borda points, built once per rule). Each strategy walks the combinations
    depth first: a combination folds its last member's term into its
    prefix's fused scores, with the same bits as ``fuse``; median runs the
    pruned sorting network of ``_median`` on each combination's members.
    Both write into output matrices allocated once per rule. Each
    combination is scored with whole-row operations and no argmax: a sample
    is right when its true class reaches the column maximum and no class
    before it ties that maximum, which is argmax's rule; a combination with
    a NaN maximum is scored by argmax itself.
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
    n_samples = truth.size
    at_truth = truth * n_samples + np.arange(n_samples)  # flat index of (truth[s], s)
    before = np.arange(n_classes)[:, None] < truth  # class c precedes sample s's true class
    best = np.empty(n_samples)
    right, tied = np.empty(n_samples, dtype=bool), np.empty(n_samples, dtype=bool)
    ties = np.empty((n_classes, n_samples), dtype=bool)

    def accuracy(scores: np.ndarray) -> float:
        np.maximum.reduce(scores, axis=0, out=best)
        if math.isnan(np.minimum.reduce(best)):  # argmax picks the first NaN
            return _mpca(np.argmax(scores, axis=0) == truth, truth, occurrences, present)
        np.equal(scores, best, out=ties)
        ties.take(at_truth, out=right)  # the true class reaches the maximum
        np.logical_and(ties, before, out=ties)
        np.logical_or.reduce(ties, axis=0, out=tied)  # a class before it does too
        return _mpca(np.greater(right, tied, out=right), truth, occurrences, present)  # right and not tied

    per_strategy = {}

    def extend(strategy: FusionStrategy, step, combo: tuple[int, ...], fused: np.ndarray) -> None:
        for longer in (combo + (last,) for last in range(combo[-1] + 1, n)):
            scores = step(fused, longer)
            per_strategy[(tuple(names[i] for i in longer), strategy.value)] = accuracy(scores)
            extend(strategy, step, longer, scores)

    # A rule writes into output matrices allocated once for its walk, after
    # its terms are built, so that the terms' temporaries never sit on top of
    # them: median sorts k members in k + 1 of them, and a fold keeps the
    # fused scores of a combination of k members in rows[k - 2] while its
    # extensions are walked. The folds and the network never write into
    # their inputs.
    shape = (n_classes, n_samples)

    def walk(strategy: FusionStrategy, terms: list[np.ndarray]) -> None:
        if strategy is FusionStrategy.MEDIAN:
            rows = [np.empty(shape) for _ in range(n + 1)]
            step = lambda _, combo: _median([terms[i] for i in combo], rows)  # noqa: E731
        else:
            fold = _FOLDS[strategy][1]
            rows = [np.empty(shape) for _ in range(n - 1)]
            step = lambda fused, combo: fold(fused, terms[combo[-1]], out=rows[len(combo) - 2])  # noqa: E731
        for i in range(n - 1):  # the last modality has no later one to extend it
            extend(strategy, step, (i,), terms[i])

    raw = [s for s in strategy_list if s is FusionStrategy.MEDIAN or _FOLDS[s][0] is np.asarray]
    for strategy in strategy_list:  # squares and Borda points first, before the scores' copies exist
        if strategy not in raw:  # a member's term is its one-matrix fusion
            walk(strategy, [np.ascontiguousarray(fuse(strategy, [m]).T) for m in matrices])
    columns = [np.ascontiguousarray(m.T) for m in matrices]
    for strategy in raw:
        walk(strategy, columns)
    for name, acc in zip(names, [first] + [accuracy(m) for m in columns[1:]]):
        per_strategy.update({((name,), s.value): acc for s in strategy_list})
    return AccuracyTable.from_per_strategy(names, [s.value for s in strategy_list], per_strategy)
