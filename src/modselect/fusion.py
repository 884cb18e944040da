"""Rule-based late fusion of class scores and the exhaustive combination sweep."""

from __future__ import annotations

import enum
import functools
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .core import AccuracyTable, Bundle, LabelVector, as_matrix
from .parallel import _each


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


# Per rule other than median, the ufunc with which the sweep folds a
# member's term into its prefix's fused scores: a left fold gives the bits of
# numpy's reduction over a stack, but for the sign of a zero.
_FOLDS = {
    FusionStrategy.SUM: np.add,
    FusionStrategy.SQUARED_SUM: np.add,
    FusionStrategy.PRODUCT: np.multiply,
    FusionStrategy.MAXIMUM: np.maximum,
    FusionStrategy.BORDA_COUNT: np.add,
}

# Each rule's definition: numpy's reduction over the stacked members.
_REDUCTIONS = {
    FusionStrategy.SUM: lambda stack: stack.sum(axis=0),
    FusionStrategy.SQUARED_SUM: lambda stack: (stack * stack).sum(axis=0),
    FusionStrategy.PRODUCT: lambda stack: np.prod(stack, axis=0),
    FusionStrategy.MAXIMUM: lambda stack: stack.max(axis=0),
    FusionStrategy.MEDIAN: lambda stack: np.median(stack, axis=0),
    FusionStrategy.BORDA_COUNT: lambda stack: sum(_borda_points(m) for m in stack),
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
    # np.median over the k >= 2 members, cell by cell, with the same bits,
    # but for the sign of a zero: np.median never returns -0.0, this may;
    # argmax and equality do not tell the two zeros apart. The pruned network
    # of _median_network runs min and max on whole matrices, where numpy's
    # sort along the member axis makes one call per cell. Min and max are
    # exact and propagate NaN, and every output of a sorting network depends
    # on every input, so a cell is NaN wherever a member is, as in np.median.
    # The network writes into ``rows``, k + 1 matrices of the members' shape
    # that share no memory with them; the result is one of those rows.
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

    Each rule is numpy's reduction over the stacked members: their sum, the
    sum of their squares, their product, maximum or median, and for Borda
    count the sum of each member's rank points. The fused rows are not
    renormalized to the simplex; only their argmax is meaningful downstream.
    """
    matrices = [as_matrix(s) for s in scores]
    if not matrices:
        raise ValueError("fuse needs at least one score matrix")
    if any(m.shape != matrices[0].shape for m in matrices):
        raise ValueError("incompatible score matrices")
    if strategy not in _REDUCTIONS:
        raise ValueError(f"unknown strategy {strategy!r}")
    return _REDUCTIONS[strategy](np.stack(matrices))


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
    # The hits are counted as float weights, exact integers, so the rates
    # keep their bits; the sum over the count is np.mean with the same bits.
    correct = np.bincount(truth, weights=right, minlength=occurrences.size)
    rates = correct[present] / occurrences[present]
    return float(np.add.reduce(rates) / rates.size)


# A sweep fuses 2^M - 1 combinations; callers must opt in above this many modalities.
MAX_DEFAULT_UNIVERSE = 16


def _run_cost(strategy: FusionStrategy, run: list[tuple[int, ...]]) -> int:
    # The work of one run of a rule's walk, in passes over a C x S matrix.
    # Each combination is scored once, which counts as 6 passes (max.reduce,
    # equal, take, the tie count and the per-class hits), and fused: a fold
    # step is 1 pass, and squared sum squares each step's new member (1 more
    # pass) and the run's first member; a median of k members costs the min
    # and max calls of its network, plus the add and the halving of the two
    # middles of an even k. At M = 8 that gives 247 * 7 = 1729 passes for a
    # fold walk and 4012 for the median walk, 2.32 times as many; the median
    # walk measured 2.3-2.5 times a fold walk.
    if strategy is FusionStrategy.MEDIAN:
        networks = (_median_network(len(combo)) for combo in run)
        return sum(6 + len(ops) + 2 * (len(middle) - 1) for ops, middle in networks)
    if strategy is FusionStrategy.SQUARED_SUM:
        return 8 * len(run) + 1
    return 7 * len(run)


def sweep(
    bundle: Bundle,
    strategies: Iterable[FusionStrategy] = ALL_STRATEGIES,
    allow_large: bool = False,
) -> AccuracyTable:
    """Evaluate every nonempty modality combination under every strategy.

    Singleton combinations involve no fusion, so they are evaluated once and
    replicated across strategies. The sweep works on one class-major (C x S)
    float64 copy of each modality's scores, plus, for Borda, each member's
    points in the narrowest unsigned integer type that holds C - 1. Each
    strategy walks the combinations depth first: a combination folds its
    last member's term into its prefix's fused scores, in float64, with the
    same bits as ``fuse`` but for the sign of a zero; squared sum squares
    each new member into a spare row as it goes. Median runs the pruned
    sorting network of ``_median`` on each combination's members.
    Both write into n + 1 output matrices that each process allocates once.
    Each combination is scored with whole-row operations and no argmax: a
    sample is right when its true class reaches the column maximum and no
    class before it ties that maximum, which is argmax's rule (the tie test
    runs only where some maximum is reached twice); a combination with a
    NaN maximum is scored by argmax itself.
    Borda's points are built in the calling process. In lexicographic order
    the combinations that start with modality i are one run, which begins
    at (i, i + 1) with ``terms[i]`` as its prefix, so the runs share no
    state.
    Each (rule, run) pair is one item for ``parallel._each``, which deals
    the items over the CPUs the process may use by their counted cost
    (``_run_cost``), so that each CPU walks a like share; a forked child
    sends back one list of accuracies per item. On one CPU (``taskset -c
    0``) the items run one after another in this process. Either way the
    table holds the same bits.
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
        if np.count_nonzero(ties) > n_samples:  # some sample's maximum is tied
            np.logical_and(ties, before, out=ties)
            np.logical_or.reduce(ties, axis=0, out=tied)  # a class before it does too
            np.greater(right, tied, out=right)  # right and not tied
        return _mpca(right, truth, occurrences, present)

    # The walks write into output matrices that each process allocates once,
    # on first use: median sorts k members in k + 1 of them, and a fold keeps
    # the fused scores of a combination of k members in rows[k - 2] while its
    # extensions are walked, and squared sum squares each new member into
    # rows[n]. The folds and the network never write into their inputs.
    shape, rows = (n_classes, n_samples), []

    def walk(strategy: FusionStrategy, terms: list[np.ndarray], run: list[tuple[int, ...]]) -> list[float]:
        if not rows:
            rows.extend(np.empty(shape) for _ in range(n + 1))
        if strategy is FusionStrategy.MEDIAN:
            return [accuracy(_median([terms[i] for i in combo], rows)) for combo in run]
        fold, accuracies = _FOLDS[strategy], []
        square = strategy is FusionStrategy.SQUARED_SUM
        for combo in run:
            out, term = rows[len(combo) - 2], terms[combo[-1]]
            prefix = terms[combo[0]] if len(combo) == 2 else rows[len(combo) - 3]
            if square:  # fuse's term m * m, for a run's first member too
                if len(combo) == 2:
                    prefix = np.multiply(prefix, prefix, out=out)
                term = np.multiply(term, term, out=rows[n])
            # In float64 whatever the terms' type: two uint8 Borda terms
            # would otherwise add in uint8 and wrap.
            accuracies.append(accuracy(fold(prefix, term, out=out, dtype=np.float64)))
        return accuracies

    # Borda's points are built here, before any fork, so that the calls to
    # fuse are made in the calling process, and before the scores' copies
    # exist. They are whole numbers below C, held in the narrowest unsigned
    # type that fits (uint8 up to C = 256); every other rule's terms are the
    # scores' copies themselves.
    terms, borda = {}, FusionStrategy.BORDA_COUNT
    if borda in strategy_list:
        points = np.min_scalar_type(matrices[0].shape[1] - 1)
        terms[borda] = [fuse(borda, [m]).T.astype(points, order="C") for m in matrices]
    columns = [np.ascontiguousarray(m.T) for m in matrices]
    # Depth first, which is lexicographic order: a combination comes after
    # its prefix, and the combinations in between are longer than the
    # prefix, so the prefix's fused scores are still in their row.
    combos = sorted(c for k in range(2, n + 1) for c in itertools.combinations(range(n), k))
    # One run per first member i: it begins at (i, i + 1), whose prefix is
    # terms[i], so a run reads no row that another run wrote.
    runs = [list(run) for _, run in itertools.groupby(combos, key=lambda c: c[0])]
    keys = {c: tuple(names[i] for i in c) for c in combos}
    items = [(s, terms.get(s, columns), run) for s in strategy_list for run in runs]
    walked = _each(walk, items, [_run_cost(s, run) for s, _, run in items])
    per_strategy = {}
    for (strategy, _, run), accuracies in zip(items, walked):
        per_strategy.update(zip([(keys[c], strategy.value) for c in run], accuracies))
    for name, acc in zip(names, [first] + [accuracy(m) for m in columns[1:]]):
        per_strategy.update({((name,), s.value): acc for s in strategy_list})
    return AccuracyTable.from_per_strategy(names, [s.value for s in strategy_list], per_strategy)
