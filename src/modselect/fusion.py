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


def _middles(k: int) -> range:
    # The positions of the middle of k sorted members: one for an odd k, two for an even k.
    return range((k - 1) // 2, k // 2 + 1)


@functools.cache
def _median_network(k: int) -> tuple[tuple, tuple[tuple[int, int], ...]]:
    """The min and max calls that put the middle of k members on their wires.

    Knuth's merge-exchange sorting network (TAOCP 5.2.2, algorithm M),
    pruned to the outputs the kept positions depend on: a comparator whose
    min (or max) output no kept comparator and no kept position reads is
    not run, and neither is its other half. The kept positions are the
    middle of the k sorted members, one or two, and for an odd k also the
    middle's two neighbours, so that ``_clamp`` can place one more member
    into the middle of k + 1 (an even k's middle is what it needs already).
    Returns ``(ops, kept)``: each op ``(ufunc, a, b, out)`` reads buffers
    ``a`` and ``b`` and writes ``out``, where buffers ``0 .. k-1`` are the
    members (never written) and ``k .. 2k`` are k + 1 scratch rows;
    ``kept`` pairs each kept position, in order, with the buffer that holds
    it.
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
    outputs = set(range((k - 1) // 2 - k % 2, k // 2 + 1 + k % 2)) & set(range(k))
    needed, kept = set(outputs), []
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
    return tuple(ops), tuple((w, wire[w]) for w in sorted(outputs))


def _network(members: list[np.ndarray], rows: list[np.ndarray]) -> dict[int, np.ndarray]:
    # Runs _median_network on the k members, writing only into the first
    # k + 1 of ``rows`` (matrices of the members' shape that share no memory
    # with them), and returns each kept position's sorted values, cell by
    # cell. Min and max are exact and propagate NaN, and every output of a
    # sorting network depends on every input, so a kept position is NaN
    # wherever a member is.
    ops, kept = _median_network(len(members))
    wires = [*members, *rows]
    for minmax, a, b, out in ops:
        minmax(wires[a], wires[b], out=wires[out])
    return {j: wires[w] for j, w in kept}


def _clamp(s: dict[int, np.ndarray], x: np.ndarray, k: int, outs: list[np.ndarray]) -> list[np.ndarray]:
    # The middle of k + 1 members, one or two order statistics, from the
    # sorted positions ``s`` of k of them (_network's) and the last
    # member x: order statistic j of the k + 1 is max(s[j-1], min(s[j], x)),
    # with no min at j = k and no max at j = 0. Each goes into its own row
    # of ``outs``, which must not hold a position of ``s``.
    got = []
    for j, out in zip(_middles(k + 1), outs):
        v = np.minimum(s[j], x, out=out) if j < k else x
        got.append(np.maximum(s[j - 1], v, out=out) if j else v)
    return got


def _mean(middle: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    # np.median's value from the middle order statistic(s), with the same
    # bits but for the sign of a zero: np.median never returns -0.0, this
    # may; argmax and equality do not tell the two zeros apart. Two middles
    # are added and halved into ``out``, which may be one of them.
    if len(middle) == 1:
        return middle[0]
    return np.divide(np.add(*middle, out=out), 2, out=out)


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
    return _mpca(pred == truth, *_present(truth, n_classes))


def _present(truth: np.ndarray, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    # Each sample's index among the classes that occur in ``truth``, in
    # class order, and each such class's count of samples.
    occurrences = np.bincount(truth, minlength=n_classes)
    present = occurrences > 0
    return np.cumsum(present)[truth] - 1, occurrences[present]


def _mpca(right: np.ndarray, code: np.ndarray, counts: np.ndarray) -> float:
    # mpca without the checks, given which samples are predicted right and
    # _present's codes and counts. The hits are counted as float weights,
    # exact integers, so the rates keep their bits; the sum over the count
    # is np.mean with the same bits.
    rates = np.bincount(code, weights=right, minlength=counts.size) / counts
    return float(np.add.reduce(rates) / rates.size)


# A sweep fuses 2^M - 1 combinations; callers must opt in above this many modalities.
MAX_DEFAULT_UNIVERSE = 16


def _prefixes(run: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    # The prefixes the median walk sorts: the run's first member alone and
    # each combination of the run that does not end in the last modality
    # (the last member of the run's last combination). Each prefix's leaf,
    # the prefix plus the last modality, is scored from it.
    last = run[-1][-1]
    return [run[0][:1]] + [c for c in run if c[-1] != last]


def _run_cost(strategy: FusionStrategy, run: list[tuple[int, ...]]) -> int:
    # The work of one run of a rule's walk, in passes over a C x S matrix.
    # Each combination is scored once, which counts as 6 passes (max.reduce,
    # equal, take, the tie count and the per-class hits), and fused: a fold
    # step is 1 pass, and squared sum squares each step's new member (1 more
    # pass) and the run's first member. A Borda combination, whose add and
    # scoring run on small integers, counts 4 in all. The median walk's
    # float64 calls count 2 each: per prefix of k members, the min and max
    # calls of its network and of its leaf's clamps, and one add and
    # halving of two middles, the prefix's (even k) or its leaf's (odd k).
    # With these weights each rule's walk took 4.3-5.5 us per counted pass
    # on one CPU (C x S = 20 000, M = 8), where the walks count 1729 passes
    # per fold rule, 1983 for squared sum, 988 for Borda and 4794 for median.
    if strategy is FusionStrategy.MEDIAN:
        cost = 0
        for k in map(len, _prefixes(run)):
            clamps = sum((j < k) + (j > 0) for j in _middles(k + 1))
            cost += 2 * (len(_median_network(k)[0]) + clamps + 2) + 6 * (1 + (k > 1))
        return cost
    if strategy is FusionStrategy.SQUARED_SUM:
        return 8 * len(run) + 1
    if strategy is FusionStrategy.BORDA_COUNT:
        return 4 * len(run)
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
    last member's term into its prefix's fused scores, with the same bits
    as ``fuse`` but for the sign of a zero, in float64; squared sum squares
    each new member into a spare row as it goes. Borda's sums are whole
    numbers up to n * (C - 1), so they are folded and scored in the
    narrowest unsigned type that holds that instead, which gives the argmax
    and the ties of their exact float64 values. Median sorts the middle of
    each combination that does not end in the last modality, and for an odd
    size the middle's two neighbours, with the pruned network of
    ``_median_network``; the leaf that adds the last modality takes its
    middle from those positions by one or two clamps (``_clamp``), so half
    the combinations run no network of their own. All of these write into
    n + 1 output matrices that each process allocates once; Borda's integer
    sums use their memory.
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
    code, counts = _present(truth, n_classes)
    n_samples = truth.size
    at_truth = truth * n_samples + np.arange(n_samples)  # flat index of (truth[s], s)
    before = np.arange(n_classes)[:, None] < truth  # class c precedes sample s's true class
    # Borda's sums are whole numbers up to n * (C - 1), held in the narrowest
    # unsigned type that fits them; a combination's maximum is found in its
    # scores' own type.
    sums = np.min_scalar_type(n * (n_classes - 1))
    best = {np.dtype(np.float64): np.empty(n_samples), sums: np.empty(n_samples, dtype=sums)}
    right, tied = np.empty(n_samples, dtype=bool), np.empty(n_samples, dtype=bool)
    ties = np.empty((n_classes, n_samples), dtype=bool)

    def accuracy(scores: np.ndarray) -> float:
        top = np.maximum.reduce(scores, axis=0, out=best[scores.dtype])
        if top.dtype.kind == "f" and math.isnan(np.minimum.reduce(top)):  # argmax picks the first NaN
            return _mpca(np.argmax(scores, axis=0) == truth, code, counts)
        np.equal(scores, top, out=ties)
        ties.take(at_truth, out=right)  # the true class reaches the maximum
        if np.count_nonzero(ties) > n_samples:  # some sample's maximum is tied
            np.logical_and(ties, before, out=ties)
            np.logical_or.reduce(ties, axis=0, out=tied)  # a class before it does too
            np.greater(right, tied, out=right)  # right and not tied
        return _mpca(right, code, counts)

    # The walks write into output matrices that each process allocates once,
    # on first use. A fold keeps the fused scores of a combination of k
    # members in rows[k - 2] while its extensions are walked, and squared sum
    # squares each new member into rows[n]; Borda folds its sums in an
    # integer view of the same rows. The median walk sorts a prefix of k
    # members in k + 1 rows and finds its leaf's middle in rows that hold
    # none of the prefix's kept positions. The walks never write into their
    # inputs.
    shape, rows = (n_classes, n_samples), []

    def median_walk(terms: list[np.ndarray], run: list[tuple[int, ...]]) -> list[float]:
        x, accuracies = terms[n - 1], {}
        for prefix in _prefixes(run):
            k = len(prefix)
            s = _network([terms[i] for i in prefix], rows)
            spare = [r for r in rows if all(r is not v for v in s.values())]
            if k > 1:
                accuracies[prefix] = accuracy(_mean([s[j] for j in _middles(k)], spare[0]))
            leaf = _clamp(s, x, k, spare)
            accuracies[prefix + (n - 1,)] = accuracy(_mean(leaf, leaf[-1]))
        return [accuracies[c] for c in run]

    def walk(strategy: FusionStrategy, terms: list[np.ndarray], run: list[tuple[int, ...]]) -> list[float]:
        if not rows:
            rows.extend(np.empty(shape) for _ in range(n + 1))
        if strategy is FusionStrategy.MEDIAN:
            return median_walk(terms, run)
        fold, accuracies, outs = _FOLDS[strategy], [], rows
        square = strategy is FusionStrategy.SQUARED_SUM
        if strategy is FusionStrategy.BORDA_COUNT:
            outs = [r.reshape(-1).view(sums)[: r.size].reshape(shape) for r in rows]
        for combo in run:
            out, term = outs[len(combo) - 2], terms[combo[-1]]
            prefix = terms[combo[0]] if len(combo) == 2 else outs[len(combo) - 3]
            if square:  # fuse's term m * m, for a run's first member too
                if len(combo) == 2:
                    prefix = np.multiply(prefix, prefix, out=out)
                term = np.multiply(term, term, out=rows[n])
            # In the output row's type: two uint8 Borda terms would
            # otherwise add in uint8 and wrap.
            accuracies.append(accuracy(fold(prefix, term, out=out, dtype=out.dtype)))
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
