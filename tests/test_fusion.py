import itertools
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modselect import ALL_STRATEGIES, FusionStrategy, fuse, mpca, predict, sweep
from modselect.fusion import _median_network, parse_strategies

from conftest import make_bundle, simplex_rows


# --- independent pure-python oracles -------------------------------------


def brute_fuse(token, matrices):
    rows = [np.asarray(m).tolist() for m in matrices]
    n_samples, n_classes = len(rows[0]), len(rows[0][0])
    out = []
    for s in range(n_samples):
        row = []
        for c in range(n_classes):
            values = [m[s][c] for m in rows]
            if token == "sum":
                row.append(sum(values))
            elif token == "sqsum":
                row.append(sum(v * v for v in values))
            elif token == "product":
                row.append(math.prod(values))
            elif token == "max":
                row.append(max(values))
            elif token == "median":
                row.append(statistics.median(values))
        if token == "borda":
            row = [0.0] * n_classes
            for m in rows:
                ranking = sorted(range(n_classes), key=lambda c: (-m[s][c], c))
                for rank, c in enumerate(ranking):
                    row[c] += n_classes - 1 - rank
        out.append(row)
    return np.array(out)


def brute_mpca(pred, truth, n_classes):
    recalls = []
    for c in range(n_classes):
        idx = [i for i, t in enumerate(truth) if t == c]
        if not idx:
            continue
        recalls.append(sum(1 for i in idx if pred[i] == c) / len(idx))
    return sum(recalls) / len(recalls)


# --- micro examples --------------------------------------------------------


def test_product_two_class_example():
    fused = fuse(FusionStrategy.PRODUCT, [np.array([[0.6, 0.4]]), np.array([[0.3, 0.7]])])
    assert fused[0] == pytest.approx([0.18, 0.28])
    assert predict(fused).values[0] == 1


def test_borda_three_class_example():
    fused = fuse(
        FusionStrategy.BORDA_COUNT,
        [np.array([[0.5, 0.3, 0.2]]), np.array([[0.1, 0.6, 0.3]])],
    )
    assert np.array_equal(fused[0], [2.0, 3.0, 1.0])
    assert predict(fused).values[0] == 1


def test_sum_of_identical_matrices_preserves_argmax(rng):
    scores = simplex_rows(rng, 20, 4)
    fused = fuse(FusionStrategy.SUM, [scores, scores])
    assert np.array_equal(predict(fused).values, predict(scores).values)


def test_fuse_shape_mismatch():
    with pytest.raises(ValueError, match="incompatible score matrices"):
        fuse(FusionStrategy.SUM, [np.zeros((2, 3)), np.zeros((2, 4))])


def test_fuse_empty_input():
    with pytest.raises(ValueError, match="at least one"):
        fuse(FusionStrategy.SUM, [])


def test_predict_tie_goes_to_lowest_index():
    scores = np.array([[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]])
    assert np.array_equal(predict(scores).values, [1, 0, 0])


def test_predict_borda_points_row():
    assert predict(np.array([[2.0, 3.0, 1.0]])).values[0] == 1


def test_parse_strategies():
    assert parse_strategies("sum,borda") == (FusionStrategy.SUM, FusionStrategy.BORDA_COUNT)
    assert parse_strategies("sum,sum") == (FusionStrategy.SUM,)
    with pytest.raises(ValueError, match="unknown strategy"):
        parse_strategies("sum,softvote")
    with pytest.raises(ValueError, match="no strategies"):
        parse_strategies(",")


# --- mpca -------------------------------------------------------------------


def test_mpca_identity_is_one():
    assert mpca([0, 1, 2, 1], [0, 1, 2, 1], 3) == 1.0


def test_mpca_hand_example():
    assert mpca([0, 0, 0], [0, 0, 1], 2) == pytest.approx(0.5)


def test_mpca_absent_class_excluded():
    assert mpca([0, 0], [0, 0], 2) == 1.0


def test_mpca_errors():
    with pytest.raises(ValueError, match="no samples"):
        mpca([], [], 2)
    with pytest.raises(ValueError, match="outside"):
        mpca([0, 3], [0, 1], 2)


def test_mpca_uniform_random_near_chance():
    n_classes, per_class = 5, 1200
    truth = np.repeat(np.arange(n_classes), per_class)
    pred = np.random.default_rng(5).integers(0, n_classes, truth.size)
    got = mpca(pred, truth, n_classes)
    # 3 sigma for the mean of per-class binomial recalls
    sigma = math.sqrt((1 / n_classes) * (1 / n_classes) * (1 - 1 / n_classes) / per_class)
    assert abs(got - 1 / n_classes) < 3 * sigma


@given(
    pred=arrays(np.int64, st.integers(5, 40), elements=st.integers(0, 3)),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_mpca_matches_oracle_and_bounds(pred, seed):
    truth = np.random.default_rng(seed).integers(0, 4, pred.size)
    got = mpca(pred, truth, 4)
    assert 0.0 <= got <= 1.0
    assert got == pytest.approx(brute_mpca(pred.tolist(), truth.tolist(), 4), abs=1e-12)


# --- fuse properties ---------------------------------------------------------


# Scores on a dyadic grid: sums, squares and up-to-4-way products of k/16
# are exact in float64, so order-based properties can be asserted exactly.
_small_matrix = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(2, 5)),
    elements=st.integers(0, 16).map(lambda k: k / 16.0),
)


@given(matrix=_small_matrix, copies=st.integers(1, 4), strategy=st.sampled_from(ALL_STRATEGIES))
@settings(max_examples=80, deadline=None)
def test_fusing_copies_preserves_argmax(matrix, copies, strategy):
    fused = fuse(strategy, [matrix] * copies)
    assert np.array_equal(predict(fused).values, predict(matrix).values)


@given(
    matrices=st.lists(_small_matrix, min_size=2, max_size=4),
    seed=st.integers(0, 2**16),
    strategy=st.sampled_from(ALL_STRATEGIES),
)
@settings(max_examples=80, deadline=None)
def test_fuse_permutation_symmetry(matrices, seed, strategy):
    shape = matrices[0].shape
    matrices = [np.resize(m, shape) for m in matrices]
    perm = list(np.random.default_rng(seed).permutation(len(matrices)))
    base = fuse(strategy, matrices)
    permuted = fuse(strategy, [matrices[i] for i in perm])
    assert np.array_equal(base, permuted)


@given(matrices=st.lists(_small_matrix, min_size=1, max_size=3), seed=st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_borda_invariant_under_monotone_transform(matrices, seed):
    shape = matrices[0].shape
    matrices = [np.resize(m, shape) for m in matrices]
    transforms = [lambda x: x**3, lambda x: 2.0 * x + 1.0, np.exp, np.arctan]
    rng = np.random.default_rng(seed)
    which = int(rng.integers(len(matrices)))
    transform = transforms[int(rng.integers(len(transforms)))]
    altered = list(matrices)
    altered[which] = transform(matrices[which])
    assert np.array_equal(
        fuse(FusionStrategy.BORDA_COUNT, matrices),
        fuse(FusionStrategy.BORDA_COUNT, altered),
    )


@given(strategy=st.sampled_from(ALL_STRATEGIES), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_fuse_matches_bruteforce(strategy, seed):
    rng = np.random.default_rng(seed)
    matrices = [rng.random((4, 3)) for _ in range(int(rng.integers(1, 4)))]
    got = fuse(strategy, matrices)
    want = brute_fuse(strategy.value, matrices)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


# --- sweep -------------------------------------------------------------------


def _labelled_bundle(rng, n_modalities=3, n_samples=40, n_classes=4):
    labels = rng.integers(0, n_classes, n_samples)
    return make_bundle(
        [simplex_rows(rng, n_samples, n_classes) for _ in range(n_modalities)],
        labels=labels,
    )


def test_sweep_requires_labels(rng):
    bundle = make_bundle([simplex_rows(rng, 5, 3)])
    with pytest.raises(ValueError, match="sweep requires ground truth"):
        sweep(bundle)


def test_sweep_counts(rng):
    bundle = _labelled_bundle(rng, n_modalities=5)
    table = sweep(bundle)
    assert len(table.combinations()) == 31
    assert table.values.shape == (31, 6)
    assert table.strategies == tuple(s.value for s in ALL_STRATEGIES)


def test_sweep_single_modality_equals_unimodal_mpca(rng):
    bundle = _labelled_bundle(rng, n_modalities=1)
    table = sweep(bundle)
    expected = mpca(
        predict(bundle.modalities[0].scores).values, bundle.labels.values, bundle.n_classes
    )
    for s in table.strategies:
        assert table.value(bundle.names, s) == expected
    assert table.value(bundle.names) == expected


def test_sweep_matches_bruteforce(rng):
    bundle = _labelled_bundle(rng, n_modalities=3, n_samples=60)
    table = sweep(bundle)
    truth = bundle.labels.values.tolist()
    mats = {rec.name: rec.scores.values for rec in bundle.modalities}
    for size in range(1, 4):
        for combo in itertools.combinations(bundle.names, size):
            for strategy in ALL_STRATEGIES:
                fused = brute_fuse(strategy.value, [mats[n] for n in combo])
                pred = [int(np.argmax(row)) for row in fused]
                want = brute_mpca(pred, truth, bundle.n_classes)
                assert table.value(combo, strategy.value) == pytest.approx(want, abs=1e-12)


def _tied_scores(rng, n_samples, n_classes):
    # Rounded to two decimals, so scores often tie within a row and across modalities.
    return np.round(simplex_rows(rng, n_samples, n_classes), 2)


@pytest.mark.parametrize("n_modalities", range(1, 10))
def test_sweep_equals_one_shot_fusion(n_modalities):
    # Odd and even combination sizes up to 9, tied scores and shuffled rule
    # subsets: folding each member's term into the prefix must give the same
    # bits as fusing each combination anew.
    rng = np.random.default_rng(n_modalities)
    subsets = [parse_strategies("borda,max")]
    subsets += [list(rng.permutation(ALL_STRATEGIES))[: int(rng.integers(1, 7))] for _ in range(2)]
    for strategies in subsets:
        n_samples, n_classes = int(rng.integers(10, 60)), int(rng.integers(2, 6))
        labels = rng.integers(0, n_classes, n_samples)
        scores = [_tied_scores(rng, n_samples, n_classes) for _ in range(n_modalities)]
        bundle = make_bundle(scores, labels=labels)
        table = sweep(bundle, strategies)
        assert table.strategies == tuple(s.value for s in strategies)
        want = np.empty(table.values.shape)
        for row, combo in enumerate(table.combinations()):
            selected = [bundle.get(name).scores.values for name in combo]
            for col, s in enumerate(strategies):
                fused = selected[0] if len(combo) == 1 else fuse(s, selected)
                want[row, col] = mpca(predict(fused).values, labels, n_classes)
        assert np.array_equal(table.values, want)


def test_sweep_with_an_absent_class_equals_one_shot_mpca():
    # Class 3 never occurs in the labels, so every mean skips it.
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, 40)
    scores = [_tied_scores(rng, 40, 4) for _ in range(4)]
    bundle = make_bundle(scores, labels=labels)
    table = sweep(bundle)
    for row, combo in enumerate(table.combinations()):
        selected = [bundle.get(name).scores.values for name in combo]
        for col, s in enumerate(ALL_STRATEGIES):
            fused = selected[0] if len(combo) == 1 else fuse(s, selected)
            assert table.values[row, col] == mpca(predict(fused).values, labels, 4)


def test_sweep_over_nan_and_inf_scores_equals_one_shot_fusion():
    # An unvalidated bundle, built directly. A NaN at a sample's true class
    # comes first, so argmax picks it and scores the sample right; other
    # rows hold a NaN before the true class, +inf ties and rows of -inf.
    rng = np.random.default_rng(8)
    n_samples, n_classes = 60, 4
    labels = rng.integers(0, n_classes, n_samples)
    scores = []
    for m in range(4):
        x = simplex_rows(rng, n_samples, n_classes)
        rows = np.arange(m, n_samples - 5, 6)
        x[rows, labels[rows]] = np.nan
        x[rows + 1, 0] = x[rows + 1, 2] = np.nan
        x[rows + 2, labels[rows + 2]] = x[rows + 2, 3] = np.inf
        x[rows + 3, 1] = -np.inf
        x[rows + 4] = -np.inf
        scores.append(x)
    bundle = make_bundle(scores, labels=labels)
    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf make NaN
        table = sweep(bundle)
        want = np.empty(table.values.shape)
        for row, combo in enumerate(table.combinations()):
            selected = [bundle.get(name).scores.values for name in combo]
            for col, s in enumerate(ALL_STRATEGIES):
                fused = selected[0] if len(combo) == 1 else fuse(s, selected)
                want[row, col] = mpca(predict(fused).values, labels, n_classes)
    assert np.array_equal(table.values, want)


def test_back_to_back_sweeps_are_bit_identical(rng):
    bundle = _labelled_bundle(rng, n_modalities=6, n_samples=50)
    first, second = sweep(bundle), sweep(bundle)
    assert first.values.tobytes() == second.values.tobytes()


@pytest.mark.parametrize("k", range(1, 10))
def test_fuse_shares_no_memory_with_its_inputs(k):
    rng = np.random.default_rng(k)
    xs = [rng.random((6, 3)) for _ in range(k)]
    for strategy in ALL_STRATEGIES:
        fused = fuse(strategy, xs)
        assert not any(np.shares_memory(fused, x) for x in xs), strategy


@pytest.mark.parametrize("k", range(1, 12))
def test_fuse_matches_numpy_reductions_bit_for_bit(k):
    # The fold reproduces the stack reductions the rules are defined by.
    rng = np.random.default_rng(k)
    xs = [rng.random((25, 4)) for _ in range(k)]
    stack = np.stack(xs)
    want = {
        FusionStrategy.SUM: stack.sum(axis=0),
        FusionStrategy.SQUARED_SUM: (stack * stack).sum(axis=0),
        FusionStrategy.PRODUCT: np.prod(stack, axis=0),
        FusionStrategy.MAXIMUM: stack.max(axis=0),
        FusionStrategy.MEDIAN: np.median(stack, axis=0),
    }
    for strategy, expected in want.items():
        assert np.array_equal(fuse(strategy, xs), expected), strategy
    assert all(np.array_equal(x, y) for x, y in zip(xs, stack))  # inputs untouched


@pytest.mark.parametrize("k", range(1, 17))
def test_median_network_puts_the_middle_on_its_wires(k):
    # The 0-1 principle: a comparator network that puts the middle of every
    # 0/1 input on its middle wire(s) does so for every input. All 2^k
    # inputs run at once, one column each.
    bits = (np.arange(1 << k)[None, :] >> np.arange(k)[:, None]) & 1
    ops, middle = _median_network(k)
    assert all(out >= k for *_, out in ops)  # members are never written
    assert max((out for *_, out in ops), default=k) <= 2 * k  # k + 1 rows suffice
    wires = [*bits.astype(np.uint8), *np.empty((k + 1, 1 << k), dtype=np.uint8)]
    for minmax, a, b, out in ops:
        minmax(wires[a], wires[b], out=wires[out])
    got = np.array([wires[m] for m in middle])
    assert np.array_equal(got, np.sort(bits, axis=0)[sorted({(k - 1) // 2, k // 2})])


@pytest.mark.parametrize("k", range(1, 13))
def test_median_of_nan_and_inf_matches_numpy(k):
    rng = np.random.default_rng(k)
    xs = [rng.random((k + 4, 3)) for _ in range(k)]
    for member in range(k):  # a NaN in each member, one row each
        xs[member][member, member % 3] = np.nan
    xs[0][k, :] = np.nan
    xs[-1][k + 1, 0], xs[0][k + 1, 1], xs[-1][k + 1, 1] = np.inf, -np.inf, np.inf
    with np.errstate(invalid="ignore"):  # both add inf and -inf for the even k
        got = fuse(FusionStrategy.MEDIAN, xs)
        want = np.median(np.stack(xs), axis=0)
    assert np.array_equal(got, want, equal_nan=True)
    assert all(np.isnan(got[m, m % 3]) for m in range(k)) and np.isnan(got[k]).all()


def test_single_matrix_fusion_is_a_copy():
    matrix = np.array([[0.25, 0.75], [0.5, 0.5]])
    for strategy in ALL_STRATEGIES:
        fused = fuse(strategy, [matrix])
        fused[...] = 0.0
        assert matrix[0, 1] == 0.75, strategy
