import gc
import itertools
import math
import os
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modselect import ALL_STRATEGIES, FusionStrategy, fusion, fuse, mpca, predict, sweep
from modselect.fusion import (
    _FOLDS,
    _borda_points,
    _clamp,
    _mean,
    _median_network,
    _middles,
    _network,
    _present,
    _run_cost,
    parse_strategies,
)
from modselect.parallel import _deal

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


def test_present_codes_each_sample_among_the_classes_that_occur():
    code, counts = _present(np.array([3, 0, 3, 5, 0, 0]), 7)
    assert code.tolist() == [1, 0, 1, 2, 0, 0]
    assert counts.tolist() == [3, 2, 1]


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


def _one_shot(bundle, strategies=ALL_STRATEGIES):
    # The table of fusing each combination anew with fuse and scoring it with mpca.
    labels, n_classes = bundle.labels.values, bundle.n_classes
    combos = [c for k in range(1, len(bundle.names) + 1) for c in itertools.combinations(bundle.names, k)]
    want = np.empty((len(combos), len(strategies)))
    for row, combo in enumerate(combos):
        selected = [bundle.get(name).scores.values for name in combo]
        for col, s in enumerate(strategies):
            fused = selected[0] if len(combo) == 1 else fuse(s, selected)
            want[row, col] = mpca(predict(fused).values, labels, n_classes)
    return combos, want


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
        combos, want = _one_shot(bundle, strategies)
        assert list(table.combinations()) == combos
        assert np.array_equal(table.values, want)


def test_sweep_with_an_absent_class_equals_one_shot_mpca():
    # Class 3 never occurs in the labels, so every mean skips it.
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, 40)
    scores = [_tied_scores(rng, 40, 4) for _ in range(4)]
    bundle = make_bundle(scores, labels=labels)
    table = sweep(bundle)
    combos, want = _one_shot(bundle)
    assert list(table.combinations()) == combos
    assert np.array_equal(table.values, want)


def _nan_and_inf_bundle():
    # An unvalidated bundle, built directly. A NaN at a sample's true class
    # comes first, so argmax picks it and scores the sample right; other
    # rows hold a NaN before the true class, +inf ties and rows of -inf. Six
    # modalities, so that the median walk's leaves clamp the last one into
    # prefixes of 1 to 5 members, of both parities.
    rng = np.random.default_rng(8)
    n_samples, n_classes = 60, 4
    labels = rng.integers(0, n_classes, n_samples)
    scores = []
    for m in range(6):
        x = simplex_rows(rng, n_samples, n_classes)
        rows = np.arange(m, n_samples - 5, 6)
        x[rows, labels[rows]] = np.nan
        x[rows + 1, 0] = x[rows + 1, 2] = np.nan
        x[rows + 2, labels[rows + 2]] = x[rows + 2, 3] = np.inf
        x[rows + 3, 1] = -np.inf
        x[rows + 4] = -np.inf
        scores.append(x)
    return make_bundle(scores, labels=labels)


def test_sweep_over_nan_and_inf_scores_equals_one_shot_fusion():
    bundle = _nan_and_inf_bundle()
    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf make NaN
        table = sweep(bundle)
        combos, want = _one_shot(bundle)
    assert list(table.combinations()) == combos
    assert np.array_equal(table.values, want)


def test_back_to_back_sweeps_are_bit_identical(rng):
    bundle = _labelled_bundle(rng, n_modalities=6, n_samples=50)
    first, second = sweep(bundle), sweep(bundle)
    assert first.values.tobytes() == second.values.tobytes()


# --- the sweep's rules over forked processes -----------------------------


SWEPT_BUNDLES = {
    "1 modality": lambda: _labelled_bundle(np.random.default_rng(1), n_modalities=1),
    "2 modalities": lambda: make_bundle(
        [_tied_scores(np.random.default_rng(2), 30, 3) for _ in range(2)], labels=np.arange(30) % 3
    ),
    "5 modalities": lambda: make_bundle(
        [_tied_scores(np.random.default_rng(5), 40, 5) for _ in range(5)], labels=np.arange(40) % 5
    ),
    "nan and inf": _nan_and_inf_bundle,
}


@pytest.mark.parametrize("spec", ["median", "borda,sum", "sum,sqsum,product,max,median,borda"])
@pytest.mark.parametrize("case", sorted(SWEPT_BUNDLES))
def test_sweep_on_every_cpu_count_writes_the_one_cpu_bits(cpus, case, spec):
    bundle, strategies = SWEPT_BUNDLES[case](), parse_strategies(spec)
    tables = []
    for n_cpus in (1, 2, 3, 4):
        cpus(n_cpus)
        with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf make NaN
            table = sweep(bundle, strategies)
        tables.append((table.strategies, [v.hex() for v in table.values.ravel().tolist()]))
    assert tables[0][0] == tuple(s.value for s in strategies)
    assert tables[1:] == tables[:1] * 3


def test_every_fuse_call_of_a_sweep_runs_in_the_caller(cpus, monkeypatch, tmp_path, rng):
    # A span opened around fuse is seen only in the process that opens it,
    # so the sweep builds Borda's points, the only terms it fuses, before it
    # forks.
    cpus(2)
    log, forks, fork = tmp_path / "fuse.log", [], os.fork

    def logged_fuse(strategy, scores):
        with open(log, "a") as fh:  # a child's calls reach the file too
            fh.write(f"{os.getpid()} {strategy.value}\n")
        return fuse(strategy, scores)

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(fusion, "fuse", logged_fuse)
    monkeypatch.setattr(os, "fork", counted_fork)
    bundle = _labelled_bundle(rng, n_modalities=4)
    sweep(bundle)
    assert forks == [1]  # one child walked its share of the rules' runs
    calls = sorted(line.split() for line in log.read_text().splitlines())
    assert calls == [[str(os.getpid()), "borda"]] * 4


def test_a_one_modality_sweep_forks_nothing(cpus, monkeypatch, rng):
    cpus(2)

    def no_fork():
        raise AssertionError("a sweep with nothing to fuse forked")

    monkeypatch.setattr(os, "fork", no_fork)
    bundle = _labelled_bundle(rng, n_modalities=1)
    want = mpca(predict(bundle.modalities[0].scores).values, bundle.labels.values, bundle.n_classes)
    assert sweep(bundle).values.tolist() == [[want] * 6]


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_a_sweep_leaves_no_cyclic_garbage(cpus, n_cpus, rng):
    cpus(n_cpus)
    bundle = _labelled_bundle(rng, n_modalities=5)
    gc.collect()
    gc.disable()
    try:
        sweep(bundle)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n_modalities", [2, 5, 8])
def test_the_sweep_deals_each_rule_in_runs_by_first_member(monkeypatch, n_modalities):
    calls, each = [], fusion._each

    def recorded(fn, items, cost):
        calls.append((list(items), list(cost)))
        return each(fn, *calls[-1])

    monkeypatch.setattr(fusion, "_each", recorded)
    sweep(_labelled_bundle(np.random.default_rng(n_modalities), n_modalities=n_modalities))
    [(items, costs)] = calls
    n = n_modalities
    combos = sorted(c for k in range(2, n + 1) for c in itertools.combinations(range(n), k))
    for strategy in ALL_STRATEGIES:
        runs = [run for s, _, run in items if s is strategy]
        assert [c for run in runs for c in run] == combos  # each once, in lexicographic order
        assert [run[0] for run in runs] == [(i, i + 1) for i in range(n - 1)]
        assert all(c[0] == run[0][0] for run in runs for c in run)
    assert all(c > 0 for c in costs)
    cost = {(s, tuple(run)): c for (s, _, run), c in zip(items, costs)}
    for (s, _, run), c in zip(items, costs):
        if s is FusionStrategy.MEDIAN:
            assert all(c > cost[other, tuple(run)] for other in ALL_STRATEGIES if other is not s)


@pytest.mark.parametrize("n_modalities", [8, 12])
def test_the_two_cpus_get_like_shares_of_counted_cost(n_modalities):
    n = n_modalities
    combos = sorted(c for k in range(2, n + 1) for c in itertools.combinations(range(n), k))
    runs = [list(run) for _, run in itertools.groupby(combos, key=lambda c: c[0])]
    costs = [_run_cost(s, run) for s in ALL_STRATEGIES for run in runs]
    shares = [sum(costs[i] for i in share) for share in _deal(costs, 2)]
    assert max(shares) - min(shares) <= 0.01 * max(shares)


@pytest.mark.parametrize("n_classes", [130, 200, 300])
def test_a_wide_borda_sweep_does_not_wrap(n_classes):
    # Borda's points are held as uint8 up to C = 256, where two members'
    # points can sum past 255 (C = 130, 200), and as uint16 above (C = 300).
    # Every modality lifts the true class, so members often agree on their
    # top ranks, whose sums a uint8 fold would wrap.
    rng = np.random.default_rng(n_classes)
    n_samples = 80
    labels = rng.integers(0, n_classes, n_samples)
    scores = []
    for _ in range(4):
        x = rng.random((n_samples, n_classes))
        x[np.arange(n_samples), labels] += rng.random(n_samples)
        scores.append(x)
    bundle = make_bundle(scores, labels=labels)
    table = sweep(bundle)
    combos, want = _one_shot(bundle)
    assert list(table.combinations()) == combos
    assert np.array_equal(table.values, want)


@pytest.mark.parametrize(
    "n_modalities, n_classes, sums", [(3, 86, np.uint8), (3, 87, np.uint16), (5, 52, np.uint8), (5, 53, np.uint16)]
)
def test_borda_sums_fill_their_integer_type_without_wrapping(n_modalities, n_classes, sums):
    # Borda's sums are held in the narrowest unsigned type that holds
    # n * (C - 1): exactly 255 fits uint8, just above needs uint16, though
    # C - 1 alone fits uint8 in all four cases. Every member ranks each
    # sample's true class first, so the full combination's sum there reaches
    # n * (C - 1); wrapped at 256, it would no longer be the maximum.
    assert np.min_scalar_type(n_modalities * (n_classes - 1)) == sums
    rng = np.random.default_rng(n_classes)
    n_samples = 30
    labels = rng.integers(0, n_classes, n_samples)
    scores = []
    for _ in range(n_modalities):
        x = rng.random((n_samples, n_classes))
        x[np.arange(n_samples), labels] = 2.0
        scores.append(x)
    bundle = make_bundle(scores, labels=labels)
    strategies = parse_strategies("borda,sum")
    table = sweep(bundle, strategies)
    combos, want = _one_shot(bundle, strategies)
    assert list(table.combinations()) == combos
    assert np.array_equal(table.values, want)
    assert (want == 1.0).all()


@pytest.mark.parametrize("n_modalities, n_samples, n_classes", [(6, 2000, 10), (8, 1000, 20)])
def test_a_sweep_holds_one_float64_copy_per_modality(cpus, monkeypatch, n_modalities, n_samples, n_classes):
    # On one CPU every run is walked in this process, so tracemalloc sees the
    # whole sweep: M class-major copies of the scores, n + 1 output rows,
    # Borda's points as uint8 and the transients of building them fit in
    # 2M + 5 C x S float64 matrices. Squares and float64 points would not.
    cpus(1)
    calls, each = [], fusion._each

    def recorded(fn, items, cost):
        calls.append(list(items))
        return each(fn, calls[-1], cost)

    monkeypatch.setattr(fusion, "_each", recorded)
    rng = np.random.default_rng(n_modalities)
    labels = rng.integers(0, n_classes, n_samples)
    bundle = make_bundle([simplex_rows(rng, n_samples, n_classes) for _ in range(n_modalities)], labels=labels)
    tracemalloc.start()
    try:
        sweep(bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (2 * n_modalities + 5) * n_classes * n_samples * 8
    [items] = calls
    terms = {s: t for s, t, _ in items}
    assert terms[FusionStrategy.SQUARED_SUM] is terms[FusionStrategy.SUM]
    assert [t.dtype for t in terms[FusionStrategy.BORDA_COUNT]] == [np.dtype(np.uint8)] * n_modalities


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_a_single_tied_maximum_is_scored_as_argmax_does(cpus, n_cpus):
    # Sample 0's true class is 1. Under sum and median m0 and m1 tie
    # classes 0 and 1 at its maximum, and argmax picks class 0; no other
    # combination, rule or sample has a tied maximum, so only that one
    # combination's scoring has to find the tie. Borda's whole rank points
    # tie often, so it is left out.
    cpus(n_cpus)
    strategies = parse_strategies("sum,sqsum,product,max,median")
    rng = np.random.default_rng(11)
    labels = np.array([1, 0, 2, 1, 0, 2, 1, 0])
    scores = [simplex_rows(rng, labels.size, 3) for _ in range(3)]
    scores[0][0], scores[1][0], scores[2][0] = [0.625, 0.25, 0.125], [0.125, 0.5, 0.375], [0.125, 0.6875, 0.1875]
    bundle = make_bundle(scores, labels=labels)
    table = sweep(bundle, strategies)
    tied, want = [], np.empty(table.values.shape)
    for row, combo in enumerate(table.combinations()):
        selected = [bundle.get(name).scores.values for name in combo]
        for col, s in enumerate(strategies):
            fused = selected[0] if len(combo) == 1 else fuse(s, selected)
            ties = np.count_nonzero(fused == fused.max(axis=1, keepdims=True), axis=1)
            tied += [(combo, s.value, int(i)) for i in np.flatnonzero(ties > 1)]
            want[row, col] = mpca(predict(fused).values, labels, 3)
    assert tied == [(("m0", "m1"), "sum", 0), (("m0", "m1"), "median", 0)]
    assert predict(fuse(FusionStrategy.SUM, scores[:2])).values[0] == 0
    assert np.array_equal(table.values, want)


@pytest.mark.parametrize("k", range(1, 10))
def test_fuse_shares_no_memory_with_its_inputs(k):
    rng = np.random.default_rng(k)
    xs = [rng.random((6, 3)) for _ in range(k)]
    for strategy in ALL_STRATEGIES:
        fused = fuse(strategy, xs)
        assert not any(np.shares_memory(fused, x) for x in xs), strategy


def _swept(strategy, xs):
    # The sweep's kernels on k >= 2 members: the pruned median network in
    # k + 1 rows, or a left fold of each member's term with the rule's ufunc.
    # Adding +0.0 turns a -0.0 left by the network or the sum's fold into
    # numpy's +0.0; the sweep skips it, as argmax does not tell them apart.
    if strategy is FusionStrategy.MEDIAN:
        s = _network(xs, [np.empty(xs[0].shape) for _ in range(len(xs) + 1)])
        fused = _mean([s[j] for j in _middles(len(xs))], np.empty(xs[0].shape))
    else:
        terms = {FusionStrategy.SQUARED_SUM: lambda x: x * x, FusionStrategy.BORDA_COUNT: _borda_points}
        term = terms.get(strategy, np.asarray)
        fused = np.array(term(xs[0]))
        for x in xs[1:]:
            _FOLDS[strategy](fused, term(x), out=fused)
    if strategy in (FusionStrategy.SUM, FusionStrategy.MEDIAN):
        fused = fused + 0.0
    return fused


@pytest.mark.parametrize("k", range(1, 12))
def test_fuse_matches_numpy_reductions_bit_for_bit(k):
    # fuse and the sweep's kernels give the stack reductions the rules are
    # defined by, down to the sign of a zero: members drawn from {0.0, -0.0,
    # 1.0} tie the two zeros in many cells.
    rng = np.random.default_rng(k)
    uniform = [rng.random((25, 4)) for _ in range(k)]
    signed_zeros = [rng.choice([0.0, -0.0, 1.0], size=(25, 4)) for _ in range(k)]
    for xs in (uniform, signed_zeros):
        stack = np.stack(xs)
        want = {
            FusionStrategy.SUM: stack.sum(axis=0),
            FusionStrategy.SQUARED_SUM: (stack * stack).sum(axis=0),
            FusionStrategy.PRODUCT: np.prod(stack, axis=0),
            FusionStrategy.MAXIMUM: stack.max(axis=0),
            FusionStrategy.MEDIAN: np.median(stack, axis=0),
            FusionStrategy.BORDA_COUNT: np.stack([_borda_points(x) for x in xs]).sum(axis=0),
        }
        for strategy, expected in want.items():
            assert fuse(strategy, xs).tobytes() == expected.tobytes(), strategy
            if k >= 2:
                assert _swept(strategy, xs).tobytes() == expected.tobytes(), strategy
        assert all(np.array_equal(x, y) for x, y in zip(xs, stack))  # inputs untouched


@pytest.mark.parametrize("k", range(1, 17))
def test_median_network_puts_the_middle_on_its_wires(k):
    # The 0-1 principle: a comparator network that puts the middle of every
    # 0/1 input on its middle wire(s) does so for every input. All 2^k
    # inputs run at once, one column each.
    bits = (np.arange(1 << k)[None, :] >> np.arange(k)[:, None]) & 1
    # For an odd k the network also keeps the middle's two neighbours.
    ops, kept = _median_network(k)
    assert all(out >= k for *_, out in ops)  # members are never written
    assert max((out for *_, out in ops), default=k) <= 2 * k  # k + 1 rows suffice
    wires = [*bits.astype(np.uint8), *np.empty((k + 1, 1 << k), dtype=np.uint8)]
    for minmax, a, b, out in ops:
        minmax(wires[a], wires[b], out=wires[out])
    positions = range(k // 2 - 1, k // 2 + 2) if k % 2 else _middles(k)
    assert [j for j, _ in kept] == [j for j in positions if 0 <= j < k]
    got = np.array([wires[w] for _, w in kept])
    assert np.array_equal(got, np.sort(bits, axis=0)[[j for j, _ in kept]])


@pytest.mark.parametrize("k", range(1, 16))
def test_clamps_into_the_network_put_the_middle_of_one_more_member(k):
    # The 0-1 principle again, for the median walk's leaves: the network
    # sorts the middle of k members and, for an odd k, its two neighbours;
    # clamping member k + 1 against those positions gives the middle of all
    # k + 1. All 2^(k+1) inputs run at once, one column each.
    bits = ((np.arange(1 << (k + 1))[None, :] >> np.arange(k + 1)[:, None]) & 1).astype(np.uint8)
    s = _network(list(bits[:k]), list(np.empty((k + 1, bits.shape[1]), dtype=np.uint8)))
    prefix = np.sort(bits[:k], axis=0)
    assert all(np.array_equal(s[j], prefix[j]) for j in s)
    got = _clamp(s, bits[k], k, list(np.empty((2, bits.shape[1]), dtype=np.uint8)))
    assert np.array_equal(np.array(got), np.sort(bits, axis=0)[list(_middles(k + 1))])


@pytest.mark.parametrize("k", range(1, 13))
def test_median_of_nan_and_inf_matches_numpy(k):
    rng = np.random.default_rng(k)
    xs = [rng.random((k + 4, 3)) for _ in range(k)]
    for member in range(k):  # a NaN in each member, one row each
        xs[member][member, member % 3] = np.nan
    xs[0][k, :] = np.nan
    xs[-1][k + 1, 0], xs[0][k + 1, 1], xs[-1][k + 1, 1] = np.inf, -np.inf, np.inf
    with np.errstate(invalid="ignore"):  # both add inf and -inf for the even k
        want = np.median(np.stack(xs), axis=0)
        got = [fuse(FusionStrategy.MEDIAN, xs)] + ([_swept(FusionStrategy.MEDIAN, xs)] if k >= 2 else [])
    for fused in got:
        assert np.array_equal(fused, want, equal_nan=True)
        assert all(np.isnan(fused[m, m % 3]) for m in range(k)) and np.isnan(fused[k]).all()


def test_single_matrix_fusion_is_a_copy():
    matrix = np.array([[0.25, 0.75], [0.5, 0.5]])
    for strategy in ALL_STRATEGIES:
        fused = fuse(strategy, [matrix])
        fused[...] = 0.0
        assert matrix[0, 1] == 0.75, strategy
