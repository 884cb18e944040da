import tracemalloc

import numpy as np
import pytest

from modselect import (
    aggregate,
    aggregated_from_matrices,
    correlation_matrix,
    correlation_vector,
    mmd_matrix,
    pair_correlation,
    pair_mmd,
)
from modselect.metrics import DEGENERATE_STD, PairMetricMatrix
from modselect.synth import ModalitySpec, Scenario, generate

from conftest import make_bundle, simplex_rows

SWAP_ROWS = np.array([[0.9, 0.1], [0.1, 0.9], [0.8, 0.2], [0.2, 0.8]])


def test_self_correlation_is_one(rng):
    scores = simplex_rows(rng, 30, 4)
    vec = correlation_vector(scores, scores)
    np.testing.assert_allclose(vec, 1.0, atol=1e-12)
    assert pair_correlation(scores, scores) == pytest.approx(1.0, abs=1e-12)


def test_column_swap_gives_minus_one():
    swapped = SWAP_ROWS[:, ::-1]
    vec = correlation_vector(SWAP_ROWS, swapped)
    np.testing.assert_allclose(vec, -1.0, atol=1e-12)
    assert pair_correlation(SWAP_ROWS, swapped) == pytest.approx(-1.0, abs=1e-12)


def test_constant_scores_flagged_undefined():
    constant = np.full((4, 2), 0.5)
    vec = correlation_vector(SWAP_ROWS, constant)
    assert np.isnan(vec).all()
    with pytest.raises(ValueError, match="degenerate scores"):
        pair_correlation(SWAP_ROWS, constant)


def test_partially_degenerate_class_excluded(rng):
    a = simplex_rows(rng, 20, 3).copy()
    b = a.copy()
    a[:, 2] = 0.2  # no variance in class 2 on one side
    a[:, :2] = a[:, :2] / a[:, :2].sum(axis=1, keepdims=True) * 0.8
    vec = correlation_vector(a, b)
    assert np.isnan(vec[2])
    defined = vec[~np.isnan(vec)]
    assert pair_correlation(a, b) == pytest.approx(float(defined.mean()))


def test_correlation_requires_two_samples():
    with pytest.raises(ValueError, match="insufficient samples"):
        correlation_vector(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]))


def test_correlation_shape_mismatch():
    with pytest.raises(ValueError, match="incompatible score matrices"):
        correlation_vector(np.zeros((3, 2)), np.zeros((3, 4)))


def test_correlation_matches_numpy_oracle(rng):
    a = simplex_rows(rng, 50, 4)
    b = simplex_rows(rng, 50, 4)
    vec = correlation_vector(a, b)
    for c in range(4):
        want = np.corrcoef(a[:, c], b[:, c])[0, 1]
        assert vec[c] == pytest.approx(want, abs=1e-10)


def test_affine_rescaling_keeps_correlation(rng):
    a = simplex_rows(rng, 40, 3)
    b = simplex_rows(rng, 40, 3)
    base = correlation_vector(a, b)
    scale = np.array([0.5, 2.0, 3.0])
    shift = np.array([0.1, -0.2, 0.05])
    again = correlation_vector(a * scale + shift, b * scale + shift)
    np.testing.assert_allclose(base, again, atol=1e-9)


def test_mmd_identical_and_analytic():
    h = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert pair_mmd(h, h) == 0.0
    a = np.array([[0.0, 0.0], [0.0, 0.0]])
    b = np.array([[3.0, 4.0], [3.0, 4.0]])
    assert pair_mmd(a, b) == pytest.approx(5.0)


def test_mmd_scaling_homogeneity(rng):
    a = rng.normal(size=(30, 5))
    b = rng.normal(size=(22, 5))  # sample counts may differ
    assert pair_mmd(2.0 * a, 2.0 * b) == pytest.approx(2.0 * pair_mmd(a, b), rel=1e-12)


def test_mmd_dimension_mismatch():
    with pytest.raises(ValueError, match="incomparable embedding spaces"):
        pair_mmd(np.zeros((4, 3)), np.zeros((4, 5)))


def test_metric_properties_random_trials(rng):
    for _ in range(300):
        s = int(rng.integers(3, 25))
        c = int(rng.integers(2, 6))
        d = int(rng.integers(1, 6))
        za, zb = simplex_rows(rng, s, c), simplex_rows(rng, s, c)
        rho_ab = pair_correlation(za, zb)
        rho_ba = pair_correlation(zb, za)
        assert rho_ab == rho_ba
        assert -1.0 <= rho_ab <= 1.0
        ha, hb, hc = (rng.normal(size=(s, d)) for _ in range(3))
        ab, ba = pair_mmd(ha, hb), pair_mmd(hb, ha)
        assert ab == ba and ab >= 0.0
        assert pair_mmd(ha, ha) == 0.0
        ac, bc = pair_mmd(ha, hc), pair_mmd(hb, hc)
        assert ac <= ab + bc + 1e-12


def _mixed_bundle(rng):
    scores = [simplex_rows(rng, 25, 3) for _ in range(4)]
    embeddings = [
        rng.normal(size=(25, 4)),
        rng.normal(size=(25, 4)),
        None,  # no embeddings at all
        rng.normal(size=(25, 6)),  # incompatible dimension
    ]
    return make_bundle(scores, embeddings=embeddings, names=["a", "b", "c", "d"])


def test_matrices_from_bundle(rng):
    bundle = _mixed_bundle(rng)
    corr = correlation_matrix(bundle)
    assert corr.names == ("a", "b", "c", "d")
    assert corr.valid.all()
    np.testing.assert_array_equal(corr.values, corr.values.T)
    assert corr.value("a", "a") == pytest.approx(1.0, abs=1e-12)

    disc = mmd_matrix(bundle)
    assert disc.is_valid("a", "b")
    assert disc.value("a", "a") == 0.0
    assert not disc.is_valid("a", "c")  # missing embeddings
    assert not disc.is_valid("a", "d")  # dimension mismatch
    assert disc.is_valid("d", "d")
    np.testing.assert_array_equal(disc.values, disc.values.T)


def test_matrices_hold_the_pair_functions_bits(rng):
    # The matrices take each modality's moments once; every entry must keep
    # the bits of the pair functions, which compute them per pair.
    bundle = _mixed_bundle(rng)
    flat = make_bundle([np.full((25, 3), 1.0 / 3)], names=["flat"]).modalities
    bundle = type(bundle)(bundle.modalities + flat, None, bundle.class_names)
    corr, disc = correlation_matrix(bundle), mmd_matrix(bundle)
    records = bundle.modalities
    for i, m in enumerate(records):
        for j, n in enumerate(records):
            rho = correlation_vector(m.scores, n.scores)
            assert corr.valid[i, j] == (~np.isnan(rho)).any()
            if corr.valid[i, j]:
                assert corr.values[i, j].hex() == pair_correlation(m.scores, n.scores).hex()
            if disc.valid[i, j]:
                assert disc.values[i, j].hex() == pair_mmd(m.embeddings, n.embeddings).hex()


def _all_moments_matrix(bundle) -> tuple[np.ndarray, np.ndarray]:
    """The correlation matrix's values and validity as built from every modality's centred scores at once."""
    moments = [(z - z.mean(axis=0), z.std(axis=0)) for z in (rec.scores.values for rec in bundle.modalities)]
    n = len(moments)
    values, valid = np.zeros((n, n)), np.zeros((n, n), dtype=bool)
    for i, (centred_a, sd_a) in enumerate(moments):
        for j, (centred_b, sd_b) in enumerate(moments):
            cov = (centred_a * centred_b).mean(axis=0)
            defined = (sd_a >= DEGENERATE_STD) & (sd_b >= DEGENERATE_STD)
            if defined.any():
                rho = np.clip(cov[defined] / (sd_a[defined] * sd_b[defined]), -1.0, 1.0)
                values[i, j], valid[i, j] = rho.mean(), True
    return values, valid


def test_correlation_matrix_holds_two_centred_copies_and_keeps_its_bits(rng):
    # Beyond the bundle, the matrix needs two centred S x C copies and their
    # product, never one per modality; building it so keeps every bit.
    s, c = 2000, 20
    scores = [simplex_rows(rng, s, c) for _ in range(7)] + [np.full((s, c), 1.0 / c)]
    scores[0][:, 0] = 0.05  # a constant class: NaN in every pair, which stays valid
    scores[0][:, 1:] *= 0.95 / scores[0][:, 1:].sum(axis=1, keepdims=True)
    bundle = make_bundle(scores)
    correlation_matrix(bundle)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        corr = correlation_matrix(bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * s * c * 8, peak / (s * c * 8)
    assert np.isnan(correlation_vector(scores[0], scores[1])).tolist() == [True] + [False] * (c - 1)
    values, valid = _all_moments_matrix(bundle)
    np.testing.assert_array_equal(corr.valid, valid)
    assert not valid[7].any() and valid[:7, :7].all()
    assert corr.values.tobytes() == values.tobytes()


def test_correlation_matrix_rejects_what_the_pair_function_rejects(rng):
    short = make_bundle([simplex_rows(rng, 1, 3), simplex_rows(rng, 1, 3)])
    with pytest.raises(ValueError, match="insufficient samples"):
        correlation_matrix(short)
    ragged = make_bundle([simplex_rows(rng, 5, 3), simplex_rows(rng, 4, 3)])
    with pytest.raises(ValueError, match="incompatible score matrices"):
        correlation_matrix(ragged)


def test_constant_modality_invalidates_only_its_pairs(rng):
    scores = [simplex_rows(rng, 25, 3) for _ in range(3)] + [np.full((25, 3), 1.0 / 3)]
    bundle = make_bundle(scores, names=["a", "b", "c", "flat"])
    corr = correlation_matrix(bundle)
    expected = np.ones((4, 4), dtype=bool)
    expected[3, :] = expected[:, 3] = False  # every pair with "flat", its self-pair too
    np.testing.assert_array_equal(corr.valid, expected)
    assert corr.value("a", "b") == pair_correlation(scores[0], scores[1])


def test_aggregate_examples():
    names = ("a", "b", "c")
    values = np.full((3, 3), 2.0)
    np.fill_diagonal(values, 0.0)
    pairs = PairMetricMatrix(names, values, np.ones((3, 3), dtype=bool))
    assert aggregate(pairs, "a") == pytest.approx(2.0)
    assert aggregate(pairs, "a", exclude_self=False) == pytest.approx(4.0 / 3.0)

    rho = np.array([[1.0, 0.6, 0.4], [0.6, 1.0, 0.0], [0.4, 0.0, 1.0]])
    pairs = PairMetricMatrix(names, rho, np.ones((3, 3), dtype=bool))
    assert aggregate(pairs, "a") == pytest.approx(0.5)


def test_aggregate_no_partners():
    valid = np.zeros((2, 2), dtype=bool)
    valid[0, 0] = valid[1, 1] = True
    pairs = PairMetricMatrix(("a", "b"), np.zeros((2, 2)), valid)
    with pytest.raises(ValueError, match="no comparable partners"):
        aggregate(pairs, "a")


def test_aggregated_from_matrices_handles_missing(rng):
    bundle = _mixed_bundle(rng)
    agg = aggregated_from_matrices(correlation_matrix(bundle), mmd_matrix(bundle))
    assert set(agg.rho) == {"a", "b", "c", "d"}
    assert agg.mmd["c"] is None
    assert agg.mmd["d"] is None  # no partner shares its dimension
    assert agg.mmd["a"] == pytest.approx(
        pair_mmd(bundle.get("a").embeddings.values, bundle.get("b").embeddings.values)
    )


def test_aggregated_from_matrices_without_discrepancies(rng):
    bundle = _mixed_bundle(rng)
    correlations = correlation_matrix(bundle)
    agg = aggregated_from_matrices(correlations)
    assert agg.mmd == dict.fromkeys(("a", "b", "c", "d"))
    assert agg.rho == aggregated_from_matrices(correlations, mmd_matrix(bundle)).rho


def test_coupling_sweep_increases_correlation():
    rhos = []
    for coupling in (0.0, 0.25, 0.5, 0.75, 1.0):
        specs = (
            ModalitySpec("u", "good", accuracy=0.6, coupling=coupling),
            ModalitySpec("v", "good", accuracy=0.6, coupling=coupling),
        )
        bundle, _ = generate(Scenario(10, 5000, 4, specs, seed=99))
        rhos.append(
            pair_correlation(bundle.get("u").scores, bundle.get("v").scores)
        )
    assert all(a < b for a, b in zip(rhos, rhos[1:]))
    assert rhos[-1] > 0.95


def test_planted_coupling_beats_random_partner():
    specs = (
        ModalitySpec("p", "good", accuracy=0.7, coupling=0.9),
        ModalitySpec("q", "good", accuracy=0.7, coupling=0.9),
        ModalitySpec("noise", "random", embeddings=False),
    )
    bundle, _ = generate(Scenario(8, 4000, 4, specs, seed=7))
    coupled = pair_correlation(bundle.get("p").scores, bundle.get("q").scores)
    cross = pair_correlation(bundle.get("p").scores, bundle.get("noise").scores)
    assert coupled > cross
