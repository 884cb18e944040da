import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import mstats

from modselect import (
    AggregatedMetrics,
    ThresholdConfig,
    aggregated_select,
    pairs_select,
    run_modselect,
    winsorized_mean,
)
from modselect.core import ScoreMatrix
from modselect.metrics import PairMetricMatrix
from modselect.synth import default_scenario, generate

from conftest import make_bundle, simplex_rows

MODALITIES = ("H", "L", "OF", "RGB", "YOLO")

# Published aggregated metric values and thresholds used by the reproduction
# tests: correlation per modality, discrepancy per modality (None where the
# embedding spaces were incomparable), then (rho threshold, mmd threshold).
PUBLISHED = {
    "sims4action": (
        {"H": 0.57, "L": 0.55, "OF": 0.38, "RGB": 0.50, "YOLO": 0.37},
        {"H": 9.49, "L": 8.12, "OF": 13.07, "RGB": 9.92, "YOLO": None},
        (0.40, 10.15),
        {"H", "L", "RGB"},
    ),
    "toyota": (
        {"H": 0.23, "L": 0.21, "OF": 0.14, "RGB": 0.08, "YOLO": 0.14},
        {"H": 11.93, "L": 11.47, "OF": 13.34, "RGB": 20.79, "YOLO": None},
        (0.10, 14.38),
        {"H", "L", "OF", "YOLO"},
    ),
    "etri": (
        {"H": 0.14, "L": 0.14, "OF": 0.06, "RGB": 0.05, "YOLO": 0.13},
        {"H": 17.84, "L": 17.76, "OF": 22.04, "RGB": 24.91, "YOLO": None},
        (0.08, 20.64),
        {"H", "L", "YOLO"},
    ),
}


class TestWinsorizedMean:
    def test_published_threshold_examples(self):
        assert winsorized_mean([9.49, 8.12, 13.07, 9.92]) == pytest.approx(10.15, abs=1e-9)
        assert winsorized_mean([11.93, 11.47, 13.34, 20.79]) == pytest.approx(14.3825, abs=1e-9)

    def test_lambda_zero_is_plain_mean(self):
        assert winsorized_mean([1, 2, 3, 4, 5], 0.0) == pytest.approx(3.0)

    def test_five_element_case(self):
        got = winsorized_mean([0.37, 0.38, 0.50, 0.55, 0.57], 0.2)
        assert got == pytest.approx(0.472, abs=1e-9)

    def test_empty_and_bad_lambda(self):
        with pytest.raises(ValueError):
            winsorized_mean([])
        with pytest.raises(ValueError):
            winsorized_mean([1.0], lam=0.6)
        with pytest.raises(ValueError):
            winsorized_mean([np.nan, 1.0])

    def test_order_independence(self):
        assert winsorized_mean([3, 1, 2]) == winsorized_mean([2, 3, 1])

    @given(
        values=st.lists(st.floats(-100, 100), min_size=1, max_size=25),
        lam=st.sampled_from([0.0, 0.1, 0.2, 0.25, 1 / 3, 0.4]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scipy_winsorize(self, values, lam):
        want = float(np.mean(mstats.winsorize(np.array(values), limits=[lam, lam])))
        assert winsorized_mean(values, lam) == pytest.approx(want, abs=1e-12)

    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
        lam=st.floats(0.0, 0.5),
    )
    @settings(max_examples=150, deadline=None)
    def test_stays_within_bounds(self, values, lam):
        got = winsorized_mean(values, lam)
        assert min(values) <= got <= max(values)

    def test_half_lambda_odd_count_is_median(self):
        assert winsorized_mean([5.0, 1.0, 9.0], 0.5) == 5.0
        # even count: everything collapses to the two middle order statistics
        assert winsorized_mean([1.0, 2.0, 8.0, 9.0], 0.5) == pytest.approx(5.0)
        # the interpolated variant has no middle left to average: both percentiles are the median
        assert winsorized_mean([1.0, 2.0, 8.0, 9.0], 0.5, interpolate=True) == 5.0

    def test_outlier_robustness(self, rng):
        base = sorted(rng.normal(0, 5, 9))
        inflated = list(base)
        inflated[-1] = base[-1] + 1e6
        assert winsorized_mean(base, 0.2) == winsorized_mean(inflated, 0.2)

    def test_interpolated_variant_differs_but_bounded(self):
        values = [9.49, 8.12, 13.07, 9.92]
        literal = winsorized_mean(values, 0.2, interpolate=True)
        assert literal == pytest.approx(10.1144, abs=1e-3)
        assert min(values) <= literal <= max(values)

    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
        lam=st.just(0.5) | st.floats(0.0, 0.5),
    )
    @settings(max_examples=150, deadline=None)
    def test_interpolated_variant_is_finite_within_bounds(self, values, lam):
        got = winsorized_mean(values, lam, interpolate=True)
        assert math.isfinite(got) and min(values) <= got <= max(values)


def _metrics(rho, mmd):
    return AggregatedMetrics(MODALITIES, rho, mmd)


class TestAggregatedSelect:
    @pytest.mark.parametrize("dataset", sorted(PUBLISHED))
    def test_published_selection_sets(self, dataset):
        rho, mmd, (delta_rho, delta_mmd), want = PUBLISHED[dataset]
        report = aggregated_select(
            _metrics(rho, mmd),
            ThresholdConfig(delta_rho=delta_rho, delta_mmd=delta_mmd, consensus="or"),
        )
        assert set(report.selected) == want
        assert report.rho_threshold.source == "override"
        assert report.mmd_threshold.source == "override"

    @pytest.mark.parametrize("dataset", sorted(PUBLISHED))
    def test_computed_mmd_threshold_matches_published(self, dataset):
        rho, mmd, (_, delta_mmd), _ = PUBLISHED[dataset]
        report = aggregated_select(_metrics(rho, mmd), ThresholdConfig())
        assert report.mmd_threshold.source == "computed"
        assert report.mmd_threshold.value == pytest.approx(delta_mmd, abs=0.01)

    def test_identical_metrics_select_everything(self):
        # 0.4 and 2.1 are not exactly representable; the threshold must still
        # compare inclusively against its own inputs.
        rho = {m: 0.4 for m in MODALITIES}
        mmd = {m: 2.1 for m in MODALITIES}
        for consensus in ("or", "and"):
            report = aggregated_select(
                _metrics(rho, mmd), ThresholdConfig(consensus=consensus)
            )
            assert set(report.selected) == set(MODALITIES)

    def test_identical_values_threshold_is_that_value(self):
        assert winsorized_mean([0.4, 0.4, 0.4]) == 0.4
        assert winsorized_mean([2.1] * 7, 0.3) == 2.1

    def test_needs_alternatives(self):
        metrics = AggregatedMetrics(("solo",), {"solo": 0.5}, {"solo": None})
        with pytest.raises(ValueError, match="selection needs alternatives"):
            aggregated_select(metrics)

    def test_correlation_only_fallback(self):
        rho = {m: 0.5 for m in MODALITIES} | {"YOLO": 0.1}
        mmd = {m: 1.0 for m in MODALITIES} | {"YOLO": None}
        report = aggregated_select(
            _metrics(rho, mmd), ThresholdConfig(delta_rho=0.3, delta_mmd=2.0)
        )
        decision = {d.subject: d for d in report.decisions}["YOLO"]
        assert decision.basis == "correlation-only"
        assert not decision.selected  # low rho, no mmd escape hatch
        assert any("judged on correlation alone" in n for n in report.notes)

    def test_partnerless_modality_is_judged_on_what_it_has(self):
        rho = {m: 0.5 for m in MODALITIES} | {"OF": 0.2, "YOLO": None, "H": None}
        mmd = {m: 1.0 for m in MODALITIES} | {"RGB": 3.0, "YOLO": 0.5, "H": None}
        report = aggregated_select(_metrics(rho, mmd))
        decisions = {d.subject: d for d in report.decisions}
        assert report.rho_threshold.value == winsorized_mean([0.5, 0.2, 0.5])
        assert report.mmd_threshold.value == winsorized_mean([1.0, 1.0, 3.0, 0.5])
        yolo, h = decisions["YOLO"], decisions["H"]
        assert (yolo.basis, yolo.rho_pass, yolo.mmd_pass) == ("discrepancy-only", None, True) and yolo.selected
        assert (h.basis, h.selected, h.reasons) == ("none", False, ("no valid metrics for this modality",))
        assert sum("has no comparable partners" in n for n in report.notes) == 2
        aggregated = report.to_dict()["intermediate"]["aggregated"]
        assert aggregated["H"] == {"correlation": None, "discrepancy": None}

    def test_and_consensus_is_subset_of_or(self, rng):
        for _ in range(50):
            rho = {m: float(rng.random()) for m in MODALITIES}
            mmd = {m: float(rng.random() * 10) for m in MODALITIES}
            config_or = ThresholdConfig(consensus="or")
            config_and = ThresholdConfig(consensus="and")
            selected_or = set(aggregated_select(_metrics(rho, mmd), config_or).selected)
            selected_and = set(aggregated_select(_metrics(rho, mmd), config_and).selected)
            assert selected_and <= selected_or

    def test_raising_rho_never_removes(self, rng):
        rho = {m: float(rng.random()) for m in MODALITIES}
        mmd = {m: float(rng.random() * 10) for m in MODALITIES}
        config = ThresholdConfig(delta_rho=0.5, delta_mmd=5.0)
        base = set(aggregated_select(_metrics(rho, mmd), config).selected)
        for m in MODALITIES:
            raised = dict(rho) | {m: rho[m] + 0.3}
            now = set(aggregated_select(_metrics(raised, mmd), config).selected)
            assert base <= now

    def test_every_modality_appears_once(self, rng):
        rho = {m: float(rng.random()) for m in MODALITIES}
        mmd = {m: float(rng.random() * 10) for m in MODALITIES}
        report = aggregated_select(_metrics(rho, mmd))
        assert set(report.selected) | {d.subject for d in report.excluded} == set(MODALITIES)
        assert len(report.selected) + len(report.excluded) == len(MODALITIES)

    def test_excluded_reasons_name_failed_criterion(self):
        rho = {m: 0.8 for m in MODALITIES} | {"OF": 0.1}
        mmd = {m: 1.0 for m in MODALITIES} | {"OF": 9.0}
        report = aggregated_select(
            _metrics(rho, mmd), ThresholdConfig(delta_rho=0.5, delta_mmd=5.0)
        )
        (decision,) = report.excluded
        assert decision.subject == "OF"
        assert any("correlation 0.1 below threshold 0.5" in r for r in decision.reasons)
        assert any("discrepancy 9 above threshold 5" in r for r in decision.reasons)


def _pair_matrix(names, lookup, invalid=()):
    n = len(names)
    values = np.zeros((n, n))
    valid = np.ones((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i == j:
                values[i, j] = lookup.get("self", 0.0)
                continue
            key = tuple(sorted((names[i], names[j])))
            if key in invalid:
                valid[i, j] = False
            else:
                values[i, j] = lookup[key]
    return PairMetricMatrix(names, values, valid)


class TestPairsSelect:
    def test_all_identical_pairs_selected(self):
        names = ("a", "b", "c")
        rho = _pair_matrix(names, {("a", "b"): 0.4, ("a", "c"): 0.4, ("b", "c"): 0.4, "self": 1.0})
        mmd = _pair_matrix(names, {("a", "b"): 2.0, ("a", "c"): 2.0, ("b", "c"): 2.0})
        report = pairs_select(rho, mmd)
        assert set(report.selected) == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_two_modality_universe(self):
        names = ("a", "b")
        rho = _pair_matrix(names, {("a", "b"): 0.4, "self": 1.0})
        mmd = _pair_matrix(names, {("a", "b"): 2.0})
        report = pairs_select(rho, mmd)
        assert report.selected == (("a", "b"),)
        strict = pairs_select(rho, mmd, ThresholdConfig(delta_rho=0.9, delta_mmd=1.0, consensus="and"))
        assert strict.selected == ()

    def test_invalid_mmd_pair_judged_on_rho(self):
        names = ("a", "b", "c")
        rho = _pair_matrix(names, {("a", "b"): 0.9, ("a", "c"): 0.0, ("b", "c"): 0.0, "self": 1.0})
        mmd = _pair_matrix(
            names,
            {("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "c"): 1.0},
            invalid={("a", "c"), ("b", "c")},
        )
        report = pairs_select(rho, mmd, ThresholdConfig(delta_rho=0.5, delta_mmd=10.0))
        decisions = {d.subject: d for d in report.decisions}
        assert decisions[("a", "c")].basis == "correlation-only"
        assert not decisions[("a", "c")].selected
        assert decisions[("a", "b")].selected

    def test_pairs_missing_a_metric(self):
        names = ("a", "b", "c")
        rho = _pair_matrix(
            names, {("a", "b"): 0.9, "self": 1.0}, invalid={("a", "c"), ("b", "c")}
        )
        mmd = _pair_matrix(names, {("a", "b"): 1.0, ("a", "c"): 3.0}, invalid={("b", "c")})
        for consensus in ("or", "and"):
            config = ThresholdConfig(delta_rho=0.5, delta_mmd=2.0, consensus=consensus)
            report = pairs_select(rho, mmd, config)
            decisions = {d.subject: d for d in report.decisions}
            only_mmd = decisions[("a", "c")]
            assert only_mmd.basis == "discrepancy-only"
            assert (only_mmd.rho, only_mmd.rho_pass, only_mmd.mmd_pass) == (None, None, False)
            assert only_mmd.reasons == ("embedding discrepancy 3 above threshold 2",)
            neither = decisions[("b", "c")]
            assert neither.basis == "none"
            assert (neither.rho, neither.mmd, neither.selected) == (None, None, False)
            assert neither.reasons == ("no valid metrics for this pair",)
            assert report.selected == (("a", "b"),)

    def test_no_pair_with_a_correlation_judged_on_discrepancy(self):
        names = ("a", "b", "c")
        rho = _pair_matrix(names, {"self": 1.0}, invalid={("a", "b"), ("a", "c"), ("b", "c")})
        mmd = _pair_matrix(names, {("a", "b"): 1.0, ("a", "c"): 3.0}, invalid={("b", "c")})
        report = pairs_select(rho, mmd, ThresholdConfig(delta_mmd=2.0))
        assert report.rho_threshold.source == "unavailable"
        assert [d.basis for d in report.decisions] == ["discrepancy-only", "discrepancy-only", "none"]
        assert report.selected == (("a", "b"),)
        assert [note.split(":")[0] for note in report.notes] == [
            f"modality {name!r} has no comparable partners" for name in names
        ]

    def test_without_a_discrepancy_matrix_pairs_are_judged_on_correlation(self):
        names = ("a", "b", "c")
        rho = _pair_matrix(names, {("a", "b"): 0.9, ("a", "c"): 0.1, ("b", "c"): 0.1, "self": 1.0})
        report = pairs_select(rho, config=ThresholdConfig(delta_rho=0.5))
        assert [(d.basis, d.mmd) for d in report.decisions] == [("correlation-only", None)] * 3
        assert report.mmd_threshold.source == "unavailable"
        assert report.selected == (("a", "b"),)
        assert report.notes == tuple(
            f"modality {name!r} judged on correlation alone (no comparable embeddings)" for name in names
        )

    def test_needs_alternatives(self):
        rho = PairMetricMatrix(("solo",), np.ones((1, 1)), np.ones((1, 1), dtype=bool))
        with pytest.raises(ValueError, match="selection needs alternatives"):
            pairs_select(rho, None)
        rho = _pair_matrix(("a", "b"), {("a", "b"): 0.4, "self": 1.0})
        mmd = _pair_matrix(("a", "c"), {("a", "c"): 2.0})
        with pytest.raises(ValueError, match="^pair matrices cover different modalities$"):
            pairs_select(rho, mmd)


class TestRunModselect:
    def test_identical_modalities_all_selected(self, rng):
        scores = simplex_rows(rng, 30, 3)
        emb = rng.normal(size=(30, 4))
        bundle = make_bundle([scores, scores.copy(), scores.copy()],
                             embeddings=[emb, emb.copy(), emb.copy()])
        report = run_modselect(bundle)
        assert set(report.selected) == set(bundle.names)

    def test_planted_scenario_recovers_good_set(self):
        bundle, planted = generate(default_scenario(seed=42))
        report = run_modselect(bundle)
        assert set(report.selected) == planted
        for decision in report.excluded:
            assert decision.reasons  # excluded entries name the failed criterion
        assert report.correlations is not None
        assert report.discrepancies is not None
        assert report.aggregates is not None

    def test_pairs_mode_selects_only_good_pairs(self):
        bundle, planted = generate(default_scenario(seed=42))
        report = run_modselect(bundle, ThresholdConfig(mode="pairs"))
        assert report.selected
        for m, n in report.selected:
            assert {m, n} <= planted

    def test_labels_never_consulted(self):
        bundle, _ = generate(default_scenario(seed=3, samples=400))
        with_labels = run_modselect(bundle)
        without = run_modselect(bundle.without_labels())
        assert with_labels.to_dict() == without.to_dict()

    def test_modality_without_embeddings_flagged(self):
        bundle, _ = generate(default_scenario(seed=5, samples=400))
        report = run_modselect(bundle)
        decision = {d.subject: d for d in report.decisions}["random1"]
        assert decision.basis == "correlation-only"
        assert any("random1" in n for n in report.notes)

    def test_constant_scores_get_a_decision_in_both_modes(self, rng):
        # Uniform scores have no per-class spread, so no pair with them has a correlation.
        bundle, _ = generate(default_scenario(seed=5, samples=300))
        good = run_modselect(bundle, ThresholdConfig(mode="pairs")).to_dict()
        records = list(bundle.modalities)
        flat = np.full(records[3].scores.values.shape, 1 / bundle.n_classes)
        records[3] = replace(records[3], scores=ScoreMatrix(flat, bundle.class_names))
        records[4] = replace(records[4], scores=ScoreMatrix(flat, bundle.class_names))
        flat_bundle = replace(bundle, modalities=tuple(records))
        report = run_modselect(flat_bundle)
        decisions = {d.subject: d for d in report.decisions}
        assert decisions["random1"].basis == "none" and not decisions["random1"].selected
        assert decisions["shifted1"].basis == "discrepancy-only"
        pairs = run_modselect(flat_bundle, ThresholdConfig(mode="pairs")).to_dict()
        assert "aggregated" in good["intermediate"] and "aggregated" not in pairs["intermediate"]

    @pytest.mark.parametrize("exclude_self", [True, False])
    def test_a_modality_whose_only_correlation_is_with_itself_has_none(self, exclude_self):
        # good1 keeps its scores; the four others get uniform ones. Its
        # self-pair is its only defined correlation, which is no partner.
        bundle, _ = generate(default_scenario(seed=3, samples=300))
        flat = np.full(bundle.modalities[0].scores.values.shape, 1 / bundle.n_classes)
        records = [bundle.modalities[0]] + [
            replace(rec, scores=ScoreMatrix(flat, bundle.class_names)) for rec in bundle.modalities[1:]
        ]
        flat_bundle = replace(bundle, modalities=tuple(records))
        aggregated = run_modselect(flat_bundle, ThresholdConfig(exclude_self=exclude_self))
        pairs = run_modselect(flat_bundle, ThresholdConfig(mode="pairs", exclude_self=exclude_self))
        assert aggregated.notes == pairs.notes
        assert "modality 'good1' has no comparable partners" in " ".join(aggregated.notes)
        good1 = {d.subject: d for d in aggregated.decisions}["good1"]
        assert (good1.rho, good1.basis) == (None, "discrepancy-only")

    def test_needs_two_modalities(self, rng):
        bundle = make_bundle([simplex_rows(rng, 10, 3)])
        with pytest.raises(ValueError, match="selection needs alternatives"):
            run_modselect(bundle)

    def test_report_dict_schema(self):
        bundle, _ = generate(default_scenario(seed=11, samples=300))
        payload = run_modselect(bundle).to_dict()
        assert payload["schema"] == 1
        assert payload["tool"]["name"] == "modselect"
        assert {"mode", "consensus", "lambda"} <= set(payload["config"])
        assert {"correlation", "discrepancy"} <= set(payload["thresholds"])
        assert set(payload["selected"]) | {e["name"] for e in payload["excluded"]} == set(
            bundle.names
        )
        assert "pair_correlations" in payload["intermediate"]


def test_an_integer_override_is_reported_as_a_float():
    rho = {m: 0.5 for m in MODALITIES}
    mmd = {m: 1.0 for m in MODALITIES}
    config = aggregated_select(_metrics(rho, mmd), ThresholdConfig(delta_rho=1)).to_dict()["config"]
    assert config["delta_rho_override"] == 1.0 and type(config["delta_rho_override"]) is float
    assert config["delta_mmd_override"] is None


def test_threshold_config_validation():
    with pytest.raises(ValueError):
        ThresholdConfig(lam=0.7)
    with pytest.raises(ValueError):
        ThresholdConfig(consensus="xor")
    with pytest.raises(ValueError):
        ThresholdConfig(mode="solo")
    with pytest.raises(ValueError):
        ThresholdConfig(delta_rho=math.inf)
