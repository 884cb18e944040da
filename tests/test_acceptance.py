"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Criteria 3 and 4 work on the published per-combination table that
this package ships as its fixture (``fixtures._ROWS``). They check what that
table determines: each modality's with-without contribution, and the mean
accuracy gained by keeping only the positive modalities, against values
derived from the table independently of the package. The paper's printed
per-modality contributions and mean-accuracy pairs cannot be computed from
the same table (see the comment above ``PUBLISHED_CONTRIBUTIONS``); they are
kept as provenance and printed next to the table's values.
"""

import itertools
import math

import numpy as np

from modselect import (
    AggregatedMetrics,
    ALL_STRATEGIES,
    FusionStrategy,
    ThresholdConfig,
    aggregated_select,
    contribution,
    fuse,
    load_fixture,
    pair_correlation,
    pair_mmd,
    pairs_select,
    positive_modalities,
    run_modselect,
    sweep,
    winsorized_mean,
)
from modselect.cli import main as cli_main
from modselect.encode import Box, DetectionSet, Keypoints, detection_vector, heatmap
from modselect.synth import ModalitySpec, Scenario, default_scenario, generate

from test_fusion import brute_fuse, brute_mpca
from test_quantify import brute_contribution

DATASETS = ("sims4action", "toyota", "etri")
MODALITIES = ("H", "L", "OF", "RGB", "YOLO")

# Published per-modality aggregates, thresholds, contribution signs,
# selection sets and mean-accuracy pairs, transcribed from the same source
# as the bundled fixture.
PUBLISHED_RHO = {
    "sims4action": {"H": 0.57, "L": 0.55, "OF": 0.38, "RGB": 0.50, "YOLO": 0.37},
    "toyota": {"H": 0.23, "L": 0.21, "OF": 0.14, "RGB": 0.08, "YOLO": 0.14},
    "etri": {"H": 0.14, "L": 0.14, "OF": 0.06, "RGB": 0.05, "YOLO": 0.13},
}
PUBLISHED_MMD = {
    "sims4action": {"H": 9.49, "L": 8.12, "OF": 13.07, "RGB": 9.92, "YOLO": None},
    "toyota": {"H": 11.93, "L": 11.47, "OF": 13.34, "RGB": 20.79, "YOLO": None},
    "etri": {"H": 17.84, "L": 17.76, "OF": 22.04, "RGB": 24.91, "YOLO": None},
}
PUBLISHED_THRESHOLDS = {
    "sims4action": (0.40, 10.15),
    "toyota": (0.10, 14.38),
    "etri": (0.08, 20.64),
}
PUBLISHED_SELECTIONS = {
    "sims4action": {"H", "L", "RGB"},
    "toyota": {"H", "L", "OF", "YOLO"},
    "etri": {"H", "L", "YOLO"},
}
# The paper's printed summaries: per-modality contributions (percentage
# points) and mean accuracies (percent) before -> after selection. They cannot
# be derived from the bundled table. On that table every one of the 15
# marginal gains acc(S + OF) - acc(S) on sims4action is positive, the smallest
# +0.97pp, so any non-negative weighting of marginal gains (with-without,
# Banzhaf, Shapley, any size weighting) makes OF positive, not the printed
# -0.74pp. Swapping rows of equal size leaves the sum of the five
# contributions unchanged, and that sum is +47.10pp on the table against
# +16.90pp printed for sims4action, so a row mix-up does not explain the gap
# either. No averaging convention (combination sizes, modality universe,
# subset rule) reproduces the printed accuracy pairs. Criteria 3 and 4 print
# these values next to the table's own and do not assert them.
PUBLISHED_CONTRIBUTIONS = {
    "sims4action": {"H": 4.37, "L": 8.86, "OF": -0.74, "RGB": 6.98, "YOLO": -2.57},
    "toyota": {"H": 2.14, "L": 2.46, "OF": 2.90, "RGB": -1.86, "YOLO": 2.13},
    "etri": {"H": 0.76, "L": 1.60, "OF": -0.13, "RGB": -1.17, "YOLO": 2.02},
}
PUBLISHED_ACCURACY_PAIRS = {
    "sims4action": (85.7, 90.9),
    "toyota": (22.9, 26.5),
    "etri": (17.7, 22.0),
}

# With-without contribution (percentage points) of each modality on the
# bundled table: the mean of the 15 marginal gains acc(S + m) - acc(S) over
# the nonempty S without m. Derived from ``fixtures._ROWS`` in exact fractions,
# independently of ``modselect.quantify``. Each is a multiple of 0.01/15 pp,
# written to three decimals.
TABLE_CONTRIBUTIONS = {
    "sims4action": {"H": 12.664, "L": 14.659, "OF": 7.047, "RGB": 13.106, "YOLO": -0.375},
    "toyota": {"H": 2.791, "L": 2.579, "OF": 3.335, "RGB": -2.289, "YOLO": 2.944},
    "etri": {"H": -0.143, "L": 0.823, "OF": -0.763, "RGB": -2.022, "YOLO": 5.053},
}
# Mean accuracy (percent) over the bundled table before -> after keeping only
# the nonempty subsets of the positive set above, derived from
# ``fixtures._ROWS`` in exact fractions, to three decimals. "all-subsets"
# averages all 31 combinations, then the subsets of the positive set;
# "multimodal-only" does the same over the combinations of two or more
# modalities.
TABLE_ACCURACY_PAIRS = {
    "sims4action": {"all-subsets": (83.879, 85.178), "multimodal-only": (88.345, 93.174)},
    "toyota": {"all-subsets": (23.979, 25.465), "multimodal-only": (24.613, 26.575)},
    "etri": {"all-subsets": (17.379, 23.680), "multimodal-only": (17.572, 19.910)},
}
# Tolerance, in percentage points, for the values derived from the table.
TABLE_TOLERANCE_PP = 0.005


def _criterion(number, name, ok, detail=""):
    line = f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def test_criterion_1_winsorized_threshold_reproduction():
    details = []
    ok = True
    for dataset in DATASETS:
        values = [v for v in PUBLISHED_MMD[dataset].values() if v is not None]
        got = winsorized_mean(values, 0.2)
        want = PUBLISHED_THRESHOLDS[dataset][1]
        ok &= abs(got - want) <= 0.01
        details.append(f"{dataset}: {got:.4f} vs {want}")
    _criterion(1, "winsorized-mean threshold reproduction", ok, "; ".join(details))


def test_criterion_2_selection_set_reproduction():
    details = []
    ok = True
    for dataset in DATASETS:
        delta_rho, delta_mmd = PUBLISHED_THRESHOLDS[dataset]
        metrics = AggregatedMetrics(MODALITIES, PUBLISHED_RHO[dataset], PUBLISHED_MMD[dataset])
        report = aggregated_select(
            metrics,
            ThresholdConfig(delta_rho=delta_rho, delta_mmd=delta_mmd, consensus="or"),
        )
        got = set(report.selected)
        ok &= got == PUBLISHED_SELECTIONS[dataset]
        details.append(f"{dataset}: {{{','.join(sorted(got))}}}")
    _criterion(2, "selection-set reproduction", ok, "; ".join(details))


def test_criterion_3_contribution_signs_and_oracle():
    mismatches = []
    details = []
    oracle_ok = True
    for dataset in DATASETS:
        table = load_fixture(dataset)
        entries = []
        for m in MODALITIES:
            got = contribution(table, m)
            oracle_ok &= abs(got - brute_contribution(table, m)) <= 1e-12
            pinned = TABLE_CONTRIBUTIONS[dataset][m]
            if abs(100 * got - pinned) > TABLE_TOLERANCE_PP:
                mismatches.append(
                    f"{dataset}/{m}: computed {100 * got:+.3f} vs table {pinned:+.3f}"
                )
            entries.append(
                f"{m} {pinned:+.3f} (published {PUBLISHED_CONTRIBUTIONS[dataset][m]:+.2f})"
            )
        details.append(f"{dataset}: " + ", ".join(entries))
    detail = f"oracle equality (1e-12): {'ok' if oracle_ok else 'BROKEN'}; "
    detail += "table contributions in pp: " + "; ".join(details)
    if mismatches:
        detail += "; mismatches: " + "; ".join(mismatches)
    _criterion(3, "contribution values, signs and oracle", not mismatches and oracle_ok, detail)


def _mean_percent(table, combos):
    values = [table.percent(c) for c in combos]
    return sum(values) / len(values)


def test_criterion_4_average_multimodal_accuracy():
    improvement_ok = True
    pairs_ok = True
    details = []
    for dataset in DATASETS:
        table = load_fixture(dataset)
        all_combos = table.combinations()
        mplus = set(positive_modalities(table))
        subsets = [c for c in all_combos if set(c) <= mplus]
        mean_all31 = _mean_percent(table, all_combos)
        mean_multi = _mean_percent(table, [c for c in all_combos if len(c) >= 2])
        mean_sub = _mean_percent(table, subsets)
        mean_multi_sub = _mean_percent(table, [c for c in subsets if len(c) >= 2])
        improvement_ok &= mean_sub > mean_all31 and mean_multi_sub > mean_all31
        computed = {
            "all-subsets": (mean_all31, mean_sub),
            "multimodal-only": (mean_multi, mean_multi_sub),
        }
        entries = []
        for convention, (before, after) in computed.items():
            pinned = TABLE_ACCURACY_PAIRS[dataset][convention]
            ok = all(abs(x - y) <= TABLE_TOLERANCE_PP for x, y in zip((before, after), pinned))
            pairs_ok &= ok
            entries.append(
                f"{convention} {before:.3f} -> {after:.3f} "
                f"(table {pinned[0]:.3f} -> {pinned[1]:.3f}{'' if ok else ', MISMATCH'})"
            )
        published = PUBLISHED_ACCURACY_PAIRS[dataset]
        entries.append(f"published {published[0]} -> {published[1]}")
        details.append(f"{dataset}: " + ", ".join(entries))
    detail = (
        f"improvement holds on every test set: {improvement_ok}; "
        f"pairs match the table: {pairs_ok}; " + "; ".join(details)
    )
    _criterion(4, "average multimodal accuracy", improvement_ok and pairs_ok, detail)


def test_criterion_5_oracle_recovery():
    recovered = 0
    pairs_clean = True
    for seed in range(100):
        bundle, planted = generate(default_scenario(seed=seed))
        report = run_modselect(bundle)
        if set(report.selected) != planted:
            continue
        recovered += 1
        pair_report = pairs_select(
            report.correlations, report.discrepancies, ThresholdConfig(mode="pairs")
        )
        if not all(set(pair) <= planted for pair in pair_report.selected):
            pairs_clean = False
    _criterion(
        5,
        "planted-scenario recovery",
        recovered >= 95 and pairs_clean,
        f"exact recovery in {recovered}/100 runs; good-good pairs only: {pairs_clean}",
    )


def test_criterion_6_fusion_correctness():
    a = [0.5, 0.3, 0.2]
    b = [0.1, 0.6, 0.3]
    matrices = [np.array([a]), np.array([b])]
    manual = {
        FusionStrategy.SUM: [[x + y for x, y in zip(a, b)]],
        FusionStrategy.SQUARED_SUM: [[x * x + y * y for x, y in zip(a, b)]],
        FusionStrategy.PRODUCT: [[x * y for x, y in zip(a, b)]],
        FusionStrategy.MAXIMUM: [[max(x, y) for x, y in zip(a, b)]],
        FusionStrategy.MEDIAN: [[(x + y) / 2.0 for x, y in zip(a, b)]],
        FusionStrategy.BORDA_COUNT: [[2.0, 3.0, 1.0]],
    }
    micro_ok = all(
        np.array_equal(fuse(strategy, matrices), np.array(expected))
        for strategy, expected in manual.items()
    )

    specs = (
        ModalitySpec("g1", "good", accuracy=0.7, coupling=0.8),
        ModalitySpec("g2", "good", accuracy=0.6, coupling=0.8),
        ModalitySpec("r1", "random", embeddings=False),
        ModalitySpec("s1", "shifted", embedding_offset=4.0),
    )
    bundle, _ = generate(Scenario(5, 300, 6, specs, seed=42))
    table = sweep(bundle)
    truth = bundle.labels.values.tolist()
    mats = {rec.name: rec.scores.values for rec in bundle.modalities}
    sweep_ok = True
    worst = 0.0
    for size in range(1, 5):
        for combo in itertools.combinations(bundle.names, size):
            for strategy in ALL_STRATEGIES:
                fused = brute_fuse(strategy.value, [mats[n] for n in combo])
                pred = [int(np.argmax(row)) for row in fused]
                want = brute_mpca(pred, truth, bundle.n_classes)
                err = abs(table.value(combo, strategy.value) - want)
                worst = max(worst, err)
                sweep_ok &= err <= 1e-12
    _criterion(
        6,
        "fusion correctness",
        micro_ok and sweep_ok,
        f"micro-oracles exact: {micro_ok}; sweep max deviation {worst:.2e}",
    )


def test_criterion_7_metric_properties():
    rng = np.random.default_rng(1234)
    transforms = [lambda x: x**3, lambda x: 2.0 * x + 1.0, np.exp, np.arctan]
    failures = []
    trials = 10_000
    for trial in range(trials):
        n_samples = int(rng.integers(3, 16))
        n_classes = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 6))
        za = rng.dirichlet(np.ones(n_classes), n_samples)
        zb = rng.dirichlet(np.ones(n_classes), n_samples)
        rho = pair_correlation(za, zb)
        if rho != pair_correlation(zb, za):
            failures.append(f"{trial}: rho asymmetric")
        if not -1.0 <= rho <= 1.0:
            failures.append(f"{trial}: rho out of bounds")
        if abs(pair_correlation(za, za) - 1.0) > 1e-12:
            failures.append(f"{trial}: self-correlation != 1")
        ha = rng.normal(size=(n_samples, dim))
        hb = rng.normal(size=(n_samples, dim))
        hc = rng.normal(size=(n_samples, dim))
        ab = pair_mmd(ha, hb)
        if ab != pair_mmd(hb, ha) or ab < 0.0:
            failures.append(f"{trial}: mmd symmetry/nonnegativity")
        if pair_mmd(ha, ha) != 0.0:
            failures.append(f"{trial}: self-mmd nonzero")
        if pair_mmd(ha, hc) > ab + pair_mmd(hb, hc) + 1e-12:
            failures.append(f"{trial}: triangle inequality")
        transform = transforms[trial % len(transforms)]
        altered = [transform(za), zb]
        if not np.array_equal(
            fuse(FusionStrategy.BORDA_COUNT, [za, zb]),
            fuse(FusionStrategy.BORDA_COUNT, altered),
        ):
            failures.append(f"{trial}: borda not invariant")
        if failures:
            break
    _criterion(
        7,
        "metric properties",
        not failures,
        f"{trials} randomized trials" + (f"; first failure: {failures[0]}" if failures else ""),
    )


def test_criterion_8_encoder_checks():
    sigma = 6.0
    image = heatmap(Keypoints([[20.0, 15.0, 1.0]]), 64, 48, sigma=sigma)
    peak_ok = abs(image.values[15, 20] - 1.0) <= 1e-9
    at_sigma = image.values[15, 26]
    sigma_ok = abs(at_sigma - math.exp(-0.5)) <= 1e-9
    weighted = heatmap(Keypoints([[8.0, 8.0, 0.4]]), 32, 32, sigma=sigma)
    weight_ok = abs(weighted.values[8, 14] - 0.4 * math.exp(-0.5)) <= 1e-9

    rng = np.random.default_rng(7)
    norms_ok = True
    order_ok = True
    for _ in range(200):
        objects = []
        for _ in range(int(rng.integers(1, 6))):
            x, y = rng.uniform(-40, 40, 2)
            w, h = rng.uniform(0, 5, 2)
            objects.append((int(rng.integers(0, 12)), Box(x, y, x + w, y + h)))
        vec = detection_vector(DetectionSet(Box(-1, -1, 1, 1), tuple(objects)), 12)
        norms_ok &= abs(np.linalg.norm(vec) - 1.0) <= 1e-9
    near_far = detection_vector(
        DetectionSet(Box(0, 0, 0, 0), ((4, Box(2, 0, 2, 0)), (9, Box(30, 0, 30, 0)))), 12
    )
    order_ok &= near_far[4] > near_far[9] > 0.0
    _criterion(
        8,
        "encoder checks",
        peak_ok and sigma_ok and weight_ok and norms_ok and order_ok,
        f"peak={image.values[15, 20]:.12f}, value at sigma={at_sigma:.6f}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    kp = tmp_path / "kp.csv"
    kp.write_text("x,y,confidence\n5.0,5.0,1.0\n9.0,5.0,0.5\n")
    det = tmp_path / "det.csv"
    det.write_text(
        "role,class_index,x_min,y_min,x_max,y_max\nperson,,0,0,2,2\nobject,3,5,5,7,7\n"
    )
    skeleton = tmp_path / "skeleton.json"
    skeleton.write_text("[[0, 1]]")

    def run_all(out, bundle_dir):
        out.mkdir()
        manifest = str(bundle_dir / "manifest.json")
        commands = [
            ["synth", "--seed", "7", "--samples", "200", "--classes", "4", "--dim", "5",
             "--out-dir", str(out / "bundle")],
            ["evaluate", "--manifest", manifest, "--out", str(out / "table")],
            ["contribution", "--fixture", "sims4action", "--out", str(out / "contrib.json")],
            ["contribution", "--manifest", manifest, "--out", str(out / "contrib2.json")],
            ["select", "--manifest", manifest, "--out", str(out / "selection.json")],
            ["select", "--manifest", manifest, "--mode", "pairs", "--out", str(out / "pairs.json")],
            ["encode", "heatmap", "--keypoints", str(kp), "--width", "16", "--height", "16",
             "--out", str(out / "h.pgm")],
            ["encode", "limbs", "--keypoints", str(kp), "--width", "16", "--height", "16",
             "--skeleton", str(skeleton), "--out", str(out / "l.pgm")],
            ["encode", "detvec", "--detections", str(det), "--classes", "8",
             "--out", str(out / "v.csv")],
        ]
        for argv in commands:
            assert cli_main(argv) == 0, argv

    # Both passes read the very same input files; only output roots differ,
    # so every produced file must be byte-identical across reruns.
    shared_bundle = tmp_path / "shared"
    assert cli_main(["synth", "--seed", "7", "--samples", "200", "--classes", "4",
                     "--dim", "5", "--out-dir", str(shared_bundle)]) == 0
    run_all(tmp_path / "first", shared_bundle)
    run_all(tmp_path / "second", shared_bundle)

    first_files = sorted(p for p in (tmp_path / "first").rglob("*") if p.is_file())
    mismatched = []
    for path in first_files:
        twin = tmp_path / "second" / path.relative_to(tmp_path / "first")
        if path.read_bytes() != twin.read_bytes():
            mismatched.append(str(path.name))
    _criterion(
        9,
        "CLI determinism",
        bool(first_files) and not mismatched,
        f"{len(first_files)} files byte-compared across reruns"
        + (f"; mismatched: {mismatched}" if mismatched else ""),
    )
