import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modselect import mpca, pair_correlation, predict, synth, validate_bundle
from modselect.metrics import aggregated_from_matrices, correlation_matrix, mmd_matrix
from modselect.synth import (
    ModalitySpec,
    Scenario,
    default_scenario,
    expected_accuracy,
    generate,
)


def test_default_scenario_shape():
    scenario = default_scenario()
    assert scenario.classes == 10 and scenario.samples == 2000
    assert scenario.planted_good == {"good1", "good2", "good3"}
    kinds = {s.name: s.kind for s in scenario.modalities}
    assert kinds["random1"] == "random" and kinds["shifted1"] == "shifted"


def test_generated_bundle_is_valid():
    bundle, planted = generate(default_scenario(seed=1, samples=500))
    assert planted == {"good1", "good2", "good3"}
    assert validate_bundle(bundle).ok
    assert bundle.get("random1").embeddings is None
    assert bundle.get("shifted1").embeddings is not None


def test_determinism_bit_identical():
    scenario = default_scenario(seed=42, samples=300)
    first, _ = generate(scenario)
    second, _ = generate(scenario)
    for a, b in zip(first.modalities, second.modalities):
        assert np.array_equal(a.scores.values, b.scores.values)
        if a.embeddings is not None:
            assert np.array_equal(a.embeddings.values, b.embeddings.values)
    assert np.array_equal(first.labels.values, second.labels.values)
    third, _ = generate(default_scenario(seed=43, samples=300))
    assert not np.array_equal(first.labels.values, third.labels.values)


def test_accuracy_calibration_within_tolerance():
    bundle, _ = generate(default_scenario(seed=2, samples=2000))
    for name in ("good1", "good2", "good3"):
        scores = bundle.get(name).scores
        acc = mpca(predict(scores).values, bundle.labels.values, bundle.n_classes)
        assert acc == pytest.approx(0.7, abs=0.03)


def test_calibration_across_targets():
    for target in (0.3, 0.5, 0.9):
        specs = (
            ModalitySpec("g", "good", accuracy=target, coupling=0.5),
            ModalitySpec("r", "random", embeddings=False),
        )
        bundle, _ = generate(Scenario(10, 4000, 4, specs, seed=8))
        acc = mpca(predict(bundle.get("g").scores).values, bundle.labels.values, 10)
        assert acc == pytest.approx(target, abs=0.03)


def test_expected_accuracy_chance_level():
    for n_classes in (2, 5, 10):
        assert expected_accuracy(0.0, n_classes) == pytest.approx(1 / n_classes, abs=1e-9)
    assert expected_accuracy(8.0, 10) > 0.999


# Calibrated gain ratios as float.hex, recorded when the normal CDF came from
# scipy.special.ndtr: the math.erfc quadrature must land on the same bits,
# or every synthetic bundle changes.
PINNED_GAINS = {
    (0.55, 2): "0x1.6bf44253a2c00p-3",
    (0.7, 2): "0x1.7bb4df2d20b00p-1",
    (0.9, 2): "0x1.cff8a2529b780p+0",
    (0.999, 2): "0x1.17b226816fd20p+2",
    (0.55, 5): "0x1.2c2efd6b8fd80p+0",
    (0.7, 5): "0x1.a94ff120dde80p+0",
    (0.9, 5): "0x1.4cc3172c5c040p+1",
    (0.999, 5): "0x1.39e8e1d5689e0p+2",
    (0.55, 20): "0x1.fa258f668ba80p+0",
    (0.7, 20): "0x1.36ff8a64316c0p+1",
    (0.9, 20): "0x1.a638a2d444dc0p+1",
    (0.999, 20): "0x1.5c38221b20760p+2",
    (0.55, 100): "0x1.51172ae6b8cc0p+1",
    (0.7, 100): "0x1.88c65f116f0c0p+1",
    (0.9, 100): "0x1.f3756b00645c0p+1",
    (0.999, 100): "0x1.7c9d7704fae60p+2",
    (0.15, 10): "0x1.1eb8d6ffd6200p-2",
    (0.3, 4): "0x1.7bf1cd4a2a400p-3",
    (1.0, 3): "0x1.dffffffffffc4p+5",
    (1.0, 31): "0x1.dffffffffffc4p+5",
}


@pytest.mark.parametrize("target, n_classes", PINNED_GAINS)
def test_calibrated_gain_keeps_its_bits(target, n_classes):
    assert synth._calibrate_gain(target, n_classes).hex() == PINNED_GAINS[target, n_classes]


def test_importing_the_package_leaves_scipy_out():
    code = "import sys, modselect, modselect.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(synth.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_generate_calibrates_each_target_once(monkeypatch):
    calls = []

    def calibrate(target, n_classes):
        calls.append(target)
        return 1.0

    monkeypatch.setattr(synth, "_calibrate_gain", calibrate)
    specs = [ModalitySpec(f"g{i}", "good", accuracy=0.7 if i % 3 else 0.8) for i in range(6)]
    generate(Scenario(5, 20, 2, (*specs, ModalitySpec("r", "random")), seed=1))
    assert sorted(calls) == [0.7, 0.8]


def test_shifted_modality_separation():
    bundle, _ = generate(default_scenario(seed=3))
    agg = aggregated_from_matrices(correlation_matrix(bundle), mmd_matrix(bundle))
    shifted = agg.mmd["shifted1"]
    for name in ("good1", "good2", "good3"):
        assert shifted > agg.mmd[name]


def test_uncoupled_random_modalities_are_uncorrelated():
    specs = tuple(ModalitySpec(f"r{i}", "random", coupling=0.0, embeddings=False) for i in range(3))
    bundle, _ = generate(Scenario(10, 5000, 4, specs, seed=12))
    names = bundle.names
    for i in range(3):
        for j in range(i + 1, 3):
            rho = pair_correlation(bundle.get(names[i]).scores, bundle.get(names[j]).scores)
            assert abs(rho) < 0.05


def test_fully_coupled_noiseless_goods_correlate_perfectly():
    specs = (
        ModalitySpec("u", "good", accuracy=1.0, coupling=1.0, noise_scale=0.0),
        ModalitySpec("v", "good", accuracy=1.0, coupling=1.0, noise_scale=0.0),
    )
    bundle, _ = generate(Scenario(5, 500, 4, specs, seed=4))
    rho = pair_correlation(bundle.get("u").scores, bundle.get("v").scores)
    assert rho == pytest.approx(1.0, abs=1e-9)
    acc = mpca(predict(bundle.get("u").scores).values, bundle.labels.values, 5)
    assert acc == 1.0


def test_infeasible_accuracy_target_rejected():
    with pytest.raises(ValueError, match="infeasible accuracy target"):
        Scenario(
            10,
            100,
            4,
            (ModalitySpec("g", "good", accuracy=0.05),),
            seed=1,
        )
    with pytest.raises(ValueError, match="infeasible accuracy target"):
        Scenario(10, 100, 4, (ModalitySpec("g", "good", accuracy=0.1),), seed=1)


def test_scenario_validation():
    good = ModalitySpec("g", "good")
    with pytest.raises(ValueError, match="two classes"):
        Scenario(1, 10, 4, (good,), seed=0)
    with pytest.raises(ValueError, match="distinct"):
        Scenario(5, 10, 4, (good, good), seed=0)
    with pytest.raises(ValueError, match="kind"):
        ModalitySpec("x", "excellent")
    with pytest.raises(ValueError, match="coupling"):
        ModalitySpec("x", "good", coupling=1.5)


@pytest.mark.parametrize("name", ["a/../../outside", "a\\b", "nul\0"])
def test_scenario_rejects_a_modality_name_that_cannot_name_a_file(name):
    payload = default_scenario().to_dict()
    payload["modalities"][1]["name"] = name
    with pytest.raises(ValueError, match=r"modalities\[1\]\.name") as err:
        Scenario.from_dict(payload)
    assert repr(name) in str(err.value)


@pytest.mark.parametrize("bad", [float("nan"), float("-inf"), pytest.param(10**400, id="int-beyond-float")])
def test_scenario_rejects_a_number_that_is_not_finite(bad):
    payload = default_scenario().to_dict()
    payload["modalities"][3]["accuracy"] = bad  # random1's, which generate never reads
    with pytest.raises(ValueError) as err:
        Scenario.from_dict(payload)
    assert str(err.value) == f"scenario: modalities[3]: 'accuracy' must be a finite number, not {bad!r}"


def test_scenario_dict_round_trip():
    scenario = default_scenario(seed=9, samples=123)
    clone = Scenario.from_dict(scenario.to_dict())
    assert clone == scenario
    bundle_a, _ = generate(scenario)
    bundle_b, _ = generate(clone)
    assert np.array_equal(bundle_a.labels.values, bundle_b.labels.values)
