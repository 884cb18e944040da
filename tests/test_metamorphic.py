"""Metamorphic properties of the sweep and of selection over seeded synth scenarios.

Each test changes a bundle in a way the paper's quantities do not see, runs
the sweep (what ``evaluate`` writes) or ``run_modselect`` (what ``select``
writes) on both bundles, and compares. Only properties that hold exactly
are asserted: sum, squared sum and product fold their members in manifest
order, so they can move by an ulp when the modalities are permuted, and
class order is not an invariant (argmax ties go to the lowest class index).
"""

from dataclasses import replace

import numpy as np
import pytest

from modselect import (
    Bundle,
    EmbeddingMatrix,
    LabelVector,
    ModalityRecord,
    ScoreMatrix,
    ThresholdConfig,
    generate,
    run_modselect,
    sweep,
)
from modselect.fusion import parse_strategies
from modselect.synth import ModalitySpec, Scenario

SEEDS = [1, 2, 3]
MODES = ["aggregated", "pairs"]


def _bundle(seed: int) -> Bundle:
    specs = (
        ModalitySpec("good1", "good", accuracy=0.7),
        ModalitySpec("good2", "good", accuracy=0.6, coupling=0.5),
        ModalitySpec("random1", "random", embeddings=False),
        ModalitySpec("good3", "good", accuracy=0.5, embedding_offset=1.0),
        ModalitySpec("shifted1", "shifted", embedding_offset=5.0),
        ModalitySpec("good4", "good", accuracy=0.65, coupling=0.95),
    )
    return generate(Scenario(classes=5, samples=300, embedding_dim=8, modalities=specs, seed=seed))[0]


def _reordered(bundle: Bundle, order) -> Bundle:
    return Bundle(tuple(bundle.modalities[i] for i in order), bundle.labels, bundle.class_names)


def _unordered(subject):
    # A pair's members follow the manifest order; the pair itself has none.
    return frozenset(subject) if isinstance(subject, tuple) else subject


@pytest.mark.parametrize("seed", SEEDS)
def test_renaming_modalities_changes_only_names(seed):
    bundle = _bundle(seed)
    # The new names sort in the reverse of the old names' order.
    new = {name: f"m{9 - i}" for i, name in enumerate(sorted(bundle.names))}
    renamed = Bundle(
        tuple(replace(rec, name=new[rec.name]) for rec in bundle.modalities), bundle.labels, bundle.class_names
    )
    table, renamed_table = sweep(bundle), sweep(renamed)
    assert renamed_table.modalities == tuple(new[m] for m in table.modalities)
    assert renamed_table.strategies == table.strategies
    assert renamed_table.values.tobytes() == table.values.tobytes()

    def rename(subject):
        return tuple(new[m] for m in subject) if isinstance(subject, tuple) else new[subject]

    for mode in MODES:
        config = ThresholdConfig(mode=mode)
        report, renamed_report = run_modselect(bundle, config), run_modselect(renamed, config)
        assert renamed_report.rho_threshold == report.rho_threshold
        assert renamed_report.mmd_threshold == report.mmd_threshold
        assert renamed_report.decisions == tuple(replace(d, subject=rename(d.subject)) for d in report.decisions)


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffling_samples_leaves_the_table_bit_equal(seed):
    bundle = _bundle(seed)
    perm = np.random.default_rng(seed).permutation(bundle.n_samples)

    def shuffled(rec):
        embeddings = None if rec.embeddings is None else EmbeddingMatrix(rec.embeddings.values[perm])
        return ModalityRecord(rec.name, ScoreMatrix(rec.scores.values[perm], rec.scores.class_names), embeddings)

    moved = Bundle(tuple(map(shuffled, bundle.modalities)), LabelVector(bundle.labels.values[perm]), bundle.class_names)
    assert sweep(moved).values.tobytes() == sweep(bundle).values.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_permuting_modalities_permutes_the_order_free_columns(seed):
    bundle = _bundle(seed)
    order = np.random.default_rng(seed).permutation(len(bundle.names))
    strategies = parse_strategies("max,median,borda")
    table, permuted = sweep(bundle, strategies), sweep(_reordered(bundle, order), strategies)
    assert permuted.modalities == tuple(bundle.names[i] for i in order)
    rows = {frozenset(c): row.tobytes() for c, row in zip(table.combinations(), table.values)}
    assert {frozenset(c): row.tobytes() for c, row in zip(permuted.combinations(), permuted.values)} == rows


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_permuting_modalities_keeps_the_selected_set(seed, mode):
    # The aggregates may move by an ulp with the order they are summed in,
    # so the set is compared only where none lies near its threshold.
    bundle = _bundle(seed)
    order = np.random.default_rng(seed).permutation(len(bundle.names))
    config = ThresholdConfig(mode=mode)
    report, permuted = run_modselect(bundle, config), run_modselect(_reordered(bundle, order), config)
    for d in report.decisions:
        for value, threshold in ((d.rho, report.rho_threshold.value), (d.mmd, report.mmd_threshold.value)):
            if value is not None and threshold is not None:
                assert abs(value - threshold) > 1e-9, (d.subject, value, threshold)
    assert {_unordered(s) for s in permuted.selected} == {_unordered(s) for s in report.selected}
    assert len(permuted.decisions) == len(report.decisions)
