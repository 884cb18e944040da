import os

import numpy as np
import pytest

from modselect import Bundle, EmbeddingMatrix, LabelVector, ModalityRecord, ScoreMatrix


def simplex_rows(rng, n_samples, n_classes):
    return rng.dirichlet(np.ones(n_classes), size=n_samples)


def make_bundle(score_arrays, labels=None, embeddings=None, names=None, class_names=None):
    """Assemble a bundle from raw arrays; embeddings may be None per modality."""
    n_classes = np.asarray(score_arrays[0]).shape[1]
    class_names = tuple(class_names or (f"c{i}" for i in range(n_classes)))
    if names is None:
        names = [f"m{i}" for i in range(len(score_arrays))]
    if embeddings is None:
        embeddings = [None] * len(score_arrays)
    records = tuple(
        ModalityRecord(
            name,
            ScoreMatrix(scores, class_names),
            None if emb is None else EmbeddingMatrix(emb),
        )
        for name, scores, emb in zip(names, score_arrays, embeddings)
    )
    label_vec = None if labels is None else LabelVector(np.asarray(labels))
    return Bundle(records, label_vec, class_names)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes ``os.sched_getaffinity`` report n CPUs for the rest of the test."""

    def force(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return force
