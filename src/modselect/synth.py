"""Seeded synthetic scenarios with planted good and bad modalities.

The generator stands in for trained classifiers: it emits score matrices and
embeddings whose selection-relevant behaviour (prediction coupling, unimodal
accuracy, embedding drift) is known by construction, so the full pipeline
can be validated against planted ground truth.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Iterator, Mapping, get_type_hints

import numpy as np

from .core import Bundle, BundleLayout, EmbeddingMatrix, LabelVector, ModalityRecord, ScoreMatrix, json_field
from .dataio import names_a_file

KINDS = ("good", "random", "shifted")

# Logit sharpness used when a good modality has zero score noise; any
# positive gain yields perfect accuracy, this one also keeps scores crisp.
_ZERO_NOISE_GAIN = 8.0

_HERMITE_NODES, _HERMITE_WEIGHTS = np.polynomial.hermite_e.hermegauss(201)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


def expected_accuracy(gain_ratio: float, n_classes: int) -> float:
    """Argmax accuracy of ``gain * onehot(label) + unit normal noise`` logits.

    ``gain_ratio`` is the label-signal gain divided by the noise scale. The
    probability that the true class keeps the maximum is the expectation of
    ``Phi(z + gain_ratio)^(C-1)`` over a standard normal z, evaluated here by
    Gauss-Hermite quadrature.
    """
    # Phi(x) = erfc(-x / sqrt 2) / 2, one Python call per node, so that the
    # package needs no scipy. math.erfc can differ from cephes' ndtr by an
    # ulp at a node; tests pin _calibrate_gain's results to ndtr's bits.
    nodes = (_HERMITE_NODES + gain_ratio).tolist()
    phi = np.array([0.5 * math.erfc(-x * _SQRT_HALF) for x in nodes])
    powers = phi ** (n_classes - 1)
    return float(_HERMITE_WEIGHTS @ powers / _SQRT_2PI)


def _calibrate_gain(target: float, n_classes: int) -> float:
    """Bisect the signal gain ratio so that expected accuracy hits the target."""
    chance = 1.0 / n_classes
    if not (chance < target <= 1.0):
        raise ValueError(
            f"infeasible accuracy target {target} (chance level is {chance:.4g})"
        )
    lo, hi = 0.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected_accuracy(mid, n_classes) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ModalitySpec:
    """One planted modality.

    ``kind`` controls the scores: ``good`` modalities mix a label signal with
    noise that is partly shared across good modalities (fraction ``coupling``
    of the noise variance), calibrated so unimodal accuracy matches
    ``accuracy``; ``random`` and ``shifted`` modalities emit label-independent
    symmetric-Dirichlet scores. Embeddings (when present) cluster around
    shared per-class centers, displaced by ``embedding_offset`` along a
    modality-specific direction and spread by ``noise_scale``.
    """

    name: str
    kind: str
    accuracy: float = 0.7
    coupling: float = 0.85
    embedding_offset: float = 0.0
    noise_scale: float = 1.0
    embeddings: bool = True

    def __post_init__(self):
        if not self.name:
            raise ValueError("modality name must be nonempty")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if not (0.0 <= self.coupling <= 1.0):
            raise ValueError("coupling must lie in [0, 1]")
        if not (math.isfinite(self.embedding_offset) and self.embedding_offset >= 0.0):
            raise ValueError("embedding offset must be finite and nonnegative")
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0.0):
            raise ValueError("noise scale must be finite and nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping, where: str = "scenario modality") -> "ModalitySpec":
        """Inverse of :meth:`to_dict`; a missing or mistyped field raises ``ValueError`` naming ``where`` and it."""
        kinds = get_type_hints(cls)
        return cls(**{
            f.name: json_field(payload, f.name, where, kinds[f.name],
                               *(() if f.default is MISSING else (f.default,)))
            for f in fields(cls)
        })


@dataclass(frozen=True)
class Scenario:
    classes: int
    samples: int
    embedding_dim: int
    modalities: tuple[ModalitySpec, ...]
    seed: int

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError("scenario needs at least two classes")
        if self.samples < 1:
            raise ValueError("scenario needs at least one sample")
        if self.embedding_dim < 1:
            raise ValueError("embedding dimension must be positive")
        specs = tuple(self.modalities)
        if not specs:
            raise ValueError("scenario needs at least one modality")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("modality names must be distinct")
        chance = 1.0 / self.classes
        for spec in specs:
            if spec.kind == "good" and not (chance < spec.accuracy <= 1.0):
                raise ValueError(
                    f"infeasible accuracy target {spec.accuracy} for {spec.name!r} "
                    f"(chance level is {chance:.4g})"
                )
        object.__setattr__(self, "modalities", specs)

    @property
    def planted_good(self) -> frozenset[str]:
        return frozenset(s.name for s in self.modalities if s.kind == "good")

    def to_dict(self) -> dict:
        return {
            "classes": self.classes,
            "samples": self.samples,
            "embedding_dim": self.embedding_dim,
            "seed": self.seed,
            "modalities": [s.to_dict() for s in self.modalities],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Scenario":
        """Inverse of :meth:`to_dict`; a missing or mistyped field raises ``ValueError`` naming it."""
        specs = tuple(
            ModalitySpec.from_dict(spec, f"scenario: modalities[{i}]")
            for i, spec in enumerate(json_field(payload, "modalities", "scenario", list))
        )
        for i, spec in enumerate(specs):  # names become file names in the bundle synth writes
            if not names_a_file(spec.name):
                raise ValueError(
                    f"scenario: modalities[{i}].name {spec.name!r} holds '/', '\\' or NUL and cannot name a file"
                )
        return cls(
            classes=json_field(payload, "classes", "scenario", int),
            samples=json_field(payload, "samples", "scenario", int),
            embedding_dim=json_field(payload, "embedding_dim", "scenario", int),
            modalities=specs,
            seed=json_field(payload, "seed", "scenario", int),
        )


def default_scenario(
    seed: int = 42,
    samples: int = 2000,
    classes: int = 10,
    embedding_dim: int = 32,
) -> Scenario:
    """Three coupled good modalities, one random scorer, one drifted embedder.

    The random scorer carries no embeddings, so it exercises the
    correlation-only fallback; the drifted modality's offset is five times
    its noise scale, which keeps its aggregated discrepancy well above every
    good modality's.
    """
    specs = (
        ModalitySpec("good1", "good", accuracy=0.7, coupling=0.85),
        ModalitySpec("good2", "good", accuracy=0.7, coupling=0.85),
        ModalitySpec("good3", "good", accuracy=0.7, coupling=0.85),
        ModalitySpec("random1", "random", embeddings=False),
        ModalitySpec("shifted1", "shifted", embedding_offset=5.0),
    )
    return Scenario(classes, samples, embedding_dim, specs, seed)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in place in ``logits``."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


class Draws:
    """A scenario's seeded draws as a stream that can be opened again and again.

    :meth:`stream` yields the labels, then one :class:`ModalityRecord` per
    modality, in the scenario's order; the labels and the draws every
    modality shares are held while it runs, each record only until the
    caller drops it. Every stream makes the same draws in the same order,
    so each yields bit-identical records. The signal gains are calibrated
    here, once, and take no random draws. ``layout`` says which files the
    records make, so ``dataio.write_bundle`` writes the stream as it would
    write :func:`generate`'s bundle.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.gains: dict[float, float] = {}  # accuracy target -> calibrated gain ratio, each bisected once
        for spec in scenario.modalities:
            if spec.kind == "good" and spec.noise_scale != 0.0 and spec.accuracy not in self.gains:
                self.gains[spec.accuracy] = _calibrate_gain(spec.accuracy, scenario.classes)
        self.layout = BundleLayout(
            tuple(s.name for s in scenario.modalities),
            tuple(f"c{i}" for i in range(scenario.classes)),
            tuple(scenario.embedding_dim if s.embeddings else None for s in scenario.modalities),
            True,
        )

    def stream(self) -> Iterator:
        """The labels as a :class:`LabelVector`, then each modality's record."""
        rng = np.random.default_rng(self.scenario.seed)
        n_classes = self.scenario.classes
        n_samples = self.scenario.samples

        labels = rng.integers(0, n_classes, size=n_samples)
        class_centers = rng.normal(0.0, 1.0, size=(n_classes, self.scenario.embedding_dim))
        shared_noise = rng.normal(0.0, 1.0, size=(n_samples, n_classes))
        onehot = np.zeros((n_samples, n_classes))
        onehot[np.arange(n_samples), labels] = 1.0
        yield LabelVector(labels)
        for spec in self.scenario.modalities:
            yield self._record(rng, spec, labels, class_centers, shared_noise, onehot)

    def _record(self, rng, spec: ModalitySpec, labels, class_centers, shared_noise, onehot) -> ModalityRecord:
        """One modality's record, drawn after the shared draws.

        The arithmetic runs in place where it can, so that a good
        modality's scores take two S x C arrays to make. Addition and
        multiplication commute exactly, so the bits are those of
        ``gain * onehot + noise_scale * (sqrt(c) * shared + sqrt(1 - c) * own)``.
        """
        if spec.kind == "good":
            if spec.noise_scale == 0.0:
                logits = _ZERO_NOISE_GAIN * onehot
            else:
                logits = rng.normal(0.0, 1.0, size=shared_noise.shape)  # the modality's own noise
                logits *= math.sqrt(1.0 - spec.coupling)
                logits += math.sqrt(spec.coupling) * shared_noise
                logits *= spec.noise_scale
                logits += (self.gains[spec.accuracy] * spec.noise_scale) * onehot
            scores = _softmax(logits)
        else:
            scores = rng.dirichlet(np.ones(shared_noise.shape[1]), size=len(labels))

        embeddings = None
        if spec.embeddings:
            points = class_centers[labels]  # a new array: fancy indexing copies
            if spec.embedding_offset > 0.0:
                direction = rng.normal(0.0, 1.0, size=class_centers.shape[1])
                direction /= np.linalg.norm(direction)
                points += spec.embedding_offset * direction
            if spec.noise_scale > 0.0:
                noise = rng.normal(0.0, 1.0, size=points.shape)
                noise *= spec.noise_scale
                points += noise
            embeddings = EmbeddingMatrix(points)
        return ModalityRecord(spec.name, ScoreMatrix(scores, self.layout.class_names), embeddings)


def generate(scenario: Scenario) -> tuple[Bundle, frozenset[str]]:
    """Materialize a scenario's :class:`Draws` into a labelled bundle plus the planted-good set.

    The draw order is fixed, so identical scenarios (same seed included)
    produce bit-identical bundles, and ``dataio.write_bundle`` writes the
    same bytes from this bundle as from the draws' stream.
    """
    labels, *records = Draws(scenario).stream()
    return Bundle(tuple(records), labels), scenario.planted_good
