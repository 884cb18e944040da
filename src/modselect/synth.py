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

# The 201-node Gauss-Hermite rule for the weight exp(-x^2 / 2), bit for bit
# np.polynomial.hermite_e.hermegauss(201), stored so that no process solves
# it (a LAPACK eigensolve, and numpy.polynomial's import) at start-up. The
# rule is symmetric about its middle node, +0.0: these are its 101
# non-negative nodes and their weights, mirrored below.
_HALF_NODES = np.array(list(map(float.fromhex, """
0x0.0p+0 0x1.c54232090f6e0p-3 0x1.c545b8c4e2434p-2 0x1.53f8b359c6eb9p-1
0x1.c553d5d865a1bp-1 0x1.1b5b04b0a35f6p+0 0x1.54108a736bb49p+0 0x1.8ccb609436a8fp+0
0x1.c58c6c886729ap+0 0x1.fe54950b0245cp+0 0x1.1b926126ae90dp+1 0x1.37feef1456b2cp+1
0x1.54706a284de7cp+1 0x1.70e749437ce7fp+1 0x1.8d6404685e409p+1 0x1.a9e714d630711p+1
0x1.c670f524ef845p+1 0x1.e302216229ff1p+1 0x1.ff9b172ec61c7p+1 0x1.0e1e2aeee6c67p+2
0x1.1c732f4a2ba73p+2 0x1.2accda35545bap+2 0x1.392b6e4754402p+2 0x1.478f2f33e0390p+2
0x1.55f861de26368p+2 0x1.64674c6c5be28p+2 0x1.72dc365c36364p+2 0x1.815768985d18dp+2
0x1.8fd92d8eefaf7p+2 0x1.9e61d1492fb8ep+2 0x1.acf1a1846c2f6p+2 0x1.bb88edcc457ccp+2
0x1.ca28079667dc4p+2 0x1.d8cf425fdb10dp+2 0x1.e77ef3cc096e8p+2 0x1.f63773c5a35c0p+2
0x1.027c8e50c3fa9p+3 0x1.09e225a1efb10p+3 0x1.114cafa3cbeb7p+3 0x1.18bc5d943d8aap+3
0x1.203162380be0bp+3 0x1.27abf1f2e0040p+3 0x1.2f2c42e0f2fc0p+3 0x1.36b28cf292de9p+3
0x1.3e3f0a09ab58dp+3 0x1.45d1f61983158p+3 0x1.4d6b8f48e50fep+3 0x1.550c1616f3467p+3
0x1.5cb3cd82e77fcp+3 0x1.6462fb370f1b6p+3 0x1.6c19e7b7585b3p+3 0x1.73d8de93d2673p+3
0x1.7ba02e9f8dba9p+3 0x1.83702a2c58fd6p+3 0x1.8b49274be6d1bp+3 0x1.932b8016fc430p+3
0x1.9b1792fb5dbd0p+3 0x1.a30dc3114a566p+3 0x1.ab0e7879737d0p+3 0x1.b31a20c4828dfp+3
0x1.bb312f6567a64p+3 0x1.c3541e2fde4a7p+3 0x1.cb836de4cf017p+3 0x1.d3bfa6ce7a9bdp+3
0x1.dc09596eaf22cp+3 0x1.e4611f41aa5eap+3 0x1.ecc79b98c6879p+3 0x1.f53d7c909ff32p+3
0x1.fdc37c2714d99p+3 0x1.032d30bb2d65ep+4 0x1.0781810db965ep+4 0x1.0bdf21e7c9891p+4
0x1.10468f1edf528p+4 0x1.14b84e8fe7a5dp+4 0x1.1934f15867461p+4 0x1.1dbd1542e51e3p+4
0x1.225166714a528p+4 0x1.26f2a152b517cp+4 0x1.2ba194f5dd512p+4 0x1.305f25cdfad8fp+4
0x1.352c51069251ep+4 0x1.3a0a308b5104dp+4 0x1.3ef9fff52ec62p+4 0x1.43fd229ee1477p+4
0x1.49152b3a8bbe5p+4 0x1.4e43e5650dcf7p+4 0x1.538b61e615921p+4 0x1.58ee06987ace0p+4
0x1.5e6ea36c3a0eep+4 0x1.64108eae3a1e5p+4 0x1.69d7cbf3d0d21p+4 0x1.6fc9430f0d870p+4
0x1.75eb10081958ap+4 0x1.7c44fbc7c0056p+4 0x1.82e13a585a381p+4 0x1.89cda7c9c5b60p+4
0x1.911dfe8fbe1cbp+4 0x1.98f02fd7347a6p+4 0x1.a17624677ce30p+4 0x1.ab10aee8421b9p+4
0x1.b6bd2461fd371p+4
""".split())))
_HALF_WEIGHTS = np.array(list(map(float.fromhex, """
0x1.c541052bf52b2p-3 0x1.ba4d3d874e086p-3 0x1.9b0143bcfdc15p-3 0x1.6bae04e118237p-3
0x1.326c6742e4a3ep-3 0x1.eba9bb32d0d78p-4 0x1.778dd6888d86bp-4 0x1.111c41918c69fp-4
0x1.7a25b1abc0e9cp-5 0x1.f2647c786585ap-6 0x1.389ac96c35869p-6 0x1.75336bb03237ap-7
0x1.a7f677621579fp-8 0x1.ca3c82e83c0b3p-9 0x1.d727060c49e87p-10 0x1.ccc17eda30253p-11
0x1.ac7d1deb14c6bp-12 0x1.7add0e8bb42d2p-13 0x1.3e6d6c19ea96dp-14 0x1.fcb16d6623fb5p-16
0x1.820f94b519270p-17 0x1.164faccc46d61p-18 0x1.7d0f97df18c9ap-20 0x1.ef543093f800ep-22
0x1.318a44a6e1c07p-23 0x1.65a2b3e0f04e4p-25 0x1.8d0aa92e28a47p-27 0x1.a1ed9d4d36d19p-29
0x1.a0f1718e9d580p-31 0x1.8a1668a283837p-33 0x1.60c100a9552acp-35 0x1.2ae6c5dcb93b0p-37
0x1.df4987cb9bbdap-40 0x1.6b6bdc98803ffp-42 0x1.047cce25a2106p-44 0x1.60cd277f8bfd0p-47
0x1.c334b11c92961p-50 0x1.104c16b86c20fp-52 0x1.35fb84045ea74p-55 0x1.4ca027df9945dp-58
0x1.5036a9595e3abp-61 0x1.3fe73a5c66b9ep-64 0x1.1e527b10779efp-67 0x1.e1c1edf8849e7p-71
0x1.7ca91a9c8d17cp-74 0x1.1a4395a654d7ep-77 0x1.887f46a43c9dbp-81 0x1.ff47720581b39p-85
0x1.37a85d156945fp-88 0x1.633dc4edf5f2cp-92 0x1.7a30d3e031f20p-96 0x1.77a1f6041264ep-100
0x1.5bae161e347cfp-104 0x1.2b866a75a0a6dp-108 0x1.dfbb8a02c9cffp-113 0x1.64a4b0cc7135dp-117
0x1.eb9121e6e9c79p-122 0x1.399236be45ccep-126 0x1.71b795def7bdap-131 0x1.923038a5402c3p-136
0x1.92f31015cdf0ep-141 0x1.732082161f266p-146 0x1.399b85df1385ep-151 0x1.e53ea49db8df9p-157
0x1.56f062bdfff73p-162 0x1.b9c1e6afbb8e0p-168 0x1.02a4f86f54edbp-173 0x1.12935905d2a61p-179
0x1.077f55bcf669bp-185 0x1.c7c1c1dbdb51ep-192 0x1.6205c88ecab7ap-198 0x1.ec3e1c11e65f1p-205
0x1.311a6cdc56331p-211 0x1.4fce47246ffa3p-218 0x1.46ad1a03aca0ap-225 0x1.1784af8287d36p-232
0x1.a27cab8fc8bf5p-240 0x1.107c32371f820p-247 0x1.32acbe44e7246p-255 0x1.28364212f34eap-263
0x1.e744cab0e1c67p-272 0x1.525936d0a747dp-280 0x1.88e1b3594836ap-289 0x1.79566ae1c1259p-298
0x1.281d552f1fd5bp-307 0x1.767e12ff40218p-317 0x1.779ab0495312dp-327 0x1.254ea9b703fafp-337
0x1.5d11857e247ccp-348 0x1.34a096430d08cp-359 0x1.894d2e2ad5d36p-371 0x1.5c1b7bed299f3p-383
0x1.98da6a1065bfcp-396 0x1.2cafcd6a620c1p-409 0x1.00d64042766bfp-423 0x1.cc5ff5931ea58p-439
0x1.771add41db44ep-455 0x1.bff8e3a842847p-473 0x1.12e14588e74f8p-492 0x1.5f8abfab2ae42p-515
0x1.49038ef25b084p-543
""".split())))
_HERMITE_NODES = np.concatenate((-_HALF_NODES[:0:-1], _HALF_NODES))
_HERMITE_WEIGHTS = np.concatenate((_HALF_WEIGHTS[:0:-1], _HALF_WEIGHTS))
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


def expected_accuracy(gain_ratio: float, n_classes: int) -> float:
    """Argmax accuracy of ``gain * onehot(label) + unit normal noise`` logits.

    ``gain_ratio`` is the label-signal gain divided by the noise scale. The
    probability that the true class keeps the maximum is the expectation of
    ``Phi(z + gain_ratio)^(C-1)`` over a standard normal z, evaluated here by
    the stored 201-node Gauss-Hermite rule. The weighted terms are added
    left to right, from the most negative node up, in an order numpy fixes:
    a BLAS dot product would add them in an order that depends on the CPU.
    """
    # Phi(x) = erfc(-x / sqrt 2) / 2, one Python call per node, so that the
    # package needs no scipy. math.erfc can differ from cephes' ndtr by an
    # ulp at a node; tests pin _calibrate_gain's results to ndtr's bits.
    nodes = (_HERMITE_NODES + gain_ratio).tolist()
    phi = np.array([0.5 * math.erfc(-x * _SQRT_HALF) for x in nodes])
    powers = phi ** (n_classes - 1)
    powers *= _HERMITE_WEIGHTS
    return float(np.add.accumulate(powers)[-1] / _SQRT_2PI)


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
        if self.seed < 0:  # numpy seeds a generator only from a non-negative integer
            raise ValueError(f"scenario: 'seed' must be a non-negative integer, not {self.seed}")
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


_BLOCK_ROWS = 256  # rows per step of _record's in-place sums, which bounds their temporaries


def _blocks(n_rows: int) -> Iterator[slice]:
    return (slice(start, start + _BLOCK_ROWS) for start in range(0, n_rows, _BLOCK_ROWS))


class Draws:
    """A scenario's seeded draws as a stream that can be opened again and again.

    :meth:`stream` yields the labels, then one :class:`ModalityRecord` per
    modality, in the scenario's order; the labels and the draws every
    modality shares (the class centres and one S x C array of noise) are
    held while it runs, each record only until the caller drops it. A
    record is drawn into the arrays it returns, so making one takes
    temporaries of one block of rows, not of the whole matrix. Every
    stream makes the same draws in the same order,
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
        yield LabelVector(labels)
        for spec in self.scenario.modalities:
            yield self._record(rng, spec, labels, class_centers, shared_noise)

    def _record(self, rng, spec: ModalitySpec, labels, class_centers, shared_noise) -> ModalityRecord:
        """One modality's record, drawn after the shared draws.

        Each array is drawn into the array it returns and finished there, a
        block of rows at a time, so that no S x C or S x d temporary is made.
        Addition and multiplication commute exactly, so the scores' logits
        are ``gain * onehot(label) + noise_scale * (sqrt(c) * shared + sqrt(1 - c) * own)``
        and the embeddings ``class_center + offset * direction + noise_scale * noise``
        to the bit. The gain is added at each label alone; an off-label
        logit that is -0.0 stays so, which ``_softmax`` cannot tell, since it
        subtracts the row's maximum before it exponentiates.
        """
        if spec.kind == "good":
            on_label = (np.arange(len(labels)), labels)
            if spec.noise_scale == 0.0:
                logits = np.zeros(shared_noise.shape)
                logits[on_label] = _ZERO_NOISE_GAIN
            else:
                logits = rng.normal(0.0, 1.0, size=shared_noise.shape)  # the modality's own noise
                own, shared = math.sqrt(1.0 - spec.coupling), math.sqrt(spec.coupling)
                for rows in _blocks(len(labels)):
                    block = logits[rows]
                    block *= own
                    block += shared * shared_noise[rows]
                    block *= spec.noise_scale
                logits[on_label] += self.gains[spec.accuracy] * spec.noise_scale
            scores = _softmax(logits)
        else:
            scores = rng.dirichlet(np.ones(shared_noise.shape[1]), size=len(labels))

        embeddings = None
        if spec.embeddings:
            centers = class_centers
            if spec.embedding_offset > 0.0:
                direction = rng.normal(0.0, 1.0, size=class_centers.shape[1])
                direction /= np.linalg.norm(direction)
                centers = class_centers + spec.embedding_offset * direction
            if spec.noise_scale > 0.0:
                points = rng.normal(0.0, 1.0, size=(len(labels), class_centers.shape[1]))
                points *= spec.noise_scale
                for rows in _blocks(len(labels)):
                    block = points[rows]
                    block += centers[labels[rows]]
            else:
                points = centers[labels]  # a new array: fancy indexing copies
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
