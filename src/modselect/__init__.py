"""modselect: late-fusion evaluation and unsupervised modality selection.

The package evaluates multimodal late-fusion classifiers from per-modality
score and embedding dumps, quantifies each modality's contribution to the
fused accuracy, and selects beneficial modalities without ground-truth
labels from prediction correlations and embedding discrepancies.
"""

__version__ = "0.1.0"

from .core import (
    AccuracyTable,
    Bundle,
    EmbeddingMatrix,
    EmbeddingMeans,
    LabelVector,
    ModalityRecord,
    ScoreMatrix,
    ValidationResult,
    Violation,
    validate_bundle,
)
from .fixtures import FIXTURE_DATASETS, load_fixture
from .fusion import ALL_STRATEGIES, FusionStrategy, fuse, mpca, predict, sweep
from .metrics import (
    AggregatedMetrics,
    PairMetricMatrix,
    aggregate,
    aggregated_from_matrices,
    correlation_matrix,
    correlation_vector,
    mmd_matrix,
    pair_correlation,
    pair_mmd,
)
from .quantify import ContributionReport, contribution, contribution_report, positive_modalities
from .select import (
    SelectionReport,
    ThresholdConfig,
    aggregated_select,
    pairs_select,
    run_modselect,
    winsorized_mean,
)
from .synth import ModalitySpec, Scenario, default_scenario, generate

__all__ = [
    "AccuracyTable",
    "AggregatedMetrics",
    "ALL_STRATEGIES",
    "Bundle",
    "ContributionReport",
    "EmbeddingMatrix",
    "EmbeddingMeans",
    "FIXTURE_DATASETS",
    "FusionStrategy",
    "LabelVector",
    "ModalityRecord",
    "ModalitySpec",
    "PairMetricMatrix",
    "Scenario",
    "ScoreMatrix",
    "SelectionReport",
    "ThresholdConfig",
    "ValidationResult",
    "Violation",
    "aggregate",
    "aggregated_from_matrices",
    "aggregated_select",
    "contribution",
    "contribution_report",
    "correlation_matrix",
    "correlation_vector",
    "default_scenario",
    "fuse",
    "generate",
    "load_fixture",
    "mmd_matrix",
    "mpca",
    "pair_correlation",
    "pair_mmd",
    "pairs_select",
    "positive_modalities",
    "predict",
    "run_modselect",
    "sweep",
    "validate_bundle",
    "winsorized_mean",
]
