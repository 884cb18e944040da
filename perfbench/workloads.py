"""Workload inputs and the command lines each op runs.

Every input is derived from the benchmark seed; the program only ever sees
the generated files. Scales are fixed per workload so that the same seed
always yields byte-identical inputs.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from modselect import dataio
from modselect.synth import ModalitySpec, Scenario, generate

WORKLOADS = ("evaluate-wide", "bundle-tall", "contribution-wide")
STRATEGIES = ("sum", "sqsum", "product", "max", "median", "borda")
COUNTS = (
    "dataio.read_bytes",
    "dataio.write_bytes",
    "dataio.read_rows",
    "dataio.write_rows",
    "fusion.combos",
    "fusion.fused_cells",
    "core.table_entries",
    "quantify.table_lookups",
)

# "full" is what the benchmark measures; "tiny" only exercises every path
# and check (see test_smoke.py).
SCALES = {
    "full": {
        "evaluate-wide": {"good": 6, "samples": 1000, "classes": 20, "dim": 16},
        "bundle-tall": {"good": 6, "samples": 2000, "classes": 20, "dim": 32},
        "contribution-wide": {"modalities": 12},
    },
    "tiny": {
        "evaluate-wide": {"good": 2, "samples": 60, "classes": 4, "dim": 4},
        "bundle-tall": {"good": 2, "samples": 60, "classes": 4, "dim": 4},
        "contribution-wide": {"modalities": 4},
    },
}


def scenario(seed: int, good: int, samples: int, classes: int, dim: int) -> Scenario:
    """``good`` coupled good modalities plus one random scorer and one drifted embedder."""
    specs = [ModalitySpec(f"good{i + 1}", "good", accuracy=0.7, coupling=0.85) for i in range(good)]
    specs.append(ModalitySpec("random1", "random", embeddings=False))
    specs.append(ModalitySpec("shifted1", "shifted", embedding_offset=5.0))
    return Scenario(classes, samples, dim, tuple(specs), seed)


def combinations(names) -> list[tuple[str, ...]]:
    """Nonempty subsets ordered by size, then by position in ``names``."""
    return [c for k in range(1, len(names) + 1) for c in itertools.combinations(names, k)]


def accuracy_table(seed: int, modalities: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Seeded per-strategy accuracies, dense over bitmasks: row ``mask - 1``.

    Each modality gets a planted effect (the first half helps, the rest
    hurts) so contributions sit far from zero and the positive set is stable;
    per-combination noise keeps every entry distinct. Singletons are equal
    across strategies, as a sweep produces them.
    """
    rng = np.random.default_rng(seed)
    names = tuple(f"m{i:02d}" for i in range(modalities))
    half = modalities // 2
    effect = np.concatenate(
        [rng.uniform(0.01, 0.03, half), rng.uniform(-0.03, -0.01, modalities - half)]
    )
    bias = rng.uniform(-0.02, 0.02, len(STRATEGIES))
    n_masks = (1 << modalities) - 1
    masks = np.arange(1, n_masks + 1)
    bits = (masks[:, None] >> np.arange(modalities)) & 1
    base = 0.5 + bits @ effect
    acc = base[:, None] + bias[None, :] + rng.normal(0.0, 0.01, (n_masks, len(STRATEGIES)))
    singles = bits.sum(axis=1) == 1
    acc[singles] = base[singles, None] + rng.normal(0.0, 0.01, (int(singles.sum()), 1))
    return names, np.clip(acc, 0.01, 0.99)


def mask_of(combo, names) -> int:
    return sum(1 << names.index(n) for n in combo)


@dataclass
class Inputs:
    """What setup made: the files the program reads plus in-memory references."""

    files: dict[str, str]
    reference: dict = field(default_factory=dict)


def setup(workload: str, seed: int, scale: dict, work: Path) -> Inputs:
    """Build one run's inputs under ``work/input``."""
    inp = work / "input"
    if workload == "evaluate-wide":
        bundle, _ = generate(scenario(seed, **scale))
        manifest = dataio.write_bundle(bundle, inp / "bundle", dataset=f"bench-seed{seed}")
        return Inputs({"manifest": str(manifest)}, {"bundle": bundle})
    if workload == "bundle-tall":
        sc = scenario(seed, **scale)
        bundle, planted = generate(sc)
        path = inp / "scenario.json"
        dataio.dump_json(sc.to_dict(), path)
        return Inputs({"scenario": str(path)}, {"bundle": bundle, "planted": planted})
    if workload == "contribution-wide":
        names, acc = accuracy_table(seed, scale["modalities"])
        entries = []
        for combo in combinations(names):
            row = acc[mask_of(combo, names) - 1]
            entries.append(
                {
                    "combination": list(combo),
                    "averaged": float(np.mean(row)),
                    "strategies": {s: float(v) for s, v in zip(STRATEGIES, row)},
                }
            )
        payload = {
            "schema": 1,
            "scale": "fraction",
            "table": {"modalities": list(names), "strategies": list(STRATEGIES), "entries": entries},
        }
        path = inp / "table.json"
        dataio.dump_json(payload, path)
        return Inputs({"table": str(path)}, {"names": names, "acc": acc})
    raise ValueError(f"unknown workload {workload!r}")


def commands(workload: str, inputs: Inputs, out: Path) -> list[tuple[str, list[str]]]:
    """The (name, argv) pairs one op runs, in order, writing under ``out``."""
    if workload == "evaluate-wide":
        return [("evaluate", ["evaluate", "--manifest", inputs.files["manifest"], "--out", str(out / "table")])]
    if workload == "bundle-tall":
        bundle = out / "bundle"
        return [
            ("synth", ["synth", "--scenario", inputs.files["scenario"], "--out-dir", str(bundle)]),
            ("select", ["select", "--manifest", str(bundle / "manifest.json"), "--out", str(out / "selection.json")]),
        ]
    if workload == "contribution-wide":
        return [("contribution", ["contribution", "--table", inputs.files["table"], "--out", str(out / "contribution.json")])]
    raise ValueError(f"unknown workload {workload!r}")


def computed_counts(workload: str, inputs: Inputs, out: Path) -> dict[str, int]:
    """Work counts derived from the scale and from the sizes of the files involved.

    They are computed, not measured by the program. The output sizes are
    pinned by the digest checks, so the counts repeat exactly.
    """
    counts = dict.fromkeys(COUNTS, 0)
    outputs = sorted(p for p in out.rglob("*") if p.is_file())
    counts["dataio.write_bytes"] = sum(p.stat().st_size for p in outputs)
    if workload == "evaluate-wide":
        bundle_dir = Path(inputs.files["manifest"]).parent
        counts["dataio.read_bytes"] = sum(p.stat().st_size for p in bundle_dir.iterdir())
        bundle = inputs.reference["bundle"]
        m, s, c = len(bundle.modalities), bundle.n_samples, bundle.n_classes
        csv_files = sum(2 if r.embeddings is not None else 1 for r in bundle.modalities) + 1
        counts["dataio.read_rows"] = csv_files * s
        combos = (1 << m) - 1
        counts["dataio.write_rows"] = combos
        counts["fusion.combos"] = combos
        counts["fusion.fused_cells"] = len(STRATEGIES) * sum(
            len(k) * s * c for k in combinations(range(m)) if len(k) > 1
        )
        counts["core.table_entries"] = combos * len(STRATEGIES)
    elif workload == "bundle-tall":
        bundle = inputs.reference["bundle"]
        written = [p for p in outputs if p.parent.name == "bundle"]
        csv_files = sum(1 for p in written if p.suffix == ".csv")
        # select reads back the bundle synth wrote, plus the scenario JSON synth read.
        bundle_bytes = sum(p.stat().st_size for p in written if p.name != "ground_truth.json")
        counts["dataio.read_bytes"] = os.path.getsize(inputs.files["scenario"]) + bundle_bytes
        counts["dataio.read_rows"] = csv_files * bundle.n_samples
        counts["dataio.write_rows"] = csv_files * bundle.n_samples
    elif workload == "contribution-wide":
        m = len(inputs.reference["names"])
        counts["dataio.read_bytes"] = os.path.getsize(inputs.files["table"])
        counts["core.table_entries"] = ((1 << m) - 1) * len(STRATEGIES)
        # Two lookups per (view, modality, combination without it); views are
        # the strategies plus the averaged one.
        counts["quantify.table_lookups"] = 2 * m * ((1 << (m - 1)) - 1) * (len(STRATEGIES) + 1)
    return counts
