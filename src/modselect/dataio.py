"""File formats: CSV matrices, bundle manifests, JSON reports, digests.

All text output uses UTF-8, LF line endings and '.' decimal separators.
Floats are written with ``repr``, whose shortest round-trip form reloads to
the identical bit pattern, so serializing and reloading a bundle is lossless.
Row order in every file is authoritative; sample ids are only checked for
consistency across the files of one bundle.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    AccuracyTable,
    Bundle,
    EmbeddingMatrix,
    LabelVector,
    ModalityRecord,
    ScoreMatrix,
    validate_bundle,
)
from .encode import Box, DetectionSet, Keypoints


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def dump_json(payload, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ValueError(f"{path}: invalid JSON: {err}") from None


def _fmt(value: float) -> str:
    return repr(float(value))


def write_matrix_csv(path, matrix: np.ndarray, column_names: Sequence[str], sample_ids=None) -> None:
    matrix = np.asarray(matrix)
    if sample_ids is None:
        sample_ids = [str(i) for i in range(matrix.shape[0])]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", *column_names])
        for sid, row in zip(sample_ids, matrix):
            writer.writerow([sid, *(_fmt(v) for v in row)])


def read_matrix_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    """Read a sample_id-keyed CSV matrix; returns (ids, column names, values)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if not header or header[0] != "sample_id":
            raise ValueError(f"{path}: first header column must be 'sample_id'")
        columns = header[1:]
        if not columns:
            raise ValueError(f"{path}: no value columns")
        ids: list[str] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            ids.append(row[0])
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return ids, columns, np.array(rows, dtype=np.float64)


def write_labels_csv(path, labels: LabelVector, sample_ids=None) -> None:
    values = labels.values
    if sample_ids is None:
        sample_ids = [str(i) for i in range(len(values))]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "label"])
        for sid, value in zip(sample_ids, values):
            writer.writerow([sid, int(value)])


def read_labels_csv(path) -> tuple[list[str], LabelVector]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["sample_id", "label"]:
            raise ValueError(f"{path}: expected header 'sample_id,label'")
        ids: list[str] = []
        values: list[int] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 fields")
            ids.append(row[0])
            try:
                values.append(int(row[1]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: labels must be integer class indices") from None
    if not values:
        raise ValueError(f"{path}: no data rows")
    return ids, LabelVector(np.array(values, dtype=np.int64))


@dataclass(frozen=True)
class ManifestModality:
    name: str
    scores_path: str
    embeddings_path: str | None = None


@dataclass(frozen=True)
class Manifest:
    """Description of a bundle on disk; data paths are relative to ``root``."""

    dataset: str
    class_names: tuple[str, ...]
    modalities: tuple[ManifestModality, ...]
    labels_path: str | None
    root: Path

    def resolve(self, relative: str) -> Path:
        return (self.root / relative).resolve()


def load_manifest(path) -> Manifest:
    path = Path(path)
    payload = load_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    entries = []
    seen = set()
    for i, item in enumerate(payload.get("modalities", [])):
        for field in ("name", "scores_path"):
            if not isinstance(item, dict) or field not in item:
                raise ValueError(f"{path}: modality {i} has no {field!r} field")
        name = item["name"]
        if name in seen:
            raise ValueError(f"{path}: duplicate modality {name!r}")
        seen.add(name)
        entries.append(
            ManifestModality(name, item["scores_path"], item.get("embeddings_path"))
        )
    if not entries:
        raise ValueError(f"{path}: manifest lists no modalities")
    return Manifest(
        dataset=payload.get("dataset", path.stem),
        class_names=tuple(payload.get("class_names", [])),
        modalities=tuple(entries),
        labels_path=payload.get("labels_path"),
        root=path.parent,
    )


def load_bundle(manifest: Manifest | str | Path) -> tuple[Bundle, dict[str, str]]:
    """Load and validate a bundle; returns it with per-file sha256 digests.

    Raises if any file is unreadable, sample ids disagree between files, or
    the assembled bundle violates an invariant (for example score rows off
    the probability simplex by more than the tolerance are rejected, never
    renormalized).
    """
    digests: dict[str, str] = {}
    if not isinstance(manifest, Manifest):
        manifest_path = Path(manifest)
        digests[str(manifest_path)] = sha256_file(manifest_path)
        manifest = load_manifest(manifest_path)

    reference_ids: list[str] | None = None
    reference_file = ""

    def check_ids(ids: list[str], filename: str):
        nonlocal reference_ids, reference_file
        if reference_ids is None:
            reference_ids, reference_file = ids, filename
        elif ids != reference_ids:
            raise ValueError(f"sample_id mismatch between {reference_file} and {filename}")

    class_names = manifest.class_names
    records = []
    for entry in manifest.modalities:
        scores_file = manifest.resolve(entry.scores_path)
        digests[entry.scores_path] = sha256_file(scores_file)
        ids, columns, values = read_matrix_csv(scores_file)
        check_ids(ids, entry.scores_path)
        if class_names and tuple(columns) != class_names:
            raise ValueError(
                f"{scores_file}: class columns {columns} do not match manifest class_names"
            )
        embeddings = None
        if entry.embeddings_path:
            emb_file = manifest.resolve(entry.embeddings_path)
            digests[entry.embeddings_path] = sha256_file(emb_file)
            emb_ids, _, emb_values = read_matrix_csv(emb_file)
            check_ids(emb_ids, entry.embeddings_path)
            embeddings = EmbeddingMatrix(emb_values)
        records.append(
            ModalityRecord(entry.name, ScoreMatrix(values, tuple(columns)), embeddings)
        )

    labels = None
    if manifest.labels_path:
        labels_file = manifest.resolve(manifest.labels_path)
        digests[manifest.labels_path] = sha256_file(labels_file)
        label_ids, labels = read_labels_csv(labels_file)
        check_ids(label_ids, manifest.labels_path)

    bundle = Bundle(tuple(records), labels, class_names or records[0].scores.class_names)
    validate_bundle(bundle).raise_if_invalid()
    return bundle, digests


def write_bundle(bundle: Bundle, out_dir, dataset: str = "bundle") -> Path:
    """Write a bundle as CSV files plus a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for rec in bundle.modalities:
        scores_name = f"scores_{rec.name}.csv"
        write_matrix_csv(out_dir / scores_name, rec.scores.values, bundle.class_names)
        entry = {"name": rec.name, "scores_path": scores_name}
        if rec.embeddings is not None:
            emb_name = f"embeddings_{rec.name}.csv"
            columns = [f"e{i}" for i in range(rec.embeddings.dim)]
            write_matrix_csv(out_dir / emb_name, rec.embeddings.values, columns)
            entry["embeddings_path"] = emb_name
        entries.append(entry)
    payload = {
        "dataset": dataset,
        "class_names": list(bundle.class_names),
        "modalities": entries,
    }
    if bundle.labels is not None:
        write_labels_csv(out_dir / "labels.csv", bundle.labels)
        payload["labels_path"] = "labels.csv"
    manifest_path = out_dir / "manifest.json"
    dump_json(payload, manifest_path)
    return manifest_path


def write_keypoints_csv(path, keypoints: Keypoints) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y", "confidence"])
        for x, y, c in keypoints.joints:
            writer.writerow([_fmt(x), _fmt(y), _fmt(c)])


def read_keypoints_csv(path) -> Keypoints:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["x", "y", "confidence"]:
            raise ValueError(f"{path}: expected header 'x,y,confidence'")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields")
            rows.append([float(v) for v in row])
    return Keypoints(np.array(rows, dtype=np.float64).reshape(-1, 3))


def read_detections_csv(path) -> DetectionSet:
    """Read one frame's detections: exactly one person row plus object rows."""
    person = None
    objects = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = ["role", "class_index", "x_min", "y_min", "x_max", "y_max"]
        if header != expected:
            raise ValueError(f"{path}: expected header '{','.join(expected)}'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 fields")
            role = row[0]
            box = Box(*(float(v) for v in row[2:6]))
            if role == "person":
                if person is not None:
                    raise ValueError(f"{path}:{lineno}: more than one person row")
                person = box
            elif role == "object":
                objects.append((int(row[1]), box))
            else:
                raise ValueError(f"{path}:{lineno}: role must be 'person' or 'object'")
    if person is None:
        raise ValueError(f"{path}: no person row")
    return DetectionSet(person, tuple(objects))


def write_detections_csv(path, detections: DetectionSet) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["role", "class_index", "x_min", "y_min", "x_max", "y_max"])
        pb = detections.person_box
        writer.writerow(["person", "", _fmt(pb.x_min), _fmt(pb.y_min), _fmt(pb.x_max), _fmt(pb.y_max)])
        for class_index, box in detections.objects:
            writer.writerow(
                ["object", class_index, _fmt(box.x_min), _fmt(box.y_min), _fmt(box.x_max), _fmt(box.y_max)]
            )


def write_table_csv(path, table: AccuracyTable) -> None:
    """Accuracy table as CSV, values in percent; one row per combination."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["combination", *table.strategies, "averaged"])
        # A table without strategies holds only the averaged column.
        columns = np.column_stack((table.values, table.column())) if table.strategies else table.values
        for combo, row in zip(table.combinations(), (100.0 * columns).tolist()):
            writer.writerow(["+".join(combo), *map(_fmt, row)])


def write_contribution_csv(path, report) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    strategies = list(report.per_strategy)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["modality", "contribution_percent", *strategies, "positive"])
        for name in report.modalities:
            row = [name, _fmt(report.averaged[name])]
            row.extend(_fmt(report.per_strategy[s][name]) for s in strategies)
            row.append("yes" if name in report.positive else "no")
            writer.writerow(row)
