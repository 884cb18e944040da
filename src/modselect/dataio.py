"""File formats: CSV matrices, bundle manifests, JSON reports, digests.

All text output uses UTF-8, LF line endings and '.' decimal separators.
Floats are written with ``repr``, whose shortest round-trip form reloads to
the identical bit pattern, so serializing and reloading a bundle is lossless.
Row order in every file is authoritative; sample ids are only checked for
consistency across the files of one bundle.

CSV files are read through one ``csv.reader`` record loop, which names the
file and line of an error. Matrix files without quotes or carriage returns are first tried with
``str.split`` and ``np.loadtxt``, which give the same values faster; any
file that path rejects goes through ``csv.reader``, on the same text.

Each input is read once: ``_read_hashed`` returns its bytes with their
sha256 digest, and the readers and ``load_json`` parse the text decoded
from those bytes where the caller passes it, so a digest in a report's
``inputs`` describes the very bytes that were parsed. ``load_bundle``
reads and hashes every file a manifest lists but decodes and parses only
the kinds the caller asks for; ``read_table`` reads a stored table so.

The files of a bundle are written and read in forked processes, one share
of the files per CPU the process may use, through ``parallel._each``, the
primitive that also runs the fusion sweep's rules; ``taskset -c 0`` keeps
them in one process.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
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
    json_field,
    json_names,
    validate_bundle,
)
from .encode import CLASS_INDEX_RULE, CONFIDENCE_RULE, Box, DetectionSet, Keypoints
from .parallel import _each


# No program path calls this; it is kept only because perfbench's tracer
# patches it by name (tracing.CALLS).
def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _read_hashed(path) -> tuple[bytes, str]:
    """A file's bytes and their sha256 digest, from one read."""
    data = _read_bytes(path)
    return data, hashlib.sha256(data).hexdigest()


def dump_json(payload, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _json_text(path, data: bytes | None = None) -> str:
    """A JSON file's text, decoded from ``data`` where its bytes were read already.

    It is decoded as text mode decodes a file: UTF-8, universal newlines.
    """
    data = _read_bytes(path) if data is None else data
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: invalid JSON: {err}") from None


def load_json(path, text: str | None = None):
    """The JSON value in a file, parsed from its ``text`` where it was read already."""
    text = _json_text(path) if text is None else text
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: invalid JSON: {err}") from None
    except RecursionError:
        raise ValueError(f"{path}: invalid JSON: nested too deeply") from None


def _fmt(value: float) -> str:
    return repr(float(value))


_BLOCK_ROWS = 128
_QUOTED = re.compile(r'[,"\r\n]')


def _quote(field) -> str:
    """A text field, quoted where it holds ``,``, ``"``, ``\\r`` or ``\\n``; inner quotes doubled."""
    field = str(field)
    if _QUOTED.search(field) is None:
        return field
    return '"' + field.replace('"', '""') + '"'


def _float_rows(matrix: np.ndarray):
    """Rows of a float matrix as lists of Python floats, converted a block at a time."""
    for start in range(0, len(matrix), _BLOCK_ROWS):
        yield from matrix[start : start + _BLOCK_ROWS].tolist()


def _write_csv(path, header: Sequence[str], lines) -> None:
    """Write a header of text fields, then the body ``lines``, one write per block.

    Each line ends in a newline; a block holds at most ``_BLOCK_ROWS`` lines.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(_quote, header)) + "\n")
        while block := list(itertools.islice(lines, _BLOCK_ROWS)):
            fh.write("".join(block))


def _read_text(path, data: bytes | None = None) -> str:
    """A file's UTF-8 text, line endings as they are, from ``data`` where its bytes were read already."""
    data = _read_bytes(path) if data is None else data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: invalid UTF-8: {err}") from None


# Where the text holds none of these, csv.reader splits each line exactly as
# str.split(",") does, and on ASCII text np.loadtxt accepts no number that
# float() rejects (it reads \x1c-\x1f as spaces; float() does not).
_NOT_PLAIN = '"\r\x00\x1c\x1d\x1e\x1f'


def _plain_lines(text: str) -> tuple[list[str], list[str]] | None:
    """Header fields and nonblank body lines of text the fast readers may split.

    None where the text may need csv.reader or float(): quotes, carriage
    returns, NUL, \x1c-\x1f, non-ASCII rows, or a comma count other than
    the header's times the number of lines. A caller must reject a row with
    fewer fields than the header, as np.loadtxt with ``usecols`` does.
    """
    if any(c in text for c in _NOT_PLAIN):
        return None
    head, *lines = text.split("\n")
    lines = [line for line in lines if line]
    if not text.isascii() and not all(map(str.isascii, lines)):
        return None
    # One count over the text: a row with too many commas must then sit with
    # one with too few, and np.loadtxt(usecols=...) rejects any short row.
    if text.count(",") != head.count(",") * (len(lines) + 1):
        return None
    return head.split(","), lines


def _csv_rows(path, text: str, header: list[str] | None, parse) -> tuple[list[str], list[list[str]], list]:
    """The header of a CSV file's ``text``, its nonblank records after it, and ``parse(record)`` of each.

    The header must equal ``header``; None asks for a matrix header,
    ``sample_id`` then at least one value column. Every record must have
    the header's field count. An error in a record, from csv.reader or
    ``parse``, is prefixed with ``path:N``: N is csv.reader's line for its
    own errors and the record number for the rest.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        first = next(reader, None)
        if header is not None:
            if first != header:
                raise ValueError(f"{path}: expected header '{','.join(header)}'")
        elif first is None:
            raise ValueError(f"{path}: empty file")
        elif not first or first[0] != "sample_id":
            raise ValueError(f"{path}: first header column must be 'sample_id'")
        elif len(first) < 2:
            raise ValueError(f"{path}: no value columns")
        n = len(first)
        lineno, rows, values = 1, [], []
        try:
            for lineno, row in enumerate(reader, start=2):
                if len(row) != n:
                    if not row:
                        continue
                    raise ValueError(f"expected {n} fields, got {len(row)}")
                values.append(parse(row))
                rows.append(row)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    except csv.Error as err:
        raise ValueError(f"{path}:{reader.line_num}: {err}") from None
    return first, rows, values


def _finite(fields: Sequence[str]) -> list[float]:
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise ValueError("non-numeric value") from None
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite value")
    return values


def write_matrix_csv(path, matrix: np.ndarray, column_names: Sequence[str], sample_ids=None) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    ids = map(str, range(len(matrix))) if sample_ids is None else map(_quote, sample_ids)
    lines = (f"{sid},{','.join(map(repr, row))}\n" for sid, row in zip(ids, _float_rows(matrix)))
    _write_csv(path, ["sample_id", *column_names], lines)


def read_matrix_csv(path, text: str | None = None) -> tuple[list[str], list[str], np.ndarray]:
    """Read a sample_id-keyed CSV matrix; returns (ids, column names, values).

    ``text`` is the file's text where it was read already.
    """
    text = _read_text(path) if text is None else text
    plain = _plain_lines(text)
    if plain is not None:
        header, lines = plain
        if header[0] == "sample_id" and len(header) > 1 and lines:
            try:
                values = np.loadtxt(
                    lines, delimiter=",", usecols=range(1, len(header)), comments=None, ndmin=2
                )
            except ValueError:
                values = None
            if values is not None and np.isfinite(values).all():
                return [line[: line.index(",")] for line in lines], header[1:], values
    return _matrix_from_records(path, text)


def _matrix_from_records(path, text: str | None = None) -> tuple[list[str], list[str], np.ndarray]:
    """read_matrix_csv through csv.reader, on the file's ``text`` where it was read already."""
    text = _read_text(path) if text is None else text
    header, rows, values = _csv_rows(path, text, None, lambda row: _finite(row[1:]))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return [row[0] for row in rows], header[1:], np.array(values, dtype=np.float64)


def write_labels_csv(path, labels: LabelVector, sample_ids=None) -> None:
    values = labels.values
    ids = map(str, range(len(values))) if sample_ids is None else map(_quote, sample_ids)
    _write_csv(path, ["sample_id", "label"], (f"{sid},{v}\n" for sid, v in zip(ids, values.tolist())))


def _label(row: list[str]) -> int:
    try:
        return int(row[1])
    except ValueError:
        raise ValueError("labels must be integer class indices") from None


def read_labels_csv(path, text: str | None = None) -> tuple[list[str], LabelVector]:
    text = _read_text(path) if text is None else text
    _, rows, values = _csv_rows(path, text, ["sample_id", "label"], _label)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    try:
        return [row[0] for row in rows], LabelVector(np.array(values, dtype=np.int64))
    except OverflowError:
        raise ValueError(f"{path}: a label is outside the 64-bit integer range") from None


def load_table(path, text: str | None = None) -> AccuracyTable:
    """Read an accuracy table, bare or under the ``table`` key of an ``evaluate`` report.

    ``text`` is the file's text where it was read already.
    """
    payload = load_json(path, text)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: accuracy table file must hold a JSON object")
    try:
        return AccuracyTable.from_dict(payload.get("table", payload))
    except (ValueError, KeyError) as err:
        raise ValueError(f"{path}: {err.args[0] if err.args else err}") from None


def read_table(path) -> tuple[AccuracyTable, str]:
    """``load_table`` from one read of the file, and the sha256 digest of the bytes it parsed."""
    data, digest = _read_hashed(path)
    text = _json_text(path, data)
    del data  # not held while the text is parsed
    return load_table(path, text), digest


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


def load_manifest(path, text: str | None = None) -> Manifest:
    path = Path(path)
    payload = load_json(path, text)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    top = f"{path}: manifest"
    entries = []
    seen = set()
    for i, item in enumerate(json_field(payload, "modalities", top, list, [])):
        where = f"{path}: modality {i}"
        name = json_field(item, "name", where, str)
        scores_path = json_field(item, "scores_path", where, str)
        if name in seen:
            raise ValueError(f"{path}: duplicate modality {name!r}")
        seen.add(name)
        embeddings_path = json_field(item, "embeddings_path", where, str, None)
        entries.append(ManifestModality(name, scores_path, embeddings_path))
    if not entries:
        raise ValueError(f"{path}: manifest lists no modalities")
    return Manifest(
        dataset=json_field(payload, "dataset", top, str, path.stem),
        class_names=json_names(payload, "class_names", top, ()),
        modalities=tuple(entries),
        labels_path=json_field(payload, "labels_path", top, str, None),
        root=path.parent,
    )


def _parse_cost(path: Path, parse) -> int:
    """The bytes ``parse`` has to parse in ``path``: its size, or 0 for a file only hashed."""
    if parse is None:
        return 0
    try:
        return os.stat(path).st_size
    except OSError:  # the read fails in its turn and names the file
        return 0


def _read_parsed(path: Path, parse):
    """``(path, sha256 digest, parse(path, text))`` from one read; None for the last if ``parse`` is None."""
    data, digest = _read_hashed(path)
    if parse is None:
        return path, digest, None
    text = _read_text(path, data)
    del data  # not held while the text is parsed
    return path, digest, parse(path, text)


def load_bundle(manifest_path, *, embeddings: bool = True, labels: bool = True) -> tuple[Bundle, dict[str, str]]:
    """Load and validate the bundle a manifest file describes, reading each file once.

    Returns it with the sha256 digest of the bytes read from every listed
    file: the manifest's under its path as ``pathlib`` prints it, each data
    file's under its path in the manifest. The embedding files are parsed
    only if ``embeddings``, the labels file only if ``labels``; a file not
    parsed is only hashed, so it is no part of the bundle and only a
    failure to read it is reported. The files are shared out over the CPUs
    by parse cost. Raises for the first file in manifest order that is
    unreadable or, if parsed, malformed; raises if sample ids disagree
    between parsed files, or if the assembled bundle violates an invariant
    (for example score rows off the probability simplex by more than the
    tolerance are rejected, never renormalized).
    """
    manifest_path = Path(manifest_path)
    data, digest = _read_hashed(manifest_path)
    digests = {str(manifest_path): digest}
    manifest = load_manifest(manifest_path, _json_text(manifest_path, data))

    reference_ids: list[str] | None = None
    reference_file = ""

    def check_ids(ids: list[str], filename: str):
        nonlocal reference_ids, reference_file
        if reference_ids is None:
            reference_ids, reference_file = ids, filename
        elif ids != reference_ids:
            raise ValueError(f"sample_id mismatch between {reference_file} and {filename}")

    files = []  # (path, parser, or None for a file only hashed), in manifest order
    for entry in manifest.modalities:
        files.append((manifest.resolve(entry.scores_path), read_matrix_csv))
        if entry.embeddings_path:
            files.append((manifest.resolve(entry.embeddings_path), read_matrix_csv if embeddings else None))
    if manifest.labels_path:
        files.append((manifest.resolve(manifest.labels_path), read_labels_csv if labels else None))
    loaded = _each(_read_parsed, files, cost=[_parse_cost(*item) for item in files])

    class_names = manifest.class_names
    records = []
    for entry in manifest.modalities:
        scores_file, digests[entry.scores_path], (ids, columns, values) = next(loaded)
        check_ids(ids, entry.scores_path)
        if class_names and tuple(columns) != class_names:
            raise ValueError(
                f"{scores_file}: class columns {columns} do not match manifest class_names"
            )
        emb_matrix = None
        if entry.embeddings_path:
            _, digests[entry.embeddings_path], parsed = next(loaded)
            if parsed is not None:
                emb_ids, _, emb_values = parsed
                check_ids(emb_ids, entry.embeddings_path)
                emb_matrix = EmbeddingMatrix(emb_values)
        records.append(
            ModalityRecord(entry.name, ScoreMatrix(values, tuple(columns)), emb_matrix)
        )

    label_vector = None
    if manifest.labels_path:
        _, digests[manifest.labels_path], parsed = next(loaded)
        if parsed is not None:
            label_ids, label_vector = parsed
            check_ids(label_ids, manifest.labels_path)

    bundle = Bundle(tuple(records), label_vector, class_names or records[0].scores.class_names)
    validate_bundle(bundle).raise_if_invalid()
    return bundle, digests


def names_a_file(name: str) -> bool:
    """Whether a modality name can be part of a file name: it holds no '/', '\\' or NUL."""
    return not any(c in name for c in "/\\\0")


def write_bundle(bundle: Bundle, out_dir, dataset: str = "bundle") -> Path:
    """Write a bundle as CSV files plus a manifest; returns the manifest path.

    A modality's name becomes part of its file names, so a name holding a
    path separator or NUL, or a name given twice, is rejected before any
    file is written.
    """
    names = [rec.name for rec in bundle.modalities]
    for name in names:
        if not names_a_file(name):
            raise ValueError(f"modality name {name!r} holds '/', '\\' or NUL and cannot name a file")
        if names.count(name) > 1:
            raise ValueError(f"modality name {name!r} is given twice")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []  # (writer, *its arguments)
    entries = []
    for rec in bundle.modalities:
        scores_name = f"scores_{rec.name}.csv"
        files.append((write_matrix_csv, out_dir / scores_name, rec.scores.values, bundle.class_names))
        entry = {"name": rec.name, "scores_path": scores_name}
        if rec.embeddings is not None:
            emb_name = f"embeddings_{rec.name}.csv"
            columns = [f"e{i}" for i in range(rec.embeddings.dim)]
            files.append((write_matrix_csv, out_dir / emb_name, rec.embeddings.values, columns))
            entry["embeddings_path"] = emb_name
        entries.append(entry)
    payload = {
        "dataset": dataset,
        "class_names": list(bundle.class_names),
        "modalities": entries,
    }
    if bundle.labels is not None:
        files.append((write_labels_csv, out_dir / "labels.csv", bundle.labels))
        payload["labels_path"] = "labels.csv"
    list(_each(lambda write, *args: write(*args), files))  # every file, before the manifest
    manifest_path = out_dir / "manifest.json"
    dump_json(payload, manifest_path)
    return manifest_path


def write_keypoints_csv(path, keypoints: Keypoints) -> None:
    lines = (",".join(map(repr, row)) + "\n" for row in keypoints.joints.tolist())
    _write_csv(path, ["x", "y", "confidence"], lines)


def read_keypoints_csv(path) -> Keypoints:
    def joint(row: list[str]) -> list[float]:  # Keypoints' rule, checked where the line is known
        if not 0.0 <= (values := _finite(row))[2] <= 1.0:
            raise ValueError(CONFIDENCE_RULE)
        return values

    _, _, joints = _csv_rows(path, _read_text(path), ["x", "y", "confidence"], joint)
    return Keypoints(np.array(joints, dtype=np.float64).reshape(-1, 3))


def read_detections_csv(path) -> DetectionSet:
    """Read one frame's detections: exactly one person row plus object rows."""
    people, objects = [], []

    def parse(row: list[str]) -> None:
        box = Box(*_finite(row[2:6]))
        if row[0] == "person":
            if people:
                raise ValueError("more than one person row")
            people.append(box)
        elif row[0] == "object":
            objects.append((int(row[1]), box))
            if objects[-1][0] < 0:  # DetectionSet's rule, checked where the line is known
                raise ValueError(CLASS_INDEX_RULE)
        else:
            raise ValueError("role must be 'person' or 'object'")

    _csv_rows(path, _read_text(path), ["role", "class_index", "x_min", "y_min", "x_max", "y_max"], parse)
    if not people:
        raise ValueError(f"{path}: no person row")
    return DetectionSet(people[0], tuple(objects))


def write_detections_csv(path, detections: DetectionSet) -> None:
    rows = [("person", "", detections.person_box), *(("object", c, b) for c, b in detections.objects)]
    lines = (
        f"{role},{c},{','.join(map(_fmt, (b.x_min, b.y_min, b.x_max, b.y_max)))}\n" for role, c, b in rows
    )
    _write_csv(path, ["role", "class_index", "x_min", "y_min", "x_max", "y_max"], lines)


def write_vector_csv(path, vector) -> None:
    """One vector as a single CSV row under the header ``v0,v1,...``."""
    _write_csv(path, [f"v{i}" for i in range(len(vector))], [",".join(map(_fmt, vector)) + "\n"])


def write_table_csv(path, table: AccuracyTable) -> None:
    """Accuracy table as CSV, values in percent; one row per combination."""
    # A table without strategies holds only the averaged column.
    columns = np.column_stack((table.values, table.column())) if table.strategies else table.values
    lines = (
        f"{_quote('+'.join(combo))},{','.join(map(repr, row))}\n"
        for combo, row in zip(table.combinations(), _float_rows(100.0 * columns))
    )
    _write_csv(path, ["combination", *table.strategies, "averaged"], lines)


def write_contribution_csv(path, report) -> None:
    strategies = list(report.per_strategy)
    lines = []
    for name in report.modalities:
        values = [report.averaged[name], *(report.per_strategy[s][name] for s in strategies)]
        positive = "yes" if name in report.positive else "no"
        lines.append(f"{_quote(name)},{','.join(map(_fmt, values))},{positive}\n")
    _write_csv(path, ["modality", "contribution_percent", *strategies, "positive"], lines)
