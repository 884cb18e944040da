"""File formats: CSV matrices, bundle manifests, JSON reports, digests.

All text output uses UTF-8, LF line endings and '.' decimal separators.
Floats are written with ``repr``, whose shortest round-trip form reloads to
the identical bit pattern, so serializing and reloading a bundle is lossless.
Row order in every file is authoritative; sample ids are only checked for
consistency across the files of one bundle.

CSV files are read with ``csv.reader``, which names the file and line of an
error. Matrix files without quotes or carriage returns are first tried with
``str.split`` and ``np.loadtxt``, which give the same values faster; any
file that path rejects goes through ``csv.reader``.

The files of a bundle are written and read in forked processes, one share
of the files per CPU the process may use; ``taskset -c 0`` keeps them in
one process.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import pickle
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
from .encode import Box, DetectionSet, Keypoints


def _run(fn, share) -> list:
    """``(True, fn(*item))`` for each item of ``share``, up to the first ``(False, exception)``."""
    results = []
    for item in share:
        try:
            results.append((True, fn(*item)))
        except Exception as err:
            results.append((False, err))
            break
    return results


def _fork(fn, share):
    """A child that runs ``share`` and pickles its results to a pipe: ``(pid, read end)``, or None."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller runs the share itself
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as out:
                pickle.dump(_run(fn, share), out, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)  # never return into the caller's stack
    os.close(write_end)
    return pid, read_end


def _reap(child) -> list | None:
    """The results a child delivered, once it has exited; None if it delivered none."""
    if child is None:
        return None
    pid, read_end = child
    with open(read_end, "rb") as fh:
        try:
            results = pickle.load(fh)
        except Exception:  # a stream cut short, or a value that does not unpickle
            results = None
        fh.read()  # the child exits only once its pipe is read to the end
    return results if os.waitpid(pid, 0)[1] == 0 else None


def _each(fn, items):
    """``fn(*item)`` for each item, in item order, over the CPUs the process may use.

    With n workers, forked child w computes ``items[w::n]`` and the caller
    ``items[0::n]``; each stops at its first failure. Every child is reaped
    before the first result is yielded, and a share no child delivered is
    run again here. A failed item raises its exception when it is reached,
    so the first failure in item order wins. On one CPU the items are
    computed lazily, one at a time, and nothing after a failure runs.
    """
    items = list(items)
    n = min(len(items), len(os.sched_getaffinity(0)))
    if n < 2:
        for item in items:
            yield fn(*item)
        return
    children = []
    try:
        for w in range(1, n):
            children.append(_fork(fn, items[w::n]))
        shares = [_run(fn, items[0::n])]
    finally:
        delivered = [_reap(child) for child in children]
    for w, results in enumerate(delivered, start=1):
        shares.append(_run(fn, items[w::n]) if results is None else results)
    for i in range(len(items)):
        ok, value = shares[i % n][i // n]
        if not ok:
            raise value
        yield value


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


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
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


def _records(path, text: str):
    """``(record number, fields)`` of every CSV record; csv errors name the file."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from enumerate(reader, start=1)
    except csv.Error as err:
        raise ValueError(f"{path}:{reader.line_num}: {err}") from None


@contextlib.contextmanager
def _at(path, lineno: int):
    """Prefix a ValueError raised inside with ``path:lineno``."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{path}:{lineno}: {err}") from None


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


def read_matrix_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    """Read a sample_id-keyed CSV matrix; returns (ids, column names, values)."""
    plain = _plain_lines(_read_text(path))  # the text is not kept: the fallback reads it again
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
    return _matrix_from_records(path, _read_text(path))


def _matrix_from_records(path, text: str) -> tuple[list[str], list[str], np.ndarray]:
    """read_matrix_csv through csv.reader: every input, every error message."""
    records = _records(path, text)
    try:
        _, header = next(records)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    if not header or header[0] != "sample_id":
        raise ValueError(f"{path}: first header column must be 'sample_id'")
    columns = header[1:]
    if not columns:
        raise ValueError(f"{path}: no value columns")
    ids: list[str] = []
    rows: list[list[float]] = []
    for lineno, row in records:
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        ids.append(row[0])
        with _at(path, lineno):
            rows.append(_finite(row[1:]))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return ids, columns, np.array(rows, dtype=np.float64)


def write_labels_csv(path, labels: LabelVector, sample_ids=None) -> None:
    values = labels.values
    ids = map(str, range(len(values))) if sample_ids is None else map(_quote, sample_ids)
    _write_csv(path, ["sample_id", "label"], (f"{sid},{v}\n" for sid, v in zip(ids, values.tolist())))


def read_labels_csv(path) -> tuple[list[str], LabelVector]:
    records = _records(path, _read_text(path))
    _, header = next(records, (1, None))
    if header != ["sample_id", "label"]:
        raise ValueError(f"{path}: expected header 'sample_id,label'")
    ids: list[str] = []
    values: list[int] = []
    for lineno, row in records:
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
    try:
        return ids, LabelVector(np.array(values, dtype=np.int64))
    except OverflowError:
        raise ValueError(f"{path}: a label is outside the 64-bit integer range") from None


def load_table(path) -> AccuracyTable:
    """Read an accuracy table, bare or under the ``table`` key of an ``evaluate`` report."""
    payload = load_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: accuracy table file must hold a JSON object")
    try:
        return AccuracyTable.from_dict(payload.get("table", payload))
    except (ValueError, KeyError) as err:
        raise ValueError(f"{path}: {err.args[0] if err.args else err}") from None


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

    def read(reader, relative: str):
        path = manifest.resolve(relative)
        return path, sha256_file(path), reader(path)

    files = []
    for entry in manifest.modalities:
        files.append((read_matrix_csv, entry.scores_path))
        if entry.embeddings_path:
            files.append((read_matrix_csv, entry.embeddings_path))
    if manifest.labels_path:
        files.append((read_labels_csv, manifest.labels_path))
    loaded = _each(read, files)

    class_names = manifest.class_names
    records = []
    for entry in manifest.modalities:
        scores_file, digests[entry.scores_path], (ids, columns, values) = next(loaded)
        check_ids(ids, entry.scores_path)
        if class_names and tuple(columns) != class_names:
            raise ValueError(
                f"{scores_file}: class columns {columns} do not match manifest class_names"
            )
        embeddings = None
        if entry.embeddings_path:
            _, digests[entry.embeddings_path], (emb_ids, _, emb_values) = next(loaded)
            check_ids(emb_ids, entry.embeddings_path)
            embeddings = EmbeddingMatrix(emb_values)
        records.append(
            ModalityRecord(entry.name, ScoreMatrix(values, tuple(columns)), embeddings)
        )

    labels = None
    if manifest.labels_path:
        _, digests[manifest.labels_path], (label_ids, labels) = next(loaded)
        check_ids(label_ids, manifest.labels_path)

    bundle = Bundle(tuple(records), labels, class_names or records[0].scores.class_names)
    validate_bundle(bundle).raise_if_invalid()
    return bundle, digests


def write_bundle(bundle: Bundle, out_dir, dataset: str = "bundle") -> Path:
    """Write a bundle as CSV files plus a manifest; returns the manifest path.

    A modality's name becomes part of its file names, so a name holding a
    path separator or NUL, or a name given twice, is rejected before any
    file is written.
    """
    names = [rec.name for rec in bundle.modalities]
    for name in names:
        if any(c in name for c in "/\\\0"):
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
    records = _records(path, _read_text(path))
    _, header = next(records, (1, None))
    if header != ["x", "y", "confidence"]:
        raise ValueError(f"{path}: expected header 'x,y,confidence'")
    rows = []
    for lineno, row in records:
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 fields")
        with _at(path, lineno):
            rows.append(Keypoints([_finite(row)]).joints[0])
    return Keypoints(np.array(rows, dtype=np.float64).reshape(-1, 3))


def read_detections_csv(path) -> DetectionSet:
    """Read one frame's detections: exactly one person row plus object rows."""
    person = None
    objects = []
    records = _records(path, _read_text(path))
    _, header = next(records, (1, None))
    expected = ["role", "class_index", "x_min", "y_min", "x_max", "y_max"]
    if header != expected:
        raise ValueError(f"{path}: expected header '{','.join(expected)}'")
    for lineno, row in records:
        if not row:
            continue
        if len(row) != 6:
            raise ValueError(f"{path}:{lineno}: expected 6 fields")
        with _at(path, lineno):
            role = row[0]
            box = Box(*_finite(row[2:6]))
            if role == "person":
                if person is not None:
                    raise ValueError("more than one person row")
                person = box
            elif role == "object":
                objects.append((int(row[1]), box))
                DetectionSet(box, objects[-1:])  # checks the class index where the line is known
            else:
                raise ValueError("role must be 'person' or 'object'")
    if person is None:
        raise ValueError(f"{path}: no person row")
    return DetectionSet(person, tuple(objects))


def write_detections_csv(path, detections: DetectionSet) -> None:
    rows = [("person", "", detections.person_box), *(("object", c, b) for c, b in detections.objects)]
    lines = (
        f"{role},{c},{','.join(map(_fmt, (b.x_min, b.y_min, b.x_max, b.y_max)))}\n" for role, c, b in rows
    )
    _write_csv(path, ["role", "class_index", "x_min", "y_min", "x_max", "y_max"], lines)


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
