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
the kinds the caller asks for, and keeps only the column means of an
embeddings file; ``read_table`` reads a stored table so.

JSON files are written by ``dump_json``: the bytes of ``json.dump(payload,
fh, indent=2)`` and a newline, ASCII-escaped. It builds the text itself, a
block of list items per write, instead of ``json``'s token-by-token
generator. ``json`` spells each scalar; a list of strings, or of finite
floats, is spelled in one map through its escape or ``float.__repr__``. A
payload it does not take, or one nested deeply enough to raise
``RecursionError``, it leaves to ``json.dump``.

The files of a bundle are written and read in forked processes, one share
of the files per CPU the process may use, through ``parallel._each``, the
primitive that also walks the fusion sweep's runs; ``taskset -c 0`` keeps
them in one process. ``write_bundle`` takes the records from a stream that
each process opens for itself (``synth.Draws`` draws them there), so no
process need hold the whole bundle.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import operator
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    AccuracyTable,
    Bundle,
    EmbeddingMeans,
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
    return _read_hashed(path)[1]


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _read_hashed(path) -> tuple[bytes, str]:
    """A file's bytes and their sha256 digest, from one read."""
    data = _read_bytes(path)
    return data, hashlib.sha256(data).hexdigest()


def dump_json(payload, path) -> None:
    """Write the bytes of ``json.dump(payload, fh, indent=2)`` and a newline.

    :func:`_write_json` builds the same text block by block, and ``json``
    spells its scalars. A payload it does not take (a key that is no string,
    a value that is no JSON, a subclass of dict or list, a cycle, nesting
    that raises ``RecursionError``) goes through ``json.dump`` itself, which
    writes it or raises its own error.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        try:
            _write_json(payload, "", fh.write)
        except (TypeError, ValueError, RecursionError):  # no JSON; a huge int; a cycle, deep nesting
            fh.seek(0)
            fh.truncate()
            json.dump(payload, fh, indent=2)
        fh.write("\n")


_ESCAPE = json.encoder.encode_basestring_ascii
_CONTAINERS = {dict, list, tuple}
_JSON_BLOCK = 64  # list items encoded per write


def _scalar(value) -> str:
    """``json``'s text for a value; TypeError for a container, subclasses too, which json.dump indents."""
    if isinstance(value, (dict, list, tuple)):
        raise TypeError(f"{type(value).__name__} is no JSON scalar")
    return json.dumps(value)


def _write_json(value, pad: str, write) -> None:
    """Write ``value``'s ``indent=2`` text at indent ``pad``.

    An object that holds a container is written key by key, and a list
    :data:`_JSON_BLOCK` items at a time; :func:`_texts` builds each block
    and anything else.
    """
    inner = pad + "  "
    if type(value) is dict and not _CONTAINERS.isdisjoint(map(type, value.values())):
        after = "\n" + inner
        write("{")
        for key, item in value.items():
            write(f"{after}{_ESCAPE(key)}: ")  # TypeError where the key is no string
            _write_json(item, inner, write)
            after = ",\n" + inner
        write(f"\n{pad}}}")
    elif type(value) in (list, tuple) and value:
        between, after = ",\n" + inner, "\n" + inner
        write("[")
        for start in range(0, len(value), _JSON_BLOCK):
            write(after + between.join(_texts(value[start : start + _JSON_BLOCK], inner)))
            after = between
        write(f"\n{pad}]")
    else:
        write(_texts([value], pad)[0])


def _texts(items, pad: str) -> list[str]:
    """The ``indent=2`` texts of ``items``, each at indent ``pad``, built kind by kind.

    Strings and finite floats are encoded in one map; the items of all the
    lists in one call; objects with the same keys, in the same order, in
    one call per key and one format. Anything else is encoded item by item.
    """
    if not items:
        return []
    kinds = set(map(type, items))
    if kinds == {str}:
        return list(map(_ESCAPE, items))
    if kinds == {float} and all(map(math.isfinite, items)):
        return list(map(float.__repr__, items))
    inner = pad + "  "
    between = ",\n" + inner
    if kinds <= {list, tuple}:
        texts = _texts(list(itertools.chain.from_iterable(items)), inner)
        ends = list(itertools.accumulate(map(len, items)))
        return [
            f"[\n{inner}{between.join(texts[end - len(item) : end])}\n{pad}]" if item else "[]"
            for item, end in zip(items, ends)
        ]
    if kinds == {dict}:
        shapes = set(map(tuple, items))
        keys = shapes.pop()
        if not shapes:
            if not keys:
                return ["{}"] * len(items)
            fields = between.join(_ESCAPE(k).replace("{", "{{").replace("}", "}}") + ": {}" for k in keys)
            template = f"{{{{\n{inner}{fields}\n{pad}}}}}"
            if len(items) == 1:  # one call on its values
                return [template.format(*_texts(list(items[0].values()), inner))]
            columns = [_texts(list(map(operator.itemgetter(k), items)), inner) for k in keys]
            return list(map(template.format, *columns))
    return [_texts([item], pad)[0] if type(item) in _CONTAINERS else _scalar(item) for item in items]


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


def write_matrix_csv(path, matrix: np.ndarray, column_names: Sequence[str]) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    lines = (f"{sid},{','.join(map(repr, row))}\n" for sid, row in enumerate(_float_rows(matrix)))
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


def write_labels_csv(path, labels: LabelVector) -> None:
    lines = (f"{sid},{v}\n" for sid, v in enumerate(labels.values.tolist()))
    _write_csv(path, ["sample_id", "label"], lines)


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
        if not name:
            raise ValueError(f"{where}: 'name' must be a nonempty string")
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


def _embedding_means(path, text: str) -> tuple[list[str], list[str], EmbeddingMeans]:
    """:func:`read_matrix_csv`'s ids and columns, and its values reduced to their column means.

    A column whose sum leaves the float64 range, though every value in it
    is finite, has no mean: ``ValueError`` names the file and the column.
    """
    ids, columns, values = read_matrix_csv(path, text)
    with np.errstate(over="ignore", invalid="ignore"):
        means = values.mean(axis=0)
    for column, mean in zip(columns, means.tolist()):
        if not math.isfinite(mean):
            raise ValueError(f"{path}: column {column!r}: the sum of its values overflows, so it has no mean")
    return ids, columns, EmbeddingMeans(means, len(values))


def _parse_cost(path: Path, parse) -> int:
    """The bytes ``parse`` has to parse in ``path``: its size, or 0 for a file only hashed."""
    if parse is None:
        return 0
    try:
        return os.stat(path).st_size
    except OSError:  # the read fails in its turn and names the file
        return 0


def _read_parsed(path: Path, parse):
    """``(path, sha256 digest, parse(path, text))`` from one read; None for the last if ``parse`` is None.

    The parsed sample ids, the first item, come back as one string, joined
    by newlines, where no id holds a newline; two such strings are equal
    exactly when the id lists are, and a list is never equal to a string.
    """
    data, digest = _read_hashed(path)
    if parse is None:
        return path, digest, None
    text = _read_text(path, data)
    del data  # not held while the text is parsed
    ids, *rest = parse(path, text)
    joined = "\n".join(ids)
    return path, digest, (joined if joined.count("\n") == len(ids) - 1 else ids, *rest)


def load_bundle(manifest_path, *, embeddings: bool = True, labels: bool = True) -> tuple[Bundle, dict[str, str]]:
    """Load and validate the bundle a manifest file describes, reading each file once.

    Returns it with the sha256 digest of the bytes read from every listed
    file: the manifest's under its path as ``pathlib`` prints it, each data
    file's under its path in the manifest. The embedding files are parsed
    only if ``embeddings``, the labels file only if ``labels``; a file not
    parsed is only hashed, so it is no part of the bundle and only a
    failure to read it is reported. A parsed embeddings file is reduced to
    its column means and row count (:class:`EmbeddingMeans`) in the
    process that parsed it, so the bundle holds no embedding matrix; the
    discrepancy (``metrics.mmd_matrix``) reads only those means. The files
    are shared out over the CPUs by parse cost, and each is checked as it
    comes back, in manifest order: raises for the first that is unreadable
    or, if parsed, malformed, its sample ids unlike the first parsed
    file's included, or an embeddings column without a mean. Raises too if the
    assembled bundle violates an invariant (for example score rows off the
    probability simplex by more than the tolerance are rejected, never
    renormalized). On two or more CPUs every parsed file's sample ids are
    held until the last file is checked, each file's as one string where
    no id holds a newline (:func:`_read_parsed`), not one per sample.
    """
    manifest_path = Path(manifest_path)
    data, digest = _read_hashed(manifest_path)
    digests = {str(manifest_path): digest}
    manifest = load_manifest(manifest_path, _json_text(manifest_path, data))

    files = []  # (role, path in the manifest, parser or None for a file only hashed), in manifest order
    for i, entry in enumerate(manifest.modalities):
        files.append((("scores", i), entry.scores_path, read_matrix_csv))
        if entry.embeddings_path:
            files.append((("embeddings", i), entry.embeddings_path, _embedding_means if embeddings else None))
    if manifest.labels_path:
        files.append((("labels", None), manifest.labels_path, read_labels_csv if labels else None))
    items = [(manifest.resolve(name), parse) for _, name, parse in files]
    loaded = _each(_read_parsed, items, cost=[_parse_cost(*item) for item in items])

    made = {}  # role -> the object built from its file
    reference = None  # the first parsed file's sample ids and path in the manifest
    for (role, name, _), (path, digests[name], parsed) in zip(files, loaded):
        if parsed is None:
            continue
        if reference is None:
            reference = parsed[0], name
        elif parsed[0] != reference[0]:
            raise ValueError(f"sample_id mismatch between {reference[1]} and {name}")
        if role[0] == "scores":
            _, columns, values = parsed
            if manifest.class_names and tuple(columns) != manifest.class_names:
                raise ValueError(f"{path}: class columns {columns} do not match manifest class_names")
            try:
                made[role] = ScoreMatrix(values, tuple(columns))
            except ValueError as err:  # a single class column
                raise ValueError(f"{path}: {err}") from None
        else:
            made[role] = parsed[1] if role[0] == "labels" else parsed[2]

    records = tuple(
        ModalityRecord(entry.name, made["scores", i], made.get(("embeddings", i)))
        for i, entry in enumerate(manifest.modalities)
    )
    bundle = Bundle(records, made.get(("labels", None)), manifest.class_names)
    validate_bundle(bundle).raise_if_invalid()
    return bundle, digests


def names_a_file(name: str) -> bool:
    """Whether a modality name can be part of a file name: it holds no '/', '\\' or NUL."""
    return not any(c in name for c in "/\\\0")


class _Walk:
    """One process's place in a bundle's ``stream()``: ``take(0)`` is the labels, ``take(i)`` the i-th record.

    Only the item last taken is held, and it is dropped before the next is
    drawn; asked for an earlier item, ``take`` opens the stream again. A
    process forked before its first ``take`` opens a stream of its own.
    """

    def __init__(self, stream):
        self.stream, self.items, self.item, self.at = stream, None, None, -1

    def take(self, i: int):
        if i < self.at:
            self.items = self.item = None
        if self.items is None:
            self.items, self.at = self.stream(), -1
        while self.at < i:
            self.item = None
            self.item, self.at = next(self.items), self.at + 1
        return self.item


def write_bundle(bundle, out_dir, dataset: str = "bundle") -> Path:
    """Write a bundle as CSV files plus a manifest; returns the manifest path.

    ``bundle`` is a :class:`Bundle` or anything else with its ``layout``
    and ``stream()``, such as ``synth.Draws``. The layout names the files;
    ``stream()`` yields the labels (None if there are none), then each
    modality's record in manifest order. The files are shared out over the
    CPUs, and each process walks a stream of its own, holding only the
    item it is writing; where it needs an earlier item (the labels, last in
    manifest order, or a share ``parallel._each`` runs again in the caller)
    it opens a fresh stream. Writing the same records so gives the same
    bytes.

    An existing ``manifest.json`` is removed before the first data file is
    written, and the new one is written after the last, so a write that
    fails leaves no manifest. A modality's name becomes part of its file
    names, so a name holding a path separator or NUL, or a name given
    twice, is rejected before any file is written or removed.
    """
    layout = bundle.layout
    names = list(layout.names)
    for name in names:
        if not names_a_file(name):
            raise ValueError(f"modality name {name!r} holds '/', '\\' or NUL and cannot name a file")
        if names.count(name) > 1:
            raise ValueError(f"modality name {name!r} is given twice")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    files = []  # (position in the stream, path, embedding columns or None)
    entries = []
    for i, (name, dim) in enumerate(zip(names, layout.embedding_dims), start=1):
        scores_name = f"scores_{name}.csv"
        files.append((i, out_dir / scores_name, None))
        entry = {"name": name, "scores_path": scores_name}
        if dim is not None:
            emb_name = f"embeddings_{name}.csv"
            files.append((i, out_dir / emb_name, [f"e{k}" for k in range(dim)]))
            entry["embeddings_path"] = emb_name
        entries.append(entry)
    payload = {
        "dataset": dataset,
        "class_names": list(layout.class_names),
        "modalities": entries,
    }
    if layout.labelled:
        files.append((0, out_dir / "labels.csv", None))
        payload["labels_path"] = "labels.csv"
    walk = _Walk(bundle.stream)

    def write(i: int, path: Path, columns) -> None:
        item = walk.take(i)
        if i == 0:
            write_labels_csv(path, item)
        elif columns is None:
            write_matrix_csv(path, item.scores.values, layout.class_names)
        elif isinstance(item.embeddings, EmbeddingMeans):  # as load_bundle returns them
            raise ValueError(f"modality {item.name!r} holds only its embedding means, which make no file")
        else:
            write_matrix_csv(path, item.embeddings.values, columns)

    list(_each(write, files))  # every file, before the manifest
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
