"""Every reader is total: on any input it returns a valid object or raises a
ValueError that starts with the path it read. No other exception escapes."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modselect import AccuracyTable
from modselect.dataio import (
    Manifest,
    load_manifest,
    read_detections_csv,
    read_keypoints_csv,
    read_labels_csv,
    read_matrix_csv,
    read_table,
)
from modselect.encode import RasterImage, read_pgm

FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

# Byte strings that readers treat specially, spliced into valid files.
SPLICES = st.binary(max_size=4) | st.sampled_from(
    [b",", b'"', b"\r", b"\n", b"\xff", b"\x00", b"\x1c", b"#", b" ", b"nan", b"inf", b"1e999", b"-1",
     b"99999999999999999999", b"1_0", b"\xd9\xa1"]
)


@st.composite
def damaged(draw, valid: bytes) -> bytes:
    """``valid`` with up to four short runs of bytes replaced by others."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(data)))
        data[pos : pos + draw(st.integers(0, 3))] = draw(SPLICES)
    return bytes(data)


FIELDS = st.integers().map(str) | st.floats().map(repr) | st.text(max_size=4) | st.sampled_from(
    ["", "nan", "1e999", "-0.0", "person", "object", '"', "\r", " 1"]
)


@st.composite
def csv_like(draw, header: str) -> bytes:
    """A header the reader accepts, then rows of arbitrary fields, most as many as the header's."""
    n = header.count(",") + 1
    row = st.lists(FIELDS, min_size=n, max_size=n) | st.lists(FIELDS, max_size=n + 2)
    rows = draw(st.lists(row.map(",".join), max_size=4))
    return "\n".join([header, *rows]).encode("utf-8", "surrogatepass")


@st.composite
def graymaps(draw) -> bytes:
    """A P2 or P5 header with any dimensions and maxval, then arbitrary samples."""
    magic = draw(st.sampled_from(["P2", "P5"]))
    width, height = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
    maxval = draw(st.sampled_from([255, 65535]) | st.integers(-1, 70000))
    header = f"{magic}\n{width} {height}\n{maxval}\n".encode()
    count = draw(st.just(max(width * height, 0)) | st.integers(0, 20))
    if magic == "P5":
        return header + draw(st.binary(min_size=count * 2, max_size=count * 2 + 2))
    samples = draw(st.lists(st.integers(-3, 70000), min_size=count, max_size=count))
    return header + " ".join(map(str, samples)).encode()


def inputs(valid: list[bytes], near_valid):
    return st.binary(max_size=80) | st.sampled_from(valid).flatmap(damaged) | near_valid


def read_or_reject(read, path):
    """The reader's result, or None where it raised a ValueError starting with ``path``."""
    try:
        return read(path)
    except ValueError as err:
        assert str(err).startswith(str(path)), str(err)
        return None


def check_matrix(out):
    ids, columns, values = out
    assert all(isinstance(v, str) for v in [*ids, *columns])
    assert values.dtype == np.float64 and values.shape == (len(ids), len(columns))
    assert np.isfinite(values).all()


def check_labels(out):
    ids, labels = out
    assert all(isinstance(v, str) for v in ids)
    assert labels.values.dtype == np.int64 and labels.values.shape == (len(ids),)


def check_keypoints(kp):
    joints = kp.joints
    assert joints.ndim == 2 and joints.shape[1] == 3 and np.isfinite(joints).all()
    assert ((joints[:, 2] >= 0) & (joints[:, 2] <= 1)).all()


def check_detections(det):
    for box in [det.person_box, *(b for _, b in det.objects)]:
        corners = [box.x_min, box.y_min, box.x_max, box.y_max]
        assert np.isfinite(corners).all() and box.x_min <= box.x_max and box.y_min <= box.y_max
    assert all(isinstance(c, int) and c >= 0 for c, _ in det.objects)


def check_raster(image):
    assert isinstance(image, RasterImage) and image.values.ndim == 2
    assert ((image.values >= 0) & (image.values <= 1)).all()


MATRIX, LABELS = "sample_id,a,b", "sample_id,label"
KEYPOINTS, DETECTIONS = "x,y,confidence", "role,class_index,x_min,y_min,x_max,y_max"
READERS = {
    "matrix": (read_matrix_csv, check_matrix, csv_like(MATRIX), [
        b"sample_id,a,b\n0,0.5,0.5\n1,0.25,0.75\n",
        b'sample_id,"a,b",c\r\n"x\ry",1e-300,1\r\n',
    ]),
    "labels": (read_labels_csv, check_labels, csv_like(LABELS), [
        b"sample_id,label\n0,1\n1,0\n",
        b'sample_id,label\r\n"a,b",3\r\n',
    ]),
    "keypoints": (read_keypoints_csv, check_keypoints, csv_like(KEYPOINTS), [
        b"x,y,confidence\n1.5,2.0,0.5\n3,4,1\n",
    ]),
    "detections": (read_detections_csv, check_detections, csv_like(DETECTIONS), [
        b"role,class_index,x_min,y_min,x_max,y_max\nperson,,0,0,2,2\nobject,3,1,1,3,3\n",
    ]),
    "pgm": (read_pgm, check_raster, graymaps(), [
        b"P5\n3 1\n255\n\x00\x80\xff",
        b"P5\n2 1\n65535\n\xff\xff\x00\x01",
        b"P2\n# comment\n2 2\n255\n0 1\n2 255\n",
    ]),
}


@pytest.mark.parametrize("kind", READERS)
def test_reader_is_total_on_bytes(tmp_path, kind):
    read, check, near_valid, valid = READERS[kind]
    path = tmp_path / f"input.{kind}"

    @FUZZ
    @given(data=inputs(valid, near_valid))
    def run(data):
        path.write_bytes(data)
        out = read_or_reject(read, path)
        if out is not None:
            check(out)

    run()


# JSON values of every kind, nested a little; floats include NaN and infinities.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def slots(node) -> list:
    """Every (container, key) in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    return [slot for key, value in items for slot in [(node, key), *slots(value)]]


@st.composite
def damaged_json(draw, base):
    """``base`` with up to three fields, elements or the whole value replaced or dropped."""
    if draw(st.integers(0, 15)) == 0:
        return draw(JSON)
    payload = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        if not slots(payload):
            break
        node, key = draw(st.sampled_from(slots(payload)))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(JSON)
    return payload


MANIFEST = {
    "dataset": "d",
    "class_names": ["a", "b"],
    "modalities": [
        {"name": "m", "scores_path": "m.csv", "embeddings_path": "e.csv"},
        {"name": "n", "scores_path": "n.csv"},
    ],
    "labels_path": "labels.csv",
}


@FUZZ
@given(payload=damaged_json(MANIFEST))
def test_manifest_reader_is_total(tmp_path, payload):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload))
    manifest = read_or_reject(load_manifest, path)
    if manifest is not None:
        assert isinstance(manifest, Manifest) and isinstance(manifest.dataset, str)
        assert all(isinstance(c, str) for c in manifest.class_names)
        for m in manifest.modalities:
            assert isinstance(m.name, str) and isinstance(m.scores_path, str)
            assert m.embeddings_path is None or isinstance(m.embeddings_path, str)
        assert manifest.labels_path is None or isinstance(manifest.labels_path, str)


TABLE = {
    "table": {
        "modalities": ["a", "b"],
        "strategies": ["sum", "max"],
        "note": "",
        "entries": [
            {"combination": ["a"], "averaged": 0.5, "strategies": {"sum": 0.5, "max": 0.5}},
            {"combination": ["b"], "averaged": 0.25, "strategies": {"sum": 0.25, "max": 0.25}},
            {"combination": ["a", "b"], "averaged": 0.75, "strategies": {"sum": 0.5, "max": 1.0}},
        ],
    }
}


@FUZZ
@given(payload=damaged_json(TABLE) | damaged_json(TABLE["table"]))
def test_table_reader_is_total(tmp_path, payload):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(payload))
    table = read_or_reject(lambda path: read_table(path)[0], path)
    if table is not None:
        assert isinstance(table, AccuracyTable)
        assert all(isinstance(m, str) for m in table.modalities + table.strategies)
        assert ((table.values >= 0) & (table.values <= 1)).all()
        entries = payload.get("table", payload)["entries"]
        cells = [v for e in entries for v in [e["averaged"], *e.get("strategies", {}).values()]]
        assert all(type(v) in (int, float) and math.isfinite(v) for v in cells)


BARE_TABLE = {"modalities": ["a", "b"], "entries": [
    {"combination": c, "averaged": v} for c, v in ((["a"], 0.5), (["b"], 0.25), (["a", "b"], 0.75))
]}


@pytest.mark.parametrize(
    "table, change, field",
    [
        (TABLE["table"], {"averaged": "0.5"}, "'averaged'"),
        (TABLE["table"], {"averaged": True}, "'averaged'"),
        (TABLE["table"], {"averaged": " 1e-1 "}, "'averaged'"),
        (TABLE["table"], {"averaged": math.nan}, "'averaged'"),
        (TABLE["table"], {"averaged": -math.inf}, "'averaged'"),
        (TABLE["table"], {"strategies": {"sum": "0.5", "max": 1.0}}, "'strategies' value 'sum'"),
        (TABLE["table"], {"strategies": {"sum": 0.5, "max": True}}, "'strategies' value 'max'"),
        (TABLE["table"], {"strategies": {"sum": 0.5, "max": 10**400}}, "'strategies' value 'max'"),
        (BARE_TABLE, {"averaged": "0.75"}, "'averaged'"),
        (BARE_TABLE, {"averaged": False}, "'averaged'"),
        (BARE_TABLE, {"averaged": math.nan}, "'averaged'"),
    ],
    ids=["string", "true", "padded-string", "nan", "-inf", "string-cell", "true-cell", "huge-int-cell",
         "bare-string", "bare-false", "bare-nan"],
)
def test_table_cells_must_be_finite_json_numbers(tmp_path, table, change, field):
    table = copy.deepcopy(table)
    table["entries"][2].update(change)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))  # NaN and -Infinity as Python's json writes them
    with pytest.raises(ValueError) as err:
        read_table(path)
    assert str(err.value).startswith(f"{path}: accuracy table entry 2: {field} must be a finite number")
