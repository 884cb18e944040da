import csv
import enum
import errno
import io
import json
import os
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modselect import AccuracyTable, LabelVector, contribution_report, dataio, parallel, sweep
from modselect.cli import main
from modselect.dataio import (
    dump_json,
    load_bundle,
    load_json,
    load_manifest,
    read_detections_csv,
    read_keypoints_csv,
    read_labels_csv,
    read_matrix_csv,
    write_bundle,
    write_contribution_csv,
    write_detections_csv,
    write_keypoints_csv,
    write_labels_csv,
    write_matrix_csv,
    write_table_csv,
)
from modselect.encode import Box, DetectionSet, Keypoints
from modselect.synth import default_scenario, generate

from conftest import make_bundle, simplex_rows


@pytest.fixture
def bundle():
    out, _ = generate(default_scenario(seed=17, samples=60, classes=4, embedding_dim=5))
    return out


def test_bundle_round_trip_bit_identical(tmp_path, bundle):
    manifest = write_bundle(bundle, tmp_path, dataset="demo")
    loaded, digests = load_bundle(manifest)
    assert loaded.names == bundle.names
    assert loaded.class_names == bundle.class_names
    for original, reloaded in zip(bundle.modalities, loaded.modalities):
        assert np.array_equal(original.scores.values, reloaded.scores.values)
        if original.embeddings is None:
            assert reloaded.embeddings is None
        else:
            # load_bundle keeps the column means; the file keeps every value.
            _, _, values = read_matrix_csv(tmp_path / f"embeddings_{original.name}.csv")
            assert np.array_equal(original.embeddings.values, values)
            assert reloaded.embeddings.means.tobytes() == original.embeddings.means.tobytes()
            assert reloaded.embeddings.n_samples == original.embeddings.n_samples
    assert np.array_equal(loaded.labels.values, bundle.labels.values)
    assert str(manifest) in digests
    assert all(len(v) == 64 for v in digests.values())
    with pytest.raises(ValueError, match="'good1' holds only its embedding means"):
        write_bundle(loaded, tmp_path / "again")


def test_matrix_csv_round_trip_extreme_values(tmp_path):
    values = np.array([[1e-300, 0.1234567890123456789, 1.0], [np.pi * 1e-20, 2 / 3, 1e300]])
    path = tmp_path / "m.csv"
    write_matrix_csv(path, values, ["a", "b", "c"])
    ids, columns, back = read_matrix_csv(path)
    assert columns == ["a", "b", "c"]
    assert ids == ["0", "1"]
    assert np.array_equal(values, back)


def test_sample_id_mismatch_detected(tmp_path, bundle):
    write_bundle(bundle, tmp_path)
    labels_file = tmp_path / "labels.csv"
    text = labels_file.read_text().splitlines()
    text[1] = "999" + text[1][text[1].index(","):]
    labels_file.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError, match="sample_id mismatch"):
        load_bundle(tmp_path / "manifest.json")


def _quoted_ids_bundle(tmp_path, *ids) -> Path:
    """A two-class bundle with one score file per id list, each id quoted."""
    modalities = []
    for m, names in enumerate(ids):
        rows = "".join(f'"{sid}",{k / 4},{1 - k / 4}\n' for k, sid in enumerate(names))
        (tmp_path / f"s{m}.csv").write_text("sample_id,a,b\n" + rows)
        modalities.append({"name": f"m{m}", "scores_path": f"s{m}.csv"})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"class_names": ["a", "b"], "modalities": modalities}))
    return manifest


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_sample_ids_holding_newlines_are_compared_as_lists(tmp_path, cpus, n_cpus):
    # Joined by newlines, both files' ids would read "a\nb\nc".
    cpus(n_cpus)
    with pytest.raises(ValueError, match="sample_id mismatch between s0.csv and s1.csv"):
        load_bundle(_quoted_ids_bundle(tmp_path, ["a\nb", "c"], ["a", "b\nc"]))
    loaded, _ = load_bundle(_quoted_ids_bundle(tmp_path, ["a\nb", "c"], ["a\nb", "c"]))
    assert loaded.names == ("m0", "m1")
    with pytest.raises(ValueError, match="sample_id mismatch between s0.csv and s1.csv"):
        load_bundle(_quoted_ids_bundle(tmp_path, ["a", "b"], ["a\nb", "c"]))


def test_load_bundle_holds_less_than_the_text_of_a_tall_narrow_bundle(tmp_path, cpus):
    # On two CPUs every file's sample ids are held until the last file is
    # checked. As one string per file they take a few bytes per sample; one
    # string object per sample per file would take about twice the text.
    # Each embeddings file is reduced to its column means where it is
    # parsed, so the bundle holds no S x d matrix, only the scores and labels.
    rng = np.random.default_rng(5)
    samples, dim = 10000, 2
    scores = [simplex_rows(rng, samples, 2) for _ in range(8)]
    embeddings = [rng.normal(size=(samples, dim)) for _ in range(8)]
    bundle = make_bundle(scores, labels=rng.integers(0, 2, samples), embeddings=embeddings)
    manifest = write_bundle(bundle, tmp_path)
    text = sum(path.stat().st_size for path in tmp_path.iterdir())
    cpus(2)
    load_bundle(manifest)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        loaded, _ = load_bundle(manifest)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < text, (peak, text)
    arrays = sum(rec.scores.values.nbytes for rec in loaded.modalities) + loaded.labels.values.nbytes
    assert held - arrays < samples * dim * 8, (held - arrays) / (samples * dim * 8)
    for rec, original in zip(loaded.modalities, embeddings):
        assert rec.embeddings.means.tobytes() == original.mean(axis=0).tobytes()


def test_simplex_violation_rejected_on_load(tmp_path, rng):
    scores = simplex_rows(rng, 5, 3).copy()
    scores[3] = [0.5, 0.2, 0.1]
    bad = make_bundle([scores], labels=[0, 1, 2, 0, 1])
    # write_bundle does not validate; loading must reject
    manifest = write_bundle(bad, tmp_path)
    with pytest.raises(ValueError, match="row not on simplex"):
        load_bundle(manifest)


@pytest.mark.parametrize("name", ["a/b", "../up", "a\\b", "a\0b"])
def test_write_bundle_rejects_a_name_that_is_no_file_name(tmp_path, rng, name):
    bundle = make_bundle([simplex_rows(rng, 4, 3)] * 2, labels=[0, 1, 2, 0], names=["ok", name])
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        write_bundle(bundle, tmp_path / "out")
    assert not any(tmp_path.rglob("*"))


def test_write_bundle_rejects_a_repeated_name(tmp_path, rng):
    bundle = make_bundle([simplex_rows(rng, 4, 3)] * 3, labels=[0, 1, 2, 0], names=["x", "y", "x"])
    with pytest.raises(ValueError, match="modality name 'x' is given twice"):
        write_bundle(bundle, tmp_path / "out")
    assert not any(tmp_path.rglob("*"))


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_write_bundle_refuses_embedding_means_before_it_touches_the_out_dir(tmp_path, bundle, cpus, n_cpus):
    cpus(n_cpus)
    manifest = write_bundle(bundle, tmp_path)

    def files():
        return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in tmp_path.iterdir()}

    before = files()
    with pytest.raises(ValueError, match="^modality 'good1' holds only its embedding means, which make no file$"):
        write_bundle(load_bundle(manifest)[0], tmp_path)
    assert files() == before


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_each_file_read_is_hashed_once_through_sha256_file_with_the_bytes_parsed(
    tmp_path, monkeypatch, bundle, cpus, n_cpus
):
    manifest = write_bundle(bundle, tmp_path / "bundle")
    table_path = tmp_path / "table.json"
    dump_json({"schema": 1, "table": _wide_table().to_dict()}, table_path)
    log = tmp_path / "hashed.log"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    sha256_file = dataio.sha256_file

    def recording(path, data=None):  # forked children write to the same log
        digest = sha256_file(path, data)
        os.write(fd, f"{Path(path).name} {data == Path(path).read_bytes()} {digest}\n".encode())
        return digest

    cpus(n_cpus)
    monkeypatch.setattr(dataio, "sha256_file", recording)
    try:
        _, digests = load_bundle(manifest)
        _, table_digest = dataio.read_table(table_path)
    finally:
        os.close(fd)
    calls = [line.split() for line in log.read_text().splitlines()]
    want = {Path(name).name: digest for name, digest in digests.items()} | {"table.json": table_digest}
    assert sorted(name for name, _, _ in calls) == sorted(want)
    assert {name: digest for name, given, digest in calls if given == "True"} == want


def test_manifest_errors(tmp_path):
    path = tmp_path / "manifest.json"
    dump_json({"dataset": "x", "class_names": ["a", "b"], "modalities": []}, path)
    with pytest.raises(ValueError, match="no modalities"):
        load_manifest(path)
    dump_json(
        {
            "dataset": "x",
            "class_names": ["a", "b"],
            "modalities": [
                {"name": "m", "scores_path": "s.csv"},
                {"name": "m", "scores_path": "s.csv"},
            ],
        },
        path,
    )
    with pytest.raises(ValueError, match="duplicate modality"):
        load_manifest(path)
    # null reads as an absent path, not as a mistyped one
    absent = {"class_names": ["a", "b"], "modalities": [{"name": "m", "scores_path": "s.csv"}]}
    dump_json(absent, path)
    want = load_manifest(path)
    nulls = {"labels_path": None, "modalities": [{"name": "m", "scores_path": "s.csv", "embeddings_path": None}]}
    dump_json(absent | nulls, path)
    assert load_manifest(path) == want
    assert (want.labels_path, want.modalities[0].embeddings_path) == (None, None)


@pytest.mark.parametrize(
    "modality, field",
    [({"scores_path": "s.csv"}, "name"), ({"name": "m"}, "scores_path"), ("m", "name")],
)
def test_manifest_names_missing_modality_field(tmp_path, modality, field):
    path = tmp_path / "manifest.json"
    good = {"name": "g", "scores_path": "g.csv"}
    dump_json({"class_names": ["a", "b"], "modalities": [good, modality]}, path)
    with pytest.raises(ValueError) as err:
        load_manifest(path)
    assert str(err.value) == f"{path}: modality 1 has no {field!r} field"


@pytest.mark.parametrize(
    "change, field",
    [
        ({"modalities": 5}, "modalities"),
        ({"modalities": [{"name": ["m"], "scores_path": "s.csv"}]}, "name"),
        ({"modalities": [{"name": "", "scores_path": "s.csv"}]}, "name"),
        ({"class_names": 5}, "class_names"),
        ({"class_names": ["a", 5]}, "class_names"),
        ({"modalities": [{"name": "m", "scores_path": 5}]}, "scores_path"),
        ({"modalities": [{"name": "m", "scores_path": "s.csv", "embeddings_path": 5}]}, "embeddings_path"),
        ({"labels_path": 5}, "labels_path"),
        ({"dataset": []}, "dataset"),
    ],
    ids=[
        "modalities", "name", "empty_name", "class_names", "class_name", "scores_path", "embeddings_path",
        "labels_path", "dataset",
    ],
)
def test_manifest_rejects_a_mistyped_field(tmp_path, change, field):
    path = tmp_path / "manifest.json"
    good = {"class_names": ["a", "b"], "modalities": [{"name": "m", "scores_path": "s.csv"}]}
    dump_json(good | change, path)
    with pytest.raises(ValueError) as err:
        load_manifest(path)
    assert str(err.value).startswith(f"{path}: ") and f"{field!r} must be" in str(err.value)


def test_deeply_nested_json_is_invalid(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    with pytest.raises(ValueError, match="nested too deeply"):
        load_json(path)


def test_manifest_must_be_a_json_object(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="manifest must be a JSON object"):
        load_manifest(path)


def test_invalid_json_names_the_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"modalities": [')
    with pytest.raises(ValueError) as err:
        load_json(path)
    assert str(err.value).startswith(f"{path}: invalid JSON")


def test_missing_file_raises(tmp_path):
    path = tmp_path / "manifest.json"
    dump_json(
        {
            "dataset": "x",
            "class_names": ["a", "b"],
            "modalities": [{"name": "m", "scores_path": "absent.csv"}],
        },
        path,
    )
    with pytest.raises(OSError):
        load_bundle(path)


def test_class_column_mismatch(tmp_path, rng):
    write_matrix_csv(tmp_path / "s.csv", simplex_rows(rng, 4, 2), ["x", "y"])
    dump_json(
        {
            "dataset": "d",
            "class_names": ["a", "b"],
            "modalities": [{"name": "m", "scores_path": "s.csv"}],
        },
        tmp_path / "manifest.json",
    )
    with pytest.raises(ValueError, match="class columns"):
        load_bundle(tmp_path / "manifest.json")


def test_a_scores_file_with_one_class_is_named(tmp_path):
    write_matrix_csv(tmp_path / "s.csv", np.ones((4, 1)), ["only"])
    dump_json({"modalities": [{"name": "m", "scores_path": "s.csv"}]}, tmp_path / "manifest.json")
    with pytest.raises(ValueError) as err:
        load_bundle(tmp_path / "manifest.json")
    assert str(err.value) == f"{(tmp_path / 's.csv').resolve()}: scores need at least two classes"


def test_matrix_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sample_id,a\n0,1.0,9.9\n")
    with pytest.raises(ValueError, match="expected 2 fields"):
        read_matrix_csv(path)
    path.write_text("wrong,a\n0,1.0\n")
    with pytest.raises(ValueError, match="sample_id"):
        read_matrix_csv(path)
    path.write_text("sample_id,a\n0,abc\n")
    with pytest.raises(ValueError, match="non-numeric"):
        read_matrix_csv(path)


def test_matrix_csv_rows_whose_extra_and_missing_commas_cancel(tmp_path):
    # The total comma count matches the header's; the first bad row is named.
    path = tmp_path / "bad.csv"
    path.write_text("sample_id,a,b\n0,1.0,2.0,3.0\n1,1.0\n2,1.0,2.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv:2: expected 3 fields, got 4$"):
        read_matrix_csv(path)
    path.write_text("sample_id,a,b\n0,1.0\n1,1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv:2: expected 3 fields, got 2$"):
        read_matrix_csv(path)


@pytest.mark.parametrize(
    "read, header, row",
    [
        (read_matrix_csv, "sample_id,a,b", "0,0.5,0.5"),
        (read_labels_csv, "sample_id,label", "0,1"),
        (read_keypoints_csv, "x,y,confidence", "1,2,0.5"),
        (read_detections_csv, "role,class_index,x_min,y_min,x_max,y_max", "person,,0,0,1,1"),
    ],
)
@pytest.mark.parametrize("extra", [1, -1])
def test_readers_name_the_field_count_of_a_long_or_short_row(tmp_path, read, header, row, extra):
    n = header.count(",") + 1
    bad = row + ",9" if extra > 0 else row[: row.rindex(",")]
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n{row}\n\n{bad}\n")
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(err.value) == f"{path}:4: expected {n} fields, got {n + extra}"


def test_keypoints_round_trip(tmp_path):
    kp = Keypoints([[1.5, 2.25, 0.5], [10.0, 3.0, 1.0]])
    path = tmp_path / "kp.csv"
    write_keypoints_csv(path, kp)
    back = read_keypoints_csv(path)
    assert np.array_equal(kp.joints, back.joints)


def test_detections_round_trip(tmp_path):
    det = DetectionSet(Box(0, 0, 4, 4), ((3, Box(5, 5, 7, 7)), (0, Box(1, 1, 2, 2))))
    path = tmp_path / "det.csv"
    write_detections_csv(path, det)
    back = read_detections_csv(path)
    assert back.person_box == det.person_box
    assert back.objects == det.objects


def test_detections_require_person(tmp_path):
    path = tmp_path / "det.csv"
    path.write_text("role,class_index,x_min,y_min,x_max,y_max\nobject,1,0,0,1,1\n")
    with pytest.raises(ValueError, match="no person row"):
        read_detections_csv(path)


def test_table_csv_and_json(tmp_path, rng):
    labels = rng.integers(0, 3, 40)
    bundle = make_bundle([simplex_rows(rng, 40, 3) for _ in range(2)], labels=labels)
    table = sweep(bundle)
    write_table_csv(tmp_path / "table.csv", table)
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert lines[0].startswith("combination,sum,sqsum,product,max,median,borda,averaged")
    assert len(lines) == 1 + 3

    clone = AccuracyTable.from_dict(
        json.loads(json.dumps(table.to_dict()))
    )
    for combo in table.combinations():
        assert clone.value(combo) == table.value(combo)


# --- dump_json against json.dump --------------------------------------------


def json_dump_file(payload, path):
    """What ``json.dump(payload, fh, indent=2)`` and a newline leave in ``path``, and its error."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        try:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
            error = None
        except Exception as err:
            error = (type(err), str(err))
    return path.read_bytes(), error


def dump_json_file(payload, path):
    try:
        dump_json(payload, path)
        error = None
    except Exception as err:
        error = (type(err), str(err))
    return path.read_bytes(), error


class Level(enum.IntEnum):
    LOW = 1  # json writes int.__repr__, 1, not the enum's repr


SCALARS = st.one_of(
    st.none(),
    st.just(Level.LOW),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e16, 1e-5, 10**300]),
    st.text(),
    st.sampled_from(["é", "\u20ac", "\U0001f600", "\x00\x1f\x7f", '"\\/', "\ud800", "\udfff", "{}", "{0}"]),
)
KEYS = st.text(max_size=4) | st.sampled_from(["{", "}", "{}", "\ud800", "é"])


def json_trees(scalars=SCALARS, keys=KEYS):
    """Nested dicts, lists and tuples, some lists holding objects with one key order."""
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5),
            st.lists(inner, max_size=5).map(tuple),
            st.dictionaries(keys, inner, max_size=4),
            st.lists(st.fixed_dictionaries({"a": inner, "{b}": inner}), max_size=4),
            st.lists(st.dictionaries(st.sampled_from(["a", "b"]), inner, max_size=2), max_size=4),
        ),
        max_leaves=30,
    )


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=json_trees())
def test_dump_json_writes_the_bytes_of_json_dump(tmp_path, monkeypatch, payload):
    want, error = json_dump_file(payload, tmp_path / "want.json")
    assert error is None
    with monkeypatch.context() as patch:  # the payload never reaches json.dump
        patch.setattr(json, "dump", lambda *args, **kwargs: pytest.fail("json.dump was called"))
        assert dump_json_file(payload, tmp_path / "got.json") == (want, None)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=json_trees(keys=KEYS | st.integers(-2, 2) | st.floats() | st.booleans() | st.none()))
def test_dump_json_spells_keys_that_are_no_strings_as_json_dump(tmp_path, payload):
    want = json_dump_file(payload, tmp_path / "want.json")
    assert dump_json_file(payload, tmp_path / "got.json") == want


def test_dump_json_writes_long_lists_and_deep_nesting_as_json_dump(tmp_path):
    deep = []
    for k in range(300):  # past the depth the fast path takes
        deep = [k, {"a": deep}]
    cases = [
        list(range(1000)),
        [{"combination": ["a"] * (k % 5), "averaged": k / 7} for k in range(300)],
        [{"a": 1}, {True: 2}, {1.0: 3}, {"a": [1], "b": {}}, {}],
        {"counts": Counter(a=2), "rows": [Counter(b=1), Counter()]},  # subclasses, which json.dump indents
        deep,
    ]
    for payload in cases:
        want = json_dump_file(payload, tmp_path / "want.json")
        assert want[1] is None
        assert dump_json_file(payload, tmp_path / "got.json") == want


def test_dump_json_raises_json_dump_s_error(tmp_path):
    cycle = {"a": [1]}
    cycle["a"].append(cycle)
    cases = {
        "set": ({"table": {"entries": [{"x": 0.5}, {"x": {1, 2}}]}}, TypeError),
        "tuple key": ({"ok": 1, (1, 2): 3}, TypeError),
        "cycle": (cycle, ValueError),
        "numpy int": ([1, np.int64(2)], TypeError),
        "huge int": ({"n": 10**5000}, None),  # ValueError where int to text is limited
    }
    for payload, kind in cases.values():
        want = json_dump_file(payload, tmp_path / "want.json")
        assert kind is None or want[1][0] is kind
        assert dump_json_file(payload, tmp_path / "got.json") == want


def nested(shape, depth):
    """A payload ``depth`` containers deep: lists, dicts that hold containers, or ``[k, {"a": ...}]`` links."""
    value = 0
    for k in range(depth):
        if shape == "list":
            value = [value]
        elif shape == "dict":
            value = {"a": [value]} if k % 2 else {"a": value}
        else:
            value = [k, {"a": value}]
    return value


@pytest.mark.parametrize("shape", ["list", "dict", "chain"])
def test_dump_json_hands_deep_nesting_to_json_dump(tmp_path, monkeypatch, shape):
    # Deep enough, the writer raises RecursionError; json.dump then writes the
    # payload or raises its own error. Near the limit json.dump may fail inside
    # dump_json, a frame deeper, where it succeeds when called directly.
    json_dump, raised = json.dump, []

    def dump(*args, **kwargs):
        try:
            return json_dump(*args, **kwargs)
        except Exception as err:
            raised.append(type(err))
            raise

    for depth in (100, 300, 500, 700, 900, 1200):
        payload = nested(shape, depth)
        want = json_dump_file(payload, tmp_path / "want.json")
        raised.clear()
        with monkeypatch.context() as patch:
            patch.setattr(json, "dump", dump)
            got = dump_json_file(payload, tmp_path / "got.json")
        if got[1] is None:
            assert got == want, depth
        else:
            assert raised == [got[1][0]], depth
    assert want[1] is not None and want[1][0] is RecursionError  # the deepest payload is beyond json.dump


def _wide_table() -> AccuracyTable:
    """A 12-modality table: 4095 combinations x 6 rules."""
    names = tuple(f"m{i:02d}" for i in range(12))
    strategies = ("sum", "sqsum", "product", "max", "median", "borda")
    values = np.random.default_rng(3).uniform(0.1, 0.9, (4095, 6))
    values[:12] = values[:12, :1]  # singletons agree across strategies
    return AccuracyTable(names, strategies, values)


def test_dump_json_holds_a_small_part_of_a_large_table(tmp_path):
    payload = {"schema": 1, "table": _wide_table().to_dict()}
    tracemalloc.start()
    try:
        dump_json(payload, tmp_path / "table.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = (tmp_path / "table.json").stat().st_size
    assert (tmp_path / "table.json").read_bytes() == json_dump_file(payload, tmp_path / "want.json")[0]
    assert peak < written / 8, (peak, written)


def test_read_table_builds_the_table_without_its_text(tmp_path, monkeypatch):
    path = tmp_path / "table.json"
    dump_json({"schema": 1, "table": _wide_table().to_dict()}, path)
    text = path.read_text(encoding="utf-8")
    json.loads(text)  # warms the allocator's free lists
    entry, build = [], AccuracyTable.from_dict

    def traced(cls, payload):
        entry.append(tracemalloc.get_traced_memory()[0])
        return build(payload)

    monkeypatch.setattr(AccuracyTable, "from_dict", classmethod(traced))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        payload = json.loads(text)
        parsed = tracemalloc.get_traced_memory()[0] - start
        del payload
        start = tracemalloc.get_traced_memory()[0]
        table, _ = dataio.read_table(path)
    finally:
        tracemalloc.stop()
    assert table.values.tobytes() == _wide_table().values.tobytes()
    # On entry to from_dict only the parsed payload is held: not the text, nor the bytes.
    assert entry[0] - start < parsed + len(text) / 8, (entry[0] - start - parsed, len(text))


# --- Fast readers and writers against the csv module -----------------------

FIELDS = st.one_of(
    st.text(alphabet="0123456789.eE+-_ \t", max_size=6),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "5e-324", "-0.0", "#", '"1"', '"a,b"', "\x1c1", "\u0661"]),
    st.floats().map(repr),
)
HEADERS = st.sampled_from(
    [
        "sample_id,a,b", "sample_id,a", "sample_id", "sample_id,label", "id,a", 'sample_id,"a,b"',
        "#sample_id,a", "",
    ]
)
NUMBERS = st.floats().map(repr) | st.sampled_from(["1", " 0.5\t", "-0.0", "5e-324", ".5", "+1", "1.", "1E5"])


@st.composite
def csv_texts(draw):
    """Mostly well-formed matrix files, some with one odd row or field."""
    n = draw(st.integers(1, 3))
    header = draw(HEADERS | st.just(",".join(["sample_id", *"abc"[:n]])))
    ids = st.sampled_from(["0", "x", "", "#1", " 7"])
    values = st.lists(NUMBERS, min_size=n, max_size=n)
    good = st.tuples(ids, values).map(lambda r: ",".join([r[0], *r[1]]))
    odd = st.lists(FIELDS, max_size=5).map(",".join)
    rows = draw(st.lists(good | st.just(""), max_size=6))
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(odd)
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return newline.join([header, *rows]) + draw(st.sampled_from(["", newline]))


def outcome(read, *args):
    try:
        return read(*args)
    except ValueError as err:
        return ("error", str(err))


def same_matrix(left, right):
    if left[0] == "error" or right[0] == "error":
        return left == right
    (ids, columns, values), (ids2, columns2, values2) = left, right
    return (ids, columns, values.shape, values.tobytes()) == (ids2, columns2, values2.shape, values2.tobytes())


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts())
def test_fast_matrix_reader_matches_csv_path(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    assert same_matrix(outcome(read_matrix_csv, path), outcome(dataio._matrix_from_records, path))


def test_plain_lines_only_where_csv_reader_splits_alike():
    assert dataio._plain_lines("sample_id,a\n0,0.5\n\n1,nan\n") == (["sample_id", "a"], ["0,0.5", "1,nan"])
    odd = ['sample_id,a\n0,"1"\n', "sample_id,a\r\n0,1\r\n", "sample_id,a\n0,1\x1c\n", "sample_id,a\n0,1,2\n"]
    for text in odd:
        assert dataio._plain_lines(text) is None


TEXT = st.text(alphabet='ab,"\r\n #+', max_size=5)
SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, float("nan"), float("inf"), 0.1, 1 / 3])


def csv_reference(header, rows) -> bytes:
    # With a '\r\n' terminator csv.writer quotes every field holding ',', '"',
    # '\r' or '\n'; each row then ends in '\n' alone.
    lines = []
    for row in [header, *rows]:
        buf = io.StringIO(newline="")
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines).encode("utf-8")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n_rows=st.integers(0, 1100), n_cols=st.integers(1, 4))
def test_matrix_writer_matches_csv_writer(tmp_path, data, n_rows, n_cols):
    seed = data.draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** data.draw(st.integers(-300, 300))
    matrix = np.random.default_rng(seed).standard_normal((n_rows, n_cols)) * scale
    for _ in range(data.draw(st.integers(0, 8)) if n_rows else 0):
        cell = data.draw(st.integers(0, n_rows - 1)), data.draw(st.integers(0, n_cols - 1))
        matrix[cell] = data.draw(SPECIAL)
    columns = data.draw(st.lists(TEXT, min_size=n_cols, max_size=n_cols))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, matrix, columns)
    rows = [[str(i), *(repr(float(v)) for v in row)] for i, row in enumerate(matrix)]
    assert path.read_bytes() == csv_reference(["sample_id", *columns], rows)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(names=st.lists(TEXT.filter(bool), min_size=2, max_size=3, unique=True), seed=st.integers(0, 2**32 - 1))
def test_table_and_contribution_writers_match_csv_writer(tmp_path, names, seed):
    rng = np.random.default_rng(seed)
    scores = [simplex_rows(rng, 30, 3) for _ in names]
    table = sweep(make_bundle(scores, labels=rng.integers(0, 3, 30), names=names))
    write_table_csv(tmp_path / "table.csv", table)
    columns = np.column_stack((table.values, table.column()))
    rows = [["+".join(c), *map(repr, (100.0 * row).tolist())] for c, row in zip(table.combinations(), columns)]
    header = ["combination", *table.strategies, "averaged"]
    assert (tmp_path / "table.csv").read_bytes() == csv_reference(header, rows)

    report = contribution_report(table)
    write_contribution_csv(tmp_path / "contrib.csv", report)
    strategies = list(report.per_strategy)
    rows = [
        [n, repr(float(report.averaged[n])), *(repr(float(report.per_strategy[s][n])) for s in strategies),
         "yes" if n in report.positive else "no"]
        for n in report.modalities
    ]
    header = ["modality", "contribution_percent", *strategies, "positive"]
    assert (tmp_path / "contrib.csv").read_bytes() == csv_reference(header, rows)


def test_small_writers_match_csv_writer(tmp_path):
    labels = LabelVector(np.array([0, 2, 1]))
    write_labels_csv(tmp_path / "labels.csv", labels)
    rows = [["0", 0], ["1", 2], ["2", 1]]
    assert (tmp_path / "labels.csv").read_bytes() == csv_reference(["sample_id", "label"], rows)
    kp = Keypoints([[1.5, -0.0, 0.5], [1e300, 5e-324, 1.0]])
    write_keypoints_csv(tmp_path / "kp.csv", kp)
    rows = [[repr(float(v)) for v in joint] for joint in kp.joints]
    assert (tmp_path / "kp.csv").read_bytes() == csv_reference(["x", "y", "confidence"], rows)
    det = DetectionSet(Box(0, 0.5, 4, 4), ((3, Box(5, 5, 7, 7.25)),))
    write_detections_csv(tmp_path / "det.csv", det)
    rows = [["person", "", "0.0", "0.5", "4.0", "4.0"], ["object", 3, "5.0", "5.0", "7.0", "7.25"]]
    header = ["role", "class_index", "x_min", "y_min", "x_max", "y_max"]
    assert (tmp_path / "det.csv").read_bytes() == csv_reference(header, rows)


def test_text_fields_holding_carriage_returns_read_back(tmp_path):
    ids, columns = ["x\ry", "\r", "a\r\nb", 'q"\r'], ["c\r", "d"]
    matrix = np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0], [0.0, 1.0]])
    write_matrix_csv(tmp_path / "m.csv", matrix, columns)
    assert read_matrix_csv(tmp_path / "m.csv")[1] == columns
    assert (tmp_path / "m.csv").read_bytes().startswith(b'sample_id,"c\r",d\n0,0.5,0.5\n')
    # The writers number the rows; sample ids like these come from files written elsewhere.
    rows = [[sid, *map(repr, row)] for sid, row in zip(ids, matrix.tolist())]
    (tmp_path / "m.csv").write_bytes(csv_reference(["sample_id", *columns], rows))
    back_ids, back_columns, back = read_matrix_csv(tmp_path / "m.csv")
    assert (back_ids, back_columns, back.tolist()) == (ids, columns, matrix.tolist())
    (tmp_path / "labels.csv").write_bytes(csv_reference(["sample_id", "label"], zip(ids, [0, 1, 1, 0])))
    back_ids, labels = read_labels_csv(tmp_path / "labels.csv")
    assert (back_ids, labels.values.tolist()) == (ids, [0, 1, 1, 0])


# --- Reader errors name the file and line -----------------------------------


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_matrix_reader_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "m.csv"
    path.write_text(f"sample_id,a,b\n0,0.5,0.5\n1,{value},0.5\n")
    with pytest.raises(ValueError) as err:
        read_matrix_csv(path)
    assert str(err.value) == f"{path}:3: non-finite value"


@pytest.mark.parametrize(
    "body, message",
    [
        ("1,nan,0.5", "non-finite value"),
        ("1,2,inf", "non-finite value"),
        ("1,2,abc", "non-numeric value"),
        ("1,2,1.5", "joint confidences must lie in [0, 1]"),
    ],
)
def test_keypoint_errors_name_file_and_line(tmp_path, body, message):
    path = tmp_path / "kp.csv"
    path.write_text(f"x,y,confidence\n0,0,1\n{body}\n")
    with pytest.raises(ValueError) as err:
        read_keypoints_csv(path)
    assert str(err.value) == f"{path}:3: {message}"


@pytest.mark.parametrize(
    "body, message",
    [
        ("object,1,0,0,inf,1", "non-finite value"),
        ("object,1,0,0,x,1", "non-numeric value"),
        ("object,1,5,0,1,1", "box extent must be nonnegative"),
        ("object,-2,0,0,1,1", "object class indices must be nonnegative"),
        ("object,one,0,0,1,1", "invalid literal for int() with base 10: 'one'"),
        ("person,,0,0,1,1", "more than one person row"),
        ("robot,,0,0,1,1", "role must be 'person' or 'object'"),
    ],
)
def test_detection_errors_name_file_and_line(tmp_path, body, message):
    path = tmp_path / "det.csv"
    path.write_text(f"role,class_index,x_min,y_min,x_max,y_max\nperson,,0,0,1,1\n{body}\n")
    with pytest.raises(ValueError) as err:
        read_detections_csv(path)
    assert str(err.value) == f"{path}:3: {message}"


@pytest.mark.parametrize(
    "read, header",
    [
        (read_matrix_csv, "sample_id,a"),
        (read_labels_csv, "sample_id,label"),
        (read_keypoints_csv, "x,y,confidence"),
        (read_detections_csv, "role,class_index,x_min,y_min,x_max,y_max"),
    ],
)
def test_non_utf8_bytes_name_the_file(tmp_path, read, header):
    path = tmp_path / "bad.csv"
    path.write_bytes(header.encode() + b"\n0,\xff\n")
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(err.value).startswith(f"{path}: invalid UTF-8: 'utf-8' codec can't decode byte 0xff")


def test_csv_module_errors_name_the_file(tmp_path):
    # NUL is a csv.Error on some Python versions and a non-numeric field on others.
    path = tmp_path / "nul.csv"
    path.write_text("sample_id,a\n0,1\x00\n")
    with pytest.raises(ValueError) as err:
        read_matrix_csv(path)
    assert str(err.value).startswith(f"{path}:2: ")
    limit = csv.field_size_limit()
    for read, header in ((read_matrix_csv, "sample_id,a"), (read_labels_csv, "sample_id,label")):
        path = tmp_path / "long.csv"
        path.write_text(f'{header}\n"{"1" * (limit + 1)}",1\n')
        with pytest.raises(ValueError) as err:
            read(path)
        assert str(err.value) == f"{path}:2: field larger than field limit ({limit})"


@pytest.mark.parametrize("label", [2**63, -(2**63) - 1])
def test_a_label_beyond_int64_names_the_file(tmp_path, label):
    path = tmp_path / "labels.csv"
    path.write_text(f"sample_id,label\n0,0\n1,{label}\n")
    with pytest.raises(ValueError) as err:
        read_labels_csv(path)
    assert str(err.value) == f"{path}: a label is outside the 64-bit integer range"


def square(i):
    return i, [float(i)] * i


def assert_no_children(pid):
    """The caller is still ``pid`` and has no child left, not even a zombie."""
    assert os.getpid() == pid
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n_cpus", [1, 2, 3, 4])
def test_each_returns_the_serial_results_in_item_order(cpus, n_cpus):
    cpus(n_cpus)
    pid = os.getpid()
    for n_items in range(10):
        items = [(i,) for i in range(n_items)]
        assert list(parallel._each(square, items)) == [square(*item) for item in items]
        assert_no_children(pid)
        workers = set(parallel._each(lambda i: os.getpid(), items))
        assert len(workers) == min(n_items, n_cpus)
        assert_no_children(pid)
        results = parallel._each(square, items)
        if n_items:
            assert next(results) == square(0)
        results.close()
        assert_no_children(pid)


@pytest.mark.parametrize("n_cpus", [2, 3, 4])
def test_each_raises_a_failed_item_s_exception_when_it_is_reached(cpus, n_cpus):
    cpus(n_cpus)
    pid = os.getpid()

    def fn(i):
        if i == bad:
            raise LookupError(f"item {i} failed")
        return i

    for bad in range(6):  # every share, the caller's and each child's, fails once
        got = []
        with pytest.raises(LookupError, match=f"^item {bad} failed$"):
            for value in parallel._each(fn, [(i,) for i in range(6)]):
                got.append(value)
        assert got == list(range(bad))
        assert_no_children(pid)


@pytest.mark.parametrize("n_cpus", [2, 3, 4])
def test_each_reruns_the_share_of_a_child_that_sends_nothing(cpus, n_cpus):
    cpus(n_cpus)
    pid = os.getpid()

    def dies_in_a_child(i):
        if i == 1 and os.getpid() != pid:
            os._exit(1)
        return square(i)

    items = [(i,) for i in range(7)]
    assert list(parallel._each(dies_in_a_child, items)) == [square(*item) for item in items]
    assert_no_children(pid)
    # A result that does not pickle is sent by no child either.
    assert [f() for f in parallel._each(lambda i: (lambda: i), items)] == list(range(7))
    assert_no_children(pid)


@pytest.mark.parametrize("n_cpus", [2, 3, 4])
def test_each_runs_every_share_in_the_caller_where_no_process_can_be_forked(
    tmp_path, monkeypatch, bundle, cpus, n_cpus
):
    manifest, out = write_bundle(bundle, tmp_path / "bundle"), tmp_path / "table"
    cpus(1)
    assert main(["evaluate", "--manifest", str(manifest), "--out", str(out)]) == 0
    one_cpu = [Path(f"{out}.json").read_bytes(), Path(f"{out}.csv").read_bytes()]
    pid, fds = os.getpid(), len(os.listdir("/proc/self/fd"))

    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    cpus(n_cpus)
    monkeypatch.setattr(os, "fork", no_fork)
    items = [(i,) for i in range(7)]
    assert list(parallel._each(square, items)) == [square(*item) for item in items]
    assert_no_children(pid)
    assert len(os.listdir("/proc/self/fd")) == fds  # each pipe closed
    assert main(["evaluate", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert [Path(f"{out}.json").read_bytes(), Path(f"{out}.csv").read_bytes()] == one_cpu
    assert_no_children(pid)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    costs=st.lists(st.floats(0.0, 1e6) | st.integers(0, 5), max_size=9),
    failing=st.sets(st.integers(0, 8), max_size=3),
    n_cpus=st.sampled_from([1, 2, 3]),
)
def test_each_dealt_by_cost_keeps_item_order_and_the_first_failure(cpus, costs, failing, n_cpus):
    cpus(n_cpus)
    pid = os.getpid()

    def fn(i):
        if i in failing:
            raise LookupError(f"item {i} failed")
        return square(i)

    items = [(i,) for i in range(len(costs))]
    first = min((i for i in failing if i < len(items)), default=len(items))
    got = []
    results = parallel._each(fn, items, cost=costs)
    if first < len(items):
        with pytest.raises(LookupError, match=f"^item {first} failed$"):
            got.extend(results)
    else:
        got.extend(results)
    assert got == [square(i) for i in range(first)]
    assert_no_children(pid)


@given(costs=st.lists(st.floats(0.0, 1e6), max_size=12), n=st.integers(1, 4))
def test_deal_shares_every_item_once_in_item_order(costs, n):
    shares = parallel._deal(costs, n)
    assert sorted(i for share in shares for i in share) == list(range(len(costs)))
    assert all(share == sorted(share) for share in shares)
    if len(costs) >= n:
        assert all(shares)  # every worker gets an item
    if costs:
        assert costs.index(max(costs)) in shares[0]  # the costliest stays in the caller
    # Equal costs, as _each uses without a cost, are dealt in turn.
    assert parallel._deal([1] * len(costs), n) == [list(range(w, len(costs), n)) for w in range(n)]


def test_each_gives_the_caller_the_costliest_item(cpus):
    # Dealt in turn, item 1 would go to the child; by cost, the caller keeps it.
    cpus(2)
    pid = os.getpid()
    ran = list(parallel._each(lambda i: os.getpid(), [(i,) for i in range(4)], cost=[1, 100, 1, 1]))
    assert ran[1] == pid and pid not in ran[:1] + ran[2:]
    assert list(parallel._each(lambda i: os.getpid(), [(i,) for i in range(4)]))[::2] == [pid, pid]
    assert_no_children(pid)
    assert parallel._deal([0, 0, 0], 3) == [[0], [1], [2]]  # free items still spread out


def scores_text(header, ids):
    return header + "\n" + "".join(f"{i},1.0,0.0,0.0\n" for i in ids)


MALFORMED = "sample_id,e0\n0,abc\n"
BAD_LABELS = "sample_id,label\n0,0\n1,two\n"
# A manifest for the bundle below that names no class_names.
NO_CLASS_NAMES = json.dumps(
    {
        "modalities": [
            {"name": f"m{i}", "scores_path": f"scores_m{i}.csv", "embeddings_path": f"embeddings_m{i}.csv"}
            for i in range(3)
        ],
        "labels_path": "labels.csv",
    }
)

# Each bundle has one or two broken files (new text, or None to delete);
# load_bundle must report the failure that comes first in manifest order,
# named with the file where it happens.
BROKEN = {
    "missing file": ({"scores_m1.csv": None, "embeddings_m2.csv": MALFORMED}, "scores_m1.csv"),
    "malformed embeddings after class columns": (
        {"scores_m1.csv": scores_text("sample_id,x0,x1,x2", range(6)), "embeddings_m1.csv": MALFORMED},
        "scores_m1.csv",
    ),
    "malformed embeddings before a missing file": (
        {"embeddings_m0.csv": MALFORMED, "scores_m2.csv": None},
        "embeddings_m0.csv",
    ),
    "sample ids": (
        {"scores_m2.csv": scores_text("sample_id,c0,c1,c2", "abcdef"), "labels.csv": BAD_LABELS},
        "scores_m2.csv",
    ),
    "bad labels": ({"labels.csv": BAD_LABELS}, "labels.csv"),
    "one class before malformed embeddings": (
        {
            "manifest.json": NO_CLASS_NAMES,
            "scores_m1.csv": "sample_id,a\n" + "".join(f"{i},1.0\n" for i in range(6)),
            "embeddings_m1.csv": MALFORMED,
        },
        "scores_m1.csv",
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_load_bundle_reports_the_first_failure_in_manifest_order(tmp_path, monkeypatch, cpus, case):
    rng = np.random.default_rng(5)
    bundle = make_bundle(
        [simplex_rows(rng, 6, 3) for _ in range(3)],
        labels=[0, 1, 2, 0, 1, 2],
        embeddings=[rng.normal(size=(6, 2)) for _ in range(3)],
    )
    manifest = write_bundle(bundle, tmp_path)
    broken, failing = BROKEN[case]
    for name, text in broken.items():
        if text is None:
            (tmp_path / name).unlink()
        else:
            (tmp_path / name).write_text(text)

    def error(n_cpus):
        cpus(n_cpus)
        with pytest.raises((ValueError, OSError)) as err:
            load_bundle(manifest)
        return type(err.value), str(err.value)

    forked = error(2)
    opened = []

    def recording_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(dataio, "open", recording_open, raising=False)
    assert error(1) == forked
    assert failing in forked[1]
    assert opened[-1] == failing  # on one CPU no file after the failing one is opened


def test_load_bundle_shares_the_files_it_parses_over_the_cpus(tmp_path, monkeypatch, cpus):
    # Dealt in turn, the caller would take all four score files (every other
    # file); dealt by parse cost, each process parses two, and the embedding
    # files, only hashed, cost nothing.
    rng = np.random.default_rng(3)
    bundle = make_bundle(
        [simplex_rows(rng, 50, 3) for _ in range(4)],
        labels=rng.integers(0, 3, 50),
        embeddings=[rng.normal(size=(50, 4)) for _ in range(4)],
    )
    manifest = write_bundle(bundle, tmp_path)
    log = tmp_path / "opens.log"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def recording_open(file, *args, **kwargs):
        os.write(fd, f"{os.getpid()} {Path(file).name}\n".encode())
        return open(file, *args, **kwargs)

    cpus(2)
    monkeypatch.setattr(dataio, "open", recording_open, raising=False)
    try:
        loaded, _ = load_bundle(manifest, embeddings=False)
    finally:
        os.close(fd)
    assert all(rec.embeddings is None for rec in loaded.modalities)
    opened = [line.split() for line in log.read_text().splitlines()]
    assert sorted(Counter(pid for pid, name in opened if name.startswith("scores_")).values()) == [2, 2]
