import json

import numpy as np
import pytest

from modselect import AccuracyTable, sweep
from modselect.dataio import (
    dump_json,
    load_bundle,
    load_json,
    load_manifest,
    read_detections_csv,
    read_keypoints_csv,
    read_matrix_csv,
    write_bundle,
    write_detections_csv,
    write_keypoints_csv,
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
            assert np.array_equal(original.embeddings.values, reloaded.embeddings.values)
    assert np.array_equal(loaded.labels.values, bundle.labels.values)
    assert str(manifest) in digests
    assert all(len(v) == 64 for v in digests.values())


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


def test_simplex_violation_rejected_on_load(tmp_path, rng):
    scores = simplex_rows(rng, 5, 3).copy()
    scores[3] = [0.5, 0.2, 0.1]
    bad = make_bundle([scores], labels=[0, 1, 2, 0, 1])
    # write_bundle does not validate; loading must reject
    manifest = write_bundle(bad, tmp_path)
    with pytest.raises(ValueError, match="row not on simplex"):
        load_bundle(manifest)


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
