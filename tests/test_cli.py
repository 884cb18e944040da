import json

import numpy as np
import pytest

from modselect.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def bundle_dir(tmp_path):
    out = tmp_path / "bundle"
    assert run_cli(
        "synth", "--seed", 7, "--samples", 250, "--classes", 5, "--dim", 6,
        "--out-dir", out,
    ) == 0
    return out


def test_synth_outputs(bundle_dir):
    manifest = json.loads((bundle_dir / "manifest.json").read_text())
    assert len(manifest["modalities"]) == 5
    truth = json.loads((bundle_dir / "ground_truth.json").read_text())
    assert truth["planted_good"] == ["good1", "good2", "good3"]
    assert (bundle_dir / "labels.csv").exists()


def test_synth_scenario_file(tmp_path):
    scenario = {
        "classes": 4,
        "samples": 50,
        "embedding_dim": 3,
        "seed": 5,
        "modalities": [
            {"name": "g", "kind": "good", "accuracy": 0.8},
            {"name": "r", "kind": "random", "embeddings": False},
        ],
    }
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(scenario))
    assert run_cli("synth", "--scenario", spath, "--out-dir", tmp_path / "b") == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert [m["name"] for m in manifest["modalities"]] == ["g", "r"]


def test_synth_infeasible_target_errors(tmp_path, capsys):
    scenario = {
        "classes": 10,
        "samples": 10,
        "embedding_dim": 2,
        "seed": 1,
        "modalities": [{"name": "g", "kind": "good", "accuracy": 0.05}],
    }
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(scenario))
    assert run_cli("synth", "--scenario", spath, "--out-dir", tmp_path / "b") == 1
    assert "infeasible accuracy target" in capsys.readouterr().err


def test_synth_rejects_a_modality_name_that_leaves_the_out_dir(tmp_path, capsys):
    scenario = {
        "classes": 3,
        "samples": 10,
        "embedding_dim": 2,
        "seed": 1,
        "modalities": [{"name": "a/../../outside", "kind": "good"}, {"name": "b", "kind": "good"}],
    }
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(scenario))
    out_dir = tmp_path / "work" / "out"
    assert run_cli("synth", "--scenario", spath, "--out-dir", out_dir) == 1
    assert "'a/../../outside'" in capsys.readouterr().err
    written = [p for p in tmp_path.rglob("*") if p.is_file() and p != spath]
    assert not [p for p in written if out_dir not in p.parents]


def test_evaluate_writes_table_and_is_deterministic(bundle_dir, tmp_path):
    out1 = tmp_path / "r1" / "table"
    out2 = tmp_path / "r2" / "table"
    assert run_cli("evaluate", "--manifest", bundle_dir / "manifest.json", "--out", out1) == 0
    assert run_cli("evaluate", "--manifest", bundle_dir / "manifest.json", "--out", out2) == 0
    assert out1.with_suffix(".json").read_bytes() == out2.with_suffix(".json").read_bytes()
    assert out1.with_suffix(".csv").read_bytes() == out2.with_suffix(".csv").read_bytes()
    payload = json.loads(out1.with_suffix(".json").read_text())
    assert payload["schema"] == 1
    assert len(payload["table"]["entries"]) == 31
    assert payload["inputs"]  # digests recorded


def test_evaluate_requires_labels(tmp_path, bundle_dir, capsys):
    manifest = json.loads((bundle_dir / "manifest.json").read_text())
    manifest.pop("labels_path")
    stripped = bundle_dir / "nolabels.json"
    stripped.write_text(json.dumps(manifest))
    assert run_cli("evaluate", "--manifest", stripped, "--out", tmp_path / "t") == 1
    assert "sweep requires ground truth" in capsys.readouterr().err


def test_contribution_sources_agree(bundle_dir, tmp_path):
    table_base = tmp_path / "table"
    assert run_cli("evaluate", "--manifest", bundle_dir / "manifest.json", "--out", table_base) == 0
    from_table = tmp_path / "c1.json"
    from_manifest = tmp_path / "c2.json"
    assert run_cli("contribution", "--table", table_base.with_suffix(".json"), "--out", from_table) == 0
    assert run_cli("contribution", "--manifest", bundle_dir / "manifest.json", "--out", from_manifest) == 0
    a = json.loads(from_table.read_text())["report"]
    b = json.loads(from_manifest.read_text())["report"]
    assert a == b
    assert set(a["positive_modalities"]) == {"good1", "good2", "good3"}


def test_contribution_fixture_and_csv(tmp_path):
    out = tmp_path / "contrib.csv"
    assert run_cli("contribution", "--fixture", "toyota", "--format", "csv", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "modality,contribution_percent,positive"
    assert len(lines) == 6
    positives = {l.split(",")[0] for l in lines[1:] if l.endswith("yes")}
    assert positives == {"H", "L", "OF", "YOLO"}


def test_contribution_table_error_names_file_and_field(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"modalities": ["a", "b"]}))
    assert run_cli("contribution", "--table", table, "--out", tmp_path / "c.json") == 1
    assert f"error: {table}: accuracy table has no 'entries' field" in capsys.readouterr().err


def test_contribution_table_must_be_a_json_object(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text("[1, 2]")
    assert run_cli("contribution", "--table", table, "--out", tmp_path / "c.json") == 1
    err = capsys.readouterr().err
    assert f"error: {table}: accuracy table file must hold a JSON object" in err
    assert "Traceback" not in err


def test_contribution_source_exclusivity(tmp_path, capsys):
    assert run_cli("contribution", "--out", tmp_path / "x.json") == 1
    assert "exactly one" in capsys.readouterr().err


def test_select_default_and_overrides(bundle_dir, tmp_path):
    report_path = tmp_path / "sel.json"
    assert run_cli("select", "--manifest", bundle_dir / "manifest.json", "--out", report_path) == 0
    payload = json.loads(report_path.read_text())
    assert payload["selected"] == ["good1", "good2", "good3"]
    assert payload["thresholds"]["correlation"]["source"] == "computed"
    assert payload["config"]["manifest"].endswith("manifest.json")

    override_path = tmp_path / "sel2.json"
    assert run_cli(
        "select", "--manifest", bundle_dir / "manifest.json", "--out", override_path,
        "--delta-rho", 0.99, "--delta-mmd", -1.0, "--consensus", "and",
    ) == 0
    forced = json.loads(override_path.read_text())
    assert forced["thresholds"]["correlation"]["source"] == "override"
    assert forced["selected"] == []  # exit code still 0 above


def test_select_and_consensus_subset_of_or(bundle_dir, tmp_path):
    out_or = tmp_path / "or.json"
    out_and = tmp_path / "and.json"
    run_cli("select", "--manifest", bundle_dir / "manifest.json", "--out", out_or)
    run_cli("select", "--manifest", bundle_dir / "manifest.json", "--consensus", "and", "--out", out_and)
    selected_or = set(json.loads(out_or.read_text())["selected"])
    selected_and = set(json.loads(out_and.read_text())["selected"])
    assert selected_and <= selected_or


def test_select_names_a_constant_score_modality(bundle_dir, tmp_path, capsys):
    # Uniform scores give random1 no defined per-class correlation with any partner.
    path = bundle_dir / "scores_random1.csv"
    header, *rows = path.read_text().splitlines()
    n_classes = len(header.split(",")) - 1
    uniform = f",{1 / n_classes!r}" * n_classes
    path.write_text("\n".join([header] + [row.split(",")[0] + uniform for row in rows]) + "\n")
    out = tmp_path / "sel.json"
    assert run_cli("select", "--manifest", bundle_dir / "manifest.json", "--out", out) == 0
    assert "excluded random1: no valid metrics for this modality" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    decision = {d["name"]: d for d in payload["modalities"]}["random1"]
    assert (decision["basis"], decision["selected"], decision["correlation"]) == ("none", False, None)
    assert "modality 'random1' has no comparable partners" in " ".join(payload["notes"])
    assert payload["selected"] == ["good1", "good2", "good3"]


TABLE = {
    "modalities": ["a", "b"],
    "strategies": ["sum"],
    "entries": [
        {"combination": c, "averaged": v, "strategies": {"sum": v}}
        for c, v in ((["a"], 0.5), (["b"], 0.6), (["a", "b"], 0.7))
    ],
}


def _entry(**change):
    return {**TABLE, "entries": [TABLE["entries"][0] | change, *TABLE["entries"][1:]]}


@pytest.mark.parametrize(
    "table, field",
    [
        ({**TABLE, "modalities": 5}, "modalities"),
        ({**TABLE, "entries": 5}, "entries"),
        (_entry(combination=5), "combination"),
        (_entry(averaged=[1]), "averaged"),
        (_entry(strategies=[1]), "strategies"),
    ],
    ids=["modalities", "entries", "combination", "averaged", "entry-strategies"],
)
def test_contribution_table_names_a_mistyped_field(tmp_path, capsys, table, field):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"table": table}))
    assert run_cli("contribution", "--table", path, "--out", tmp_path / "c.json") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and f"{field!r}" in err


@pytest.mark.parametrize(
    "scenario, field",
    [
        ({"classes": 4, "samples": 5, "embedding_dim": 2, "seed": 1, "modalities": 5}, "modalities"),
        ([1], "modalities"),
        ({"classes": 4, "samples": 5, "embedding_dim": 2, "seed": 1,
          "modalities": [{"name": "g", "kind": "good", "accuracy": 10**400}]}, "accuracy"),
    ],
    ids=["numeric-modalities", "top-level-list", "huge-accuracy"],
)
def test_synth_scenario_names_a_mistyped_field(tmp_path, capsys, scenario, field):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run_cli("synth", "--scenario", path, "--out-dir", tmp_path / "b") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and f"{field!r}" in err


def test_limbs_skeleton_must_be_a_list_of_pairs(tmp_path, capsys):
    kp = tmp_path / "kp.csv"
    kp.write_text("x,y,confidence\n4.0,4.0,1.0\n9.0,4.0,0.5\n")
    skeleton = tmp_path / "sk.json"
    skeleton.write_text("5")
    assert run_cli("encode", "limbs", "--keypoints", kp, "--width", 8, "--height", 8,
                   "--skeleton", skeleton, "--out", tmp_path / "l.pgm") == 1
    want = f"error: {skeleton}: skeleton must be a list of [joint, joint] index pairs\n"
    assert capsys.readouterr().err == want


def test_select_pairs_mode(bundle_dir, tmp_path):
    out = tmp_path / "pairs.json"
    assert run_cli("select", "--manifest", bundle_dir / "manifest.json", "--mode", "pairs", "--out", out) == 0
    payload = json.loads(out.read_text())
    pairs = {tuple(p) for p in payload["selected_pairs"]}
    assert pairs == {("good1", "good2"), ("good1", "good3"), ("good2", "good3")}


def test_select_pairs_mode_reports_when_no_pair_has_a_correlation(tmp_path, capsys):
    # good1 plus a uniform-score random1: their one pair has no defined
    # correlation, so each mode judges it on discrepancy alone or drops it.
    bundle = tmp_path / "bundle"
    assert run_cli("synth", "--seed", 3, "--samples", 40, "--classes", 3, "--out-dir", bundle) == 0
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["modalities"] = [m for m in manifest["modalities"] if m["name"] in ("good1", "random1")]
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    path = bundle / "scores_random1.csv"
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + [row.split(",")[0] + f",{1 / 3!r}" * 3 for row in rows]) + "\n")
    out = tmp_path / "pairs.json"
    assert run_cli("select", "--manifest", bundle / "manifest.json", "--mode", "pairs", "--out", out) == 0
    payload = json.loads(out.read_text())
    (decision,) = payload["pairs"]
    assert (decision["basis"], decision["selected"], decision["correlation"]) == ("none", False, None)
    assert payload["selected_pairs"] == []
    assert payload["thresholds"]["correlation"]["source"] == "unavailable"
    assert [note.split(":")[0] for note in payload["notes"]] == [
        "modality 'good1' has no comparable partners",
        "modality 'random1' has no comparable partners",
    ]


def test_select_pairs_mode_notes_a_modality_without_correlated_partners(tmp_path, capsys):
    # random1 has no embeddings, and uniform scores leave each of its pairs
    # without a correlation, while the other pairs keep theirs: both modes
    # must note that it has no partner, not that it is judged on correlation.
    bundle = tmp_path / "bundle"
    assert run_cli("synth", "--seed", 7, "--samples", 250, "--classes", 5, "--dim", 6, "--out-dir", bundle) == 0
    path = bundle / "scores_random1.csv"
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + [row.split(",")[0] + f",{1 / 5!r}" * 5 for row in rows]) + "\n")
    notes = {}
    for mode in ("aggregated", "pairs"):
        out = tmp_path / f"{mode}.json"
        assert run_cli("select", "--manifest", bundle / "manifest.json", "--mode", mode, "--out", out) == 0
        notes[mode] = json.loads(out.read_text())["notes"]
    assert [note.split(":")[0] for note in notes["pairs"]] == ["modality 'random1' has no comparable partners"]
    assert notes["pairs"] == notes["aggregated"]


def test_select_deterministic(bundle_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("select", "--manifest", bundle_dir / "manifest.json", "--out", a)
    run_cli("select", "--manifest", bundle_dir / "manifest.json", "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_encode_heatmap_and_limbs(tmp_path):
    kp = tmp_path / "kp.csv"
    kp.write_text("x,y,confidence\n4.0,4.0,1.0\n9.0,4.0,0.5\n")
    heat = tmp_path / "h.pgm"
    assert run_cli("encode", "heatmap", "--keypoints", kp, "--width", 16, "--height", 12,
                   "--sigma", 2.0, "--out", heat) == 0
    assert heat.read_bytes().startswith(b"P5\n16 12\n255\n")

    skeleton = tmp_path / "sk.json"
    skeleton.write_text("[[0, 1]]")
    limb = tmp_path / "l.pgm"
    assert run_cli("encode", "limbs", "--keypoints", kp, "--width", 16, "--height", 12,
                   "--skeleton", skeleton, "--ascii", "--out", limb) == 0
    assert limb.read_text().startswith("P2\n16 12\n255\n")


def test_encode_detvec(tmp_path):
    det = tmp_path / "det.csv"
    det.write_text(
        "role,class_index,x_min,y_min,x_max,y_max\n"
        "person,,0,0,2,2\n"
        "object,3,1,1,3,3\n"
    )
    out = tmp_path / "v.csv"
    assert run_cli("encode", "detvec", "--detections", det, "--classes", 6, "--out", out) == 0
    header, row = out.read_text().splitlines()
    assert header.split(",")[3] == "v3"
    values = np.array([float(v) for v in row.split(",")])
    assert values[3] == pytest.approx(1.0)

    out_json = tmp_path / "v.json"
    assert run_cli("encode", "detvec", "--detections", det, "--classes", 6,
                   "--format", "json", "--out", out_json) == 0
    assert json.loads(out_json.read_text())["vector"][3] == pytest.approx(1.0)


def test_encode_deterministic(tmp_path):
    kp = tmp_path / "kp.csv"
    kp.write_text("x,y,confidence\n4.0,4.0,1.0\n")
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    run_cli("encode", "heatmap", "--keypoints", kp, "--width", 8, "--height", 8, "--out", a)
    run_cli("encode", "heatmap", "--keypoints", kp, "--width", 8, "--height", 8, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_synth_deterministic(tmp_path):
    for name in ("one", "two"):
        run_cli("synth", "--seed", 11, "--samples", 40, "--classes", 3, "--dim", 2,
                "--out-dir", tmp_path / name)
    for filename in ("manifest.json", "labels.csv", "scores_good1.csv", "ground_truth.json"):
        assert (tmp_path / "one" / filename).read_bytes() == (tmp_path / "two" / filename).read_bytes()
