import errno
import hashlib
import json
import os
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from modselect import dataio, default_scenario
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
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spath}: ") and "modalities[0].name 'a/../../outside'" in err
    assert not out_dir.exists()  # rejected with the scenario, before the bundle is generated
    written = [p for p in tmp_path.rglob("*") if p.is_file() and p != spath]
    assert not [p for p in written if out_dir not in p.parents]


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("failing", ["scores_good2.csv", "embeddings_good2.csv"])
def test_a_failed_synth_leaves_no_manifest(bundle_dir, tmp_path, monkeypatch, capsys, cpus, failing, n_cpus):
    # On two CPUs the files are dealt in turn: the caller writes every score
    # file of the good modalities, a forked child their embeddings.
    capsys.readouterr()
    caller, write = os.getpid(), dataio.write_matrix_csv

    def full_disk(path, *args):
        if Path(path).name == failing:
            raise OSError(errno.ENOSPC, f"no space in {'the caller' if os.getpid() == caller else 'a forked child'}")
        write(path, *args)

    cpus(n_cpus)
    monkeypatch.setattr(dataio, "write_matrix_csv", full_disk)
    argv = ["--seed", 8, "--samples", 250, "--classes", 5, "--dim", 6, "--out-dir", bundle_dir]
    assert run_cli("synth", *argv) == 1
    where = "a forked child" if n_cpus == 2 and failing.startswith("embeddings") else "the caller"
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] no space in {where}\n"
    assert not (bundle_dir / "manifest.json").exists() and not (bundle_dir / "ground_truth.json").exists()
    assert (bundle_dir / "scores_good1.csv").exists()  # the earlier bundle's data files stay
    assert run_cli("evaluate", "--manifest", bundle_dir / "manifest.json", "--out", tmp_path / "table") == 1
    assert "manifest.json" in capsys.readouterr().err


def _file_digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


@pytest.mark.parametrize("source", ["flag", "scenario file"])
def test_a_negative_seed_is_named_and_leaves_the_bundle_whole(bundle_dir, tmp_path, capsys, source):
    # numpy takes no negative seed; the scenario is refused before the out-dir is touched.
    before = _file_digests(bundle_dir)
    capsys.readouterr()
    if source == "flag":
        argv, message = ["--seed", -1], "--seed must be a non-negative integer, not -1"
    else:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**default_scenario().to_dict(), "seed": -1}))
        argv, message = ["--scenario", path], f"{path}: scenario: 'seed' must be a non-negative integer, not -1"
    assert run_cli("synth", *argv, "--out-dir", bundle_dir) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert _file_digests(bundle_dir) == before


@pytest.mark.parametrize("field, flag, value, what", [
    ("samples", "--samples", 0, "a positive integer"),
    ("samples", "--samples", -5, "a positive integer"),
    ("classes", "--classes", 1, "an integer of at least 2"),
    ("embedding_dim", "--dim", 0, "a positive integer"),
])
@pytest.mark.parametrize("source", ["flag", "scenario file"])
def test_a_bad_synth_count_names_its_flag_or_field(bundle_dir, tmp_path, capsys, source, field, flag, value, what):
    before = _file_digests(bundle_dir)
    capsys.readouterr()
    if source == "flag":
        argv, message = [flag, value], f"{flag} must be {what}, not {value}"
    else:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**default_scenario().to_dict(), field: value}))
        argv, message = ["--scenario", path], f"{path}: scenario: {field!r} must be {what}, not {value}"
    assert run_cli("synth", *argv, "--out-dir", bundle_dir) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert _file_digests(bundle_dir) == before


# Both selection modes, each with a computed and with a given discrepancy threshold.
SELECT_OPTIONS = [[], ["--delta-mmd", "1.0"], ["--mode", "pairs"], ["--mode", "pairs", "--delta-mmd", "1.0"]]


@pytest.mark.parametrize("options", SELECT_OPTIONS, ids=lambda options: " ".join(options) or "default")
def test_an_embeddings_column_whose_sum_overflows_is_named(bundle_dir, tmp_path, capsys, options):
    # Every value is finite, but 250 rows of 1.5e308 sum beyond the float64
    # range: the column has no mean, so no discrepancy can be taken from it.
    path = bundle_dir / "embeddings_good1.csv"
    _, columns, values = dataio.read_matrix_csv(path)
    values[:, 2] = 1.5e308
    dataio.write_matrix_csv(path, values, columns)
    out = tmp_path / "selection.json"
    capsys.readouterr()
    assert run_cli("select", "--manifest", bundle_dir / "manifest.json", "--out", out, *options) == 1
    reason = "column 'e2': the sum of its values overflows, so it has no mean"
    assert capsys.readouterr().err == f"error: {path.resolve()}: {reason}\n"
    assert not out.exists()


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


def test_evaluate_appends_its_suffixes_to_the_out_base(bundle_dir, tmp_path, capsys):
    runs = tmp_path / "runs"
    for version in ("v1", "v2"):
        assert run_cli("evaluate", "--manifest", bundle_dir / "manifest.json", "--out", runs / f"run.{version}") == 0
    assert f"wrote {runs / 'run.v2.json'} and {runs / 'run.v2.csv'}" in capsys.readouterr().out
    assert sorted(p.name for p in runs.iterdir()) == ["run.v1.csv", "run.v1.json", "run.v2.csv", "run.v2.json"]


@pytest.mark.parametrize("command", ["evaluate", "select"])
def test_a_missing_manifest_is_named(tmp_path, capsys, command):
    manifest = tmp_path / "missing.json"
    assert run_cli(command, "--manifest", manifest, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(manifest) in err


def test_evaluate_requires_labels(tmp_path, bundle_dir, capsys):
    manifest = json.loads((bundle_dir / "manifest.json").read_text())
    manifest.pop("labels_path")
    stripped = bundle_dir / "nolabels.json"
    stripped.write_text(json.dumps(manifest))
    assert run_cli("evaluate", "--manifest", stripped, "--out", tmp_path / "t") == 1
    assert "sweep requires ground truth" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "contribution"])
def test_a_bad_strategy_is_named_before_the_manifest_is_read(tmp_path, capsys, command):
    argv = ["--manifest", tmp_path / "missing.json", "--strategies", "sum,bogus", "--out", tmp_path / "out"]
    assert run_cli(command, *argv) == 1
    valid = "sum, sqsum, product, max, median, borda"
    assert capsys.readouterr().err == f"error: unknown strategy 'bogus'; valid: {valid}\n"


def test_a_failed_evaluate_leaves_no_old_table_csv(bundle_dir, tmp_path, monkeypatch, capsys):
    base = tmp_path / "table"
    assert run_cli("evaluate", "--manifest", bundle_dir / "manifest.json", "--out", base) == 0

    def full_disk(path, table):
        raise OSError(errno.ENOSPC, "no space")

    monkeypatch.setattr(dataio, "write_table_csv", full_disk)
    assert run_cli("evaluate", "--manifest", bundle_dir / "manifest.json", "--out", base, "--strategies", "sum") == 1
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] no space\n"
    assert not base.with_suffix(".csv").exists()
    assert json.loads(base.with_suffix(".json").read_text())["config"]["strategies"] == ["sum"]


def test_evaluate_frees_the_loaded_scores_as_the_sweep_copies_them(tmp_path, cpus):
    # On one CPU the load and the sweep run in this process. No name keeps
    # the loaded bundle, so the sweep holds its M class-major copies, n + 1
    # output rows and Borda's uint8 points but not the row-major scores as
    # well: 2M + 5 C x S float64 matrices, where row-major scores held
    # through the sweep would take 3M + 1 and more. A first run leaves out
    # what the first use of each module allocates.
    cpus(1)
    n_samples, n_classes = 2000, 20
    bundle = tmp_path / "bundle"
    argv = ["--seed", 3, "--samples", n_samples, "--classes", n_classes, "--dim", 4, "--out-dir", bundle]
    assert run_cli("synth", *argv) == 0
    evaluate = ["evaluate", "--manifest", bundle / "manifest.json", "--out", tmp_path / "table"]
    assert run_cli(*evaluate) == 0
    tracemalloc.start()
    try:
        assert run_cli(*evaluate) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_modalities = len(default_scenario().modalities)
    assert peak <= (2 * n_modalities + 5) * n_classes * n_samples * 8


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


def test_contribution_on_a_one_modality_table_names_the_modality(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"modalities": ["a"], "entries": [{"combination": ["a"], "averaged": 0.5}]}))
    assert run_cli("contribution", "--table", table, "--out", tmp_path / "c.json") == 1
    assert capsys.readouterr().err == "error: no combinations without 'a': the table has one modality\n"
    assert not (tmp_path / "c.json").exists()


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("accuracy", "high", "scenario: modalities[2]: 'accuracy' must be a finite number, not 'high'"),
        ("kind", None, "scenario: modalities[2] has no 'kind' field"),
    ],
    ids=["mistyped", "missing"],
)
def test_synth_scenario_names_the_modality_of_a_bad_field(tmp_path, capsys, field, value, message):
    scenario = default_scenario().to_dict()
    if value is None:
        del scenario["modalities"][2][field]
    else:
        scenario["modalities"][2][field] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run_cli("synth", "--scenario", path, "--out-dir", tmp_path / "b") == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


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
    cases = {
        # random1 has no embeddings, and uniform scores leave each of its
        # pairs without a correlation, while the other pairs keep theirs:
        # both modes note that it has no partner, not that it is judged on
        # correlation.
        "random1": ["modality 'random1' has no comparable partners"],
        # With uniform scores on shifted1 instead, random1 keeps correlated
        # partners and is judged on correlation alone.
        "shifted1": [
            "modality 'random1' judged on correlation alone (no comparable embeddings)",
            "modality 'shifted1' has no comparable partners",
        ],
    }
    for constant, expected in cases.items():
        bundle = tmp_path / constant
        assert run_cli("synth", "--seed", 7, "--samples", 250, "--classes", 5, "--dim", 6, "--out-dir", bundle) == 0
        path = bundle / f"scores_{constant}.csv"
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header] + [row.split(",")[0] + f",{1 / 5!r}" * 5 for row in rows]) + "\n")
        notes = {}
        for mode in ("aggregated", "pairs"):
            out = tmp_path / f"{constant}-{mode}.json"
            assert run_cli("select", "--manifest", bundle / "manifest.json", "--mode", mode, "--out", out) == 0
            notes[mode] = json.loads(out.read_text())["notes"]
        assert [note.split(":")[0] for note in notes["pairs"]] == expected
        assert notes["pairs"] == notes["aggregated"]


def test_select_interpolated_at_half_lambda_writes_finite_thresholds(tmp_path):
    # Four modalities carry embeddings: an even count, so lambda 0.5 trims
    # everything and the discrepancy threshold is their median.
    bundle = tmp_path / "bundle"
    assert run_cli("synth", "--seed", 3, "--samples", 200, "--classes", 5, "--dim", 4, "--out-dir", bundle) == 0
    out = tmp_path / "sel.json"
    assert run_cli(
        "select", "--manifest", bundle / "manifest.json", "--lambda", 0.5, "--interpolate-percentiles",
        "--out", out,
    ) == 0

    def reject(constant):
        raise ValueError(f"{constant} is no JSON value")

    report = json.loads(out.read_text(), parse_constant=reject)
    discrepancies = [m["discrepancy"] for m in report["modalities"] if m["discrepancy"] is not None]
    assert len(discrepancies) % 2 == 0
    threshold = report["thresholds"]["discrepancy"]["value"]
    assert threshold == pytest.approx(float(np.median(discrepancies)), rel=1e-12)
    assert any(m["discrepancy_pass"] for m in report["modalities"])


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
    nested = tmp_path / "new" / "h.pgm"  # the writer makes a missing directory
    assert run_cli("encode", "heatmap", "--keypoints", kp, "--width", 16, "--height", 12,
                   "--sigma", 2.0, "--out", nested) == 0
    assert nested.read_bytes() == heat.read_bytes()

    skeleton = tmp_path / "sk.json"
    skeleton.write_text("[[0, 1]]")
    limb = tmp_path / "l.pgm"
    assert run_cli("encode", "limbs", "--keypoints", kp, "--width", 16, "--height", 12,
                   "--skeleton", skeleton, "--ascii", "--out", limb) == 0
    assert limb.read_text().startswith("P2\n16 12\n255\n")
    nested = tmp_path / "new2" / "l.pgm"
    assert run_cli("encode", "limbs", "--keypoints", kp, "--width", 16, "--height", 12,
                   "--skeleton", skeleton, "--ascii", "--out", nested) == 0
    assert nested.read_bytes() == limb.read_bytes()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_encode_heatmap_rejects_a_non_finite_sigma(tmp_path, capsys, sigma):
    kp = tmp_path / "kp.csv"
    kp.write_text("x,y,confidence\n4.0,4.0,1.0\n")
    out = tmp_path / "h.pgm"
    assert run_cli("encode", "heatmap", "--keypoints", kp, "--width", 8, "--height", 8,
                   "--sigma", sigma, "--out", out) == 1
    assert capsys.readouterr().err == f"error: sigma must be finite, got {sigma}\n"
    assert not out.exists()


def test_encode_detvec(tmp_path):
    det = tmp_path / "det.csv"
    det.write_text(
        "role,class_index,x_min,y_min,x_max,y_max\n"
        "person,,0,0,2,2\n"
        "object,3,1,1,3,3\n"
    )
    out = tmp_path / "v.csv"
    assert run_cli("encode", "detvec", "--detections", det, "--classes", 6, "--out", out) == 0
    assert out.read_bytes() == b"v0,v1,v2,v3,v4,v5\n0.0,0.0,0.0,1.0,0.0,0.0\n"
    nested = tmp_path / "new" / "v.csv"
    assert run_cli("encode", "detvec", "--detections", det, "--classes", 6, "--out", nested) == 0
    assert nested.read_bytes() == out.read_bytes()

    out_json = tmp_path / "v.json"
    assert run_cli("encode", "detvec", "--detections", det, "--classes", 6,
                   "--format", "json", "--out", out_json) == 0
    assert json.loads(out_json.read_text())["vector"][3] == pytest.approx(1.0)


@pytest.mark.parametrize("classes", [0, -1])
def test_encode_detvec_rejects_a_class_count_below_one(tmp_path, capsys, classes):
    det = tmp_path / "det.csv"
    det.write_text("role,class_index,x_min,y_min,x_max,y_max\nperson,,0,0,2,2\n")
    out = tmp_path / "v.csv"
    assert run_cli("encode", "detvec", "--detections", det, "--classes", classes, "--out", out) == 1
    assert capsys.readouterr().err == f"error: class count must be positive, got {classes}\n"
    assert not out.exists()


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


# The argv of each command that reads a bundle or a stored table, and the
# JSON file it writes; {m} is the manifest, {t} a table evaluate wrote.
READERS = {
    "evaluate": (["evaluate", "--manifest", "{m}", "--out", "{o}"], "{o}.json"),
    "select": (["select", "--manifest", "{m}", "--out", "{o}.json"], "{o}.json"),
    "contribution --manifest": (["contribution", "--manifest", "{m}", "--out", "{o}.json"], "{o}.json"),
    "contribution --table": (["contribution", "--table", "{t}", "--out", "{o}.json"], "{o}.json"),
}


def run_reader(command, manifest, out, table=None):
    """Exit code and written payload (None on failure) of one READERS command."""
    argv, written = READERS[command]
    fill = {"m": manifest, "o": out, "t": table}
    code = run_cli(*(arg.format(**fill) for arg in argv))
    return code, json.loads(Path(written.format(**fill)).read_text()) if code == 0 else None


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def without(payload, name):
    """A payload with one input's digest taken out."""
    return {**payload, "inputs": {k: v for k, v in payload["inputs"].items() if k != name}}


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("command", READERS)
def test_a_command_opens_each_input_once(bundle_dir, tmp_path, monkeypatch, cpus, command, n_cpus):
    table = tmp_path / "table"
    assert run_cli("evaluate", "--manifest", bundle_dir / "manifest.json", "--out", table) == 0
    log = tmp_path / "opens.log"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def recording_open(file, mode="r", *args, **kwargs):
        if "w" not in mode:  # forked children write to the same log
            os.write(fd, f"{Path(file).name}\n".encode())
        return open(file, mode, *args, **kwargs)

    cpus(n_cpus)
    monkeypatch.setattr(dataio, "open", recording_open, raising=False)
    try:
        code, payload = run_reader(command, bundle_dir / "manifest.json", tmp_path / "out", f"{table}.json")
    finally:
        os.close(fd)
    assert code == 0
    opened = Counter(log.read_text().split())
    assert opened == Counter(Path(name).name for name in payload["inputs"])
    assert set(opened.values()) == {1}


def _swap_first_rows(text):
    head, first, second, *rest = text.splitlines(keepends=True)
    return "".join([head, second, first, *rest])


BROKEN_EMBEDDINGS = {
    "malformed": lambda text: "sample_id,e0\n0,abc\n",
    "misaligned": _swap_first_rows,
    "short": lambda text: "".join(text.splitlines(keepends=True)[:-1]),
    "non-finite": lambda text: re.sub(r"^(3,)[^,]*", r"\1nan", text, count=1, flags=re.M),
}


@pytest.mark.parametrize("command", ["evaluate", "contribution --manifest"])
@pytest.mark.parametrize("kind", BROKEN_EMBEDDINGS)
def test_a_sweep_hashes_but_does_not_parse_the_embeddings(bundle_dir, tmp_path, capsys, command, kind):
    manifest = bundle_dir / "manifest.json"
    _, want = run_reader(command, manifest, tmp_path / "intact")
    path = bundle_dir / "embeddings_good1.csv"
    path.write_text(BROKEN_EMBEDDINGS[kind](path.read_text()))
    code, payload = run_reader(command, manifest, tmp_path / "broken")
    assert code == 0
    assert payload["inputs"][path.name] == digest(path) != want["inputs"][path.name]
    assert without(payload, path.name) == without(want, path.name)
    assert run_reader("select", manifest, tmp_path / "selected")[0] == 1  # select parses them
    assert path.name in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "select", "contribution --manifest"])
@pytest.mark.parametrize("unreadable", ["missing", "a directory"])
def test_an_unreadable_embeddings_file_fails_every_bundle_command(bundle_dir, tmp_path, capsys, command, unreadable):
    path = (bundle_dir / "embeddings_good2.csv").resolve()
    path.unlink()
    if unreadable == "a directory":
        path.mkdir()
    assert run_reader(command, bundle_dir / "manifest.json", tmp_path / "out")[0] == 1
    reason = "[Errno 2] No such file or directory" if unreadable == "missing" else "[Errno 21] Is a directory"
    assert capsys.readouterr().err == f"error: {reason}: '{path}'\n"


BROKEN_LABELS = {
    "malformed": ("two", "{path}:4: labels must be integer class indices"),
    "out of range": ("7", "invalid bundle: bundle[row 2]: label 7 outside [0, 5)"),
}


@pytest.mark.parametrize("kind", BROKEN_LABELS)
def test_select_hashes_but_does_not_parse_the_labels(bundle_dir, tmp_path, capsys, kind):
    manifest = bundle_dir / "manifest.json"
    _, want = run_reader("select", manifest, tmp_path / "intact")
    path = bundle_dir / "labels.csv"
    label, message = BROKEN_LABELS[kind]
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = f"{lines[3].split(',')[0]},{label}\n"
    path.write_text("".join(lines))
    code, payload = run_reader("select", manifest, tmp_path / "broken")
    assert code == 0
    assert payload["inputs"][path.name] == digest(path) != want["inputs"][path.name]
    assert without(payload, path.name) == without(want, path.name)
    assert run_reader("evaluate", manifest, tmp_path / "table")[0] == 1  # evaluate parses them
    assert capsys.readouterr().err == f"error: {message.format(path=path.resolve())}\n"


# (file, commands that parse it, error prefix): the manifest and a stored
# table are JSON, the rest CSV.
NOT_UTF8 = [
    ("manifest.json", ["evaluate", "select", "contribution --manifest"], "invalid JSON"),
    ("scores_good1.csv", ["evaluate", "select", "contribution --manifest"], "invalid UTF-8"),
    ("embeddings_good1.csv", ["select"], "invalid UTF-8"),
    ("labels.csv", ["evaluate", "contribution --manifest"], "invalid UTF-8"),
    ("table.json", ["contribution --table"], "invalid JSON"),
]


@pytest.mark.parametrize(
    "name, command, prefix", [(name, c, prefix) for name, commands, prefix in NOT_UTF8 for c in commands]
)
def test_a_parsed_input_that_is_not_utf8_is_named(bundle_dir, tmp_path, capsys, name, command, prefix):
    assert run_cli("evaluate", "--manifest", bundle_dir / "manifest.json", "--out", bundle_dir / "table") == 0
    path = bundle_dir / name
    data = path.read_bytes()
    path.write_bytes(data[:20] + b"\xff" + data[21:])
    manifest, table = bundle_dir / "manifest.json", bundle_dir / "table.json"
    assert run_reader(command, manifest, tmp_path / "out", table)[0] == 1
    shown = path if name.endswith(".json") else path.resolve()  # JSON inputs as given, bundle files resolved
    reason = "'utf-8' codec can't decode byte 0xff in position 20: invalid start byte"
    assert capsys.readouterr().err == f"error: {shown}: {prefix}: {reason}\n"
