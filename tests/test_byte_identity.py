"""Byte-identity guard: the commands write exactly the pinned bytes.

The digests below pin every file ``synth`` writes for two seeds, and the
files ``evaluate``, ``select`` and ``contribution`` write from them. A
change to how floats, names or rows are written shows up here as a changed
digest. Update a digest only when the file format changes on purpose.
Commands run from inside the temporary directory with relative paths, so
the paths recorded in the JSON reports do not depend on where it lives.
Each test runs twice: on the CPUs the process may use, where bundle files
are written and read, and the sweep's rules are run, in forked processes,
and forced onto one CPU, where nothing is forked. Both runs check the same
digests.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import make_bundle

from modselect.cli import main
from modselect.dataio import write_bundle

EXPECTED = {
    42: {
        "bundle/embeddings_good1.csv": "7745017fb2b3bed1fa814c364a05ca62e2cd3021f42f4faa267ea05b4297a2ad",
        "bundle/embeddings_good2.csv": "8979f0b9a4a0f1e8800d5beb2fd662cb43e6eb536b292a6af18cc89434e0ddde",
        "bundle/embeddings_good3.csv": "48fa75c28dce1f77abf1f247bb5101bf7d3584d467c019a722acb4b9e323ddad",
        "bundle/embeddings_shifted1.csv": "8f2b0e4a30705a49a2d7fced44f01179beb8070dc323150f0718de036f7af623",
        "bundle/ground_truth.json": "0658c637908c5fdd68d3a028dca0dd5e2da6d918933e660688cff231ccaec6d3",
        "bundle/labels.csv": "27f606e1eacb924c7f5db843eb38c9f8d7601d9fc7241d721a2a47ba1b320c3e",
        "bundle/manifest.json": "52ad9fa13c11859f6546392f5c11eb6722f1d8be31b3c017939cfd794d83b1b0",
        "bundle/scores_good1.csv": "de249e8d4450bed9a39a0a8d03478ca5dffb1f2f82ffff7eb3ed01b89e12bb29",
        "bundle/scores_good2.csv": "90875949d09f72fe148fd6cf6051a571143d7fff00b33f2636bb2777cd8d89c6",
        "bundle/scores_good3.csv": "e0a702800ef79ece76ba4178985ee2f59844fc24581fb3fd1b4599b7566fc547",
        "bundle/scores_random1.csv": "94c86e23f79f3e62d4b5042e80f65a3d55f846877b50bc8bc50044292e954bfc",
        "bundle/scores_shifted1.csv": "2ac6b98ee14ded4aa57be965b8af055075914ffc2cd48d7a2889078bbb88ea0f",
        "contrib.csv": "5dd9705d3090e2de33ed255127960501bc0a3e94993f72b95e738811e943faf1",
        "contrib.json": "8a392a8f525c5996c86232e0e121712445999e93ad1406a41fa778776634a19e",
        "selection.json": "4ad405bf4b5f81ccf548e963b54b5ea3f4314398621fb00379639f8ccc18bf4c",
        "table.csv": "0182a4ce1999a5bf9a8e958f78caeda6e64eabcc8ecdcb8a68b7fd9cc62ae5b6",
        "table.json": "36e79c1b7b0c588868d04ec9a6a987bde6f0af5b79278d781ca914071417e17b",
    },
    7: {
        "bundle/embeddings_good1.csv": "f5d390e99813d3a69597fcb791f933c522b88482c30b3f4b3d3f3029b081b80d",
        "bundle/embeddings_good2.csv": "8bb12fe30e8760ec7e631824119b98f47b3c7ceda1ab19e2b38beb0ae36d3e04",
        "bundle/embeddings_good3.csv": "fce8e4afa84f91c261faf42d8e0f4a38d69515a306a3e7b0eafbf45cfe48f22a",
        "bundle/embeddings_shifted1.csv": "cee6612b73339f630754fa3134089ea9274698ecf9a3cb8633e507c36b2c8196",
        "bundle/ground_truth.json": "b511222e9d94f5824a06fbe968ac11f434c47264b3025f0a4a69c6048ee93461",
        "bundle/labels.csv": "74874b5fac07655ad6b526631061668f36598bdcc4bf85cde9b6755d62aa36f1",
        "bundle/manifest.json": "9e3bce0e512ea77edef004d6e8d4bb73477c6c85fdeb54256e9c5f86dbd08ad8",
        "bundle/scores_good1.csv": "e8fa9159a172e5a72ad3971839b2570ba06d60238c9b011124e7204347d3446c",
        "bundle/scores_good2.csv": "7e9df6ba650037dded659e1412a6ef8b1f7deed0e12cfe7ae40ea070ae143cd9",
        "bundle/scores_good3.csv": "fedd8daded4196b566c4c37b6a148fb81f35f183dfabfaf2cd34ec4f88d7ef4f",
        "bundle/scores_random1.csv": "4d527ca433a70114409a6a5de1702be6fa65a399e91d4a8cf489e970668cccbb",
        "bundle/scores_shifted1.csv": "7a68ea2a21f5ea465db729ca3c3493f8b39929991e1906d713c1c8ee2b76e828",
        "contrib.csv": "9a6f12b4fb60cb5838ee5069725aea040803cf520dab3a965478af5eef4ba92b",
        "contrib.json": "73f5c0151dde4994da967a48c52550a83179752957a7f3f4e2293d600cfb4f8e",
        "selection.json": "ef07f9b24ca0756b933b5b6a791e7ca513d761586af37830843987db22a2f0a3",
        "table.csv": "6c61d2a147a470571fdcad1027362c9c103c6322363bd839582fd0df2d0a2c21",
        "table.json": "5528e326666e02fa5893bb544b084e16b241c89abb2f23661979034e60225c07",
    },
}


def digests(seed) -> dict[str, str]:
    argv = [
        ["synth", "--seed", seed, "--samples", 200, "--classes", 5, "--dim", 8, "--out-dir", "bundle"],
        ["evaluate", "--manifest", "bundle/manifest.json", "--out", "table"],
        ["select", "--manifest", "bundle/manifest.json", "--out", "selection.json"],
        ["contribution", "--table", "table.json", "--out", "contrib.json"],
        ["contribution", "--table", "table.json", "--format", "csv", "--out", "contrib.csv"],
    ]
    for args in argv:
        assert main([str(a) for a in args]) == 0
    return {
        str(p.as_posix()): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(".").rglob("*"))
        if p.is_file()
    }


@pytest.fixture(params=["as-is", "one-cpu"])
def cpu_set(request, cpus):
    if request.param == "one-cpu":
        cpus(1)


@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_commands_write_pinned_bytes(tmp_path, monkeypatch, capsys, cpu_set, seed):
    monkeypatch.chdir(tmp_path)
    assert digests(seed) == EXPECTED[seed]


# An 8-modality bundle, so the sweep reaches depth 8: six good modalities,
# one random scorer and one drifted embedder, C=20.
WIDE_SCENARIO = {
    "classes": 20,
    "samples": 300,
    "embedding_dim": 4,
    "seed": 11,
    "modalities": [{"name": f"good{i}", "kind": "good"} for i in range(1, 7)]
    + [
        {"name": "random1", "kind": "random", "embeddings": False},
        {"name": "shifted1", "kind": "shifted", "embedding_offset": 5.0},
    ],
}
WIDE_EXPECTED = {
    "table.csv": "7bce0cb738664a5f0768ef810cd7efd1a7aeea06f74f719b4ee3eb9d44eade1f",
    "table.json": "730a016c2996d71ad5d477c024adc4d7bbaeb4a82e612e7432802c8f0dfedfbf",
}


def test_evaluate_writes_pinned_bytes_on_eight_modalities(tmp_path, monkeypatch, capsys, cpu_set):
    monkeypatch.chdir(tmp_path)
    Path("scenario.json").write_text(json.dumps(WIDE_SCENARIO))
    assert main(["synth", "--scenario", "scenario.json", "--out-dir", "bundle"]) == 0
    assert main(["evaluate", "--manifest", "bundle/manifest.json", "--out", "table"]) == 0
    got = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in WIDE_EXPECTED}
    assert got == WIDE_EXPECTED


def tie_bundle():
    # Five modalities over C=4 whose rows tie: uniform rows (every score
    # 0.25), one-hot rows, two-way halves and a few generic rows, so that
    # sums, products, maxima, medians and Borda points all meet ties.
    rng = np.random.default_rng(5)
    n_samples, n_classes = 48, 4
    labels = rng.integers(0, n_classes, n_samples)
    matrices = []
    for m in range(5):
        rows = np.full((n_samples, n_classes), 0.25)
        kind = (np.arange(n_samples) + m) % 4
        hot = rng.integers(0, n_classes, n_samples)
        rows[kind == 1] = np.eye(n_classes)[hot[kind == 1]]
        rows[kind == 2] = 0.0
        rows[kind == 2, hot[kind == 2]] = 0.5
        rows[kind == 2, (hot[kind == 2] + 1 + m % 3) % n_classes] = 0.5
        rows[kind == 3] = rng.dirichlet(np.ones(n_classes), size=int((kind == 3).sum()))
        matrices.append(rows)
    return make_bundle(matrices, labels=labels, names=[f"tie{m}" for m in range(5)])


TIE_EXPECTED = {
    "table.csv": "69c891d5cbf2f566edd6d3eefba4cf4ea773811e35a116de3579dca897a49959",
    "table.json": "9f03af1ac1c6f50e580504d88d2fa91971f1c6012ca1963e9e05ccf58c4c6b28",
}


def test_evaluate_writes_pinned_bytes_when_scores_tie(tmp_path, monkeypatch, capsys, cpu_set):
    monkeypatch.chdir(tmp_path)
    write_bundle(tie_bundle(), "bundle")
    assert main(["evaluate", "--manifest", "bundle/manifest.json", "--out", "table"]) == 0
    got = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in TIE_EXPECTED}
    assert got == TIE_EXPECTED


# One select run per report setting, each on the seed-42 bundle above.
SELECT_VARIANTS = {
    "pairs.json": ["--mode", "pairs"],
    "and.json": ["--consensus", "and"],
    "self.json": ["--no-exclude-self-pairs"],
    "interp.json": ["--interpolate-percentiles"],
    "override.json": ["--delta-rho", "0.3", "--delta-mmd", "1"],
    "lambda0.json": ["--lambda", "0"],
}
SELECT_EXPECTED = {
    "pairs.json": "86be54dc5e3c7e5410c46383263755b8b11211d82c745153c1ae2e517e253e2b",
    "and.json": "44b246a068533e1dc620331fa5e5ac9361ef19e2ca7d9f7022c34a90694fa6a2",
    "self.json": "32476ec445722376c84d499d52721fc36734ba7ac939fba76dc9d7830352ce4c",
    "interp.json": "bdac2b0e2e2fd3744a69a74dec1d1175f7b89731920e1dc4446096705082b7cf",
    "override.json": "7fa73b995f1075969e1c414e02906b1e021b4e037b3d1d71181ee070a09d2996",
    "lambda0.json": "77eebef6e890076a3416d6ad0a83843f2d1ea07ae50dcfd64cc020f584118dbb",
}


def test_select_variants_write_pinned_bytes(tmp_path, monkeypatch, capsys, cpu_set):
    monkeypatch.chdir(tmp_path)
    synth = ["synth", "--seed", "42", "--samples", "200", "--classes", "5", "--dim", "8", "--out-dir", "bundle"]
    assert main(synth) == 0
    for out, flags in SELECT_VARIANTS.items():
        assert main(["select", "--manifest", "bundle/manifest.json", *flags, "--out", out]) == 0
    got = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in SELECT_EXPECTED}
    assert got == SELECT_EXPECTED
