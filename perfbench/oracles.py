"""Independent numpy oracles for each command's output files.

Each check returns a list of problems; an empty list means the output is
correct. The oracles reimplement the definitions (fusion rules, mean-per-class
accuracy, per-class Pearson correlation, winsorized thresholds, with-without
contribution over bitmasks) instead of calling the program's functions, so a
bug in the program cannot hide by being repeated here.
"""

from __future__ import annotations

import json
import math
from functools import reduce
from pathlib import Path

import numpy as np

from workloads import STRATEGIES, combinations

TOL = 1e-12
LAMBDA = 0.2
DEGENERATE_STD = 1e-12


def _close(a, b) -> bool:
    return a is not None and b is not None and abs(a - b) <= TOL


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- evaluate -------------------------------------------------------------

def _borda(scores: np.ndarray) -> np.ndarray:
    """Rank points: one per class scored lower, ties won by the lower class index."""
    c = scores.shape[1]
    other = scores[:, None, :]
    own = scores[:, :, None]
    later = np.arange(c)[None, :] > np.arange(c)[:, None]
    return ((other < own) | ((other == own) & later[None])).sum(axis=2).astype(np.float64)


def _fused(strategy: str, mats: list[np.ndarray]) -> np.ndarray:
    if strategy == "sum":
        return reduce(np.add, mats)
    if strategy == "sqsum":
        return reduce(np.add, [m * m for m in mats])
    if strategy == "product":
        return reduce(np.multiply, mats)
    if strategy == "max":
        return reduce(np.maximum, mats)
    if strategy == "median":
        ordered = np.sort(np.stack(mats), axis=0)
        k = len(mats)
        if k % 2:
            return ordered[k // 2]
        return (ordered[k // 2 - 1] + ordered[k // 2]) / 2
    if strategy == "borda":
        return reduce(np.add, [_borda(m) for m in mats])
    raise ValueError(strategy)


def _mpca(fused: np.ndarray, truth: np.ndarray) -> float:
    best = fused.max(axis=1, keepdims=True)
    pred = np.argmax(fused == best, axis=1)  # first maximum: lowest class index
    per_class = [float(np.mean(pred[truth == c] == c)) for c in np.unique(truth)]
    return sum(per_class) / len(per_class)


def evaluate_checks(names, seed: int) -> list[tuple[str, ...]]:
    """Every singleton and pair, the full set and 16 seeded other combinations."""
    everything = combinations(names)
    fixed = [c for c in everything if len(c) <= 2 or len(c) == len(names)]
    rest = [c for c in everything if c not in fixed]
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(rest), size=min(16, len(rest)), replace=False) if rest else []
    return fixed + [rest[i] for i in sorted(picked)]


def check_evaluate(bundle, out: Path, seed: int) -> list[str]:
    payload = _load(out / "table.json")
    table = payload["table"]
    names = bundle.names
    problems = []
    if table["modalities"] != list(names) or table["strategies"] != list(STRATEGIES):
        return ["evaluate: modalities or strategies differ from the bundle"]
    rows = {tuple(e["combination"]): e for e in table["entries"]}
    if list(rows) != combinations(names):
        problems.append("evaluate: combinations missing or out of order")
    mats = {r.name: r.scores.values for r in bundle.modalities}
    truth = bundle.labels.values
    for combo in evaluate_checks(names, seed):
        row = rows.get(combo)
        if row is None:
            problems.append(f"evaluate: no row for {combo}")
            continue
        want = [_fused(s, [mats[n] for n in combo]) if len(combo) > 1 else mats[combo[0]] for s in STRATEGIES]
        accs = [_mpca(f, truth) for f in want]
        for s, acc in zip(STRATEGIES, accs):
            if not _close(row["strategies"][s], acc):
                problems.append(f"evaluate: {'+'.join(combo)} {s} = {row['strategies'][s]!r}, oracle {acc!r}")
        if not _close(row["averaged"], sum(accs) / len(accs)):
            problems.append(f"evaluate: {'+'.join(combo)} averaged = {row['averaged']!r}")
    csv_lines = (out / "table.csv").read_text(encoding="utf-8").splitlines()
    if len(csv_lines) != len(rows) + 1:
        problems.append("evaluate: table.csv row count differs from table.json")
    return problems


# --- select ---------------------------------------------------------------

def _pair_correlation(a: np.ndarray, b: np.ndarray) -> float | None:
    sa, sb = a.std(axis=0), b.std(axis=0)
    defined = (sa >= DEGENERATE_STD) & (sb >= DEGENERATE_STD)
    if not defined.any():
        return None
    za = (a[:, defined] - a[:, defined].mean(axis=0)) / sa[defined]
    zb = (b[:, defined] - b[:, defined].mean(axis=0)) / sb[defined]
    per_class = np.clip((za * zb).mean(axis=0), -1.0, 1.0)
    return float(per_class.mean())


def _winsorized(values: list[float]) -> float:
    a = np.sort(np.asarray(values, dtype=np.float64))
    cut = math.floor(LAMBDA * a.size)
    clipped = np.clip(a, a[cut], a[a.size - 1 - cut])
    return float(min(max(clipped.mean(), a[0]), a[-1]))


def check_select(bundle, out: Path) -> list[str]:
    """Aggregated mode, default settings: lambda 0.2, "or" consensus, no self-pairs."""
    report = _load(out / "selection.json")
    recs = bundle.modalities
    n = len(recs)
    problems = []
    inter = report["intermediate"]
    corr = inter["pair_correlations"]["values"]
    disc = inter["pair_discrepancies"]["values"]
    rho_pairs = [[_pair_correlation(recs[i].scores.values, recs[j].scores.values) for j in range(n)] for i in range(n)]
    means = [None if r.embeddings is None else r.embeddings.values.mean(axis=0) for r in recs]
    mmd_pairs = [
        [
            None if means[i] is None or means[j] is None or means[i].shape != means[j].shape
            else float(np.sqrt(((means[i] - means[j]) ** 2).sum()))
            for j in range(n)
        ]
        for i in range(n)
    ]
    for i in range(n):
        for j in range(n):
            for label, got, want in (("correlation", corr[i][j], rho_pairs[i][j]), ("discrepancy", disc[i][j], mmd_pairs[i][j])):
                if (got is None) != (want is None) or (want is not None and not _close(got, want)):
                    problems.append(f"select: {label} {recs[i].name}-{recs[j].name} = {got!r}, oracle {want!r}")

    def aggregate(matrix, i):
        vals = [matrix[i][j] for j in range(n) if j != i and matrix[i][j] is not None]
        return sum(vals) / len(vals) if vals else None

    rho = [aggregate(rho_pairs, i) for i in range(n)]
    mmd = [aggregate(mmd_pairs, i) for i in range(n)]
    rho_thr = _winsorized(rho)
    mmd_vals = [v for v in mmd if v is not None]
    mmd_thr = _winsorized(mmd_vals) if mmd_vals else None
    thresholds = report["thresholds"]
    if not _close(thresholds["correlation"]["value"], rho_thr):
        problems.append(f"select: correlation threshold {thresholds['correlation']['value']!r}, oracle {rho_thr!r}")
    if (mmd_thr is None) != (thresholds["discrepancy"]["value"] is None) or (
        mmd_thr is not None and not _close(thresholds["discrepancy"]["value"], mmd_thr)
    ):
        problems.append(f"select: discrepancy threshold {thresholds['discrepancy']['value']!r}, oracle {mmd_thr!r}")

    def passes(value, thr, above):
        if value is None or thr is None:
            return None
        if abs(value - thr) <= TOL:
            return "either"  # too close to call at the tolerance
        return value >= thr if above else value <= thr

    decisions = {d["name"]: d for d in report["modalities"]}
    for i, rec in enumerate(recs):
        d = decisions.get(rec.name)
        if d is None:
            problems.append(f"select: no decision for {rec.name}")
            continue
        if not _close(d["correlation"], rho[i]) or (mmd[i] is None) != (d["discrepancy"] is None) or (
            mmd[i] is not None and not _close(d["discrepancy"], mmd[i])
        ):
            problems.append(f"select: aggregated values of {rec.name} differ from the oracle")
        rp, mp = passes(rho[i], rho_thr, True), passes(mmd[i], mmd_thr, False)
        if "either" in (rp, mp):
            continue
        want = rp if mp is None else (rp or mp)
        if d["selected"] != want:
            problems.append(f"select: {rec.name} selected={d['selected']}, oracle {want}")
    if report["selected"] != [r.name for r in recs if decisions.get(r.name, {}).get("selected")]:
        problems.append("select: 'selected' disagrees with the per-modality decisions")
    return problems


# --- synth ----------------------------------------------------------------

def _read_matrix(path: Path, n_cols: int) -> tuple[list[str], list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = fh.read().splitlines()
    ids = [line.split(",", 1)[0] for line in body]
    values = np.loadtxt(body, delimiter=",", usecols=range(1, n_cols + 1), ndmin=2)
    return header, ids, values


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def check_synth(bundle, planted, bundle_dir: Path) -> list[str]:
    """The written bundle reloads bit-equal to ``generate(scenario)``."""
    problems = []
    manifest = _load(bundle_dir / "manifest.json")
    ids = [str(i) for i in range(bundle.n_samples)]
    if [m["name"] for m in manifest["modalities"]] != list(bundle.names):
        return ["synth: manifest modalities differ from the scenario"]
    for entry, rec in zip(manifest["modalities"], bundle.modalities):
        header, got_ids, scores = _read_matrix(bundle_dir / entry["scores_path"], bundle.n_classes)
        if header != ["sample_id", *bundle.class_names] or got_ids != ids:
            problems.append(f"synth: {entry['scores_path']} header or sample ids differ")
        if not _bit_equal(scores, rec.scores.values):
            problems.append(f"synth: {entry['scores_path']} is not bit-equal to the generated scores")
        if (rec.embeddings is None) != ("embeddings_path" not in entry):
            problems.append(f"synth: embeddings presence of {rec.name} differs")
        elif rec.embeddings is not None:
            _, got_ids, emb = _read_matrix(bundle_dir / entry["embeddings_path"], rec.embeddings.dim)
            if got_ids != ids or not _bit_equal(emb, rec.embeddings.values):
                problems.append(f"synth: {entry['embeddings_path']} is not bit-equal to the generated embeddings")
    labels = np.loadtxt(bundle_dir / manifest["labels_path"], delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    if not np.array_equal(labels[:, 1], bundle.labels.values):
        problems.append("synth: labels differ from the generated labels")
    truth = _load(bundle_dir / "ground_truth.json")
    if truth["planted_good"] != sorted(planted):
        problems.append("synth: planted_good differs from the scenario")
    return problems


# --- contribution -----------------------------------------------------------

def check_contribution(names, acc: np.ndarray, out: Path) -> list[str]:
    """With-without contributions over bitmasks, in percentage points."""
    report = _load(out / "contribution.json")["report"]
    m = len(names)
    masks = np.arange(1, 1 << m)
    views = {s: acc[:, k] for k, s in enumerate(STRATEGIES)}
    views[None] = acc.sum(axis=1) / acc.shape[1]
    problems = []
    positive = set()
    for b, name in enumerate(names):
        bit = 1 << b
        without = masks[(masks & bit) == 0]
        for view, values in views.items():
            f = 100.0 * float(np.mean(values[(without | bit) - 1] - values[without - 1]))
            got = report["contribution_percent"][name] if view is None else report["per_strategy_percent"][view][name]
            if not _close(got, f):
                problems.append(f"contribution: {name} ({view or 'averaged'}) = {got!r}, oracle {f!r}")
            if view is None and f > 0.0:
                positive.add(name)
    if set(report["positive_modalities"]) != positive:
        problems.append(f"contribution: positive set {report['positive_modalities']}, oracle {sorted(positive)}")
    return problems
