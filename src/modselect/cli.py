"""Command-line interface: evaluate, contribution, select, synth, encode."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from . import dataio
from .core import AccuracyTable, _tool_block
from .encode import (
    DEFAULT_DETECTION_CLASSES,
    DEFAULT_SKELETON,
    detection_vector,
    heatmap,
    limbs,
    write_pgm,
)
from .fixtures import FIXTURE_DATASETS, load_fixture
from .fusion import ALL_STRATEGIES, parse_strategies, sweep
from .quantify import contribution_report
from .select import CONSENSUS_MODES, SELECTION_MODES, ThresholdConfig, run_modselect
from .synth import Draws, Scenario, default_scenario

# No command calls generate; it is imported only because perfbench's tracer
# patches cli.generate by name (tracing.CALLS).
from .synth import generate  # noqa: F401


def _sweep_manifest(args) -> tuple[AccuracyTable, dict, list[str]]:
    """Load the ``--manifest`` bundle and sweep ``--strategies``: (table, digests, strategy names).

    The sweep scores fused predictions against labels; the embedding files
    are hashed, not parsed.
    """
    bundle, digests = dataio.load_bundle(args.manifest, embeddings=False)
    strategies = parse_strategies(args.strategies)
    return sweep(bundle, strategies), digests, [s.value for s in strategies]


def cmd_evaluate(args) -> int:
    table, digests, strategies = _sweep_manifest(args)
    base = Path(args.out)
    json_path, csv_path = (base.with_name(base.name + suffix) for suffix in (".json", ".csv"))
    payload = {
        "schema": 1,
        "tool": _tool_block(),
        "config": {
            "command": "evaluate",
            "manifest": str(args.manifest),
            "strategies": strategies,
        },
        "inputs": digests,
        "scale": "fraction",
        "table": table.to_dict(),
    }
    dataio.dump_json(payload, json_path)
    dataio.write_table_csv(csv_path, table)
    print(f"strategy-averaged mPCA [%] over {len(table.values)} combinations:")
    for combo, mean in zip(table.combinations(), (100.0 * table.column()).tolist()):
        print(f"  {'+'.join(combo):<30s} {mean:6.2f}")
    print(f"wrote {json_path} and {csv_path}")
    return 0


def _contribution_table(args) -> tuple[AccuracyTable, dict, dict]:
    sources = [s for s in (args.fixture, args.table, args.manifest) if s]
    if len(sources) != 1:
        raise ValueError("give exactly one of --fixture, --table, --manifest")
    if args.fixture:
        return load_fixture(args.fixture), {}, {"source": "fixture", "fixture": args.fixture}
    if args.table:
        table, digest = dataio.read_table(args.table)
        return table, {str(args.table): digest}, {"source": "table", "table": str(args.table)}
    table, digests, strategies = _sweep_manifest(args)
    return table, digests, {"source": "manifest", "manifest": str(args.manifest), "strategies": strategies}


def cmd_contribution(args) -> int:
    table, digests, config = _contribution_table(args)
    report = contribution_report(table)
    config["format"] = args.format
    if args.format == "json":
        payload = {
            "schema": 1,
            "tool": _tool_block(),
            "config": config,
            "inputs": digests,
            "report": report.to_dict(),
        }
        dataio.dump_json(payload, args.out)
    else:
        dataio.write_contribution_csv(args.out, report)
    print("contribution f(m) [percentage points], averaged view:")
    for name in report.modalities:
        marker = "+" if name in report.positive else "-"
        print(f"  {marker} {name:<10s} {report.averaged[name]:+8.3f}")
    print(f"positive set: {{{', '.join(sorted(report.positive))}}}")
    print(f"wrote {args.out}")
    return 0


def cmd_select(args) -> int:
    bundle, digests = dataio.load_bundle(args.manifest, labels=False)  # labels are never consulted
    config = ThresholdConfig(
        lam=args.lam,
        consensus=args.consensus,
        mode=args.mode,
        delta_rho=args.delta_rho,
        delta_mmd=args.delta_mmd,
        exclude_self=args.exclude_self_pairs,
        interpolate=args.interpolate_percentiles,
    )
    report = run_modselect(bundle, config)
    payload = report.to_dict()
    payload["config"]["manifest"] = str(args.manifest)
    payload["inputs"] = digests
    dataio.dump_json(payload, args.out)
    rho = report.rho_threshold
    mmd = report.mmd_threshold
    print(
        f"thresholds: correlation {rho.value if rho.value is None else format(rho.value, '.6g')}"
        f" ({rho.source}), discrepancy "
        f"{mmd.value if mmd.value is None else format(mmd.value, '.6g')} ({mmd.source})"
    )
    if report.config.mode == "aggregated":
        print(f"selected: {{{', '.join(report.selected)}}}")
        for decision in report.excluded:
            print(f"excluded {decision.subject}: {'; '.join(decision.reasons)}")
    else:
        pairs = ", ".join("-".join(p) for p in report.selected)
        print(f"selected pairs: {{{pairs}}}")
    print(f"wrote {args.out}")
    return 0


def cmd_synth(args) -> int:
    if args.scenario:
        payload = dataio.load_json(args.scenario)
        try:
            scenario = Scenario.from_dict(payload)
        except ValueError as err:
            raise ValueError(f"{args.scenario}: {err}") from None
    else:
        if args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, not {args.seed}")
        scenario = default_scenario(
            seed=args.seed,
            samples=args.samples,
            classes=args.classes,
            embedding_dim=args.dim,
        )
    truth_path = Path(args.out_dir) / "ground_truth.json"
    truth_path.unlink(missing_ok=True)  # with the manifest, so a failed write leaves neither
    # Each process writing the bundle draws the scenario's records itself,
    # one at a time, instead of materializing them all with generate.
    manifest_path = dataio.write_bundle(
        Draws(scenario), args.out_dir, dataset=f"synthetic-seed{scenario.seed}"
    )
    planted = sorted(scenario.planted_good)
    sidecar = {
        "schema": 1,
        "tool": _tool_block(),
        "scenario": scenario.to_dict(),
        "planted_good": planted,
    }
    dataio.dump_json(sidecar, truth_path)
    print(f"wrote bundle ({len(scenario.modalities)} modalities, {scenario.samples} samples)")
    print(f"manifest: {manifest_path}")
    print(f"planted good modalities: {{{', '.join(planted)}}}")
    return 0


def _load_skeleton(path) -> tuple[tuple[int, int], ...]:
    if not path:
        return DEFAULT_SKELETON
    edges = dataio.load_json(path)
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(type(j) is int for j in e) for e in edges
    ):
        raise ValueError(f"{path}: skeleton must be a list of [joint, joint] index pairs")
    return tuple((a, b) for a, b in edges)


def cmd_encode(args) -> int:
    if args.encoder == "detvec":
        vector = detection_vector(dataio.read_detections_csv(args.detections), args.classes)
        if args.format == "json":
            dataio.dump_json({"schema": 1, "tool": _tool_block(), "vector": list(vector)}, args.out)
        else:
            dataio.write_vector_csv(args.out, vector)
    else:
        kp = dataio.read_keypoints_csv(args.keypoints)
        if args.encoder == "heatmap":
            image = heatmap(kp, args.width, args.height, sigma=args.sigma, combine=args.combine)
        else:
            image = limbs(kp, args.width, args.height, skeleton=_load_skeleton(args.skeleton))
        write_pgm(image, args.out, binary=not args.ascii)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modselect",
        description=(
            "Evaluate late-fusion modality combinations, quantify per-modality "
            "contributions, and select beneficial modalities without labels."
        ),
    )
    parser.add_argument("--version", action="version", version=f"modselect {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    strategy_help = f"comma-separated strategies (default: {','.join(s.value for s in ALL_STRATEGIES)})"
    all_tokens = ",".join(s.value for s in ALL_STRATEGIES)

    p_eval = sub.add_parser("evaluate", help="sweep all modality combinations against ground truth")
    p_eval.add_argument("--manifest", required=True, help="bundle manifest JSON (labels required)")
    p_eval.add_argument("--out", required=True, help="output base path; writes <out>.json and <out>.csv")
    p_eval.add_argument("--strategies", default=all_tokens, help=strategy_help)
    p_eval.set_defaults(func=cmd_evaluate)

    p_contrib = sub.add_parser("contribution", help="with-without contribution per modality")
    p_contrib.add_argument("--fixture", choices=FIXTURE_DATASETS, help="use the bundled benchmark table")
    p_contrib.add_argument("--table", help="accuracy table JSON written by 'evaluate'")
    p_contrib.add_argument("--manifest", help="bundle manifest; runs the sweep first")
    p_contrib.add_argument("--strategies", default=all_tokens, help=strategy_help)
    p_contrib.add_argument("--out", required=True)
    p_contrib.add_argument("--format", choices=("json", "csv"), default="json")
    p_contrib.set_defaults(func=cmd_contribution)

    p_select = sub.add_parser("select", help="unsupervised modality selection (labels ignored)")
    p_select.add_argument("--manifest", required=True)
    p_select.add_argument("--out", required=True, help="selection report JSON path")
    p_select.add_argument("--lambda", dest="lam", type=float, default=0.2,
                          help="trust parameter for the winsorized-mean thresholds")
    p_select.add_argument("--mode", choices=SELECTION_MODES, default="aggregated")
    p_select.add_argument("--consensus", choices=CONSENSUS_MODES, default="or")
    p_select.add_argument("--delta-rho", type=float, default=None,
                          help="override the computed correlation threshold")
    p_select.add_argument("--delta-mmd", type=float, default=None,
                          help="override the computed discrepancy threshold")
    p_select.add_argument("--exclude-self-pairs", action=argparse.BooleanOptionalAction,
                          default=True, help="omit self-pairs when aggregating (default: on)")
    p_select.add_argument("--interpolate-percentiles", action="store_true",
                          help="use the interpolated-percentile threshold variant")
    p_select.set_defaults(func=cmd_select)

    p_synth = sub.add_parser("synth", help="generate a seeded synthetic bundle with planted truth")
    p_synth.add_argument("--scenario", help="scenario JSON; overrides the flag-based default scenario")
    p_synth.add_argument("--seed", type=int, default=42)
    p_synth.add_argument("--samples", type=int, default=2000)
    p_synth.add_argument("--classes", type=int, default=10)
    p_synth.add_argument("--dim", type=int, default=32)
    p_synth.add_argument("--out-dir", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_encode = sub.add_parser("encode", help="render keypoint/detection encodings")
    enc_sub = p_encode.add_subparsers(dest="encoder", required=True)

    p_heat = enc_sub.add_parser("heatmap", help="confidence-weighted Gaussian joint maps")
    p_heat.add_argument("--keypoints", required=True, help="CSV with header x,y,confidence")
    p_heat.add_argument("--width", type=int, required=True)
    p_heat.add_argument("--height", type=int, required=True)
    p_heat.add_argument("--sigma", type=float, default=6.0)
    p_heat.add_argument("--combine", choices=("max", "sum"), default="max")
    p_heat.add_argument("--ascii", action="store_true", help="write ASCII P2 instead of binary P5")
    p_heat.add_argument("--out", required=True, help="output PGM path")
    p_heat.set_defaults(func=cmd_encode)

    p_limbs = enc_sub.add_parser("limbs", help="confidence-weighted limb rasterization")
    p_limbs.add_argument("--keypoints", required=True)
    p_limbs.add_argument("--width", type=int, required=True)
    p_limbs.add_argument("--height", type=int, required=True)
    p_limbs.add_argument("--skeleton", help="JSON list of joint-index pairs (default: 17-joint body)")
    p_limbs.add_argument("--ascii", action="store_true")
    p_limbs.add_argument("--out", required=True)
    p_limbs.set_defaults(func=cmd_encode)

    p_det = enc_sub.add_parser("detvec", help="normalized reciprocal-distance object vector")
    p_det.add_argument("--detections", required=True,
                       help="CSV with header role,class_index,x_min,y_min,x_max,y_max")
    p_det.add_argument("--classes", type=int, default=DEFAULT_DETECTION_CLASSES)
    p_det.add_argument("--format", choices=("csv", "json"), default="csv")
    p_det.add_argument("--out", required=True)
    p_det.set_defaults(func=cmd_encode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as err:
        message = err.args[0] if isinstance(err, KeyError) and err.args else err  # str(KeyError) quotes
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
