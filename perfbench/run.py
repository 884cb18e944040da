"""Command-level benchmark of modselect with a per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload evaluate-wide --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one client: ops run back to back in one
process, and every op calls ``modselect.cli.main(argv)`` with stdout
captured. One untimed warm-up op runs first at the default sweep thread
count; the measured ops run with ``MODSELECT_THREADS=1``, because the
two-thread sweep's timings shift by up to a quarter between processes on a
two-core machine. With ``--trace 0`` the measured ops run in a child process
of their own, so that its peak memory is theirs alone, and the run reports
end-to-end metrics. With ``--trace 1`` every op runs twice, once plain and
once with spans around the program's calls (tracing.py), and the run reports
per-layer metrics. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

An op fails if a command raises or exits non-zero, or if an output file's
sha256 differs from the warm-up op's (so every run also checks that one and
several sweep threads write the same bytes). The outputs of the last op are
checked against independent oracles (oracles.py); if they fail, every op
fails. The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_BUILDS = 5  # build the inputs at least this often
SETUP_SECONDS = 2.0  # and for at least this long, reference passes included


def _import_program():
    """Put ``src/`` first on the path and import the program from there."""
    if not (ROOT / "src" / "modselect" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'modselect'}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


_import_program()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from modselect import cli, dataio  # noqa: E402
from modselect.fusion import ALL_STRATEGIES, sweep  # noqa: E402


LAYER_SHARES = ("cli", "dataio", "core", "fusion", "metrics", "select", "quantify", "synth")
CALL_SHARES = (
    "dataio.read_matrix_csv",
    "dataio.write_matrix_csv",
    "dataio.sha256_file",
    "core.validate_bundle",
    "core.table_build",
    "fusion.sweep",
    "metrics.correlation_matrix",
    "metrics.mmd_matrix",
    "metrics.aggregate",
    "select.decide",
    "quantify.contribution_report",
    "synth.generate",
    *(f"fusion.fuse.{s}" for s in workloads.STRATEGIES),
    "fusion.predict",
    "fusion.mpca",
)
READ_CALLS = ("dataio.read_matrix_csv", "dataio.read_labels_csv", "dataio.load_json", "dataio.load_manifest")
WRITE_CALLS = ("dataio.write_matrix_csv", "dataio.write_labels_csv", "dataio.dump_json", "dataio.write_table_csv")

# Units of every metric the final line can carry. The end-to-end set is what
# --trace 0 reports, the per-layer set what --trace 1 reports; both must
# match BENCHMARK.json (test_smoke.py checks this).
END_TO_END = {"op_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "cold_op_s": "s",
    "cli.self_s": "s",
    "dataio.self_s": "s",
    "core.self_s": "s",
    "dataio.sha256_s": "s",
    "dataio.load_json_s": "s",
    "dataio.report_write_s": "s",
    "dataio.read_mb_per_s": "MB/s",
    "dataio.write_mb_per_s": "MB/s",
    "fusion.parallel_efficiency": "ratio",
    **{f"share.{name}": "%" for name in LAYER_SHARES + CALL_SHARES},
}

# A fixed kernel timed right before and after every measured op and every
# set-up build. Other tenants of a shared machine slow every op by up to a
# half, in phases of seconds to minutes, and slow this kernel alike, so an
# op's wall time over the kernel's next to it repeats far more closely across
# runs than the wall time does; REF_NOMINAL_S puts it back in seconds. Each
# workload's kernel is made of the passes whose slowdown tracked its ops best
# on a shared two-core VM, judged by the quartile spread of op_norm_s over
# ten seeds: numpy fusion alone for evaluate-wide and contribution-wide
# (0.04-0.06 and 0.02-0.05, against 0.09 and 0.07 with text and lookups in
# the mix), and fusion plus floats to text and back for bundle-tall (0.03,
# against 0.15 with fusion alone).
REF_NOMINAL_S = 0.1
_REF_SCORES = list(np.random.default_rng(0).dirichlet(np.ones(20), size=(5, 1000)))
_REF_ROWS = np.concatenate(_REF_SCORES)[:1500].tolist()


def _fusion_pass() -> None:
    for rule in workloads.STRATEGIES:
        oracles._fused(rule, _REF_SCORES)


def _text_pass() -> None:
    lines = [",".join(map(repr, row)) for row in _REF_ROWS]
    [[float(v) for v in line.split(",")] for line in lines]


REFERENCE = {
    "evaluate-wide": (_fusion_pass,) * 5,
    "bundle-tall": (_fusion_pass, _text_pass),
    "contribution-wide": (_fusion_pass,) * 5,
}


def reference_kernel(workload: str) -> float:
    """Wall seconds of one pass of the workload's fixed reference kernel."""
    start = time.perf_counter()
    for part in REFERENCE[workload]:
        part()
    return time.perf_counter() - start


def paced(workload: str, step, done) -> tuple[list[float], list[float]]:
    """Call ``step`` until ``done(calls)``, each call between two passes of the reference kernel.

    ``step`` returns the seconds it counts. Returns those seconds per call,
    and each over the mean time of the kernel passes on either side of it.
    """
    seconds, ratios = [], []
    before = reference_kernel(workload)
    while True:
        took = step()
        after = reference_kernel(workload)
        seconds.append(took)
        ratios.append(took / ((before + after) / 2))
        before = after
        if done(len(seconds)):
            return seconds, ratios


def unit_of(name: str) -> str:
    if name in workloads.COUNTS:
        return "count (computed)"
    if name in END_TO_END or name in PER_LAYER:
        return END_TO_END.get(name) or PER_LAYER[name]
    if name.endswith("rows_per_s"):
        return "rows/s"
    return "s"


@dataclass
class Op:
    times: dict[str, float]
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.times.values())


@contextlib.contextmanager
def sweep_threads(value: str | None):
    """Set MODSELECT_THREADS (None: unset, the program's default) for a block."""
    old = os.environ.pop("MODSELECT_THREADS", None)
    if value is not None:
        os.environ["MODSELECT_THREADS"] = value
    try:
        yield
    finally:
        os.environ.pop("MODSELECT_THREADS", None)
        if old is not None:
            os.environ["MODSELECT_THREADS"] = old


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _digests(out: Path) -> dict[str, str]:
    return {p.relative_to(out).as_posix(): _sha256(p) for p in sorted(out.rglob("*")) if p.is_file()}


def run_op(workload: str, inputs, out: Path, tracer: tracing.Tracer | None = None) -> Op:
    """One op: each command through ``cli.main``, timed one by one, with spans if ``tracer`` is given."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()
    op = Op({})
    for name, argv in workloads.commands(workload, inputs, out):
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = tracing.run_traced(tracer, name, argv) if tracer else cli.main(argv)
        except (Exception, SystemExit) as exc:  # any way out of a command is a failed op
            rc = repr(exc)
        op.times[name] = time.perf_counter() - start
        if rc != 0:
            op.errors.append(f"{name}: exit {rc} {err.getvalue().strip()}")
            break
    op.digests = _digests(out)
    return op


def check_outputs(workload: str, inputs, out: Path, seed: int) -> list[str]:
    ref = inputs.reference
    try:
        if workload == "evaluate-wide":
            return oracles.check_evaluate(ref["bundle"], out, seed)
        if workload == "bundle-tall":
            return oracles.check_synth(ref["bundle"], ref["planted"], out / "bundle") + oracles.check_select(
                ref["bundle"], out
            )
        return oracles.check_contribution(ref["names"], ref["acc"], out)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:  # malformed or missing output
        return [f"output check could not read the outputs: {exc!r}"]


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from its files; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args, scale: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": {args.scale: scale},
        "nproc": len(os.sched_getaffinity(0)),
        "os.cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "commit": git_commit(),
    }


class Run:
    """Counts attempted and failed ops; the warm-up op's outputs are the reference.

    The warm-up op runs with the program's default sweep threads, so every
    later op on one thread must reproduce its digests exactly. The oracles
    check the last op's outputs once measuring is over.
    """

    def __init__(self, workload: str, inputs, out: Path):
        self.workload, self.inputs, self.out = workload, inputs, out
        with sweep_threads(None):
            self.warm = run_op(workload, inputs, out)
        self.reference = self.last = self.warm.digests
        self.problems = list(self.warm.errors)
        self.attempted, self.failed = 1, int(bool(self.problems))

    def op(self, op: Op, label: str) -> Op:
        self.attempted += 1
        self.last = op.digests
        problems = list(op.errors)
        if op.digests != self.reference:
            problems.append(f"{label}: output digests differ from the warm-up op's")
        if problems:
            self.failed += 1
            self.problems += problems
        return op

    def check(self, seed: int) -> None:
        """Run the oracles; outputs that fail them make every op that wrote them a failure."""
        if self.last != self.reference:
            problems = ["the last op's outputs differ from the warm-up op's, so the oracles did not run"]
        else:
            problems = check_outputs(self.workload, self.inputs, self.out, seed)
        if problems:
            self.problems += problems
            self.failed = self.attempted


def measure_ops(spec: dict) -> dict:
    """The measured loop of ``--trace 0``, run in a child process (see ``--child``).

    One untimed warm-up op on one thread, then ops until ``seconds`` have
    passed, each paced by the reference kernel.
    """
    inputs = workloads.Inputs(spec["files"])
    out = Path(spec["out"])
    reference = spec["reference"]
    result = {"attempted": 0, "failed": 0, "problems": [], "last": {}}

    def one(label: str) -> Op:
        op = run_op(spec["workload"], inputs, out)
        problems = op.errors + ([f"{label}: output digests differ from the warm-up op's"] if op.digests != reference else [])
        result["attempted"] += 1
        result["failed"] += int(bool(problems))
        result["problems"] += problems
        result["last"] = op.digests
        return op

    one("warm-up op on 1 thread")
    deadline = time.perf_counter() + spec["seconds"]
    result["times"] = []

    def step() -> float:
        op = one(f"op {len(result['times']) + 1} on 1 thread")
        result["times"].append(op.times)
        return op.wall

    result["walls"], result["ratios"] = paced(spec["workload"], step, lambda _: time.perf_counter() >= deadline)
    return result


def measure_end_to_end(args, scale, work: Path) -> tuple[Run, dict, list]:
    built = []

    def build() -> float:
        start = time.perf_counter()
        built[:] = [workloads.setup(args.workload, args.seed, scale, work)]
        return time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    setups, setup_ratios = paced(
        args.workload, build, lambda n: n >= SETUP_BUILDS and time.perf_counter() - start >= SETUP_SECONDS
    )
    inputs = built[0]
    print(f"setup over {len(setups)} builds: min {min(setups):.4f} s, median {statistics.median(setups):.4f} s")
    out = work / "op"
    run = Run(args.workload, inputs, out)
    print(f"warm-up op (untimed, default threads): {run.warm.wall:.4f} s {run.warm.times}")
    spec_path = work / "ops.json"
    spec = {"workload": args.workload, "files": inputs.files, "out": str(out), "seconds": args.seconds, "reference": run.reference}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(spec_path)],
        env=dict(os.environ, MODSELECT_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=args.seconds + 120,
    )
    if child.returncode != 0:
        raise RuntimeError(f"the measuring process exited {child.returncode}: {child.stderr.strip()[-2000:]}")
    measured = json.loads(child.stdout.strip().splitlines()[-1])
    run.attempted += measured["attempted"]
    run.failed += measured["failed"]
    run.problems += measured["problems"]
    run.last = measured["last"]
    walls = measured["walls"]
    for i, (times, ratio) in enumerate(zip(measured["times"], measured["ratios"]), 1):
        print(f"op {i}: {walls[i - 1]:.4f} s " + " ".join(f"{k}={v:.4f}" for k, v in times.items()) + f", {ratio:.3f} kernel passes")
    print(f"op wall over {len(walls)} ops: min {min(walls):.4f} s, median {statistics.median(walls):.4f} s, max {max(walls):.4f} s")
    metrics = {
        "op_norm_s": statistics.median(measured["ratios"]) * REF_NOMINAL_S,
        "op_wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_ratios) * REF_NOMINAL_S,
        "setup_wall_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    run.check(args.seed)
    return run, metrics, walls


def traced_metrics(tracer: tracing.Tracer, counts: dict) -> dict:
    """Per-layer numbers of one traced op."""
    spans = tracer.spans
    incl = tracing.inclusive(spans)
    self_time = tracing.self_by_layer(spans)
    wall = sum(r[4] - r[3] for r in tracer.roots())
    get = lambda name: incl.get(name, 0.0)  # noqa: E731
    read_s, write_s = tracing.covered(spans, READ_CALLS), tracing.covered(spans, WRITE_CALLS)
    row_read_s = tracing.covered(spans, ("dataio.read_matrix_csv", "dataio.read_labels_csv"))
    m = {
        "trace.wall_s": wall,
        **{f"{layer}.self_s": self_time[layer] for layer in LAYER_SHARES},
        "dataio.read_matrix_csv_s": get("dataio.read_matrix_csv"),
        "dataio.write_matrix_csv_s": get("dataio.write_matrix_csv"),
        "dataio.sha256_s": get("dataio.sha256_file"),
        "dataio.load_json_s": get("dataio.load_json"),
        "dataio.report_write_s": tracing.covered(spans, ("dataio.dump_json", "dataio.write_table_csv")),
        "dataio.read_mb_per_s": counts["dataio.read_bytes"] / 1e6 / read_s if read_s else 0.0,
        "dataio.write_mb_per_s": counts["dataio.write_bytes"] / 1e6 / write_s if write_s else 0.0,
        "dataio.read_rows_per_s": counts["dataio.read_rows"] / row_read_s if row_read_s else 0.0,
        "core.validate_bundle_s": get("core.validate_bundle"),
        "core.table_build_s": get("core.table_build"),
        "fusion.sweep_1thread_s": get("fusion.sweep"),
        **{f"fusion.fuse_s.{s}": get(f"fusion.fuse.{s}") for s in workloads.STRATEGIES},
        "fusion.predict_s": get("fusion.predict"),
        "fusion.mpca_s": get("fusion.mpca"),
        "metrics.correlation_matrix_s": get("metrics.correlation_matrix"),
        "metrics.mmd_matrix_s": get("metrics.mmd_matrix"),
        "metrics.aggregate_s": get("metrics.aggregate"),
        "select.decide_s": get("select.decide"),
        "quantify.contribution_report_s": get("quantify.contribution_report"),
        "synth.generate_s": get("synth.generate"),
    }
    for layer in LAYER_SHARES:
        m[f"share.{layer}"] = 100.0 * self_time[layer] / wall
    for name in CALL_SHARES:
        m[f"share.{name}"] = 100.0 * get(name) / wall
    return m


def measure_per_layer(args, scale, work: Path) -> tuple[Run, dict, tracing.Tracer]:
    inputs = workloads.setup(args.workload, args.seed, scale, work)
    out = work / "op"
    run = Run(args.workload, inputs, out)
    print(f"warm-up op (untimed, default threads): {run.warm.wall:.4f} s {run.warm.times}")
    # Functions of the scale and of the output sizes, which the digests pin.
    counts = workloads.computed_counts(args.workload, inputs, out)
    per_op: list[dict] = []
    tracers = []
    deadline = time.perf_counter() + args.seconds
    with sweep_threads("1"):
        while True:
            plain = run.op(run_op(args.workload, inputs, out), "untraced op, 1 thread")
            tracer = tracing.Tracer()
            traced = run.op(run_op(args.workload, inputs, out, tracer), "traced op, 1 thread")
            m = traced_metrics(tracer, counts)
            m["trace.overhead_s"] = traced.wall - plain.wall
            per_op.append(m)
            tracers.append(tracer)
            print(f"pair {len(per_op)}: untraced {plain.wall:.4f} s, traced {traced.wall:.4f} s")
            if time.perf_counter() >= deadline:
                break
    metrics = {k: statistics.median([m[k] for m in per_op]) for k in per_op[0]}
    metrics.update(counts)
    metrics["cold_op_s"] = run.warm.wall
    for name, seconds in run.warm.times.items():
        metrics[f"{name}.cold_s"] = seconds
    metrics["fusion.parallel_efficiency"] = 0.0
    run.check(args.seed)
    if args.workload == "evaluate-wide":
        default_thread_sweep(inputs, metrics)
    median_op = sorted(range(len(per_op)), key=lambda i: per_op[i]["trace.wall_s"])[len(per_op) // 2]
    return run, metrics, tracers[median_op]


def default_thread_sweep(inputs, metrics: dict) -> None:
    """``sweep`` at the default thread count (median of three) and its parallel efficiency."""
    bundle, _ = dataio.load_bundle(inputs.files["manifest"])
    gc.collect()
    times = []
    with sweep_threads(None):
        for _ in range(3):
            start = time.perf_counter()
            sweep(bundle, ALL_STRATEGIES)
            times.append(time.perf_counter() - start)
    metrics["fusion.sweep_s"] = statistics.median(times)
    threads = os.cpu_count() or 1
    metrics["fusion.parallel_efficiency"] = metrics["fusion.sweep_1thread_s"] / (threads * metrics["fusion.sweep_s"])
    print(
        f"sweep: {metrics['fusion.sweep_s']:.4f} s on {threads} threads, "
        f"{metrics['fusion.sweep_1thread_s']:.4f} s on 1 thread"
    )


def print_trace(tracer: tracing.Tracer) -> None:
    """Self time per layer, and time per call, as shares of each command's traced wall time."""
    for root in tracer.roots():
        spans = tracer.subtree(root)
        wall = root[4] - root[3]
        top = sum(c[4] - c[3] for c in tracer.children(root[0]))
        print(f"traced {root[2]}: base {wall:.4f} s; top-level calls cover {100 * top / wall:.1f}%, the rest is cli glue")
        for layer, seconds in tracing.self_by_layer(spans).items():
            if seconds:
                print(f"  {layer:<9s} self {seconds:9.4f} s  {100 * seconds / wall:6.2f}%")
        for name, seconds in sorted(tracing.inclusive(spans).items(), key=lambda kv: -kv[1]):
            print(f"    {name:<32s} {seconds:9.4f} s  {100 * seconds / wall:6.2f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure for this long (at least one op)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full")
    parser.add_argument("--out", default=str(HERE / "out"), help="work and result directory")
    args = parser.parse_args(argv)

    scale = workloads.SCALES[args.scale][args.workload]
    out_root = Path(os.path.relpath(Path(args.out).resolve()))
    work = out_root / f"{args.workload}-seed{args.seed}"
    info = stamp(args, scale)
    print("stamp: " + json.dumps(info, sort_keys=True))
    shutil.rmtree(work, ignore_errors=True)
    walls = []
    try:
        if args.trace:
            run, measured, tracer = measure_per_layer(args, scale, work)
            print_trace(tracer)
            declared = PER_LAYER
        else:
            run, measured, walls = measure_end_to_end(args, scale, work)
            declared = END_TO_END
        digests = run.reference
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, digest in digests.items():
        print(f"sha256 {digest}  {name}")
    for problem in run.problems[:20]:
        print(f"FAILED: {problem}")
    print(f"error_rate {run.failed / run.attempted:.4f} ({run.failed} of {run.attempted} ops failed)")
    for name in sorted(measured):
        print(f"  {name:<36s} {measured[name]:>16.6f} {unit_of(name)}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in declared.items()},
    }
    record = {
        "stamp": info,
        "result": result,
        "all_metrics": measured,
        "op_walls": walls,
        "sha256": digests,
        "problems": run.problems,
    }
    with open(out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        # The measuring process of --trace 0: read its spec, print its result as one JSON line.
        print(json.dumps(measure_ops(json.loads(Path(sys.argv[2]).read_text(encoding="utf-8")))))
        sys.exit(0)
    sys.exit(main())
