"""ordtop benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace T]

Run from a source checkout: the benchmark imports ordtop from the
checkout's src/ and exits with code 2 when it is missing.

One run sets up one workload (imports, seeded inputs, warm-up), then
repeats rounds of the workload's fixed list of operations until
--seconds have passed; at least one round always completes.  Every
operation's output is checked after its timer stops; an operation that
raises or whose check fails counts as failed and the run goes on.

--trace 0 reports the end-to-end metrics: wall_s (median round), op_p50_s,
peak_rss_mb and setup_s (median of this process's set-up and of
SETUP_RUNS - 1 set-ups in fresh processes).  op_tail_s and failed_share
are printed with them.  --trace 1 alternates untraced rounds with rounds
traced by tracer.Tracer and reports the per-layer metrics per round,
including the tracing overhead; the spans are written to
.perfbench-out/.  The last line of stdout is the result as JSON.
`--workload all` runs every workload in a fresh process, one at a time.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("build-large", "build-small", "finite-check")
END_TO_END = ("wall_s", "op_p50_s", "peak_rss_mb", "setup_s")
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# per-layer counts reported per round: (metric, unit)
COUNT_METRICS = (
    ("catalog.function_evals", "count"),
    ("catalog.relation_pairs", "count"),
    ("compactify.vertices", "count"),
    ("compactify.related_pairs", "count"),
    ("compactify.domination_candidates", "count"),
    ("compactify.maps_found", "count"),
    ("compactify.extendability_checks", "count"),
    ("preorder.closure_points", "count"),
    ("finite_space.opens_stored", "count"),
    ("finite_space.masks_scanned", "count"),
    ("finite_space.functions_enumerated", "count"),
    ("export.bytes_written", "B"),
)
# spans whose number of calls is reported
CALL_METRICS = ("catalog.sample", "catalog.evaluate", "preorder.closure",
                "preorder.matrix_convert", "preorder.function_preorder")


class Runner:
    """Runs rounds of ops, checks every output and keeps the tallies."""

    def __init__(self, ops, output_error):
        self.ops = ops
        self.output_error = output_error
        self.reference = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.latencies = []
        self.op_kinds = []  # op id -> kind

    def round(self, tracer=None) -> float:
        """Run every op once; return the summed time of the op calls."""
        wall = 0.0
        for i, op in enumerate(self.ops):
            op_id = len(self.op_kinds)
            self.op_kinds.append(op.kind)
            output = error = None
            if tracer is not None:
                tracer.op = op_id
                tracer.active = True
            start = time.perf_counter()
            try:
                output = op.run()
            except Exception:
                error = "raised " + traceback.format_exc(limit=-3)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.active = False
            if error is None:
                error = self._check(i, op, output)
            del output
            self.attempted += 1
            self.latencies.append(elapsed)
            wall += elapsed
            if error is not None:
                self.failed += 1
                self.errors.append(f"{op.kind}: {error}")
        return wall

    def _check(self, i, op, output):
        try:
            fingerprint = op.check(output)
        except self.output_error as exc:
            return str(exc)
        except Exception:
            return "check raised " + traceback.format_exc(limit=-3)
        if self.reference[i] is None:
            self.reference[i] = fingerprint
        elif fingerprint != self.reference[i]:
            return "output differs from the first round's"
        return None


def run_rounds(runner, seconds, tracer=None):
    """Rounds until `seconds` have passed: (untraced walls, traced walls).

    With a tracer, untraced and traced rounds alternate, and the patches
    are installed only for the traced ones.
    """
    untraced, traced = [], []
    begin = time.perf_counter()
    while True:
        gc.collect()
        untraced.append(runner.round())
        if tracer is not None:
            gc.collect()
            tracer.install()
            try:
                traced.append(runner.round(tracer))
            finally:
                tracer.restore()
        if time.perf_counter() - begin >= seconds:
            return untraced, traced


def tail_latency(latencies):
    """(percentile, value) of the highest percentile with >= 10 ops beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)  # nearest rank, 1-based
        if n - rank >= 10:
            return p, ordered[int(rank) - 1]
    return None


def blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                          "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(nproc):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def child_setup_seconds(workload, seed):
    """Set-up time of one fresh process, as that process measures it."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def layer_metrics(tracer, untraced, traced):
    """Per-layer metrics per traced round, plus the trace accounting."""
    rounds = len(traced)
    self_s = tracing.self_times(tracer.spans)
    metrics = {}
    for name in tracing.span_names():
        metrics[f"{name}_s"] = (self_s.get(name, 0.0) / rounds, "s")
    for span in CALL_METRICS:
        metrics[f"{span}_calls"] = (tracer.opened.get(span, 0) / rounds,
                                    "count")
    for name, unit in COUNT_METRICS:
        metrics[name] = (tracer.counts.get(name, 0) / rounds, unit)
    checks = tracer.counts.get("compactify.extendability_checks", 0)
    metrics["compactify.extendable_ratio"] = (
        tracer.counts.get("compactify.extendable", 0) / checks if checks
        else 0.0, "ratio")
    for module in tracing.MODULES:
        metrics[f"{module}.self_s"] = (
            sum(v for k, v in self_s.items() if k.startswith(module + "."))
            / rounds, "s")
    traced_wall = statistics.fmean(traced)
    untraced_wall = statistics.fmean(untraced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.unattributed_s"] = (
        traced_wall - sum(self_s.values()) / rounds, "s")
    return metrics


def per_layer_names():
    """The --trace 1 metric names, in the order they are reported."""
    return list(layer_metrics(tracing.Tracer(), [0.0], [0.0]))


def op_breakdown(tracer, runner, rounds):
    """Lines: each op kind's traced time per round and its largest spans."""
    by_op = tracing.self_times(tracer.spans, by_op=True)
    per_kind = {}
    for (op_id, name), seconds in by_op.items():
        kind = runner.op_kinds[op_id]
        spans = per_kind.setdefault(kind, {})
        spans[name] = spans.get(name, 0.0) + seconds / rounds
    lines = []
    for kind, spans in per_kind.items():
        total = sum(spans.values())
        heavy = sum(v for k, v in spans.items()
                    if k.startswith("export.") or k == "preorder.quotient")
        top = sorted(spans.items(), key=lambda kv: -kv[1])[:6]
        lines.append(f"  {kind}: {total:.4f} s in spans per round; "
                     f"export.* + preorder.quotient {heavy / total:.1%}")
        lines.append("    " + ", ".join(f"{k} {v:.4f}" for k, v in top))
    return lines


def write_spans(tracer, runner, path):
    """JSON lines: a header naming the fields, then one array per span.

    Times are seconds since process start; parent is the index of the
    enclosing span in the file (null at op level), op the op id.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["name", "start", "end", "parent",
                                        "op"],
                             "op_kinds": runner.op_kinds}) + "\n")
        for name, start, end, parent, op in tracer.spans:
            fh.write(json.dumps([name, start - START, end - START, parent,
                                 op]) + "\n")


def run_one(args):
    if not (SRC / "ordtop" / "__init__.py").is_file():
        print(f"error: no ordtop sources under {SRC}; run the benchmark "
              f"from a source checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # one process generates the load; BLAS may use at most nproc threads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(nproc))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import ordtop
    import workloads

    if Path(ordtop.__file__).resolve().parent != SRC / "ordtop":
        print(f"error: imported ordtop from {ordtop.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = workload.operations(workload.inputs(args.seed), str(workdir))
        try:
            workload.warm_up(ops, str(workdir))
        except Exception:
            # the timed rounds count the failing op; warm-up only primes
            traceback.print_exc(file=sys.stderr)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        runner = Runner(ops, workloads.OutputError)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
        untraced, traced = run_rounds(runner, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(untraced)}  ops/round {len(ops)}")
    print("env " + json.dumps(environment(nproc), sort_keys=True))
    digest = workloads.digest(runner.reference)
    print(f"output digest {digest}")
    for error in runner.errors[:5]:
        print(f"FAILED {error}", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(tracer, untraced, traced)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(tracer, runner, spans_path)
        print(f"spans {len(tracer.spans)} written to {spans_path}")
        print("per op kind, traced:")
        for line in op_breakdown(tracer, runner, len(traced)):
            print(line)
    else:
        setups = [setup_s] + [child_setup_seconds(args.workload, args.seed)
                              for _ in range(SETUP_RUNS - 1)]
        wall = statistics.median(untraced)
        metrics = {
            "wall_s": (wall, "s"),
            "op_p50_s": (statistics.median(runner.latencies), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        print(f"throughput {len(ops) / wall:.4f} ops/s "
              f"({len(ops)} ops per round)")
        print("round walls " + " ".join(f"{w:.4f}" for w in untraced) + " s")
        print("set-ups " + " ".join(f"{s:.4f}" for s in setups) + " s")
    for name, (value, unit) in metrics.items():
        print(f"{name:<38} {value:>16.6f} {unit}")
    if not args.trace:
        tail = tail_latency(runner.latencies)
        if tail is None:
            print(f"op_tail_s: undefined, only {len(runner.latencies)} ops")
        else:
            print(f"op_tail_s {tail[1]:.6f} s (p{tail[0]:g}, "
                  f"n={len(runner.latencies)})")
        print(f"failed_share {runner.failed / runner.attempted} "
              f"({runner.failed} of {runner.attempted} ops)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in a fresh process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines \
                or not json.loads(lines[-1])["correct"]:
            status = 1
        print()
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
