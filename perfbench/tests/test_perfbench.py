"""Self-tests of the benchmark harness.

Run with `python -m pytest perfbench/tests -q` from the repository root.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ordtop.preorder import PreorderGraph  # noqa: E402


def _small_build_op(tmp_path, space="misner-strip", family="default",
                    resolution=256):
    """A build-large style op on a small build, with its own reference."""
    key = workloads.build_key(space, family, resolution)
    config = workloads.build_config(space, family, resolution)
    outdir = str(tmp_path / key.replace("/", "_"))
    output = workloads.compactify(space, family, resolution, outdir)
    expected = {key: workloads.build_fingerprints(*output)}
    return workloads.Op(
        "compactify", partial(workloads.compactify, space, family,
                              resolution, outdir),
        partial(workloads.check_build, key, config, expected))


def _mixed_ops(tmp_path):
    items = workloads.finite_inputs(3)["items"]
    finite = workloads.finite_operations({"items": items[::10]}, None)
    pair = workloads.small_inputs(3)["pairs"][0]
    nested = workloads.Op("nested", partial(workloads.nested_pair, *pair),
                          workloads.check_nested)
    nachbin = workloads.Op("nachbin", workloads.nachbin,
                           workloads.check_nachbin)
    return [_small_build_op(tmp_path), nested, nachbin] + finite


def test_same_seed_same_inputs_different_seeds_differ():
    for name in ("build-small", "finite-check"):
        make = workloads.WORKLOADS[name].inputs
        assert make(5) == make(5), name
        assert make(5) != make(6), name
    # build-large runs two fixed builds; the seed only orders them
    make = workloads.WORKLOADS["build-large"].inputs
    assert make(5) == make(5)
    orders = {json.dumps(make(seed)) for seed in range(10)}
    assert len(orders) == 2


def test_traced_round_matches_untraced_and_restores_every_attribute(
        tmp_path):
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _, _ in tracer.targets()]
    runner = run.Runner(_mixed_ops(tmp_path), workloads.OutputError)
    runner.round()
    t = tracer.Tracer()
    t.install()
    try:
        assert all(vars(owner)[attr] is not original
                   for owner, attr, original in originals)
        runner.round(t)
    finally:
        t.restore()
    # the runner compares every traced output with the untraced one
    assert runner.failed == 0, runner.errors
    assert all(vars(owner)[attr] is original
               for owner, attr, original in originals)
    names = {span[0] for span in t.spans}
    assert {"compactify.build", "export.dot", "preorder.quotient",
            "finite_space.load", "compactify.dominate",
            "compactify.nachbin"} <= names
    for name, start, end, parent, op in t.spans:
        assert start <= end
        if parent is not None:
            outer = t.spans[parent]
            assert outer[1] <= start and end <= outer[2] and outer[4] == op


def test_corrupted_output_counts_as_failed(tmp_path):
    op = _small_build_op(tmp_path)
    comp, report, paths = op.run()
    # flip one off-diagonal relation bit in a copy of the build
    rows = list(comp.induced.rows)
    rows[0] ^= 1 << 1
    corrupted = dataclasses.replace(
        comp, induced=PreorderGraph(comp.induced.n, tuple(rows)))

    def boom():
        raise RuntimeError("op failed")

    runner = run.Runner([
        workloads.Op("corrupted", lambda: (corrupted, report, paths),
                     op.check),
        workloads.Op("raises", boom, op.check),
        op,
    ], workloads.OutputError)
    runner.round()
    assert (runner.attempted, runner.failed) == (3, 2)
    assert runner.errors[0].startswith("corrupted: ")
    assert "RuntimeError: op failed" in runner.errors[1]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_tail_percentile_keeps_ten_ops_beyond():
    assert run.tail_latency(list(range(1, 101))) == (90.0, 90)
    assert run.tail_latency(list(range(1, 1001))) == (99.0, 990)
    assert run.tail_latency(list(range(19))) is None


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
