"""The benchmark harness's view of the package.

perfbench/workloads.py and perfbench/tracer.py call ordtop through module
attributes and read fields of its results.  These tests load both files
as they are (nothing under perfbench/ is written) and run one operation
of each build-small and finite-check kind through that operation's own
output check, and the build-large kind (build plus export) on its small
warm-up builds, so a package change that breaks the harness fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")


def _first_of_each_kind(ops, kind_of):
    first = {}
    for op in ops:
        first.setdefault(kind_of(op.kind), op)
    return first


@pytest.fixture(scope="module")
def small_ops(tmp_path_factory):
    inputs = workloads.small_inputs(0)
    ops = workloads.small_operations(inputs,
                                     str(tmp_path_factory.mktemp("small")))
    # "nested <space>", "ordtop dominate <space>", "closure algebra ...": the
    # first word names the kind
    return _first_of_each_kind(ops, lambda kind: kind.split(" ")[0])


def test_each_build_small_kind_passes_its_check(small_ops):
    assert set(small_ops) == {"nested", "ordtop", "no-smallest", "closure",
                              "nachbin"}
    for kind, op in small_ops.items():
        assert op.check(op.run()), kind


def test_each_finite_check_kind_passes_its_check():
    items = workloads.finite_inputs(0)["items"]
    ops = _first_of_each_kind(
        workloads.finite_operations({"items": items}, None), str)
    assert set(ops) == {"check-finite", "check-finite chain"}
    for kind, op in ops.items():
        assert op.check(op.run()), kind


def _traced(op):
    """The tracer after one traced run of op, whose output passes its check."""
    t = tracer.Tracer()
    t.install()
    try:
        t.op, t.active = 0, True
        output = op.run()
    finally:
        t.active = False
        t.restore()
    assert op.check(output)
    return t


def test_mutual_pair_checks_record_no_quotient_span(small_ops):
    # preorder.quotient_s times the quotient alone: is_antisymmetric groups
    # equal rows without calling the traced symmetric_part
    finite = workloads.finite_operations(
        {"items": workloads.finite_inputs(0)["items"][:1]}, None)[0]
    for op, caller in ((finite, "finite_space.quotient"),
                       (small_ops["nachbin"], "compactify.nachbin")):
        spans = _traced(op).spans
        quotients = [span for span in spans if span[0] == "preorder.quotient"]
        assert len(quotients) == 1, op.kind
        assert spans[quotients[0][3]][0] == caller
        assert "preorder.other" in {span[0] for span in spans}


def test_finite_check_op_records_its_stage_spans_only():
    # each stage of a check-finite op is a span of its own, and the
    # preorder calls under them are the public ones it makes: the
    # relation products are private, so a public one would add a
    # preorder.other span under a finite_space stage
    finite = workloads.finite_operations(
        {"items": workloads.finite_inputs(0)["items"][:1]}, None)[0]
    spans = _traced(finite).spans
    edges = {(name, None if parent is None else spans[parent][0])
             for name, _, _, parent, _ in spans}
    stages = ("load", "closed", "t1", "quotient", "enumerate",
              "representation", "smallest_closed")
    assert edges == {(f"finite_space.{stage}", None) for stage in stages} | {
        ("preorder.other", None),  # is_antisymmetric
        ("preorder.other", "finite_space.load"),  # from_pairs
        ("preorder.other", "finite_space.smallest_closed"),
        ("preorder.closure", "finite_space.load"),
        ("preorder.closure", "finite_space.enumerate"),
        ("preorder.closure", "finite_space.smallest_closed"),
        ("preorder.quotient", "finite_space.quotient"),
        ("preorder.function_preorder", "finite_space.representation"),
    }


def test_quotient_space_closes_once_when_a_class_merges():
    # the quotient topology is one closure of the links, taken only when
    # some class merges; with none, the space is its own quotient
    def merges(item):
        space = workloads.FIN.load_space(item["space"])
        classes = workloads.PRE.symmetric_part(space.preorder)
        return len(classes) < space.n

    items = workloads.finite_inputs(0)["items"]
    ops = workloads.finite_operations({"items": items}, None)
    for merged in (True, False):
        op = next(op for op, item in zip(ops, items) if merges(item) == merged)
        spans = _traced(op).spans
        closures = [span for span in spans if span[0] == "preorder.closure"
                    and spans[span[3]][0] == "finite_space.quotient"]
        assert len(closures) == merged, op.kind


def test_traced_op_counts_related_pairs(small_ops):
    t = _traced(small_ops["nested"])
    assert t.counts["compactify.related_pairs"] > 0
    assert "compactify.build" in {span[0] for span in t.spans}


def test_build_large_kind_traces_the_export(tmp_path):
    runs = []
    for traced in (False, True):
        t = tracer.Tracer()
        if traced:
            t.install()
        try:
            t.op, t.active = 0, traced
            for i, (space, family, res) in enumerate(workloads.LARGE_WARM_UP):
                comp, report, paths = workloads.compactify(
                    space, family, res, str(tmp_path / f"{traced}-{i}"))
                runs.append((traced, workloads.build_fingerprints(
                    comp, report, paths)))
        finally:
            t.active = False
            t.restore()
    plain = [fp for traced, fp in runs if not traced]
    assert plain == [fp for traced, fp in runs if traced]
    assert {"export.dot", "export.reduction"} <= {span[0] for span in t.spans}
    # the export quotients each build's relation within its DOT stage
    quotients = [span for span in t.spans if span[0] == "preorder.quotient"]
    assert len(quotients) == len(workloads.LARGE_WARM_UP)
    assert all(t.spans[span[3]][0] == "export.dot" for span in quotients)
    cat = workloads.CAT
    flat = cat.ScalarFunction("flat", lambda a: 0.5 + 0 * a[:, 0],
                              monotone="isotone")
    bump = cat.ScalarFunction("bump", lambda a: a[:, 0], klass="C",
                              tail_value=0.0, tail_level=1)
    quotiented = tracer.Tracer()
    quotiented.install()
    try:
        quotiented.op, quotiented.active = 0, True
        comp, report = workloads.COMP.build_compactification(
            cat.catalog("closed-interval"),
            cat.FunctionFamily((flat,), (bump,)), resolution=16)
        workloads.EXP.write_build(comp, report, str(tmp_path / "classes"))
    finally:
        quotiented.active = False
        quotiented.restore()
    assert {"export.dot", "export.reduction", "preorder.quotient"} \
        <= {span[0] for span in quotiented.spans}
    # each build stage is a span of its own under the build (misner@256 is
    # within the diagnostic's vertex budget)
    parents = {}
    for name, _, _, parent, _ in t.spans:
        parents.setdefault(name, set()).add(
            None if parent is None else t.spans[parent][0])
    for stage in ("catalog.validate", "compactify.close_and_cluster",
                  "compactify.verify", "compactify.diagnostic"):
        assert "compactify.build" in parents.get(stage, ()), stage
