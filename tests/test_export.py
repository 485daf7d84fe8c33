"""Artifact export and random-generator tests."""

import csv
import json
import random
from types import SimpleNamespace

import networkx as nx
import pytest

from ordtop.catalog import catalog
from ordtop.compactify import Vertex, build_compactification
from ordtop.export import (
    canonical_json,
    report_payload,
    transitive_reduction,
    write_build,
    write_vertices_csv,
)
from ordtop.finite_space import graph_is_closed
from ordtop.generators import random_finite_space, space_stream
from ordtop.preorder import PreorderGraph, transitive_reflexive_closure


def small_build(resolution=128):
    entry = catalog("half-open-interval")
    fam = entry.family("default", resolution)
    comp, report = build_compactification(entry, fam, resolution=resolution)
    return comp, report


def test_build_directory_contents(tmp_path):
    comp, report = small_build()
    cfg = {"space": "half-open-interval", "family": "default",
           "resolution": 128, "tail_depth": 4, "eps_q": 1e-3,
           "eps_cauchy": 0.01}
    paths = write_build(comp, report, str(tmp_path), cfg)

    with open(paths["vertices"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "kind", "H:id", "C:const1"]
    assert len(rows) == comp.n_vertices + 1
    kinds = {r[1] for r in rows[1:]}
    assert kinds == {"core", "remainder"}

    with open(paths["dot"]) as fh:
        dot = fh.read()
    assert dot.startswith("digraph")
    assert "doublecircle" in dot  # remainder marking

    payload = json.loads(open(paths["report"]).read())
    assert payload["space"] == "half-open-interval"
    assert payload["complete"] is True
    assert payload["counts"]["remainder"] == 1
    assert len(payload["relation_rows_hex"]) == comp.n_vertices


def test_relation_rows_roundtrip(tmp_path):
    comp, report = small_build()
    payload = report_payload(comp, report)
    rows = tuple(int(h, 16) for h in payload["relation_rows_hex"])
    assert rows == comp.induced.rows


def test_canonical_json_is_stable():
    comp1, rep1 = small_build()
    comp2, rep2 = small_build()
    assert canonical_json(report_payload(comp1, rep1)) == \
        canonical_json(report_payload(comp2, rep2))


def test_transitive_reduction_on_random_orders():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 9)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.4]
        g = transitive_reflexive_closure(PreorderGraph.from_pairs(n, pairs))
        edges = transitive_reduction(g)
        # closure of the reduction recovers the order
        back = transitive_reflexive_closure(PreorderGraph.from_pairs(n, edges))
        assert back.rows == g.rows
        # and every edge is covering: nothing strictly between
        for i, j in edges:
            for k in range(n):
                if k not in (i, j) and g.leq(i, k) and g.leq(k, j):
                    pytest.fail(f"{(i, j)} not covering, {k} between")


def test_transitive_reduction_matches_networkx():
    rng = random.Random(12)
    for n in range(41):
        labels = list(range(n))
        rng.shuffle(labels)  # so that the labels are not a linear extension
        density = rng.choice((0.05, 0.2, 0.5))
        pairs = [(labels[a], labels[b]) for a in range(n)
                 for b in range(a + 1, n) if rng.random() < density]
        g = transitive_reflexive_closure(PreorderGraph.from_pairs(n, pairs))
        dag = nx.DiGraph((i, j) for i, j in g.pairs() if i != j)
        dag.add_nodes_from(range(n))
        want = sorted(nx.transitive_reduction(dag).edges())
        assert list(transitive_reduction(g)) == want


def test_transitive_reduction_rejects_a_two_cycle():
    g = PreorderGraph.from_pairs(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="0 < 1 < 0 but not 0 < 0"):
        transitive_reduction(g)


def test_transitive_reduction_rejects_a_non_transitive_chain():
    g = PreorderGraph.from_pairs(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="0 < 1 < 2 but not 0 < 2"):
        transitive_reduction(g)


def test_dot_condenses_cycles(tmp_path):
    # two equivalent vertices must land in one node
    comp, report = small_build()
    from ordtop.export import write_preorder_dot
    path = tmp_path / "g.dot"
    write_preorder_dot(comp, str(path))
    text = path.read_text()
    assert text.count("->") < comp.n_vertices  # chain reduces to n-1 edges


def test_space_stream_is_reproducible_and_varied():
    a = [sp.preorder.rows for sp in space_stream(5, 60)]
    b = [sp.preorder.rows for sp in space_stream(5, 60)]
    assert a == b
    closed = sum(graph_is_closed(sp).passed for sp in space_stream(5, 60))
    assert 10 < closed < 60  # both branches of the implication get exercised


def test_random_space_styles():
    rng = random.Random(1)
    sp = random_finite_space(rng, 4, "closed")
    assert graph_is_closed(sp).passed
    with pytest.raises(ValueError):
        random_finite_space(rng, 3, "nope")


def test_vertices_csv_formats_each_value_with_repr(tmp_path):
    # equal values share one formatted string; -0.0 keeps its own
    values = [0.0, -0.0, 0.1, 1e-06, 0.30000000000000004, 1.0, 123456.789]
    rng = random.Random(7)
    vertices = tuple(
        Vertex(i, "core", tuple(rng.choice(values) for _ in range(3)))
        for i in range(40))
    comp = SimpleNamespace(names=("H:a", "H:b", "C:c"), vertices=vertices)
    path = tmp_path / "vertices.csv"
    write_vertices_csv(comp, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["id", "kind", "H:a", "H:b", "C:c"]] + [
        [str(v.id), v.kind] + [repr(c) for c in v.coords] for v in vertices]
    assert any("-0.0" in row for row in rows)
    write_vertices_csv(SimpleNamespace(names=("H:a",), vertices=()), path)
    assert path.read_bytes() == b"id,kind,H:a\r\n"
