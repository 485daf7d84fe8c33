"""Artifact export and random-generator tests."""

import csv
import hashlib
import importlib
import json
import random
import re
from types import SimpleNamespace
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ordtop.cli
from ordtop.catalog import catalog
from ordtop.compactify import build_compactification
from ordtop.export import (
    canonical_json,
    report_payload,
    transitive_reduction,
    write_build,
    write_vertices_csv,
)
from ordtop.finite_space import graph_is_closed
from ordtop.generators import random_finite_space, space_stream
from ordtop.preorder import (
    PreorderGraph,
    is_antisymmetric,
    is_transitive,
    transitive_reflexive_closure,
)

export_module = importlib.import_module("ordtop.export")


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


def test_written_report_is_the_canonical_json(tmp_path):
    # write_build streams the report; its bytes are canonical_json's
    comp, report = small_build()
    cfg = {"space": "half-open-interval", "family": "default"}
    paths = write_build(comp, report, str(tmp_path), cfg)
    with open(paths["report"], "rb") as fh:
        written = fh.read()
    assert written == canonical_json(
        report_payload(comp, report, cfg)).encode("utf-8")


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


def test_transitive_reduction_of_labelled_extensions_matches_networkx(
        unpacks):
    # labels that are a linear extension: the reduction runs on the packed
    # rows as they are and never unpacks them
    rng = random.Random(13)
    for n in list(range(41)) + [63, 64, 65, 130]:
        density = rng.choice((0.05, 0.2, 0.5))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < density]
        g = transitive_reflexive_closure(PreorderGraph.from_pairs(n, pairs))
        g = PreorderGraph(n, g.rows)  # a graph from rows, no words yet
        dag = nx.DiGraph((i, j) for i, j in g.pairs() if i != j)
        dag.add_nodes_from(range(n))
        want = sorted(nx.transitive_reduction(dag).edges())
        assert list(transitive_reduction(g)) == want
        assert not any(p is g.packed for p in unpacks)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n - 1),
                                  st.integers(0, n - 1))))))
def test_transitive_reduction_names_a_witness_off_partial_orders(drawn):
    n, pairs = drawn
    g = PreorderGraph.from_pairs(n, pairs)
    if is_transitive(g) and is_antisymmetric(g)[0]:
        transitive_reduction(g)
        return
    with pytest.raises(ValueError, match="not a partial order") as err:
        transitive_reduction(g)
    i, k, j = map(int, re.search(r"(\d+) < (\d+) < (\d+) but not "
                                 r"\1 < \3$", str(err.value)).groups())
    # i < k < j strictly, and not i < j (i == j on a cycle)
    assert i != k != j and g.leq(i, k) and g.leq(k, j)
    assert i == j or not g.leq(i, j)


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
    # each cell is repr(float(q) * eps_q); vertices from n_core on are
    # remainder
    rng = np.random.default_rng(7)
    quant = rng.integers(0, 1001, size=(40, 3))
    quant[::7, 1] = 10 ** 9
    comp = SimpleNamespace(names=("H:a", "H:b", "C:c"), quant=quant,
                           n_core=37, eps_q=1e-3)
    path = tmp_path / "vertices.csv"
    write_vertices_csv(comp, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["id", "kind", "H:a", "H:b", "C:c"]] + [
        [str(v), "core" if v < 37 else "remainder"]
        + [repr(float(q) * 1e-3) for q in quant[v].tolist()]
        for v in range(40)]
    empty = SimpleNamespace(names=("H:a",), quant=np.zeros((0, 1), np.int64),
                            n_core=0, eps_q=1e-3)
    write_vertices_csv(empty, path)
    assert path.read_bytes() == b"id,kind,H:a\r\n"


@pytest.mark.parametrize("cells", (1, 64))
def test_vertices_csv_in_small_tiles_matches_the_default(tmp_path, cells):
    # a tile of 64 cells holds a few rows, of 1 cell one row; each tile
    # formats its own distinct values
    comp, _ = small_build(64)
    assert 0 < comp.n_core < comp.n_vertices
    write_vertices_csv(comp, tmp_path / "default.csv")
    step = max(1, cells // comp.quant.shape[1])
    with mock.patch.object(export_module, "_TILE_CELLS", cells), \
            mock.patch.object(np, "unique", wraps=np.unique) as unique:
        write_vertices_csv(comp, tmp_path / "tiled.csv")
    assert unique.call_count == -(-comp.n_vertices // step) > 1
    assert (tmp_path / "tiled.csv").read_bytes() \
        == (tmp_path / "default.csv").read_bytes()


# sha256 of vertices.csv, preorder.dot and report.json from
# `ordtop compactify --space S --family F --resolution R`; the families
# avoid exp, so the bytes do not hang on the platform's libm
GOLDEN_BUILDS = {
    ("half-open-interval", "default", 64): (
        "fc8887b08ac40baca281f1020946e713e5ad60eaee057c6e6e90d02e8c9f48c7",
        "779d2a3a4d67e638b4df729cf74c1d0234e3b0c049c625d36877d1590e4a2098",
        "64c8d0b07c74f8eb95775b7bfa4d84739d479567e5976e2b73ebffec0ab7b20e"),
    ("closed-interval", "id,sq,cube", 33): (
        "5d7d0584745435ab11f339baea5b61467249877ef53ec9e88a0dd10af0a0e734",
        "53a68dc531064b658243d741fb762cdefcd841995c72f68d21b064768f9bc248",
        "a2e658586beebb113b135697dcd5760eb3eba1d31c1b3d7685b5a6a299c57718"),
    ("real-line-mirror", "default", 64): (
        "3377f4736a5b1122dc0ccfb9546866a7a437ec8b9abeb719c2e90a61190a52c7",
        "da60cb9d2881a1576de28c36adaee041403d334c97d1be0536ad0acf257dbdfd",
        "cab5f9de073901e52c178cceca2833ce10ac990eb540f369862dc333d111fdcc"),
    ("nat-discrete", "Cplus", 32): (
        "73a9d41ebf0344925bcf34fc5e29beedcd9e85b667d7c94e3dc1c82f21a4e612",
        "372e4570178e4fadf12b4390508a0c8e4c8a5557ba6a4ba2be786d67192a4a6e",
        "d6137bdd188879c4c2b3b38a8ccf54945aed935fdcfb759ad03224f15b217c5c"),
    ("nat-discrete", "C", 32): (
        "784de9582535da348d4addf2eb553b265962cccda57dd0e330e464e7b9063ed4",
        "8d1f67bf70a1900785cf82efb92a43d2f886725c2c83be1151b7e5f65dd17922",
        "6f35453cf9c7af9c358d1e672c83912d68d17489d4703e04234c8b467f9c3ebd"),
    # fails represents_relation: 1,176 of 4,096 pairs, an "induced" witness
    ("half-open-interval", "pow64", 64): (
        "28c97d136de274601690776d61f305f6cbb2e355887b0c2db6bf671a033010e4",
        "fb65658bce5118af288571006679d8baa82824cfe05166c9721675eb327e0bd1",
        "0f1d8fbd858c425dd54ac328771753c42f2f19be125994089bf6693d975c19f6"),
}
# exit code of the builds above that do not exit 0
GOLDEN_EXIT = {("half-open-interval", "pow64", 64): 1}


@pytest.mark.parametrize("space,family,resolution", sorted(GOLDEN_BUILDS))
def test_build_artifacts_are_byte_identical(tmp_path, capsys, space, family,
                                            resolution):
    assert ordtop.cli.main([
        "compactify", "--space", space, "--family", family,
        "--resolution", str(resolution), "--out", str(tmp_path)]) \
        == GOLDEN_EXIT.get((space, family, resolution), 0)
    got = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("vertices.csv", "preorder.dot", "report.json"))
    assert got == GOLDEN_BUILDS[space, family, resolution]
