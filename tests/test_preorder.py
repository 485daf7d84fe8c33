import ast
import pathlib
import random
import re
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bools
import ordtop.preorder
from ordtop.preorder import (
    PreorderGraph,
    _hex_rows,
    function_preorder,
    is_antisymmetric,
    is_transitive,
    quotient_preorder,
    symmetric_part,
    transitive_reflexive_closure,
)


@pytest.mark.parametrize("words", (0, 1, 2, 9))
def test_hex_rows_formats_each_row_as_its_int(words):
    # zero rows (as "0"), rows of one low bit and of leading zero words
    rng = np.random.default_rng(words)
    packed = rng.integers(0, 2 ** 64, (40, words), dtype=np.uint64)
    packed[::3] = 0
    packed[1::5, 1:] = 0
    packed[2::7] &= np.uint64(1)
    want = [format(int.from_bytes(row.tobytes(), "little"), "x")
            for row in packed]
    assert _hex_rows(packed.astype("<u8")) == want


def naive_closure(n, pairs):
    """Reference closure: add pairs until nothing changes."""
    rel = {(i, i) for i in range(n)} | set(pairs)
    while True:
        extra = {
            (a, d)
            for a, b in rel
            for c, d in rel
            if b == c and (a, d) not in rel
        }
        if not extra:
            return rel
        rel |= extra


def random_graph(rng, n, density):
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < density
    ]
    return PreorderGraph.from_pairs(n, pairs), pairs


def test_constructor_validation():
    with pytest.raises(ValueError):
        PreorderGraph(2, (1,))  # wrong row count
    with pytest.raises(ValueError):
        PreorderGraph(2, (1, 1))  # point 1 not reflexive
    with pytest.raises(ValueError):
        PreorderGraph(2, (5, 2))  # bit 2 out of range
    g = PreorderGraph.diagonal(3)
    assert g.leq(1, 1) and not g.leq(0, 1)


def test_from_pairs_and_pairs_roundtrip():
    g = PreorderGraph.from_pairs(4, [(0, 1), (2, 3)])
    got = list(g.pairs())
    assert got == [(0, 0), (0, 1), (1, 1), (2, 2), (2, 3), (3, 3)]
    assert g.pair_count() == 6


def test_matrix_roundtrip_small_and_large():
    rng = random.Random(7)
    for n in (0, 1, 5, 9, 64, 129):
        rows = []
        for i in range(n):
            row = 1 << i
            for j in range(n):
                if rng.random() < 0.2:
                    row |= 1 << j
            rows.append(row)
        g = PreorderGraph(n, tuple(rows))
        mat = bools(g)
        assert mat.shape == (n, n)
        assert PreorderGraph.from_matrix(mat).rows == g.rows


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((0, 1, 63, 64, 65, 130)), st.integers(0, 2**32 - 1),
       st.sampled_from((0.0, 0.05, 0.5, 1.0)))
def test_the_three_forms_agree(n, seed, density):
    # a graph made from rows, from packed words or from a matrix gives
    # the same rows, words, unpacked bools, pair count and hex rows
    rng = np.random.default_rng(seed)
    mat = (rng.random((n, n)) < density) | np.eye(n, dtype=bool)
    rows = tuple(sum(1 << int(j) for j in np.flatnonzero(r)) for r in mat)
    graphs = (PreorderGraph(n, rows),
              PreorderGraph.from_packed(
                  PreorderGraph(n, rows).packed.copy()),
              PreorderGraph.from_matrix(mat.copy()))
    assert "rows" not in vars(graphs[1]) and "rows" not in vars(graphs[2])
    hexes = [format(r, "x") for r in rows]
    for g in graphs:
        assert g.n == n and g.pair_count() == int(mat.sum())
        assert _hex_rows(g.packed) == hexes
        assert g.packed.shape == (n, -(-n // 64)) and \
            g.packed.dtype == np.dtype("<u8")
        assert np.array_equal(g.packed, graphs[0].packed)
        assert np.array_equal(bools(g), mat)
        assert g.rows == rows and g == graphs[0]


def test_from_packed_checks_the_words():
    for n in (1, 63, 64, 65, 130):
        words = PreorderGraph.diagonal(n).packed
        for i in {0, n // 2, n - 1}:
            bad = words.copy()
            bad[i, i >> 6] ^= np.uint64(1 << (i & 63))
            with pytest.raises(ValueError, match=f"not reflexive at {i}"):
                PreorderGraph.from_packed(bad)
        if n % 64:  # a bit past column n - 1 in the last word
            bad = words.copy()
            bad[n - 1, -1] |= np.uint64(1 << 63)
            with pytest.raises(ValueError, match="bits outside"):
                PreorderGraph.from_packed(bad)
        with pytest.raises(ValueError, match="words"):
            PreorderGraph.from_packed(np.zeros((n, words.shape[1] + 1),
                                               dtype="<u8"))


@st.composite
def _graph_and_ids(draw):
    """A reflexive graph of up to 200 points, made from packed words, and
    a list of its ids: empty, a permutation, or drawn with repeats."""
    n = draw(st.sampled_from((0, 1, 63, 64, 65, 129)) | st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = (rng.random((n, n)) < rng.random()) | np.eye(n, dtype=bool)
    graph = PreorderGraph.from_packed(PreorderGraph.from_matrix(mat).packed
                                      .copy())
    if not n:
        return graph, []
    return graph, draw(st.just([]) | st.permutations(range(n))
                       | st.lists(st.integers(0, n - 1), max_size=2 * n))


@settings(max_examples=150, deadline=None)
@given(_graph_and_ids(), st.sampled_from((1, 100, 1 << 20)))
def test_restrict_matches_the_matrix_oracle(drawn, cells):
    # a small tile runs many row tiles, one row each at cells=1
    graph, idx = drawn
    with mock.patch.object(ordtop.preorder, "_TILE_CELLS", cells), \
            mock.patch.object(ordtop.preorder, "_unpack_rows",
                              wraps=ordtop.preorder._unpack_rows) as unpack:
        got = graph.restrict(idx)
    # the gathered row tiles are unpacked, never the whole relation
    assert not any(c.args[0] is graph.packed
                   for c in unpack.call_args_list)
    assert got.n == len(idx)
    assert got.packed.shape == (len(idx), -(-len(idx) // 64))
    ids = np.asarray(idx, dtype=int)
    assert np.array_equal(bools(got), bools(graph)[np.ix_(ids, ids)])


@pytest.mark.parametrize("n", (9, 64, 130))
def test_restrict_matches_the_matrix_oracle_on_runs(n):
    # runs from 0 keep the leading words; the others are packed
    rng = np.random.default_rng(n)
    mat = (rng.random((n, n)) < 0.4) | np.eye(n, dtype=bool)
    graph = PreorderGraph.from_packed(PreorderGraph.from_matrix(mat).packed
                                      .copy())
    for idx in (np.arange(n), np.arange(n - 1), np.arange(1), np.arange(3, n),
                np.arange(n - 1, -1, -1), np.array([0, 1, 1, 2]),
                np.array([0, 2, 1, n - 1])[:min(n, 4)], np.arange(0),
                np.sort(rng.integers(0, n, n))):
        got = graph.restrict(idx)
        assert got.packed.shape == (len(idx), -(-len(idx) // 64))
        assert np.array_equal(bools(got), mat[np.ix_(idx, idx)])


def test_only_preorder_converts_between_the_forms():
    # bytes, ints, bit-packed arrays, byte keys and hex text of relation
    # rows, and rows read back from their keys, are made from one another
    # in preorder.py alone; no other module reads a .matrix, masks the
    # bits past a last word's columns or finds a bit in its word
    conversion = re.compile(r"packbits|unpackbits|from_bytes|to_bytes"
                            r"|frombuffer|tobytes"
                            r"|np\.void|\.hex\(|format\([^)]*[\"']x[\"']\)"
                            r"|\.matrix\b"
                            r"|np\.uint64\(\(1 << [^)]*% 64\) - 1\)"
                            r"|& 63\b|>> 6\b")
    assert _lines_outside_preorder(conversion) == []


def test_only_preorder_multiplies_or_transposes_relations():
    # the exact tier's products are preorder._product and its transposes
    # preorder._converse: no other module runs the packed kernel or builds
    # a relation's columns one point at a time
    kernel = re.compile(r"_bool_product|down_set\(1 <<")
    assert _lines_outside_preorder(kernel) == []


def _lines_outside_preorder(pattern):
    """Each line of the package's modules but preorder.py that pattern
    matches, as "module.py:line: text"."""
    found = []
    for path in sorted(pathlib.Path(ordtop.preorder.__file__).parent
                       .glob("*.py")):
        if path.name == "preorder.py":
            continue
        for k, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                found.append(f"{path.name}:{k}: {line.strip()}")
    return found


def test_no_module_checks_an_invariant_with_assert():
    # python -O strips assert statements, so an invariant of the package
    # raises an error instead
    found = []
    for path in sorted(pathlib.Path(ordtop.preorder.__file__).parent
                       .glob("*.py")):
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(
            ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Assert)]
    assert found == []


def _is_float_product(node):
    """A matmul (@, np.matmul, np.dot) or a float32 name or string."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in ("matmul", "dot")
    return (isinstance(node, ast.Attribute) and node.attr == "float32"
            or isinstance(node, ast.Name) and node.id == "float32"
            or isinstance(node, ast.Constant) and node.value == "float32")


def test_no_module_multiplies_relations_as_floats():
    # relations are int rows or packed words, preorder.py included: no
    # module of the package runs a matmul or makes a float32 array
    found = []
    for path in sorted(pathlib.Path(ordtop.preorder.__file__).parent
                       .glob("*.py")):
        found += sorted({f"{path.name}:{node.lineno}" for node in ast.walk(
            ast.parse(path.read_text(), str(path)))
            if _is_float_product(node)})
    assert found == []


def test_closure_matches_naive_fixpoint():
    rng = random.Random(0)
    for trial in range(120):
        n = rng.randrange(1, 9)
        g, pairs = random_graph(rng, n, rng.choice([0.1, 0.3, 0.6]))
        closed = transitive_reflexive_closure(g)
        want = naive_closure(n, pairs)
        assert set(closed.pairs()) == want
        assert is_transitive(closed)
        # closing twice changes nothing
        assert transitive_reflexive_closure(closed).rows == closed.rows


def test_closure_numpy_path_agrees_with_warshall():
    rng = random.Random(1)
    n = 140  # above the cutover: the packed words are squared
    g, pairs = random_graph(rng, n, 0.01)
    closed = transitive_reflexive_closure(g)
    # compare against networkx reachability
    dg = nx.DiGraph(pairs)
    dg.add_nodes_from(range(n))
    for i in range(n):
        reach = {i} | nx.descendants(dg, i)
        row = sum(1 << j for j in reach)
        assert closed.rows[i] == row


def _shaped_relation(rng, n, shape):
    """A reflexive relation on n points: sparse or dense random pairs, or
    a chain's consecutive pairs, whose closure takes log2(n) squarings."""
    if shape == "chain":
        mat = np.eye(n, k=1, dtype=bool)
    else:
        mat = rng.random((n, n)) < (2 / n if shape == "sparse" else 0.5)
    return PreorderGraph.from_matrix(mat | np.eye(n, dtype=bool))


@pytest.mark.parametrize("n", (97, 130, 200, 333, 700))
def test_packed_products_match_int_rows(n):
    # past the cutover products, converses and closures run on packed
    # words; the same calls at a cutover raised past n run on int rows.
    # The products take all 9 ordered pairs of the three shapes
    rng = np.random.default_rng(n)
    shapes = [_shaped_relation(rng, n, shape)
              for shape in ("sparse", "dense", "chain")]
    calls = [(ordtop.preorder._product, (left, right))
             for left in shapes for right in shapes]
    calls += [(fn, (graph,)) for graph in shapes
              for fn in (ordtop.preorder._converse,
                         transitive_reflexive_closure)]

    def run(fn, args):
        out = fn(*args)
        assert isinstance(out, PreorderGraph)
        return out.rows

    packed = [run(*call) for call in calls]
    with mock.patch.object(ordtop.preorder, "_NUMPY_CUTOVER", n):
        assert [run(*call) for call in calls] == packed
    # the chain's closure is the whole upper triangle, its converse the
    # chain's consecutive pairs read downwards
    assert packed[-1] == tuple((1 << n) - (1 << i) for i in range(n))
    assert packed[-2] == tuple(3 << i - 1 if i else 1 for i in range(n))


def test_converse_matches_networkx_reverse():
    # at 0 to 130 points, across the cutover: row j of the converse holds
    # the i with j -> i in networkx's reverse of the relation's digraph
    rng = random.Random(39)
    for n in range(131):
        g, pairs = random_graph(rng, n, rng.choice((0.5, 2, 8)) / max(n, 1))
        dg = nx.DiGraph(pairs)
        dg.add_nodes_from(range(n))
        back = dg.reverse()
        want = tuple(sum(1 << i for i in back.successors(j)) | 1 << j
                     for j in range(n))
        assert ordtop.preorder._converse(g).rows == want, n


@st.composite
def _graph_pair(draw):
    """A relation and a larger one on up to 12 points, as pair lists."""
    n = draw(st.integers(1, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    small = draw(st.lists(pair, max_size=3 * n))
    return n, small, small + draw(st.lists(pair, max_size=n))


# the Warshall path, and the packed path forced below its cutover
_CLOSURE_PATHS = (10 ** 6, 0)


@settings(max_examples=150, deadline=None)
@given(_graph_pair(), st.sampled_from(_CLOSURE_PATHS))
def test_closure_is_extensive_idempotent_and_monotone(graphs, cutover):
    n, small, large = graphs
    with mock.patch.object(ordtop.preorder, "_NUMPY_CUTOVER", cutover):
        g = transitive_reflexive_closure(PreorderGraph.from_pairs(n, small))
        h = transitive_reflexive_closure(PreorderGraph.from_pairs(n, large))
        again = transitive_reflexive_closure(g)
    assert set(small) <= set(g.pairs())
    assert np.array_equal(bools(again), bools(g))
    # small is within large, so its closure is within large's
    assert not (bools(g) & ~bools(h)).any()
    assert set(g.pairs()) == naive_closure(n, small)


@settings(max_examples=150, deadline=None)
@given(_graph_pair(), st.sampled_from(_CLOSURE_PATHS))
def test_quotient_of_a_closed_relation_is_antisymmetric(graphs, cutover):
    n, _, pairs = graphs
    with mock.patch.object(ordtop.preorder, "_NUMPY_CUTOVER", cutover):
        closed = transitive_reflexive_closure(
            PreorderGraph.from_pairs(n, pairs))
    q, part = quotient_preorder(closed)
    assert is_antisymmetric(q) == (True, None)
    assert q.n == len(part)


def test_closure_long_chain():
    n = 200
    g = PreorderGraph.from_pairs(n, [(i, i + 1) for i in range(n - 1)])
    closed = transitive_reflexive_closure(g)
    assert closed.leq(0, n - 1)
    assert not closed.leq(n - 1, 0)
    assert closed.pair_count() == n * (n + 1) // 2


def test_antisymmetric_and_witness():
    chain = transitive_reflexive_closure(PreorderGraph.from_pairs(3, [(0, 1), (1, 2)]))
    ok, wit = is_antisymmetric(chain)
    assert ok and wit is None
    loop = transitive_reflexive_closure(PreorderGraph.from_pairs(3, [(0, 1), (1, 0)]))
    ok, wit = is_antisymmetric(loop)
    assert not ok and wit == (0, 1)


def pairwise_antisymmetric(graph):
    """Reference: the row-major first pair i < j with both bits set, by a
    walk over pairs of int rows."""
    for i in range(graph.n):
        row = graph.rows[i]
        for j in range(i + 1, graph.n):
            if row >> j & 1 and graph.rows[j] >> i & 1:
                return False, (i, j)
    return True, None


@st.composite
def _closed_graph(draw):
    """The closure of random pairs on 0-140 points, past one packed word
    and past the packed closure's cutover, often with a 2-cycle added."""
    n = draw(st.integers(0, 140))
    if not n:
        return PreorderGraph.diagonal(0)
    point = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(point, point), max_size=2 * n))
    if draw(st.booleans()):
        a, b = draw(point), draw(point)
        pairs += [(a, b), (b, a)]
    return transitive_reflexive_closure(PreorderGraph.from_pairs(n, pairs))


@settings(max_examples=150, deadline=None)
@given(_closed_graph())
def test_is_antisymmetric_matches_the_pairwise_walk(closed):
    want = pairwise_antisymmetric(closed)
    n = closed.n
    packed = PreorderGraph.from_packed(closed.packed)
    for form in (PreorderGraph(n, closed.rows), packed,
                 PreorderGraph.from_matrix(bools(closed))):
        assert is_antisymmetric(form) == want
    # the packed form is read as words alone
    assert "rows" not in vars(packed)


def test_symmetric_part_matches_networkx_sccs():
    rng = random.Random(2)
    for trial in range(60):
        # every sixth graph is past the packed closure's cutover
        n = rng.randrange(1, 10) if trial % 6 else rng.randrange(
            ordtop.preorder._NUMPY_CUTOVER + 1, 160)
        g, pairs = random_graph(rng, n, 0.3 if n < 10 else 1.5 / n)
        closed = transitive_reflexive_closure(g)
        dg = nx.DiGraph(pairs)
        dg.add_nodes_from(range(n))
        want = {tuple(sorted(c)) for c in nx.strongly_connected_components(dg)}
        # the int-row, packed and matrix forms of one relation
        for form in (PreorderGraph(n, closed.rows),
                     PreorderGraph.from_packed(closed.packed),
                     PreorderGraph.from_matrix(bools(closed))):
            part = symmetric_part(form)
            # no class repeated or lost, each sorted, and together a
            # partition of 0..n-1
            assert len(part) == len(want) and set(part) == want
            assert sorted(m for c in part for m in c) == list(range(n))
            assert all(list(c) == sorted(c) for c in part)
            # ordered by least member
            assert list(part) == sorted(part, key=lambda c: c[0])
            assert quotient_preorder(form)[1] == part


def test_quotient_is_partial_order():
    rng = random.Random(3)
    for trial in range(60):
        n = rng.randrange(1, 10)
        g, _ = random_graph(rng, n, 0.35)
        closed = transitive_reflexive_closure(g)
        q, part = quotient_preorder(closed)
        assert q.n == len(part)
        ok, _ = is_antisymmetric(q)
        assert ok
        assert is_transitive(q)
        # membership respects the original relation
        rep = {m: c for c, members in enumerate(part) for m in members}
        for i, j in closed.pairs():
            assert q.leq(rep[i], rep[j])


def quotient_by_pairs_walk(graph):
    """Reference quotient: mutual classes by pairwise bit tests, then one
    OR per related pair."""
    classes, seen = [], set()
    for i in range(graph.n):
        if i not in seen:
            cls = [i] + [j for j in range(i + 1, graph.n)
                         if graph.leq(i, j) and graph.leq(j, i)]
            seen.update(cls)
            classes.append(tuple(cls))
    rep = {m: c for c, members in enumerate(classes) for m in members}
    rows = [1 << c for c in range(len(classes))]
    for i, j in graph.pairs():
        rows[rep[i]] |= 1 << rep[j]
    return tuple(rows), tuple(classes)


def test_quotient_matches_pairs_walk_reference():
    rng = random.Random(4)
    merged = 0
    for trial in range(400):
        n = rng.randrange(0, 13)
        g = transitive_reflexive_closure(
            random_graph(rng, n, rng.choice((0.1, 0.3, 0.5)))[0])
        want_rows, want_classes = quotient_by_pairs_walk(g)
        q, part = quotient_preorder(g)
        assert part == want_classes
        assert q.rows == want_rows
        merged += len(want_classes) < n
    # graphs with and without a merged class reach the comparison
    assert 20 < merged < 380, merged


def test_quotient_of_an_antisymmetric_graph_is_the_graph(unpacks):
    rng = random.Random(5)
    g = transitive_reflexive_closure(PreorderGraph.from_pairs(
        12, [(i, j) for i in range(12) for j in range(i + 1, 12)
             if rng.random() < 0.3]))
    assert is_antisymmetric(g) == (True, None)
    q, part = quotient_preorder(g)
    assert q is g
    assert part == tuple((i,) for i in range(12))
    # on the packed words alone: nothing unpacked, no int rows made
    words = PreorderGraph.from_packed(g.packed)
    assert quotient_preorder(words)[0] is words
    assert "rows" not in vars(words) and unpacks == []


def test_function_preorder_basic():
    # two functions on three points
    vals = [[0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]
    g = function_preorder(vals)
    assert set(g.pairs()) == {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}
    assert is_transitive(g)


def test_function_preorder_empty_family_is_full():
    g = function_preorder(np.zeros((0, 4)))
    assert g.rows == PreorderGraph.full(4).rows


def test_function_preorder_rejects_nonfinite():
    with pytest.raises(ValueError):
        function_preorder([[0.0, float("nan")]])


def test_function_preorder_always_preorder():
    rng = random.Random(4)
    for trial in range(40):
        n = rng.randrange(1, 8)
        k = rng.randrange(1, 4)
        vals = [[rng.choice([0.0, 0.25, 0.5, 1.0]) for _ in range(n)] for _ in range(k)]
        g = function_preorder(vals)
        assert is_transitive(g)
        for i in range(n):
            assert g.leq(i, i)


def test_up_and_down_sets():
    g = transitive_reflexive_closure(PreorderGraph.from_pairs(4, [(0, 1), (1, 2)]))
    assert g.up_set(0b0001) == 0b0111
    assert g.down_set(0b0100) == 0b0111
    assert g.up_set(0b1000) == 0b1000
