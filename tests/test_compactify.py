"""Compactifier pipeline tests: builds, domination, extendability, diagrams.

Expected values for the catalog builds were frozen from closed-form
limits (tail coordinates of id, x^2, the mirror reciprocals) checked by
hand against the shell schedule; nothing here re-reads pipeline output.
"""

import dataclasses
import functools
import itertools
import math
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ordtop.catalog import (
    CATALOG_NAMES,
    FunctionFamily,
    SampleSet,
    ScalarFunction,
    catalog,
    sample_values,
)
import ordtop.compactify
from ordtop.compactify import (
    DEFAULT_EPS_Q,
    DominationError,
    DominationMap,
    DominationSearch,
    ImageCloud,
    attempt_domination,
    build_compactification,
    close_and_cluster,
    dominate,
    embed,
    extendability,
    i_closure,
    nachbin_pipeline,
    remainder_is_ordered,
    smallest_closed_preorder_diagnostic,
    verify_preorder_embedding,
)
from ordtop.export import _condense, write_build
from ordtop.generators import random_nested_families
from ordtop.preorder import PreorderGraph, is_transitive, quotient_preorder
from ordtop.report import Check, CheckReport


def build(space, selector="default", resolution=512, **kw):
    entry = catalog(space)
    fam = entry.family(selector, resolution, kw.get("tail_depth", 4))
    comp, report = build_compactification(entry, fam, resolution=resolution,
                                          **kw)
    return entry, comp, report


def embed_sample(entry, family, resolution, tail_depth=4):
    """The image cloud of one sample of the entry's space."""
    return embed(entry, family, *sample_values(entry.space, family,
                                               resolution, tail_depth))


def core_relation(entry, comp):
    """The space relation between the core vertices' representatives."""
    reps = comp.representatives()[:comp.n_core]
    return entry.space.relation_matrix(comp.cloud.sample.coords[reps])


def verify_alone(entry, comp):
    """verify_preorder_embedding on relations evaluated here, not gathered."""
    samples = ordtop.compactify._verify_samples(comp)
    coords = comp.cloud.sample.coords
    relations = [entry.space.relation_matrix(coords[i]) for i in samples]
    return verify_preorder_embedding(comp, samples, relations)


# ---------------------------------------------------------------- builds


def test_half_open_interval_gains_one_top_vertex():
    entry, comp, report = build("half-open-interval")
    assert comp.complete and report.passed
    rems = comp.remainder_ids()
    assert len(rems) == 1
    r = rems[0]
    # both coordinates (H:id and C:const1) limit to 1.0 exactly
    assert tuple(comp.quant[r]) == (1000, 1000)
    assert all(comp.induced.leq(v, r) for v in comp.core_ids())
    assert not any(comp.induced.leq(r, v) for v in comp.core_ids())


def first_samples(comp):
    """Reference for representatives: each vertex's first sample, by a loop."""
    reps = np.full(comp.n_vertices, -1, dtype=int)
    for i in range(len(comp.sample_map) - 1, -1, -1):
        reps[comp.sample_map[i]] = i
    return reps


def test_closed_interval_adds_nothing():
    entry, comp, report = build("closed-interval")
    assert report.passed
    assert comp.remainder_ids() == ()
    assert comp.end_info == ()
    # induced order on vertices is the sampled order exactly
    reps = comp.representatives()
    assert np.array_equal(reps, first_samples(comp))
    coords = entry.space.sample(512, 4).coords[reps]
    want = entry.space.relation_matrix(coords)
    assert np.array_equal(want, comp.induced.matrix)
    # a half-open build's remainder vertex has no sample
    _, comp, _ = build("half-open-interval", resolution=97)
    reps = comp.representatives()
    assert np.array_equal(reps, first_samples(comp))
    assert list(reps[comp.n_core:]) == [-1]


def test_one_point_shapes_on_naturals():
    shapes = {}
    for sel in ("C", "Cminus", "Cplus"):
        entry, comp, report = build("nat-discrete", sel, resolution=96)
        assert comp.complete and report.passed, sel
        rems = comp.remainder_ids()
        assert len(rems) == 1, sel
        r = rems[0]
        core = comp.core_ids()
        below = all(comp.induced.leq(r, v) for v in core)
        above = all(comp.induced.leq(v, r) for v in core)
        shapes[sel] = (below, above)
    assert shapes["C"] == (False, False)
    assert shapes["Cminus"] == (True, False)
    assert shapes["Cplus"] == (False, True)


def test_mirror_ends_merge_into_one_bottom_point():
    entry, comp, report = build("real-line-mirror")
    assert comp.complete and report.passed
    assert len(comp.remainder_ids()) == 1
    statuses = sorted(info["status"] for info in comp.end_info)
    assert statuses == ["merged_remainder", "remainder"]
    assert comp.end_map[0] == comp.end_map[1]
    r = comp.remainder_ids()[0]
    assert all(comp.induced.leq(r, v) for v in comp.core_ids())


def test_misner_strip_builds_and_verifies():
    entry, comp, report = build("misner-strip", resolution=400)
    assert comp.complete
    assert report.check("vertex_order_matches_space").passed
    assert report.check("sampled_relation_preserved").passed
    assert report.check("remainder_antisymmetric").passed
    assert len(comp.remainder_ids()) == 1
    # the added point sits at the t -> 0 boundary where every arc
    # function tends to 1
    r = comp.remainder_ids()[0]
    assert all(q == round(1.0 / comp.eps_q) for q in comp.quant[r])


def test_build_is_deterministic():
    _, c1, r1 = build("real-line-mirror", resolution=128)
    _, c2, r2 = build("real-line-mirror", resolution=128)
    assert np.array_equal(c1.quant, c2.quant)
    assert c1.induced.rows == c2.induced.rows
    assert np.array_equal(c1.sample_map, c2.sample_map)
    assert r1.to_dict() == r2.to_dict()


def test_vertices_keep_first_occurrence_order():
    entry = catalog("half-open-interval")
    cloud = embed_sample(entry, entry.family("id"), 64)
    comp = close_and_cluster(cloud)
    seen = set()
    expect = 0
    for s in range(cloud.n_samples):
        v = comp.sample_map[s]
        if v not in seen:
            assert v == expect
            seen.add(v)
            expect += 1


def test_build_samples_and_evaluates_once(monkeypatch):
    entry = catalog("half-open-interval")
    family = entry.family("id,sq")
    samples = []
    evals = {}
    sample = type(entry.space).sample
    evaluate = ScalarFunction.evaluate

    def counting_sample(self, *args):
        samples.append(args)
        return sample(self, *args)

    def counting_evaluate(self, coords):
        evals[self.name] = evals.get(self.name, 0) + 1
        return evaluate(self, coords)

    monkeypatch.setattr(type(entry.space), "sample", counting_sample)
    monkeypatch.setattr(ScalarFunction, "evaluate", counting_evaluate)
    comp, report = build_compactification(entry, family, resolution=128)
    assert report.passed
    assert len(samples) == 1
    assert evals == {f.name: 1 for f in family.members()}


@pytest.mark.parametrize("name, fn", (
    ("twice", lambda a: 2.0 * a[:, 0]),
    ("nanf", lambda a: np.where(a[:, 0] > 0.5, np.nan, a[:, 0])),
), ids=("twice", "nanf"))
def test_build_reports_functions_leaving_unit_interval(name, fn):
    # validation owns the range check: the build clips (NaN to 0) and
    # returns its report, without an exception or a RuntimeWarning
    entry = catalog("half-open-interval")
    fam = FunctionFamily((ScalarFunction(name, fn, monotone="isotone"),),
                         (entry.pool["const1"],))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comp, report = build_compactification(entry, fam, resolution=64)
    check = report.check("values_in_unit_interval")
    assert not check.passed
    xs = comp.cloud.sample.coords[:, 0]
    assert check.witness == (name, (xs[xs > 0.5].min(),))
    assert ((comp.cloud.values >= 0.0) & (comp.cloud.values <= 1.0)).all()


# ------------------------------------------------- induced preorder laws


def _grid_cloud(rows, h_count):
    """Image cloud of integer rows / 4: no ends, H columns first, then C."""
    width = len(rows[0])
    h = tuple(ScalarFunction(f"h{k}", lambda a: a[:, 0], monotone="isotone")
              for k in range(h_count))
    c = tuple(ScalarFunction(f"c{k}", lambda a: a[:, 0], klass="C",
                             tail_value=0.0)
              for k in range(width - h_count))
    n = len(rows)
    sample = SampleSet(np.arange(n, dtype=float)[:, None],
                       np.zeros(n, dtype=int), ())
    names = tuple(f"H:{f.name}" for f in h) + tuple(f"C:{f.name}" for f in c)
    return ImageCloud(catalog("closed-interval"), FunctionFamily(h, c),
                      sample, np.array(rows, dtype=float) / 4.0, h_count,
                      names)


@st.composite
def grid_clouds(draw):
    width = draw(st.integers(1, 4))
    h_count = draw(st.integers(0, width))
    row = st.lists(st.integers(0, 4), min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=24))
    return _grid_cloud(rows, h_count)


def _assert_preorder(comp):
    g = comp.induced
    assert all(g.leq(i, i) for i in range(g.n))
    assert is_transitive(g)


@settings(max_examples=200, deadline=None)
@given(grid_clouds())
def test_induced_relation_is_a_preorder_on_integer_clouds(cloud):
    comp = close_and_cluster(cloud, eps_q=0.25)
    _assert_preorder(comp)
    h = comp.quant[:, :cloud.h_count]
    for i in range(comp.n_vertices):
        for j in range(comp.n_vertices):
            assert comp.induced.leq(i, j) == bool((h[i] <= h[j]).all())


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(CATALOG_NAMES), st.integers(16, 96),
       st.sampled_from((DEFAULT_EPS_Q, 0.01, 0.05)))
def test_induced_relation_is_a_preorder_on_catalog_builds(name, resolution,
                                                         eps_q):
    entry = catalog(name)
    cloud = embed_sample(entry, entry.family("default", resolution),
                         resolution)
    _assert_preorder(close_and_cluster(cloud, eps_q=eps_q))


@pytest.mark.parametrize("offset", (-1, 0, 1))
def test_induced_graph_tiles_match_direct_compare(offset):
    # the largest vertex count that is still compared in a single tile
    tile = math.isqrt(ordtop.compactify._TILE_CELLS)
    n = tile + offset
    rng = np.random.default_rng(n)
    # eps_q = 1e-6 puts coordinates at up to 1e6, beyond int16; the last
    # column is a C coordinate, which the order ignores
    quant = ordtop.compactify._quantize(rng.integers(0, 5, (n, 4)) / 4, 1e-6)
    h = quant[:, :3]
    direct = (h[:, None, :] <= h[None, :, :]).all(axis=2)
    got = ordtop.compactify._induced_graph(quant, 3)
    assert np.array_equal(got.matrix, direct)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 140), st.integers(0, 5), st.integers(0, 4),
       st.sampled_from((64, 1 << 20)), st.data())
def test_rank_bitsets_match_direct_compare(n, h, spread, cells, data):
    # few distinct values per column, so ties everywhere; spread 0 leaves
    # one; a small _TILE_CELLS splits the columns into groups and the rows
    # into tiles
    quant = np.array(data.draw(st.lists(
        st.lists(st.integers(-spread, spread), min_size=h + 1,
                 max_size=h + 1), min_size=n, max_size=n)), dtype=np.int64)
    direct = (quant[:, None, :h] <= quant[None, :, :h]).all(axis=2)
    with mock.patch.object(ordtop.compactify, "_TILE_CELLS", cells):
        got = ordtop.compactify._induced_graph(quant, h)
    assert got.rows == PreorderGraph.from_matrix(direct).rows
    assert np.array_equal(got.matrix, direct)


@settings(max_examples=100, deadline=None)
@given(grid_clouds())
def test_condense_matches_quotient_preorder_on_integer_clouds(cloud):
    # C columns split vertices whose H-parts are equal: non-singleton classes
    comp = close_and_cluster(cloud, eps_q=0.25)
    qgraph, classes = _condense(comp)
    want, want_classes = quotient_preorder(comp.induced)
    assert qgraph.rows == want.rows
    assert classes == want_classes.classes


@pytest.mark.parametrize("space,selector", (
    ("real-line-mirror", "default"), ("real-line-mirror", "exp2"),
    ("misner-strip", "default"), ("nat-discrete", "Cminus")))
def test_condense_matches_quotient_preorder_on_builds(space, selector):
    _, comp, _ = build(space, selector, resolution=97)
    qgraph, classes = _condense(comp)
    want, want_classes = quotient_preorder(comp.induced)
    assert qgraph.rows == want.rows
    assert classes == want_classes.classes


# ------------------------------------------------------- divergent tails


def test_wild_tail_blocks_completion():
    entry, comp, report = build("half-open-interval", "id,pow64")
    assert not comp.complete
    check = report.check("all_ends_cauchy")
    assert not check.passed
    assert check.witness[0]["worst_coordinate"] == "H:pow64"
    assert check.witness[0]["spread"] > 0.01
    assert comp.end_map == (None,)
    with pytest.raises(ValueError):
        remainder_is_ordered(comp)
    with pytest.raises(ValueError, match="incomplete"):
        smallest_closed_preorder_diagnostic(comp, core_relation(entry, comp))


def test_remainder_witness_is_the_first_mutual_remainder_pair():
    _, comp, _ = build("half-open-interval", resolution=64)
    n = comp.n_vertices
    # the top three vertices as remainder, with the top two made equivalent
    rows = list(comp.induced.rows)
    rows[n - 1] |= 1 << (n - 2)
    fake = dataclasses.replace(comp, n_core=n - 3,
                               induced=PreorderGraph(n, tuple(rows)))
    check = remainder_is_ordered(fake).check("remainder_antisymmetric")
    assert not check.passed
    assert check.witness == (n - 2, n - 1)
    assert check.metrics == {"remainder_count": 3}


def test_tail_depth_below_three_is_a_value_error():
    entry = catalog("half-open-interval")
    with pytest.raises(ValueError, match="end 0 has 2 tail shells"):
        build_compactification(entry, entry.family("id", 64), resolution=64,
                               tail_depth=2)


# ------------------------------------------------------------ domination


def test_nested_family_domination():
    entry = catalog("half-open-interval")
    comp1, _ = build_compactification(entry, entry.family("id"))
    comp2, _ = build_compactification(entry, entry.family("id,sq"))
    result = dominate(comp2, comp1)
    assert result.ok
    assert result.report.check("commutes_on_samples").passed
    assert result.report.check("isotone").passed
    assert result.report.check("remainder_to_remainder").passed
    # the map collapses nothing here: both builds have one remainder
    assert sorted(set(result.vertex_map)) == sorted(range(comp1.n_vertices))


def test_self_domination_is_identity():
    entry, comp, _ = build("half-open-interval")
    result = dominate(comp, comp)
    assert result.ok
    assert list(result.vertex_map) == list(range(comp.n_vertices))


def test_domination_requires_nested_names_and_matching_grid():
    entry = catalog("half-open-interval")
    comp1, _ = build_compactification(entry, entry.family("id"))
    comp2, _ = build_compactification(entry, entry.family("sq"))
    with pytest.raises(DominationError):
        dominate(comp2, comp1)  # {id} not a subset of {sq}
    comp3, _ = build_compactification(entry, entry.family("id,sq"),
                                      eps_q=DEFAULT_EPS_Q / 2)
    with pytest.raises(DominationError):
        dominate(comp3, comp1)


def test_randomized_nested_families_always_dominate():
    from ordtop.generators import random_nested_families
    failures = []
    for entry, inner, outer, res in random_nested_families(7, 20):
        f_in = entry.family(",".join(inner), res)
        f_out = entry.family(",".join(outer), res)
        c_in, _ = build_compactification(entry, f_in, resolution=res)
        c_out, _ = build_compactification(entry, f_out, resolution=res)
        assert c_in.complete and c_out.complete, (entry.name, inner, outer)
        result = dominate(c_out, c_in)
        if not result.ok:
            failures.append((entry.name, inner, outer,
                             result.report.to_dict()))
    assert failures == []


def test_no_smallest_one_point_compactification():
    entry = catalog("nat-discrete")
    comps = {}
    for sel in ("C", "Cminus", "Cplus"):
        comps[sel], _ = build_compactification(
            entry, entry.family(sel, 96), resolution=96)
    assert attempt_domination(comps["C"], comps["Cminus"]).found is not None
    assert attempt_domination(comps["C"], comps["Cplus"]).found is not None
    down = attempt_domination(comps["Cminus"], comps["Cplus"])
    up = attempt_domination(comps["Cplus"], comps["Cminus"])
    assert down.found is None and up.found is None
    # exhaustion actually happened: every candidate map was tried and refused
    assert len(down.candidates) > 0 and len(up.candidates) > 0


def test_no_build_relation_is_unpacked(monkeypatch, tmp_path):
    # a build's graph keeps the matrix of its packed rows; every other
    # graph unpacks its rows at most once
    unpacked = []
    unpack = PreorderGraph.matrix.func

    def counting(self):
        unpacked.append(self)
        return unpack(self)

    matrix = functools.cached_property(counting)
    matrix.__set_name__(PreorderGraph, "matrix")
    monkeypatch.setattr(PreorderGraph, "matrix", matrix)
    nat = catalog("nat-discrete")
    comps = [build_compactification(nat, nat.family(sel, 32), resolution=32,
                                    diagnostic_budget=1500)[0]
             for sel in ("C", "Cminus", "Cplus")]
    half = catalog("half-open-interval")
    inner, outer = (build_compactification(half, half.family(names, 64),
                                           resolution=64)
                    for names in ("id", "id,sq"))
    write_build(*outer, str(tmp_path / "outer"))
    inner, outer = inner[0], outer[0]
    comps += [inner, outer]
    assert all(c.complete for c in comps)
    for a in comps[:3]:
        for b in comps[:3]:
            attempt_domination(a, b)
    assert dominate(outer, inner).ok
    pool = [half.pool[k] for k in ("id", "sq", "cube", "sqrt")]
    for comp in (inner, outer):
        i_closure(half, comp, pool)
    assert not any(g is c.induced for g in unpacked for c in comps)
    assert len({id(g) for g in unpacked}) == len(unpacked)
    probe = PreorderGraph.diagonal(2)  # the count sees a graph from rows
    assert probe.matrix is probe.matrix
    assert sum(g is probe for g in unpacked) == 1


def test_relation_is_read_only():
    entry, comp, _ = build("half-open-interval", "id", resolution=32)
    from_rows = PreorderGraph(comp.n_vertices, comp.induced.rows)
    assert from_rows == comp.induced
    assert np.array_equal(from_rows.matrix, comp.induced.matrix)
    for graph in (comp.induced, from_rows):
        assert graph.matrix is graph.matrix
        with pytest.raises(ValueError):
            graph.matrix[0, 1] = True


def test_found_domination_map_passes_dominate_checks():
    entry = catalog("nat-discrete")
    comp_c, _ = build_compactification(entry, entry.family("C", 96),
                                       resolution=96)
    comp_m, _ = build_compactification(entry, entry.family("Cminus", 96),
                                       resolution=96)
    search = attempt_domination(comp_c, comp_m)
    assert search.found is not None
    assert search.found.report.passed


def reference_checker(comp2, comp1):
    """The full check of a vertex map, on the whole n x n relation."""
    m2 = comp2.induced.matrix
    m1 = comp1.induced.matrix
    remainder2 = comp2.remainder_ids()
    target_rem = set(comp1.remainder_ids())

    def check(vertex_map):
        vm = np.asarray(vertex_map, dtype=int)
        same_samples = np.array_equal(vm[comp2.sample_map], comp1.sample_map)
        witness = None
        if not same_samples:
            i = int(np.argmax(vm[comp2.sample_map] != comp1.sample_map))
            witness = (i, tuple(comp2.cloud.sample.coords[i].tolist()))
        commutes = Check("commutes_on_samples", same_samples, witness=witness)
        bad = m2 & ~m1[np.ix_(vm, vm)]
        witness = None
        if bad.any():
            u, v = np.argwhere(bad)[0]
            witness = (int(u), int(v), int(vm[u]), int(vm[v]))
        isotone = Check("isotone", not bad.any(), witness=witness)
        image = {int(vm[r]) for r in remainder2}
        witness = None
        if image != target_rem:
            witness = {"image": sorted(image), "target": sorted(target_rem)}
        r2r = Check("remainder_to_remainder", image == target_rem,
                    witness=witness)
        return CheckReport((commutes, isotone, r2r))

    return check


def reference_attempt_domination(comp_a, comp_b):
    """Exhaustive search running the full check on every candidate."""
    rem_a = comp_a.remainder_ids()
    vm = np.full(comp_a.n_vertices, -1, dtype=int)
    for i, va in enumerate(comp_a.sample_map):
        vb = comp_b.sample_map[i]
        if vm[va] == -1:
            vm[va] = vb
        elif vm[va] != vb:
            return DominationSearch(None, ((("core", int(va)),
                                            "core_identification"),))
    check = reference_checker(comp_a, comp_b)
    candidates = []
    for assign in itertools.product(range(comp_b.n_vertices),
                                    repeat=len(rem_a)):
        trial = vm.copy()
        for r, target in zip(rem_a, assign):
            trial[r] = target
        report = check(trial)
        if report.passed:
            found = DominationMap("", "", tuple(int(x) for x in trial), report)
            return DominationSearch(found, tuple(candidates))
        failing = next(c.name for c in report.checks if not c.passed)
        candidates.append((assign, failing))
    return DominationSearch(None, tuple(candidates))


def reference_dominate(comp2, comp1):
    """(vertex map, report) by a scan of every target row per vertex."""
    proj_idx = [comp2.names.index(nm) for nm in comp1.names]
    target = comp1.quant
    vertex_map = []
    for v in range(comp2.n_vertices):
        p = comp2.quant[v, proj_idx]
        exact = np.where((target == p).all(axis=1))[0]
        if len(exact):
            vertex_map.append(int(exact[0]))
            continue
        cheb = np.abs(target - p).max(axis=1)
        assert cheb.min() <= 1
        vertex_map.append(int(np.argmax(cheb == cheb.min())))
    return tuple(vertex_map), reference_checker(comp2, comp1)(vertex_map)


def assert_search_matches_reference(comp_a, comp_b):
    search = attempt_domination(comp_a, comp_b)
    want = reference_attempt_domination(comp_a, comp_b)
    assert search.candidates == want.candidates
    assert (search.found is None) == (want.found is None)
    if want.found is not None:
        assert search.found.vertex_map == want.found.vertex_map
        assert search.found.report.to_dict() == want.found.report.to_dict()
    return search


@pytest.mark.parametrize("resolution", [32, 96])
def test_search_matches_full_check_on_one_point_builds(resolution):
    entry = catalog("nat-discrete")
    comps = {sel: build_compactification(entry, entry.family(sel, resolution),
                                         resolution=resolution)[0]
             for sel in ("C", "Cminus", "Cplus")}
    failing = set()
    for a, b in itertools.product(comps, repeat=2):
        search = assert_search_matches_reference(comps[a], comps[b])
        failing.update(name for _, name in search.candidates)
    assert failing == {"isotone", "remainder_to_remainder"}


def nested_builds(seed, count, resolution=96):
    for entry, inner, outer, res in random_nested_families(seed, count,
                                                           resolution):
        c_in, _ = build_compactification(
            entry, entry.family(",".join(inner), res), resolution=res)
        c_out, _ = build_compactification(
            entry, entry.family(",".join(outer), res), resolution=res)
        yield c_in, c_out


def test_search_matches_full_check_on_nested_families():
    exits = set()
    for c_in, c_out in nested_builds(11, 12):
        assert assert_search_matches_reference(c_out, c_in).found is not None
        back = assert_search_matches_reference(c_in, c_out)
        exits.update(name for _, name in back.candidates)
    # half-open inner builds merge two samples the outer ones separate
    assert "core_identification" in exits


def test_search_checks_the_core_block():
    # an extra pair between two core vertices fails every candidate on
    # the core x core block alone
    entry, comp, _ = build("half-open-interval", "id", resolution=32)
    rows = list(comp.induced.rows)
    rows[5] |= 1 << 3
    source = dataclasses.replace(
        comp, induced=PreorderGraph(comp.n_vertices, tuple(rows)))
    # the copy unpacks its own relation, not the original's
    changed = np.argwhere(source.induced.matrix
                          != comp.induced.matrix).tolist()
    assert changed == [[5, 3]]
    search = assert_search_matches_reference(source, comp)
    assert search.found is None
    assert {name for _, name in search.candidates} == {"isotone"}
    assert attempt_domination(comp, comp).found is not None


def test_search_rejects_builds_with_different_samples():
    entry = catalog("closed-interval")
    comps = [build_compactification(entry, entry.family("id", res),
                                    resolution=res)[0] for res in (33, 32)]
    message = "builds sample different point sets (33 vs 32 samples)"
    with pytest.raises(DominationError) as exc:
        attempt_domination(*comps)
    assert str(exc.value) == message
    with pytest.raises(DominationError) as exc:
        dominate(*comps)
    assert str(exc.value) == message


def with_remainder(comp, count):
    """comp with its last `count` vertices relabelled as remainder."""
    return dataclasses.replace(comp, n_core=comp.n_vertices - count)


def test_search_budgets_name_their_limit():
    entry, comp, _ = build("half-open-interval", "id", resolution=32)
    n = comp.n_vertices
    for source, target, side in ((with_remainder(comp, 9), comp, "source"),
                                 (comp, with_remainder(comp, 9), "target")):
        with pytest.raises(DominationError) as exc:
            attempt_domination(source, target)
        assert str(exc.value) == (
            f"{side} remainder has 9 vertices; exhaustive search allows at "
            f"most 8")
    # eight remainder vertices pass that limit and meet the cap
    with pytest.raises(DominationError) as exc:
        attempt_domination(with_remainder(comp, 8), comp)
    assert str(exc.value) == (
        f"{n ** 8} candidate maps exceed the exhaustive search cap of 200000")
    # one remainder vertex: n candidates
    with pytest.raises(DominationError) as exc:
        attempt_domination(comp, comp, cap=n - 1)
    assert str(exc.value) == (
        f"{n} candidate maps exceed the exhaustive search cap of {n - 1}")
    assert attempt_domination(comp, comp, cap=n).found is not None


def test_search_without_remainder_has_one_candidate():
    entry = catalog("closed-interval")
    comp, _ = build_compactification(entry, entry.family("id", 32),
                                     resolution=32)
    assert comp.remainder_ids() == ()
    # n_b ** 0 = 1 candidate map, however many target vertices there are
    search = attempt_domination(comp, comp, cap=1)
    assert search.found is not None and search.candidates == ()
    with pytest.raises(DominationError, match="1 candidate maps exceed"):
        attempt_domination(comp, comp, cap=0)


def test_dominate_matches_row_scan_reference():
    fallbacks = 0
    for c_in, c_out in nested_builds(7, 12):
        for target in (c_in, shift_one_row(c_in)):
            result = dominate(c_out, target)
            vertex_map, report = reference_dominate(c_out, target)
            assert result.vertex_map == vertex_map
            assert result.report.to_dict() == report.to_dict()
            rows = {tuple(row) for row in target.quant.tolist()}
            proj = c_out.quant[:, [c_out.names.index(nm)
                                   for nm in target.names]]
            fallbacks += sum(tuple(p) not in rows for p in proj.tolist())
    # every shifted target misses at least one projected row
    assert fallbacks >= 12


def shift_one_row(comp):
    """comp with the H-part of vertex 0 moved one quantum down.

    The row stays unique, so projections onto it miss the exact lookup
    and take the within-one-quantum fallback.
    """
    quant = comp.quant.copy()
    quant[0, :comp.h_count] -= 1
    assert len(np.unique(quant, axis=0)) == len(quant)
    return dataclasses.replace(comp, quant=quant)


def test_dominate_fallback_ties_go_to_the_lowest_id():
    entry, comp, _ = build("half-open-interval", "id", resolution=32)
    low = comp.quant[0, 0]
    target_quant, source_quant = comp.quant.copy(), comp.quant.copy()
    target_quant[1, 0] = low + 2
    source_quant[0, 0], source_quant[1, 0] = low + 1, low + 2
    source = dataclasses.replace(comp, quant=source_quant)
    target = dataclasses.replace(comp, quant=target_quant)
    result = dominate(source, target)
    # source vertex 0 lies one quantum from target vertices 0 and 1
    assert result.vertex_map[:2] == (0, 1)
    vertex_map, report = reference_dominate(source, target)
    assert result.vertex_map == vertex_map
    assert result.report.to_dict() == report.to_dict()


def test_dominate_reports_a_far_projection_in_plain_ints():
    entry = catalog("half-open-interval")
    comp1, _ = build_compactification(entry, entry.family("id", 32),
                                      resolution=32)
    comp2, _ = build_compactification(entry, entry.family("id,sq", 32),
                                      resolution=32)
    far = dataclasses.replace(comp1, quant=comp1.quant + 5)
    with pytest.raises(DominationError) as exc:
        dominate(comp2, far)
    assert str(exc.value) == ("projected vertex 0 at (0, 1000) is farther "
                              "than one quantum from every target vertex")


# ---------------------------------------------------------- extendability


def test_extendable_and_non_extendable_functions():
    entry, comp, _ = build("half-open-interval", "id")
    pool = entry.pool
    assert extendability(entry, comp, pool["id"])
    assert extendability(entry, comp, pool["sq"])
    assert extendability(entry, comp, pool["sqrt"])
    assert not extendability(entry, comp, pool["cube"])
    assert not extendability(entry, comp, pool["pow64"])
    res = extendability(entry, comp, pool["sq"])
    r = comp.remainder_ids()[0]
    assert res.values.keys() == {r}
    assert abs(res.values[r] - 1.0) < 0.01


def test_extension_values_follow_the_limit():
    entry, comp, _ = build("real-line-mirror")
    res = extendability(entry, comp, entry.pool["invmod2"])
    assert res
    r = comp.remainder_ids()[0]
    assert abs(res.values[r]) < 0.01  # 1/(1+|x|)^2 -> 0


def test_alternating_function_does_not_extend():
    entry, comp, _ = build("nat-discrete", "Cminus", resolution=96)
    res = extendability(entry, comp, entry.pool["alt"])
    assert not res
    assert "alt" in res.reason


def test_extendability_guards():
    entry, comp, _ = build("half-open-interval", "id,pow64")
    with pytest.raises(ValueError):
        extendability(entry, comp, catalog("half-open-interval").pool["id"])
    entry2, comp2, _ = build("half-open-interval", "id")
    not_isotone = ScalarFunction("flat", lambda c: 0.5, monotone="none")
    with pytest.raises(ValueError):
        extendability(entry2, comp2, not_isotone)


def test_i_closure_is_idempotent_and_contains_h():
    entry, comp, _ = build("half-open-interval", "id")
    pool = [f for f in entry.pool.values()
            if f.monotone == "isotone" and f.klass is None]
    kept = i_closure(entry, comp, pool)
    assert sorted(f.name for f in kept) == ["id", "sq", "sqrt"]
    again = i_closure(entry, comp, kept)
    assert sorted(f.name for f in again) == sorted(f.name for f in kept)
    # H itself always extends (each member is a coordinate of the build)
    for f in comp.cloud.family.h:
        assert extendability(entry, comp, entry.pool[f.name])


def test_i_closure_grows_with_h():
    entry = catalog("half-open-interval")
    pool = [f for f in entry.pool.values()
            if f.monotone == "isotone" and f.klass is None]
    rng = random.Random(3)
    names = ["id", "sq", "sqrt"]
    for _ in range(6):
        inner = sorted(rng.sample(names, rng.randint(1, 2)))
        outer = sorted(set(inner) | {rng.choice(names)})
        ci, _ = build_compactification(entry, entry.family(",".join(inner)))
        co, _ = build_compactification(entry, entry.family(",".join(outer)))
        ki = {f.name for f in i_closure(entry, ci, pool)}
        ko = {f.name for f in i_closure(entry, co, pool)}
        assert ki <= ko, (inner, outer)


# ------------------------------------------------------------ diagnostics


def test_smallest_closure_diagnostic_matches_on_simple_builds():
    for space, sel, res in (("half-open-interval", "default", 512),
                            ("closed-interval", "default", 256),
                            ("nat-discrete", "Cminus", 96)):
        entry, comp, _ = build(space, sel, resolution=res)
        report = smallest_closed_preorder_diagnostic(
            comp, core_relation(entry, comp))
        check = report.check("induced_equals_smallest_closure")
        assert check.passed, (space, check.metrics)
        assert check.metrics["excess_pairs"] == 0


def test_verify_runs_standalone():
    entry, comp, _ = build("half-open-interval")
    report = verify_alone(entry, comp)
    assert report.passed
    v = report.check("vertex_order_matches_space")
    assert v.metrics["violations"] == 0


def test_verify_witnesses_are_python_floats():
    entry, comp, report = build("misner-strip", "arc000", resolution=16)
    vertex = report.check("vertex_order_matches_space")
    samples = ordtop.compactify._verify_samples(comp)
    # every sampled pair related in the space: the induced order misses some
    relations = [np.ones((len(s), len(s)), dtype=bool) for s in samples]
    sampled = verify_preorder_embedding(comp, samples, relations).check(
        "sampled_relation_preserved")
    for check in (vertex, sampled):
        assert not check.passed
        for point in check.witness[:2]:
            assert type(point) is tuple
            assert all(type(x) is float for x in point), check.witness


def test_verify_witnesses_are_the_first_row_major_violations():
    entry, comp, _ = build("misner-strip", "arc000", resolution=16)
    reps, idx = samples = ordtop.compactify._verify_samples(comp)
    coords, ind = comp.cloud.sample.coords, comp.induced.matrix
    space_rel = [entry.space.relation_matrix(coords[s]) for s in samples]
    ind_core = ind[:comp.n_core, :comp.n_core]
    i, j = np.argwhere(space_rel[0] != ind_core)[0]
    vertex = verify_preorder_embedding(comp, samples, space_rel).check(
        "vertex_order_matches_space")
    assert vertex.witness == (tuple(coords[reps[i]].tolist()),
                              tuple(coords[reps[j]].tolist()),
                              "induced" if ind_core[i, j] else "missing")
    # every sampled pair related in the space: the induced order misses some
    related = [np.ones((len(s), len(s)), dtype=bool) for s in samples]
    sub_map = comp.sample_map[idx]
    i, j = np.argwhere(~ind[np.ix_(sub_map, sub_map)])[0]
    sampled = verify_preorder_embedding(comp, samples, related).check(
        "sampled_relation_preserved")
    assert sampled.witness == (tuple(coords[idx[i]].tolist()),
                               tuple(coords[idx[j]].tolist()))


@pytest.mark.parametrize("space", ("real-line-mirror", "misner-strip",
                                   "nat-discrete"))
def test_build_verifies_from_the_validation_relation(space, monkeypatch):
    entry = catalog(space)
    fam = entry.family("default", 256)
    calls = []
    relation_matrix = type(entry.space).relation_matrix

    def counting(self, coords, other=None):
        calls.append((len(coords), None if other is None else len(other)))
        return relation_matrix(self, coords, other)

    monkeypatch.setattr(type(entry.space), "relation_matrix", counting)
    for budget in (0, 1500):  # without and with the diagnostic
        calls.clear()
        comp, report = build_compactification(entry, fam, resolution=256,
                                              diagnostic_budget=budget)
        # validation's row tiles are the only relation calls: they cover
        # every sample once, each against all samples
        n = comp.cloud.n_samples
        assert calls and sum(rows for rows, _ in calls) == n
        assert all(cols == n for _, cols in calls)
        # the gathered relation gives what verify's own relation gives
        alone = verify_alone(entry, comp)
        for name in alone.names():
            assert report.check(name).to_dict() == alone.check(name).to_dict()
        if budget and comp.complete:
            diag = smallest_closed_preorder_diagnostic(
                comp, core_relation(entry, comp)).checks[0]
            assert report.check(diag.name).to_dict() == diag.to_dict()


def test_build_relation_tiles_cover_large_samples(monkeypatch):
    entry = catalog("half-open-interval")
    calls = []
    relation_matrix = type(entry.space).relation_matrix

    def counting(self, coords, other=None):
        calls.append((len(coords), None if other is None else len(other)))
        return relation_matrix(self, coords, other)

    monkeypatch.setattr(type(entry.space), "relation_matrix", counting)
    comp, report = build_compactification(entry, entry.family("default"),
                                          resolution=3000)
    assert report.passed
    step = ordtop.compactify._TILE_CELLS // 3000
    assert len(calls) == -(-3000 // step) > 1
    assert sum(rows for rows, _ in calls) == 3000
    assert {cols for _, cols in calls} == {3000}
    calls.clear()
    alone = verify_alone(entry, comp)
    for name in alone.names():
        assert report.check(name).to_dict() == alone.check(name).to_dict()
    diag = smallest_closed_preorder_diagnostic(
        comp, core_relation(entry, comp)).checks[0]
    assert report.check(diag.name).to_dict() == diag.to_dict()


def test_build_memory_stays_below_one_samples_squared_matrix():
    entry = catalog("half-open-interval")
    fam = entry.family("default", 8000)
    tracemalloc.start()
    try:
        comp, report = build_compactification(entry, fam, resolution=8000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and comp.cloud.n_samples == 8000
    assert peak < 8000 * 8000  # one samples x samples boolean matrix


# ---------------------------------------------------------------- nachbin


def test_nachbin_diagram_on_the_mirror_line():
    entry = catalog("real-line-mirror")
    report = nachbin_pipeline(entry, entry.family("default"))
    assert report.passed
    for name in ("path_a_complete", "path_b_complete",
                 "quotient_antisymmetric", "vertex_bijection",
                 "order_isomorphism", "projections_commute"):
        assert report.check(name).passed, name


def test_nachbin_diagram_trivial_quotient():
    entry = catalog("half-open-interval")
    report = nachbin_pipeline(entry, entry.family("default"))
    assert report.passed
