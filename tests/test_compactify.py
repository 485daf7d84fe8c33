"""Compactifier pipeline tests: builds, domination, extendability, diagrams.

Expected values for the catalog builds were frozen from closed-form
limits (tail coordinates of id, x^2, the mirror reciprocals) checked by
hand against the shell schedule; nothing here re-reads pipeline output.
"""

import dataclasses
import functools
import importlib
import itertools
import math
import random
import tracemalloc
import typing
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bools, packed
from ordtop.catalog import (
    CATALOG_NAMES,
    DEFAULT_TAIL_DEPTH,
    CatalogEntry,
    FunctionFamily,
    SampleSet,
    SampledSpace,
    ScalarFunction,
    catalog,
    sample_values,
)
import ordtop.compactify
from ordtop.compactify import (
    DEFAULT_EPS_Q,
    DELTA_EMBED,
    Compactification,
    DominationError,
    DominationMap,
    DominationSearch,
    _tail_limit,
    attempt_domination,
    build_compactification,
    close_and_cluster,
    dominate,
    extendability,
    i_closure,
    nachbin_pipeline,
    remainder_is_ordered,
    smallest_closed_preorder_diagnostic,
    verify_preorder_embedding,
)
from ordtop.export import transitive_reduction, write_build
from ordtop.generators import random_nested_families
from ordtop.preorder import (
    PreorderGraph,
    _lowest_bits,
    function_preorder,
    is_transitive,
    quotient_preorder,
    transitive_reflexive_closure,
)
from ordtop.report import Check, CheckReport

catalog_module = importlib.import_module("ordtop.catalog")


def build(space, selector="default", resolution=512, **kw):
    entry = catalog(space)
    fam = entry.family(selector, resolution, kw.get("tail_depth", 4))
    comp, report = build_compactification(entry, fam, resolution=resolution,
                                          **kw)
    return entry, comp, report


def cluster_sample(entry, family, resolution, tail_depth=4, **kw):
    """close_and_cluster on one sample of the entry's space."""
    return close_and_cluster(entry, family, *sample_values(
        entry.space, family, resolution, tail_depth), **kw)


def core_relation(entry, comp):
    """The space relation between the core vertices' representatives."""
    reps = comp.representatives()[:comp.n_core]
    return entry.space.relation_matrix(comp.sample.coords[reps])


def verify_alone(entry, comp):
    """verify_preorder_embedding on relations evaluated here, not gathered."""
    samples = ordtop.compactify._verify_samples(comp)
    coords = comp.sample.coords
    relations = [packed(entry.space.relation_matrix(coords[i]))
                 for i in samples]
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


def test_compactification_type_hints_resolve():
    assert typing.get_type_hints(Compactification)["entry"] is CatalogEntry


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
    assert np.array_equal(want, bools(comp.induced))
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
    comp = cluster_sample(entry, entry.family("id"), 64)
    seen = set()
    expect = 0
    for s in range(len(comp.sample.coords)):
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
    xs = comp.sample.coords[:, 0]
    assert check.witness == (name, (xs[xs > 0.5].min(),))
    top = round(1 / comp.eps_q)
    assert ((comp.quant >= 0) & (comp.quant <= top)).all()


# ------------------------------------------------- induced preorder laws


def _grid_cloud(rows, h_count, ends, c_tails):
    """(entry, family, sample, raw) of integer rows / 4, H columns first,
    then C, raw holding the rows as its columns.

    Each end (limit, signs, step, sizes) adds shells after the rows:
    shell k holds sizes[k] samples at limit / 8 + signs * step / 2**k,
    so the shell means decay geometrically onto limit / 8 (an end at 0
    or 1 strays outside [0, 1]).  The C members declare tail values
    c_tails / 4.
    """
    h = tuple(ScalarFunction(f"h{k}", lambda a: a[:, 0], monotone="isotone")
              for k in range(h_count))
    c = tuple(ScalarFunction(f"c{k}", lambda a: a[:, 0], klass="C",
                             tail_value=t / 4)
              for k, t in enumerate(c_tails))
    values = [np.array(rows, dtype=float) / 4.0]
    n = len(rows)
    tails = []
    for limit, signs, step, sizes in ends:
        shells = []
        for k, size in enumerate(sizes):
            shells.append(tuple(range(n, n + size)))
            n += size
            row = np.array(limit) / 8 + np.array(signs) * step / 2 ** k
            values.append(np.tile(row, (size, 1)))
        tails.append(tuple(shells))
    sample = SampleSet(np.arange(n, dtype=float)[:, None],
                       np.zeros(n, dtype=int), tuple(tails))
    return (catalog("closed-interval"), FunctionFamily(h, c), sample,
            np.ascontiguousarray(np.concatenate(values).T))


@st.composite
def grid_clouds(draw, min_ends=0):
    """Grid clouds with min_ends to 3 ends of 3 to 5 shells each.

    An end's limit is drawn from eighths 0, 3/8, 1/2 and 1 (3/8 sits on
    a rounding edge of the quarter grid), so its quantized limit often
    hits a core row, hits another end's limit or is new; C coordinates
    take their declared tail value whatever the samples are.  A step
    of 0.1 spreads the shells past eps_cauchy = 0.01 in H coordinates.
    """
    width = draw(st.integers(1, 4))
    h_count = draw(st.integers(0, width))
    row = st.lists(st.integers(0, 4), min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=24))
    coords = functools.partial(st.lists, min_size=width, max_size=width)
    ends = draw(st.lists(st.tuples(
        coords(st.sampled_from((0, 3, 4, 8))),
        coords(st.sampled_from((-1, 1))), st.sampled_from((1e-3, 0.1)),
        st.lists(st.integers(1, 2), min_size=3, max_size=5)),
        min_size=min_ends, max_size=3))
    c_tails = draw(st.lists(st.integers(0, 4), min_size=width - h_count,
                            max_size=width - h_count))
    return _grid_cloud(rows, h_count, ends, c_tails)


def _placement_reference(cloud, eps_q, eps_cauchy):
    """(sample_map, quant, n_core, end_map, end_info) of close_and_cluster
    from a first-occurrence dict of quantized rows as tuples, every value
    clipped to [0, 1] (NaN to 0) where it is read."""
    _, family, sample, raw = cloud

    def clip(values):
        return np.clip(np.nan_to_num(values), 0.0, 1.0)

    def key(row):
        return tuple(int(q) for q in np.rint(clip(row) / eps_q))

    names = [f"H:{f.name}" for f in family.h] + \
        [f"C:{f.name}" for f in family.c]
    ids = {}
    sample_map = [ids.setdefault(key(row), len(ids)) for row in raw.T]
    n_core = len(ids)
    end_map, end_info = [], []
    for shells in sample.tails:
        spreads, limit = zip(*(_tail_limit(f, clip(raw[j]), shells)
                               for j, f in enumerate(family.members())))
        worst = max(spreads)
        if worst > eps_cauchy:
            end_map.append(None)
            end_info.append({
                "status": "diverges", "spread": worst,
                "worst_coordinate": names[spreads.index(worst)]})
            continue
        ql = key(limit)
        if ql not in ids:
            status = "remainder"
            ids[ql] = len(ids)
        elif ids[ql] < n_core:
            status = "converges_into_core"
        else:
            status = "merged_remainder"
        end_map.append(ids[ql])
        end_info.append({"status": status, "limit": ql, "spread": worst,
                         "shells": len(shells)})
    quant = np.array(list(ids), dtype=np.int64).reshape(len(ids), len(raw))
    return sample_map, quant, n_core, end_map, end_info


def _assert_preorder(comp):
    g = comp.induced
    assert all(g.leq(i, i) for i in range(g.n))
    assert is_transitive(g)


@settings(max_examples=200, deadline=None)
@given(grid_clouds())
def test_induced_relation_is_a_preorder_on_integer_clouds(cloud):
    comp = close_and_cluster(*cloud, eps_q=0.25)
    _assert_preorder(comp)
    h = comp.quant[:, :comp.h_count]
    for i in range(comp.n_vertices):
        for j in range(comp.n_vertices):
            assert comp.induced.leq(i, j) == bool((h[i] <= h[j]).all())


# a tile of 4 values holds 1 to 4 rows, so the rows span several tiles
@pytest.mark.parametrize("cells", (1 << 20, 4), ids=("one_tile", "tiles"))
@settings(max_examples=300, deadline=None)
@given(cloud=grid_clouds(min_ends=1))
def test_vertices_and_ends_are_placed_as_the_reference_places_them(cells,
                                                                   cloud):
    with mock.patch.object(ordtop.compactify, "_TILE_CELLS", cells):
        comp = close_and_cluster(*cloud, eps_q=0.25, eps_cauchy=0.01)
    sample_map, quant, n_core, end_map, end_info = _placement_reference(
        cloud, 0.25, 0.01)
    assert comp.sample_map.tolist() == sample_map
    assert comp.quant.dtype == np.int64 and not comp.quant.flags.writeable
    assert np.array_equal(comp.quant, quant)
    assert comp.n_core == n_core
    assert comp.end_map == tuple(end_map)
    assert comp.end_info == tuple(end_info)


def test_close_and_cluster_refuses_an_eps_q_past_the_int64_quantum():
    # from 1 / eps_q = 2**63 on, rint(1.0 / eps_q) does not fit the int64
    # quant, and the cast would wrap it to INT64_MIN
    entry = catalog("half-open-interval")
    fam = entry.family("default", 64)
    sample, raw = sample_values(entry.space, fam, 64, 4)
    for eps_q in (2.0 ** -63, 1e-19, 1e-30, 5e-324, 0.0, -1e-3, math.nan):
        with pytest.raises(ValueError, match=r"1 / eps_q below 2\*\*63"):
            close_and_cluster(entry, fam, sample, raw, eps_q)
    # just inside the limit 1.0 quantizes without wrapping, every sample is
    # its own vertex and the end keeps its remainder vertex
    comp = close_and_cluster(entry, fam, sample, raw, 1.1e-19)
    assert comp.quant.min() >= 0 and comp.quant.max() > 2**62
    assert (comp.n_core, comp.n_vertices) == (64, 65)


def test_close_and_cluster_holds_one_copy_of_the_raw_values():
    # raw is quantized a row tile at a time, so past raw the peak holds
    # the quantized rows' keys and quant joined from them; after the
    # return only quant stays (nat-discrete: one vertex per sample)
    entry = catalog("nat-discrete")
    fam = entry.family("C", 512)
    tracemalloc.start()
    try:
        sample, raw = sample_values(entry.space, fam, 512, 4)
        tracemalloc.reset_peak()
        comp = close_and_cluster(entry, fam, sample, raw)
        resident, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert comp.n_core == len(sample.coords)
    assert peak <= 3.3 * raw.nbytes and resident <= 2.1 * raw.nbytes


def test_build_peaks_below_three_and_a_third_raw_sizes():
    # past raw and quant, validation's bounds are the one copy of raw a
    # build adds; at 1024 samples its packed compare's tiles, whose size
    # does not grow with the input, stay below a quarter of raw's size
    entry = catalog("nat-discrete")
    fam = entry.family("C", 1024)
    tracemalloc.start()
    try:
        comp, _ = build_compactification(entry, fam, resolution=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.3 * 8 * len(fam.members()) * len(comp.sample.coords)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(CATALOG_NAMES), st.integers(16, 96),
       st.sampled_from((DEFAULT_EPS_Q, 0.01, 0.05)))
def test_induced_relation_is_a_preorder_on_catalog_builds(name, resolution,
                                                         eps_q):
    entry = catalog(name)
    _assert_preorder(cluster_sample(entry, entry.family("default", resolution),
                                    resolution, eps_q=eps_q))


@pytest.mark.parametrize("offset", (-1, 0, 1))
def test_induced_graph_tiles_match_direct_compare(offset):
    # vertex counts around sqrt(_TILE_CELLS), across a word boundary of
    # the packed rows
    tile = math.isqrt(ordtop.preorder._TILE_CELLS)
    n = tile + offset
    rng = np.random.default_rng(n)
    # eps_q = 1e-6 puts coordinates at up to 1e6, beyond int16; the last
    # column is a C coordinate, which the order ignores
    quant = ordtop.compactify._quantize(rng.integers(0, 5, (n, 4)) / 4, 1e-6)
    h = quant[:, :3]
    direct = (h[:, None, :] <= h[None, :, :]).all(axis=2)
    got = ordtop.compactify._induced_graph(quant, 3)
    assert np.array_equal(bools(got), direct)


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
    with mock.patch.object(ordtop.preorder, "_TILE_CELLS", cells):
        got = ordtop.compactify._induced_graph(quant, h)
    assert got.rows == PreorderGraph.from_matrix(direct).rows
    assert np.array_equal(bools(got), direct)


def condense(comp):
    """Oracle for quotient_preorder(comp.induced) from the quantized
    H-parts alone: (relation, classes), the classes being the groups of
    equal H rows ordered by least member, and the relation coordinate-
    wise <= over one H row per class."""
    h = comp.quant[:, :comp.h_count]
    groups = {}
    for v, row in enumerate(h.tolist()):
        groups.setdefault(tuple(row), []).append(v)
    classes = sorted(map(tuple, groups.values()))
    reps = h[[members[0] for members in classes]]
    return (reps[:, None] <= reps[None]).all(axis=2), tuple(classes)


def _assert_condense_matches_quotient_preorder(comp):
    leq, classes = condense(comp)
    qgraph, part = quotient_preorder(comp.induced)
    assert part == classes
    assert np.array_equal(bools(qgraph), leq)


@settings(max_examples=100, deadline=None)
@given(grid_clouds())
def test_condense_matches_quotient_preorder_on_integer_clouds(cloud):
    # C columns split vertices whose H-parts are equal: non-singleton classes
    _assert_condense_matches_quotient_preorder(
        close_and_cluster(*cloud, eps_q=0.25))


@pytest.mark.parametrize("space,selector", (
    ("real-line-mirror", "default"), ("real-line-mirror", "exp2"),
    ("misner-strip", "default"), ("nat-discrete", "Cminus")))
def test_condense_matches_quotient_preorder_on_builds(space, selector):
    _assert_condense_matches_quotient_preorder(
        build(space, selector, resolution=97)[1])


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
        smallest_closed_preorder_diagnostic(
            comp, packed(core_relation(entry, comp)))


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


def test_dominate_tells_quanta_below_1e_15_apart():
    # quanta are compared exactly: two below 1e-15 are no longer taken as
    # one and then refused for a projection farther than one quantum
    entry = catalog("half-open-interval")
    comps = [build_compactification(entry, entry.family("id", 64),
                                    resolution=64, eps_q=eps)[0]
             for eps in (1e-16, 5e-16)]
    for a, b in (comps, comps[::-1]):
        with pytest.raises(DominationError) as exc:
            dominate(a, b)
        assert str(exc.value) == "builds use different quanta"
    assert all(dominate(c, c).ok for c in comps)


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


def test_build_relation_stays_packed(unpacks, monkeypatch, tmp_path):
    # a misner build, its verify and its export never unpack the whole
    # relation, and make no int rows; attempt_domination unpacks each of
    # its two graphs once per call; the diagnostic, dominate and i_closure
    # leave the half-open builds' relations packed
    def whole(graphs):  # ids of the unpacked words that are graphs' own
        own = {id(g.packed) for g in graphs}
        return [id(p) for p in unpacks if id(p) in own]

    # the diagnostic takes its closure path here: past its budget a build
    # skips it, and when called it seeds and closes the relation's words
    monkeypatch.setattr(ordtop.compactify, "DIAGNOSTIC_BUDGET", 0)
    misner = catalog("misner-strip")
    comp, report = build_compactification(
        misner, misner.family("default", 256), resolution=256)
    write_build(comp, report, str(tmp_path / "misner"))
    assert comp.n_vertices == 257 and whole([comp.induced]) == []
    assert "rows" not in vars(comp.induced)
    smallest_closed_preorder_diagnostic(
        comp, packed(core_relation(misner, comp)))
    assert whole([comp.induced]) == []
    # rows read later, as a digest does, are the words' rows
    want = tuple(sum(1 << int(j) for j in np.flatnonzero(row))
                 for row in bools(comp.induced))
    assert comp.induced.rows == want

    monkeypatch.setattr(ordtop.compactify, "DIAGNOSTIC_BUDGET", 1500)
    nat = catalog("nat-discrete")
    comps = [build_compactification(nat, nat.family(sel, 32),
                                    resolution=32)[0]
             for sel in ("C", "Cminus", "Cplus")]
    half = catalog("half-open-interval")
    inner, outer = (build_compactification(half, half.family(names, 64),
                                           resolution=64)
                    for names in ("id", "id,sq"))
    write_build(*outer, str(tmp_path / "outer"))
    inner, outer = inner[0], outer[0]
    assert all(c.complete for c in comps + [inner, outer])
    assert whole([inner.induced, outer.induced]) == []
    for a in comps:
        for b in comps:
            unpacks.clear()
            attempt_domination(a, b)
            assert whole([c.induced for c in comps]) == [
                id(a.induced.packed), id(b.induced.packed)]
    assert dominate(outer, inner).ok
    pool = [half.pool[k] for k in ("id", "sq", "cube", "sqrt")]
    for comp in (inner, outer):
        i_closure(half, comp, pool)
    assert whole([inner.induced, outer.induced]) == []


def test_misner_build_and_export_hold_no_relation_matrix(tmp_path):
    # a vertices^2 bool matrix is 16 MiB here: the build, its verify and
    # its export hold none, only packed rows of 1/8 that size
    entry = catalog("misner-strip")
    fam = entry.family("default", 4096)
    tracemalloc.start()
    try:
        comp, report = build_compactification(entry, fam, resolution=4096)
        write_build(comp, report, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert comp.n_vertices == 4097 and report.passed
    assert peak < 40 * 2**20


def test_builds_off_a_linear_extension_hold_no_relation_matrix(
        tmp_path, monkeypatch, unpacks):
    # real-line-mirror's vertex ids are not a linear extension, so the
    # Hasse reduction permutes its words; it, the quotient, domination and
    # extendability's isotone compare restrict the packed relation and
    # never unpack the whole of it (the diagnostic's closure does)
    monkeypatch.setattr(ordtop.compactify, "DIAGNOSTIC_BUDGET", 0)
    entry = catalog("real-line-mirror")
    comp, report = build_compactification(
        entry, entry.family("default", 4096), resolution=4096)
    graph = comp.induced
    ids = np.arange(graph.n)
    assert np.count_nonzero(_lowest_bits(graph.packed) < ids) == 264
    write_build(comp, report, str(tmp_path))
    assert dominate(comp, comp).ok
    assert extendability(entry, comp, entry.pool["invmod"])
    assert transitive_reduction(quotient_preorder(graph)[0])
    assert not any(p is graph.packed for p in unpacks)


def test_relation_is_read_only():
    # however a graph is made and whatever is read of it, it holds its
    # relation as int rows or read-only words, never as a bool array;
    # 125 vertices take the packed closure and products
    entry, comp, _ = build("half-open-interval", "id", resolution=128)
    graph = comp.induced
    assert graph.n > ordtop.preorder._NUMPY_CUTOVER
    same = (graph, PreorderGraph(graph.n, graph.rows),
            PreorderGraph.from_packed(graph.packed.copy()),
            PreorderGraph.from_matrix(bools(graph)),
            function_preorder(comp.quant[:, :1].T),
            transitive_reflexive_closure(graph))
    for g in same + (transitive_reflexive_closure(PreorderGraph.diagonal(5)),):
        assert is_transitive(g) and g.rows and g.pair_count()
        assert quotient_preorder(g)[0].n == g.restrict(range(g.n)).n == g.n
        assert not any(isinstance(v, np.ndarray) and v.dtype == bool
                       for v in vars(g).values())
        assert not g.packed.flags.writeable
        with pytest.raises(ValueError):
            g.packed[0, 0] = 0
    assert all(np.array_equal(g.packed, graph.packed) for g in same)


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
    m2 = bools(comp2.induced)
    m1 = bools(comp1.induced)
    remainder2 = comp2.remainder_ids()
    target_rem = set(comp1.remainder_ids())

    def check(vertex_map):
        vm = np.asarray(vertex_map, dtype=int)
        same_samples = np.array_equal(vm[comp2.sample_map], comp1.sample_map)
        witness = None
        if not same_samples:
            i = int(np.argmax(vm[comp2.sample_map] != comp1.sample_map))
            witness = (i, tuple(comp2.sample.coords[i].tolist()))
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
    changed = np.argwhere(bools(source.induced)
                          != bools(comp.induced)).tolist()
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


def test_search_rejects_builds_sampling_other_points_of_equal_count():
    # tail depth 5 against 4: 512 samples each, the second one differs
    entry = catalog("half-open-interval")
    comps = [build_compactification(entry, entry.family(sel, 512),
                                    resolution=512, tail_depth=depth)[0]
             for sel, depth in (("id,sq", 5), ("id", 4))]
    a, b = (comp.sample.coords.tolist() for comp in comps)
    assert len(a) == len(b) == 512 and a[0] == b[0] and a[1] != b[1]
    message = (f"builds sample different point sets (sample 1 at "
               f"{tuple(a[1])} vs {tuple(b[1])})")
    for attempt in (attempt_domination, dominate):
        with pytest.raises(DominationError) as exc:
            attempt(*comps)
        assert str(exc.value) == message


def with_remainder(comp, count):
    """comp with its last `count` vertices relabelled as remainder."""
    return dataclasses.replace(comp, n_core=comp.n_vertices - count)


def test_search_budgets_name_their_limit(monkeypatch):
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
    monkeypatch.setattr(ordtop.compactify, "SEARCH_CAP", n - 1)
    with pytest.raises(DominationError) as exc:
        attempt_domination(comp, comp)
    assert str(exc.value) == (
        f"{n} candidate maps exceed the exhaustive search cap of {n - 1}")
    monkeypatch.setattr(ordtop.compactify, "SEARCH_CAP", n)
    assert attempt_domination(comp, comp).found is not None


def test_search_without_remainder_has_one_candidate(monkeypatch):
    entry = catalog("closed-interval")
    comp, _ = build_compactification(entry, entry.family("id", 32),
                                     resolution=32)
    assert comp.remainder_ids() == ()
    # n_b ** 0 = 1 candidate map, however many target vertices there are
    monkeypatch.setattr(ordtop.compactify, "SEARCH_CAP", 1)
    search = attempt_domination(comp, comp)
    assert search.found is not None and search.candidates == ()
    monkeypatch.setattr(ordtop.compactify, "SEARCH_CAP", 0)
    with pytest.raises(DominationError, match="1 candidate maps exceed"):
        attempt_domination(comp, comp)


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


def test_nan_tail_is_not_cauchy():
    # a NaN spread must fail the Cauchy test, not reach the clamped limit
    entry, comp, _ = build("half-open-interval", "id", resolution=64)
    f = ScalarFunction(
        "nan_tail", lambda a: np.where(a[:, 0] > 0.99, np.nan, a[:, 0]),
        monotone="isotone")
    res = extendability(entry, comp, f)
    assert not res
    assert res.reason == "tail of end 0 is not Cauchy for nan_tail: spread nan"


def isotone_oracle(comp, f):
    """extendability's last step as a float compare on the n x n matrix,
    for a function whose tails pass: (extendable, values, reason)."""
    vals = f.evaluate(comp.sample.coords)
    n, eps = comp.n_vertices, comp.eps_cauchy
    counts = np.bincount(comp.sample_map, minlength=n)
    with np.errstate(invalid="ignore"):
        full = np.where(counts > 0, np.bincount(
            comp.sample_map, vals, n) / np.maximum(counts, 1), 0.0)
    extension = {}
    for shells, vid in zip(comp.sample.tails, comp.end_map):
        if vid >= comp.n_core:
            extension.setdefault(vid, _tail_limit(f, vals, shells)[1])
    for vid, value in extension.items():
        full[vid] = value
    bad = bools(comp.induced) & (full[:, None] > full[None, :] + eps)
    if not bad.any():
        return True, extension, ""
    u, v = divmod(int(np.argmax(bad)), n)
    return False, {}, (f"extension of {f.name} breaks isotonicity between "
                       f"vertices {u} and {v}")


@pytest.mark.parametrize("dip", (False, True))
def test_a_nan_value_breaks_no_isotonicity(dip):
    # a core vertex whose mean is NaN: compared with NaN, no pair breaks
    # isotonicity, in the packed compare as in the float one; a dip adds
    # real breaks, and the row-major first of them is the witness
    entry, comp, _ = build("half-open-interval", "id", resolution=256)
    x = comp.sample.coords[:, 0]
    nan_at = int(np.argmin(np.abs(x - 0.1)))

    def fn(a):  # a is the build's sample, as extendability reads it
        out = a[:, 0].copy()
        if dip:
            out[(out > 0.3) & (out < 0.4)] = 0.0
        out[nan_at] = np.nan
        return out

    f = ScalarFunction("nan_at_one", fn, monotone="isotone")
    res = extendability(entry, comp, f)
    assert (res.extendable, res.values, res.reason) == \
        isotone_oracle(comp, f)
    assert res.extendable != dip


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
    for f in comp.family.h:
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
            comp, packed(core_relation(entry, comp)))
        check = report.check("induced_equals_smallest_closure")
        assert check.passed, (space, check.metrics)
        assert check.metrics["excess_pairs"] == 0


def reference_diagnostic(comp, core_rel):
    """The diagnostic as the closure of the bool seed, always computed by
    Warshall's sweep, its witness the first 20 of np.argwhere."""
    n_core, ind = comp.n_core, bools(comp.induced)
    fix = np.eye(comp.n_vertices, dtype=bool)
    fix[:n_core, :n_core] |= core_rel
    fix[n_core:] = ind[n_core:]
    fix[:, n_core:] = ind[:, n_core:]
    for k in range(len(fix)):
        fix |= fix[:, k:k + 1] & fix[k]
    excess = ind & ~fix
    witness = [tuple(map(int, p)) for p in np.argwhere(excess)[:20]] or None
    return CheckReport((Check(
        "induced_equals_smallest_closure", not excess.any(), witness=witness,
        metrics={"induced_pairs": int(np.count_nonzero(ind)),
                 "closure_pairs": int(np.count_nonzero(fix)),
                 "excess_pairs": int(np.count_nonzero(excess))},
    ),))


@functools.lru_cache(maxsize=None)
def cached_build(space, selector, resolution):
    """build, once per argument triple across hypothesis examples."""
    return build(space, selector, resolution=resolution)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from((("half-open-interval", "default"),
                             ("closed-interval", "default"),
                             ("real-line-mirror", "default"),
                             ("nat-discrete", "default"),
                             ("misner-strip", "default"),
                             ("misner-strip", "arc000"))),
       resolution=st.integers(16, 128),
       flips=st.lists(st.tuples(st.integers(0, 999), st.integers(0, 999)),
                      max_size=4))
def test_diagnostic_matches_the_seed_closure(case, resolution, flips):
    # the true core relation takes the equality shortcut where it equals
    # the induced core block; off-diagonal flips force the closure
    entry, comp, _ = cached_build(*case, resolution)
    assert comp.complete
    rel = core_relation(entry, comp)
    for i, j in flips:
        i, j = i % comp.n_core, j % comp.n_core
        if i != j:
            rel[i, j] ^= True
    got = smallest_closed_preorder_diagnostic(comp, packed(rel))
    assert got.to_dict() == reference_diagnostic(comp, rel).to_dict()


def test_diagnostic_witness_is_the_first_twenty_excess_pairs():
    # 8 chains of 4 points, the last one remainder, over a diagonal core
    # relation: 42 excess pairs, 3 to a chain, the first 20 over 10 rows
    n, n_core = 32, 28
    block = np.triu(np.ones((4, 4), dtype=bool))
    ind = np.kron(np.eye(8, dtype=bool), block)
    comp = SimpleNamespace(complete=True, n_core=n_core, n_vertices=n,
                           induced=PreorderGraph.from_packed(packed(ind)))
    rel = np.eye(n_core, dtype=bool)
    check = smallest_closed_preorder_diagnostic(comp, packed(rel)).checks[0]
    excess = ind.copy()
    excess[:n_core, :n_core] &= ~rel
    want = [tuple(map(int, p)) for p in np.argwhere(excess)[:20]]
    assert check.metrics["excess_pairs"] == 42
    assert check.witness == want
    assert len({i for i, _ in want}) == 10
    assert check.to_dict() \
        == reference_diagnostic(comp, rel).checks[0].to_dict()


def test_diagnostic_seed_keeps_the_diagonal_of_a_core_relation():
    # the closure path ORs the core relation into the diagonal: a loop
    # missing from core_rel is still in the seed, so it is no excess
    entry, comp, _ = build("closed-interval", resolution=16)
    rel = core_relation(entry, comp)
    rel[3, 3] = False
    check = smallest_closed_preorder_diagnostic(comp, packed(rel)).checks[0]
    assert check.passed and check.witness is None
    assert check.metrics == {"induced_pairs": 136, "closure_pairs": 136,
                             "excess_pairs": 0}
    assert check.to_dict() \
        == reference_diagnostic(comp, rel).checks[0].to_dict()


def test_diagnostic_closes_only_a_seed_unlike_the_induced_order(monkeypatch,
                                                                unpacks):
    calls = []
    closure = ordtop.compactify.transitive_reflexive_closure

    def counting(graph):
        calls.append(graph.n)
        return closure(graph)

    monkeypatch.setattr(ordtop.compactify, "transitive_reflexive_closure",
                        counting)
    entry, comp, report = build("closed-interval", "id,sq", resolution=256)
    assert report.check("induced_equals_smallest_closure").passed
    assert calls == [] and unpacks == []

    entry, comp, report = build("misner-strip", "arc000", resolution=32)
    check = report.check("induced_equals_smallest_closure")
    assert calls == [comp.n_vertices]
    assert not check.passed
    assert check.metrics == {"induced_pairs": 105, "closure_pairs": 64,
                             "excess_pairs": 41}
    rel = core_relation(entry, comp)
    assert check.to_dict() \
        == reference_diagnostic(comp, rel).checks[0].to_dict()


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
    relations = [packed(np.ones((len(s), len(s)), dtype=bool))
                 for s in samples]
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
    coords, ind = comp.sample.coords, bools(comp.induced)
    space_rel = [entry.space.relation_matrix(coords[s]) for s in samples]
    ind_core = ind[:comp.n_core, :comp.n_core]
    i, j = np.argwhere(space_rel[0] != ind_core)[0]
    vertex = verify_preorder_embedding(
        comp, samples, [packed(r) for r in space_rel]).check(
        "vertex_order_matches_space")
    assert vertex.witness == (tuple(coords[reps[i]].tolist()),
                              tuple(coords[reps[j]].tolist()),
                              "induced" if ind_core[i, j] else "missing")
    # every sampled pair related in the space: the induced order misses some
    related = [packed(np.ones((len(s), len(s)), dtype=bool))
               for s in samples]
    sub_map = comp.sample_map[idx]
    i, j = np.argwhere(~ind[np.ix_(sub_map, sub_map)])[0]
    sampled = verify_preorder_embedding(comp, samples, related).check(
        "sampled_relation_preserved")
    assert sampled.witness == (tuple(coords[idx[i]].tolist()),
                               tuple(coords[idx[j]].tolist()))


def reference_verify(comp, samples, relations):
    """verify_preorder_embedding on the induced order's bool matrix."""
    coords, ind = comp.sample.coords, bools(comp.induced)
    (reps, idx), (rel, sub_rel) = samples, relations
    ind_core = ind[:comp.n_core, :comp.n_core]
    mism = rel != ind_core
    count = int(np.count_nonzero(mism))
    witness = None
    if count:
        i, j = divmod(int(np.argmax(mism)), mism.shape[1])
        witness = (tuple(coords[reps[i]].tolist()),
                   tuple(coords[reps[j]].tolist()),
                   "induced" if ind_core[i, j] else "missing")
    rate = count / mism.size if mism.size else 0.0
    sub_map = comp.sample_map[idx]
    viol = sub_rel & ~ind.take(sub_map, 0).take(sub_map, 1)
    count2 = int(np.count_nonzero(viol))
    witness2 = None
    if count2:
        i, j = divmod(int(np.argmax(viol)), viol.shape[1])
        witness2 = (tuple(coords[idx[i]].tolist()),
                    tuple(coords[idx[j]].tolist()))
    rate2 = count2 / viol.size if viol.size else 0.0
    return CheckReport((
        Check("vertex_order_matches_space", rate <= DELTA_EMBED,
              witness=witness, metrics={"violations": count,
                                        "pairs": mism.size, "rate": rate}),
        Check("sampled_relation_preserved", rate2 <= DELTA_EMBED,
              witness=witness2, metrics={"violations": count2,
                                         "pairs": int(viol.size),
                                         "rate": rate2})))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 150), st.integers(0, 20), st.integers(0, 2**32 - 1),
       st.sampled_from((0.0, 0.002, 0.3)), st.sampled_from((64, 1 << 20)))
def test_packed_verify_matches_the_matrix_reference(n_core, n_rem, seed,
                                                    flip, cells):
    # random relations, the space's a few flips off the induced order's
    rng = np.random.default_rng(seed)
    n = n_core + n_rem
    ind = (rng.random((n, n)) < rng.random()) | np.eye(n, dtype=bool)
    induced = PreorderGraph.from_packed(
        PreorderGraph.from_matrix(ind).packed.copy())
    n_samples = n_core + int(rng.integers(0, 40))
    sample_map = rng.integers(0, n_core, n_samples)
    sample_map[:n_core] = np.arange(n_core)
    reps = np.arange(n_core)
    idx = np.sort(rng.choice(n_samples, int(rng.integers(0, n_samples + 1)),
                             replace=False))
    comp = SimpleNamespace(
        sample=SimpleNamespace(coords=rng.random((n_samples, 2))),
        induced=induced, n_core=n_core, sample_map=sample_map)
    rel = ind[:n_core, :n_core] ^ (rng.random((n_core, n_core)) < flip)
    sub = ind[np.ix_(sample_map[idx], sample_map[idx])]
    sub_rel = sub | (rng.random(sub.shape) < flip)
    samples = (reps, idx)
    with mock.patch.object(ordtop.preorder, "_TILE_CELLS", cells), \
            mock.patch.object(ordtop.preorder, "_unpack_rows",
                              wraps=ordtop.preorder._unpack_rows) as unpack:
        got = verify_preorder_embedding(comp, samples,
                                        (packed(rel), packed(sub_rel)))
    # restrict unpacks gathered row tiles, never the whole relation
    assert not any(c.args[0] is induced.packed for c in unpack.call_args_list)
    assert got == reference_verify(comp, samples, (rel, sub_rel))


def relation_tiles(monkeypatch, space):
    """(tiles, calls): the (rows, cols) of each relation tile validation
    makes from here on, and of each relation_matrix call.  Misner's tiles
    are its relation_matrix calls; a key space's are the lookups of its
    keys into the key tables of a column block."""
    tiles, calls = [], []
    cls = type(space)
    relation_matrix, keys_of = cls.relation_matrix, cls._keys

    def counting(self, coords, other=None):
        calls.append((len(coords), len(coords if other is None else other)))
        return relation_matrix(self, coords, other)

    monkeypatch.setattr(cls, "relation_matrix", counting)
    if keys_of is SampledSpace._keys:
        return calls, calls
    keys, widths = [], []
    tables, lookup = catalog_module._leq_tables, catalog_module._leq_lookup

    def kept(self, coords):
        keys.append(keys_of(self, coords))
        return keys[-1]

    def tabled(bounds, n):
        if keys and np.shares_memory(bounds, keys[-1]):
            widths.append(bounds.shape[1])
        return tables(bounds, n)

    def looked_up(batches, values):
        if keys and np.shares_memory(values, keys[-1]):
            tiles.append((values.shape[1], widths[-1]))
        return lookup(batches, values)

    monkeypatch.setattr(cls, "_keys", kept)
    monkeypatch.setattr(catalog_module, "_leq_tables", tabled)
    monkeypatch.setattr(catalog_module, "_leq_lookup", looked_up)
    return tiles, calls


@pytest.mark.parametrize("space", ("real-line-mirror", "misner-strip",
                                   "nat-discrete"))
def test_build_verifies_from_the_validation_relation(space, monkeypatch):
    entry = catalog(space)
    fam = entry.family("default", 256)
    tiles, calls = relation_tiles(monkeypatch, entry.space)
    for budget in (0, 1500):  # without and with the diagnostic
        tiles.clear()
        calls.clear()
        monkeypatch.setattr(ordtop.compactify, "DIAGNOSTIC_BUDGET", budget)
        comp, report = build_compactification(entry, fam, resolution=256)
        # validation's row tiles are the only relation it makes: they
        # cover every sample once, each against all samples; a key space
        # calls no relation_matrix
        n = len(comp.sample.coords)
        assert tiles and sum(rows for rows, _ in tiles) == n
        assert all(cols == n for _, cols in tiles)
        assert calls == (tiles if space == "misner-strip" else [])
        # the gathered relation gives what verify's own relation gives
        alone = verify_alone(entry, comp)
        for name in alone.names():
            assert report.check(name).to_dict() == alone.check(name).to_dict()
        if budget and comp.complete:
            diag = smallest_closed_preorder_diagnostic(
                comp, packed(core_relation(entry, comp))).checks[0]
            assert report.check(diag.name).to_dict() == diag.to_dict()


def test_build_relation_tiles_cover_large_samples(monkeypatch):
    entry = catalog("half-open-interval")
    tiles, _ = relation_tiles(monkeypatch, entry.space)

    def refused(self, coords, other=None):
        raise AssertionError("a key space's build called relation_matrix")

    with monkeypatch.context() as patch:
        patch.setattr(type(entry.space), "relation_matrix", refused)
        comp, report = build_compactification(
            entry, entry.family("default"), resolution=3000)
    assert report.passed
    step = catalog_module._TILE_CELLS // 3000
    assert len(tiles) == -(-3000 // step) > 1
    assert sum(rows for rows, _ in tiles) == 3000
    assert {cols for _, cols in tiles} == {3000}
    alone = verify_alone(entry, comp)
    for name in alone.names():
        assert report.check(name).to_dict() == alone.check(name).to_dict()
    diag = smallest_closed_preorder_diagnostic(
        comp, packed(core_relation(entry, comp))).checks[0]
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
    assert report.passed and len(comp.sample.coords) == 8000
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


# C-class, so it leaves the induced order alone, but x and -x get
# different vertices and the mirror line's classes merge
SIGN = ScalarFunction(
    "sign", lambda a: 0.5 + 0.5 * np.sign(a[:, 0]) * (np.abs(a[:, 0]) < 100),
    klass="C", tail_value=0.5)


def nachbin_case(case, monkeypatch):
    """nachbin_pipeline(...) at resolution 32 on the mirror line (on a
    half-open build that diverges for "incomplete"), one piece patched."""
    entry = catalog("real-line-mirror")
    family = entry.family("default", 32)
    ray, project = entry.quotient_data()
    first = tuple(ray.space.sample(32, DEFAULT_TAIL_DEPTH).coords[0].tolist())
    quotients = {
        "projection off the samples": (ray, lambda c: (-1.0 - abs(c[0]),)),
        "one projected sample": (ray, lambda c: first),
        "quotient not taken": (catalog("real-line-mirror"), project),
        "classes without partner": (catalog("closed-interval"), project),
    }
    if case == "incomplete":
        entry = catalog("half-open-interval")
        family = entry.family("id,pow64", 32)
    elif case == "no H-part":
        family = FunctionFamily((), family.c)
    elif case != "mirror line":
        family = FunctionFamily(family.h, family.c + (SIGN,))
    if case in quotients:
        monkeypatch.setattr(entry, "quotient_data", lambda: quotients[case])
    elif case not in ("mirror line", "incomplete", "no H-part", "sign"):
        real = ordtop.compactify.quotient_preorder

        def patched(graph):
            q, classes = real(graph)
            if case == "one class":
                return PreorderGraph.full(1), (tuple(range(graph.n)),)
            if case == "every class a singleton":
                return graph, tuple((v,) for v in range(graph.n))
            return PreorderGraph.from_matrix(bools(q).T), classes

        monkeypatch.setattr(ordtop.compactify, "quotient_preorder", patched)
    return nachbin_pipeline(entry, family, resolution=32)


_NACHBIN_CHECKS = ("path_a_complete", "path_b_complete",
                   "quotient_antisymmetric", "classes_share_h_coordinates",
                   "vertex_bijection", "order_isomorphism",
                   "projections_commute")


def nachbin_dict(classes=16, quotient_vertices=16, **failing):
    """A nachbin report's to_dict(): every check passes but those in
    failing (name -> witness), and none follows a failing path or
    vertex_bijection check."""
    checks = []
    for name in _NACHBIN_CHECKS:
        check = {"name": name, "passed": name not in failing}
        if name in failing:
            check["witness"] = failing[name]
        if name == "vertex_bijection":
            check["metrics"] = {"classes": classes,
                                "quotient_vertices": quotient_vertices}
        checks.append(check)
        if name in failing and name in ("path_b_complete", "vertex_bijection"):
            break
    return {"passed": not failing, "checks": checks}


_DIVERGES = [{"status": "diverges", "worst_coordinate": "H:pow64",
              "spread": 0.22288794809029688}]

# each report as the pipeline gave it before the classes and the quotient
# build were keyed by _row_keys, but for "every class a singleton", which
# then passed vertex_bijection with more classes than quotient vertices
NACHBIN_REPORTS = {
    "mirror line": nachbin_dict(),
    "incomplete": nachbin_dict(path_a_complete=_DIVERGES,
                               path_b_complete=_DIVERGES),
    "no H-part": nachbin_dict(1, 1),
    "sign": nachbin_dict(),
    "projection off the samples": nachbin_dict(projections_commute=[
        [0.0], "projection not among quotient samples"]),
    "one projected sample": nachbin_dict(
        projections_commute=[[8.727272727272727], 1, 0]),
    "quotient not taken": nachbin_dict(16, 27, vertex_bijection=(
        "duplicate H-vectors among quotient vertices")),
    "classes without partner": nachbin_dict(16, 32, vertex_bijection=[
        "class without partner", 1, [103]]),
    "one class": nachbin_dict(1, 16,
                              classes_share_h_coordinates="mixed class",
                              vertex_bijection="counts differ"),
    # 27 classes onto 16 quotient vertices: not injective
    "every class a singleton": nachbin_dict(27, 16,
                                            quotient_antisymmetric=[1, 2],
                                            vertex_bijection="counts differ"),
    "reversed quotient": nachbin_dict(order_isomorphism=[0, 1]),
}


@pytest.mark.parametrize("case", NACHBIN_REPORTS)
def test_nachbin_reports_are_pinned(case, monkeypatch):
    report = nachbin_case(case, monkeypatch)
    assert report.to_dict() == NACHBIN_REPORTS[case]
