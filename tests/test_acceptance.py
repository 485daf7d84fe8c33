"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints a one-line verdict so a bare `pytest -s` run reads as a
checklist.  Expected structures (remainder counts, order shapes, limits)
were derived by hand from the catalog definitions; the random suites are
seeded and the time budgets generous on desk hardware.
"""

import functools
import subprocess
import sys
import time

import numpy as np

from conftest import bools
from ordtop.catalog import catalog
from ordtop.compactify import (
    attempt_domination,
    build_compactification,
    dominate,
    i_closure,
    nachbin_pipeline,
    remainder_is_ordered,
)
from ordtop.finite_space import (
    FinitePreorderedSpace,
    graph_is_closed,
    is_T1_preordered,
    quotient_space,
    smallest_closed_preorder,
)
from ordtop.generators import (
    random_finite_space,
    random_nested_families,
    space_stream,
)
from ordtop.preorder import PreorderGraph, is_antisymmetric
import random


def verdict(n, label):
    print(f"[acceptance] criterion {n}: PASS ({label})")


def build(space, selector="default", resolution=512, **kw):
    entry = catalog(space)
    fam = entry.family(selector, resolution, kw.get("tail_depth", 4))
    return entry, *build_compactification(entry, fam, resolution=resolution,
                                          **kw)


def test_c01_half_open_interval_gains_exactly_the_top_point():
    t0 = time.perf_counter()
    entry, comp, report = build("half-open-interval", "id",
                                resolution=10_000, eps_q=1e-3)
    elapsed = time.perf_counter() - t0
    rems = comp.remainder_ids()
    assert len(rems) == 1
    r = rems[0]
    id_col = comp.names.index("H:id")
    assert comp.quant[r, id_col] == 1000  # quantized coordinate 1.000
    others = [v for v in range(comp.n_vertices) if v != r]
    assert all(comp.induced.leq(v, r) for v in others)
    assert not any(comp.induced.leq(r, v) for v in others)
    v = report.check("vertex_order_matches_space")
    s = report.check("sampled_relation_preserved")
    assert v.metrics["violations"] == 0
    assert s.metrics["violations"] == 0
    assert elapsed < 2.0, f"{elapsed:.2f}s"
    verdict(1, f"1 remainder at 1.000, 0 violations, {elapsed:.2f}s")


def test_c02_compact_interval_compactifies_to_itself():
    entry, comp, report = build("closed-interval")
    assert comp.remainder_ids() == ()
    reps = comp.representatives()
    sample = entry.space.sample(512, 4)
    want = entry.space.relation_matrix(sample.coords[reps])
    assert np.array_equal(want, bools(comp.induced))
    verdict(2, "0 remainder vertices, induced order = sampled order")


def test_c03_one_point_suite_on_the_naturals():
    full = (1 << 97) - 1  # 96 core vertices + 1 remainder
    for sel, want_row, want_col in (
            ("C", "self", "self"),        # incomparable to everything
            ("Cminus", "all", "self"),    # below all
            ("Cplus", "self", "all")):    # above all
        entry, comp, report = build("nat-discrete", sel, resolution=96)
        assert report.passed, sel
        rems = comp.remainder_ids()
        assert len(rems) == 1, sel
        r = rems[0]
        row = comp.induced.rows[r]
        col = sum(1 << v for v in range(comp.n_vertices)
                  if comp.induced.leq(v, r))
        assert row == (full if want_row == "all" else 1 << r), sel
        assert col == (full if want_col == "all" else 1 << r), sel
    verdict(3, "C incomparable, Cminus bottom, Cplus top")


def test_c04_no_smallest_one_point_compactification():
    t0 = time.perf_counter()
    entry = catalog("nat-discrete")
    comps = {}
    for sel in ("C", "Cminus", "Cplus"):
        comps[sel], _ = build_compactification(
            entry, entry.family(sel, 96), resolution=96)
    assert attempt_domination(comps["C"], comps["Cminus"]).found is not None
    assert attempt_domination(comps["C"], comps["Cplus"]).found is not None
    down = attempt_domination(comps["Cminus"], comps["Cplus"])
    up = attempt_domination(comps["Cplus"], comps["Cminus"])
    assert down.found is None and len(down.candidates) > 0
    assert up.found is None and len(up.candidates) > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    verdict(4, f"C covers both; neither one-point build dominates the "
               f"other, {elapsed:.2f}s")


def test_c05_remainders_are_ordered_on_every_catalog_build():
    seen = []
    for name in ("half-open-interval", "closed-interval", "nat-discrete",
                 "real-line-mirror"):
        entry, comp, _ = build(name)
        assert comp.complete, name
        assert remainder_is_ordered(comp).passed, name
        seen.append(f"{name}:{len(comp.remainder_ids())}")
    entry, comp, _ = build("misner-strip", resolution=4096)
    assert comp.complete
    assert remainder_is_ordered(comp).passed
    sample = entry.space.sample(4096, 4)
    thetas = set(sample.coords[:, 1].tolist())
    assert len(thetas) == 64  # 64 x 64 grid as promised
    seen.append(f"misner-strip(64x64):{len(comp.remainder_ids())}")
    verdict(5, "antisymmetric remainders on " + ", ".join(seen))


def test_c06_nested_families_dominate():
    entry = catalog("half-open-interval")
    c1, _ = build_compactification(entry, entry.family("id"))
    c2, _ = build_compactification(entry, entry.family("id,sq"))
    result = dominate(c2, c1)
    assert result.report.check("commutes_on_samples").passed
    assert result.report.check("isotone").passed
    assert result.report.check("remainder_to_remainder").passed

    failures = 0
    for entry, inner, outer, res in random_nested_families(0, 100):
        ci, _ = build_compactification(
            entry, entry.family(",".join(inner), res), resolution=res)
        co, _ = build_compactification(
            entry, entry.family(",".join(outer), res), resolution=res)
        if not (ci.complete and co.complete and dominate(co, ci).ok):
            failures += 1
    assert failures == 0
    verdict(6, "{id} < {id,sq} plus 100 random nested pairs, 0 failures")


# ---------------------------------------------------------------- tier 1


@functools.lru_cache(maxsize=None)
def _all_preorder_masks(n):
    """Every reflexive transitive relation on n points as an n*n bitmask."""
    diag = sum(1 << (i * n + i) for i in range(n))
    out = []
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for pick in range(1 << len(off)):
        mask = diag
        for b, (i, j) in enumerate(off):
            if pick >> b & 1:
                mask |= 1 << (i * n + j)
        rows = [(mask >> (i * n)) & ((1 << n) - 1) for i in range(n)]
        ok = True
        for i in range(n):
            m = rows[i]
            acc = m
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                acc |= rows[j]
            if acc != rows[i]:
                ok = False
                break
        if ok:
            out.append(mask)
    return tuple(out)


def _oracle_smallest_closed(top, seed_pairs):
    """Intersection of every closed preorder containing the seeds."""
    n = top.n
    seed_mask = sum(1 << (i * n + i) for i in range(n))
    for i, j in seed_pairs:
        seed_mask |= 1 << (i * n + j)
    best = (1 << (n * n)) - 1
    for mask in _all_preorder_masks(n):
        if mask & seed_mask != seed_mask:
            continue
        rows = tuple((mask >> (i * n)) & ((1 << n) - 1) for i in range(n))
        space = FinitePreorderedSpace(top, PreorderGraph(n, rows))
        if graph_is_closed(space).passed:
            best &= mask
    return tuple((best >> (i * n)) & ((1 << n) - 1) for i in range(n))


def test_c07_tier1_property_suites():
    t0 = time.perf_counter()

    # a. closed graph implies T1
    counterexamples = 0
    closed_count = 0
    for sp in space_stream(0, 1000):
        if graph_is_closed(sp).passed:
            closed_count += 1
            if not is_T1_preordered(sp).passed:
                counterexamples += 1
    assert counterexamples == 0
    assert closed_count > 200  # the premise is exercised, not vacuous

    # b. quotient of a closed-graph space is antisymmetric with closed graph
    rng = random.Random(0)
    for _ in range(1000):
        sp = random_finite_space(rng, rng.randint(1, 6), "closed")
        q, _ = quotient_space(sp)
        anti, wit = is_antisymmetric(q.preorder)
        assert anti, wit
        assert graph_is_closed(q).passed

    # c. smallest closed preorder agrees with the exhaustive oracle
    rng = random.Random(0)
    from ordtop.generators import random_topology
    for _ in range(1000):
        n = rng.randint(1, 4)
        top = random_topology(rng, n)
        k = rng.randint(0, 2 * n)
        seeds = [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
        got = smallest_closed_preorder(top, seeds)
        assert got.rows == _oracle_smallest_closed(top, seeds)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    verdict(7, f"3x1000 random spaces, 0 counterexamples, {elapsed:.1f}s")


def test_c08_extendable_family_closure_algebra():
    entry = catalog("half-open-interval")
    pool = [entry.pool[k] for k in ("id", "sq", "cube", "sqrt", "pow64")]
    builds = ["id", "id,sq", "id,sqrt", "id,sq,sqrt"]
    closures = {}
    for names in builds:
        comp, _ = build_compactification(entry, entry.family(names))
        kept = i_closure(entry, comp, pool)
        kept_names = {f.name for f in kept}
        closures[names] = kept_names
        # H subset of i(H)
        assert set(names.split(",")) <= kept_names, names
        # idempotence: rebuilding from i(H) keeps i fixed
        comp2, _ = build_compactification(
            entry, entry.family(",".join(sorted(kept_names))))
        again = {f.name for f in i_closure(entry, comp2, pool)}
        assert again == kept_names, names
    # monotone in H
    assert closures["id"] <= closures["id,sq"] <= closures["id,sq,sqrt"]
    assert closures["id"] <= closures["id,sqrt"] <= closures["id,sq,sqrt"]
    verdict(8, "i(i(H)) = i(H), monotone, H <= i(H) on 4 builds")


def test_c09_nachbin_diagram_commutes_on_the_mirror_line():
    entry = catalog("real-line-mirror")
    report = nachbin_pipeline(entry, entry.family("default"))
    assert report.check("quotient_antisymmetric").passed
    assert report.check("order_isomorphism").passed
    assert report.check("projections_commute").passed
    assert report.passed
    verdict(9, "quotient-then-compactify = compactify-then-quotient")


def test_c10_identical_config_reproduces_identical_bytes(tmp_path):
    args = [sys.executable, "-m", "ordtop.cli", "compactify",
            "--space", "real-line-mirror", "--resolution", "128"]
    for sub in ("a", "b"):
        proc = subprocess.run(args + ["--out", str(tmp_path / sub)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b
    verdict(10, f"report.json byte-identical across runs ({len(a)} bytes)")
