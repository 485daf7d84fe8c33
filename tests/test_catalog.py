"""Catalog spaces: sampling schedules, relation oracles, function families.

The Misner-strip causal relation is the one nontrivial oracle here, so
it is re-derived two independent ways before anything else trusts it:
a closed-form margin analysis and a Runge-Kutta integration of the
winding null curve.
"""

import importlib
import math
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import packed
from ordtop.catalog import (
    CATALOG_NAMES,
    TWO_PI,
    FunctionFamily,
    MirrorRay,
    MisnerStrip,
    SampleSet,
    SampledSpace,
    ScalarFunction,
    TAIL_SHELL_BASE,
    _window_integral,
    arc_bound_function,
    catalog,
    evaluate_family,
    sample_values,
    validate_family,
)
from ordtop.finite_space import BudgetError
import ordtop.preorder
from ordtop.preorder import _packed_leq
from ordtop.report import Check, CheckReport

# the module itself: the package exports the catalog() function under its name
catalog_module = importlib.import_module("ordtop.catalog")


# ----------------------------------------------------------- RK4 oracle
#
# The strip metric has null directions dtheta = 0 and dt/dtheta = -t/2,
# both future-directed with t nonincreasing.  The causal boundary from a
# source is therefore the integral curve of dt/dtheta = -t/2 followed
# one full winding; a target is reachable iff its t lies at or below the
# boundary value at its angle.  This integrator never uses the catalog's
# closed form.

N_GRID = 64
SUBSTEPS = 8


def rk4_boundary(t0, j0):
    """Boundary t at each grid angle, reached from source (t0, theta_j0)."""
    h = TWO_PI / (N_GRID * SUBSTEPS)
    t = t0
    bound = {j0: t0}
    for step in range(1, N_GRID * SUBSTEPS):

        def f(tt):
            return -0.5 * tt

        k1 = f(t)
        k2 = f(t + 0.5 * h * k1)
        k3 = f(t + 0.5 * h * k2)
        k4 = f(t + h * k3)
        t = t + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        if step % SUBSTEPS == 0:
            j = (j0 + step // SUBSTEPS) % N_GRID
            if j not in bound:
                bound[j] = t
    return bound


def oracle_grid():
    # geometric t spacing, incommensurable with the angle grid so no
    # pair sits exactly on a causal boundary
    ts = 0.05 * 20.0 ** (np.arange(N_GRID) / (N_GRID - 1.0))
    thetas = np.arange(N_GRID) * TWO_PI / N_GRID
    return ts, thetas


def test_misner_grid_margins_are_wide():
    # every pair is separated from the causal boundary by a log-space
    # margin far above integrator error (~1e-10), so RK4 agreement with
    # the closed form is decisive rather than a tolerance accident
    ts, thetas = oracle_grid()
    log_t = np.log(ts)
    diff = log_t[None, :] - log_t[:, None]
    best = np.inf
    for j in range(N_GRID):
        d = (TWO_PI * j / N_GRID) / 2.0
        margins = np.abs(diff + d)
        if j == 0:
            margins += np.where(np.eye(N_GRID, dtype=bool), np.inf, 0.0)
        best = min(best, float(margins.min()))
    assert best > 1e-5


def test_misner_relation_matches_rk4_sweep():
    space = MisnerStrip()
    ts, thetas = oracle_grid()
    rng = random.Random(20260818)
    tt, th = np.meshgrid(ts, thetas, indexing="ij")
    coords = np.column_stack([tt.ravel(), th.ravel()])
    analytic = space.relation_matrix(coords)
    for _ in range(20):
        i0 = rng.randrange(N_GRID)
        j0 = rng.randrange(N_GRID)
        bound = rk4_boundary(ts[i0], j0)
        src = i0 * N_GRID + j0
        for iq in range(N_GRID):
            for jq in range(N_GRID):
                reach = ts[iq] <= bound[jq] * (1.0 + 1e-9)
                assert analytic[src, iq * N_GRID + jq] == reach, (
                    ts[i0], j0, ts[iq], jq)


def test_misner_relation_antisymmetric_on_grid():
    space = MisnerStrip()
    ts, thetas = oracle_grid()
    tt, th = np.meshgrid(ts[:16], thetas[:16], indexing="ij")
    coords = np.column_stack([tt.ravel(), th.ravel()])
    m = space.relation_matrix(coords)
    both = m & m.T
    assert np.array_equal(both, np.eye(len(coords), dtype=bool))


def _misner_direct(p, q):
    """The causal relation as written in MisnerStrip's docstring."""
    d = np.mod(q[None, :, 1] - p[:, None, 1], TWO_PI)
    return q[None, :, 0] <= p[:, None, 0] * np.exp(-0.5 * d)


@st.composite
def misner_clouds(draw):
    """Points whose angles repeat, sit a few ulps apart or lie outside
    [0, 2pi), and partners placed exactly on another point's bound."""
    angle = (st.floats(-20.0, 20.0)
             | st.sampled_from([0.0, math.pi, TWO_PI, -TWO_PI,
                                math.nextafter(TWO_PI, 0.0)])
             | st.integers(-3, 3).map(lambda k: k * TWO_PI))
    t = st.floats(0.0, 1.0) | st.floats(-1.0, 1.0)
    pts = draw(st.lists(st.tuples(t, angle), min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 10))):
        tp, thp = pts[draw(st.integers(0, len(pts) - 1))]
        how = draw(st.sampled_from(["ulps", "winding", "bound"]))
        if how == "ulps":
            toward = draw(st.sampled_from([-math.inf, math.inf]))
            th = thp
            for _ in range(draw(st.integers(1, 3))):
                th = math.nextafter(th, toward)
            pts.append((draw(t), th))
        elif how == "winding":
            pts.append((draw(t), thp + draw(st.integers(-2, 2)) * TWO_PI))
        else:
            th = draw(angle)
            d = np.mod(np.float64(th) - np.float64(thp), TWO_PI)
            pts.append((float(tp * np.exp(-0.5 * d)), th))
    return np.array(pts, dtype=float)


@settings(max_examples=400, deadline=None)
@given(misner_clouds(), st.integers(0, 20))
def test_misner_factored_block_matches_direct_expression(coords, rows):
    space = MisnerStrip()
    p = coords[:max(1, rows)]
    assert np.array_equal(space.relation_matrix(coords),
                          _misner_direct(coords, coords))
    assert np.array_equal(space.relation_matrix(p, coords),
                          _misner_direct(p, coords))


# ------------------------------------------------- preorder axiom sweeps


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_relation_is_reflexive_and_transitive(name):
    entry = catalog(name)
    sample = entry.space.sample(256, 4)
    m = entry.space.relation_matrix(sample.coords)
    n = len(sample.coords)
    assert m[np.arange(n), np.arange(n)].all()
    rng = random.Random(7 + hash(name) % 1000)
    idx = np.array([[rng.randrange(n) for _ in range(3)]
                    for _ in range(10000)])
    i, j, k = idx[:, 0], idx[:, 1], idx[:, 2]
    bad = m[i, j] & m[j, k] & ~m[i, k]
    assert not bad.any()


@pytest.mark.parametrize("space", [catalog(n).space for n in CATALOG_NAMES]
                         + [MirrorRay()], ids=lambda s: s.name)
def test_relation_blocks_match_the_square_matrix(space):
    coords = space.sample(200, 4).coords
    square = space.relation_matrix(coords)
    rng = np.random.default_rng(5)
    n = len(coords)
    for rows, cols in ((np.arange(n), np.arange(n)),
                       (np.arange(3, 40), np.arange(n)),
                       (rng.integers(0, n, 17), rng.integers(0, n, 60)),
                       (rng.integers(0, n, 1), np.arange(0))):
        block = space.relation_matrix(coords[rows], coords[cols])
        assert block.shape == (len(rows), len(cols))
        assert np.array_equal(block, square[np.ix_(rows, cols)])


def test_scalar_relation_agrees_with_matrix():
    for name in CATALOG_NAMES:
        entry = catalog(name)
        sample = entry.space.sample(64, 4)
        coords = sample.coords
        m = entry.space.relation_matrix(coords)
        rng = random.Random(99)
        for _ in range(50):
            i = rng.randrange(len(coords))
            j = rng.randrange(len(coords))
            assert entry.space.relation(tuple(coords[i]), tuple(coords[j])) \
                == bool(m[i, j])


# -------------------------------------------------- sampling schedules


def test_half_open_interval_sampling_frozen():
    entry = catalog("half-open-interval")
    sample = entry.space.sample(100, 4)
    assert sample.coords.shape == (100, 1)
    xs = sample.coords[:, 0].tolist()
    assert all(b > a for a, b in zip(xs, xs[1:]))
    assert xs[0] == 0.0 and xs[-1] < 1.0
    assert len(sample.tails) == 1
    shells = sample.tails[0]
    assert len(shells) == 4
    levels = [sample.levels[s[0]] for s in shells]
    assert levels == [7, 8, 9, 10]
    # deepest shell point halves its distance to the end per level
    assert xs[-1] == 1.0 - 0.6 * 2.0 ** -10


def test_sample_structure_invariants():
    for name in CATALOG_NAMES:
        entry = catalog(name)
        for depth in (3, 4, 5):
            sample = entry.space.sample(128, depth)
            assert len(sample.tails) == entry.space.ends
            n = len(sample.coords)
            assert sample.coords.shape == (n, entry.space.dim)
            assert sample.coords.dtype == float
            assert sample.levels.shape == (n,)
            assert (sample.levels >= 0).all()
            seen = set()
            for shells in sample.tails:
                assert len(shells) == depth
                lvls = [sample.levels[s[0]] for s in shells]
                assert lvls == sorted(lvls) and len(set(lvls)) == depth
                for shell, lvl in zip(shells, lvls):
                    assert shell
                    for i in shell:
                        # a tail point lies in one shell of one end
                        assert 0 <= i < n and i not in seen
                        assert sample.levels[i] == lvl
                        seen.add(i)


def test_closed_interval_is_compact():
    entry = catalog("closed-interval")
    sample = entry.space.sample(64, 4)
    assert sample.tails == ()
    assert sample.levels.tolist() == [0] * 64


def test_nat_sampling_and_relation():
    entry = catalog("nat-discrete")
    sample = entry.space.sample(32, 4)
    assert sample.coords.tolist() == [[float(n)] for n in range(32)]
    assert sample.levels.tolist() == list(range(32))
    m = entry.space.relation_matrix(sample.coords)
    assert np.array_equal(m, np.eye(32, dtype=bool))
    # tail shells are the last tail_depth naturals, one per shell
    assert sample.tails == (((28,), (29,), (30,), (31,)),)


def test_mirror_relation_and_sampling():
    entry = catalog("real-line-mirror")
    space = entry.space
    assert space.relation((2.0,), (-2.0,))
    assert space.relation((-2.0,), (2.0,))
    assert space.relation((5.0,), (1.0,))
    assert not space.relation((1.0,), (5.0,))
    sample = space.sample(512, 4)
    assert len(sample.tails) == 2
    plus = [sample.coords[s[0], 0] for s in sample.tails[0]]
    minus = [sample.coords[s[0], 0] for s in sample.tails[1]]
    assert plus == [1.5 * 2.0 ** k for k in range(7, 11)]
    assert minus == [-x for x in plus]
    xs = sample.coords[:, 0]
    assert (np.abs(xs) <= 1.5 * 2.0 ** 10).all()


def test_continuous_core_levels_stay_below_tail_base():
    for name in ("half-open-interval", "real-line-mirror", "misner-strip"):
        entry = catalog(name)
        sample = entry.space.sample(256, 4)
        # core points are those in no tail
        tail = np.zeros(len(sample.levels), dtype=bool)
        tail[[i for shells in sample.tails for s in shells for i in s]] = True
        assert tail.any() and not tail.all()
        assert (sample.levels[~tail] < TAIL_SHELL_BASE).all()
        assert (sample.levels[tail] >= TAIL_SHELL_BASE).all()


def test_misner_sampling_grid():
    entry = catalog("misner-strip")
    sample = entry.space.sample(4096, 4)
    assert sample.coords.shape == (4096, 2)
    ths = sorted(set(sample.coords[:, 1].tolist()))
    assert len(ths) == 64
    shells = sample.tails[0]
    assert all(len(s) == 64 for s in shells)
    ts = sorted(set(sample.coords[:, 0].tolist()))
    assert ts[0] == 0.6 * 2.0 ** -10 and ts[-1] == 1.0


def test_misner_entry_builds_its_pool_once(monkeypatch):
    pools, make = [], catalog_module._misner_pool

    def counting():
        pools.append(make())
        return pools[-1]

    monkeypatch.setattr(catalog_module, "_misner_pool", counting)
    entry = catalog("misner-strip")
    assert len(pools) == 1 and entry.pool == pools[0]
    assert entry.default_h == tuple(sorted(pools[0]))
    assert len(entry.default_h) == 128


# --------------------------------------------------- the arc functions


def test_window_integral_matches_numeric_quadrature():
    def quad(a, b):
        # split at multiples of 2pi where the wrapped integrand jumps,
        # then unwrap each piece by its own period offset so the
        # integrand stays continuous up to the endpoints
        cuts = [a] + [c for c in (0.0, TWO_PI) if a < c < b] + [b]
        total = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            shift = TWO_PI * math.floor(0.5 * (lo + hi) / TWO_PI)
            s = np.linspace(lo, hi, 20001)
            total += np.trapezoid(np.exp(-0.5 * (s - shift)), s)
        return total

    for sigma in (0.02, 0.5):
        for u in (sigma / 2, sigma, 0.3, math.pi, TWO_PI - sigma,
                  TWO_PI - sigma / 2):
            numeric = quad(u - sigma, u + sigma)
            closed = float(_window_integral(u, sigma))
            assert abs(numeric - closed) < 1e-8 * max(1.0, abs(closed))


def test_arc_functions_exactly_isotone():
    space = MisnerStrip()
    rng = random.Random(3)
    fns = [arc_bound_function(TWO_PI * i / 16) for i in range(16)]
    pts = np.array([[math.exp(rng.uniform(math.log(1e-4), 0.0)),
                     rng.uniform(0, TWO_PI)] for _ in range(400)])
    rel = space.relation_matrix(pts)
    for f in fns:
        vals = f.evaluate(pts)
        assert vals.min() >= 0.0 and vals.max() <= 1.0
        bad = rel & (vals[:, None] > vals[None, :] + 1e-12)
        assert not bad.any()


def test_arc_function_continuity_at_window_edges():
    f = arc_bound_function(0.0, sigma=0.02)
    for u_edge in (0.02, TWO_PI - 0.02):
        lo, hi = f.evaluate(np.array([[0.5, -u_edge % TWO_PI + 1e-9],
                                      [0.5, -u_edge % TWO_PI - 1e-9]]))
        assert abs(lo - hi) < 1e-6


# -------------------------------------------------- family validation


def _validate(entry, family, resolution):
    """validate_family's report on one sample of the entry's space."""
    sample, raw = sample_values(entry.space, family, resolution, 4)
    return validate_family(family, sample, raw, entry.space)[0]


def test_validate_default_families_pass():
    for name, resolution in (("half-open-interval", 256),
                             ("closed-interval", 256),
                             ("real-line-mirror", 256),
                             ("nat-discrete", 128),
                             ("misner-strip", 1024)):
        entry = catalog(name)
        fam = entry.family("default", resolution=resolution)
        report = _validate(entry, fam, resolution)
        assert report.passed, (name, report.to_dict())
        rate = report.check("represents_relation").metrics["agreement_rate"]
        if name == "misner-strip":
            assert rate >= 0.99
        else:
            assert rate == 1.0


def test_validate_full_interval_pool_passes():
    entry = catalog("half-open-interval")
    fam = entry.family("id,sq,sqrt,cube,pow64")
    report = _validate(entry, fam, 200)
    assert report.passed
    assert report.check("represents_relation").metrics["agreement_rate"] == 1.0


def test_validate_nat_bump_selectors():
    entry = catalog("nat-discrete")
    for selector in ("C", "Cminus", "Cplus"):
        fam = entry.family(selector, resolution=96)
        assert fam.c == ()
        report = _validate(entry, fam, 96)
        assert report.passed, (selector, report.to_dict())
        assert report.check("represents_relation").metrics[
            "agreement_rate"] == 1.0
    minus = entry.family("Cminus", resolution=96)
    assert all(f.klass == "C-" for f in minus.h)
    plus = entry.family("Cplus", resolution=96)
    assert all(f.klass == "C+" for f in plus.h)
    full = entry.family("C", resolution=96)
    assert len(full.h) == 192


def test_validate_undersized_family_fails_with_witness():
    entry = catalog("nat-discrete")
    fam = entry.family("sat", resolution=96)
    report = _validate(entry, fam, 96)
    assert not report.passed
    check = report.check("represents_relation")
    assert not check.passed
    # coordinates are Python floats, as the CLI prints them with repr
    assert repr(check.witness) == "((0.0,), (1.0,), 'induced')"
    assert check.metrics["agreement_rate"] < 0.99


def test_validate_catches_constant_posing_as_separator():
    entry = catalog("half-open-interval")
    fam = entry.family("const1")
    report = _validate(entry, fam, 128)
    assert not report.passed
    assert not report.check("represents_relation").passed


def test_validate_catches_bad_isotone_tag():
    entry = catalog("half-open-interval")
    lying = ScalarFunction("drop", lambda a: 1.0 - a[:, 0], monotone="isotone")
    fam = FunctionFamily((lying,), ())
    report = _validate(entry, fam, 64)
    assert not report.check("monotone_and_class_tags").passed


def test_validate_catches_range_violation():
    entry = catalog("closed-interval")
    big = ScalarFunction("big", lambda a: 2.0 * a[:, 0], monotone="isotone")
    report = _validate(entry, FunctionFamily((big,), ()), 64)
    assert not report.check("values_in_unit_interval").passed


def test_validate_names_the_first_nan_as_range_witness():
    # finite at 0, NaN from 0.5 on: the witness is the first NaN sample
    entry = catalog("closed-interval")
    nanf = ScalarFunction("nanf", lambda a: np.where(a[:, 0] > 0.5, np.nan,
                                                     a[:, 0]),
                          monotone="isotone")
    report = _validate(entry, FunctionFamily((nanf,), ()), 64)
    name, (x,) = report.check("values_in_unit_interval").witness
    assert name == "nanf"
    xs = entry.space.sample(64, 4).coords[:, 0]
    assert x == xs[xs > 0.5].min()


def test_validate_catches_a_nan_tail():
    # the declared constant holds in [0,1] but the tail shells read NaN
    entry = catalog("half-open-interval")
    nan_tail = ScalarFunction(
        "nan_tail", lambda a: np.where(a[:, 0] > 0.99, np.nan, 1.0),
        monotone="isotone", klass="C", tail_value=1.0,
        tail_level=TAIL_SHELL_BASE)
    fam = FunctionFamily((entry.pool["id"],), (nan_tail,))
    report = _validate(entry, fam, 64)
    check = report.check("monotone_and_class_tags")
    assert not check.passed
    name, (x,), why = check.witness
    assert (name, why) == ("nan_tail", "not at declared tail constant")
    assert x == 1.0 - 0.6 * 2.0 ** -TAIL_SHELL_BASE


def test_validate_catches_wrong_tail_constant():
    entry = catalog("half-open-interval")
    fake = ScalarFunction("fake", lambda a: a[:, 0], monotone="isotone",
                          klass="C", tail_value=0.25, tail_level=2)
    fam = FunctionFamily((entry.pool["id"],), (fake,))
    report = _validate(entry, fam, 128)
    assert not report.check("monotone_and_class_tags").passed


def test_empty_h_part_reported():
    entry = catalog("half-open-interval")
    fam = FunctionFamily((), (entry.pool["const1"],)) \
        if "const1" in entry.pool else FunctionFamily((), ())
    report = _validate(entry, fam, 64)
    assert not report.check("h_part_nonempty").passed


# ------------------------------------------- tiled validation vs oracle


def _untiled_validation(family, sample, all_vals, rel, eps_fn,
                          min_agreement):
    """Validation on the whole samples x samples relation at once.

    The reference for the tiled validate_family: every member's tag is
    checked against the full relation and the agreement is the mean of
    one samples x samples matrix.
    """
    levels = sample.levels

    def point(i):
        return tuple(sample.coords[i].tolist())

    checks = [Check("h_part_nonempty", len(family.h) > 0,
                    witness=None if family.h else "empty H-part")]
    tag_witness = None
    range_witness = None
    for row, f in enumerate(family.members()):
        vals = all_vals[row]
        inside = (vals >= -eps_fn) & (vals <= 1.0 + eps_fn)
        if not inside.all():
            i = int(np.argmin(inside))
            range_witness = range_witness or (f.name, point(i))
        if f.monotone == "isotone":
            bad = rel & (vals[:, None] > vals[None, :] + eps_fn)
        elif f.monotone == "anti_isotone":
            bad = rel & (vals[:, None] < vals[None, :] - eps_fn)
        else:
            bad = None
        if bad is not None and bad.any() and tag_witness is None:
            i, j = np.argwhere(bad)[0]
            tag_witness = (f.name, point(int(i)), point(int(j)))
        if f.klass is not None:
            off = (levels >= f.tail_level) & \
                ~(np.abs(vals - f.tail_value) <= eps_fn)
            if off.any() and tag_witness is None:
                i = int(np.argmax(off))
                tag_witness = (f.name, point(i),
                               "not at declared tail constant")
    checks.append(Check("values_in_unit_interval", range_witness is None,
                        witness=range_witness))
    checks.append(Check("monotone_and_class_tags", tag_witness is None,
                        witness=tag_witness))
    if family.h:
        induced = np.ones_like(rel)
        for row in range(len(family.h)):
            vals = all_vals[row]
            induced &= vals[:, None] <= vals[None, :] + eps_fn
        agree = induced == rel
        rate = float(agree.mean())
        witness = None
        if rate < min_agreement:
            i, j = np.argwhere(~agree)[0]
            witness = (point(int(i)), point(int(j)),
                       "induced" if induced[i, j] else "missing")
        checks.append(Check(
            "represents_relation", rate >= min_agreement, witness=witness,
            metrics={"agreement_rate": rate, "pairs": int(rel.size),
                     "disagreements": int(agree.size
                                          - np.count_nonzero(agree))},
        ))
    return CheckReport(tuple(checks))


def _fn(name, fn, monotone="isotone", klass=None, tail_value=None,
        tail_level=99):
    return ScalarFunction(name, fn, monotone=monotone, klass=klass,
                          tail_value=tail_value, tail_level=tail_level)


_ID = _fn("id", lambda a: a[:, 0])
_ONE = _fn("one", lambda a: np.ones(len(a)), klass="C", tail_value=1.0,
           tail_level=0)
# isotone up to 0.9, then falling: the first bad pair sits in a late row
_LATE = _fn("late", lambda a: np.where(a[:, 0] > 0.9, 1.9 - a[:, 0], a[:, 0]))
_ANTI = _fn("anti", lambda a: 1.0 - a[:, 0], monotone="anti_isotone",
            klass="C", tail_value=0.0)
_ANTI_LATE = _fn("anti_late",
                 lambda a: np.where(a[:, 0] > 0.8, a[:, 0], 1.0 - a[:, 0]),
                 monotone="anti_isotone", klass="C", tail_value=0.0)
_NONE = _fn("wiggle", lambda a: 0.5 + 0.4 * np.sin(20.0 * a[:, 0]),
            monotone="none", klass="C", tail_value=0.5)
_TAIL = _fn("tail", lambda a: a[:, 0], klass="C", tail_value=1.0,
            tail_level=TAIL_SHELL_BASE)
_NAN = _fn("nan", lambda a: np.where(np.abs(a[:, 0] - 0.5) < 0.05, np.nan,
                                     a[:, 0]))
_HALF = _fn("half", lambda a: np.full(len(a), 0.5))
_SPIKE = _fn("spike", None, klass="C", tail_value=0.0)

TILED_FAMILIES = {
    "passing": ((_ID,), (_ONE,)),
    "late_isotone": ((_ID, _LATE), (_ONE,)),
    "late_isotone_alone": ((_LATE,), ()),
    "anti_isotone": ((_ID,), (_ANTI, _ONE)),
    "late_anti_isotone": ((_ID,), (_ONE, _ANTI_LATE)),
    "none_member": ((_ID,), (_NONE,)),
    "tail_violation": ((_ID,), (_TAIL, _ONE)),
    "tail_before_isotone": ((_ID,), (_TAIL, _ANTI_LATE)),
    "isotone_before_tail": ((_ID, _LATE), (_TAIL,)),
    "nan_in_h": ((_NAN, _ID), (_ONE,)),
    "nan_in_c": ((_ID,), (_fn("nan_c", _NAN.fn, klass="C",
                              tail_value=1.0),)),
    "empty_h": ((), (_ONE, _ANTI_LATE)),
    "represents_fails_induced": ((_HALF,), (_ONE,)),
    "represents_fails_missing": ((_LATE,), (_ANTI_LATE,)),
}


@pytest.mark.parametrize("n", (20, 21, 22, 27, 28, 29))
@pytest.mark.parametrize("family", sorted(TILED_FAMILIES))
def test_tiled_validation_matches_the_untiled_reference(family, n,
                                                        monkeypatch):
    # 7-row tiles: n = 21 and 28 end on a tile edge, the others straddle one
    monkeypatch.setattr(catalog_module, "_TILE_CELLS", 7 * n)
    space = catalog("half-open-interval").space
    fam = FunctionFamily(*TILED_FAMILIES[family])
    sample, vals = sample_values(space, fam, n, 4)
    rel = space.relation_matrix(sample.coords)
    rng = np.random.default_rng(n)
    gather = (np.arange(n), np.arange(0), np.arange(6, n, 5),
              np.unique(rng.integers(0, n, 9)))
    with np.errstate(invalid="ignore"):
        for min_agreement in (0.99, 1.0):
            monkeypatch.setattr(catalog_module, "MIN_AGREEMENT",
                                min_agreement)
            tiled, blocks = validate_family(fam, sample, vals, space, gather)
            want = _untiled_validation(fam, sample, vals, rel, 1e-6,
                                       min_agreement)
            assert repr(tiled.to_dict()) == repr(want.to_dict())
    for idx, block in zip(gather, blocks):
        assert np.array_equal(block, packed(rel[np.ix_(idx, idx)]))


def test_tiled_validation_fixtures_fail_where_meant():
    space = catalog("half-open-interval").space
    n = 28
    fails = {}
    for name, parts in TILED_FAMILIES.items():
        fam = FunctionFamily(*parts)
        sample, vals = sample_values(space, fam, n, 4)
        with np.errstate(invalid="ignore"):
            report, _ = validate_family(fam, sample, vals, space)
        fails[name] = {c.name: c.witness for c in report.checks
                       if not c.passed}
    assert fails["passing"] == {}
    assert fails["none_member"] == {}
    assert fails["anti_isotone"] == {}
    # the first bad row of "late" lies past 0.9, in the fourth 7-row tile
    _, i, j = fails["late_isotone"]["monotone_and_class_tags"]
    assert 0.9 < i[0] < j[0]
    assert fails["late_anti_isotone"]["monotone_and_class_tags"][0] \
        == "anti_late"
    assert fails["tail_violation"]["monotone_and_class_tags"][2] \
        == "not at declared tail constant"
    assert fails["tail_before_isotone"]["monotone_and_class_tags"][0] \
        == "tail"
    assert fails["isotone_before_tail"]["monotone_and_class_tags"][0] \
        == "late"
    assert "values_in_unit_interval" in fails["nan_in_h"]
    assert "h_part_nonempty" in fails["empty_h"]
    assert fails["represents_fails_induced"]["represents_relation"][2] \
        == "induced"
    assert fails["represents_fails_missing"]["represents_relation"][2] \
        == "missing"


def _reference_tile_validation(family, sample, raw, space, eps_fn,
                               min_agreement, gather):
    """validate_family with the earlier tile pass, kept as an oracle.

    Each tile starts from all-True, ANDs every H member's compare into
    it, and only then forms the disagreement mask induced != rel and the
    missing-pair test rel > induced.
    """
    coords, levels = sample.coords, sample.levels
    members, n_h, n = family.members(), len(family.h), len(coords)

    def point(i):
        return tuple(coords[i].tolist())

    checks = [Check("h_part_nonempty", n_h > 0,
                    witness=None if n_h else "empty H-part")]
    range_witness = tail_witness = None
    limit = len(members)
    for m, f in enumerate(members):
        vals = raw[m]
        outside = ~((vals >= -eps_fn) & (vals <= 1.0 + eps_fn))
        if outside.any():
            range_witness = range_witness or (f.name,
                                              point(int(np.argmax(outside))))
        if f.klass is not None and tail_witness is None:
            off = (levels >= f.tail_level) & \
                ~(np.abs(vals - f.tail_value) <= eps_fn)
            if off.any():
                tail_witness = (f.name, point(int(np.argmax(off))),
                                "not at declared tail constant")
                limit = m + 1
    bounds = {m: raw[m] + (eps_fn if f.monotone == "isotone" else -eps_fn)
              for m, f in enumerate(members) if f.monotone != "none"}

    first_bad = {}
    first_diff = None
    disagreements = 0
    blocks = [np.empty((len(s), len(s)), dtype=bool) for s in gather]
    step = max(1, catalog_module._TILE_CELLS // max(n, 1))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        rel = space.relation_matrix(coords[rows], coords)
        for s, block in zip(gather, blocks):
            lo, hi = np.searchsorted(s, (start, start + step))
            block[lo:hi] = rel.take(s[lo:hi] - start, axis=0).take(s, axis=1)
        induced = np.ones_like(rel)
        for m in range(n_h):
            induced &= raw[m, rows, None] <= bounds[m]
        diff = induced != rel
        wrong = np.count_nonzero(diff)
        disagreements += wrong
        if wrong and first_diff is None:
            i, j = divmod(int(np.argmax(diff)), n)
            first_diff = (point(start + i), point(j),
                          "induced" if induced[i, j] else "missing")
        missing = wrong and (rel > induced).any()
        for m in bounds:
            if m >= limit:
                break
            if m < n_h and not missing:
                continue
            vals = raw[m, rows, None]
            bad = rel & (vals > bounds[m] if members[m].monotone == "isotone"
                         else vals < bounds[m])
            if bad.any():
                i, j = divmod(int(np.argmax(bad)), n)
                first_bad[m] = (members[m].name, point(start + i), point(j))
                limit = m

    tag_witness = first_bad[min(first_bad)] if first_bad else tail_witness
    checks.append(Check("values_in_unit_interval", range_witness is None,
                        witness=range_witness))
    checks.append(Check("monotone_and_class_tags", tag_witness is None,
                        witness=tag_witness))
    if n_h:
        pairs = n * n
        rate = float(np.divide(pairs - disagreements, pairs))
        checks.append(Check(
            "represents_relation", rate >= min_agreement,
            witness=first_diff if rate < min_agreement else None,
            metrics={"agreement_rate": rate, "pairs": pairs,
                     "disagreements": disagreements},
        ))
    return CheckReport(tuple(checks)), blocks


def _validate_with(family, sample, raw, space, eps_fn, min_agreement,
                   gather):
    """validate_family with EPS_FN and MIN_AGREEMENT set for one call."""
    with mock.patch.object(catalog_module, "EPS_FN", eps_fn), \
            mock.patch.object(catalog_module, "MIN_AGREEMENT", min_agreement):
        return validate_family(family, sample, raw, space, gather)


class _TableSpace(SampledSpace):
    """A space over sample indices whose relation is a given bool table."""

    def __init__(self, table):
        self.table = table

    def relation_matrix(self, coords, other):
        return self.table[coords[:, 0].astype(int)][:, other[:, 0].astype(int)]


@st.composite
def _validation_inputs(draw):
    n = draw(st.integers(1, 9))
    eps = draw(st.sampled_from((1e-6, 0.25)))
    # values a member can take: ties at exactly +-eps, NaN, +-inf, and
    # values outside [0, 1]
    base = (0.0, 0.5, 1.0)
    palette = base + tuple(v + eps for v in base) + tuple(v - eps
                                                          for v in base) \
        + (np.nan, np.inf, -np.inf, 1.5)
    n_h = draw(st.integers(0, 3))
    tags = [("isotone", None, 0.0, 0)] * n_h + draw(st.lists(st.tuples(
        st.sampled_from(("isotone", "anti_isotone", "none")),
        st.just("C"), st.sampled_from(base), st.integers(0, 3)),
        max_size=2))
    members = tuple(_fn("m%d" % k, None, monotone=mono, klass=klass,
                        tail_value=tail, tail_level=level)
                    for k, (mono, klass, tail, level) in enumerate(tags))
    raw = np.array([[draw(st.sampled_from(palette)) for _ in range(n)]
                    for _ in members]).reshape(len(members), n)
    # the relation H induces with a few cells flipped, so that the first
    # disagreement can sit in any tile, or a table drawn cell by cell
    table = np.all(raw[:n_h, :, None] <= raw[:n_h, None, :] + eps, axis=0)
    if draw(st.booleans()):
        for i, j in draw(st.sets(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1)),
                                 max_size=3)):
            table[i, j] = not table[i, j]
    else:
        table = np.array(draw(st.lists(st.lists(
            st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n)))
    levels = np.array(draw(st.lists(st.integers(0, 3), min_size=n,
                                    max_size=n)))
    gather = tuple(np.array(sorted(draw(st.sets(st.integers(0, n - 1)))),
                            dtype=np.intp) for _ in range(2))
    return (FunctionFamily(members[:n_h], members[n_h:]),
            SampleSet(np.arange(n, dtype=float)[:, None], levels, ()),
            raw, _TableSpace(table), eps,
            draw(st.sampled_from((0.5, 0.99, 1.0))), gather)


@settings(max_examples=300, deadline=None)
@given(_validation_inputs())
def test_tile_pass_matches_the_reference_pass(args):
    n = len(args[1].coords)
    # one-row tiles, so witnesses lie past a tile edge; two-row tiles with
    # a short last one; and one tile for all
    for cells in (n, 2 * n + 1, 1 << 20):
        with mock.patch.object(catalog_module, "_TILE_CELLS", cells), \
                np.errstate(invalid="ignore"):
            got, got_blocks = _validate_with(*args)
            want, want_blocks = _reference_tile_validation(*args)
        assert repr(got.to_dict()) == repr(want.to_dict())
        assert len(got_blocks) == len(want_blocks)
        for a, b in zip(got_blocks, want_blocks):
            assert np.array_equal(a, packed(b))


# ------------------------------------------------- bit-space validation


def _packed_direct(values, bounds):
    """The H-part compare as one bool cube, packed like _packed_leq."""
    return packed(np.all(values[:, :, None] <= bounds[:, None, :], axis=0))


# word edges, block edges at _BLOCK 64 and 128, and a multi-word tail
_BIT_SIZES = (1, 63, 64, 65, 129, 300)


def _palette(eps):
    base = (0.0, 0.5, 1.0)
    return np.array(base + tuple(v + eps for v in base)
                    + tuple(v - eps for v in base)
                    + (np.nan, np.inf, -np.inf, 1.5))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.sampled_from(_BIT_SIZES),
       st.sampled_from(_BIT_SIZES), st.sampled_from((1e-6, 0.25)),
       st.sampled_from((256, 1 << 20)), st.integers(0, 2 ** 32 - 1))
def test_packed_leq_matches_the_direct_compare(k, n, w, eps, cells, seed):
    # values and bounds from one palette with NaN, +-inf and ties at
    # exactly +-eps; small cells split the tables and the AND tiles
    rng = np.random.default_rng(seed)
    palette = _palette(eps)
    values = palette[rng.integers(0, len(palette), (k, n))]
    bounds = palette[rng.integers(0, len(palette), (k, w))]
    kind = rng.integers(3)
    if k and kind == 1:  # the bounds of the values, as validation
        values = palette[rng.integers(0, len(palette), (k, w))]
        bounds = values + eps
    elif kind == 2:  # few distinct integers, one strided array, as the build
        values = bounds = rng.integers(-2, 3, (w, k + 1)).T[:k]
    with mock.patch.object(ordtop.preorder, "_TILE_CELLS", cells):
        got = _packed_leq(values, bounds)
    assert got.dtype == np.dtype("<u8")
    assert np.array_equal(got, _packed_direct(values, bounds))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from((1, 63, 65, 200)),
       st.sampled_from((65, 100, 129, 300)),
       st.sampled_from((1e-6, -1e-6, 0.25)),
       st.sampled_from((1 << 14, 1 << 20)))
def test_packed_leq_adds_the_slack_as_explicit_bounds_would(data, n, w, s,
                                                            cells):
    # from one member to one past an argsort group, on column slices of a
    # wider array (as validation passes them) with ties at exactly +-s
    group = max(1, cells // 64 // w)
    k = data.draw(st.sampled_from(sorted({1, 2, group, group + 1})))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    palette = _palette(abs(s))
    values = palette[rng.integers(0, len(palette), (k, n))]
    bounds = palette[rng.integers(0, len(palette), (k, w + 7))][:, 3:3 + w]
    with mock.patch.object(ordtop.preorder, "_TILE_CELLS", cells):
        got = _packed_leq(values, bounds, s)
        assert np.array_equal(got, _packed_leq(values, bounds + s))
    assert np.array_equal(got, _packed_direct(values, bounds + s))


def test_packed_leq_builds_a_rank_group_in_table_batches():
    # 600 distinct bounds make tables of 601 rows of 10 words: 27 members
    # are ranked together, but only 21 fit one batch of tables.  Member m
    # alone removes column 20 * m, so each member's rows show
    rng = np.random.default_rng(0)
    values = -0.99 * rng.random((30, 40))
    bounds = np.argsort(rng.random((30, 600)), axis=1) / 600
    bounds[np.arange(30), 20 * np.arange(30)] = -1.0 - np.arange(30) / 100
    want = _packed_direct(values, bounds)
    rel = np.unpackbits(want.view(np.uint8), axis=1, count=600,
                        bitorder="little")
    assert np.flatnonzero(rel.sum(axis=0) == 0).tolist() == \
        list(range(0, 600, 20)) and rel.sum() == 40 * 570
    assert np.array_equal(_packed_leq(values, bounds), want)


def test_packed_leq_memory_stays_bounded_with_many_members():
    # 300 members of 8 bounds against 4,000 values are ranked as one group;
    # its values' table rows are made a batch of members at a time, not as
    # one 300 x 4,000 array (9.6 MB)
    rng = np.random.default_rng(0)
    values, bounds = rng.random((300, 4000)), rng.random((300, 8))
    tracemalloc.start()
    try:
        got = _packed_leq(values, bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < got.nbytes + 4 * 2 ** 20
    assert np.array_equal(got[:50], _packed_direct(values[:, :50], bounds))


@st.composite
def _blocked_inputs(draw):
    """Validation inputs past one word: n up to 300 samples, values from
    the tie/NaN/inf palette, and the H-induced relation with a few flipped
    cells or a random one, sparse or dense; sparse ones put witnesses in
    any block."""
    n = draw(st.sampled_from(_BIT_SIZES))
    eps = draw(st.sampled_from((1e-6, 0.25)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    palette = _palette(eps)
    n_h = draw(st.integers(0, 3))
    tags = [("isotone", None, 0.0, 0)] * n_h + draw(st.lists(st.tuples(
        st.sampled_from(("isotone", "anti_isotone", "none")),
        st.just("C"), st.sampled_from((0.0, 0.5, 1.0)), st.integers(0, 3)),
        max_size=2))
    members = tuple(_fn("m%d" % k, None, monotone=mono, klass=klass,
                        tail_value=tail, tail_level=level)
                    for k, (mono, klass, tail, level) in enumerate(tags))
    # mostly one value per member, so that tags hold often enough for
    # later members and blocks to matter
    raw = np.where(rng.random((len(members), n)) < 0.9,
                   palette[rng.integers(0, 9, (len(members), 1))],
                   palette[rng.integers(0, len(palette),
                                        (len(members), n))])
    # an H-part nondecreasing along the samples, with a few odd values
    raw[:n_h] = np.sort(palette[rng.integers(0, 9, (n_h, n))], axis=1)
    if members and draw(st.booleans()):
        raw[rng.integers(0, len(members), 3), rng.integers(0, n, 3)] = \
            draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    table = np.all(raw[:n_h, :, None] <= raw[:n_h, None, :] + eps, axis=0)
    density = draw(st.sampled_from((None, None, 0.005, 0.5)))
    if density is None:
        flips = rng.integers(0, n, (draw(st.integers(0, 12)), 2))
        table[flips[:, 0], flips[:, 1]] ^= True
    else:
        table = rng.random((n, n)) < density
    levels = rng.integers(0, 4, n)
    gather = tuple(np.unique(rng.integers(0, n, rng.integers(0, n + 1)))
                   for _ in range(2))
    return (FunctionFamily(members[:n_h], members[n_h:]),
            SampleSet(np.arange(n, dtype=float)[:, None], levels, ()),
            raw, _TableSpace(table), eps,
            draw(st.sampled_from((0.99, 1.0, 1.0))), gather)


@settings(max_examples=200, deadline=None)
@given(_blocked_inputs(), st.sampled_from((64, 128)),
       st.sampled_from((64, 200, 1 << 20)))
def test_blocked_validation_matches_the_reference_pass(args, block, cells):
    # blocks of 64 or 128 columns, and row tiles of one, a few or all rows
    with mock.patch.object(catalog_module, "_BLOCK", block), \
            mock.patch.object(catalog_module, "_TILE_CELLS", cells), \
            np.errstate(invalid="ignore"):
        got, got_blocks = _validate_with(*args)
        want, want_blocks = _reference_tile_validation(*args)
    assert repr(got.to_dict()) == repr(want.to_dict())
    for a, b in zip(got_blocks, want_blocks, strict=True):
        assert np.array_equal(a, packed(b))


def test_blocked_witnesses_are_the_row_major_first_across_blocks(
        monkeypatch):
    # block 0 (columns 0-63) meets its pair in row 20, block 2 (columns
    # 128-191) in row 10; row-major, (10, 150) comes first
    monkeypatch.setattr(catalog_module, "_BLOCK", 64)
    n = 200
    sample = SampleSet(np.arange(n, dtype=float)[:, None],
                       np.zeros(n, dtype=int), ())
    ident = np.arange(n) / n
    spike = np.zeros(n)
    spike[[10, 20]] = 1.0
    upper = ident[:, None] <= ident[None, :] + 1e-6
    upper[20, 5], upper[10, 150] = True, False
    sparse = np.eye(n, dtype=bool)
    sparse[20, 5] = sparse[10, 150] = True
    cases = (
        # first disagreement: "induced" at (10, 150), "missing" at (20, 5)
        ((_ID,), (), ident[None], upper, "represents_relation",
         ((10.0,), (150.0,), "induced")),
        # first broken isotone pair, for a C member and for an H member
        ((_HALF,), (_SPIKE,), np.stack([np.full(n, 0.5), spike]),
         sparse, "monotone_and_class_tags", ("spike", (10.0,), (150.0,))),
        ((_SPIKE,), (), spike[None], sparse, "monotone_and_class_tags",
         ("spike", (10.0,), (150.0,))),
    )
    for h, c, raw, table, check, witness in cases:
        args = (FunctionFamily(h, c), sample, raw, _TableSpace(table), 1e-6,
                1.0, ())
        got, _ = _validate_with(*args)
        assert got.check(check).witness == witness
        assert repr(got.to_dict()) == repr(
            _reference_tile_validation(*args)[0].to_dict())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((0.0, 0.5, 1.0, 1.0 + 1e-6, -1e-6, np.nan,
                                 np.inf, -np.inf)), min_size=1, max_size=6),
       st.booleans(), st.sampled_from((1e-6, 0.25)))
def test_a_skipped_tag_pass_has_no_violating_pair(vals, isotone, eps):
    raw = np.array([vals])
    bounds = raw + (eps if isotone else -eps)
    breakable = catalog_module._breakable(raw, np.array([isotone]), eps)
    broken = np.greater if isotone else np.less
    # the full compare ANDed with the all-True relation, which holds every
    # pair any relation could hold
    pairs = broken(raw[0][:, None], bounds[0][None, :])
    assert bool(breakable[0]) == bool(pairs.any())


def test_an_all_nan_member_validates_without_a_warning():
    space = catalog("half-open-interval").space
    nan_c = _fn("nan_c", lambda a: np.full(len(a), np.nan), klass="C",
                tail_value=1.0)
    anti = _fn("anti_nan", lambda a: np.full(len(a), np.nan),
               monotone="anti_isotone", klass="C", tail_value=0.0)
    fam = FunctionFamily((_ID,), (nan_c, anti))
    sample, vals = sample_values(space, fam, 70, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, _ = validate_family(fam, sample, vals, space)
    # NaN breaks no tag (and no tail level is reached); it leaves [0, 1]
    assert report.check("monotone_and_class_tags").passed
    assert report.check("values_in_unit_interval").witness[0] == "nan_c"


def test_validation_memory_stays_within_its_gathered_blocks():
    # tracemalloc sees numpy's buffers; the half-open@20000 build is the
    # largest in use, and no samples^2 array (packed or not) may appear
    from ordtop.compactify import _verify_samples, close_and_cluster
    entry = catalog("half-open-interval")
    fam = entry.family("id")
    sample, raw = sample_values(entry.space, fam, 20000, 4)
    gather = _verify_samples(close_and_cluster(entry, fam, sample, raw))
    tracemalloc.start()
    try:
        report, blocks = validate_family(fam, sample, raw, entry.space,
                                         gather=gather)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= sum(b.nbytes for b in blocks) + (16 << 20)


# ------------------------------------------------------------ key spaces

# each key space's order as the broadcast compare it was written as
# before it became keys
_KEY_ORDERS = {
    "half-open-interval": lambda p, q: p[:, None, 0] <= q[None, :, 0],
    "closed-interval": lambda p, q: p[:, None, 0] <= q[None, :, 0],
    "real-line-mirror": lambda p, q: (np.abs(q[None, :, 0])
                                      <= np.abs(p[:, None, 0])),
    "mirror-ray": lambda p, q: q[None, :, 0] <= p[:, None, 0],
    "nat-discrete": lambda p, q: p[:, None, 0] == q[None, :, 0],
}


def _key_space(name):
    return MirrorRay() if name == "mirror-ray" else catalog(name).space


@st.composite
def _key_points(draw):
    """A key space and two coordinate arrays: ties, +-0.0, +-inf and NaN,
    and points of the space's own sample."""
    name = draw(st.sampled_from(sorted(_KEY_ORDERS)))
    own = _key_space(name).sample(draw(st.integers(2, 70)), 2).coords[:, 0]
    values = st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 3.0, np.inf,
                              -np.inf, np.nan)) | st.sampled_from(own)
    p, q = (np.array(draw(st.lists(values, max_size=70)), dtype=float)
            .reshape(-1, 1) for _ in range(2))
    return name, p, q


@settings(max_examples=300, deadline=None)
@given(_key_points())
def test_key_spaces_keep_their_broadcast_orders(drawn):
    name, p, q = drawn
    space = _key_space(name)
    want = _KEY_ORDERS[name](p, q)
    assert np.array_equal(space.relation_matrix(p, q), want)
    # validation's packed rows: the kernel's tables of q's keys, looked up
    # with p's
    assert np.array_equal(
        _packed_leq(space._keys(p), space._keys(q)),
        packed(want))


def test_key_spaces_keep_their_orders_on_their_samples():
    for name, order in _KEY_ORDERS.items():
        space = _key_space(name)
        coords = space.sample(700, 4).coords
        want = order(coords, coords)
        assert np.array_equal(space.relation_matrix(coords), want)
        assert np.array_equal(_packed_leq(
            space._keys(coords), space._keys(coords)), packed(want))


class _KeySpace(SampledSpace):
    """A space over sample indices ordered by given (k, n) keys."""

    def __init__(self, keys):
        self.keys = keys

    def _keys(self, coords):
        return self.keys[:, coords[:, 0].astype(int)]


def _runs(n):
    """Sorted gathers that run: all samples, a middle run, one sample."""
    return (np.arange(n), np.arange(n // 3, n // 2), np.arange(n - 1, n))


@settings(max_examples=200, deadline=None)
@given(_blocked_inputs(), st.integers(1, 2), st.integers(0, 2 ** 32 - 1),
       st.sampled_from((64, 128)), st.sampled_from((64, 200, 1 << 20)))
def test_key_space_validation_matches_the_reference_pass(args, k, seed,
                                                         block, cells):
    # the reference pass evaluates the key order as a bool tile; keys from
    # the tie/NaN/inf palette, or the first H member's values, so that H
    # often agrees with the relation and the tag passes run
    family, sample, raw, _, eps, min_agreement, gather = args
    n = len(sample.coords)
    rng = np.random.default_rng(seed)
    keys = _palette(eps)[rng.integers(0, 10, (k, n))]
    if family.h and rng.random() < 0.5:
        keys[0] = raw[0]
    args = (family, sample, raw, _KeySpace(keys), eps, min_agreement,
            gather + _runs(n))
    with mock.patch.object(catalog_module, "_BLOCK", block), \
            mock.patch.object(catalog_module, "_TILE_CELLS", cells), \
            np.errstate(invalid="ignore"):
        got, got_blocks = _validate_with(*args)
        want, want_blocks = _reference_tile_validation(*args)
    assert repr(got.to_dict()) == repr(want.to_dict())
    for a, b in zip(got_blocks, want_blocks, strict=True):
        assert np.array_equal(a, packed(b))


@pytest.mark.parametrize("space", ("half-open-interval", "misner-strip"))
def test_gathered_runs_equal_the_matrix_blocks(space, monkeypatch):
    # runs, strides and no ids, across column blocks and row tiles
    monkeypatch.setattr(catalog_module, "_BLOCK", 128)
    monkeypatch.setattr(catalog_module, "_TILE_CELLS", 128 * 37)
    entry = catalog(space)
    fam = entry.family("default")
    sample, raw = sample_values(entry.space, fam, 300, 4)
    n = len(sample.coords)
    gather = _runs(n) + (np.arange(0), np.arange(5, n, 7),
                         np.arange(100, 260))
    _, blocks = validate_family(fam, sample, raw, entry.space, gather)
    rel = entry.space.relation_matrix(sample.coords)
    for idx, block in zip(gather, blocks, strict=True):
        assert np.array_equal(block, packed(rel[np.ix_(idx, idx)]))


@pytest.mark.parametrize("space", ("half-open-interval", "misner-strip"))
def test_gathers_or_in_whole_words_or_their_rows_unpacked(space,
                                                          monkeypatch):
    # column blocks of 128 and row tiles of 37 rows: every sample, and the
    # ids from 64, cover blocks from a word edge and OR in the tile's
    # words; the ids from 3 cover blocks from positions 125 and 253, off a
    # byte edge, and go through _or_columns, as do partial blocks
    monkeypatch.setattr(catalog_module, "_BLOCK", 128)
    monkeypatch.setattr(catalog_module, "_TILE_CELLS", 128 * 37)
    starts = {}  # a gathered block's id -> the columns _or_columns starts at
    or_columns = catalog_module._or_columns

    def spying(dst, col, rel):
        starts.setdefault(id(dst.base), set()).add(col)
        return or_columns(dst, col, rel)

    monkeypatch.setattr(catalog_module, "_or_columns", spying)
    entry = catalog(space)
    fam = entry.family("default")
    sample, raw = sample_values(entry.space, fam, 300, 4)
    n = len(sample.coords)
    gather = (np.arange(n), np.arange(64, n), np.arange(3, n),
              np.arange(1, n, 3))
    _, blocks = validate_family(fam, sample, raw, entry.space, gather)
    rel = entry.space.relation_matrix(sample.coords)
    for idx, block in zip(gather, blocks, strict=True):
        assert np.array_equal(block, packed(rel[np.ix_(idx, idx)]))
    assert [starts.get(id(block)) for block in blocks[:3]] == \
        [None, {0}, {0, 125, 253}]
    assert len(starts[id(blocks[3])]) == 3


def test_sampling_past_the_budget_is_refused_before_sampling():
    budget = catalog_module.SAMPLE_BUDGET
    fam = FunctionFamily((_ID,), ())

    class Unsampled:
        def sample(self, resolution, tail_depth):
            raise AssertionError("sampled past the budget")

    with pytest.raises(BudgetError,
                       match=f"more than {budget} samples"):
        sample_values(Unsampled(), fam, budget + 1, 4)
    # nat-discrete's bump families hold one member per sample
    with pytest.raises(BudgetError, match=f"more than {budget} samples"):
        catalog("nat-discrete").family("C", budget + 1)
    # tail shells: at most TAIL_DEPTH_LIMIT, and one core sample left
    limit = catalog_module.TAIL_DEPTH_LIMIT
    with pytest.raises(BudgetError, match=f"more than {limit} tail shells"):
        sample_values(Unsampled(), fam, 512, limit + 1)
    with pytest.raises(BudgetError, match="more than 7 tail shells"):
        sample_values(Unsampled(), fam, 8, 8)


def test_sampled_values_past_the_budget_are_refused_before_sampling():
    # nat-discrete's C family holds two members per sample: 4,096 samples
    # hold exactly VALUE_BUDGET values, 4,097 the first count past it
    budget = catalog_module.VALUE_BUDGET
    nat = catalog("nat-discrete")
    assert 4096 * len(nat.family("C", 4096).members()) == budget

    class Sampled(Exception):
        pass

    class Unsampled:
        def sample(self, resolution, tail_depth):
            raise Sampled

    with pytest.raises(BudgetError,
                       match=f"more than {budget} sampled values"):
        sample_values(Unsampled(), nat.family("C", 4097), 4097, 4)
    with pytest.raises(Sampled):  # the budget itself is admitted
        sample_values(Unsampled(), nat.family("C", 4096), 4096, 4)


# what each catalog space is, as a test on its sample coordinates
_INSIDE = {
    "half-open-interval": lambda c: (c[:, 0] >= 0) & (c[:, 0] < 1),
    "closed-interval": lambda c: (c[:, 0] >= 0) & (c[:, 0] <= 1),
    "nat-discrete": lambda c: (c[:, 0] >= 0) & (c[:, 0] == np.round(c[:, 0])),
    "real-line-mirror": lambda c: np.isfinite(c[:, 0]),
    "misner-strip": lambda c: (c[:, 0] > 0) & (c[:, 0] <= 1)
    & np.isfinite(c[:, 1]),
}


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("extra", (1, 512))
def test_the_deepest_tails_stay_distinct_and_inside_the_space(name, extra):
    # the largest allowed depth, with one core sample left and with many
    depth = catalog_module.TAIL_DEPTH_LIMIT
    space = catalog(name).space
    sample, _ = sample_values(space, FunctionFamily((), ()), depth + extra,
                              depth)
    assert _INSIDE[name](sample.coords).all()
    assert len(sample.tails) == space.ends
    for shells in sample.tails:
        assert len(shells) == depth
        points = [tuple(sample.coords[i]) for shell in shells for i in shell]
        assert len(set(points)) == len(points)


# --------------------------------------------------------- family types


def test_function_tag_validation():
    with pytest.raises(ValueError, match="monotone"):
        ScalarFunction("x", lambda c: 0.0, monotone="up")
    with pytest.raises(ValueError, match="tail value 0"):
        ScalarFunction("x", lambda c: 0.0, klass="C-", tail_value=0.5)
    with pytest.raises(ValueError, match="tail value 1"):
        ScalarFunction("x", lambda c: 0.0, klass="C+", tail_value=0.0)
    with pytest.raises(ValueError, match="declare a tail value"):
        ScalarFunction("x", lambda c: 0.0, klass="C")


def test_evaluate_rejects_values_of_the_wrong_shape():
    coords = np.linspace(0.0, 1.0, 5)[:, None]
    for fn in (lambda a: a, lambda a: 0.5, lambda a: a[:3, 0]):
        f = ScalarFunction("bad", fn, monotone="isotone")
        with pytest.raises(ValueError, match="shape"):
            f.evaluate(coords)


def test_family_part_validation():
    plain = ScalarFunction("p", lambda c: 0.5)
    with pytest.raises(ValueError, match="not tagged isotone"):
        FunctionFamily((plain,), ())
    with pytest.raises(ValueError, match="not C-class"):
        iso = ScalarFunction("i", lambda c: 0.5, monotone="isotone")
        FunctionFamily((iso,), (iso,))
    iso1 = ScalarFunction("same", lambda c: 0.5, monotone="isotone")
    iso2 = ScalarFunction("same", lambda c: 0.6, monotone="isotone")
    with pytest.raises(ValueError, match="duplicate"):
        FunctionFamily((iso1, iso2), ())


def test_family_selector_errors():
    entry = catalog("half-open-interval")
    with pytest.raises(KeyError, match="only valid for nat-discrete"):
        entry.family("Cplus")
    with pytest.raises(KeyError, match="unknown function names"):
        entry.family("id,nope")
    with pytest.raises(KeyError, match="unknown catalog space"):
        catalog("torus")


@pytest.mark.parametrize("space", ("half-open-interval", "nat-discrete"))
def test_family_selector_naming_no_function(space):
    # a selector of separators alone names nothing: an error, not an
    # empty H-part; the empty selector is still the default family
    entry = catalog(space)
    for selector in (",", " , ", ",,"):
        with pytest.raises(KeyError, match="names no function"):
            entry.family(selector, 16)
    names = [[f.name for f in entry.family(sel, 16).members()]
             for sel in ("", "default")]
    assert names[0] == names[1] != []


def test_evaluate_family_row_order():
    entry = catalog("half-open-interval")
    fam = entry.family("id,sq")
    coords = np.array([[0.5], [0.25]])
    vals = evaluate_family(fam, coords)
    # rows: id, sq, then the C-part constant
    assert vals.shape == (3, 2)
    assert vals[0, 0] == 0.5 and vals[1, 0] == 0.25 and vals[2, 0] == 1.0


def test_evaluate_family_matches_the_stacked_rows():
    for name in CATALOG_NAMES:
        entry = catalog(name)
        fam = entry.family("default", 64)
        coords = entry.space.sample(64, 4).coords
        want = np.array([f.evaluate(coords) for f in fam.members()])
        got = evaluate_family(fam, coords)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes(), name
    empty = evaluate_family(FunctionFamily((), ()), np.zeros((5, 1)))
    assert empty.shape == (0, 5) and empty.dtype == np.float64


def test_sample_values_peaks_near_the_raw_size():
    # each member's row is written into the result as it is evaluated,
    # never held in a list beside it
    entry = catalog("nat-discrete")
    fam = entry.family("C", 512)
    tracemalloc.start()
    try:
        _, raw = sample_values(entry.space, fam, 512, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert raw.shape == (1024, 512)
    assert peak <= 1.25 * raw.nbytes


def test_validation_holds_no_copy_of_the_raw_values():
    # the EPS_FN slack is added where a bound is read (the kernel's copy of
    # each rank group, one tile row of a tag pass), so no raw-sized array
    # of bounds is formed
    entry = catalog("nat-discrete")
    fam = entry.family("C", 1024)
    sample, raw = sample_values(entry.space, fam, 1024, 4)
    tracemalloc.start()
    try:
        report, _ = validate_family(fam, sample, raw, entry.space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert raw.nbytes == 16 * 2 ** 20 and report.passed
    assert peak < 0.5 * raw.nbytes


# ------------------------------------------------------------- quotient


def test_mirror_quotient_data():
    entry = catalog("real-line-mirror")
    ray, project = entry.quotient_data()
    assert ray.name == "mirror-ray"
    assert project((-3.0,)) == (3.0,)
    # quotient order is the reversed ray order
    assert ray.space.relation((2.0,), (1.0,))
    assert not ray.space.relation((1.0,), (2.0,))
    mirror_sample = entry.space.sample(512, 4)
    ray_sample = ray.space.sample(512, 4)
    mags = set(np.abs(mirror_sample.coords[:, 0]).tolist())
    assert mags == set(ray_sample.coords[:, 0].tolist())


def test_trivial_quotients_are_identity():
    for name in ("half-open-interval", "nat-discrete", "misner-strip"):
        entry = catalog(name)
        q, project = entry.quotient_data()
        assert q is entry
        assert project((0.25, 0.5)[: entry.space.dim]) \
            == (0.25, 0.5)[: entry.space.dim]
