"""Cataloged non-compact preordered spaces with evaluable function families.

Each entry provides deterministic sampling with exhaustion tails, an
exact preorder oracle, and named [0,1]-valued functions split into an
H-part (isotone, induces the preorder) and a C-part (constant outside a
compact set).  Custom spaces are not accepted: relation oracles are
code, not data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .finite_space import VALUE_BUDGET, BudgetError
from .preorder import _TILE_CELLS, _bit_at, _first_set, _leq_lookup, \
    _leq_tables, _or_columns, _pack_rows, _packed_leq, _unpack_rows
from .report import Check, CheckReport

TWO_PI = 2.0 * math.pi

# tail shells for the continuous entries start at exhaustion level 7;
# deeper shells halve the distance to the end, so a run with tail_depth
# T samples levels 7 .. 6+T
TAIL_SHELL_BASE = 7

# samples per column block of validation's bit-space pass, a multiple of
# 64: a block's rank table takes _BLOCK**2 / 8 bytes and its packed rows
# samples * _BLOCK / 8; the H part's tables are built once per block
_BLOCK = 4096

# relative distance from a factored Misner bound below which a cell is
# recomputed directly; rounding moves the two forms apart by ~1e-15
_MISNER_TOL = 1e-12

DEFAULT_RESOLUTION = 512  # samples per build
DEFAULT_TAIL_DEPTH = 4  # tail shells per end
EPS_FN = 1e-6  # slack of validation's tests on sampled values
MIN_AGREEMENT = 0.99  # share of sampled pairs where H induces the relation
# largest resolution a build may sample: validation is samples^2 in time,
# and misner-strip keeps about one vertex per sample with an n^2 relation
# (its build at 8,192 peaks near 300 MB); half-open-interval@20000, the
# largest build in use, validates in about 0.05 s
SAMPLE_BUDGET = 20_000
# most tail shells per end: half-open-interval's shell at level 6 + T is
# 1 - 0.6 * 2**-(6 + T), which at T = 47 rounds onto the shell before it
# and at T = 48 onto 1.0, outside [0, 1)
TAIL_DEPTH_LIMIT = 46


@dataclass(frozen=True)
class SampleSet:
    """Sampled points as coordinate rows, with their exhaustion levels."""

    coords: np.ndarray  # (n, dim) float64, one row per sample
    levels: np.ndarray  # (n,) int
    # per end: shells from shallow to deep, each a tuple of sample indices
    tails: tuple


@dataclass(frozen=True)
class ScalarFunction:
    """Evaluable function into [0,1] with monotonicity and class tags.

    klass is None or one of "C", "C-", "C+": constant outside a compact
    set / additionally that constant is 0 / is 1.  tail_value is the
    declared constant, exact for points with level >= tail_level.
    """

    name: str
    fn: object  # (n, dim) coordinate array -> (n,) values
    monotone: str = "none"  # isotone | anti_isotone | none
    klass: object = None
    tail_value: object = None
    tail_level: int = 0

    def __post_init__(self):
        if self.monotone not in ("isotone", "anti_isotone", "none"):
            raise ValueError(f"bad monotone tag {self.monotone!r}")
        if self.klass not in (None, "C", "C-", "C+"):
            raise ValueError(f"bad class tag {self.klass!r}")
        if self.klass == "C-" and self.tail_value != 0.0:
            raise ValueError("C- functions must declare tail value 0")
        if self.klass == "C+" and self.tail_value != 1.0:
            raise ValueError("C+ functions must declare tail value 1")
        if self.klass is not None and self.tail_value is None:
            raise ValueError("C-class functions must declare a tail value")

    def evaluate(self, coords: np.ndarray) -> np.ndarray:
        """Values over an (n, dim) coordinate array, one per row."""
        values = np.asarray(self.fn(coords), dtype=float)
        if values.shape != (len(coords),):
            raise ValueError(f"function {self.name} returned shape "
                             f"{values.shape} for {len(coords)} points")
        return values


@dataclass(frozen=True)
class FunctionFamily:
    h: tuple  # isotone members; the induced preorder reads only these
    c: tuple  # C-class members

    def __post_init__(self):
        for f in self.h:
            if f.monotone != "isotone":
                raise ValueError(f"H-part member {f.name} is not tagged isotone")
        for f in self.c:
            if f.klass is None:
                raise ValueError(f"C-part member {f.name} is not C-class")
        for part, members in (("H", self.h), ("C", self.c)):
            names = [f.name for f in members]
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate names in {part}-part")

    def members(self) -> tuple:
        return self.h + self.c


class SampledSpace:
    """Generator for one cataloged space; subclasses fill in the pieces.

    relation_matrix(coords, other=None) is the boolean block whose entry
    (i, j) is coords[i] <= other[j]; other defaults to coords (square).
    A subclass gives it as _keys(coords), (k, n) floats with p <= q iff
    each key of p is at most q's, which validation compares in bit space,
    or else as _block(p, q) on (rows, dim) and (cols, dim).
    """

    name = ""
    dim = 1
    ends = 0

    def relation(self, p, q) -> bool:
        a = self.relation_matrix(np.array([p, q], dtype=float))
        return bool(a[0, 1])

    def relation_matrix(self, coords, other=None) -> np.ndarray:
        return self._block(coords, coords if other is None else other)

    def _keys(self, coords):
        return None

    def _block(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return (self._keys(p)[:, :, None] <= self._keys(q)[:, None, :]) \
            .all(axis=0)

    def sample(self, resolution: int, tail_depth: int) -> SampleSet:
        raise NotImplementedError


def _sample_set(coords, levels, ends, n_ends):
    """SampleSet of coordinate rows with their levels and ends; end -1
    marks the core.  Each end's tail points are grouped into shells by
    level, shallow first, in sample order within a shell."""
    levels, ends = np.asarray(levels, dtype=int), np.asarray(ends)
    tails = []
    for end in range(n_ends):
        idx = np.flatnonzero(ends == end)
        idx = idx[np.argsort(levels[idx], kind="stable")]
        cuts = np.flatnonzero(np.diff(levels[idx])) + 1
        tails.append(tuple(tuple(shell.tolist())
                           for shell in np.split(idx, cuts) if len(shell)))
    return SampleSet(np.asarray(coords, dtype=float), levels, tuple(tails))


def _near(values, centres, widths):
    """Index pairs (i, j), as a (2, k) array, with |values[j] - centres[i]|
    <= widths[i]: one sort of values, then a window per centre."""
    order = np.argsort(values)
    ranked = values[order]
    lo = np.searchsorted(ranked, centres - widths, "left")
    counts = np.maximum(np.searchsorted(ranked, centres + widths, "right")
                        - lo, 0)
    i = np.repeat(np.arange(len(centres)), counts)
    offsets = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.stack([i, order[np.repeat(lo, counts) + offsets]])


class HalfOpenInterval(SampledSpace):
    """E = [0,1) with the standard order; the end sits at 1."""

    name = "half-open-interval"
    dim = 1
    ends = 1

    def _keys(self, coords):
        return coords.T

    def sample(self, resolution, tail_depth):
        core = np.linspace(0.0, 1.0 - 2.0 ** -TAIL_SHELL_BASE,
                           resolution - tail_depth, endpoint=False)
        shells = np.arange(TAIL_SHELL_BASE, TAIL_SHELL_BASE + tail_depth)
        levels = [0 if x <= 0.5 else int(-math.log2(1.0 - x))
                  for x in core.tolist()]
        return _sample_set(
            np.concatenate([core, 1.0 - 0.6 * 2.0 ** -shells])[:, None],
            levels + shells.tolist(), [-1] * len(core) + [0] * tail_depth,
            self.ends)


class ClosedInterval(SampledSpace):
    """E = [0,1], compact: zero ends, every level 0."""

    name = "closed-interval"
    dim = 1
    ends = 0

    _keys = HalfOpenInterval._keys  # the standard order, as on [0,1)

    def sample(self, resolution, tail_depth):
        return _sample_set(np.linspace(0.0, 1.0, resolution)[:, None],
                           np.zeros(resolution), (), self.ends)


class NaturalsDiscrete(SampledSpace):
    """E = the naturals with the discrete preorder (equality only)."""

    name = "nat-discrete"
    dim = 1
    ends = 1

    def _keys(self, coords):
        return np.concatenate([coords.T, -coords.T])

    def sample(self, resolution, tail_depth):
        n = np.arange(resolution)
        return _sample_set(n[:, None], n,
                           np.where(n >= resolution - tail_depth, 0, -1),
                           self.ends)


class RealLineMirror(SampledSpace):
    """E = R with x <= y iff |y| <= |x|; x and -x are equivalent."""

    name = "real-line-mirror"
    dim = 1
    ends = 2  # +inf and -inf; every C function ends up merging them

    def _keys(self, coords):
        return -np.abs(coords.T)

    def sample(self, resolution, tail_depth):
        return _mirror_sample(resolution, tail_depth, (1.0, -1.0))


class MirrorRay(SampledSpace):
    """Quotient of the mirror line: [0, inf) with the reversed order,
    sampled at the magnitudes of the mirror line's sample."""

    name = "mirror-ray"
    dim = 1
    ends = 1

    def _keys(self, coords):
        return -coords.T

    def sample(self, resolution, tail_depth):
        return _mirror_sample(resolution, tail_depth, (1.0,))


def _mirror_sample(resolution, tail_depth, signs):
    """The mirror line's sample on the given signs: each core magnitude
    once per sign (0 once), and one end per sign."""
    half = max(2, (resolution - 2 * tail_depth + 1) // 2)
    core = np.linspace(0.0, 96.0, half)
    shells = np.arange(TAIL_SHELL_BASE, TAIL_SHELL_BASE + tail_depth)
    x = np.concatenate([core, 1.5 * 2.0 ** shells])[:, None] * signs
    keep = ((x != 0) | (np.array(signs) > 0)).ravel()  # -0.0 goes
    levels = [0 if m < 1.0 else int(math.log2(m)) for m in core.tolist()]
    ends = np.where(np.arange(len(x))[:, None] < half, -1,
                    np.arange(len(signs)))
    return _sample_set(x.ravel()[keep, None],
                       np.repeat(levels + shells.tolist(), len(signs))[keep],
                       ends.ravel()[keep], len(signs))


class MisnerStrip(SampledSpace):
    """The strip 0 < t <= 1 around the circle, metric 2 dtheta dt + t dtheta^2,
    time-oriented toward decreasing t.

    The two null families are theta = const and dt/dtheta = -t/2, both
    future-directed with nonincreasing t, so integrating the winding
    null curve gives the causal relation in closed form:

        (t_p, th_p) <= (t_q, th_q)  iff  t_q <= t_p * exp(-d/2),
        d = (th_q - th_p) mod 2pi.

    Extra windings only tighten the bound, so the single-winding form is
    exact; the test suite re-derives it with an independent integrator.

    _block evaluates it factored: with r = th mod 2pi and a = t * exp(r/2),
    p <= q iff a_q <= a_p * exp(-pi) when r_q < r_p, else a_q <= a_p.  That
    takes O(n) exp calls instead of n^2.  Cells where rounding could make
    the two forms disagree (a_q within a relative _MISNER_TOL of a bound,
    or, for th outside [0, 2pi), r_q that close to r_p mod 2pi) are
    recomputed with the direct expression, so the block equals it exactly.
    """

    name = "misner-strip"
    dim = 2
    ends = 1

    def _block(self, p, q):
        rp, rq = np.mod(p[:, 1], TWO_PI), np.mod(q[:, 1], TWO_PI)
        ap, aq = p[:, 0] * np.exp(0.5 * rp), q[:, 0] * np.exp(0.5 * rq)
        wrapped = ap * math.exp(-math.pi)
        # the smaller bound holds on both sides of r_p, the larger on one:
        # r_q >= r_p when t_p >= 0, else r_q < r_p
        low, high = np.minimum(ap, wrapped), np.maximum(ap, wrapped)
        out = (rq[None, :] >= rp[:, None]) != (ap < 0)[:, None]
        out &= aq[None, :] <= high[:, None]
        out |= aq[None, :] <= low[:, None]
        tol = _MISNER_TOL * max(1.0, np.abs(p[:, 1]).max(initial=0.0),
                                np.abs(q[:, 1]).max(initial=0.0))
        near = [_near(aq, ap, tol * np.abs(ap)),
                _near(aq, wrapped, tol * np.abs(wrapped))]
        if (rp != p[:, 1]).any() or (rq != q[:, 1]).any():
            near += [_near(rq, rp + shift, tol)
                     for shift in (-TWO_PI, 0.0, TWO_PI)]
        i, j = np.concatenate(near, axis=1)
        d = np.mod(q[j, 1] - p[i, 1], TWO_PI)
        out[i, j] = q[j, 0] <= p[i, 0] * np.exp(-0.5 * d)
        return out

    def sample(self, resolution, tail_depth):
        n_theta = max(8, int(round(math.sqrt(resolution))))
        n_rows = max(2, int(round(resolution / n_theta)))
        thetas = np.arange(n_theta) * TWO_PI / n_theta
        t_lo = 1.05 * 2.0 ** -TAIL_SHELL_BASE
        core_t = np.exp(np.linspace(0.0, math.log(t_lo),
                                    max(2, n_rows - tail_depth)))
        shells = np.arange(TAIL_SHELL_BASE, TAIL_SHELL_BASE + tail_depth)
        levels = [max(0, int(-math.log2(t))) for t in core_t.tolist()]
        t = np.concatenate([core_t, 0.6 * 2.0 ** -shells])
        return _sample_set(
            np.column_stack([np.repeat(t, n_theta), np.tile(thetas, len(t))]),
            np.repeat(levels + shells.tolist(), n_theta),
            np.repeat([-1] * len(core_t) + [0] * tail_depth, n_theta),
            self.ends)


# ------------------------------------------------------------- functions


_CONST_ONE = ScalarFunction(
    "const1", lambda a: np.ones(len(a)), monotone="isotone", klass="C",
    tail_value=1.0, tail_level=0,
)


def _interval_pool():
    def mk(name, fn):
        return ScalarFunction(name, fn, monotone="isotone")

    return {
        "id": mk("id", lambda a: a[:, 0]),
        "sq": mk("sq", lambda a: a[:, 0] ** 2),
        "cube": mk("cube", lambda a: a[:, 0] ** 3),
        "sqrt": mk("sqrt", lambda a: np.sqrt(a[:, 0])),
        # rises so late that a desk-scale tail window cannot see its limit
        "pow64": mk("pow64", lambda a: a[:, 0] ** 64),
        "const1": _CONST_ONE,
    }


def _mirror_pool():
    def mk(name, fn):
        # nonincreasing in |x| means isotone for the mirror order
        return ScalarFunction(name, fn, monotone="isotone")

    return {
        "invmod": mk("invmod", lambda a: 1.0 / (1.0 + np.abs(a[:, 0]))),
        "invmod2": mk("invmod2", lambda a: 1.0 / (1.0 + np.abs(a[:, 0])) ** 2),
        "exp2": mk("exp2", lambda a: 2.0 ** -np.abs(a[:, 0])),
        "const1": _CONST_ONE,
    }


def _nat_pool():
    # the preorder is discrete, so every function is (vacuously) isotone
    return {
        "alt": ScalarFunction(
            "alt", lambda a: (1.0 + (-1.0) ** a[:, 0].astype(int)) / 2.0,
            monotone="isotone",
        ),
        "sat": ScalarFunction(
            "sat", lambda a: a[:, 0] / (a[:, 0] + 1.0), monotone="isotone",
        ),
    }


def _nat_bumps(resolution):
    minus, plus = [], []
    for k in range(resolution):
        minus.append(ScalarFunction(
            f"b{k}",
            (lambda k: lambda a: (a[:, 0].astype(int) == k).astype(float))(k),
            monotone="isotone", klass="C-", tail_value=0.0, tail_level=k + 1,
        ))
        plus.append(ScalarFunction(
            f"f{k}",
            (lambda k: lambda a: (a[:, 0].astype(int) != k).astype(float))(k),
            monotone="isotone", klass="C+", tail_value=1.0, tail_level=k + 1,
        ))
    return tuple(minus), tuple(plus)


def _window_integral(u, sigma):
    """Integral of exp(-s/2) over the arc [u-sigma, u+sigma] on the circle."""
    u = np.asarray(u, dtype=float)
    lo = u - sigma
    hi = u + sigma
    plain = 2.0 * (np.exp(-0.5 * lo) - np.exp(-0.5 * hi))
    wrap_lo = (
        2.0 * (np.exp(-0.5 * (lo + TWO_PI)) - math.exp(-0.5 * TWO_PI))
        + 2.0 * (1.0 - np.exp(-0.5 * hi))
    )
    wrap_hi = (
        2.0 * (np.exp(-0.5 * lo) - math.exp(-0.5 * TWO_PI))
        + 2.0 * (1.0 - np.exp(-0.5 * (hi - TWO_PI)))
    )
    return np.where(lo < 0.0, wrap_lo, np.where(hi > TWO_PI, wrap_hi, plain))


def arc_bound_function(alpha, sigma=0.02):
    """Crossing-bound functional averaged over a small arc of directions.

    For a single direction a the value 1 - t*exp(-((a-theta) mod 2pi)/2)
    is isotone for the strip's causal order but jumps at theta = a;
    averaging a over [alpha-sigma, alpha+sigma] keeps isotonicity exactly
    (each slice is isotone) and restores continuity.
    """

    def fn(arr):
        u = np.mod(alpha - arr[:, 1], TWO_PI)
        return 1.0 - arr[:, 0] * _window_integral(u, sigma) / (2.0 * sigma)

    return ScalarFunction(f"arc{int(round(alpha / TWO_PI * 1000)):03d}",
                          fn, monotone="isotone")


def _misner_pool(m=128, sigma=0.02):
    pool = {}
    for i in range(m):
        f = arc_bound_function(TWO_PI * i / m, sigma)
        pool[f.name] = f
    return pool


# --------------------------------------------------------------- entries


class CatalogEntry:
    """One space plus its named function pool and family builders."""

    def __init__(self, space, pool, default_h, c_part):
        self.space = space
        self.pool = dict(pool)
        self.default_h = tuple(default_h)
        self.c_part = tuple(c_part)

    @property
    def name(self):
        return self.space.name

    def family(self, selector="default", resolution=DEFAULT_RESOLUTION,
               tail_depth=DEFAULT_TAIL_DEPTH):
        """Build a family from a selector or a comma-list of pool names."""
        if selector in ("C", "Cminus", "Cplus"):
            raise KeyError(
                f"selector {selector!r} is only valid for nat-discrete"
            )
        if selector in ("default", None, ""):
            names = self.default_h
        else:
            names = [s.strip() for s in selector.split(",") if s.strip()]
            if not names:
                raise KeyError(f"selector {selector!r} names no function")
            missing = [n for n in names if n not in self.pool]
            if missing:
                raise KeyError(
                    f"unknown function names for {self.name}: {missing}")
            repeated = sorted({n for n in names if names.count(n) > 1})
            if repeated:
                raise KeyError(
                    f"repeated function names for {self.name}: {repeated}")
        return FunctionFamily(tuple(self.pool[n] for n in names), self.c_part)

    def quotient_data(self):
        """(entry for E/~, coordinate projection).  Identity when ~ is trivial."""
        return self, lambda coords: coords


class _MirrorEntry(CatalogEntry):
    def quotient_data(self):
        ray = CatalogEntry(MirrorRay(), _mirror_pool(), ("invmod",),
                           (_CONST_ONE,))
        return ray, lambda coords: (abs(coords[0]),)


class _NatEntry(CatalogEntry):
    def family(self, selector="default", resolution=DEFAULT_RESOLUTION,
               tail_depth=DEFAULT_TAIL_DEPTH):
        if selector in ("default", None, ""):
            selector = "C"
        if selector not in ("C", "Cminus", "Cplus"):
            return super().family(selector, resolution, tail_depth)
        _check_sample_budget(resolution)  # one bump per sample
        minus, plus = _nat_bumps(resolution)
        h = {"C": minus + plus, "Cminus": minus, "Cplus": plus}[selector]
        return FunctionFamily(h, ())


# name -> a new entry; the order is CATALOG_NAMES'
_ENTRIES = {
    "half-open-interval": lambda: CatalogEntry(
        HalfOpenInterval(), _interval_pool(), ("id",), (_CONST_ONE,)),
    "nat-discrete": lambda: _NatEntry(
        NaturalsDiscrete(), _nat_pool(), (), ()),
    "real-line-mirror": lambda: _MirrorEntry(
        RealLineMirror(), _mirror_pool(), ("invmod",), (_CONST_ONE,)),
    "misner-strip": lambda: CatalogEntry(
        MisnerStrip(), pool := _misner_pool(), sorted(pool), (_CONST_ONE,)),
    "closed-interval": lambda: CatalogEntry(
        ClosedInterval(), _interval_pool(), ("id",), (_CONST_ONE,)),
}
CATALOG_NAMES = tuple(_ENTRIES)


def catalog(name: str) -> CatalogEntry:
    if name not in _ENTRIES:
        raise KeyError(f"unknown catalog space {name!r}")
    return _ENTRIES[name]()


# ------------------------------------------------------------ validation


def evaluate_family(family: FunctionFamily, coords: np.ndarray):
    """Family values, one row per member in family.members() order, each
    written into one (members, samples) array as it is evaluated."""
    members = family.members()
    vals = np.empty((len(members), len(coords)))
    for row, f in zip(vals, members):
        row[:] = f.evaluate(coords)
    return vals


def _check_sample_budget(resolution):
    if resolution > SAMPLE_BUDGET:
        raise BudgetError("samples", SAMPLE_BUDGET)


def sample_values(space, family, resolution, tail_depth):
    """One sample of the space and the family's raw values on it.

    Raises BudgetError, before sampling, past SAMPLE_BUDGET, past
    VALUE_BUDGET values, or past TAIL_DEPTH_LIMIT shells or so many that
    no core sample is left.
    """
    _check_sample_budget(resolution)
    if resolution * len(family.members()) > VALUE_BUDGET:
        raise BudgetError("sampled values", VALUE_BUDGET)
    shells = min(TAIL_DEPTH_LIMIT, resolution - 1)
    if tail_depth > shells:
        raise BudgetError("tail shells", shells)
    sample = space.sample(resolution, tail_depth)
    return sample, evaluate_family(family, sample.coords)


def _breakable(raw, isotone, eps):
    """Per member row, whether some pair (i, j) has raw[i] > raw[j] + eps
    (isotone rows) or raw[i] < raw[j] - eps (the others).

    NaN compares False, so that is whether the largest (least) non-NaN
    value exceeds the least + eps (undercuts the largest - eps), which
    rounds as the least raw[j] + eps would, rounding being monotone; fmax
    and fmin skip NaN without the all-NaN warning of nanmax and nanmin.
    """
    top = np.fmax.reduce(raw, axis=1, initial=-np.inf)
    low = np.fmin.reduce(raw, axis=1, initial=np.inf)
    return np.where(isotone, top > low + eps, low < top - eps)


def _ids(ids, offset):
    """Sorted unique ids less offset, as the slice they are when they run
    consecutively, so that a gather of them is a view."""
    if len(ids) and ids[-1] - ids[0] == len(ids) - 1:
        return slice(ids[0] - offset, ids[-1] - offset + 1)
    return ids - offset


def validate_family(family, sample, raw, space, gather=()):
    """Check tags on samples and that the H-part represents the relation.

    raw holds the family's values on sample, as from sample_values.  The
    agreement rate of the space relation with the coordinate-wise H
    comparison over all sampled pairs passes at MIN_AGREEMENT.  The
    samples are walked in column blocks of _BLOCK: per block the H-part's
    relation is built as packed rows (_packed_leq), and the space
    relation's packed rows in row tiles of _TILE_CELLS // _BLOCK samples
    (a key space's looked up in its keys' tables over the block, another's
    packed from relation_matrix) are XORed with those rows, so memory
    stays O(n * _BLOCK).  A tag's pass compares only members that some
    pair could break, on the tile unpacked.  Returns the report and, for
    each sorted index array in gather, the relation among those samples as
    packed '<u8' rows, ORed in as the tile's words where the ids span the
    block from a word edge, else from the gathered rows unpacked.
    """
    coords, levels = sample.coords, sample.levels
    members, n_h, n = family.members(), len(family.h), len(coords)

    def point(i):  # a witness coordinate: a tuple of Python floats
        return tuple(coords[i].tolist())

    checks = [Check("h_part_nonempty", n_h > 0,
                    witness=None if n_h else "empty H-part")]

    range_witness = tail_witness = None
    limit = len(members)  # members past a found violation go unreported
    for m, f in enumerate(members):
        vals = raw[m]
        # each test negates the passing comparison, so NaN fails it
        outside = ~((vals >= -EPS_FN) & (vals <= 1.0 + EPS_FN))
        if outside.any():
            range_witness = range_witness or (f.name,
                                              point(int(np.argmax(outside))))
        if f.klass is not None and tail_witness is None:
            off = (levels >= f.tail_level) & \
                ~(np.abs(vals - f.tail_value) <= EPS_FN)
            if off.any():
                tail_witness = (f.name, point(int(np.argmax(off))),
                                "not at declared tail constant")
                limit = m + 1
    # isotone breaks on v_i > v_j + eps, anti-isotone on v_i < v_j - eps
    isotone = np.array([f.monotone == "isotone" for f in members], dtype=bool)
    slack = np.where(isotone, EPS_FN, -EPS_FN)  # added where a bound is read
    breakable = _breakable(raw, isotone, EPS_FN)
    passes = [m for m, f in enumerate(members[:limit])
              if f.monotone != "none" and breakable[m]]

    first_bad = {}  # member -> its first violating (i, j), row-major
    first_diff = None  # (i, j, label) of the first disagreement
    disagreements = 0
    blocks = [np.zeros((len(s), -(-len(s) // 64)), dtype="<u8")
              for s in gather]
    step = max(1, _TILE_CELLS // max(min(_BLOCK, n), 1))
    keys = space._keys(coords)
    for c0 in range(0, n, _BLOCK):
        cols = slice(c0, c0 + _BLOCK)
        w = min(_BLOCK, n - c0)
        words = -(-w // 64)
        # before h_bits, so that the tables' transient copies are gone
        tables = keys is not None and list(_leq_tables(keys[:, cols], step))
        h_bits = n_h and _packed_leq(raw[:n_h], raw[:n_h, cols], EPS_FN)
        # per gather, its first id's position and the block columns its ids
        # take, or None when they are all of them and start on a word edge
        spans = [(lo, None if hi - lo == w and not lo % 64
                  else _ids(s[lo:hi], c0)) for s in gather
                 for lo, hi in [np.searchsorted(s, (c0, c0 + w))]]
        for start in range(0, n, step):
            rows = slice(start, start + step)
            rel = None  # the bool tile, unpacked only if a tag pass reads it
            rel_bits = _leq_lookup(tables, keys[:, rows]) if tables else \
                _pack_rows(space.relation_matrix(coords[rows], coords[cols]),
                           words)
            for s, (clo, cids), block in zip(gather, spans, blocks):
                lo, hi = np.searchsorted(s, (start, start + step))
                got = rel_bits[_ids(s[lo:hi], start)]
                if cids is None:  # the tile's words go in as they are
                    block[lo:hi, clo // 64:clo // 64 + words] |= got
                else:
                    _or_columns(block[lo:hi], clo,
                                _unpack_rows(got, w)[:, cids])
            if n_h:  # where the H-induced relation differs from rel
                diff = rel_bits ^ h_bits[rows]
                wrong = int(np.bitwise_count(diff).sum(dtype=np.int64))
                disagreements += wrong
                if wrong and start < (first_diff or (n,))[0]:
                    i, j = _first_set(diff)
                    first_diff = min(first_diff or (n,), (
                        start + i, c0 + j,
                        "missing" if _bit_at(rel_bits, i, j) else "induced"))
                # an H member breaks its tag only where H misses a related
                # pair: v_i > v_j + eps implies not v_i <= v_j + eps
                missing = wrong and (rel_bits & diff).any()
            for m in passes:
                if m >= limit:
                    break
                # a later tile (or block) cannot precede a found pair
                if m < n_h and not missing or \
                        first_bad.get(m, (n,))[0] <= start:
                    continue
                if rel is None:
                    rel = _unpack_rows(rel_bits, w)
                broken = np.greater if members[m].monotone == "isotone" \
                    else np.less
                bad = broken(raw[m, rows, None], raw[m, cols] + slack[m])
                bad &= rel
                if bad.any():
                    i, j = divmod(int(np.argmax(bad)), w)
                    first_bad[m] = min(first_bad.get(m, (n,)),
                                       (start + i, c0 + j))
                    limit = m + 1
        del tables, h_bits  # before the next block's are built

    if first_bad:
        m = min(first_bad)
        i, j = first_bad[m]
        tag_witness = (members[m].name, point(i), point(j))
    else:
        tag_witness = tail_witness
    checks.append(Check("values_in_unit_interval", range_witness is None,
                        witness=range_witness))
    checks.append(Check("monotone_and_class_tags", tag_witness is None,
                        witness=tag_witness))
    if n_h:
        pairs = n * n
        rate = float(np.divide(pairs - disagreements, pairs))
        if first_diff is not None:
            i, j, label = first_diff
            first_diff = (point(i), point(j), label)
        checks.append(Check(
            "represents_relation", rate >= MIN_AGREEMENT,
            witness=first_diff if rate < MIN_AGREEMENT else None,
            metrics={"agreement_rate": rate, "pairs": pairs,
                     "disagreements": disagreements},
        ))
    return CheckReport(tuple(checks)), blocks
