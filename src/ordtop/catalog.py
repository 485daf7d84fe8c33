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

from .report import Check, CheckReport

TWO_PI = 2.0 * math.pi

# tail shells for the continuous entries start at exhaustion level 7;
# deeper shells halve the distance to the end, so a run with tail_depth
# T samples levels 7 .. 6+T
TAIL_SHELL_BASE = 7

# cells per row tile of an all-pairs pass: up to 1,024 points take one tile
_TILE_CELLS = 1 << 20

# relative distance from a factored Misner bound below which a cell is
# recomputed directly; rounding moves the two forms apart by ~1e-15
_MISNER_TOL = 1e-12

DEFAULT_RESOLUTION = 512  # samples per build
DEFAULT_TAIL_DEPTH = 4  # tail shells per end
EPS_FN = 1e-6  # slack of validation's tests on sampled values
MIN_AGREEMENT = 0.99  # share of sampled pairs where H induces the relation


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
        names = [f.name for f in self.h]
        if len(set(names)) != len(names):
            raise ValueError("duplicate names in H-part")
        names = [f.name for f in self.c]
        if len(set(names)) != len(names):
            raise ValueError("duplicate names in C-part")

    def members(self) -> tuple:
        return self.h + self.c

    def h_names(self) -> tuple:
        return tuple(f.name for f in self.h)


class SampledSpace:
    """Generator for one cataloged space; subclasses fill in the pieces.

    relation_matrix(coords, other=None) is the boolean block whose entry
    (i, j) is coords[i] <= other[j]; other defaults to coords (square).
    Subclasses give it as _block(p, q) on (rows, dim) and (cols, dim).
    """

    name = ""
    dim = 1
    ends = 0

    def relation(self, p, q) -> bool:
        a = self.relation_matrix(np.array([p, q], dtype=float))
        return bool(a[0, 1])

    def relation_matrix(self, coords, other=None) -> np.ndarray:
        return self._block(coords, coords if other is None else other)

    def _block(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, resolution: int, tail_depth: int) -> SampleSet:
        raise NotImplementedError


def _sample_set(points, n_ends):
    """SampleSet of (row, level, end) triples; end -1 marks the core.

    Each end's tail points are grouped into shells by level, shallow first.
    """
    shells = [{} for _ in range(n_ends)]
    for idx, (_, level, end) in enumerate(points):
        if end >= 0:
            shells[end].setdefault(level, []).append(idx)
    return SampleSet(
        np.array([p[0] for p in points], dtype=float),
        np.array([p[1] for p in points], dtype=int),
        tuple(tuple(tuple(by_level[k]) for k in sorted(by_level))
              for by_level in shells),
    )


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

    def _block(self, p, q):
        return p[:, None, 0] <= q[None, :, 0]

    def sample(self, resolution, tail_depth):
        pts = []
        core = np.linspace(0.0, 1.0 - 2.0 ** -TAIL_SHELL_BASE,
                           resolution - tail_depth, endpoint=False)
        for x in core:
            level = 0 if x <= 0.5 else int(-math.log2(1.0 - x))
            pts.append(((float(x),), level, -1))
        for k in range(TAIL_SHELL_BASE, TAIL_SHELL_BASE + tail_depth):
            x = 1.0 - 0.6 * 2.0 ** -k
            pts.append(((x,), k, 0))
        return _sample_set(pts, self.ends)


class ClosedInterval(SampledSpace):
    """E = [0,1], compact: zero ends, every level 0."""

    name = "closed-interval"
    dim = 1
    ends = 0

    def _block(self, p, q):
        return p[:, None, 0] <= q[None, :, 0]

    def sample(self, resolution, tail_depth):
        xs = np.linspace(0.0, 1.0, resolution)
        return _sample_set([((float(x),), 0, -1) for x in xs], self.ends)


class NaturalsDiscrete(SampledSpace):
    """E = the naturals with the discrete preorder (equality only)."""

    name = "nat-discrete"
    dim = 1
    ends = 1

    def _block(self, p, q):
        return p[:, None, 0] == q[None, :, 0]

    def sample(self, resolution, tail_depth):
        pts = []
        for n in range(resolution):
            end = 0 if n >= resolution - tail_depth else -1
            pts.append(((float(n),), n, end))
        return _sample_set(pts, self.ends)


class RealLineMirror(SampledSpace):
    """E = R with x <= y iff |y| <= |x|; x and -x are equivalent."""

    name = "real-line-mirror"
    dim = 1
    ends = 2  # +inf and -inf; every C function ends up merging them

    def _block(self, p, q):
        return np.abs(q[None, :, 0]) <= np.abs(p[:, None, 0])

    def sample(self, resolution, tail_depth):
        return _mirror_sample(resolution, tail_depth, (1.0, -1.0))


class MirrorRay(SampledSpace):
    """Quotient of the mirror line: [0, inf) with the reversed order,
    sampled at the magnitudes of the mirror line's sample."""

    name = "mirror-ray"
    dim = 1
    ends = 1

    def _block(self, p, q):
        return q[None, :, 0] <= p[:, None, 0]

    def sample(self, resolution, tail_depth):
        return _mirror_sample(resolution, tail_depth, (1.0,))


def _mirror_sample(resolution, tail_depth, signs):
    """The mirror line's sample on the given signs: each core magnitude
    once per sign (0 once), and one end per sign."""
    pts = []
    half = max(2, (resolution - 2 * tail_depth + 1) // 2)
    for m in np.linspace(0.0, 96.0, half):
        level = 0 if m < 1.0 else int(math.log2(m))
        pts += [((float(s * m),), level, -1) for s in signs if s > 0 or m > 0]
    for k in range(TAIL_SHELL_BASE, TAIL_SHELL_BASE + tail_depth):
        pts += [((s * 1.5 * 2.0 ** k,), k, end) for end, s in enumerate(signs)]
    return _sample_set(pts, len(signs))


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
        pts = []
        t_lo = 1.05 * 2.0 ** -TAIL_SHELL_BASE
        core_t = np.exp(np.linspace(0.0, math.log(t_lo),
                                    max(2, n_rows - tail_depth)))
        for t in core_t:
            level = max(0, int(-math.log2(t)))
            for th in thetas:
                pts.append(((float(t), float(th)), level, -1))
        for k in range(TAIL_SHELL_BASE, TAIL_SHELL_BASE + tail_depth):
            t = 0.6 * 2.0 ** -k
            for th in thetas:
                pts.append(((t, float(th)), k, 0))
        return _sample_set(pts, self.ends)


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
            missing = [n for n in names if n not in self.pool]
            if missing:
                raise KeyError(
                    f"unknown function names for {self.name}: {missing}")
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
        minus, plus = _nat_bumps(resolution)
        h = {"C": minus + plus, "Cminus": minus, "Cplus": plus}[selector]
        return FunctionFamily(h, ())


def catalog(name: str) -> CatalogEntry:
    if name == "half-open-interval":
        return CatalogEntry(HalfOpenInterval(), _interval_pool(), ("id",),
                            (_CONST_ONE,))
    if name == "closed-interval":
        return CatalogEntry(ClosedInterval(), _interval_pool(), ("id",),
                            (_CONST_ONE,))
    if name == "nat-discrete":
        return _NatEntry(NaturalsDiscrete(), _nat_pool(), (), ())
    if name == "real-line-mirror":
        return _MirrorEntry(RealLineMirror(), _mirror_pool(), ("invmod",),
                            (_CONST_ONE,))
    if name == "misner-strip":
        return CatalogEntry(MisnerStrip(), _misner_pool(),
                            tuple(sorted(_misner_pool())), (_CONST_ONE,))
    raise KeyError(f"unknown catalog space {name!r}")


CATALOG_NAMES = (
    "half-open-interval",
    "nat-discrete",
    "real-line-mirror",
    "misner-strip",
    "closed-interval",
)


# ------------------------------------------------------------ validation


def evaluate_family(family: FunctionFamily, coords: np.ndarray):
    """Stack family values: rows follow family.members() order."""
    vals = [f.evaluate(coords) for f in family.members()]
    return np.array(vals, dtype=float) if vals else np.zeros((0, len(coords)))


def sample_values(space, family, resolution, tail_depth):
    """One sample of the space and the family's raw values on it."""
    sample = space.sample(resolution, tail_depth)
    return sample, evaluate_family(family, sample.coords)


def validate_family(family, sample, raw, space, eps_fn=EPS_FN,
                    min_agreement=MIN_AGREEMENT, gather=()):
    """Check tags on samples and that the H-part represents the relation.

    raw holds the family's values on sample, as from sample_values.  The
    agreement rate of the space relation with the coordinate-wise H
    comparison over all sampled pairs passes at min_agreement.  Each row
    tile relates _TILE_CELLS // n samples to all n, so memory stays
    O(n * tile).  Returns the report and, for each sorted index array in
    gather, the relation among those samples.
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
    # isotone breaks on v_i > v_j + eps, anti-isotone on v_i < v_j - eps
    bounds = {m: raw[m] + (eps_fn if f.monotone == "isotone" else -eps_fn)
              for m, f in enumerate(members) if f.monotone != "none"}

    first_bad = {}  # member -> witness of its first violation, row-major
    first_diff = None
    disagreements = 0
    blocks = [np.empty((len(s), len(s)), dtype=bool) for s in gather]
    step = max(1, _TILE_CELLS // max(n, 1))
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
        # an H member breaks its tag only where H misses a related pair:
        # v_i > v_j + eps implies not v_i <= v_j + eps, also for NaN
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
