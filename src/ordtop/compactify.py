"""Numeric H-compactification of cataloged preordered spaces.

Pipeline: embed samples through a function family into the unit cube,
quantize, deduplicate into core vertices, extrapolate each end's tail
to a remainder vertex, and read the induced preorder off the quantized
H-coordinates.  Quantization before comparison is the soundness anchor:
tolerance-based comparisons are not transitive, integer comparisons are.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .catalog import DEFAULT_RESOLUTION, DEFAULT_TAIL_DEPTH, _TILE_CELLS, \
    sample_values, validate_family
from .preorder import PreorderGraph, _closure_numpy, is_antisymmetric, \
    quotient_preorder
from .report import Check, CheckReport, merge_reports

DEFAULT_EPS_Q = 1e-3
DEFAULT_EPS_CAUCHY = 0.01
# violation rate at which verify still passes each of its two checks
DELTA_EMBED = 0.01
VERIFY_RESOLUTION = 2048


class DominationError(ValueError):
    pass


@dataclass(frozen=True)
class ImageCloud:
    """Sampled image of the space in [0,1]^(H u C), H coordinates first."""

    entry: CatalogEntry
    family: FunctionFamily
    sample: object
    values: np.ndarray  # (n_samples, n_coords)
    h_count: int
    names: tuple

    @property
    def n_samples(self):
        return len(self.values)


def embed(entry, family, sample, raw) -> ImageCloud:
    """Clip sample_values' raw values into an image cloud, NaN to 0.

    validate_family reports values outside [0,1]; a build still embeds
    them, so its report carries the witness.
    """
    values = np.clip(np.nan_to_num(raw.T), 0.0, 1.0)
    names = tuple(f"H:{f.name}" for f in family.h) \
        + tuple(f"C:{f.name}" for f in family.c)
    return ImageCloud(entry, family, sample, values, len(family.h), names)


@dataclass(frozen=True)
class Compactification:
    cloud: ImageCloud
    eps_q: float
    eps_cauchy: float
    n_core: int  # vertices 0..n_core-1 are core, the rest remainder
    quant: np.ndarray  # (n_vertices, n_coords) int64, coords / eps_q
    sample_map: np.ndarray  # sample index -> vertex id
    induced: PreorderGraph
    end_map: tuple  # end index -> vertex id, or None for a diverging end
    end_info: tuple  # per end: dict with status / limit / spread data
    complete: bool

    @property
    def h_count(self):
        return self.cloud.h_count

    @property
    def names(self):
        return self.cloud.names

    @property
    def n_vertices(self):
        return len(self.quant)

    def core_ids(self):
        return tuple(range(self.n_core))

    def remainder_ids(self):
        return tuple(range(self.n_core, self.n_vertices))

    def representatives(self):
        """First sample index mapping to each vertex (-1 for remainder)."""
        reps = np.full(self.n_vertices, -1, dtype=int)
        vertices, first = np.unique(self.sample_map, return_index=True)
        reps[vertices] = first
        return reps


def _row_keys(rows):
    """One void scalar per row of a 2-d array, equal iff the rows are."""
    rows = np.ascontiguousarray(rows)
    key = np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))
    return rows.view(key)[:, 0]


def _quantize(values, eps_q):
    return np.rint(np.asarray(values, dtype=float) / eps_q).astype(np.int64)


def _aitken(seq):
    """Accelerated limit of the last three terms; exact on geometric decay."""
    x0, x1, x2 = seq[-3], seq[-2], seq[-1]
    denom = x2 - 2.0 * x1 + x0
    if abs(denom) < 1e-12:
        return x2
    return x2 - (x2 - x1) ** 2 / denom


def _tail_limit(f, column, shells):
    """(spread, clamped limit) of one value column over an end's shells."""
    if f.klass is not None:  # exactly its declared constant out there
        return 0.0, float(f.tail_value)
    vals = [column[list(s)] for s in shells]
    window = np.concatenate(vals)
    means = [float(v.mean()) for v in vals]
    return (float(window.max() - window.min()),
            min(1.0, max(0.0, _aitken(means))))


def _induced_graph(quant, h_count):
    """Preorder from coordinate-wise <= on the quantized H-part.

    Integer <= per coordinate is reflexive and transitive, so the result
    is a preorder by construction (the test suite checks it as a property).
    Rank bitsets (Tan, Eng & Ooi, VLDB 2001): bitset t of column k holds
    the vertices whose value ranks >= t among the column's distinct
    values, and row i is the AND over the columns of bitset rank_k(i).
    Bitsets are rows of 64-bit words.  Columns are ranked by one argsort
    per chunk of _TILE_CELLS // 32 values, and ANDed into row tiles of
    _TILE_CELLS // 32 words, which stay in cache.
    """
    n = len(quant)
    if not n:
        return PreorderGraph(0, ())
    words = -(-n // 64)
    word = np.arange(n) >> 6
    bit = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64) % 64)
    full = np.zeros(words, dtype="<u8")
    np.bitwise_or.at(full, word, bit)
    rows = np.tile(full, (n, 1))
    width = max(1, _TILE_CELLS // 32 // n)
    step = max(1, _TILE_CELLS // 32 // words)
    for k in range(0, h_count, width):
        cols = np.ascontiguousarray(quant[:, k:min(k + width, h_count)].T)
        order = np.argsort(cols, axis=1)
        ranked = np.take_along_axis(cols, order, axis=1)
        dense = np.zeros(cols.shape, dtype=np.intp)
        dense[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
        np.cumsum(dense, axis=1, out=dense)
        # a column's bitsets run from its highest threshold down to its
        # last one, so each is the OR of the vertices at its rank and the
        # bitset before it
        last = np.cumsum(dense[:, -1] + 1) - 1
        top = np.empty_like(dense)
        np.put_along_axis(top, order, last[:, None] - dense, axis=1)
        bits = np.zeros((last[-1] + 1, words), dtype="<u8")
        np.bitwise_or.at(bits, (top, word), bit)
        for lo, hi in zip((last - dense[:, -1]).tolist(), (last + 1).tolist()):
            np.bitwise_or.accumulate(bits[lo:hi], axis=0, out=bits[lo:hi])
        for start in range(0, n, step):
            tile = rows[start:start + step]
            for index in top[:, start:start + step]:
                tile &= bits[index]
    return PreorderGraph.from_packed(rows)


def close_and_cluster(cloud, eps_q=DEFAULT_EPS_Q,
                      eps_cauchy=DEFAULT_EPS_CAUCHY) -> Compactification:
    """Quantize, dedup core vertices, extrapolate ends, build the preorder.

    Per end, the tail window is every sample in its shells.  Coordinates
    of C-class members take their declared tail constants (they are
    exactly constant outside a compact set; a finite window straddling
    the deepest supports would misreport that).  All other coordinates
    must stay within eps_cauchy over the window and are extrapolated
    from the last three shell means, so an end needs at least three
    shells (ValueError otherwise).  A quantized limit equal to a core
    vertex adds nothing; equal limits of different ends merge.
    """
    q = _quantize(cloud.values, eps_q)
    _, first, inverse = np.unique(_row_keys(q), return_index=True,
                                  return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    sample_map = rank[inverse]
    core = q[np.sort(first)]  # vertex ids in order of first occurrence
    remainder = []  # quantized limits of the remainder vertices

    members = cloud.family.members()
    end_map = []
    end_info = []
    complete = True
    for end, shells in enumerate(cloud.sample.tails):
        if len(shells) < 3:
            raise ValueError(
                f"end {end} has {len(shells)} tail shells; extrapolating "
                f"its limit needs at least 3")
        limit = np.empty(len(members))
        worst_spread = 0.0
        worst_name = None
        for j, f in enumerate(members):
            spread, limit[j] = _tail_limit(f, cloud.values[:, j], shells)
            if spread > worst_spread:
                worst_spread, worst_name = spread, cloud.names[j]
        if worst_spread > eps_cauchy:
            complete = False
            end_map.append(None)
            end_info.append({
                "status": "diverges",
                "worst_coordinate": worst_name,
                "spread": worst_spread,
            })
            continue
        ql = _quantize(limit, eps_q)
        info = {"status": "", "limit": tuple(ql.tolist()),
                "spread": worst_spread, "shells": len(shells)}
        hit = np.flatnonzero((core == ql).all(axis=1))
        if hit.size:
            vid = int(hit[0])
            info["status"] = "converges_into_core"
        elif info["limit"] in remainder:
            vid = len(core) + remainder.index(info["limit"])
            info["status"] = "merged_remainder"
        else:
            vid = len(core) + len(remainder)
            remainder.append(info["limit"])
            info["status"] = "remainder"
        end_map.append(vid)
        end_info.append(info)

    quant = np.vstack([core, np.array(remainder, dtype=np.int64)
                       .reshape(-1, core.shape[1])])
    induced = _induced_graph(quant, cloud.h_count)
    return Compactification(
        cloud=cloud, eps_q=eps_q, eps_cauchy=eps_cauchy, n_core=len(core),
        quant=quant, sample_map=sample_map, induced=induced,
        end_map=tuple(end_map), end_info=tuple(end_info), complete=complete,
    )


def _verify_samples(comp):
    """Verify's sorted samples: core representatives, a stride subsample."""
    n = comp.cloud.n_samples
    reps = comp.representatives()[:comp.n_core]
    return reps, np.arange(0, n, max(1, -(-n // min(VERIFY_RESOLUTION, n))))


def verify_preorder_embedding(comp, samples, relations) -> CheckReport:
    """Spot-check that vertex order mirrors the space order.

    samples = _verify_samples(comp), relations the space relation within
    each.  (a) Over distinct core-vertex pairs, the space relation
    between representative samples must match the induced relation both
    ways; (b) over a stride subsample of points, a space relation must
    be preserved forward into the induced relation.  Pass iff each
    violation rate is at most DELTA_EMBED.
    """
    coords, ind = comp.cloud.sample.coords, comp.induced.matrix
    (reps, idx), (rel, sub_rel) = samples, relations
    rep_coords = coords[reps]
    ind_core = ind[:comp.n_core, :comp.n_core]
    mism = rel != ind_core
    pairs = mism.size
    count = int(mism.sum())
    witness = None
    if count:
        i, j = divmod(int(np.argmax(mism)), mism.shape[1])
        witness = (tuple(rep_coords[i].tolist()),
                   tuple(rep_coords[j].tolist()),
                   "induced" if ind_core[i, j] else "missing")
    rate = count / pairs if pairs else 0.0
    vertex_check = Check(
        "vertex_order_matches_space", rate <= DELTA_EMBED, witness=witness,
        metrics={"violations": count, "pairs": pairs, "rate": rate},
    )

    sub_map = comp.sample_map[idx]
    sub_ind = ind[np.ix_(sub_map, sub_map)]
    viol = sub_rel & ~sub_ind
    count2 = int(viol.sum())
    witness2 = None
    if count2:
        i, j = divmod(int(np.argmax(viol)), viol.shape[1])
        witness2 = (tuple(coords[idx[i]].tolist()),
                    tuple(coords[idx[j]].tolist()))
    rate2 = count2 / viol.size if viol.size else 0.0
    sample_check = Check(
        "sampled_relation_preserved", rate2 <= DELTA_EMBED, witness=witness2,
        metrics={"violations": count2, "pairs": int(viol.size), "rate": rate2},
    )
    return CheckReport((vertex_check, sample_check))


def remainder_is_ordered(comp) -> CheckReport:
    """Antisymmetry of the induced preorder on the remainder vertices."""
    if not comp.complete:
        raise ValueError("compactification is incomplete")
    n_core, rem = comp.n_core, comp.remainder_ids()
    anti, pair = is_antisymmetric(PreorderGraph(
        len(rem), tuple(comp.induced.rows[v] >> n_core for v in rem)))
    witness = None if anti else (pair[0] + n_core, pair[1] + n_core)
    return CheckReport((Check(
        "remainder_antisymmetric", witness is None, witness=witness,
        metrics={"remainder_count": len(rem)},
    ),))


@dataclass(frozen=True)
class DominationMap:
    source: str
    target: str
    vertex_map: tuple
    report: CheckReport

    @property
    def ok(self):
        return self.report.passed


def _domination_report(comp2, comp1, vertex_map) -> CheckReport:
    """Checks of a vertex map comp2 -> comp1."""
    vm = np.asarray(vertex_map, dtype=int)
    same_samples = np.array_equal(vm[comp2.sample_map], comp1.sample_map)
    witness = None
    if not same_samples:
        i = int(np.argmax(vm[comp2.sample_map] != comp1.sample_map))
        witness = (i, tuple(comp2.cloud.sample.coords[i].tolist()))
    commutes = Check("commutes_on_samples", same_samples, witness=witness)

    bad = comp2.induced.matrix & ~comp1.induced.matrix[np.ix_(vm, vm)]
    witness = None
    if bad.any():
        u, v = np.argwhere(bad)[0]
        witness = (int(u), int(v), int(vm[u]), int(vm[v]))
    isotone = Check("isotone", not bad.any(), witness=witness)

    image = {int(vm[r]) for r in comp2.remainder_ids()}
    target = set(comp1.remainder_ids())
    witness = None
    if image != target:
        witness = {"image": sorted(image), "target": sorted(target)}
    r2r = Check("remainder_to_remainder", image == target, witness=witness)
    return CheckReport((commutes, isotone, r2r))


def _family_label(comp):
    return f"{comp.cloud.entry.name}[H={','.join(comp.cloud.family.h_names())}]"


def _require_same_samples(comp_a, comp_b):
    n_a, n_b = len(comp_a.sample_map), len(comp_b.sample_map)
    if n_a != n_b:
        raise DominationError(
            f"builds sample different point sets ({n_a} vs {n_b} samples)")


def dominate(comp2, comp1) -> DominationMap:
    """Project the H2-compactification onto the H1 one (H1 subset of H2).

    The vertex map sends each source vertex to the target vertex whose
    quantized coordinates match the projection exactly (looked up by
    row), else to the nearest within one quantum per coordinate (ties
    to the lowest id).
    """
    names1, names2 = comp1.names, comp2.names
    h1 = set(names1[: comp1.h_count])
    h2 = set(names2[: comp2.h_count])
    if not h1 <= h2:
        raise DominationError(f"H-part {sorted(h1)} is not a subset of {sorted(h2)}")
    if sorted(names1[comp1.h_count:]) != sorted(names2[comp2.h_count:]):
        raise DominationError("C-parts differ")
    if abs(comp1.eps_q - comp2.eps_q) > 1e-15:
        raise DominationError("builds use different quanta")
    _require_same_samples(comp2, comp1)
    proj_idx = [names2.index(nm) for nm in names1]

    target = comp1.quant
    lookup = {}
    for vid, row in enumerate(target.tolist()):
        lookup.setdefault(tuple(row), vid)
    vertex_map = []
    for v, p in enumerate(comp2.quant[:, proj_idx].tolist()):
        p = tuple(p)
        if p in lookup:
            vertex_map.append(lookup[p])
            continue
        cheb = np.abs(target - p).max(axis=1)
        best = int(cheb.min())
        if best > 1:
            raise DominationError(
                f"projected vertex {v} at {p} is farther than one "
                f"quantum from every target vertex"
            )
        vertex_map.append(int(np.argmax(cheb == best)))
    report = _domination_report(comp2, comp1, vertex_map)
    return DominationMap(_family_label(comp2), _family_label(comp1),
                         tuple(vertex_map), report)


@dataclass(frozen=True)
class DominationSearch:
    found: object  # DominationMap or None
    candidates: tuple  # (remainder assignment, first failing check)


_SEARCH_REMAINDER_LIMIT = 8


def attempt_domination(comp_a, comp_b, cap=200000) -> DominationSearch:
    """Exhaustive search for a domination map comp_a -> comp_b.

    The core identification is forced sample-by-sample; only the images
    of comp_a's remainder vertices are free.  Returns the first map
    passing all checks, or every candidate with its failing check.

    Remainder vertices carry no samples, so once the core identification
    holds every candidate commutes on samples, and the core x core block
    of the isotone check is the same for all of them: it is checked once.
    Each candidate then checks only its remainder rows and columns and
    its remainder image; the map that passes gets the full report.
    """
    n_core, n_rem = comp_a.n_core, len(comp_a.remainder_ids())
    for side, comp in (("source", comp_a), ("target", comp_b)):
        size = len(comp.remainder_ids())
        if size > _SEARCH_REMAINDER_LIMIT:
            raise DominationError(
                f"{side} remainder has {size} vertices; exhaustive search "
                f"allows at most {_SEARCH_REMAINDER_LIMIT}")
    _require_same_samples(comp_a, comp_b)

    vm = np.full(comp_a.n_vertices, -1, dtype=int)
    for i, va in enumerate(comp_a.sample_map):
        vb = comp_b.sample_map[i]
        if vm[va] == -1:
            vm[va] = vb
        elif vm[va] != vb:
            return DominationSearch(None, ((("core", int(va)),
                                            "core_identification"),))

    n_b = comp_b.n_vertices
    count = n_b ** n_rem
    if count > cap:
        raise DominationError(
            f"{count} candidate maps exceed the exhaustive search cap "
            f"of {cap}")
    m2, m1 = comp_a.induced.matrix, comp_b.induced.matrix
    target_rem = set(comp_b.remainder_ids())
    core_images = vm[:n_core]
    m1_core = m1[core_images]  # core images' rows, every target column
    core_isotone = not (m2[:n_core, :n_core]
                        & ~m1_core[:, core_images]).any()
    m2_rows, m2_cols = m2[n_core:], m2[:n_core, n_core:]
    candidates = []
    for assign in itertools.product(range(n_b), repeat=n_rem):
        vm[n_core:] = assign
        images = vm[n_core:]
        isotone = core_isotone \
            and not (m2_rows & ~m1[np.ix_(images, vm)]).any() \
            and not (m2_cols & ~m1_core[:, images]).any()
        if not isotone:
            candidates.append((assign, "isotone"))
        elif set(assign) != target_rem:
            candidates.append((assign, "remainder_to_remainder"))
        else:
            found = DominationMap(_family_label(comp_a),
                                  _family_label(comp_b),
                                  tuple(int(x) for x in vm),
                                  _domination_report(comp_a, comp_b, vm))
            return DominationSearch(found, tuple(candidates))
    return DominationSearch(None, tuple(candidates))


@dataclass(frozen=True)
class ExtendabilityResult:
    extendable: bool
    values: dict  # remainder vertex id -> extension value
    reason: str = ""

    def __bool__(self):
        return self.extendable


def extendability(entry, comp, f) -> ExtendabilityResult:
    """Whether f extends continuously and isotonely to the remainder.

    Per end: f's raw values over the tail window must agree within the
    build's eps_cauchy, its extrapolated limits at ends sharing a
    remainder vertex must agree, an end converging into the core must
    match the core value there, and the assigned limits must respect the
    induced preorder against per-vertex mean core values.
    """
    if not comp.complete:
        raise ValueError("compactification is incomplete")
    if f.monotone != "isotone":
        raise ValueError(f"{f.name} is not tagged isotone")
    eps = comp.eps_cauchy
    vals = f.evaluate(comp.cloud.sample.coords)

    end_limits = {}
    for end, shells in enumerate(comp.cloud.sample.tails):
        spread, end_limits[end] = _tail_limit(f, vals, shells)
        if spread > eps:
            return ExtendabilityResult(
                False, {}, f"tail of end {end} is not Cauchy for {f.name}: "
                f"spread {spread:.4f}")

    extension = {}
    core_mean = np.zeros(comp.n_vertices)
    counts = np.zeros(comp.n_vertices)
    np.add.at(core_mean, comp.sample_map, vals)
    np.add.at(counts, comp.sample_map, 1.0)
    with np.errstate(invalid="ignore"):
        core_mean = np.where(counts > 0, core_mean / np.maximum(counts, 1), 0.0)

    for end, vid in enumerate(comp.end_map):
        lim = end_limits[end]
        if vid < comp.n_core:
            if abs(lim - core_mean[vid]) > eps:
                return ExtendabilityResult(
                    False, {}, f"end {end} limit {lim:.4f} disagrees with "
                    f"core value {core_mean[vid]:.4f} for {f.name}")
            continue
        if vid in extension and abs(extension[vid] - lim) > eps:
            return ExtendabilityResult(
                False, {}, f"ends merging at vertex {vid} disagree for "
                f"{f.name}: {extension[vid]:.4f} vs {lim:.4f}")
        extension.setdefault(vid, lim)

    full = core_mean.copy()
    for vid, value in extension.items():
        full[vid] = value
    bad = comp.induced.matrix & (full[:, None] > full[None, :] + eps)
    if bad.any():
        u, v = np.argwhere(bad)[0]
        return ExtendabilityResult(
            False, {}, f"extension of {f.name} breaks isotonicity between "
            f"vertices {int(u)} and {int(v)}")
    return ExtendabilityResult(True, extension)


def i_closure(entry, comp, candidates) -> tuple:
    """The subset of candidates extendable to this compactification."""
    return tuple(f for f in candidates
                 if extendability(entry, comp, f).extendable)


def smallest_closed_preorder_diagnostic(comp, core_rel) -> CheckReport:
    """Compare the induced preorder with the least closed relation over it.

    Seed relation: the diagonal, core_rel (the space relation between
    the core vertices' representatives), and the remainder rows/columns
    (tail-limit inheritance: a remainder vertex relates exactly where
    its quantized limit vector does).  One transitive closure gives the
    least closed preorder containing the seed; the check reports whether
    the induced preorder adds pairs beyond it.
    """
    if not comp.complete:
        raise ValueError("compactification is incomplete")
    n_core, ind = comp.n_core, comp.induced.matrix
    seed = np.eye(comp.n_vertices, dtype=bool)
    seed[:n_core, :n_core] = core_rel
    seed[n_core:] = ind[n_core:]
    seed[:, n_core:] = ind[:, n_core:]
    fix = _closure_numpy(seed)
    excess = ind & ~fix
    witness = [tuple(map(int, p)) for p in np.argwhere(excess)[:20]] or None
    return CheckReport((Check(
        "induced_equals_smallest_closure", not excess.any(), witness=witness,
        metrics={"induced_pairs": int(ind.sum()),
                 "closure_pairs": int(fix.sum()),
                 "excess_pairs": int(excess.sum())},
    ),))


def nachbin_pipeline(entry, family, resolution=DEFAULT_RESOLUTION,
                     tail_depth=DEFAULT_TAIL_DEPTH, eps_q=DEFAULT_EPS_Q,
                     eps_cauchy=DEFAULT_EPS_CAUCHY) -> CheckReport:
    """Quotient-then-compactify against compactify-then-quotient.

    Path A compactifies the space and quotients the induced preorder by
    its symmetric part; path B compactifies the catalog's quotient
    space.  The report checks an order isomorphism matching the sample
    projections vertex-for-vertex.
    """
    comp_a = close_and_cluster(embed(entry, family, *sample_values(
        entry.space, family, resolution, tail_depth)), eps_q, eps_cauchy)
    checks = [Check("path_a_complete", comp_a.complete,
                    witness=None if comp_a.complete else comp_a.end_info)]
    q_entry, project = entry.quotient_data()
    comp_b = close_and_cluster(embed(q_entry, family, *sample_values(
        q_entry.space, family, resolution, tail_depth)), eps_q, eps_cauchy)
    checks.append(Check("path_b_complete", comp_b.complete,
                        witness=None if comp_b.complete else comp_b.end_info))
    if not (comp_a.complete and comp_b.complete):
        return CheckReport(tuple(checks))

    qgraph, classes = quotient_preorder(comp_a.induced)
    anti, wit = is_antisymmetric(qgraph)
    checks.append(Check("quotient_antisymmetric", anti, witness=wit))

    h = comp_a.h_count
    class_vecs = []
    consistent = True
    for block in classes.classes:
        vecs = {tuple(comp_a.quant[v, :h]) for v in block}
        if len(vecs) != 1:
            consistent = False
        class_vecs.append(next(iter(vecs)))
    checks.append(Check("classes_share_h_coordinates", consistent,
                        witness=None if consistent else "mixed class"))

    b_vecs = [tuple(row[:h]) for row in comp_b.quant]
    phi = {}
    missing = None
    lookup = {vec: i for i, vec in enumerate(b_vecs)}
    if len(lookup) != len(b_vecs):
        missing = "duplicate H-vectors among quotient vertices"
    else:
        for ci, vec in enumerate(class_vecs):
            if vec not in lookup:
                missing = ("class without partner", ci, vec)
                break
            phi[ci] = lookup[vec]
    bijective = missing is None and len(phi) == len(class_vecs) \
        and len(set(phi.values())) == len(b_vecs)
    checks.append(Check(
        "vertex_bijection", bijective,
        witness=None if bijective else (missing or "counts differ"),
        metrics={"classes": len(class_vecs), "quotient_vertices": len(b_vecs)},
    ))
    if not bijective:
        return CheckReport(tuple(checks))

    perm = [phi[i] for i in range(len(class_vecs))]
    mb = comp_b.induced.matrix[np.ix_(perm, perm)]
    differ = np.argwhere(qgraph.matrix != mb)[:1].tolist()
    iso_witness = tuple(differ[0]) if differ else None
    checks.append(Check("order_isomorphism", iso_witness is None,
                        witness=iso_witness))

    index_map = classes.index_map()
    b_coords = {tuple(row): i
                for i, row in enumerate(comp_b.cloud.sample.coords.tolist())}
    proj_witness = None
    for i, row in enumerate(comp_a.cloud.sample.coords.tolist()):
        coords = tuple(row)
        target = project(coords)
        if target not in b_coords:
            proj_witness = (coords, "projection not among quotient samples")
            break
        via_a = phi[index_map[int(comp_a.sample_map[i])]]
        via_b = int(comp_b.sample_map[b_coords[target]])
        if via_a != via_b:
            proj_witness = (coords, via_a, via_b)
            break
    checks.append(Check("projections_commute", proj_witness is None,
                        witness=proj_witness))
    return CheckReport(tuple(checks))


def build_compactification(entry, family, resolution=DEFAULT_RESOLUTION,
                           tail_depth=DEFAULT_TAIL_DEPTH,
                           eps_q=DEFAULT_EPS_Q,
                           eps_cauchy=DEFAULT_EPS_CAUCHY,
                           diagnostic_budget=1500):
    """Full pipeline: validate, embed, close, verify.  (comp, report).

    The space is sampled and the family evaluated once; validation and
    the image cloud read the same raw values.  A value outside [0,1] or
    NaN fails validation's values_in_unit_interval, and embed clips it,
    so such a family still gets its report.  Validation walks the
    sample relation in row tiles (memory O(samples * tile), never
    samples^2), and the same pass gathers the relation that verify and
    the diagnostic read, so the relation is evaluated once per build.
    The smallest-closure diagnostic needs an exact transitive closure,
    so it is included only up to diagnostic_budget vertices; past that
    the report simply omits it.
    """
    sample, raw = sample_values(entry.space, family, resolution, tail_depth)
    comp = close_and_cluster(embed(entry, family, sample, raw),
                             eps_q, eps_cauchy)
    samples = _verify_samples(comp)
    validation, relations = validate_family(family, sample, raw, entry.space,
                                            gather=samples)
    reports = [validation]
    complete_check = Check(
        "all_ends_cauchy", comp.complete,
        witness=None if comp.complete else [
            info for info in comp.end_info if info["status"] == "diverges"],
        metrics={"vertices": comp.n_vertices,
                 "remainder": len(comp.remainder_ids())},
    )
    reports.append(CheckReport((complete_check,)))
    reports.append(verify_preorder_embedding(comp, samples, relations))
    if comp.complete:
        reports.append(remainder_is_ordered(comp))
        if comp.n_vertices <= diagnostic_budget:
            reports.append(smallest_closed_preorder_diagnostic(
                comp, relations[0]))
    return comp, merge_reports(*reports)
