"""Numeric H-compactification of cataloged preordered spaces.

Pipeline: evaluate a function family on samples of the space, read
their image in the unit cube [0,1]^(H u C) clipped, quantize,
deduplicate into core vertices, extrapolate each end's tail to a
remainder vertex, and read the induced preorder off the quantized
H-coordinates.  Quantization before comparison is the soundness anchor:
tolerance-based comparisons are not transitive, integer comparisons are.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .catalog import DEFAULT_RESOLUTION, DEFAULT_TAIL_DEPTH, CatalogEntry, \
    FunctionFamily, sample_values, validate_family
from .preorder import _TILE_CELLS, PreorderGraph, _bit_at, _first_set, \
    _key_rows, _leading_block, _packed_leq, _row_keys, _strict_rows, \
    _unpack_rows, is_antisymmetric, quotient_preorder, \
    transitive_reflexive_closure
from .report import Check, CheckReport, merge_reports

DEFAULT_EPS_Q = 1e-3
DEFAULT_EPS_CAUCHY = 0.01
# violation rate at which verify still passes each of its two checks
DELTA_EMBED = 0.01
VERIFY_RESOLUTION = 2048
# most vertices for which a build runs the smallest-closure diagnostic
DIAGNOSTIC_BUDGET = 1500
# most candidate maps attempt_domination tries
SEARCH_CAP = 200_000


class DominationError(ValueError):
    pass


@dataclass(frozen=True)
class Compactification:
    entry: CatalogEntry
    family: FunctionFamily
    sample: object
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
        return len(self.family.h)

    @property
    def names(self):
        return _coordinate_names(self.family)

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


def _coordinate_names(family):
    """Coordinate names, H coordinates first."""
    return tuple(f"H:{f.name}" for f in family.h) \
        + tuple(f"C:{f.name}" for f in family.c)


def _clipped(values):
    """A C-order copy of values clipped to [0, 1]; fmax takes NaN to 0."""
    out = np.fmax(values, 0.0, order="C")
    return np.minimum(out, 1.0, out=out)


def _eps_q_error(eps_q):
    """Why quantizing [0, 1] in steps of eps_q leaves int64, or None."""
    if not (eps_q > 0 and 1 / eps_q < 2**63):
        return (f"eps_q must be positive with 1 / eps_q below 2**63, the "
                f"int64 limit of a quantized value, not {eps_q!r}")


def _quantize(values, eps_q):
    """values / eps_q rounded as int64, overwriting the float array values."""
    np.divide(values, eps_q, out=values)
    return np.rint(values, out=values).astype(np.int64)


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
    """
    h = quant[:, :h_count].T
    return PreorderGraph.from_packed(_packed_leq(h, h))


def close_and_cluster(entry, family, sample, raw, eps_q=DEFAULT_EPS_Q,
                      eps_cauchy=DEFAULT_EPS_CAUCHY) -> Compactification:
    """Quantize, dedup core vertices, extrapolate ends, build the preorder.

    raw is sample_values' (members, samples) array, never copied whole:
    it is read clipped to [0, 1] (NaN to 0), in row tiles of at most
    _TILE_CELLS values to quantize and one tail window per end.
    Per end, the tail window is every sample in its shells.  Coordinates
    of C-class members take their declared tail constants (they are
    exactly constant outside a compact set; a finite window straddling
    the deepest supports would misreport that).  All other coordinates
    must stay within eps_cauchy over the window and are extrapolated
    from the last three shell means, so an end needs at least three
    shells (ValueError otherwise).  One dict, filled in sample order,
    keys vertex ids by quantized row; an end's limit found below n_core
    converges into the core, one an earlier end added merges with it,
    and a new one is a remainder vertex.  quant is the keys, read-only.
    """
    if error := _eps_q_error(eps_q):
        raise ValueError(error)
    width, n = raw.shape
    ids = {}  # quantized row's key -> vertex id, by first occurrence
    step = max(1, _TILE_CELLS // max(width, 1))
    sample_map = np.array([  # each row tile quantized, keyed and freed
        ids.setdefault(key, len(ids)) for r0 in range(0, n, step)
        for key in _row_keys(_quantize(_clipped(
            raw[:, r0:r0 + step].T), eps_q)).tolist()])
    n_core = len(ids)

    members, names = family.members(), _coordinate_names(family)
    end_map, end_info, complete = [], [], True
    for end, shells in enumerate(sample.tails):
        if len(shells) < 3:
            raise ValueError(
                f"end {end} has {len(shells)} tail shells; extrapolating "
                f"its limit needs at least 3")
        window = _clipped(raw[:, [i for s in shells for i in s]])
        local = [range(*span) for span in itertools.pairwise(
            itertools.accumulate(map(len, shells), initial=0))]
        limit = np.empty(len(members))
        worst_spread, worst_name = 0.0, None
        for j, f in enumerate(members):
            spread, limit[j] = _tail_limit(f, window[j], local)
            if spread > worst_spread:
                worst_spread, worst_name = spread, names[j]
        if worst_spread > eps_cauchy:
            complete = False
            end_map.append(None)
            end_info.append({"status": "diverges", "worst_coordinate":
                             worst_name, "spread": worst_spread})
            continue
        ql = _quantize(limit, eps_q)
        new = len(ids)
        vid = ids.setdefault(_row_keys(ql[None]).item(), new)
        end_map.append(vid)
        end_info.append({
            "status": "converges_into_core" if vid < n_core
            else "remainder" if vid == new else "merged_remainder",
            "limit": tuple(ql.tolist()), "spread": worst_spread,
            "shells": len(shells)})

    quant = _key_rows(ids, np.int64, width)
    del ids  # its keys are a second copy of quant
    return Compactification(
        entry=entry, family=family, sample=sample, eps_q=eps_q,
        eps_cauchy=eps_cauchy, n_core=n_core, quant=quant,
        sample_map=sample_map, induced=_induced_graph(quant, len(family.h)),
        end_map=tuple(end_map), end_info=tuple(end_info), complete=complete)


def _verify_samples(comp):
    """Verify's sorted samples: core representatives, a stride subsample."""
    n = len(comp.sample.coords)
    reps = comp.representatives()[:comp.n_core]
    return reps, np.arange(0, n, max(1, -(-n // min(VERIFY_RESOLUTION, n))))


def verify_preorder_embedding(comp, samples, relations) -> CheckReport:
    """Spot-check that vertex order mirrors the space order.

    samples = _verify_samples(comp), relations the space relation within
    each, as the packed rows validate_family gathers.  (a) Over distinct
    core-vertex pairs, the space relation between representative samples
    must match the induced relation both ways: the XOR of the two packed
    relations is popcounted.  (b) Over a stride subsample of points, a
    space relation must be preserved forward into the induced relation
    restricted to their vertices: the space relation's words less those
    are popcounted.  Pass iff each violation rate is at most DELTA_EMBED.
    """
    coords, graph, n_core = comp.sample.coords, comp.induced, comp.n_core
    (reps, idx), (rel, sub_rel) = samples, relations
    diff = rel ^ _leading_block(graph.packed, n_core)
    pairs = n_core * n_core
    count = int(np.bitwise_count(diff).sum(dtype=np.int64))
    first = _first_set(diff)  # the induced order has (i, j) iff rel has not
    witness = first and (*(tuple(coords[reps[k]].tolist()) for k in first),
                         "missing" if _bit_at(rel, *first) else "induced")
    rate = count / pairs if pairs else 0.0
    vertex_check = Check(
        "vertex_order_matches_space", rate <= DELTA_EMBED, witness=witness,
        metrics={"violations": count, "pairs": pairs, "rate": rate},
    )

    viol = sub_rel & ~graph.restrict(comp.sample_map[idx]).packed
    count2 = int(np.bitwise_count(viol).sum(dtype=np.int64))
    first = _first_set(viol)
    witness2 = first and tuple(tuple(coords[idx[k]].tolist()) for k in first)
    sub_pairs = len(idx) * len(idx)
    rate2 = count2 / sub_pairs if sub_pairs else 0.0
    sample_check = Check(
        "sampled_relation_preserved", rate2 <= DELTA_EMBED, witness=witness2,
        metrics={"violations": count2, "pairs": sub_pairs, "rate": rate2},
    )
    return CheckReport((vertex_check, sample_check))


def remainder_is_ordered(comp) -> CheckReport:
    """Antisymmetry of the induced preorder on the remainder vertices."""
    if not comp.complete:
        raise ValueError("compactification is incomplete")
    n_core, rem = comp.n_core, comp.remainder_ids()
    _, pair = is_antisymmetric(comp.induced.restrict(rem))
    return CheckReport((Check(
        "remainder_antisymmetric", pair is None,
        witness=pair and (n_core + pair[0], n_core + pair[1]),
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
        witness = (i, tuple(comp2.sample.coords[i].tolist()))
    commutes = Check("commutes_on_samples", same_samples, witness=witness)

    bad = _first_set(comp2.induced.packed & ~comp1.induced.restrict(vm).packed)
    isotone = Check("isotone", bad is None,
                    witness=bad and (*bad, int(vm[bad[0]]), int(vm[bad[1]])))

    image = {int(vm[r]) for r in comp2.remainder_ids()}
    target = set(comp1.remainder_ids())
    witness = None
    if image != target:
        witness = {"image": sorted(image), "target": sorted(target)}
    r2r = Check("remainder_to_remainder", image == target, witness=witness)
    return CheckReport((commutes, isotone, r2r))


def _family_label(comp):
    return f"{comp.entry.name}[H={','.join(f.name for f in comp.family.h)}]"


def _require_same_samples(comp_a, comp_b):
    a, b = comp_a.sample.coords, comp_b.sample.coords
    if len(a) != len(b):
        raise DominationError(f"builds sample different point sets "
                              f"({len(a)} vs {len(b)} samples)")
    # points of other dimensions differ from the first sample on
    differ = (a != b).any(axis=1) if a.shape == b.shape else [True]
    if np.any(differ):
        i = int(np.argmax(differ))
        raise DominationError(f"builds sample different point sets (sample "
                              f"{i} at {tuple(a[i].tolist())} vs "
                              f"{tuple(b[i].tolist())})")


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
    if comp1.eps_q != comp2.eps_q:  # exact: stored builds round-trip it
        raise DominationError("builds use different quanta")
    _require_same_samples(comp2, comp1)
    proj_idx = [names2.index(nm) for nm in names1]

    target = comp1.quant
    lookup = {}
    for vid, key in enumerate(_row_keys(target).tolist()):
        lookup.setdefault(key, vid)
    proj = comp2.quant[:, proj_idx]
    vertex_map = []
    for v, key in enumerate(_row_keys(proj).tolist()):
        if key in lookup:
            vertex_map.append(lookup[key])
            continue
        cheb = np.abs(target - proj[v]).max(axis=1)
        best = int(cheb.min())
        if best > 1:
            raise DominationError(
                f"projected vertex {v} at {tuple(proj[v].tolist())} is "
                f"farther than one quantum from every target vertex"
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


def attempt_domination(comp_a, comp_b) -> DominationSearch:
    """Exhaustive search for a domination map comp_a -> comp_b.

    Each sampled vertex is forced to where its first sample goes, and
    every sample must agree; only the images of comp_a's remainder
    vertices are free.  Returns the first map passing all checks, or
    every candidate with its failing check.

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

    reps = comp_a.representatives()
    vm = np.where(reps < 0, -1, comp_b.sample_map[reps])
    clash = vm[comp_a.sample_map] != comp_b.sample_map
    if clash.any():
        return DominationSearch(None, ((("core", int(
            comp_a.sample_map[clash.argmax()])), "core_identification"),))

    n_b = comp_b.n_vertices
    count = n_b ** n_rem
    if count > SEARCH_CAP:
        raise DominationError(
            f"{count} candidate maps exceed the exhaustive search cap "
            f"of {SEARCH_CAP}")
    m2, m1 = (_unpack_rows(c.induced.packed, c.n_vertices)
              for c in (comp_a, comp_b))
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
            and not (m2_rows & ~m1[images].take(vm, axis=1)).any() \
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
    vals = f.evaluate(comp.sample.coords)

    end_limits = {}
    for end, shells in enumerate(comp.sample.tails):
        spread, end_limits[end] = _tail_limit(f, vals, shells)
        if not spread <= eps:  # a NaN spread fails too
            return ExtendabilityResult(
                False, {}, f"tail of end {end} is not Cauchy for {f.name}: "
                f"spread {spread:.4f}")

    extension = {}
    core_mean = np.zeros(comp.n_vertices)
    np.add.at(core_mean, comp.sample_map, vals)
    counts = np.bincount(comp.sample_map, minlength=comp.n_vertices)
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

    full = core_mean  # the core means, then each remainder vertex's limit
    full[list(extension)] = list(extension.values())
    # a compare with NaN is no break: NaN is -inf as a value, +inf as a bound
    bad = _first_set(comp.induced.packed & ~_packed_leq(
        np.nan_to_num(full, nan=-np.inf)[None],
        np.nan_to_num(full + eps, nan=np.inf)[None]))
    if bad is not None:
        return ExtendabilityResult(
            False, {}, f"extension of {f.name} breaks isotonicity between "
            f"vertices {bad[0]} and {bad[1]}")
    return ExtendabilityResult(True, extension)


def i_closure(entry, comp, candidates) -> tuple:
    """The subset of candidates extendable to this compactification."""
    return tuple(f for f in candidates
                 if extendability(entry, comp, f).extendable)


def smallest_closed_preorder_diagnostic(comp, core_rel) -> CheckReport:
    """Compare the induced preorder with the least closed relation over it.

    core_rel is the space relation between the core vertices'
    representatives, as the packed rows validate_family gathers.  Seed
    relation: the diagonal, core_rel, and the remainder rows/columns
    (tail-limit inheritance: a remainder vertex relates exactly where
    its quantized limit vector does), built on the induced relation's
    words.  One transitive_reflexive_closure gives the least closed
    preorder containing the seed; the check reports whether the induced
    preorder adds pairs beyond it, the first 20 in row-major order as its
    witness.  When core_rel equals the induced core block (up to the
    diagonal) the seed is the induced preorder, transitive by
    construction, so it is its own closure and no closure is computed.
    """
    if not comp.complete:
        raise ValueError("compactification is incomplete")
    graph = comp.induced
    seed = graph.packed.copy()  # the core block: the diagonal and core_rel
    block = seed[:comp.n_core, :core_rel.shape[1]]
    block ^= _strict_rows(_leading_block(graph.packed, comp.n_core))
    block |= core_rel
    fix = graph if np.array_equal(seed, graph.packed) else \
        transitive_reflexive_closure(PreorderGraph.from_packed(seed))
    excess = graph.packed & ~fix.packed
    # the first 20 excess pairs, row-major, lie in the first 20 such rows
    rows = np.flatnonzero(excess.any(axis=1))[:20]
    witness = [(int(rows[i]), int(j)) for i, j in np.argwhere(
        _unpack_rows(excess[rows], graph.n))[:20]] if len(rows) else None
    return CheckReport((Check(
        "induced_equals_smallest_closure", witness is None, witness=witness,
        metrics={"induced_pairs": graph.pair_count(),
                 "closure_pairs": fix.pair_count(),
                 "excess_pairs": int(np.bitwise_count(excess).sum())},
    ),))


def nachbin_pipeline(entry, family,
                     resolution=DEFAULT_RESOLUTION) -> CheckReport:
    """Quotient-then-compactify against compactify-then-quotient.

    Path A compactifies the space and quotients the induced preorder by
    its symmetric part; path B compactifies the catalog's quotient
    space, both with the default tail depth and tolerances.  The report
    checks an order isomorphism matching sample projections vertex-for-vertex.
    """
    q_entry, project = entry.quotient_data()
    comp_a, comp_b = (close_and_cluster(e, family, *sample_values(
        e.space, family, resolution, DEFAULT_TAIL_DEPTH))
        for e in (entry, q_entry))
    checks = [Check(f"path_{path}_complete", comp.complete,
                    witness=None if comp.complete else comp.end_info)
              for path, comp in (("a", comp_a), ("b", comp_b))]
    if not (comp_a.complete and comp_b.complete):
        return CheckReport(tuple(checks))

    qgraph, classes = quotient_preorder(comp_a.induced)
    anti, wit = is_antisymmetric(qgraph)
    checks.append(Check("quotient_antisymmetric", anti, witness=wit))

    h = comp_a.h_count
    keys = _row_keys(comp_a.quant[:, :h]).tolist()
    consistent = all(keys[v] == keys[block[0]] for block in classes
                     for v in block)
    checks.append(Check("classes_share_h_coordinates", consistent,
                        witness=None if consistent else "mixed class"))

    reps = [block[0] for block in classes]
    lookup = {}  # a quotient vertex's H-row key -> its id
    for vid, key in enumerate(_row_keys(comp_b.quant[:, :h]).tolist()):
        lookup.setdefault(key, vid)
    perm = [lookup.get(keys[v]) for v in reps]  # None: no partner
    missing = None
    if len(lookup) != comp_b.n_vertices:
        missing = "duplicate H-vectors among quotient vertices"
    elif None in perm:
        c = perm.index(None)
        missing = ("class without partner", c,
                   tuple(comp_a.quant[reps[c], :h].tolist()))
    bijective = missing is None and sorted(perm) == [*range(comp_b.n_vertices)]
    checks.append(Check(
        "vertex_bijection", bijective,
        witness=None if bijective else (missing or "counts differ"),
        metrics={"classes": len(perm), "quotient_vertices": comp_b.n_vertices},
    ))
    if not bijective:
        return CheckReport(tuple(checks))

    iso_witness = _first_set(qgraph.packed
                             ^ comp_b.induced.restrict(perm).packed)
    checks.append(Check("order_isomorphism", iso_witness is None,
                        witness=iso_witness))

    class_of = {m: c for c, block in enumerate(classes) for m in block}
    b_coords = {tuple(row): i
                for i, row in enumerate(comp_b.sample.coords.tolist())}
    proj_witness = None
    for i, row in enumerate(comp_a.sample.coords.tolist()):
        coords = tuple(row)
        target = project(coords)
        if target not in b_coords:
            proj_witness = (coords, "projection not among quotient samples")
            break
        via_a = perm[class_of[int(comp_a.sample_map[i])]]
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
                           eps_cauchy=DEFAULT_EPS_CAUCHY):
    """Full pipeline: close, validate, verify.  (comp, report).

    The space is sampled and the family evaluated once; validation and
    close_and_cluster read the same raw values, the one copy of them a
    build holds.  A value outside [0,1] or NaN fails validation's
    values_in_unit_interval, and close_and_cluster clips it as it reads
    it, so such a family still gets its report.  Validation walks the
    sample relation in row tiles (memory O(samples * tile), never
    samples^2), and the same pass gathers, as packed rows, the relation
    that verify and the diagnostic read, so the relation is evaluated
    once per build.
    The smallest-closure diagnostic computes an exact transitive closure
    unless the core relation already equals the induced core block, so
    it is included only up to DIAGNOSTIC_BUDGET vertices; past that the
    report simply omits it.
    """
    sample, raw = sample_values(entry.space, family, resolution, tail_depth)
    comp = close_and_cluster(entry, family, sample, raw, eps_q, eps_cauchy)
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
        if comp.n_vertices <= DIAGNOSTIC_BUDGET:
            reports.append(smallest_closed_preorder_diagnostic(
                comp, relations[0]))
    return comp, merge_reports(*reports)
