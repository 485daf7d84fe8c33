"""Exact order-topology checks on finite topological preordered spaces.

Points are indices 0..n-1 and subsets are int bitmasks.  A finite
topology is the Alexandrov topology of its specialization preorder: it
is stored as the minimal open neighborhood of each point and held as the
relation U, x -> y iff y is in umin[x].  The opens are the up-sets of U,
a set's closure is its down-set, and for the preorder G the graph is
closed iff U·G·Uᵀ ⊆ G, every increasing hull is closed iff G·Uᵀ ⊆ G and
every decreasing hull iff U·G ⊆ G.  The least closed preorder containing
a reflexive S is the transitive closure of U·S·Uᵀ.  The family of all
opens is built only when someone reads it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .preorder import (
    PreorderGraph,
    _converse,
    _first_excess,
    _product,
    function_preorder,
    quotient_preorder,
    transitive_reflexive_closure,
)
from .report import Check, CheckReport

# Default caps of the two exponential enumerations.
CLOPEN_BUDGET = 1 << 22  # clopen increasing sets
FUNCTION_BUDGET = 2_000_000  # chain-valued isotone functions
# most points load_space reads: check-finite on a 5,000-point chain takes
# 6 to 8 s on 2 vCPU, its products and closure cubic in the points
POINT_BUDGET = 5_000
# most values (rows x points) of a build's samples or an isotone function
# enumeration step; a build's traced peak is 24 B a value (770 MiB at the
# cap), set in close_and_cluster by raw, the dict's keys and the joined quant
VALUE_BUDGET = 1 << 25


class SpaceFormatError(ValueError):
    """Raised by the JSON loader; message carries the offending location."""


class BudgetError(ValueError):
    """An enumeration would produce more items than its budget allows."""

    def __init__(self, what: str, budget: int):
        super().__init__(f"budget exceeded: more than {budget} {what}")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class FiniteTopology:
    """Topology on points 0..n-1, stored as minimal neighborhoods.

    umin[x] is the smallest open mask containing x; equality and hashing
    compare (n, umin), which is the same as comparing the opens.  Masks
    form such a system iff each umin[x] contains x and, with any point
    y, all of umin[y] (U·U ⊆ U); anything else raises ValueError.
    """

    n: int
    umin: tuple

    def __post_init__(self):
        if len(self.umin) != self.n:
            raise ValueError(
                f"expected {self.n} minimal neighborhoods, got {len(self.umin)}")
        full = (1 << self.n) - 1
        for x, u in enumerate(self.umin):
            if u & ~full:
                raise ValueError(f"minimal neighborhood of {x} has points "
                                 f"outside 0..{self.n - 1}")
            if not u >> x & 1:
                raise ValueError(f"minimal neighborhood of {x} misses {x}")
        spec = PreorderGraph(self.n, self.umin)
        object.__setattr__(self, "_spec", spec)  # U, the one relation
        pair = _first_excess(_product(spec, spec).rows, spec)
        if pair is not None:
            u = self.umin[pair[0]]
            y = next(y for y in _bits(u) if self.umin[y] & ~u)
            raise ValueError(
                f"minimal neighborhood of {pair[0]} contains {y} but not "
                f"the minimal neighborhood of {y}")
        object.__setattr__(self, "_spec_t", _converse(spec))  # Uᵀ, once

    @classmethod
    def from_basis(cls, n: int, basis) -> "FiniteTopology":
        """Topology generated by the given subsets (masks or iterables).

        The minimal neighborhood of x is the intersection of the given
        sets that contain x (the whole space when none does).
        """
        full = (1 << n) - 1
        umin = [full] * n
        for b in basis:
            mask = b if isinstance(b, int) else sum(1 << i for i in set(b))
            if mask & ~full:
                raise ValueError(f"basis set {mask:#x} out of range")
            for x in _bits(mask):
                umin[x] &= mask
        return cls(n, tuple(umin))

    @classmethod
    def discrete(cls, n: int) -> "FiniteTopology":
        return cls.from_basis(n, [1 << i for i in range(n)])

    @classmethod
    def indiscrete(cls, n: int) -> "FiniteTopology":
        return cls.from_basis(n, [])

    @cached_property
    def opens(self) -> frozenset:
        """Every open mask: the unions of minimal neighborhoods (up to 2^n)."""
        joins = {0}
        for u in set(self.umin):
            joins |= {j | u for j in joins}
        return frozenset(joins)

    def is_open(self, mask: int) -> bool:
        """An up-set of U: it holds the minimal neighborhood of each point."""
        return not mask >> self.n and self._spec.up_set(mask) == mask

    def is_closed(self, mask: int) -> bool:
        return self.is_open(((1 << self.n) - 1) ^ mask)


def minimal_neighborhood(top: FiniteTopology, i: int) -> int:
    """Smallest open set containing point i."""
    if not 0 <= i < top.n:
        raise ValueError(f"point {i} out of range")
    return top.umin[i]


def set_closure(top: FiniteTopology, mask: int) -> int:
    """Smallest closed superset: the down-set of mask in U."""
    return top._spec.down_set(mask)


@dataclass(frozen=True)
class FinitePreorderedSpace:
    topology: FiniteTopology
    preorder: PreorderGraph

    def __post_init__(self):
        if self.topology.n != self.preorder.n:
            raise ValueError("topology and preorder point counts differ")

    @property
    def n(self) -> int:
        return self.topology.n

    @cached_property
    def _closed_ups(self) -> PreorderGraph:
        """G·Uᵀ: row x is the closure of the increasing hull i(x)."""
        return _product(self.preorder, self.topology._spec_t)

    @cached_property
    def _hull(self) -> PreorderGraph:
        """U·G·Uᵀ, the graph's closure in the product topology."""
        return _product(self.topology._spec, self._closed_ups)


def graph_is_closed(space: FinitePreorderedSpace) -> CheckReport:
    """Is the relation closed in the product topology?

    The box umin(x) x umin(y) is the smallest product neighborhood of
    (x, y), so the graph's closure is U·G·Uᵀ and G is closed iff
    U·G·Uᵀ ⊆ G.  Witness: the row-major first pair of the closure not
    in G.
    """
    witness = _first_excess(space._hull.rows, space.preorder)
    return CheckReport(
        (Check("graph_is_closed", witness is None, witness=witness),)
    )


def is_T1_preordered(space: FinitePreorderedSpace) -> CheckReport:
    """Every increasing hull i(x) and decreasing hull d(x) is closed.

    Row x of G·Uᵀ is the closure of i(x), and column x of U·G the
    closure of d(x).  Witness: the least x with a hull not closed, i(x)
    before d(x).
    """
    g, spec = space.preorder, space.topology._spec
    inc = dec = 0  # the x whose i(x) is not closed; columns of U·G - G
    for x, (up, down, own) in enumerate(zip(
            space._closed_ups.rows, _product(spec, g).rows, g.rows)):
        inc |= bool(up & ~own) << x
        dec |= down & ~own
    x = _least_bit(inc | dec)
    witness = None if x is None else (
        x, "increasing_hull" if inc >> x & 1 else "decreasing_hull")
    return CheckReport(
        (Check("is_T1_preordered", witness is None, witness=witness),)
    )


def _clopen_order(space: FinitePreorderedSpace) -> PreorderGraph:
    """The preorder generated by <= and the links between each point and
    its minimal neighborhood (G, U and Uᵀ): the closure of U·G·Uᵀ.

    The clopen sets are the unions of connected components of the link
    graph, and the links are symmetric, so a set is clopen and
    increasing iff it is an up-set of this order, and clopen and
    decreasing iff it is a down-set.
    """
    return transitive_reflexive_closure(space._hull)


@dataclass(frozen=True)
class SeparationResult:
    report: CheckReport
    function: tuple  # point -> value in {0, 1/2, 1}, or None

    @property
    def separable(self):
        """True/False when decided; None when a precondition failed."""
        for c in self.report.checks:
            if c.name == "monotone_separation":
                return c.passed
        return None


def monotone_separation(space, a_mask: int, b_mask: int) -> SeparationResult:
    """Continuous isotone f with f=1 on A and f=0 on B, if one exists.

    A must be closed and increasing, B closed and decreasing, disjoint.
    Separation exists iff the least clopen increasing superset S* of A
    misses B; the returned ladder is the average of the indicators of
    S* and of the complement of the matching set grown from B, giving
    values {0, 1/2, 1} (collapsing to an indicator when B is reachable
    from everything else, and to a constant on degenerate input).
    """
    top = space.topology
    g = space.preorder
    pre = []
    for side, mask, hull, kind in (("A", a_mask, g.up_set, "increasing"),
                                   ("B", b_mask, g.down_set, "decreasing")):
        extras = (("closed", set_closure(top, mask) & ~mask),
                  (kind, hull(mask) & ~mask))  # the first nonempty one
        wit = next(((f"{side} not {what}", _least_bit(extra))
                    for what, extra in extras if extra), None)
        pre.append(Check(f"{side}_closed_{kind}", wit is None, witness=wit))
    overlap = a_mask & b_mask
    pre.append(Check("disjoint_inputs", overlap == 0,
                     witness=_least_bit(overlap)))
    if not all(c.passed for c in pre):
        return SeparationResult(CheckReport(tuple(pre)), None)

    if not (a_mask and b_mask):  # 0 when A is empty, else 1 (B is)
        pre.append(Check("monotone_separation", True))
        return SeparationResult(CheckReport(tuple(pre)),
                                (1.0 if a_mask else 0.0,) * space.n)

    order = _clopen_order(space)
    s_star = order.up_set(a_mask)
    if s_star & b_mask:
        wit = _least_bit(s_star & b_mask)
        pre.append(
            Check(
                "monotone_separation", False, witness=wit,
                detail="least clopen increasing superset of A meets B",
            )
        )
        return SeparationResult(CheckReport(tuple(pre)), None)
    t_star = order.down_set(b_mask)
    # t_star is the least clopen decreasing superset of B; its complement
    # is clopen increasing and contains s_star, so the two indicators nest
    values = tuple(
        ((s_star >> x & 1) + (0 if t_star >> x & 1 else 1)) / 2.0
        for x in range(space.n)
    )
    pre.append(Check("monotone_separation", True))
    return SeparationResult(CheckReport(tuple(pre)), values)


def _least_bit(mask: int):
    return (mask & -mask).bit_length() - 1 if mask else None


def clopen_increasing_sets(space: FinitePreorderedSpace):
    """All clopen increasing masks, ascending.

    These are the up-sets of the clopen order (see _clopen_order).  They
    are enumerated by deciding the lowest undecided point: taking it
    adds its up-set, leaving it out adds its down-set.  Both branches
    stay consistent and every leaf is a distinct set, so the cost is
    O(n) per set.  Raises BudgetError when more than CLOPEN_BUDGET sets
    would be produced.
    """
    order = _clopen_order(space)
    up, down = order.rows, _converse(order).rows
    full = (1 << space.n) - 1
    out = []
    stack = [(0, 0)]  # (points taken, points left out)
    while stack:
        taken, left = stack.pop()
        rest = full & ~(taken | left)
        if not rest:
            if len(out) == CLOPEN_BUDGET:
                raise BudgetError("clopen increasing sets", CLOPEN_BUDGET)
            out.append(taken)
            continue
        x = (rest & -rest).bit_length() - 1
        stack.append((taken, left | down[x]))
        stack.append((taken | up[x], left))
    return tuple(sorted(out))


def enumerate_isotone_functions(space, levels: int):
    """All continuous isotone functions into {0, 1/L, ..., 1}, as rows.

    A chain-valued function is continuous and isotone iff it is isotone
    for the clopen order (see _clopen_order).  Its classes are visited
    lowest first, by down-set size; the partial functions are rows of
    level counts, and each row is repeated once for every level from the
    largest value below the class up to L, which is written to the whole
    class.  Returns a read-only (F, n) float64 array of counts / L, rows
    in ascending lexicographic order.  Every partial row extends to a
    function, so no step holds more rows than the result: BudgetError is
    raised, before any allocation past it, when more than FUNCTION_BUDGET
    functions exist or a step would hold more than VALUE_BUDGET values.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    n = space.n
    # the L + 1 constants are functions (an empty space has one), so the
    # counts below always fit the dtype that holds L
    if (levels + 1 if n else 1) > FUNCTION_BUDGET:
        raise BudgetError("isotone functions", FUNCTION_BUDGET)
    order = _clopen_order(space)
    down = _converse(order).rows
    counts = np.zeros((1, n), dtype=np.min_scalar_type(levels if n else 0))
    done = 0
    for x in sorted(range(n), key=lambda x: down[x].bit_count()):
        if done >> x & 1:
            continue
        members = order.rows[x] & down[x]
        done |= members
        below = list(_bits(down[x] & ~members))
        low = counts[:, below].max(axis=1, initial=0).astype(np.intp)
        reps = levels + 1 - low  # one row per value low..L
        total = int(reps.sum())
        if total > FUNCTION_BUDGET:
            raise BudgetError("isotone functions", FUNCTION_BUDGET)
        if total * n > VALUE_BUDGET:
            raise BudgetError("isotone function values", VALUE_BUDGET)
        first = np.repeat(np.cumsum(reps) - reps, reps)
        value = np.repeat(low, reps) + np.arange(total) - first
        counts = np.repeat(counts, reps, axis=0)
        counts[:, list(_bits(members))] = value[:, None]
    if n:
        counts = counts[np.lexsort(counts.T[::-1])]
    fns = counts / levels
    fns.flags.writeable = False
    return fns


def representation_check(space, fns) -> CheckReport:
    """Does the family represent the preorder: G(<=) = intersection G_f?

    fns is an (F, n) array, as enumerate_isotone_functions returns (a
    float64 one is not copied), or a sequence of rows; it is compared in
    one function_preorder call.  An empty family induces the full relation.
    """
    fns = np.asarray(fns, dtype=float)
    return _representation_report(space, function_preorder(fns) if len(fns)
                                  else PreorderGraph.full(space.n))


def clopen_representation_check(space) -> CheckReport:
    """representation_check of the continuous isotone functions into
    {0, 1/L, ..., 1}, at any L >= 1, unlisted: their fibres are clopen, so
    they are the functions isotone for the clopen order, whose up-sets'
    indicators are among them.  So they induce exactly _clopen_order."""
    return _representation_report(space, _clopen_order(space))


def _representation_report(space, induced) -> CheckReport:
    """The check that the relation induced is space's preorder; witness:
    the row-major first pair in just one, "extra" if it is in induced."""
    want = space.preorder
    pair = next(((i, _least_bit(got ^ own)) for i, (got, own) in enumerate(
        zip(induced.rows, want.rows)) if got != own), None)
    return CheckReport((Check(
        "represents_preorder", pair is None,
        witness=pair and (*pair, "extra" if induced.leq(*pair) else "missing"),
        metrics={"induced_pairs": induced.pair_count(),
                 "preorder_pairs": want.pair_count()}),))


def quotient_space(space: FinitePreorderedSpace):
    """Quotient by the symmetric part: (space on classes, classes).

    A class's minimal neighborhood holds the classes in its up-set for the
    preorder linking each point to its minimal neighborhood and its class:
    the least saturated open containing it.  No class merged: space as is.
    """
    q_graph, part = quotient_preorder(space.preorder)
    if len(part) == space.n:
        return space, part
    links = list(space.topology.umin)
    for members in part:
        mask = sum(1 << p for p in members)
        for p in members:
            links[p] |= mask
    reach = transitive_reflexive_closure(PreorderGraph(space.n, tuple(links)))
    reps = [members[0] for members in part]
    q_umin = tuple(sum(1 << i for i, r in enumerate(reps) if row >> r & 1)
                   for row in [reach.rows[c] for c in reps])
    return FinitePreorderedSpace(FiniteTopology(len(reps), q_umin),
                                 q_graph), part


def smallest_closed_preorder(top: FiniteTopology, seed_pairs) -> PreorderGraph:
    """Least closed preorder containing the seed pairs S (made reflexive):
    the closure T of U·S·Uᵀ.  T ⊇ S; any closed P ⊇ S holds U·S·Uᵀ ⊆
    U·P·Uᵀ ⊆ P; and T is closed, as U·U = U and U·Uᵀ ⊆ U·S·Uᵀ."""
    return _clopen_order(FinitePreorderedSpace(
        top, PreorderGraph.from_pairs(top.n, seed_pairs)))


def _is_int(value) -> bool:
    """A JSON integer: true and false are not, although bool is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_space(source) -> FinitePreorderedSpace:
    """Build a space from JSON: {"n": int, "basis": [[i,...]], "relation": [[i,j]]}.

    `source` is a path to a JSON file or an already-parsed dict.  The
    open sets are generated from the basis; the relation is closed
    transitively and reflexively (not topologically).  Raises
    SpaceFormatError naming the offending location or any other key, and
    BudgetError for more than POINT_BUDGET points.
    """
    if isinstance(source, dict):
        data = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SpaceFormatError(f"cannot read {source}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpaceFormatError(
                f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(data, dict):
        raise SpaceFormatError("top level: expected an object")
    for key in data:
        if key not in ("n", "basis", "relation"):
            raise SpaceFormatError(f"top level: unknown key {key!r}")
    try:
        n = data["n"]
    except KeyError:
        raise SpaceFormatError("top level: missing key 'n'") from None
    if not _is_int(n) or n < 0:
        raise SpaceFormatError("'n': expected a nonnegative integer")
    if n > POINT_BUDGET:
        raise BudgetError("points", POINT_BUDGET)
    basis = data.get("basis", [])
    if not isinstance(basis, list):
        raise SpaceFormatError("'basis': expected a list of point lists")
    masks = []
    for bi, b in enumerate(basis):
        if not isinstance(b, list):
            raise SpaceFormatError(f"basis[{bi}]: expected a list of points")
        mask = 0
        for pi, p in enumerate(b):
            if not _is_int(p):
                raise SpaceFormatError(f"basis[{bi}][{pi}]: expected an "
                                       f"integer point")
            if not 0 <= p < n:
                raise SpaceFormatError(f"basis[{bi}][{pi}]: point out of range")
            mask |= 1 << p
        masks.append(mask)
    relation = data.get("relation", [])
    if not isinstance(relation, list):
        raise SpaceFormatError("'relation': expected a list of [i, j] pairs")
    pairs = []
    for ri, pair in enumerate(relation):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(_is_int(v) for v in pair)
        ):
            raise SpaceFormatError(f"relation[{ri}]: expected a pair [i, j]")
        i, j = pair
        if not (0 <= i < n and 0 <= j < n):
            raise SpaceFormatError(f"relation[{ri}]: index out of range")
        pairs.append((i, j))
    top = FiniteTopology.from_basis(n, masks)
    graph = transitive_reflexive_closure(PreorderGraph.from_pairs(n, pairs))
    return FinitePreorderedSpace(top, graph)
