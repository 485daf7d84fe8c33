"""Exact order-topology checks on finite topological preordered spaces.

Points are indices 0..n-1, subsets are int bitmasks, a topology is the
family of its open masks.  Every finite topology is determined by the
minimal open neighborhood of each point, which makes closure, closedness
of the relation graph, and the separation fixpoints exact and cheap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .preorder import (
    PreorderGraph,
    function_preorder,
    intersect_graphs,
    quotient_preorder,
    transitive_reflexive_closure,
)
from .report import Check, CheckReport


class SpaceFormatError(ValueError):
    """Raised by the JSON loader; message carries the offending location."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class FiniteTopology:
    """Family of open sets over points 0..n-1, stored as bitmasks.

    The constructor verifies the axioms: empty and full set present,
    closed under union and intersection.  The check is linear in
    n * len(opens): a family is a topology iff every minimal
    neighborhood is open and U | umin(x) stays open for every open U
    and point x (unions of opens decompose into such steps, and
    intersections are unions of minimal neighborhoods).
    """

    n: int
    opens: frozenset

    def __post_init__(self):
        full = (1 << self.n) - 1
        if 0 not in self.opens:
            raise ValueError("empty set must be open")
        if full not in self.opens:
            raise ValueError("full set must be open")
        umin = [full] * self.n
        for u in self.opens:
            if u & ~full:
                raise ValueError(f"open set {u:#x} has points outside 0..{self.n - 1}")
            for x in _bits(u):
                umin[x] &= u
        for x in range(self.n):
            if umin[x] not in self.opens:
                raise ValueError(
                    f"not a topology: minimal neighborhood of {x} is not open"
                )
        for u in self.opens:
            for x in range(self.n):
                if (u | umin[x]) not in self.opens:
                    raise ValueError(
                        f"not a topology: union of {u:#x} and the minimal "
                        f"neighborhood of {x} is missing"
                    )
        object.__setattr__(self, "_umin", tuple(umin))

    @classmethod
    def from_basis(cls, n: int, basis) -> "FiniteTopology":
        """Topology generated by the given subsets (masks or iterables)."""
        full = (1 << n) - 1
        base = []
        for b in basis:
            mask = b if isinstance(b, int) else sum(1 << i for i in set(b))
            if mask & ~full:
                raise ValueError(f"basis set {mask:#x} out of range")
            base.append(mask)
        meets = {full}
        for b in base:
            meets |= {m & b for m in meets}
        joins = {0}
        for m in sorted(meets):
            joins |= {j | m for j in joins}
        return cls(n, frozenset(joins))

    @classmethod
    def discrete(cls, n: int) -> "FiniteTopology":
        return cls.from_basis(n, [1 << i for i in range(n)])

    @classmethod
    def indiscrete(cls, n: int) -> "FiniteTopology":
        return cls(n, frozenset({0, (1 << n) - 1}))

    def is_open(self, mask: int) -> bool:
        return mask in self.opens

    def is_closed(self, mask: int) -> bool:
        return ((1 << self.n) - 1) ^ mask in self.opens

    def sorted_opens(self) -> tuple:
        return tuple(sorted(self.opens))


def minimal_neighborhood(top: FiniteTopology, i: int) -> int:
    """Smallest open set containing point i."""
    if not 0 <= i < top.n:
        raise ValueError(f"point {i} out of range")
    return top._umin[i]


def set_closure(top: FiniteTopology, mask: int) -> int:
    """Smallest closed superset: points whose every neighborhood meets mask."""
    out = 0
    for x in range(top.n):
        if top._umin[x] & mask:
            out |= 1 << x
    return out


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


def graph_is_closed(space: FinitePreorderedSpace) -> CheckReport:
    """Is the relation closed in the product topology?

    The graph is closed iff every unrelated pair (x, y) has
    umin(x) x umin(y) disjoint from the relation; that box is the
    smallest product neighborhood, so the criterion is exact.
    Witness: the lexicographically least failing pair.
    """
    g = space.preorder
    top = space.topology
    witness = None
    for x in range(g.n):
        if witness:
            break
        for y in range(g.n):
            if g.leq(x, y):
                continue
            vy = top._umin[y]
            if any(g.rows[a] & vy for a in _bits(top._umin[x])):
                witness = (x, y)
                break
    return CheckReport(
        (Check("graph_is_closed", witness is None, witness=witness),)
    )


def increasing_hull(space: FinitePreorderedSpace, i: int) -> int:
    return space.preorder.up_set(1 << i)


def decreasing_hull(space: FinitePreorderedSpace, i: int) -> int:
    return space.preorder.down_set(1 << i)


def is_T1_preordered(space: FinitePreorderedSpace) -> CheckReport:
    """Every increasing hull i(x) and decreasing hull d(x) is closed."""
    top = space.topology
    witness = None
    for x in range(space.n):
        up = increasing_hull(space, x)
        if set_closure(top, up) != up:
            witness = (x, "increasing_hull")
            break
        down = decreasing_hull(space, x)
        if set_closure(top, down) != down:
            witness = (x, "decreasing_hull")
            break
    return CheckReport(
        (Check("is_T1_preordered", witness is None, witness=witness),)
    )


def _inflate_clopen(space: FinitePreorderedSpace, seed: int, hull) -> int:
    """Least clopen superset of seed closed under hull (monotone fixpoint).

    hull is the preorder's up_set (increasing) or down_set (decreasing).
    """
    top = space.topology
    cur = seed
    while True:
        nxt = cur | hull(cur) | set_closure(top, cur)
        for x in _bits(cur):
            nxt |= top._umin[x]
        if nxt == cur:
            return cur
        cur = nxt


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
    wit = None
    if set_closure(top, a_mask) != a_mask:
        wit = ("A not closed", _least_bit(set_closure(top, a_mask) & ~a_mask))
    elif g.up_set(a_mask) != a_mask:
        wit = ("A not increasing", _least_bit(g.up_set(a_mask) & ~a_mask))
    pre.append(Check("A_closed_increasing", wit is None, witness=wit))
    wit = None
    if set_closure(top, b_mask) != b_mask:
        wit = ("B not closed", _least_bit(set_closure(top, b_mask) & ~b_mask))
    elif g.down_set(b_mask) != b_mask:
        wit = ("B not decreasing", _least_bit(g.down_set(b_mask) & ~b_mask))
    pre.append(Check("B_closed_decreasing", wit is None, witness=wit))
    overlap = a_mask & b_mask
    pre.append(
        Check("disjoint_inputs", overlap == 0,
              witness=None if overlap == 0 else _least_bit(overlap))
    )
    if not all(c.passed for c in pre):
        return SeparationResult(CheckReport(tuple(pre)), None)

    if a_mask == 0:
        pre.append(Check("monotone_separation", True))
        return SeparationResult(CheckReport(tuple(pre)), (0.0,) * space.n)
    if b_mask == 0:
        pre.append(Check("monotone_separation", True))
        return SeparationResult(CheckReport(tuple(pre)), (1.0,) * space.n)

    s_star = _inflate_clopen(space, a_mask, g.up_set)
    if s_star & b_mask:
        wit = _least_bit(s_star & b_mask)
        pre.append(
            Check(
                "monotone_separation", False, witness=wit,
                detail="least clopen increasing superset of A meets B",
            )
        )
        return SeparationResult(CheckReport(tuple(pre)), None)
    t_star = _inflate_clopen(space, b_mask, g.down_set)
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


def clopen_increasing_sets(space: FinitePreorderedSpace, budget: int = 1 << 22):
    """All clopen increasing masks, ascending.  Cost 2^n; budget-guarded."""
    if 1 << space.n > budget:
        raise ValueError(f"2^{space.n} candidate sets exceed budget {budget}")
    g = space.preorder
    top = space.topology
    out = []
    for mask in range(1 << space.n):
        if mask in top.opens and top.is_closed(mask) and g.up_set(mask) == mask:
            out.append(mask)
    return tuple(out)


def enumerate_isotone_functions(space, levels: int, budget: int = 2_000_000):
    """All continuous isotone functions into {0, 1/L, ..., 1}.

    A chain-valued function is continuous and isotone iff each up-level
    set {f >= k/L} is clopen and increasing, so functions correspond to
    descending chains of clopen increasing sets.  Raises ValueError when
    more than `budget` functions would be produced.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    sets = clopen_increasing_sets(space)
    n = space.n
    out = []
    counts = [0] * n

    def descend(prev_mask, depth, acc):
        if depth == levels:
            out.append(tuple(v / levels for v in acc))
            if len(out) > budget:
                raise ValueError(f"more than {budget} functions; raise the budget")
            return
        for mask in sets:
            if mask & ~prev_mask:
                continue
            nxt = [acc[i] + (mask >> i & 1) for i in range(n)]
            descend(mask, depth + 1, nxt)

    descend((1 << n) - 1, 0, counts)
    return tuple(sorted(out))


def representation_check(space, fns) -> CheckReport:
    """Does the family represent the preorder: G(<=) = intersection G_f?

    An empty family induces the full relation.  Witness: least pair in
    the symmetric difference, tagged missing/extra relative to space's
    preorder.
    """
    fns = [tuple(f) for f in fns]
    if fns:
        induced = intersect_graphs([function_preorder([f]) for f in fns])
    else:
        induced = PreorderGraph.full(space.n)
    want = space.preorder
    witness = None
    for i in range(space.n):
        diff = induced.rows[i] ^ want.rows[i]
        if diff:
            j = _least_bit(diff)
            kind = "extra" if induced.leq(i, j) else "missing"
            witness = (i, j, kind)
            break
    metrics = {
        "induced_pairs": induced.pair_count(),
        "preorder_pairs": want.pair_count(),
    }
    return CheckReport(
        (Check("represents_preorder", witness is None, witness=witness,
               metrics=metrics),)
    )


def quotient_space(space: FinitePreorderedSpace):
    """Quotient by the symmetric part: (space on blocks, classes).

    Opens are the projections of saturated opens, i.e. exactly the
    quotient topology.
    """
    q_graph, part = quotient_preorder(space.preorder)
    rep = part.index_map()
    masks = [0] * len(part.classes)
    for point, idx in rep.items():
        masks[idx] |= 1 << point
    q_opens = set()
    for u in space.topology.opens:
        projected = 0
        for idx, cmask in enumerate(masks):
            inter = u & cmask
            if inter == cmask:
                projected |= 1 << idx
            elif inter:
                break  # not saturated
        else:
            q_opens.add(projected)
    q_top = FiniteTopology(len(part.classes), frozenset(q_opens))
    return FinitePreorderedSpace(q_top, q_graph), part


def smallest_closed_preorder(top: FiniteTopology, seed_pairs) -> PreorderGraph:
    """Least closed preorder containing the seed pairs.

    Alternates transitive-reflexive closure with topological closure of
    the graph in the product topology (a pair joins when its minimal
    neighborhood box meets the current graph) until stable.  Both steps
    keep the relation inside any closed preorder containing the seed,
    so the fixpoint is the intersection of them all.
    """
    n = top.n
    g = transitive_reflexive_closure(PreorderGraph.from_pairs(n, seed_pairs))
    while True:
        rows = list(g.rows)
        changed = False
        for x in range(n):
            ux = top._umin[x]
            for y in range(n):
                if rows[x] >> y & 1:
                    continue
                vy = top._umin[y]
                if any(g.rows[a] & vy for a in _bits(ux)):
                    rows[x] |= 1 << y
                    changed = True
        if not changed:
            return g
        g = transitive_reflexive_closure(PreorderGraph(n, tuple(rows)))


def load_space(source) -> FinitePreorderedSpace:
    """Build a space from JSON: {"n": int, "basis": [[i,...]], "relation": [[i,j]]}.

    `source` is a path, a JSON string, or an already-parsed dict.  The
    open sets are generated from the basis; the relation is closed
    transitively and reflexively (not topologically).  Raises
    SpaceFormatError naming the offending location.
    """
    if isinstance(source, dict):
        data = source
    else:
        text = source
        if "\n" not in str(source) and not str(source).lstrip().startswith("{"):
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise SpaceFormatError(f"cannot read {source}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpaceFormatError(
                f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(data, dict):
        raise SpaceFormatError("top level: expected an object")
    try:
        n = data["n"]
    except KeyError:
        raise SpaceFormatError("top level: missing key 'n'") from None
    if not isinstance(n, int) or n < 0:
        raise SpaceFormatError("'n': expected a nonnegative integer")
    basis = data.get("basis", [])
    if not isinstance(basis, list):
        raise SpaceFormatError("'basis': expected a list of point lists")
    masks = []
    for bi, b in enumerate(basis):
        if not isinstance(b, list):
            raise SpaceFormatError(f"basis[{bi}]: expected a list of points")
        mask = 0
        for pi, p in enumerate(b):
            if not isinstance(p, int) or not 0 <= p < n:
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
            or not all(isinstance(v, int) for v in pair)
        ):
            raise SpaceFormatError(f"relation[{ri}]: expected a pair [i, j]")
        i, j = pair
        if not (0 <= i < n and 0 <= j < n):
            raise SpaceFormatError(f"relation[{ri}]: index out of range")
        pairs.append((i, j))
    top = FiniteTopology.from_basis(n, masks)
    graph = transitive_reflexive_closure(PreorderGraph.from_pairs(n, pairs))
    return FinitePreorderedSpace(top, graph)
