import itertools
import json
import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ordtop.cli
import ordtop.finite_space
import ordtop.preorder
from ordtop.finite_space import (
    BudgetError,
    FinitePreorderedSpace,
    FiniteTopology,
    SpaceFormatError,
    clopen_increasing_sets,
    clopen_representation_check,
    enumerate_isotone_functions,
    graph_is_closed,
    is_T1_preordered,
    load_space,
    minimal_neighborhood,
    monotone_separation,
    quotient_space,
    representation_check,
    set_closure,
    smallest_closed_preorder,
)
from ordtop.generators import (SPACE_STYLES, random_finite_space,
                               random_topology)
from ordtop.preorder import (
    PreorderGraph,
    is_antisymmetric,
    is_transitive,
    transitive_reflexive_closure,
)
from ordtop.report import Check, CheckReport

# ---------------------------------------------------------------- oracles


def oracle_closure(top, mask):
    """Intersect every closed superset of mask."""
    full = (1 << top.n) - 1
    out = full
    for u in top.opens:
        closed = full ^ u
        if closed & mask == mask:
            out &= closed
    return out


def oracle_graph_closed(space):
    """Brute force: unrelated pair needs SOME open box missing the graph."""
    g = space.preorder
    opens = space.topology.opens
    for x in range(g.n):
        for y in range(g.n):
            if g.leq(x, y):
                continue
            found = False
            for u in opens:
                if not u >> x & 1:
                    continue
                for v in opens:
                    if not v >> y & 1:
                        continue
                    if not any(g.rows[a] & v for a in range(g.n) if u >> a & 1):
                        found = True
                        break
                if found:
                    break
            if not found:
                return False, (x, y)
    return True, None


def oracle_continuous(top, values):
    """Raw definition: preimages of open rays are open."""
    cuts = sorted(set(values))
    for c in cuts:
        above = sum(1 << i for i, v in enumerate(values) if v > c - 1e-12)
        strictly_above = sum(1 << i for i, v in enumerate(values) if v > c + 1e-12)
        below = sum(1 << i for i, v in enumerate(values) if v < c - 1e-12)
        if strictly_above not in top.opens:
            return False
        if below not in top.opens:
            return False
        del above
    return True


def oracle_isotone(graph, values):
    return all(values[i] <= values[j] + 1e-12 for i, j in graph.pairs())


def oracle_separable(space, a_mask, b_mask, levels):
    """Exhaustive search over all chain-valued functions."""
    n = space.n
    for assignment in itertools.product(range(levels + 1), repeat=n):
        values = tuple(v / levels for v in assignment)
        if any(values[i] != 1.0 for i in range(n) if a_mask >> i & 1):
            continue
        if any(values[i] != 0.0 for i in range(n) if b_mask >> i & 1):
            continue
        if oracle_isotone(space.preorder, values) and oracle_continuous(
            space.topology, values
        ):
            return True
    return False


def all_preorders(n):
    """Every reflexive transitive relation on n points, as row tuples."""
    out = []
    diag = tuple(1 << i for i in range(n))
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(offdiag)):
        rows = list(diag)
        for k, (i, j) in enumerate(offdiag):
            if bits >> k & 1:
                rows[i] |= 1 << j
        g = PreorderGraph(n, tuple(rows))
        if is_transitive(g):
            out.append(g.rows)
    return out


_PREORDER_TABLE = {}


def oracle_smallest_closed(top, seed_pairs):
    """Intersect all closed preorders containing the seed (n <= 4)."""
    n = top.n
    if n not in _PREORDER_TABLE:
        _PREORDER_TABLE[n] = all_preorders(n)
    seed = transitive_reflexive_closure(PreorderGraph.from_pairs(n, seed_pairs))
    best = None
    for rows in _PREORDER_TABLE[n]:
        if any(seed.rows[i] & ~rows[i] for i in range(n)):
            continue
        sp = FinitePreorderedSpace(top, PreorderGraph(n, rows))
        if not graph_is_closed(sp).passed:
            continue
        if best is None:
            best = list(rows)
        else:
            best = [best[i] & rows[i] for i in range(n)]
    return PreorderGraph(n, tuple(best))


def rand_topology(rng, n):
    style = rng.randrange(4)
    if style == 0:
        return FiniteTopology.discrete(n)
    if style == 1:
        return FiniteTopology.indiscrete(n)
    k = rng.randrange(1, n + 2)
    basis = [rng.randrange(1 << n) for _ in range(k)]
    return FiniteTopology.from_basis(n, basis)


def rand_space(rng, n, closed_graph=False):
    top = rand_topology(rng, n)
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < 0.25
    ]
    if closed_graph:
        g = smallest_closed_preorder(top, pairs)
    else:
        g = transitive_reflexive_closure(PreorderGraph.from_pairs(n, pairs))
    return FinitePreorderedSpace(top, g)


# References for the paths that read minimal neighborhoods: the 2^n mask
# scan, the quotient that walks every open, and one n x n broadcast compare
# per function.  They read `topology.opens`, which the library never does.


def reference_clopen_increasing_sets(space):
    top = space.topology
    full = (1 << space.n) - 1
    return tuple(
        mask for mask in range(1 << space.n)
        if mask in top.opens and full ^ mask in top.opens
        and space.preorder.up_set(mask) == mask
    )


def reference_enumerate_isotone_functions(space, levels):
    """The descending chains of `levels` clopen increasing sets, one
    recursive descent each, as sorted tuples of level counts / levels."""
    sets = reference_clopen_increasing_sets(space)
    n = space.n
    out = []

    def descend(prev_mask, depth, acc):
        if depth == levels:
            out.append(tuple(v / levels for v in acc))
            return
        for mask in sets:
            if mask & ~prev_mask:
                continue
            nxt = [acc[i] + (mask >> i & 1) for i in range(n)]
            descend(mask, depth + 1, nxt)

    descend((1 << n) - 1, 0, [0] * n)
    return tuple(sorted(out))


def reference_quotient_space(space):
    q_graph, part = ordtop.preorder.quotient_preorder(space.preorder)
    masks = [sum(1 << p for p in members) for members in part]
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
    q_top = FiniteTopology.from_basis(len(part), q_opens)
    return FinitePreorderedSpace(q_top, q_graph), part


def reference_function_preorder(values):
    vals = np.asarray(values, dtype=float)
    return PreorderGraph.from_matrix(
        np.all(vals[:, :, None] <= vals[:, None, :], axis=0))


def reference_representation_check(space, fns):
    fns = [tuple(f) for f in fns]
    rows = PreorderGraph.full(space.n).rows
    for f in fns:
        rows = [a & b for a, b in
                zip(rows, reference_function_preorder([f]).rows)]
    induced = PreorderGraph(space.n, tuple(rows))
    want = space.preorder
    witness = None
    for i in range(space.n):
        diff = induced.rows[i] ^ want.rows[i]
        if diff:
            j = (diff & -diff).bit_length() - 1
            witness = (i, j, "extra" if induced.leq(i, j) else "missing")
            break
    metrics = {"induced_pairs": induced.pair_count(),
               "preorder_pairs": want.pair_count()}
    return CheckReport((Check("represents_preorder", witness is None,
                              witness=witness, metrics=metrics),))


def assert_matches_references(space, levels, rng):
    assert clopen_increasing_sets(space) == \
        reference_clopen_increasing_sets(space)
    q, part = quotient_space(space)
    q_ref, part_ref = reference_quotient_space(space)
    assert part == part_ref
    assert q.preorder.rows == q_ref.preorder.rows
    assert q.topology == q_ref.topology
    assert q.topology.opens == q_ref.topology.opens
    fns = enumerate_isotone_functions(space, levels)
    if len(fns) > 400:  # the reference pays one numpy call per function
        fns = fns[rng.sample(range(len(fns)), 400)]
    assert representation_check(space, fns).to_dict() == \
        reference_representation_check(space, fns).to_dict()


# ------------------------------------------------------- topology basics


def sierpinski():
    # points a=0, b=1; opens are {}, {a}, {a,b}
    return FiniteTopology.from_basis(2, [0b00, 0b01, 0b11])


def test_minimal_neighborhoods_are_checked():
    assert FiniteTopology(2, (0b01, 0b11)) == sierpinski()
    assert FiniteTopology(0, ()).opens == {0}
    with pytest.raises(ValueError, match="expected 2 minimal neighborhoods, "
                                         "got 1"):
        FiniteTopology(2, (0b11,))
    with pytest.raises(ValueError, match="neighborhood of 1 has points "
                                         r"outside 0\.\.1"):
        FiniteTopology(2, (0b01, 0b110))
    with pytest.raises(ValueError, match="neighborhood of 1 misses 1"):
        FiniteTopology(2, (0b01, 0b01))
    with pytest.raises(ValueError, match="neighborhood of 0 contains 1 but "
                                         "not the minimal neighborhood of 1"):
        # umin(1) = {1, 2} is not inside umin(0) = {0, 1}
        FiniteTopology(3, (0b011, 0b110, 0b100))


def test_from_basis_matches_pairwise_fixpoint():
    rng = random.Random(11)
    for trial in range(80):
        n = rng.randrange(1, 7)
        k = rng.randrange(1, 5)
        basis = [rng.randrange(1 << n) for _ in range(k)]
        got = FiniteTopology.from_basis(n, basis).opens
        want = set(basis) | {0, (1 << n) - 1}
        while True:
            extra = set()
            for a in want:
                for b in want:
                    extra.add(a | b)
                    extra.add(a & b)
            if extra <= want:
                break
            want |= extra
        assert got == want


def test_minimal_neighborhood_frozen_cases():
    disc = FiniteTopology.discrete(3)
    assert minimal_neighborhood(disc, 1) == 0b010
    ind = FiniteTopology.indiscrete(3)
    assert minimal_neighborhood(ind, 2) == 0b111
    sp = sierpinski()
    assert minimal_neighborhood(sp, 1) == 0b11
    assert minimal_neighborhood(sp, 0) == 0b01
    with pytest.raises(ValueError):
        minimal_neighborhood(disc, 3)


def test_set_closure_against_oracle():
    rng = random.Random(12)
    for trial in range(120):
        n = rng.randrange(1, 7)
        top = rand_topology(rng, n)
        mask = rng.randrange(1 << n)
        got = set_closure(top, mask)
        assert got == oracle_closure(top, mask)
        # closure is a closure operator
        assert got & mask == mask
        assert set_closure(top, got) == got
    assert set_closure(sierpinski(), 0b01) == 0b11


# ------------------------------------------------ closedness, hulls, T1


def test_graph_is_closed_against_oracle():
    rng = random.Random(13)
    for trial in range(100):
        n = rng.randrange(1, 6)
        space = rand_space(rng, n)
        report = graph_is_closed(space)
        ok, wit = oracle_graph_closed(space)
        assert report.passed == ok
        if not ok:
            assert report.checks[0].witness == wit


def test_graph_is_closed_frozen_cases():
    # indiscrete preorder is closed on any topology
    rng = random.Random(14)
    for n in (1, 2, 4):
        top = rand_topology(rng, n)
        space = FinitePreorderedSpace(top, PreorderGraph.full(n))
        assert graph_is_closed(space).passed
    # discrete topology: everything closed
    space = FinitePreorderedSpace(
        FiniteTopology.discrete(3),
        transitive_reflexive_closure(PreorderGraph.from_pairs(3, [(0, 1)])),
    )
    assert graph_is_closed(space).passed
    # Sierpinski with diagonal order: not closed, least witness (0, 1)
    space = FinitePreorderedSpace(sierpinski(), PreorderGraph.diagonal(2))
    report = graph_is_closed(space)
    assert not report.passed
    assert report.checks[0].witness == (0, 1)


def test_hulls_match_relation_rows():
    rng = random.Random(15)
    for trial in range(40):
        n = rng.randrange(1, 7)
        space = rand_space(rng, n)
        g = space.preorder
        for i in range(n):
            assert g.up_set(1 << i) == g.rows[i]
            col = sum(1 << j for j in range(n) if g.leq(j, i))
            assert g.down_set(1 << i) == col


def test_T1_frozen_and_T2_implies_T1():
    # discrete topology: every subset closed, so always T1-preordered
    space = FinitePreorderedSpace(
        FiniteTopology.discrete(3),
        transitive_reflexive_closure(PreorderGraph.from_pairs(3, [(0, 1), (1, 2)])),
    )
    assert is_T1_preordered(space).passed
    # Sierpinski with diagonal: hull {0} is not closed
    space = FinitePreorderedSpace(sierpinski(), PreorderGraph.diagonal(2))
    report = is_T1_preordered(space)
    assert not report.passed
    assert report.checks[0].witness == (0, "increasing_hull")
    # closed graph (T2) forces T1 on random instances
    rng = random.Random(16)
    hit = 0
    for trial in range(200):
        n = rng.randrange(1, 7)
        space = rand_space(rng, n, closed_graph=True)
        assert graph_is_closed(space).passed
        assert is_T1_preordered(space).passed
        hit += 1
    assert hit == 200


def unclosed_hulls(space):
    """(x, kind) for each hull not closed, walking the points in order and
    at each point the increasing hull before the decreasing one."""
    umin, g = space.topology.umin, space.preorder
    for x in range(space.n):
        column = sum(1 << j for j in range(space.n) if g.leq(j, x))
        for hull, kind in ((g.rows[x], "increasing_hull"),
                           (column, "decreasing_hull")):
            if sum(1 << y for y, u in enumerate(umin) if u & hull) != hull:
                yield x, kind


def test_T1_witness_matches_the_per_point_walk():
    rng = random.Random(31)
    orders = set()  # how the first failures of the two hulls compare
    for trial in range(3000):
        n = rng.randint(1, 9)
        space = random_finite_space(rng, n, SPACE_STYLES[trial % 3])
        failing = list(unclosed_hulls(space))
        assert is_T1_preordered(space).checks[0].witness \
            == (failing[0] if failing else None)
        up, down = ([x for x, k in failing if k == kind]
                    for kind in ("increasing_hull", "decreasing_hull"))
        if up and down:
            orders.add((up[0] > down[0]) - (up[0] < down[0]))
    # both hulls fail: first at an increasing one, at the same point, and
    # first at a decreasing one
    assert orders == {-1, 0, 1}


def test_products_match_across_the_numpy_cutover(monkeypatch):
    # each size up to 130 on int rows (cutover n) and on packed Boolean
    # products (cutover n - 1); the minimal neighborhoods are the rows of a
    # random preorder, and the topology check gets them with one point added
    def both_paths(check, n):
        got = []
        for cutover in (n, n - 1):
            monkeypatch.setattr(ordtop.preorder, "_NUMPY_CUTOVER", cutover)
            try:
                got.append(check())
            except ValueError as exc:
                got.append(str(exc))
        assert got[0] == got[1], n
        return got[0]

    def random_pairs(n):
        return [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]

    rng = random.Random(32)
    invalid = 0
    for n in range(1, 131):
        umin = list(transitive_reflexive_closure(
            PreorderGraph.from_pairs(n, random_pairs(n))).rows)
        top = FiniteTopology(n, tuple(umin))
        graph = (transitive_reflexive_closure(
                     PreorderGraph.from_pairs(n, random_pairs(n))),
                 smallest_closed_preorder(top, random_pairs(n)),
                 PreorderGraph(n, top.umin))[n % 3]
        space = FinitePreorderedSpace(top, graph)
        seeds = random_pairs(n)
        for check in (lambda: graph_is_closed(space).to_dict(),
                      lambda: is_T1_preordered(space).to_dict(),
                      lambda: ordtop.finite_space._clopen_order(space).rows,
                      lambda: smallest_closed_preorder(top, seeds).rows):
            both_paths(check, n)
        umin[rng.randrange(n)] |= 1 << rng.randrange(n)
        fault = next(((x, y) for x, u in enumerate(umin) for y in range(n)
                      if u >> y & 1 and umin[y] & ~u), None)
        got = both_paths(lambda: FiniteTopology(n, tuple(umin)), n)
        if fault is None:
            assert got.umin == tuple(umin)
        else:
            invalid += 1
            assert got == (f"minimal neighborhood of {fault[0]} contains "
                           f"{fault[1]} but not the minimal neighborhood of "
                           f"{fault[1]}")
    assert invalid > 90


# ------------------------------------------------------------ separation


def chain_space(n):
    pairs = [(i, i + 1) for i in range(n - 1)]
    return FinitePreorderedSpace(
        FiniteTopology.discrete(n),
        transitive_reflexive_closure(PreorderGraph.from_pairs(n, pairs)),
    )


def test_separation_frozen_ladder():
    space = chain_space(3)
    res = monotone_separation(space, 0b100, 0b001)
    assert res.separable
    assert res.function == (0.0, 0.5, 1.0)


def test_separation_empty_inputs():
    space = chain_space(3)
    assert monotone_separation(space, 0, 0b001).function == (0.0, 0.0, 0.0)
    assert monotone_separation(space, 0b100, 0).function == (1.0, 1.0, 1.0)


def test_separation_precondition_witnesses():
    space = chain_space(3)
    res = monotone_separation(space, 0b001, 0b100)  # A not increasing
    assert res.separable is None
    assert not res.report.check("A_closed_increasing").passed
    res = monotone_separation(space, 0b100, 0b110)  # B not decreasing
    assert not res.report.check("B_closed_decreasing").passed
    res = monotone_separation(space, 0b110, 0b011)
    assert not res.report.check("disjoint_inputs").passed
    assert res.separable is None


def test_separation_output_is_valid_when_found():
    rng = random.Random(17)
    for trial in range(150):
        n = rng.randrange(2, 6)
        space = rand_space(rng, n, closed_graph=True)
        a = space.preorder.up_set(rng.randrange(1 << n))
        b = space.preorder.down_set(rng.randrange(1 << n))
        a = set_closure(space.topology, a)
        b = set_closure(space.topology, b)
        # closure can break hull-ness on odd topologies; keep valid inputs
        if space.preorder.up_set(a) != a or space.preorder.down_set(b) != b:
            continue
        if a & b:
            continue
        res = monotone_separation(space, a, b)
        assert res.separable is not None
        if res.separable:
            f = res.function
            assert all(f[i] == 1.0 for i in range(n) if a >> i & 1)
            assert all(f[i] == 0.0 for i in range(n) if b >> i & 1)
            assert oracle_isotone(space.preorder, f)
            assert oracle_continuous(space.topology, f)


def test_separation_agrees_with_exhaustive_search():
    rng = random.Random(18)
    checked = 0
    while checked < 40:
        n = rng.randrange(2, 6)
        space = rand_space(rng, n, closed_graph=True)
        a = set_closure(space.topology, space.preorder.up_set(rng.randrange(1 << n)))
        b = set_closure(space.topology, space.preorder.down_set(rng.randrange(1 << n)))
        if space.preorder.up_set(a) != a or space.preorder.down_set(b) != b:
            continue
        if a & b:
            continue
        res = monotone_separation(space, a, b)
        assert res.separable == oracle_separable(space, a, b, levels=n)
        checked += 1


def reference_inflate_clopen(space, seed, hull):
    """Least clopen superset of seed closed under hull, as a fixpoint.

    hull is the preorder's up_set (increasing) or down_set (decreasing).
    """
    top = space.topology
    cur = seed
    while True:
        nxt = cur | hull(cur) | set_closure(top, cur)
        for x in range(space.n):
            if cur >> x & 1:
                nxt |= top.umin[x]
        if nxt == cur:
            return cur
        cur = nxt


def reference_separation_function(space, a, b):
    """monotone_separation's ladder from the two fixpoints (None if A, B
    cannot be separated)."""
    if a == 0 or b == 0:
        return (0.0 if a == 0 else 1.0,) * space.n
    s_star = reference_inflate_clopen(space, a, space.preorder.up_set)
    if s_star & b:
        return None
    t_star = reference_inflate_clopen(space, b, space.preorder.down_set)
    return tuple(((s_star >> x & 1) + (0 if t_star >> x & 1 else 1)) / 2.0
                 for x in range(space.n))


def _hull_fixpoint(space, mask, hull):
    """Least closed superset of mask that hull leaves fixed."""
    while True:
        nxt = hull(set_closure(space.topology, mask))
        if nxt == mask:
            return mask
        mask = nxt


def test_separation_matches_the_fixpoint_reference():
    rng = random.Random(29)
    checked = both = separable = 0
    for trial in range(3000):
        n = rng.randrange(1, 10)
        space = random_finite_space(rng, n, SPACE_STYLES[trial % 3])
        g = space.preorder
        # S* and T* of any seed, read off the clopen order
        order = ordtop.finite_space._clopen_order(space)
        seed = rng.randrange(1 << n)
        assert order.up_set(seed) == reference_inflate_clopen(
            space, seed, g.up_set)
        assert order.down_set(seed) == reference_inflate_clopen(
            space, seed, g.down_set)
        a = _hull_fixpoint(space, 1 << rng.randrange(n), g.up_set)
        b = _hull_fixpoint(space, (1 << rng.randrange(n)) & ~a, g.down_set)
        if a & b:
            continue
        res = monotone_separation(space, a, b)
        assert res.function == reference_separation_function(space, a, b)
        checked += 1
        both += bool(a and b)
        separable += bool(a and b) and res.function is not None
    assert checked > 2500 and both > 500 and 0 < separable < both


# ------------------------------------------------------------ enumeration


def test_enumerate_frozen_cases():
    # 3-point chain, discrete topology, L=1: indicators of the 4 up-sets
    space = chain_space(3)
    fns = enumerate_isotone_functions(space, 1)
    assert fns.tolist() == [
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
    ]
    # indiscrete preorder: isotonicity forces constancy
    space = FinitePreorderedSpace(FiniteTopology.discrete(2), PreorderGraph.full(2))
    fns = enumerate_isotone_functions(space, 3)
    assert fns.tolist() == [[k / 3, k / 3] for k in range(4)]
    # single point
    space = FinitePreorderedSpace(FiniteTopology.discrete(1), PreorderGraph.diagonal(1))
    assert len(enumerate_isotone_functions(space, 5)) == 6


def test_enumerate_against_bruteforce():
    rng = random.Random(19)
    for trial in range(40):
        n = rng.randrange(1, 5)
        levels = rng.randrange(1, 4)
        space = rand_space(rng, n)
        got = enumerate_isotone_functions(space, levels)
        want = []
        for assignment in itertools.product(range(levels + 1), repeat=n):
            values = tuple(v / levels for v in assignment)
            if oracle_isotone(space.preorder, values) and oracle_continuous(
                space.topology, values
            ):
                want.append(values)
        assert got.tolist() == [list(f) for f in sorted(want)]


def test_enumerate_budget(monkeypatch):
    space = FinitePreorderedSpace(
        FiniteTopology.discrete(6), PreorderGraph.diagonal(6)
    )
    with monkeypatch.context() as patch, pytest.raises(ValueError):
        patch.setattr(ordtop.finite_space, "FUNCTION_BUDGET", 100)
        enumerate_isotone_functions(space, 6)
    # the L + 1 constants alone are past the budget; no level count is
    # made, however wide L is
    with pytest.raises(BudgetError, match="more than 2000000 isotone"):
        enumerate_isotone_functions(chain_space(1), 10**30)


def test_enumerate_fails_fast_past_the_budget():
    # 3^20 functions: the frontier stops one step past the default budget
    space = FinitePreorderedSpace(FiniteTopology.discrete(20),
                                  PreorderGraph.diagonal(20))
    with pytest.raises(BudgetError, match="more than 2000000 isotone"):
        enumerate_isotone_functions(space, 2)


def test_enumerate_values_budget_fires_one_value_past_the_limit(
        monkeypatch):
    # 3^2 functions at levels 2 hold 18 values; the step to them is refused
    # one value past the budget, while the function budget still holds
    pair = FinitePreorderedSpace(FiniteTopology.discrete(2),
                                 PreorderGraph.diagonal(2))
    monkeypatch.setattr(ordtop.finite_space, "VALUE_BUDGET", 18)
    assert len(enumerate_isotone_functions(pair, 2)) == 9
    monkeypatch.setattr(ordtop.finite_space, "VALUE_BUDGET", 17)
    with pytest.raises(BudgetError,
                       match="more than 17 isotone function values"):
        enumerate_isotone_functions(pair, 2)
    # with both budgets past, the function count is named
    monkeypatch.setattr(ordtop.finite_space, "FUNCTION_BUDGET", 8)
    with pytest.raises(BudgetError, match="more than 8 isotone functions"):
        enumerate_isotone_functions(pair, 2)


def assert_enumeration_matches_reference(space, levels):
    fns = enumerate_isotone_functions(space, levels)
    assert fns.dtype == np.float64 and fns.shape[1:] == (space.n,)
    assert not fns.flags.writeable
    assert fns.tolist() == [
        list(f) for f in reference_enumerate_isotone_functions(space, levels)]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.integers(1, 3), st.sampled_from(SPACE_STYLES),
       st.integers(0, 2**32 - 1))
def test_enumerate_matches_the_recursive_reference(n, levels, style, seed):
    space = random_finite_space(random.Random(seed), n, style)
    assert_enumeration_matches_reference(space, levels)


def test_enumerate_matches_the_reference_on_edge_cases():
    # the empty space has one function, the empty row
    assert_enumeration_matches_reference(
        FinitePreorderedSpace(FiniteTopology.from_basis(0, []),
                              PreorderGraph(0, ())), 2)
    # level counts up to 130 overflow an int8
    assert_enumeration_matches_reference(chain_space(2), 130)


def test_clopen_increasing_sets_sierpinski():
    space = FinitePreorderedSpace(sierpinski(), PreorderGraph.diagonal(2))
    assert clopen_increasing_sets(space) == (0b00, 0b11)


# --------------------------------------------------------- representation


def test_representation_frozen_cases():
    # empty family on a non-indiscrete preorder: intersection is full
    space = chain_space(2)
    report = representation_check(space, [])
    assert not report.passed
    assert report.checks[0].witness == (1, 0, "extra")
    # a single injective isotone function represents a total order
    space = chain_space(4)
    assert representation_check(space, [(0.0, 0.1, 0.2, 0.9)]).passed
    # Sierpinski with diagonal admits only constants: not representable
    sp = FinitePreorderedSpace(sierpinski(), PreorderGraph.diagonal(2))
    fns = enumerate_isotone_functions(sp, 2)
    assert all(f[0] == f[1] for f in fns)
    assert not representation_check(sp, fns).passed


def test_representation_with_enumeration_and_L_monotonicity():
    rng = random.Random(20)
    for trial in range(30):
        n = rng.randrange(1, 5)
        space = rand_space(rng, n, closed_graph=True)
        results = []
        for levels in (1, 2, 3):
            fns = enumerate_isotone_functions(space, levels)
            results.append(representation_check(space, fns).passed)
        # true at L implies true at L+1
        assert (not results[0] or results[1]) and (not results[1] or results[2])
    # discrete chains are fully represented by their up-set indicators
    for n in (2, 3, 4):
        space = chain_space(n)
        fns = enumerate_isotone_functions(space, 1)
        assert representation_check(space, fns).passed


def test_clopen_representation_is_the_enumeration_at_every_level():
    # the chain-valued continuous isotone functions induce the clopen
    # order at every L >= 1, so the closed form gives the enumerated
    # family's whole report: verdict, witness and metrics
    rng = random.Random(131)
    verdicts = dict.fromkeys(SPACE_STYLES, 0)
    for trial in range(3000):
        style = SPACE_STYLES[trial % 3]
        space = random_finite_space(rng, rng.randint(0, 9), style)
        report = clopen_representation_check(space).to_dict()
        for levels in (1, 2, 3):
            fns = enumerate_isotone_functions(space, levels)
            assert representation_check(space, fns).to_dict() == report
        # Nachbin on a finite (so compact) space: represented iff closed,
        # and the clopen order is the least closed preorder over G
        assert graph_is_closed(space).passed == report["passed"]
        assert ordtop.finite_space._clopen_order(space).rows == \
            smallest_closed_preorder(space.topology,
                                     space.preorder.pairs()).rows
        verdicts[style] += report["passed"]
    # a closed preorder holds U·G·Uᵀ, so it is its clopen order; the
    # other styles both pass and fail
    assert verdicts["closed"] == 1000
    assert 0 < verdicts["plain"] < 1000 and \
        0 < verdicts["specialization"] < 1000, verdicts


# -------------------------------------------------------------- quotients


def test_quotient_space_basic():
    # indiscrete preorder collapses to one point
    space = FinitePreorderedSpace(FiniteTopology.discrete(3), PreorderGraph.full(3))
    q, part = quotient_space(space)
    assert q.n == 1 and len(part) == 1
    # antisymmetric input: isomorphic copy (classes are singletons)
    space = chain_space(3)
    q, part = quotient_space(space)
    assert q.n == 3
    assert q.preorder.rows == space.preorder.rows
    assert q.topology.opens == space.topology.opens


def test_quotient_space_computes_the_partition_once(monkeypatch):
    calls = []
    original = ordtop.preorder.symmetric_part

    def counting(graph):
        calls.append(graph.n)
        return original(graph)

    for module in (ordtop.preorder, ordtop.finite_space):
        if hasattr(module, "symmetric_part"):
            monkeypatch.setattr(module, "symmetric_part", counting)
    space = FinitePreorderedSpace(FiniteTopology.discrete(3),
                                  PreorderGraph.full(3))
    q, part = quotient_space(space)
    assert q.n == 1 and calls == [3]


def saturation_quotient_space(space):
    """quotient_space as a saturation fixpoint: a class's minimal
    neighborhood is the projection of the least saturated open containing
    it, grown by alternately adding the minimal neighborhood of each point
    and every class it meets."""
    q_graph, part = ordtop.preorder.quotient_preorder(space.preorder)
    umin = space.topology.umin
    block_of = {p: c for c, members in enumerate(part) for p in members}
    masks = [sum(1 << p for p in members) for members in part]
    q_umin = []
    for cur in masks:
        while True:
            nxt = cur
            for x in range(space.n):
                if cur >> x & 1:
                    nxt |= umin[x]
            for x in range(space.n):
                if (nxt & ~cur) >> x & 1:
                    nxt |= masks[block_of[x]]
            if nxt == cur:
                break
            cur = nxt
        q_umin.append(sum(1 << i for i, m in enumerate(masks) if m & cur))
    q_top = FiniteTopology(len(masks), tuple(q_umin))
    return FinitePreorderedSpace(q_top, q_graph), part


def test_quotient_space_matches_the_saturation_fixpoint():
    # n from 1 to 130 runs both closures, Warshall up to 96 points and
    # packed squaring above; each style has spaces that merge classes on
    # both sides
    rng = random.Random(27)
    merged = dict.fromkeys(itertools.product(SPACE_STYLES, (False, True)), 0)
    for n in range(1, 131):
        for style in SPACE_STYLES:
            space = random_finite_space(rng, n, style)
            q, part = quotient_space(space)
            q_ref, part_ref = saturation_quotient_space(space)
            assert part == part_ref
            assert q.preorder.rows == q_ref.preorder.rows
            assert q.topology == q_ref.topology
            if len(part) == n:
                assert q is space
            else:
                merged[style, n > 96] += 1
    assert min(merged.values()) > 0


def test_quotient_space_follows_merges_across_neighborhoods():
    # classes {1,2}, {3,4}, {5,6}: the least saturated open containing 0
    # reaches each class only through the one before it
    top = FiniteTopology.from_basis(
        7, [0b11, 0b10, 0b1100, 0b1000, 0b110000, 0b100000, 0b1000000])
    graph = transitive_reflexive_closure(PreorderGraph.from_pairs(
        7, [(1, 2), (2, 1), (3, 4), (4, 3), (5, 6), (6, 5)]))
    space = FinitePreorderedSpace(top, graph)
    q, part = quotient_space(space)
    assert part == ((0,), (1, 2), (3, 4), (5, 6))
    assert q.topology.umin == (0b1111, 0b1110, 0b1100, 0b1000)
    assert q.topology == saturation_quotient_space(space)[0].topology
    # a single class: the quotient is one point
    space = FinitePreorderedSpace(FiniteTopology.discrete(4),
                                  PreorderGraph.full(4))
    assert quotient_space(space)[0].topology.umin == (0b1,)


def test_quotient_of_singleton_classes_is_the_space_itself(monkeypatch):
    closures = []
    monkeypatch.setattr(ordtop.finite_space, "transitive_reflexive_closure",
                        lambda graph: closures.append(graph))
    for space in (chain_space(5), FinitePreorderedSpace(
            FiniteTopology.indiscrete(3), PreorderGraph.diagonal(3))):
        q, part = quotient_space(space)
        assert q is space
        assert part == tuple((x,) for x in range(space.n))
    assert closures == []


def test_quotient_of_closed_graph_space_is_T2_ordered():
    rng = random.Random(21)
    for trial in range(300):
        n = rng.randrange(1, 7)
        space = rand_space(rng, n, closed_graph=True)
        q, _ = quotient_space(space)
        ok, _w = is_antisymmetric(q.preorder)
        assert ok
        assert graph_is_closed(q).passed


def test_quotient_opens_form_quotient_topology():
    rng = random.Random(22)
    for trial in range(60):
        n = rng.randrange(1, 6)
        space = rand_space(rng, n)
        q, part = quotient_space(space)
        rep = {p: c for c, members in enumerate(part) for p in members}
        # V open in quotient iff its preimage is open
        for v in range(1 << q.n):
            pre = sum(1 << p for p in range(n) if v >> rep[p] & 1)
            assert (v in q.topology.opens) == (pre in space.topology.opens)


# ------------------------------------------- smallest closed preorder


def test_smallest_closed_preorder_frozen_cases():
    # discrete topology: the closure step is a no-op
    top = FiniteTopology.discrete(4)
    seed = [(0, 1), (1, 2)]
    got = smallest_closed_preorder(top, seed)
    want = transitive_reflexive_closure(PreorderGraph.from_pairs(4, seed))
    assert got.rows == want.rows
    # Sierpinski with diagonal seed: forced up to the full relation
    got = smallest_closed_preorder(sierpinski(), [])
    assert got.rows == PreorderGraph.full(2).rows
    # already closed: unchanged
    top = FiniteTopology.indiscrete(3)
    got = smallest_closed_preorder(top, [(0, 1)])
    assert got.rows == smallest_closed_preorder(top, list(got.pairs())).rows


def test_smallest_closed_preorder_output_is_closed_and_contains_seed():
    rng = random.Random(23)
    for trial in range(120):
        n = rng.randrange(1, 6)
        top = rand_topology(rng, n)
        pairs = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(5))
        ]
        got = smallest_closed_preorder(top, pairs)
        assert is_transitive(got)
        for i, j in pairs:
            assert got.leq(i, j)
        assert graph_is_closed(FinitePreorderedSpace(top, got)).passed


def test_smallest_closed_preorder_matches_exhaustive_oracle():
    rng = random.Random(24)
    for trial in range(120):
        n = rng.randrange(1, 5)
        top = rand_topology(rng, n)
        pairs = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(4))
        ]
        got = smallest_closed_preorder(top, pairs)
        want = oracle_smallest_closed(top, pairs)
        assert got.rows == want.rows


def fixpoint_smallest_closed(top, seed_pairs):
    """The least closed preorder as a fixpoint: transitive closure and
    U·G·Uᵀ alternated until neither changes the relation."""
    spec, product = top._spec, ordtop.preorder._product
    back = ordtop.preorder._converse(spec)
    g = transitive_reflexive_closure(
        PreorderGraph.from_pairs(top.n, seed_pairs))
    while True:
        hull = product(product(spec, g), back)
        if hull.rows == g.rows:
            return g
        g = transitive_reflexive_closure(hull)


def test_smallest_closed_preorder_is_the_fixpoint():
    # the closure of U·S·Uᵀ is already closed: one pass gives the
    # fixpoint, on both sides of the packed-product cutover
    rng = random.Random(36)

    def random_pairs(n, count):
        return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]

    sizes = [*range(1, 13), 95, 96, 97, 98, *range(110, 301, 19), 300]
    grown = 0
    for n in sizes:
        tops = (FiniteTopology.discrete(n), FiniteTopology.indiscrete(n),
                random_topology(rng, n),
                FiniteTopology(n, transitive_reflexive_closure(
                    PreorderGraph.from_pairs(n, random_pairs(n, n))).rows))
        for top in tops:
            for seed in ([], random_pairs(n, n // 4 + 1),
                         random_pairs(n, n * n // 8 + 1)):
                got = smallest_closed_preorder(top, seed)
                want = fixpoint_smallest_closed(top, seed)
                assert got.rows == want.rows, (n, top.umin[:4], seed[:4])
                grown += want.rows != transitive_reflexive_closure(
                    PreorderGraph.from_pairs(n, seed)).rows
    # U·G·Uᵀ grew the seed's closure in over a third of the 12 cases a size
    assert grown > len(sizes) * 4, grown


# ------------------------------------------------------------ JSON loader


def test_load_space_roundtrip(tmp_path):
    data = {"n": 3, "basis": [[0], [0, 1]], "relation": [[0, 1], [1, 2]]}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(data))
    space = load_space(str(path))
    assert space.n == 3
    assert space.preorder.leq(0, 2)  # transitively closed
    assert minimal_neighborhood(space.topology, 1) == 0b011
    # dict input takes the same path
    assert load_space(data).preorder.rows == space.preorder.rows


def test_load_space_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(SpaceFormatError, match="invalid JSON at line 1"):
        load_space(str(path))
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(SpaceFormatError, match="cannot read .*utf-8"):
        load_space(str(path))
    with pytest.raises(SpaceFormatError, match="'n'"):
        load_space({"basis": []})
    with pytest.raises(SpaceFormatError, match=r"basis\[0\]\[1\]"):
        load_space({"n": 2, "basis": [[0, 7]], "relation": []})
    with pytest.raises(SpaceFormatError, match=r"relation\[1\]"):
        load_space({"n": 2, "basis": [], "relation": [[0, 1], [0]]})
    with pytest.raises(SpaceFormatError, match="cannot read"):
        load_space("/no/such/file.json")
    # a misspelled key is refused, not read as the discrete preorder
    with pytest.raises(SpaceFormatError) as exc:
        load_space({"n": 2, "relations": [[0, 1]]})
    assert str(exc.value) == "top level: unknown key 'relations'"
    with pytest.raises(SpaceFormatError, match="unknown key 'N'"):
        load_space({"N": 2})


_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 10)
                 | st.floats(allow_nan=False, allow_infinity=False)
                 | st.text("ab", max_size=2))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(("n", "basis", "relation", "a")), inner,
                      max_size=3),
    max_leaves=12)
# a point-like entry: mostly small integers, sometimes any JSON value
_POINTS = st.integers(-1, 9) | _JSON_VALUES
_SPACE_DICTS = st.fixed_dictionaries(
    {"n": st.integers(0, 8) | _JSON_SCALARS},
    optional={
        "basis": st.lists(st.lists(_POINTS, max_size=4), max_size=4)
        | _JSON_VALUES,
        "relation": st.lists(st.lists(_POINTS, max_size=3), max_size=5)
        | _JSON_VALUES,
    })


def _bounded_n(data):
    n = data.get("n") if isinstance(data, dict) else None
    return not isinstance(n, int) or n <= 8


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(_SPACE_DICTS, _JSON_VALUES).filter(_bounded_n))
def test_load_space_loads_or_raises_space_format_error(data):
    # through a file, so that any top-level JSON value can be the input
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "space.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        try:
            space = load_space(path)
        except SpaceFormatError:
            return
    assert 0 <= space.n <= 8
    assert space.topology.n == space.preorder.n == space.n
    # a loaded space is well formed for the exact checks
    graph_is_closed(space)
    is_T1_preordered(space)
    quotient_space(space)


def test_load_space_refuses_more_points_than_the_budget(monkeypatch):
    # the budget is read at call time, and checked before the basis or
    # the relation is read
    budget = ordtop.finite_space.POINT_BUDGET
    with pytest.raises(BudgetError) as exc:
        load_space({"n": budget + 1, "basis": "not read"})
    assert str(exc.value) == f"budget exceeded: more than {budget} points"
    monkeypatch.setattr(ordtop.finite_space, "POINT_BUDGET", 3)
    assert load_space({"n": 3, "relation": [[0, 1]]}).preorder.leq(0, 1)
    with pytest.raises(BudgetError, match="more than 3 points"):
        load_space({"n": 4})


def test_empty_space_is_vacuously_fine():
    top = FiniteTopology.from_basis(0, [0])
    space = FinitePreorderedSpace(top, PreorderGraph(0, ()))
    assert graph_is_closed(space).passed
    assert is_T1_preordered(space).passed
    q, part = quotient_space(space)
    assert q.n == 0 and part == ()
    assert enumerate_isotone_functions(space, 2).tolist() == [[]]


# ------------------------------------- minimal neighborhoods vs the opens


def test_topology_is_stored_as_minimal_neighborhoods():
    rng = random.Random(25)
    for trial in range(200):
        n = rng.randrange(0, 7)
        top = FiniteTopology.from_basis(
            n, [rng.randrange(1 << n) for _ in range(rng.randrange(4))])
        # the opens as a basis give an equal, equally hashed value
        again = FiniteTopology.from_basis(n, top.opens)
        assert again == top and hash(again) == hash(top)
        assert again.umin == top.umin
        for mask in range(1 << n):
            assert top.is_open(mask) == (mask in top.opens)
            assert top.is_closed(mask) == (((1 << n) - 1) ^ mask in top.opens)
        assert not top.is_open(1 << n) and not top.is_open(-1)
    assert FiniteTopology.discrete(3) != FiniteTopology.indiscrete(3)


def test_fast_paths_match_references_on_generated_spaces():
    rng = random.Random(26)
    for trial in range(2100):
        levels = 1 + trial // 3 % 3
        # up to 4^n functions at levels 3: keep their enumeration small
        n = rng.randint(0, 9 if levels < 3 else 7)
        space = random_finite_space(rng, n, SPACE_STYLES[trial % 3])
        assert_matches_references(space, levels, rng)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, (1 << n) - 1), max_size=2 * n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=2 * n),
    st.booleans(),
    st.integers(1, 3),
)))
def test_fast_paths_match_references_property(case):
    n, basis, pairs, closed, levels = case
    top = FiniteTopology.from_basis(n, basis)
    if closed:
        graph = smallest_closed_preorder(top, pairs)
    else:
        graph = transitive_reflexive_closure(PreorderGraph.from_pairs(n, pairs))
    assert_matches_references(FinitePreorderedSpace(top, graph), levels,
                              random.Random(n))


def test_clopen_budget_fires_one_set_past_the_limit(monkeypatch):
    # discrete antichain on 4 points: all 16 subsets are clopen up-sets
    space = FinitePreorderedSpace(FiniteTopology.discrete(4),
                                  PreorderGraph.diagonal(4))
    monkeypatch.setattr(ordtop.finite_space, "CLOPEN_BUDGET", 16)
    assert len(clopen_increasing_sets(space)) == 16
    monkeypatch.setattr(ordtop.finite_space, "CLOPEN_BUDGET", 15)
    with pytest.raises(BudgetError, match="more than 15 clopen"):
        clopen_increasing_sets(space)
    # the functions' budget counts the same way: 3^2 chains at levels 2
    pair = FinitePreorderedSpace(FiniteTopology.discrete(2),
                                 PreorderGraph.diagonal(2))
    monkeypatch.setattr(ordtop.finite_space, "FUNCTION_BUDGET", 9)
    assert len(enumerate_isotone_functions(pair, 2)) == 9
    monkeypatch.setattr(ordtop.finite_space, "FUNCTION_BUDGET", 8)
    with pytest.raises(BudgetError, match="more than 8 isotone"):
        enumerate_isotone_functions(pair, 2)


def test_check_finite_computes_each_spaces_hull_once(tmp_path, monkeypatch,
                                                    capsys):
    # U·U checks the topology, Uᵀ is formed once, G·Uᵀ is shared by T1
    # and U·(G·Uᵀ), T1 adds U·G, and U·G·Uᵀ is shared by the closedness
    # checks and the clopen order: 4 products, 4 packed ones, and the
    # closures' squarings (the chain's load squares its relation 10 times,
    # the indiscrete diagonal once; each clopen order is closed already
    # and squares once)
    calls = {"product": 0, "bool_product": 0, "converse": 0}

    def counted(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    monkeypatch.setattr(ordtop.finite_space, "_product", counted(
        "product", ordtop.finite_space._product))
    monkeypatch.setattr(ordtop.finite_space, "_converse", counted(
        "converse", ordtop.finite_space._converse))
    monkeypatch.setattr(ordtop.preorder, "_bool_product", counted(
        "bool_product", ordtop.preorder._bool_product))
    n = 300
    for data, code, most in (
            ({"n": n, "basis": [[p] for p in range(n)],
              "relation": [[i, i + 1] for i in range(n - 1)]}, 0, 15),
            ({"n": n}, 1, 6)):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(data))
        calls.update(product=0, bool_product=0, converse=0)
        assert ordtop.cli.main(["check-finite", str(path)]) == code
        assert calls["product"] == 4, calls
        assert calls["bool_product"] <= most, calls
        assert calls["converse"] == 1, calls
    capsys.readouterr()


def test_check_finite_never_reads_the_open_family(tmp_path, monkeypatch,
                                                  capsys):
    def forbidden(self):
        raise AssertionError("topology.opens was read")

    monkeypatch.setattr(FiniteTopology, "opens", property(forbidden))
    n = 40
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "n": n, "basis": [[p] for p in range(n)],
        "relation": [[i, i + 1] for i in range(n - 1)]}))
    assert ordtop.cli.main(["check-finite", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
