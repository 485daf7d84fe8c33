"""Finite preorders as bitset adjacency rows.

A relation on n points has two forms on PreorderGraph: int rows (bit j
of rows[i] set means i <= j) and packed (read-only '<u8' words of the
rows).  A graph keeps the form it was made from, checked there for
reflexivity but not transitivity, and makes and caches the other on
first read; so a build's relation, the rank-bitset kernel's words, is
never held as int rows.  A reader that needs bools unpacks the words
into a local array; no graph holds one.  Only this module converts
between the forms, and it holds the kernels (_packed_leq, _bool_product).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# above this size products and closures run on the packed words
_NUMPY_CUTOVER = 96
_WORD = np.dtype("<u8")  # one packed word: 64 columns, lowest first
# cells per row tile of an all-pairs pass: up to 1,024 points take one tile
_TILE_CELLS = 1 << 20


def _pack_rows(rel, words):
    """Bool rows as rows of little-endian 64-bit words, zero-padded."""
    packed = np.zeros((len(rel), 8 * words), dtype=np.uint8)
    packed[:, :-(-rel.shape[1] // 8)] = np.packbits(rel, axis=1,
                                                   bitorder="little")
    return packed.view(_WORD)


def _or_columns(dst, col, rel):
    """OR the bool rows rel into the '<u8' rows dst at columns col on."""
    lead = col % 8
    if lead:  # start the packed bytes on a byte edge
        rel = np.concatenate([np.zeros((len(rel), lead), dtype=bool), rel],
                             axis=1)
    bits = np.packbits(rel, axis=1, bitorder="little")
    dst.view(np.uint8)[:, col // 8:col // 8 + bits.shape[1]] |= bits


def _unpack_rows(packed, n):
    """The first n columns of '<u8' rows, as a bool matrix."""
    return np.unpackbits(packed.view(np.uint8), axis=-1, count=n,
                         bitorder="little").view(bool)


def _leading_block(packed, m):
    """A copy of the '<u8' rows' leading m x m block: the first m rows'
    first ceil(m / 64) words, the bits past column m - 1 cleared."""
    out = packed[:m, :-(-m // 64)].copy()
    if m % 64:
        out[:, -1] &= np.uint64((1 << m % 64) - 1)
    return out


def _bit_at(packed, i, j):
    """Bit j of '<u8' row i as a 0/1 word; int arrays i, j broadcast."""
    j = np.asarray(j, dtype=_WORD)
    return packed[i, j >> 6] >> (j & 63) & 1


def _strict_rows(packed):
    """A copy of n '<u8' rows with bit i of row i cleared."""
    out, diag = packed.copy(), np.arange(len(packed), dtype=_WORD)
    out[diag, diag >> 6] &= ~(np.uint64(1) << (diag & 63))
    return out


def _lowest_bits(rows):
    """Column of the lowest set bit of each nonzero row of '<u8' words."""
    first = (rows != 0).argmax(axis=1)
    word = rows[np.arange(len(rows)), first]
    return 64 * first + np.bitwise_count((word & -word) - np.uint64(1))


def _first_set(packed):
    """(i, j) of the row-major first set bit of '<u8' rows, or None."""
    nonzero = packed.any(axis=1)
    if not nonzero.any():
        return None
    i = int(nonzero.argmax())  # the first nonzero row, then its lowest bit
    return i, int(_lowest_bits(packed[i:i + 1])[0])


def _row_keys(rows):
    """One void scalar per row of a 2-d array, equal iff the rows are."""
    rows = np.ascontiguousarray(rows)  # a 0-column row is b"", as is its key
    return np.ndarray(len(rows), (np.void, rows.itemsize * rows.shape[1]),
                      rows)


def _key_rows(keys, dtype, width):
    """The read-only rows whose _row_keys, as bytes, are keys."""
    return np.frombuffer(b"".join(keys), dtype=dtype).reshape(len(keys), width)


def _hex_rows(packed):
    """Each '<u8' row as the hex text format(row, "x") gives its int,
    formatted from that row's own bytes, last byte first."""
    return [row.tobytes().hex().lstrip("0") or "0"
            for row in packed.view(np.uint8)[:, ::-1]]


def _rank_tables(order, start, height, words):
    """g members' tables as (g * height, words) '<u8' rows: row l * height
    + t holds member l's columns order[l, p] with start[l, p] <= t.  Each
    word of a table steps at most 64 times, so the tables are one np.repeat
    of each word's running OR over its step lengths, copied to row-major.
    """
    g = len(order)
    # each word's slots ordered by their start: start << 6 | slot
    key = np.full((g, 64 * words), height << 6)
    key[np.arange(g)[:, None], order] = start << 6
    key |= np.arange(64 * words) & 63
    key = key.reshape(g, words, 64)
    key.sort(axis=2)
    edges = np.full((g, words, 66), height)
    edges[..., 0] = 0
    np.right_shift(key, 6, out=edges[..., 1:65])
    # a word's bits are distinct, so its running sum is its running OR
    slot_bits = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    runs = np.zeros((g, words, 65), dtype="<u8")
    np.cumsum(slot_bits[key & 63], axis=2, out=runs[..., 1:])
    lengths = edges[..., 1:] - edges[..., :-1]
    tables = np.repeat(runs.ravel(), lengths.ravel())
    return np.ascontiguousarray(tables.reshape(g, words, height)
                                .transpose(0, 2, 1)).reshape(-1, words)


def _packed_leq(values, bounds, slack=0.0):
    """Packed rows of [all m: values[m, i] <= bounds[m, j] + slack].

    values is (k, n) and bounds (k, w); the result is (n, ceil(w / 64))
    '<u8', bit j of row i being bit j % 64 of word j // 64.  The package's
    rank-bitset kernel (Tan, Eng & Ooi, VLDB 2001), for validation, the
    quantized H-part and extendability: tables over the bounds, then a
    lookup of the values.  With no members every column's bit is set.
    """
    k, w = bounds.shape
    if not (k and w):  # no members: every column
        return np.repeat(_pack_rows(np.ones((1, w), dtype=bool), -(-w // 64)),
                         values.shape[1], axis=0)
    return _leq_lookup(_leq_tables(bounds, values.shape[1], slack), values)


def _leq_tables(bounds, n, slack=0.0):
    """The kernel's tables over the (k, w) bounds plus slack, yielded per
    batch of members as (members, tables, top, distinct).  A member whose
    bounds take d distinct non-NaN values gets d + 1 rows: row t holds the
    columns whose bound is among the t largest, so {j : v <= b_j} is row
    top[l] - distinct[l].searchsorted(v) of the batch's member l; a NaN
    bound is in no row, a NaN value takes the empty row 0.  Members are
    ranked by one argsort per _TILE_CELLS // 64 bounds, on a copy of them
    plus slack, their tables built at the group's largest height in
    batches of _TILE_CELLS // 8 words with n values' rows."""
    k, w = bounds.shape
    words = -(-w // 64)
    width = max(1, _TILE_CELLS // 64 // w)
    for g in range(0, k, width):
        b = bounds[g:g + width] + slack if slack else \
            np.ascontiguousarray(bounds[g:g + width])
        order = b.argsort(axis=1)
        ranked = b[np.arange(len(b))[:, None], order]
        new = ranked == ranked  # the first position of each distinct bound
        new[:, 1:] &= ranked[:, 1:] != ranked[:, :-1]
        start = np.cumsum(new, axis=1)  # distinct bounds up to a position
        d = start[:, -1].copy()
        height = int(d.max()) + 1
        np.subtract(d[:, None] + 1, start, out=start)  # a bound's first row
        start[ranked != ranked] = height  # NaN: past the table, in no row
        batch = max(1, _TILE_CELLS // 8 // (height * words + n))
        for lo in range(0, len(b), batch):
            part = slice(lo, min(lo + batch, len(b)))
            yield (slice(g + lo, g + part.stop),
                   _rank_tables(order[part], start[part], height, words),
                   d[part] + height * np.arange(len(d[part])),
                   list(map(np.compress, new[part], ranked[part])))


def _leq_lookup(batches, values):
    """The AND of the table rows that the batches' members take for their
    rows of values, in row tiles of _TILE_CELLS // 32 words."""
    out = None
    for members, tables, top, distinct in batches:
        rows = top[:, None] - np.array(  # each value's table row
            list(map(np.searchsorted, distinct, values[members])))
        if out is None:
            out, rows = tables.take(rows[0], axis=0), rows[1:]
        step = max(1, _TILE_CELLS // 32 // out.shape[1])
        scratch = np.empty((min(step, len(out)), out.shape[1]), dtype="<u8")
        for r0 in range(0, len(out), step):
            tile = out[r0:r0 + step]
            part = scratch[:len(tile)]
            for member in rows[:, r0:r0 + step]:
                np.take(tables, member, axis=0, out=part, mode="clip")
                tile &= part
    return out


@dataclass(frozen=True)
class PreorderGraph:
    """Reflexive relation on points 0..n-1, one bitmask row per point."""

    n: int
    rows: tuple

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {i} has bits outside 0..{self.n - 1}")
            if not row >> i & 1:
                raise ValueError(f"relation not reflexive at {i}")

    def leq(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def pairs(self):
        """All related pairs (i, j), i <= j, in lexicographic order."""
        for i in range(self.n):
            row = self.rows[i]
            while row:
                low = row & -row
                yield i, low.bit_length() - 1
                row ^= low

    def pair_count(self) -> int:
        return int(np.bitwise_count(self.packed).sum())

    def up_set(self, mask: int) -> int:
        """Bitmask of points above anything in mask."""
        rows, out = self.rows, 0  # rows read once: each read is slow
        while mask:
            low = mask & -mask
            out |= rows[low.bit_length() - 1]
            mask ^= low
        return out

    def down_set(self, mask: int) -> int:
        rows, out = self.rows, 0
        for i in range(self.n):
            if rows[i] & mask:
                out |= 1 << i
        return out

    @property
    def packed(self) -> np.ndarray:
        """Read-only (n, ceil(n / 64)) '<u8' rows: bit j of row i is bit
        j % 64 of word j // 64, built from the rows on first read.  It is
        cached by hand: a cached_property takes a lock on its first read,
        a cost each of the finite tier's many small graphs would pay."""
        packed = self.__dict__.get("_packed")
        if packed is None:
            width = 8 * -(-self.n // 64)
            packed = self.__dict__["_packed"] = np.frombuffer(
                b"".join(row.to_bytes(width, "little") for row in self.rows),
                dtype=_WORD).reshape(self.n, width // 8)
        return packed

    def restrict(self, idx) -> "PreorderGraph":
        """The graph on len(idx) points, i <= j iff idx[i] <= idx[j] (ids
        may repeat), packed from the words of a tile of rows at a time, or
        for ids 0..m-1 in order (two O(1) tests first) the leading block."""
        idx = np.asarray(idx, dtype=np.intp)
        m = len(idx)
        if m and not idx[0] and idx[-1] == m - 1 and \
                (np.diff(idx) == 1).all():
            return PreorderGraph.from_packed(_leading_block(self.packed, m))
        out = np.empty((m, -(-m // 64)), dtype=_WORD)
        step = max(1, _TILE_CELLS // max(self.n, 1))
        for r0 in range(0, m, step):
            out[r0:r0 + step] = _pack_rows(_unpack_rows(
                self.packed[idx[r0:r0 + step]], self.n).take(idx, axis=1),
                out.shape[1])
        return PreorderGraph.from_packed(out)

    @classmethod
    def from_packed(cls, packed: np.ndarray) -> "PreorderGraph":
        """The graph whose packed rows are the (n, ceil(n / 64)) '<u8'
        array packed, kept (read-only) as .packed and checked on it:
        every diagonal bit set, no bit set past column n - 1."""
        packed = np.ascontiguousarray(packed, dtype=_WORD)
        n = len(packed)
        if packed.shape != (n, -(-n // 64)):
            raise ValueError(f"{n} rows take {-(-n // 64)} words each, "
                             f"got shape {packed.shape}")
        if n % 64 and (packed[:, -1] >> n % 64).any():
            raise ValueError(f"rows have bits outside 0..{n - 1}")
        diag = np.arange(n)
        return cls._checked(packed, _bit_at(packed, diag, diag))

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "PreorderGraph":
        """The graph of a square matrix's truth values, kept as packed
        words only.  Its diagonal is checked, which costs a small graph
        less than checking the words."""
        mat = np.asarray(mat, dtype=bool)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        return cls._checked(_pack_rows(mat, -(-len(mat) // 64)),
                            mat.diagonal())

    @classmethod
    def _checked(cls, packed, loops):
        """The graph of the words packed, whose diagonal bits are loops."""
        if not loops.all():
            raise ValueError(f"relation not reflexive at {np.argmin(loops)}")
        packed.flags.writeable = False
        graph = object.__new__(cls)
        graph.__dict__.update(n=len(packed), _packed=packed)
        return graph

    @classmethod
    def diagonal(cls, n: int) -> "PreorderGraph":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def full(cls, n: int) -> "PreorderGraph":
        row = (1 << n) - 1
        return cls(n, tuple(row for _ in range(n)))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "PreorderGraph":
        rows = [1 << i for i in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i}, {j}) out of range")
            rows[i] |= 1 << j
        return cls(n, tuple(rows))


# The rows of a graph made from an array, made on first read; set here so
# that rows stays a required field.  A graph made from rows shadows it.
PreorderGraph.rows = cached_property(lambda graph: tuple(
    int.from_bytes(row.tobytes(), "little") for row in graph.packed))
PreorderGraph.rows.__set_name__(PreorderGraph, "rows")


def transitive_reflexive_closure(graph: PreorderGraph) -> PreorderGraph:
    """Smallest preorder containing the given reflexive relation; above
    _NUMPY_CUTOVER points, its words squared until they stop changing."""
    if graph.n > _NUMPY_CUTOVER:
        cur, nxt = None, graph.packed
        while not np.array_equal(cur, nxt):
            cur, nxt = nxt, _bool_product(nxt, nxt)
        return PreorderGraph.from_packed(nxt)
    rows = list(graph.rows)
    n = graph.n
    # Warshall over bitmask rows: one pass suffices because row k is
    # already fully updated when later rows OR it in.
    for k in range(n):
        bit = 1 << k
        row_k = rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= row_k
    return PreorderGraph(n, tuple(rows))


def _bool_product(left, right):
    """'<u8' rows of the Boolean product left·right by the method of Four
    Russians (M4RM; Albrecht, Bard & Hart 2010): each 8 rows of right give
    the 256 ORs of their subsets, and row i ORs in the one its byte of
    left selects."""
    out = np.zeros((len(left), right.shape[1]), dtype=_WORD)
    table = np.zeros((256, right.shape[1]), dtype=_WORD)
    for b, byte in enumerate(left.view(np.uint8).T[:-(-len(right) // 8)]):
        for t, row in enumerate(right[8 * b:8 * b + 8]):
            np.bitwise_or(table[:1 << t], row, out=table[1 << t:2 << t])
        out |= table[byte]
    return out


def _product(left, right):
    """The graph left·right (i to k iff i <= j in left, j <= k in right):
    int rows up to _NUMPY_CUTOVER points, the packed product above."""
    if left.n <= _NUMPY_CUTOVER:
        return PreorderGraph(left.n, tuple(map(right.up_set, left.rows)))
    return PreorderGraph.from_packed(_bool_product(left.packed, right.packed))


def _converse(graph):
    """The graph whose rows are graph's columns (down-sets, else words)."""
    if graph.n > _NUMPY_CUTOVER:
        return PreorderGraph.from_packed(_pack_rows(
            _unpack_rows(graph.packed, graph.n).T, graph.packed.shape[1]))
    return PreorderGraph(graph.n, tuple(graph.down_set(1 << j)
                                        for j in range(graph.n)))


def _first_excess(rows, graph):
    """Row-major first (i, j) with bit j of the i-th of the int rows set
    and i <= j not in graph, or None."""
    for i, (row, own) in enumerate(zip(rows, graph.rows)):
        extra = row & ~own
        if extra:
            return i, (extra & -extra).bit_length() - 1
    return None


def is_transitive(graph: PreorderGraph) -> bool:
    return _first_excess(_product(graph, graph).rows, graph) is None


def _equal_rows(graph):
    """A preorder's points grouped by equal packed row (i ~ j iff their
    up-sets are equal), groups and members in order of first occurrence."""
    groups = {}
    for i, key in enumerate(_row_keys(graph.packed).tolist()):
        groups.setdefault(key, []).append(i)
    return groups.values()


def is_antisymmetric(graph: PreorderGraph):
    """(True, None) or (False, (i, j)) for a preorder: i < j the first two
    members of its first class with two, its row-major first mutual pair."""
    pair = next((tuple(c[:2]) for c in _equal_rows(graph) if len(c) > 1),
                None)
    return pair is None, pair


def symmetric_part(graph: PreorderGraph) -> tuple:
    """Classes of mutual relation of a preorder as sorted int tuples,
    ordered by least member: the groups of equal packed rows."""
    return tuple(map(tuple, _equal_rows(graph)))


def quotient_preorder(graph: PreorderGraph):
    """(quotient, classes) of a preorder by its mutual-relation classes.

    The quotient, a partial order, is the graph restricted to the
    classes' representatives.  When every class is a singleton it is the
    graph itself, returned as is.
    """
    classes = symmetric_part(graph)
    if len(classes) == graph.n:
        return graph, classes
    return graph.restrict([c[0] for c in classes]), classes


def function_preorder(values) -> PreorderGraph:
    """Preorder induced by a family of real functions given as a matrix.

    values[k][i] is function k at point i; i <= j iff every function is
    nondecreasing from i to j.  An empty family gives the full relation.
    Points are compared one at a time over a points x functions copy, so
    each compare runs along contiguous memory and memory stays O(F * n)
    for F functions.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2:
        raise ValueError("values must be a 2d array (functions x points)")
    if not np.all(np.isfinite(vals)):
        raise ValueError("function values must be finite")
    n = vals.shape[1]
    if vals.shape[0] == 0:
        return PreorderGraph.full(n)
    by_point = np.ascontiguousarray(vals.T)
    mat = np.empty((n, n), dtype=bool)
    for i in range(n):
        mat[i] = np.all(by_point[i] <= by_point, axis=1)
    return PreorderGraph.from_matrix(mat)

