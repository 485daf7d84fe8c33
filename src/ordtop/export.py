"""Build-directory artifacts: vertex table, DOT diagram, canonical JSON report."""

import csv
import json
import os

import numpy as np

from .preorder import _TILE_CELLS, PreorderGraph, _bit_at, _first_set, \
    _hex_rows, _lowest_bits, _strict_rows, quotient_preorder
from .report import _plain


def write_vertices_csv(comp, path):
    """One row per vertex: id, kind, then the quantized coordinates.

    A coordinate is float(q) * eps_q for its integer q in comp.quant.
    Each distinct q in a row tile of at most _TILE_CELLS cells is
    formatted once, with repr of that float.  Rows are joined as
    csv.writer writes them, since no field needs quoting.
    """
    quant = comp.quant
    kinds = ["core"] * comp.n_core + ["remainder"] * (len(quant) - comp.n_core)
    step = max(1, _TILE_CELLS // max(quant.shape[1], 1))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(["id", "kind"] + list(comp.names))
        for start in range(0, len(quant), step):
            tile = quant[start:start + step]
            values, inverse = np.unique(tile, return_inverse=True)
            texts = np.array([repr(float(q) * comp.eps_q)
                              for q in values.tolist()], dtype=object)
            cells = texts[inverse].reshape(tile.shape).tolist()
            fh.writelines(",".join([str(v), kinds[v]] + row) + "\r\n"
                          for v, row in enumerate(cells, start))


def transitive_reduction(graph: PreorderGraph) -> tuple:
    """Covering edges of a finite partial order, as sorted (i, j) pairs.

    An edge i -> j survives iff nothing sits strictly between (Aho, Garey
    & Ullman 1972).  The points are taken in an order that is a linear
    extension: their labels when no packed row has a bit below its
    diagonal, else descending up-set size (each packed row's popcount),
    permuted by graph.restrict.  In that order the first point left in a
    row's strict up-set is a cover, and the cover's up-set is then struck
    out; each round takes one cover from every row with points left, on
    the packed words.  Struck points stay in the row iff the input is a
    partial order; else ValueError names a witness.
    """
    packed, n = graph.packed, graph.n
    order = None
    if n and np.any(_lowest_bits(packed) != np.arange(n)):
        order = np.argsort(-np.bitwise_count(packed).sum(
            axis=1, dtype=np.int64), kind="stable")
        packed = graph.restrict(order).packed
    strict = _strict_rows(packed)
    diag = np.arange(n)
    tails, heads, leaky = [diag[:0]], [diag[:0]], [diag[:0]]
    live = np.flatnonzero(strict.any(axis=1))
    left = strict[live]  # the live rows' points not yet taken or struck
    while live.size:
        cover = _lowest_bits(left)
        tails.append(live)
        heads.append(cover)
        up = packed[cover]  # the cover and the points it strikes out
        leaky.append(live[(up & ~strict[live]).any(axis=1)])
        left &= ~up
        keep = left.any(axis=1)
        live, left = live[keep], left[keep]
    tails, heads, leaky = map(np.concatenate, (tails, heads, leaky))
    if leaky.size:
        i = int(leaky.min())
        struck = np.bitwise_or.reduce(packed[heads[tails == i]], axis=0)
        j = _first_set((struck & ~strict[i])[None])[1]
        # j is in the strict up-set of some k in row i
        into_j = np.flatnonzero(_bit_at(strict, diag, j))
        k = int(into_j[np.argmax(_bit_at(strict, i, into_j))])
        if order is not None:
            i, k, j = (int(order[p]) for p in (i, k, j))
        raise ValueError("not a partial order: %d < %d < %d but not %d < %d"
                         % (i, k, j, i, j))
    if order is not None:
        tails, heads = order[tails], order[heads]
    by_pair = (tails * n + heads).argsort()
    return tuple(zip(tails[by_pair].tolist(), heads[by_pair].tolist()))


def write_preorder_dot(comp, path):
    """Hasse-style DOT of the induced order.

    Cycles are condensed into single nodes, edges are the transitive
    reduction (the full relation lives in report.json), and any node
    containing a remainder vertex is drawn filled with a double border.
    """
    qgraph, classes = quotient_preorder(comp.induced)
    edges = transitive_reduction(qgraph)
    lines = ["digraph induced_order {", "  rankdir=BT;",
             "  node [shape=ellipse];"]
    for ci, members in enumerate(classes):
        tagged = ["v%d" % m if m < comp.n_core else "r%d" % m
                  for m in members]
        if len(tagged) <= 3:
            label = "~".join(tagged)
        else:
            label = "%s~+%d" % (tagged[0], len(tagged) - 1)
        attrs = 'label="%s"' % label
        if members[-1] >= comp.n_core:  # a member is a remainder vertex
            attrs += ', shape=doublecircle, style=filled, fillcolor="#d0d0d0"'
        lines.append("  n%d [%s];" % (ci, attrs))
    lines += map("  n%d -> n%d;".__mod__, edges)
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def report_payload(comp, report, config=None) -> dict:
    """Everything a reader (or a later `dominate` run) needs, as plain data.

    The induced relation is stored losslessly as one hex bitmask per row;
    row i has bit j set iff vertex i <= vertex j.
    """
    payload = {
        "space": comp.entry.name,
        "family": {
            "h": [f.name for f in comp.family.h],
            "c": [f.name for f in comp.family.c],
        },
        "parameters": {
            "eps_q": comp.eps_q,
            "eps_cauchy": comp.eps_cauchy,
        },
        "complete": comp.complete,
        "coordinates": list(comp.names),
        "counts": {
            "vertices": comp.n_vertices,
            "core": len(comp.core_ids()),
            "remainder": len(comp.remainder_ids()),
            "samples": len(comp.sample.coords),
        },
        "remainder": {
            "ids": list(comp.remainder_ids()),
            "quantized": comp.quant[comp.n_core:].tolist(),
        },
        "end_info": _plain(list(comp.end_info)),
        "relation_rows_hex": _hex_rows(comp.induced.packed),
        "checks": report.to_dict(),
    }
    if config is not None:
        payload["config"] = _plain(dict(config))
    return payload


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_build(comp, report, outdir, config=None) -> dict:
    """Write vertices.csv, preorder.dot and report.json into outdir."""
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "vertices": os.path.join(outdir, "vertices.csv"),
        "dot": os.path.join(outdir, "preorder.dot"),
        "report": os.path.join(outdir, "report.json"),
    }
    write_vertices_csv(comp, paths["vertices"])
    write_preorder_dot(comp, paths["dot"])
    with open(paths["report"], "w", encoding="utf-8") as fh:
        # streamed: the same text as canonical_json, never held whole
        json.dump(report_payload(comp, report, config), fh, sort_keys=True,
                  indent=2)
        fh.write("\n")
    return paths
