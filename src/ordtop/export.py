"""Build-directory artifacts: vertex table, DOT diagram, canonical JSON report."""

import csv
import json
import os

import numpy as np

from .compactify import _row_keys
from .preorder import PreorderGraph, quotient_preorder
from .report import _plain


def write_vertices_csv(comp, path):
    """One row per vertex: id, kind, then the quantized coordinates.

    A coordinate is float(q) * eps_q for its integer q in comp.quant.
    Each distinct q is formatted once, with repr of that float.  Rows
    are joined as csv.writer writes them, since no field needs quoting.
    """
    quant = comp.quant
    values, inverse = np.unique(quant, return_inverse=True)
    texts = np.array([repr(float(q) * comp.eps_q) for q in values.tolist()],
                     dtype=object)
    cells = texts[inverse.reshape(quant.shape)].tolist()
    kinds = ["core"] * comp.n_core + ["remainder"] * (len(quant) - comp.n_core)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(["id", "kind"] + list(comp.names))
        for start in range(0, len(cells), 1024):  # no whole-file string
            block = range(start, min(start + 1024, len(cells)))
            fh.write("".join(",".join([str(v), kinds[v]] + cells[v]) + "\r\n"
                             for v in block))


def transitive_reduction(graph: PreorderGraph) -> tuple:
    """Covering edges of a finite partial order, as sorted (i, j) pairs.

    An edge i -> j survives iff nothing sits strictly between.  Ranked by
    descending up-set size, the first point left in a row's strict up-set is
    a cover, whose strict up-set is then struck out.  Struck points stay in
    the row iff the input is a partial order; else ValueError names a witness.
    """
    mat = graph.matrix
    order = np.argsort(-mat.sum(axis=1), kind="stable").tolist()
    ranked = PreorderGraph.from_matrix(mat.take(order, 0).take(order, 1)).rows
    strict = [row & ~(1 << i) for i, row in enumerate(ranked)]
    keep = [~(up | 1 << k) for k, up in enumerate(strict)]
    pairs = []
    for i, reach in enumerate(strict):
        rest, struck = reach, 0
        while rest:
            k = (rest & -rest).bit_length() - 1
            pairs.append((order[i], order[k]))
            struck |= strict[k]
            rest &= keep[k]
        bad = struck & ~reach
        if bad:
            j = (bad & -bad).bit_length() - 1
            k = next(k for k, up in enumerate(strict)
                     if reach >> k & 1 and up >> j & 1)
            raise ValueError(
                "not a partial order: %d < %d < %d but not %d < %d" % (
                    order[i], order[k], order[j], order[i], order[j]))
    return tuple(sorted(pairs))


def _condense(comp):
    """The induced preorder's quotient graph and its classes, as
    quotient_preorder gives them.

    Vertices are mutually related iff their quantized H-parts are equal,
    so when those rows are distinct every class is a singleton and the
    quotient is the induced graph itself.
    """
    h = comp.quant[:, :comp.h_count]
    if comp.h_count and len(np.unique(_row_keys(h))) == len(h):
        return comp.induced, tuple((v,) for v in range(len(h)))
    qgraph, classes = quotient_preorder(comp.induced)
    return qgraph, classes.classes


def write_preorder_dot(comp, path):
    """Hasse-style DOT of the induced order.

    Cycles are condensed into single nodes, edges are the transitive
    reduction (the full relation lives in report.json), and any node
    containing a remainder vertex is drawn filled with a double border.
    """
    qgraph, classes = _condense(comp)
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
    for i, j in edges:
        lines.append("  n%d -> n%d;" % (i, j))
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def report_payload(comp, report, config=None) -> dict:
    """Everything a reader (or a later `dominate` run) needs, as plain data.

    The induced relation is stored losslessly as one hex bitmask per row;
    row i has bit j set iff vertex i <= vertex j.
    """
    payload = {
        "space": comp.cloud.entry.name,
        "family": {
            "h": [f.name for f in comp.cloud.family.h],
            "c": [f.name for f in comp.cloud.family.c],
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
            "samples": comp.cloud.n_samples,
        },
        "remainder": {
            "ids": list(comp.remainder_ids()),
            "quantized": [[int(q) for q in comp.quant[v]]
                          for v in comp.remainder_ids()],
        },
        "end_info": _plain(list(comp.end_info)),
        "relation_rows_hex": [format(r, "x") for r in comp.induced.rows],
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
        fh.write(canonical_json(report_payload(comp, report, config)))
    return paths
