"""Span tracer that wraps ordtop's public functions from outside the package.

`Tracer.install` replaces every traced function at each module or class
attribute that holds it (a function imported into another ordtop module
is patched there too, since callers look it up through that module) and
`Tracer.restore` puts the original objects back.  While `active` is set,
each call records a span [name, start, end, parent, op] and any counts
its hook derives from the arguments and result; otherwise the wrapper
calls straight through.

A call opens no new span when it would only repeat the open one: the
same span name (evaluate_family calling ScalarFunction.evaluate), or a
helper (HELPER_KINDS) called from a span of its own module, such as the
matrix conversion inside function_preorder.  Its time then stays in the
caller's span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

MODULES = ("catalog", "compactify", "preorder", "finite_space", "export")
HELPER_KINDS = ("other", "matrix_convert")

# Public module-level functions with a span of their own; every other
# public function of these modules is traced as "<module>.other".
FUNCTION_SPANS = {
    "catalog": {
        "evaluate_family": "evaluate",
        "validate_family": "validate",
    },
    "compactify": {
        "build_compactification": "build",
        "embed": "embed",
        "close_and_cluster": "close_and_cluster",
        "verify_preorder_embedding": "verify",
        "remainder_is_ordered": "remainder",
        "smallest_closed_preorder_diagnostic": "diagnostic",
        "dominate": "dominate",
        "attempt_domination": "attempt_domination",
        "extendability": "extendability",
        "i_closure": "extendability",
        "nachbin_pipeline": "nachbin",
    },
    "preorder": {
        "transitive_reflexive_closure": "closure",
        "quotient_preorder": "quotient",
        "symmetric_part": "quotient",
        "rows_to_matrix": "matrix_convert",
        "matrix_to_rows": "matrix_convert",
        "function_preorder": "function_preorder",
    },
    "finite_space": {
        "load_space": "load",
        "graph_is_closed": "closed",
        "is_T1_preordered": "t1",
        "quotient_space": "quotient",
        "smallest_closed_preorder": "smallest_closed",
        "clopen_increasing_sets": "clopen",
        "enumerate_isotone_functions": "enumerate",
        "representation_check": "representation",
    },
    "export": {
        "write_vertices_csv": "csv",
        "write_preorder_dot": "dot",
        "transitive_reduction": "reduction",
        "report_payload": "json",
        "canonical_json": "json",
        "write_build": "json",
    },
}

# Methods traced on their classes: (module, base class, method, span).
# The method is wrapped on the base and on every subclass that
# overrides it.  Small per-element methods (leq, up_set, ...) are left
# alone; their time stays in the caller's span.
METHOD_SPANS = (
    ("catalog", "SampledSpace", "sample", "sample"),
    ("catalog", "SampledSpace", "relation_matrix", "relation"),
    ("catalog", "SampledSpace", "relation", "relation"),
    ("catalog", "ScalarFunction", "evaluate", "evaluate"),
    ("catalog", "CatalogEntry", "family", "other"),
    ("catalog", "CatalogEntry", "family_from_names", "other"),
    ("preorder", "PreorderGraph", "to_matrix", "matrix_convert"),
    ("preorder", "PreorderGraph", "from_matrix", "matrix_convert"),
    ("preorder", "PreorderGraph", "from_pairs", "other"),
    ("finite_space", "FiniteTopology", "from_basis", "load"),
)


# Counts recorded per call, keyed by function name or by
# "<base class>.<method>": hook(args, result) -> {count name: increment}.
COUNT_HOOKS = {
    "ScalarFunction.evaluate": lambda a, r: {
        "catalog.function_evals": r.size},
    "SampledSpace.relation_matrix": lambda a, r: {
        "catalog.relation_pairs": r.size},
    "close_and_cluster": lambda a, r: {
        "compactify.vertices": r.n_vertices,
        "compactify.related_pairs": r.induced.pair_count()},
    "attempt_domination": lambda a, r: {
        "compactify.domination_candidates":
            len(r.candidates) + (r.found is not None),
        "compactify.maps_found": int(r.found is not None)},
    "extendability": lambda a, r: {
        "compactify.extendability_checks": 1,
        "compactify.extendable": int(bool(r))},
    "transitive_reflexive_closure": lambda a, r: {
        "preorder.closure_points": a[0].n},
    "load_space": lambda a, r: {
        "finite_space.opens_stored": len(r.topology.opens)},
    "clopen_increasing_sets": lambda a, r: {
        "finite_space.masks_scanned": 1 << a[0].n},
    "enumerate_isotone_functions": lambda a, r: {
        "finite_space.functions_enumerated": len(r)},
    "write_build": lambda a, r: {
        "export.bytes_written": sum(os.path.getsize(p) for p in r.values())},
}


def _module(name):
    return importlib.import_module(f"ordtop.{name}")


def _holders(fn):
    """Every loaded ordtop module whose attributes hold fn, with the names."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "ordtop"
                               or modname.startswith("ordtop.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                yield mod, attr


def targets():
    """(owner, attribute, span name, count hook) for every traced callable."""
    out = []
    for layer in MODULES:
        mod = _module(layer)
        named = FUNCTION_SPANS[layer]
        for name, fn in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            span = f"{layer}.{named.get(name, 'other')}"
            for owner, attr in _holders(fn):
                out.append((owner, attr, span, COUNT_HOOKS.get(name)))
    for layer, base_name, method, span in METHOD_SPANS:
        mod = _module(layer)
        base = getattr(mod, base_name)
        for cls in vars(mod).values():
            if (inspect.isclass(cls) and issubclass(cls, base)
                    and method in cls.__dict__):
                out.append((cls, method, f"{layer}.{span}",
                            COUNT_HOOKS.get(f"{base_name}.{method}")))
    return out


def span_names():
    """Every span name the tracer can record, grouped by module."""
    names = [f"{layer}.{span}" for layer in MODULES
             for span in FUNCTION_SPANS[layer].values()]
    names += [f"{layer}.{span}" for layer, _, _, span in METHOD_SPANS]
    names += [f"{layer}.other" for layer in ("catalog", "preorder",
                                             "finite_space")]
    names = list(dict.fromkeys(names))
    return sorted(names, key=lambda n: MODULES.index(n.partition(".")[0]))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []  # indices of open spans
        self.counts = {}
        self.opened = {}  # span name -> spans opened
        self.op = None
        self.active = False
        self._saved = []  # (owner, attribute, original object)

    def install(self):
        for owner, attr, span, hook in targets():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                patched = classmethod(
                    self._wrap(original.__func__, span, hook))
            else:
                patched = self._wrap(original, span, hook)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _folds(self, span):
        if not self.stack:
            return False
        current = self.spans[self.stack[-1]][0]
        if current == span:
            return True
        layer, _, kind = span.partition(".")
        return kind in HELPER_KINDS and current.partition(".")[0] == layer

    def _wrap(self, fn, span, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if tracer._folds(span):
                result = fn(*args, **kwargs)
            else:
                stack = tracer.stack
                record = [span, 0.0, 0.0, stack[-1] if stack else None,
                          tracer.op]
                stack.append(len(tracer.spans))
                tracer.spans.append(record)
                tracer.opened[span] = tracer.opened.get(span, 0) + 1
                record[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = perf_counter()
                    stack.pop()
            if hook is not None:
                counts = tracer.counts
                for key, value in hook(args, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced


def self_times(spans, by_op=False):
    """Sum of self time per span name (or per (op, name) when by_op)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        key = (op, name) if by_op else name
        out[key] = out.get(key, 0.0) + (end - start) - child[i]
    return out
