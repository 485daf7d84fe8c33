"""The benchmark's workloads: seeded inputs, operations and output checks.

A workload is three functions:

- `inputs(seed)` makes the inputs as plain data; the same seed gives the
  same data.
- `operations(inputs, workdir)` does the remaining set-up (for example,
  writing the build directories `ordtop dominate` reads) and returns the
  round: a fixed list of `Op`s.
- `warm_up(ops, workdir)` runs each code path once before timing; its
  outputs are not checked.

An op's `run` is what gets timed: a user-level call into ordtop.  Its
`check` runs afterwards, raises `OutputError` when the output is wrong
and returns a fingerprint of the output, which must be the same in
every round.  ordtop is always called through module attributes, so the
tracer's patches apply to every call.

Why each workload exists and which layers it loads is in RATIONALE.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import shutil
from dataclasses import dataclass
from functools import partial
from typing import Callable

CAT = importlib.import_module("ordtop.catalog")
CLI = importlib.import_module("ordtop.cli")
COMP = importlib.import_module("ordtop.compactify")
EXP = importlib.import_module("ordtop.export")
FIN = importlib.import_module("ordtop.finite_space")
GEN = importlib.import_module("ordtop.generators")
PRE = importlib.import_module("ordtop.preorder")

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

TAIL_DEPTH = 4
EPS_Q = 1e-3
EPS_CAUCHY = 0.01


class OutputError(Exception):
    """An operation returned a wrong result."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _require(ok, message):
    if not ok:
        raise OutputError(message)


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def build_config(space, family, resolution):
    """The config block `ordtop compactify` writes, minus the unused seed."""
    return {"space": space, "family": family, "resolution": resolution,
            "tail_depth": TAIL_DEPTH, "eps_q": EPS_Q,
            "eps_cauchy": EPS_CAUCHY}


def compactify(space, family, resolution, outdir):
    """What `ordtop compactify` does: build, then write the directory."""
    entry = CAT.catalog(space)
    fam = entry.family(family, resolution, TAIL_DEPTH)
    comp, report = COMP.build_compactification(
        entry, fam, resolution=resolution, tail_depth=TAIL_DEPTH,
        eps_q=EPS_Q, eps_cauchy=EPS_CAUCHY)
    paths = EXP.write_build(comp, report, outdir,
                            build_config(space, family, resolution))
    return comp, report, paths


# ------------------------------------------------------------ build-large

# (space, family, resolution): the two builds load different layers; see
# RATIONALE.md.
LARGE_BUILDS = (
    ("misner-strip", "default", 4096),
    ("half-open-interval", "id", 20000),
)
LARGE_WARM_UP = (
    ("misner-strip", "default", 256),
    ("half-open-interval", "id", 1000),
)
# the gates `ordtop compactify` requires before it exits 0
CLI_GATES = ("all_ends_cauchy", "vertex_order_matches_space",
             "sampled_relation_preserved")


def build_key(space, family, resolution):
    return f"{space}/{family}/{resolution}"


def build_fingerprints(comp, report, paths):
    """sha256 of the config-free report payload and of each written file."""
    payload = EXP.canonical_json(EXP.report_payload(comp, report))
    return {
        "report": hashlib.sha256(payload.encode()).hexdigest(),
        "vertices.csv": _sha256_file(paths["vertices"]),
        "preorder.dot": _sha256_file(paths["dot"]),
    }


def check_build(key, config, expected, output):
    comp, report, paths = output
    gates = list(CLI_GATES)
    if comp.complete:
        gates.append("remainder_antisymmetric")
    failing = [g for g in gates if not report.check(g).passed]
    _require(comp.complete and not failing,
             f"{key}: compactify gate checks fail: {failing or 'incomplete'}")
    with open(paths["report"], encoding="utf-8") as fh:
        written = fh.read()
    _require(written == EXP.canonical_json(
        EXP.report_payload(comp, report, config)),
        f"{key}: report.json differs from the build's payload")
    got = build_fingerprints(comp, report, paths)
    _require(key in expected, f"{key}: no reference fingerprint")
    for name, want in expected[key].items():
        _require(got[name] == want, f"{key}: {name} sha256 {got[name]} "
                                    f"!= reference {want}")
    shutil.rmtree(os.path.dirname(paths["report"]))
    return got["report"]


def large_inputs(seed):
    """The two fixed builds; the seed only orders them."""
    builds = [list(b) for b in LARGE_BUILDS]
    random.Random(seed).shuffle(builds)
    return {"builds": builds}


def large_operations(inputs, workdir):
    expected = load_expected()["build-large"]
    ops = []
    for i, (space, family, res) in enumerate(inputs["builds"]):
        outdir = os.path.join(workdir, f"build-{i}")
        key = build_key(space, family, res)
        ops.append(Op(f"compactify {space}@{res}",
                      partial(compactify, space, family, res, outdir),
                      partial(check_build, key,
                              build_config(space, family, res), expected)))
    return ops


def large_warm_up(ops, workdir):
    for space, family, res in LARGE_WARM_UP:
        outdir = os.path.join(workdir, "warm-up")
        compactify(space, family, res, outdir)
        shutil.rmtree(outdir)


# ------------------------------------------------------------ build-small

SMALL_RESOLUTION = 256
NESTED_SPACES = ("half-open-interval", "closed-interval", "real-line-mirror")
PAIRS_PER_STRATUM = 4
NESTED_DRAWS = 3000
CLOSURE_POOL = ("id", "sq", "cube", "sqrt", "pow64")
CLOSURE_BUILDS = ("id", "id,sq", "id,sqrt", "id,sq,sqrt")


def _comp_digest(comp):
    return {"rows": [format(r, "x") for r in comp.induced.rows],
            "remainder": list(comp.remainder_ids()),
            "complete": comp.complete}


def nested_pair(space, inner, outer):
    entry = CAT.catalog(space)
    ci, _ = COMP.build_compactification(
        entry, entry.family(",".join(inner), SMALL_RESOLUTION),
        resolution=SMALL_RESOLUTION)
    co, _ = COMP.build_compactification(
        entry, entry.family(",".join(outer), SMALL_RESOLUTION),
        resolution=SMALL_RESOLUTION)
    return ci, co, COMP.dominate(co, ci)


def check_nested(output):
    ci, co, result = output
    _require(ci.complete and co.complete, "nested build incomplete")
    _require(result.ok, f"outer build does not dominate inner: "
                        f"{result.report.to_dict()}")
    return digest([_comp_digest(ci), _comp_digest(co),
                   list(result.vertex_map), result.report.to_dict()])


def cli_dominate(dir_a, dir_b):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = CLI.main(["dominate", dir_a, dir_b])
    return code, out.getvalue()


def check_cli_dominate(output):
    code, text = output
    _require(code == 0 and text.rstrip().endswith("dominates: PASS"),
             f"ordtop dominate exited {code}: {text[-200:]!r}")
    return digest(text)


def no_smallest():
    """The nat-discrete one-point builds and the four domination searches."""
    entry = CAT.catalog("nat-discrete")
    comps = {}
    for sel in ("C", "Cminus", "Cplus"):
        comps[sel], _ = COMP.build_compactification(
            entry, entry.family(sel, SMALL_RESOLUTION),
            resolution=SMALL_RESOLUTION)
    pairs = (("C", "Cminus"), ("C", "Cplus"), ("Cminus", "Cplus"),
             ("Cplus", "Cminus"))
    return {pair: COMP.attempt_domination(comps[pair[0]], comps[pair[1]])
            for pair in pairs}


def check_no_smallest(output):
    found = {pair: s.found is not None for pair, s in output.items()}
    _require(found[("C", "Cminus")] and found[("C", "Cplus")],
             "C build does not dominate both one-point builds")
    _require(not found[("Cminus", "Cplus")] and not found[("Cplus", "Cminus")],
             "a one-point build dominates the other")
    _require(all(len(s.candidates) > 0 for pair, s in output.items()
                 if pair[0] != "C"), "exhaustive search tried no candidate")
    return digest([[list(pair), found[pair], len(s.candidates),
                    list(s.found.vertex_map) if s.found else None]
                   for pair, s in output.items()])


def closure_algebra():
    """i-closures of four half-open builds and of their rebuilds."""
    entry = CAT.catalog("half-open-interval")
    pool = [entry.pool[k] for k in CLOSURE_POOL]
    out = {}
    for names in CLOSURE_BUILDS:
        comp, _ = COMP.build_compactification(entry, entry.family(names))
        kept = sorted(f.name for f in COMP.i_closure(entry, comp, pool))
        comp2, _ = COMP.build_compactification(
            entry, entry.family(",".join(kept)))
        again = sorted(f.name for f in COMP.i_closure(entry, comp2, pool))
        out[names] = (kept, again)
    return out


def check_closure_algebra(output):
    closure = {names: set(kept) for names, (kept, _) in output.items()}
    for names, (kept, again) in output.items():
        _require(set(names.split(",")) <= set(kept), f"H not in i(H): {names}")
        _require(again == kept, f"i(i(H)) != i(H) for {names}")
    _require(closure["id"] <= closure["id,sq"] <= closure["id,sq,sqrt"]
             and closure["id"] <= closure["id,sqrt"] <= closure["id,sq,sqrt"],
             "i-closure is not monotone in H")
    return digest({k: v[0] for k, v in output.items()})


def nachbin():
    entry = CAT.catalog("real-line-mirror")
    return COMP.nachbin_pipeline(entry, entry.family("default"))


def check_nachbin(report):
    _require(report.passed, f"Nachbin diagram fails: {report.to_dict()}")
    return digest(report.to_dict())


def small_inputs(seed):
    """PAIRS_PER_STRATUM seeded nested pairs per stratum, in stream order.

    A stratum is (space, inner size, outer size): a pair's cost grows
    with its family sizes, so fixing how many pairs fall in each keeps
    the round and its median op nearly the same for every seed.  Every
    stratum is far more common in NESTED_DRAWS draws than needed.
    """
    stream = GEN.random_nested_families(seed, NESTED_DRAWS, SMALL_RESOLUTION)
    taken = {}
    pairs = []
    for entry, inner, outer, _ in stream:
        stratum = (entry.name, len(inner), len(outer))
        if taken.get(stratum, 0) < PAIRS_PER_STRATUM:
            taken[stratum] = taken.get(stratum, 0) + 1
            pairs.append([entry.name, list(inner), list(outer)])
    # the first pair on each space also becomes a stored build directory
    # pair for `ordtop dominate`
    cli_pairs = [next(p for p in pairs if p[0] == name)
                 for name in NESTED_SPACES]
    return {"pairs": pairs, "cli_pairs": cli_pairs}


def small_operations(inputs, workdir):
    ops = [Op(f"nested {space}", partial(nested_pair, space, inner, outer),
              check_nested) for space, inner, outer in inputs["pairs"]]
    for i, (space, inner, outer) in enumerate(inputs["cli_pairs"]):
        dirs = []
        for tag, names in (("outer", outer), ("inner", inner)):
            path = os.path.join(workdir, f"cli-{i}-{tag}")
            compactify(space, ",".join(names), SMALL_RESOLUTION, path)
            dirs.append(path)
        ops.append(Op(f"ordtop dominate {space}",
                      partial(cli_dominate, *dirs), check_cli_dominate))
    ops.append(Op("no-smallest nat-discrete", no_smallest, check_no_smallest))
    ops.append(Op("closure algebra half-open", closure_algebra,
                  check_closure_algebra))
    ops.append(Op("nachbin real-line-mirror", nachbin, check_nachbin))
    return ops


def small_warm_up(ops, workdir):
    first_of_kind = {}
    for op in ops:
        first_of_kind.setdefault(op.kind, op)
    for op in first_of_kind.values():
        op.run()


# ----------------------------------------------------------- finite-check

# Spaces of POINTS points are drawn from the generators and kept by the
# number of isotone functions they have at levels=2: SPACES_PER_BUCKET
# spaces for each bit length of that count.  An op costs about 30 us per
# function plus a base that grows with the point count, so fixing the
# point count and how many spaces fall in each bucket keeps the work of
# a round, and its median op, nearly the same for every seed
# (unstratified, with 1 to 9 points, a round varies by +-30% across
# seeds).
POINTS = 9
FUNCTION_BUCKETS = range(2, 13)  # counts 2 .. 4095
SPACES_PER_BUCKET = 12
CHAIN_SIZES = (14, 15, 16)
LEVELS = 2


def _isotone_count(sets):
    """Descending chains S1 >= S2 of clopen increasing sets (levels=2)."""
    return sum(1 for s in sets for t in sets if t & ~s == 0)


def space_json(space):
    """The {n, basis, relation} dict `check-finite` reads."""
    n = space.n
    return {
        "n": n,
        "basis": [[p for p in range(n)
                   if FIN.minimal_neighborhood(space.topology, x) >> p & 1]
                  for x in range(n)],
        "relation": [[i, j] for i, j in space.preorder.pairs()],
    }


def _chain_json(rng, n):
    """Discrete topology, a total order on a seeded relabelling."""
    perm = list(range(n))
    rng.shuffle(perm)
    return {"n": n, "basis": [[p] for p in range(n)],
            "relation": [[perm[i], perm[j]]
                         for i in range(n) for j in range(i, n)]}


def finite_inputs(seed):
    rng = random.Random(seed)
    quota = {b: SPACES_PER_BUCKET for b in FUNCTION_BUCKETS}
    items = []
    draws = 0
    n = POINTS
    while any(quota.values()):
        space = GEN.random_finite_space(
            rng, n, GEN.SPACE_STYLES[draws % len(GEN.SPACE_STYLES)])
        draws += 1
        seed_pairs = [[rng.randrange(n), rng.randrange(n)]
                      for _ in range(rng.randint(0, 2 * n))]
        count = _isotone_count(FIN.clopen_increasing_sets(space))
        if quota.get(count.bit_length(), 0):
            quota[count.bit_length()] -= 1
            items.append({"space": space_json(space), "seed_pairs": seed_pairs,
                          "functions": count, "chain": False})
    for n in CHAIN_SIZES:
        items.append({"space": _chain_json(rng, n),
                      "seed_pairs": [[rng.randrange(n), rng.randrange(n)]
                                     for _ in range(n)],
                      "functions": (n + 1) * (n + 2) // 2, "chain": True})
    return {"items": items}


def check_finite(item):
    """What `check-finite` runs, plus the least closed preorder."""
    space = FIN.load_space(item["space"])
    closed = FIN.graph_is_closed(space)
    t1 = FIN.is_T1_preordered(space)
    qspace, _ = FIN.quotient_space(space)
    anti = PRE.is_antisymmetric(qspace.preorder)
    q_closed = FIN.graph_is_closed(qspace)
    fns = FIN.enumerate_isotone_functions(space, LEVELS)
    rep = FIN.representation_check(space, fns)
    least = FIN.smallest_closed_preorder(space.topology, item["seed_pairs"])
    return space, {"closed": closed, "t1": t1, "q_anti": anti,
                   "q_closed": q_closed, "functions": len(fns), "rep": rep,
                   "least": least}


def check_finite_output(item, output):
    space, out = output
    closed = out["closed"].passed
    _require(out["functions"] == item["functions"],
             f"{out['functions']} isotone functions, expected "
             f"{item['functions']}")
    if closed:
        _require(out["t1"].passed, "closed graph but not T1")
        _require(out["q_anti"][0] and out["q_closed"].passed,
                 "closed graph but the quotient is not a closed order")
    least = out["least"]
    _require(all(least.leq(i, j) for i, j in item["seed_pairs"]),
             "least closed preorder misses a seed pair")
    _require(PRE.is_transitive(least), "least closed preorder not transitive")
    _require(FIN.graph_is_closed(
        FIN.FinitePreorderedSpace(space.topology, least)).passed,
        "least closed preorder is not closed")
    if item["chain"]:
        _require(closed and out["t1"].passed and out["rep"].passed
                 and out["q_anti"][0], "chain checks fail")
    verdicts = [out[k].to_dict() for k in ("closed", "t1", "q_closed", "rep")]
    return digest([verdicts, list(out["q_anti"]), out["functions"],
                   list(least.rows)])


def finite_operations(inputs, workdir):
    return [Op("check-finite chain" if item["chain"] else "check-finite",
               partial(check_finite, item),
               partial(check_finite_output, item))
            for item in inputs["items"]]


def finite_warm_up(ops, workdir):
    for op in ops[:: max(1, len(ops) // 20)]:
        op.run()


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    operations: Callable
    warm_up: Callable


WORKLOADS = {
    "build-large": Workload(large_inputs, large_operations, large_warm_up),
    "build-small": Workload(small_inputs, small_operations, small_warm_up),
    "finite-check": Workload(finite_inputs, finite_operations,
                             finite_warm_up),
}
