"""ordtop command line: finite-space checks, builds, domination, demos.

Exit contract: 0 all requested checks passed, 1 a check failed,
2 usage or parse error.
"""

import argparse
import itertools
import json
import math
import os
import sys

from .catalog import (CATALOG_NAMES, DEFAULT_RESOLUTION, DEFAULT_TAIL_DEPTH,
                      catalog, sample_values)
from .compactify import (
    DEFAULT_EPS_CAUCHY,
    DEFAULT_EPS_Q,
    DominationError,
    _eps_q_error,
    attempt_domination,
    build_compactification,
    close_and_cluster,
    dominate,
    nachbin_pipeline,
    remainder_is_ordered,
)
from .export import write_build
from .finite_space import (
    BudgetError,
    SpaceFormatError,
    clopen_representation_check,
    graph_is_closed,
    is_T1_preordered,
    load_space,
    quotient_space,
)
from .preorder import _hex_rows, is_antisymmetric
from .report import Check, CheckReport, merge_reports


def _print_report(report: CheckReport, as_json: bool):
    if as_json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
        return
    for c in report.checks:
        line = f"{c.name}: {'PASS' if c.passed else 'FAIL'}"
        if not c.passed and c.witness is not None:
            line += f"  witness={c.witness!r}"
        print(line)


def _build_config(args) -> dict:
    return {key: getattr(args, key) for key in (
        "space", "family", "resolution", "tail_depth", "eps_q", "eps_cauchy")}


def _config_error(cfg):
    """Why compactify refuses the options in the config cfg, or None."""
    for key, least in (("resolution", 8), ("tail_depth", 3)):
        if type(cfg[key]) is not int or cfg[key] < least:
            return (f"{key} must be an integer of at least {least}, "
                    f"not {cfg[key]!r}")
    if not isinstance(cfg["family"], str):
        return f"family must be a string, not {cfg['family']!r}"
    for key in ("eps_q", "eps_cauchy"):
        if not (type(cfg[key]) in (int, float) and math.isfinite(cfg[key])
                and cfg[key] > 0):
            return (f"tolerances must be finite and positive, not {key} "
                    f"{cfg[key]!r}")
    return _eps_q_error(cfg["eps_q"])


def cmd_check_finite(args, parser) -> int:
    if args.levels < 1:
        parser.error("--levels must be at least 1")
    try:
        space = load_space(args.path)
    except SpaceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    qspace, _ = quotient_space(space)
    anti, wit = is_antisymmetric(qspace.preorder)
    q_closed = graph_is_closed(qspace).checks[0]
    report = merge_reports(
        graph_is_closed(space), is_T1_preordered(space),
        CheckReport((Check("quotient_antisymmetric", anti, witness=wit),
                     Check("quotient_graph_closed", q_closed.passed,
                           witness=q_closed.witness))),
        clopen_representation_check(space))
    _print_report(report, args.json)
    return 0 if report.passed else 1


def cmd_compactify(args, parser) -> int:
    config = _build_config(args)
    error = _config_error(config)
    if error:
        parser.error(error)
    entry = catalog(args.space)
    try:
        family = entry.family(args.family, args.resolution, args.tail_depth)
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    comp, report = build_compactification(
        entry, family, resolution=args.resolution, tail_depth=args.tail_depth,
        eps_q=args.eps_q, eps_cauchy=args.eps_cauchy,
    )
    paths = write_build(comp, report, args.out, config)
    print(f"space: {entry.name}")
    print(f"vertices: {comp.n_vertices} "
          f"(core {len(comp.core_ids())}, remainder {len(comp.remainder_ids())})")
    print(f"complete: {comp.complete}")
    _print_report(report, args.json)
    print(f"wrote: {paths['report']}")
    gates = ["values_in_unit_interval", "all_ends_cauchy",
             "vertex_order_matches_space", "sampled_relation_preserved"]
    if comp.complete:
        gates.append("remainder_antisymmetric")
    ok = all(report.check(g).passed for g in gates) and comp.complete
    return 0 if ok else 1


def _rebuild_from_dir(path: str):
    """Rebuild a build directory from its stored config.

    The rebuilt relation must equal the stored relation_rows_hex; a
    build written by other code or edited since fails with the first
    row that differs.  A config that compactify would refuse fails too,
    as does a report not shaped as compactify writes it.
    """
    with open(os.path.join(path, "report.json"), "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    cfg = payload.get("config") if isinstance(payload, dict) else None
    if not isinstance(cfg, dict):
        raise SpaceFormatError(f"{path}/report.json has no config object")
    stored = payload.get("relation_rows_hex", [])
    if not (isinstance(stored, list) and all(isinstance(row, str)
                                             for row in stored)):
        raise SpaceFormatError(f"{path}: stored relation_rows_hex is not a "
                               f"list of strings")
    error = _config_error(cfg)
    if not error and cfg["space"] not in CATALOG_NAMES:
        error = f"space must be a catalog space, not {cfg['space']!r}"
    if error:
        raise SpaceFormatError(f"{path}: stored {error}")
    entry = catalog(cfg["space"])
    family = entry.family(cfg["family"], cfg["resolution"], cfg["tail_depth"])
    comp = close_and_cluster(entry, family, *sample_values(
        entry.space, family, cfg["resolution"], cfg["tail_depth"]),
        cfg["eps_q"], cfg["eps_cauchy"])
    rows = itertools.zip_longest(stored, _hex_rows(comp.induced.packed))
    for row, (stored_row, rebuilt_row) in enumerate(rows):
        if stored_row != rebuilt_row:
            raise SpaceFormatError(
                f"{path}: stored relation row {row} is {stored_row!r} but "
                f"the rebuild gives {rebuilt_row!r}; the build is stale or "
                f"edited")
    return cfg, comp


def cmd_dominate(args) -> int:
    try:
        cfg_a, comp_a = _rebuild_from_dir(args.dir_a)
        cfg_b, comp_b = _rebuild_from_dir(args.dir_b)
    except (OSError, json.JSONDecodeError, SpaceFormatError, KeyError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: bad build directory: {message}", file=sys.stderr)
        return 2
    if cfg_a["space"] != cfg_b["space"]:
        print(f"error: builds are for different spaces "
              f"({cfg_a['space']} vs {cfg_b['space']})", file=sys.stderr)
        return 2
    try:
        result = dominate(comp_a, comp_b)
    except DominationError as exc:
        print(f"domination impossible: {exc}")
        return 1
    _print_report(result.report, args.json)
    print(f"dominates: {'PASS' if result.ok else 'FAIL'}")
    return 0 if result.ok else 1


def _assertion(label: str, ok: bool, failures: list):
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    if not ok:
        failures.append(label)


def _demo_no_smallest(res: int, failures: list):
    entry = catalog("nat-discrete")
    comps = {}
    for sel in ("C", "Cminus", "Cplus"):
        fam = entry.family(sel, res)
        comps[sel], _ = build_compactification(entry, fam, resolution=res)
    down = attempt_domination(comps["C"], comps["Cminus"])
    up = attempt_domination(comps["C"], comps["Cplus"])
    none_ab = attempt_domination(comps["Cminus"], comps["Cplus"])
    none_ba = attempt_domination(comps["Cplus"], comps["Cminus"])
    _assertion("C-comp dominates Cminus-comp", down.found is not None, failures)
    _assertion("C-comp dominates Cplus-comp", up.found is not None, failures)
    _assertion("no map Cminus-comp -> Cplus-comp (exhaustive)",
               none_ab.found is None, failures)
    _assertion("no map Cplus-comp -> Cminus-comp (exhaustive)",
               none_ba.found is None, failures)
    _assertion("the two one-point builds are mutually non-dominating",
               none_ab.found is None and none_ba.found is None, failures)


def _demo_nachbin(res: int, failures: list):
    entry = catalog("real-line-mirror")
    fam = entry.family("default", res)
    report = nachbin_pipeline(entry, fam, resolution=res)
    for c in report.checks:
        _assertion(c.name.replace("_", " "), c.passed, failures)
    _assertion("path-A/path-B order isomorphism",
               report.check("order_isomorphism").passed, failures)


def _demo_misner(res: int, failures: list):
    entry = catalog("misner-strip")
    fam = entry.family("default", res)
    comp, report = build_compactification(entry, fam, resolution=res)
    _assertion("build complete (all ends Cauchy)", comp.complete, failures)
    _assertion("preorder embedding verified",
               report.check("vertex_order_matches_space").passed
               and report.check("sampled_relation_preserved").passed, failures)
    if comp.complete:
        rem = remainder_is_ordered(comp)
        _assertion("remainder is ordered (antisymmetric)", rem.passed, failures)
    print(f"vertices: {comp.n_vertices}, remainder: {len(comp.remainder_ids())}")


def _demo_one_point(res: int, failures: list):
    entry = catalog("nat-discrete")
    for sel, want in (("C", "incomparable to all core vertices"),
                      ("Cminus", "below all core vertices"),
                      ("Cplus", "above all core vertices")):
        fam = entry.family(sel, res)
        comp, _ = build_compactification(entry, fam, resolution=res)
        rems = comp.remainder_ids()
        _assertion(f"family {sel}: exactly one remainder vertex",
                   len(rems) == 1, failures)
        if len(rems) != 1:
            continue
        r = rems[0]
        below = all(comp.induced.leq(r, v) for v in comp.core_ids())
        above = all(comp.induced.leq(v, r) for v in comp.core_ids())
        none = not any(comp.induced.leq(r, v) or comp.induced.leq(v, r)
                       for v in comp.core_ids())
        got = {"C": none, "Cminus": below and not above,
               "Cplus": above and not below}[sel]
        _assertion(f"family {sel}: remainder {want}", got, failures)


_DEMOS = {  # name -> demo, in the order the demo parser lists them
    "no-smallest": _demo_no_smallest, "nachbin-diagram": _demo_nachbin,
    "misner": _demo_misner, "one-point-suite": _demo_one_point}


def cmd_demo(args, parser) -> int:
    # the demos build with compactify's defaults at their own resolution
    error = _config_error(dict(
        resolution=args.resolution, tail_depth=DEFAULT_TAIL_DEPTH,
        family="default", eps_q=DEFAULT_EPS_Q, eps_cauchy=DEFAULT_EPS_CAUCHY))
    if error:
        parser.error(error)
    failures = []
    _DEMOS[args.name](args.resolution, failures)
    if failures:
        print(f"{len(failures)} assertion(s) failed")
        return 1
    print("all assertions passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordtop",
        description="Order-topology toolkit: finite-space checks and "
                    "numeric compactification builds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check-finite",
                        help="run closure/separation/representation checks "
                             "on a JSON finite space")
    pc.add_argument("path", help="JSON file: {n, basis, relation}")
    pc.add_argument("--levels", type=int, default=2,
                    help="value grid 0..1 in 1/levels steps of the isotone "
                         "functions (default 2); any levels >= 1 gives the "
                         "same result, read off the clopen order")
    pc.add_argument("--json", action="store_true",
                    help="print the report as JSON")

    pk = sub.add_parser("compactify",
                        help="build a compactification of a catalog space "
                             "and export artifacts")
    pk.add_argument("--space", required=True, choices=sorted(CATALOG_NAMES))
    pk.add_argument("--family", default="default",
                    help="family selector: default, C, Cminus, Cplus, or a "
                         "comma list of pool function names")
    pk.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    pk.add_argument("--tail-depth", type=int, default=DEFAULT_TAIL_DEPTH)
    pk.add_argument("--eps-q", type=float, default=DEFAULT_EPS_Q)
    pk.add_argument("--eps-cauchy", type=float, default=DEFAULT_EPS_CAUCHY)
    pk.add_argument("--out", required=True, help="output directory")
    pk.add_argument("--json", action="store_true")

    pd = sub.add_parser("dominate",
                        help="rebuild two build directories and test whether "
                             "the first dominates the second")
    pd.add_argument("dir_a")
    pd.add_argument("dir_b")
    pd.add_argument("--json", action="store_true")

    pm = sub.add_parser("demo", help="run a scripted scenario")
    pm.add_argument("name", choices=_DEMOS)
    pm.add_argument("--resolution", type=int, default=96)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # an exceeded budget is a usage error
        if args.command == "check-finite":
            return cmd_check_finite(args, parser)
        if args.command == "compactify":
            return cmd_compactify(args, parser)
        if args.command == "dominate":
            return cmd_dominate(args)
        return cmd_demo(args, parser)  # the subparsers allow no other
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
