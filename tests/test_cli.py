"""End-to-end CLI tests via subprocess: exit codes, artifacts, demos."""

import importlib
import json
import subprocess
import sys

import numpy as np
import pytest

import ordtop.cli
import ordtop.finite_space
from ordtop.catalog import ScalarFunction

# the module itself: the package exports the catalog() function under its name
catalog_module = importlib.import_module("ordtop.catalog")

SIERPINSKI = {"n": 2, "basis": [[1]], "relation": []}
CHAIN3 = {"n": 3, "basis": [[0], [1], [2]], "relation": [[0, 1], [1, 2]]}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ordtop.cli", *args],
        capture_output=True, text=True, timeout=300,
    )


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def test_check_finite_flags_non_closed_graph(tmp_path):
    path = write_json(tmp_path / "s.json", SIERPINSKI)
    proc = run_cli("check-finite", path, "--json")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["graph_is_closed"]["passed"] is False
    assert tuple(by_name["graph_is_closed"]["witness"]) == (0, 1)


def test_check_finite_passes_discrete_chain(tmp_path):
    path = write_json(tmp_path / "c.json", CHAIN3)
    proc = run_cli("check-finite", path)
    assert proc.returncode == 0
    assert "FAIL" not in proc.stdout


def test_check_finite_reads_a_path_that_looks_like_json(tmp_path,
                                                       monkeypatch, capsys):
    # a path is always a path: neither a leading brace nor a newline
    # turns it into JSON text
    monkeypatch.chdir(tmp_path)
    for name in ("{chain}.json", "two\nlines.json"):
        write_json(tmp_path / name, CHAIN3)
        assert ordtop.cli.main(["check-finite", name]) == 0
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out and captured.err == ""


def test_check_finite_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "basis": [[1]')
    proc = run_cli("check-finite", str(path))
    assert proc.returncode == 2
    assert "line" in proc.stderr and "column" in proc.stderr


def test_check_finite_rejects_json_booleans_as_integers(tmp_path, capsys):
    # bool is an int subclass in Python; true/false are not points
    cases = (
        ({"n": True, "basis": [[False]], "relation": [[False, False]]},
         "'n': expected a nonnegative integer"),
        ({"n": 2, "basis": [[0, False]], "relation": []},
         "basis[0][1]: expected an integer point"),
        ({"n": 2, "basis": [], "relation": [[0, 1], [True, False]]},
         "relation[1]: expected a pair [i, j]"),
    )
    for data, message in cases:
        path = write_json(tmp_path / "b.json", data)
        assert ordtop.cli.main(["check-finite", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_check_finite_rejects_an_unknown_key(tmp_path, capsys):
    # "relations" for "relation" would otherwise check the discrete
    # preorder, pass all five checks and exit 0
    path = write_json(tmp_path / "typo.json", {
        "n": 3, "basis": [[0], [1], [2]], "relations": [[0, 1], [1, 2]]})
    assert ordtop.cli.main(["check-finite", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: top level: unknown key 'relations'\n"


def assert_one_report_at_every_level(path, capsys):
    """check-finite passes all five checks with the same stdout, text and
    JSON, at --levels 1, 2 and 3: the representation is read off the
    clopen order, so no level can reach an enumeration budget."""
    for mode in ([], ["--json"]):
        outs = set()
        for levels in ("1", "2", "3"):
            assert ordtop.cli.main(
                ["check-finite", path, "--levels", levels, *mode]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outs.add(captured.out)
        (out,) = outs
        if not mode:
            assert out.count(": PASS\n") == 5 and "FAIL" not in out
    return json.loads(out)["checks"][-1]["metrics"]


def test_check_finite_budget_overflow_is_a_usage_error(tmp_path, monkeypatch,
                                                      capsys):
    # 12 discrete points, no order, have 4^12 functions at --levels 3 and
    # 2^12 at --levels 1; check-finite lists none of them, so a budget of
    # one function, which an enumeration overflows at once, is no error
    path = write_json(tmp_path / "a.json", {
        "n": 12, "basis": [[p] for p in range(12)], "relation": []})
    monkeypatch.setattr(ordtop.finite_space, "FUNCTION_BUDGET", 1)
    assert assert_one_report_at_every_level(path, capsys) == {
        "induced_pairs": 12, "preorder_pairs": 12}


def test_check_finite_default_budget_fails_fast(tmp_path, capsys):
    # 4^12 functions at --levels 3 are past the default function budget,
    # and no level is refused; a level below 1 still is
    path = write_json(tmp_path / "a.json", {
        "n": 12, "basis": [[p] for p in range(12)], "relation": []})
    assert assert_one_report_at_every_level(path, capsys) == {
        "induced_pairs": 12, "preorder_pairs": 12}
    with pytest.raises(SystemExit) as exc:
        ordtop.cli.main(["check-finite", path, "--levels", "0"])
    assert exc.value.code == 2
    assert "--levels must be at least 1" in capsys.readouterr().err


def test_check_finite_refuses_more_points_than_the_budget(tmp_path, capsys):
    n = ordtop.finite_space.POINT_BUDGET + 1
    path = write_json(tmp_path / "big.json", {"n": n})
    assert ordtop.cli.main(["check-finite", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: budget exceeded: more than {n - 1} "
                            f"points\n")


def test_check_finite_bounds_the_function_values(tmp_path, monkeypatch,
                                                 capsys):
    # a 600-point discrete chain has 180,901 functions at --levels 2, whose
    # values pass VALUE_BUDGET; check-finite holds none of them
    n = 600
    path = write_json(tmp_path / "chain.json", {
        "n": n, "basis": [[p] for p in range(n)],
        "relation": [[i, i + 1] for i in range(n - 1)]})
    monkeypatch.setattr(ordtop.finite_space, "FUNCTION_BUDGET", 1)
    monkeypatch.setattr(ordtop.finite_space, "VALUE_BUDGET", 1)
    assert assert_one_report_at_every_level(path, capsys) == {
        "induced_pairs": n * (n + 1) // 2, "preorder_pairs": n * (n + 1) // 2}


@pytest.mark.parametrize("argv", (
    ["compactify", "--space", "misner-strip"],
    ["compactify", "--space", "nat-discrete", "--family", "C"],
    ["demo", "misner"],
))
def test_resolution_past_the_sample_budget_is_a_usage_error(
        tmp_path, capsys, monkeypatch, argv):
    def unsampled(*args):
        raise AssertionError("sampled past the budget")

    monkeypatch.setattr(catalog_module.MisnerStrip, "sample", unsampled)
    monkeypatch.setattr(catalog_module.NaturalsDiscrete, "sample", unsampled)
    budget = catalog_module.SAMPLE_BUDGET
    out = tmp_path / "build"
    if argv[0] == "compactify":
        argv = argv + ["--out", str(out)]
    assert ordtop.cli.main(argv + ["--resolution", str(budget + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: budget exceeded: more than {budget} samples\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["no-smallest", "nachbin-diagram",
                                  "misner", "one-point-suite"])
@pytest.mark.parametrize("resolution", [0, 5, 7])
def test_demo_resolution_below_eight_is_a_usage_error(
        capsys, monkeypatch, name, resolution):
    def unsampled(*args):
        raise AssertionError("sampled below the least resolution")

    for space in catalog_module.SampledSpace.__subclasses__():
        monkeypatch.setattr(space, "sample", unsampled)
    with pytest.raises(SystemExit) as exc:
        ordtop.cli.main(["demo", name, "--resolution", str(resolution)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: resolution must be an integer of at least 8, "
        f"not {resolution}\n")


def test_sampled_values_past_their_budget_are_a_usage_error(
        tmp_path, capsys, monkeypatch):
    def unreached(*args):
        raise AssertionError("sampled past the budget")

    monkeypatch.setattr(catalog_module.NaturalsDiscrete, "sample", unreached)
    monkeypatch.setattr(ScalarFunction, "evaluate", unreached)
    out = tmp_path / "build"
    assert ordtop.cli.main([
        "compactify", "--space", "nat-discrete", "--family", "C",
        "--resolution", "4097", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: budget exceeded: more than 33554432 sampled values\n")
    assert not out.exists()


@pytest.mark.parametrize("space, resolution, depth", (
    ("half-open-interval", 8, 20),  # would leave no core sample
    ("real-line-mirror", 8, 3000),
    ("misner-strip", 64, catalog_module.TAIL_DEPTH_LIMIT + 1),
))
def test_tail_depth_past_its_limit_is_a_usage_error(
        tmp_path, capsys, monkeypatch, space, resolution, depth):
    def unsampled(*args):
        raise AssertionError("sampled past the limit")

    monkeypatch.setattr(type(catalog_module.catalog(space).space), "sample",
                        unsampled)
    limit = min(catalog_module.TAIL_DEPTH_LIMIT, resolution - 1)
    out = tmp_path / "build"
    assert ordtop.cli.main([
        "compactify", "--space", space, "--resolution", str(resolution),
        "--tail-depth", str(depth), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: budget exceeded: more than {limit} tail shells\n")
    assert not out.exists()


def test_compactify_writes_build_directory(tmp_path):
    out = tmp_path / "build"
    proc = run_cli("compactify", "--space", "half-open-interval",
                   "--resolution", "128", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in ("vertices.csv", "preorder.dot", "report.json"):
        assert (out / name).exists(), name
    payload = json.loads((out / "report.json").read_text())
    assert payload["counts"]["remainder"] == 1
    assert payload["complete"] is True


def test_compactify_flags_divergent_family(tmp_path):
    out = tmp_path / "build"
    proc = run_cli("compactify", "--space", "half-open-interval",
                   "--family", "id,pow64", "--out", str(out))
    assert proc.returncode == 1
    payload = json.loads((out / "report.json").read_text())
    assert payload["complete"] is False


@pytest.mark.parametrize("name, fn", (
    ("twice", lambda a: 2.0 * a[:, 0]),
    ("nanf", lambda a: np.where(a[:, 0] > 0.5, np.nan, 0.0)),
), ids=("twice", "nanf"))
def test_compactify_fails_a_family_leaving_unit_interval(tmp_path, monkeypatch,
                                                         capsys, name, fn):
    # clipped, either function leaves the build's order alone, so the
    # range check is the one exit gate that fails
    pool = catalog_module._interval_pool()
    pool[name] = ScalarFunction(name, fn, monotone="isotone")
    monkeypatch.setattr(catalog_module, "_interval_pool", lambda: pool)
    code = ordtop.cli.main(["compactify", "--space", "half-open-interval",
                            "--family", f"id,{name}", "--resolution", "64",
                            "--out", str(tmp_path / "build")])
    assert code == 1
    out = capsys.readouterr().out
    assert f"values_in_unit_interval: FAIL  witness=('{name}', " in out
    for gate in ("all_ends_cauchy", "vertex_order_matches_space",
                 "sampled_relation_preserved", "remainder_antisymmetric"):
        assert f"{gate}: PASS" in out


def test_compactify_usage_errors(tmp_path):
    out = str(tmp_path / "x")
    assert run_cli("compactify", "--space", "half-open-interval",
                   "--resolution", "4", "--out", out).returncode == 2
    assert run_cli("compactify", "--space", "half-open-interval",
                   "--tail-depth", "2", "--out", out).returncode == 2
    assert run_cli("compactify", "--space", "half-open-interval",
                   "--eps-q", "0", "--out", out).returncode == 2
    assert run_cli("compactify", "--space", "no-such-space",
                   "--out", out).returncode == 2
    assert run_cli("compactify", "--space", "half-open-interval",
                   "--family", "id,nope", "--out", out).returncode == 2


def test_compactify_rejects_a_function_named_twice(tmp_path, capsys):
    # FunctionFamily would otherwise raise from inside the build
    with pytest.raises(SystemExit) as exc:
        ordtop.cli.main(["compactify", "--space", "half-open-interval",
                         "--family", "id, sq,id", "--resolution", "16",
                         "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "repeated function names for half-open-interval: ['id']" in \
        capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("selector", (",", " , "))
def test_compactify_rejects_a_selector_naming_no_function(tmp_path, capsys,
                                                          selector):
    # it would otherwise build an empty H-part and exit 0
    with pytest.raises(SystemExit) as exc:
        ordtop.cli.main(["compactify", "--space", "half-open-interval",
                         "--family", selector, "--resolution", "16",
                         "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert f"selector {selector!r} names no function" in \
        capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag", ("--eps-q", "--eps-cauchy"))
@pytest.mark.parametrize("value", ("nan", "inf"))
def test_compactify_rejects_non_finite_tolerances(tmp_path, capsys, flag,
                                                   value):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        ordtop.cli.main(["compactify", "--space", "half-open-interval",
                         "--family", "pow64", "--resolution", "64",
                         flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert "tolerances must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ("1e-19", "1e-30", "5e-324"))
def test_compactify_refuses_an_eps_q_past_the_int64_quantum(tmp_path, capsys,
                                                            value):
    # 1 / eps_q from 2**63 on does not fit the int64 quantized values; the
    # cast once wrapped them and a build exited 1 with witnesses of it
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        ordtop.cli.main(["compactify", "--space", "half-open-interval",
                         "--resolution", "64", "--eps-q", value,
                         "--out", str(out)])
    assert exc.value.code == 2
    assert "1 / eps_q below 2**63" in capsys.readouterr().err
    assert not out.exists()


def test_report_json_is_byte_identical_across_runs(tmp_path):
    args = ("compactify", "--space", "real-line-mirror",
            "--resolution", "128")
    assert run_cli(*args, "--out", str(tmp_path / "a")).returncode == 0
    assert run_cli(*args, "--out", str(tmp_path / "b")).returncode == 0
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b


def test_dominate_self_is_identity(tmp_path):
    out = tmp_path / "build"
    assert run_cli("compactify", "--space", "half-open-interval",
                   "--resolution", "128",
                   "--out", str(out)).returncode == 0
    proc = run_cli("dominate", str(out), str(out))
    assert proc.returncode == 0
    assert "dominates: PASS" in proc.stdout


def test_dominate_nested_families(tmp_path):
    big, small = tmp_path / "big", tmp_path / "small"
    run_cli("compactify", "--space", "half-open-interval",
            "--family", "id,sq", "--resolution", "128", "--out", str(big))
    run_cli("compactify", "--space", "half-open-interval",
            "--family", "id", "--resolution", "128", "--out", str(small))
    proc = run_cli("dominate", str(big), str(small))
    assert proc.returncode == 0, proc.stdout
    assert "remainder_to_remainder: PASS" in proc.stdout


def test_dominate_rejects_different_spaces(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("compactify", "--space", "half-open-interval",
            "--resolution", "128", "--out", str(a))
    run_cli("compactify", "--space", "real-line-mirror",
            "--resolution", "128", "--out", str(b))
    proc = run_cli("dominate", str(a), str(b))
    assert proc.returncode == 2
    assert "different spaces" in proc.stderr


def test_dominate_needs_valid_build_dirs(tmp_path):
    proc = run_cli("dominate", str(tmp_path / "nope"), str(tmp_path / "nada"))
    assert proc.returncode == 2


def test_dominate_rejects_builds_with_different_samples(tmp_path, capsys):
    dirs = [str(tmp_path / f"r{res}") for res in (1001, 1000)]
    for res, out in zip((1001, 1000), dirs):
        assert ordtop.cli.main(["compactify", "--space", "closed-interval",
                                "--family", "id", "--resolution", str(res),
                                "--out", out]) == 0
    capsys.readouterr()
    assert ordtop.cli.main(["dominate", *dirs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ("domination impossible: builds sample different "
                            "point sets (1001 vs 1000 samples)\n")
    assert captured.err == ""


def test_dominate_rejects_builds_sampling_other_points(tmp_path, capsys):
    # equal sample counts, but tail depth 5 samples other points than 4
    dirs = [str(tmp_path / f"t{depth}") for depth in (5, 4)]
    for depth, family, out in zip((5, 4), ("id,sq", "id"), dirs):
        assert ordtop.cli.main(["compactify", "--space", "half-open-interval",
                                "--family", family, "--resolution", "512",
                                "--tail-depth", str(depth), "--out", out]) == 0
    capsys.readouterr()
    assert ordtop.cli.main(["dominate", *dirs]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "domination impossible: builds sample different point sets (sample "
        "1 at (0.0019569773175542407,) vs (0.001953125,))\n")
    assert captured.err == ""


def test_dominate_tells_quanta_below_1e_15_apart(tmp_path, capsys):
    # stored quanta round-trip exactly, so 1e-16 and 5e-16 differ
    dirs = [str(tmp_path / f"q{eps}") for eps in ("1e-16", "5e-16")]
    for eps, out in zip(("1e-16", "5e-16"), dirs):
        assert ordtop.cli.main(["compactify", "--space", "half-open-interval",
                                "--resolution", "64", "--eps-q", eps,
                                "--out", out]) == 0
    capsys.readouterr()
    assert ordtop.cli.main(["dominate", *dirs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ("domination impossible: builds use different "
                            "quanta\n")
    assert captured.err == ""


def _edit_report(build_dir, edit):
    path = build_dir / "report.json"
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def test_dominate_rejects_an_edited_build(tmp_path):
    out = tmp_path / "build"
    assert run_cli("compactify", "--space", "half-open-interval",
                   "--resolution", "128",
                   "--out", str(out)).returncode == 0

    def flip_row_3(payload):
        rows = payload["relation_rows_hex"]
        rows[3] = format(int(rows[3], 16) ^ 1, "x")

    _edit_report(out, flip_row_3)
    proc = run_cli("dominate", str(out), str(out))
    assert proc.returncode == 2
    assert str(out) in proc.stderr
    assert "row 3" in proc.stderr


@pytest.mark.parametrize("value", (float("nan"), float("inf"), 0.0, True,
                                   1e-19))
def test_dominate_rejects_a_stored_bad_tolerance(tmp_path, capsys, value):
    out = tmp_path / "build"
    assert ordtop.cli.main(["compactify", "--space", "half-open-interval",
                            "--resolution", "64", "--out", str(out)]) == 0

    def set_eps_q(payload):
        payload["config"]["eps_q"] = value

    _edit_report(out, set_eps_q)
    capsys.readouterr()
    assert ordtop.cli.main(["dominate", str(out), str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad build directory:")
    assert "eps_q" in err


@pytest.mark.parametrize("key,value", (
    ("tail_depth", 2), ("tail_depth", 4.0), ("resolution", "64"),
    ("resolution", True), ("family", ["id"]), ("space", ["x"])))
def test_dominate_rejects_a_stored_bad_config(tmp_path, capsys, key, value):
    # each would otherwise end in a traceback from the rebuild
    out = tmp_path / "build"
    assert ordtop.cli.main(["compactify", "--space", "half-open-interval",
                            "--resolution", "64", "--out", str(out)]) == 0
    _edit_report(out, lambda payload: payload["config"].update({key: value}))
    capsys.readouterr()
    assert ordtop.cli.main(["dominate", str(out), str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad build directory:")
    assert key in err and repr(value) in err


def test_dominate_rejects_a_stored_family_naming_a_function_twice(
        tmp_path, capsys):
    out = tmp_path / "build"
    assert ordtop.cli.main(["compactify", "--space", "half-open-interval",
                            "--resolution", "64", "--out", str(out)]) == 0
    _edit_report(out, lambda payload: payload["config"].update(
        family="id,id"))
    capsys.readouterr()
    assert ordtop.cli.main(["dominate", str(out), str(out)]) == 2
    err = capsys.readouterr().err
    # the KeyError's message, not its quoted repr
    assert err == ("error: bad build directory: repeated function names "
                   "for half-open-interval: ['id']\n")


def test_dominate_rejects_a_stored_family_naming_no_function(tmp_path,
                                                             capsys):
    out = tmp_path / "build"
    assert ordtop.cli.main(["compactify", "--space", "half-open-interval",
                            "--resolution", "64", "--out", str(out)]) == 0
    _edit_report(out, lambda payload: payload["config"].update(family=","))
    capsys.readouterr()
    assert ordtop.cli.main(["dominate", str(out), str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: bad build directory: selector ',' names no function\n")


@pytest.mark.parametrize("edit", (
    lambda payload: [],
    lambda payload: {**payload, "config": 5},
    lambda payload: {**payload, "relation_rows_hex": 5},
    lambda payload: {**payload, "relation_rows_hex": None}),
    ids=("top-level-list", "config-int", "rows-int", "rows-null"))
def test_dominate_rejects_a_report_of_the_wrong_shape(tmp_path, capsys, edit):
    # each would otherwise end in a traceback and exit 1
    out = tmp_path / "build"
    assert ordtop.cli.main(["compactify", "--space", "half-open-interval",
                            "--resolution", "64", "--out", str(out)]) == 0
    path = out / "report.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    assert ordtop.cli.main(["dominate", str(out), str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: bad build directory:")


def test_dominate_accepts_builds_whose_config_has_a_seed(tmp_path):
    out = tmp_path / "build"
    assert run_cli("compactify", "--space", "half-open-interval",
                   "--resolution", "128",
                   "--out", str(out)).returncode == 0
    assert "seed" not in json.loads((out / "report.json").read_text())["config"]
    # build directories written before --seed was removed carry one
    _edit_report(out, lambda payload: payload["config"].update(seed=3))
    proc = run_cli("dominate", str(out), str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "dominates: PASS" in proc.stdout


@pytest.mark.parametrize("name", ["no-smallest", "nachbin-diagram",
                                  "one-point-suite", "misner"])
def test_demos_pass(name):
    proc = run_cli("demo", name)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
    assert "PASS" in proc.stdout


def test_demo_prints_the_no_smallest_story():
    proc = run_cli("demo", "no-smallest")
    assert "C-comp dominates Cminus-comp: PASS" in proc.stdout
    assert "C-comp dominates Cplus-comp: PASS" in proc.stdout
    assert "mutually non-dominating: PASS" in proc.stdout


def test_unknown_demo_is_usage_error():
    assert run_cli("demo", "wat").returncode == 2
