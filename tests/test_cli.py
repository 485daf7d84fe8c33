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


def test_check_finite_budget_overflow_is_a_usage_error(tmp_path, monkeypatch,
                                                      capsys):
    # 12 discrete points, no order: 4^12 functions at --levels 3
    path = write_json(tmp_path / "a.json", {
        "n": 12, "basis": [[p] for p in range(12)], "relation": []})
    monkeypatch.setattr(ordtop.finite_space, "FUNCTION_BUDGET", 1000)
    assert ordtop.cli.main(["check-finite", path, "--levels", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: budget exceeded: more than 1000 isotone functions\n")
    # at --levels 1 the functions are the indicators of the 2^12 clopen
    # sets, one past this budget
    monkeypatch.setattr(ordtop.finite_space, "FUNCTION_BUDGET", 4095)
    assert ordtop.cli.main(["check-finite", path, "--levels", "1"]) == 2
    assert "more than 4095 isotone functions" in capsys.readouterr().err


def test_check_finite_default_budget_fails_fast(tmp_path, capsys):
    # 4^12 functions at --levels 3, the README's over-budget example
    path = write_json(tmp_path / "a.json", {
        "n": 12, "basis": [[p] for p in range(12)], "relation": []})
    assert ordtop.cli.main(["check-finite", path, "--levels", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: budget exceeded: more than 2000000 isotone functions\n")


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


@pytest.mark.parametrize("value", (float("nan"), float("inf"), 0.0))
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
