import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from anyonstat import cli, holo, suites
from anyonstat.suites import Report, SuiteConfig, run_suite


def run_cli(*args, env=None):
    """cli.main in this interpreter, with env added to os.environ and the
    streams captured; returns what a run of `python -m anyonstat` would."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_entry_point(*args, env=None):
    """A real `python -m anyonstat` process."""
    return subprocess.run([sys.executable, "-m", "anyonstat", *args], capture_output=True,
                          text=True, env={**os.environ, **(env or {})})


def test_json_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        r = run_cli("--suite", "pauli-lubanski", "--seed", "11",
                    "--format", "json", "--out", str(path))
        assert r.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_a_text_report_written_to_a_file_prints_only_where_it_went(tmp_path):
    path = tmp_path / "report.txt"
    r = run_cli("--suite", "pauli-lubanski", "--format", "text", "--out", str(path))
    assert r.returncode == 0
    assert r.stdout == f"report written to {path}\n"
    lines = path.read_text().splitlines()
    assert len(lines) == 4 and lines[-1] == "overall: PASS (3/3)"
    assert all(line.startswith("[PASS] pauli-lubanski/casimir-eigenvalue")
               for line in lines[:3])


def test_exit_code_contract(tmp_path):
    ok = run_cli("--suite", "pauli-lubanski")
    assert ok.returncode == 0
    broken = run_cli("--suite", "spinstat", "--spin", "0.25", "--grid", "3",
                     "--tol-pipeline", "1e-20")
    assert broken.returncode == 1
    bad_flag = run_cli("--suite", "nonsense")
    assert bad_flag.returncode == 2
    bad_mass = run_cli("--suite", "pauli-lubanski", "--mass", "-2")
    assert bad_mass.returncode == 2


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("seed = 3\nspins = 0.5, 0.25\nformat = json\n")
    r = run_cli("--suite", "pauli-lubanski", "--format", "text",
                env={"ANYONSTAT_CONFIG": str(cfg)})
    assert r.returncode == 0
    assert "PASS" in r.stdout  # the text flag overrode the file's json
    bad = tmp_path / "bad"
    bad.write_text("no equals sign here\n")
    r2 = run_cli("--suite", "pauli-lubanski", env={"ANYONSTAT_CONFIG": str(bad)})
    assert r2.returncode == 2


def test_json_config_file(tmp_path):
    # a real process: the entry point reads ANYONSTAT_CONFIG from its environment
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "spins": [0.5]}))
    r = run_entry_point("--suite", "pauli-lubanski", "--format", "json",
                        env={"ANYONSTAT_CONFIG": str(cfg)})
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["config"]["seed"] == 5


@pytest.mark.parametrize("data", [{"seed": 3.7}, {"grid": 2.9}, {"spins": [True]},
                                  {"seed": True}, {"tol_engine": False},
                                  {"multiplicities": [2.5]}, {"out": 5},
                                  {"format": None}, {"masses": ["1.0", None]},
                                  {"masses": [10 ** 400]}, {"seed": float("inf")},
                                  {"spins": []}, {"masses": []}, {"multiplicities": []},
                                  "spins=\n"])
def test_json_config_value_of_the_wrong_type_is_a_config_error(data, tmp_path):
    # {"seed": 3.7, "grid": 2.9, "spins": [true]} ran as seed 3, grid 2 and
    # spin 1.0: a bool is no number, and an int field takes no fraction; a
    # number too large for a float ended in an OverflowError traceback; an
    # empty list, in JSON or as key=value, passed a run that checked nothing
    cfg = tmp_path / "cfg.json"
    cfg.write_text(data if isinstance(data, str) else json.dumps(data))
    r = run_cli("--suite", "pauli-lubanski", env={"ANYONSTAT_CONFIG": str(cfg)})
    assert r.returncode == 2
    assert "config error" in r.stderr and r.stdout == ""


def test_json_config_null_out_writes_no_file(tmp_path, monkeypatch):
    # "out": null wrote the report to a file named None; it is the default
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": None, "seed": 3.0, "multiplicities": [2.0],
                               "spins": [1, "0.5"]}))
    r = run_cli("--suite", "pauli-lubanski", "--format", "json",
                env={"ANYONSTAT_CONFIG": str(cfg)})
    assert r.returncode == 0 and sorted(os.listdir(tmp_path)) == ["cfg.json"]
    config = json.loads(r.stdout)["config"]
    assert (config["seed"], config["multiplicities"], config["spins"]) == (3, [2], [1.0, 0.5])


def test_json_roundtrip_and_schema():
    report = run_suite("pauli-lubanski", SuiteConfig())
    text = cli.render_json(report)
    data = json.loads(text)
    assert set(data.keys()) == {"version", "config", "records"}
    for rec in data["records"]:
        assert set(rec.keys()) == {"suite", "anchor", "inputs", "residuals",
                                   "passed", "runtime_ms"}
        assert rec["runtime_ms"] is None  # reproducibility policy
    assert json.loads(cli.render_json(report)) == data


def test_empty_report_is_valid():
    empty = Report(version="1", config={}, records=[])
    data = json.loads(cli.render_json(empty))
    assert data["records"] == []
    assert empty.passed  # vacuous conjunction
    csv_text = cli.render_csv(empty)
    assert csv_text.splitlines()[0].startswith("suite,anchor")


def test_csv_one_row_per_record():
    report = run_suite("pauli-lubanski", SuiteConfig())
    rows = cli.render_csv(report).splitlines()
    assert len(rows) == 1 + len(report.records)


def test_text_includes_anchor():
    report = run_suite("pauli-lubanski", SuiteConfig())
    text = cli.render_text(report)
    assert "casimir-eigenvalue" in text
    assert "overall" in text


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        run_suite("nope", SuiteConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(tol_engine=-1.0)
    with pytest.raises(ValueError):
        SuiteConfig(masses=(0.0,))
    with pytest.raises(ValueError):
        SuiteConfig(spins=(float("nan"),))
    with pytest.raises(ValueError):
        SuiteConfig(seed=-1)
    with pytest.raises(ValueError):
        SuiteConfig(masses=(float("inf"),))
    with pytest.raises(ValueError):
        SuiteConfig(tol_pipeline=float("inf"))


@pytest.mark.parametrize("flags", [["--grid", "1"], ["--grid", "0"], ["--n", "0"]])
def test_degenerate_grid_or_multiplicity_is_a_config_error(flags):
    r = run_cli("--suite", "spinstat", "--spin", "0.5", *flags)
    assert r.returncode == 2
    assert "config error" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("flags", [["--suite", "group", "--seed", "-1"],
                                   ["--suite", "spinstat", "--spin", "0.5", "--mass", "inf"],
                                   ["--suite", "group", "--tol-engine", "inf"],
                                   ["--suite", "group", "--tol-boundary", "inf"],
                                   ["--suite", "group", "--tol-pipeline", "inf"]])
def test_negative_seed_or_infinite_mass_or_tolerance_is_a_config_error(flags):
    # a negative seed ended in a suite-error FAIL record, an infinite mass in
    # a RuntimeWarning, and an infinite tolerance turned its gate into a pass
    r = run_cli(*flags)
    assert r.returncode == 2
    assert "config error" in r.stderr and "Traceback" not in r.stderr
    assert r.stdout == ""


# flag -> (valid values, invalid values)
_FUZZ_FLAGS = {
    "--seed": (["0", "7", "26"], ["-1", "-30"]),
    "--mass": (["1.0", "0.5", "2.0"], ["0", "-1", "inf", "nan"]),
    "--spin": (["0", "0.25", "0.5", "-0.137"], ["inf", "nan"]),
    "--n": (["1", "2"], ["0", "-2"]),
    "--grid": (["2"], ["1", "0", "-3"]),
    "--tol-engine": (["1e-9", "1e-6"], ["0", "-1e-9", "inf", "nan"]),
    "--tol-boundary": (["1e-8", "1e-5"], ["0", "inf", "nan"]),
    "--tol-pipeline": (["1e-8", "1e-20"], ["-1e-8", "inf", "nan"]),
}


@settings(deadline=None, derandomize=True, max_examples=40)
@given(suite=st.sampled_from(["pauli-lubanski", "spinstat"]),
       chosen=st.fixed_dictionaries({}, optional={f: st.sampled_from(valid)
                                                  for f, (valid, _) in _FUZZ_FLAGS.items()}),
       bad=st.none() | st.sampled_from([(f, v) for f, (_, invalid) in _FUZZ_FLAGS.items()
                                        for v in invalid]))
def test_config_space_ends_in_a_config_error_or_a_report(suite, chosen, bad):
    # every input either exits 2 with a config error before any suite runs,
    # or ends as a report whose records pass or fail, never a traceback
    flags = {"--grid": "2", "--spin": "0.25"} if suite == "spinstat" else {}
    flags.update(chosen)
    if bad is not None:
        flags[bad[0]] = bad[1]
    # flag=value, because argparse reads a separate "-1e-8" as an option
    argv = ["--suite", suite, "--format", "json"] + [f"{f}={v}" for f, v in flags.items()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if bad is not None:
        assert code == 2
    if code == 2:
        assert "config error" in err.getvalue() and out.getvalue() == ""
        return
    assert code in (0, 1)
    records = json.loads(out.getvalue())["records"]
    assert records and all(r["anchor"] != "suite-error" for r in records)


def test_record_requires_a_tolerance_for_every_residual():
    assert suites._record("s", "a", {}, {"x": 0.1, "y": 0.2}, {"x": 1.0, "y": 0.3}).passed
    assert not suites._record("s", "a", {}, {"x": 0.1, "y": 0.2}, 0.15).passed
    with pytest.raises(KeyError):
        suites._record("s", "a", {}, {"x": 0.1, "y": 5.0}, {"x": 1.0})


# a non-default value for every SuiteConfig field: (file text, flag arguments, value)
_FIELD_SAMPLES = {
    "spins": ("0.5, 0.25", ["--spin", "0.5", "--spin", "0.25"], (0.5, 0.25)),
    "masses": ("2.0", ["--mass", "2.0"], (2.0,)),
    "multiplicities": ("3 1", ["--n", "3", "--n", "1"], (3, 1)),
    "seed": ("11", ["--seed", "11"], 11),
    "tol_engine": ("1e-7", ["--tol-engine", "1e-7"], 1e-7),
    "tol_boundary": ("2e-7", ["--tol-boundary", "2e-7"], 2e-7),
    "tol_pipeline": ("3e-7", ["--tol-pipeline", "3e-7"], 3e-7),
    "grid": ("4", ["--grid", "4"], 4),
    "out": ("r.json", ["--out", "r.json"], "r.json"),
    "format": ("json", ["--format", "json"], "json"),
}


def test_every_config_field_from_file_and_flag(tmp_path):
    assert set(_FIELD_SAMPLES) == {f.name for f in fields(SuiteConfig)}
    parser = cli._parser()
    no_flags = parser.parse_args([])
    for key, (text, flags, value) in _FIELD_SAMPLES.items():
        assert getattr(SuiteConfig(), key) != value
        cfg = tmp_path / key
        cfg.write_text(f"{key} = {text}\n")
        from_file = cli.build_config(cli._parse_config_file(str(cfg)), no_flags)
        from_flag = cli.build_config({}, parser.parse_args(flags))
        assert getattr(from_file, key) == value
        assert getattr(from_flag, key) == value


def _singular_ode_after(monkeypatch, passing: int):
    # the ODE route raises SingularDeterminant once `passing` calls have run
    calls, real = [], holo.ode_continue

    def ode_continue(*args, **kwargs):
        calls.append(None)
        if len(calls) > passing:
            raise holo.SingularDeterminant("h is singular along the shifted path too")
        return real(*args, **kwargs)

    monkeypatch.setattr(holo, "ode_continue", ode_continue)


@pytest.mark.parametrize("flags", [["--spin", "0.25", "--grid", "2", "--mass", "8"],
                                   ["--spin", "0.25", "--mass", "50"]])
def test_numerical_failure_is_a_fail_record(flags, monkeypatch):
    # a numerical exception in a pipeline is neither a traceback nor a config error
    _singular_ode_after(monkeypatch, 0)
    r = run_cli("--suite", "spinstat", "--format", "json", *flags)
    assert r.returncode == 1
    assert "Traceback" not in r.stderr and "config error" not in r.stderr
    (rec,) = json.loads(r.stdout)["records"]
    assert not rec["passed"]
    assert rec["inputs"]["error"].startswith("SingularDeterminant: ")


def test_a_failing_pipeline_leaves_the_other_records(monkeypatch):
    # the mass-1 pipeline walks its ODE route once, unshifted; the mass-8 one raises
    _singular_ode_after(monkeypatch, 1)
    report = run_suite("spinstat", SuiteConfig(spins=(0.25,), masses=(1.0, 8.0), grid=2))
    ok, failed = report.records
    assert ok.passed and "error" not in ok.inputs
    assert not failed.passed and failed.residuals == {}
    assert failed.inputs["mass"] == 8.0 and "SingularDeterminant" in failed.inputs["error"]


def test_an_exception_escaping_a_suite_is_a_fail_record(monkeypatch):
    def broken(config):
        raise ZeroDivisionError("division by zero")

    for name in suites.SUITE_NAMES:
        monkeypatch.setitem(suites._SUITE_FUNCS, name,
                            lambda config, name=name: [suites.Record(name, "ok", {}, {}, True)])
    monkeypatch.setitem(suites._SUITE_FUNCS, "cones", broken)
    report = run_suite("all", SuiteConfig())
    assert [(r.suite, r.anchor, r.passed, r.inputs) for r in report.records] == [
        (name, "ok", True, {}) if name != "cones" else
        ("cones", "suite-error", False, {"error": "ZeroDivisionError: division by zero"})
        for name in suites.SUITE_NAMES]


def test_a_suite_that_raises_after_yielding_is_one_fail_record(monkeypatch):
    def half(config):
        yield suites.Record("cones", "ok", {}, {}, True)
        raise ZeroDivisionError("division by zero")

    def key(r):
        return r.suite, r.anchor, r.inputs, r.residuals, r.passed

    config = SuiteConfig(spins=(0.25,), grid=2)
    want = run_suite("all", config).records
    monkeypatch.setitem(suites._SUITE_FUNCS, "cones", half)
    got = run_suite("all", config).records
    at = next(i for i, r in enumerate(want) if r.suite == "cones")
    kept = [key(r) for r in want if r.suite != "cones"]
    error = ("cones", "suite-error", {"error": "ZeroDivisionError: division by zero"}, {}, False)
    assert [key(r) for r in got] == kept[:at] + [error] + kept[at:]


def test_each_record_is_timed_on_its_own(monkeypatch):
    assert all(map(inspect.isgeneratorfunction, suites._SUITE_FUNCS.values()))

    def two(config):
        yield suites.Record("group", "first", {}, {}, True)
        yield suites.Record("group", "second", {}, {}, True)

    # the suite starts at 0 s and yields its records at 0.25 s and 1 s
    clock = iter([0.0, 0.25, 1.0])
    monkeypatch.setitem(suites._SUITE_FUNCS, "group", two)
    monkeypatch.setattr(suites.time, "perf_counter", lambda: next(clock))
    report = run_suite("group", SuiteConfig())
    assert [r.runtime_ms for r in report.records] == [250.0, 750.0]


@pytest.mark.parametrize("flags", [["--tol-pipeline", "-1e-8"], ["--mass", "-inf"],
                                   ["--tol-engine", "-2.5E-3"]])
def test_a_separate_negative_exponent_value_is_a_config_error(flags, capsys):
    # argparse reads only -1 / -0.5 style strings as negative numbers; the
    # separated form must reach the config checks like --flag=value does
    assert cli.main(["--suite", "pauli-lubanski", *flags]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "expected one argument" not in err
    assert cli.main(["--suite", "pauli-lubanski", "=".join(flags)]) == 2
    assert "config error" in capsys.readouterr().err


def test_uncastable_config_file_value_is_a_config_error(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("seed = seven\n")
    monkeypatch.setenv("ANYONSTAT_CONFIG", str(cfg))
    assert cli.main(["--suite", "pauli-lubanski"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["format", "missing-dir", "out-is-a-dir", "unwritable-dir",
                                  "empty"])
def test_bad_delivery_settings_are_config_errors_before_any_suite(case, tmp_path,
                                                                  monkeypatch, capsys):
    # a config-file format = xml was rejected only after every suite had run,
    # an out path in a missing directory ended in a FileNotFoundError, and an
    # empty one printed "report written to" with no report anywhere
    def no_suite(name, config):
        raise AssertionError("a suite ran before the delivery settings were checked")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    monkeypatch.delenv("ANYONSTAT_CONFIG", raising=False)
    argv = ["--suite", "pauli-lubanski"]
    if case == "format":
        cfg = tmp_path / "cfg"
        cfg.write_text("format = xml\n")
        monkeypatch.setenv("ANYONSTAT_CONFIG", str(cfg))
    else:
        out = {"missing-dir": tmp_path / "missing" / "x.json", "out-is-a-dir": tmp_path,
               "unwritable-dir": tmp_path / "x.json", "empty": ""}[case]
        argv += ["--out", str(out)]
    if case == "unwritable-dir":
        # a permission check cannot fail for root, so the answer is patched
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert "config error" in err and out == ""
