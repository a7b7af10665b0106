"""CLI behavior: subcommands, exit codes, output formats, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from g2adjoint import cli
from g2adjoint.algebra import RingMatrix
from g2adjoint.cli import DEFAULT_DEGREE, DEFAULT_Q, DEFAULT_RHO, main


SRC = Path(__file__).resolve().parents[1] / "src"
# the variables OpenBLAS reads its thread count from
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fresh_python(*args, **env):
    """Run a fresh interpreter on the package in ./src, with none of the
    BLAS thread variables set beyond those in `env`.  This process may
    already carry them: importing `cli` sets one."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return subprocess.run(
        [sys.executable, *args], env={**base, "PYTHONPATH": str(SRC), **env},
        capture_output=True, text=True, timeout=120,
    )


# importing cli alone does not load numpy; importing orbits after it does,
# with the thread count cli has set
THREADS_AFTER_IMPORT = """
import os, sys
import g2adjoint.cli
import g2adjoint.orbits
assert "numpy" in sys.modules
tasks = "/proc/self/task"
print(os.environ.get("OPENBLAS_NUM_THREADS"))
print(len(os.listdir(tasks)) if os.path.isdir(tasks) else "")
"""


def test_cli_loads_numpy_with_one_blas_thread():
    proc = fresh_python("-c", THREADS_AFTER_IMPORT)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.splitlines()
    assert value == "1"
    # no OpenBLAS worker beside the main thread
    assert threads in ("1", "")


def test_cli_keeps_a_preset_blas_thread_count():
    proc = fresh_python("-c", THREADS_AFTER_IMPORT, OPENBLAS_NUM_THREADS="3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "3"


# runs cli.main on the arguments after -c; prints whether numpy was loaded
# after the import and after the run, and the exit code
MAIN_IN_FRESH = """
import contextlib, io, sys
from g2adjoint.cli import main
print("numpy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, code, loads_numpy",
    [
        (["verify", "lie"], 0, False),
        (["verify", "iwasawa"], 0, False),
        (["verify", "identities", "--degree", "2"], 0, False),
        (["verify", "lfactor"], 0, False),
        (["verify", "integral", "--degree", "2"], 0, False),
        # the field rules refuse --q 9 before any suite, without numpy
        (["verify", "all", "--q", "9"], 2, False),
        (["verify", "orbits", "--q", "5"], 0, True),
    ],
    ids=lambda value: " ".join(value[1:]) if isinstance(value, list) else None,
)
def test_only_the_orbit_suite_loads_numpy(argv, code, loads_numpy):
    proc = fresh_python("-c", MAIN_IN_FRESH, *argv)
    assert proc.stdout == f"False\n{code} {loads_numpy}\n", proc.stderr


# cli.main with numpy hidden: a None entry in sys.modules makes both
# `import numpy` and importlib.util.find_spec("numpy") fail as if it were
# not installed
MAIN_WITHOUT_NUMPY = """
import contextlib, io, sys
sys.modules["numpy"] = None
from g2adjoint import cli
ran = []
for name, suite in cli.SUITES.items():
    cli.SUITES[name] = lambda args, name=name, suite=suite: (
        ran.append(name) or suite(args)
    )
try:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, ran)
"""


@pytest.mark.parametrize("suite", ["orbits", "all"])
def test_a_missing_numpy_is_a_usage_error(suite):
    # refused before any suite runs, with one line that names numpy
    proc = fresh_python("-c", MAIN_WITHOUT_NUMPY, "verify", suite)
    assert proc.stdout == "2 []\n", proc.stderr
    assert proc.stderr.startswith(f"usage: g2adjoint verify {suite} ")
    assert proc.stderr.splitlines()[-1].endswith(
        "error: the orbit suite needs numpy, which is not installed"
    )
    # a suite that does not need numpy still runs
    proc = fresh_python("-c", MAIN_WITHOUT_NUMPY, "verify", "lie")
    assert proc.stdout == "0 ['lie']\n", proc.stderr


def test_the_package_never_loads_fractions():
    # the exact kernel works over the integers
    proc = fresh_python(
        "-c",
        "import sys, g2adjoint.cli, g2adjoint.lfunc, g2adjoint.orbits; "
        "print('fractions' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_module_entry_point():
    proc = fresh_python("-m", "g2adjoint", "verify", "lie")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip("\n").endswith("overall: PASS")
    proc = fresh_python("-m", "g2adjoint", "verify", "orbits", "--q", "9")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "is not prime" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_lie_text(capsys):
    assert main(["verify", "lie"]) == 0
    out = capsys.readouterr().out
    assert "suite: lie" in out
    assert "overall: PASS" in out


def test_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["verify", "bogus"])
    assert err.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["verify", "lie", "--frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--degree", "-1"],
        ["verify", "identities", "--degree", "0"],
        ["verify", "integral", "--degree", "0"],
        ["verify", "all", "--degree", "57"],
        ["verify", "identities", "--degree", str(10 ** 12)],
        ["verify", "orbits", "--q", "4"],
        ["verify", "orbits", "--q", "3"],
        ["verify", "orbits", "--rho", "0"],
        ["verify", "orbits", "--q", "29"],
        ["verify", "all", "--q", "7", "--rho", "14"],
        ["verify", "lie", "--out", "/nonexistent/dir/x.json"],
        ["verify", "lie", "--out", ""],
    ],
    ids=lambda argv: " ".join(argv[1:]),
)
def test_invalid_value_exits_2(argv, capsys):
    # degree 0 would report FAIL: the spot values need the x^1 coefficient
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the usage line of the suite that was invoked, not the top-level one
    assert captured.err.startswith(f"usage: g2adjoint verify {argv[1]} ")


@pytest.mark.parametrize("suite", ["lfactor", "integral"])
def test_case_choices_come_from_the_case_table(suite, monkeypatch, capsys):
    from g2adjoint import lfunc

    argv = ["verify", suite, "--case", "ramified"]
    with pytest.raises(SystemExit) as err:
        cli.build_parser().parse_args(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: g2adjoint verify {suite} ")
    # a case added to lfunc.CASES is offered by --case
    monkeypatch.setitem(lfunc.CASES, "ramified", lfunc.CASES["split"])
    assert cli.build_parser().parse_args(argv).case == "ramified"


def test_degree_bound_is_checked_before_any_suite(monkeypatch):
    def no_suite(args):
        raise AssertionError("a suite started")

    monkeypatch.setattr(cli, "run", no_suite)
    with pytest.raises(SystemExit) as err:
        main(["verify", "all", "--degree", "57"])
    assert err.value.code == 2
    # 56 is the largest degree whose predicted series fits the cap
    cli._check_values(cli.build_parser().parse_args(
        ["verify", "all", "--degree", "56"]
    ))


def test_all_help_shows_each_default(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "all", "--help"])
    assert err.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for flag, default in (
        ("--degree", DEFAULT_DEGREE), ("--q", DEFAULT_Q), ("--rho", DEFAULT_RHO)
    ):
        assert re.search(rf"{flag} [A-Z]+ [a-z ]+\(default {default}\)", text), flag


def test_identities_degree_8_passes(capsys):
    assert main(["verify", "identities", "--degree", "8"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_json_document_shape(capsys):
    assert main(
        ["verify", "identities", "--degree", "4", "--format", "json",
         "--no-timestamp"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert [s["suite"] for s in doc["suites"]] == ["identities"]
    assert "timestamp" not in doc
    names = [c["name"] for s in doc["suites"] for c in s["checks"]]
    assert any(n.startswith("poincare/") for n in names)


def test_json_is_deterministic(capsys):
    args = ["verify", "identities", "--degree", "3", "--format", "json",
            "--no-timestamp"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_json_timestamp_present_by_default(capsys):
    assert main(["verify", "lie", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "timestamp" in doc


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(
        ["verify", "lfactor", "--case", "nonsplit", "--format", "json",
         "--no-timestamp", "--out", str(path)]
    ) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(path.read_text())
    assert doc["passed"] is True


def test_orbits_subcommand(capsys):
    assert main(
        ["verify", "orbits", "--q", "5", "--rho", "2", "--format", "json",
         "--no-timestamp"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for s in doc["suites"] for c in s["checks"]}
    key = "rho=2-non-square/exactly-two-parabolic-orbits"
    assert checks[key]["status"] == "pass"


@pytest.mark.parametrize(
    "rho, digest",
    [
        (2, "6177ee2336dc81c4b309e9523dc66ecfe523a7372f49521bfe16eb4712b9b016"),
        (3, "d5f37a908f5d53d1efa5013e72a97086ffff5a2d3928d50865c3bf0e45966162"),
    ],
)
def test_orbits_q7_document(capsys, rho, digest):
    # the q = 7 report of both classes, byte for byte: the sha256 values
    # were recorded from the code that built its generators and step
    # tables afresh for each class and each BFS
    assert main(
        ["verify", "orbits", "--q", "7", "--rho", str(rho), "--format", "json",
         "--no-timestamp"]
    ) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_iwasawa_emits_derived_factors(capsys):
    assert main(
        ["verify", "iwasawa", "--format", "json", "--no-timestamp"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    extras = doc["suites"][0]["extras"]
    for key in ("case2-u-prime", "case2-t-prime", "case2-k-prime"):
        rows = extras[key]
        assert len(rows) == 8 and all(len(r) == 8 for r in rows)
        assert all(isinstance(e, str) for r in rows for e in r)


def test_integral_reports_winning_triple(capsys):
    assert main(
        ["verify", "integral", "--case", "nonsplit", "--degree", "6"]
    ) == 0
    out = capsys.readouterr().out
    assert "{3s, 6s-2, 9s-3}" in out


def test_failing_check_exits_1(monkeypatch, capsys):
    from g2adjoint import cli
    from g2adjoint.report import VerificationReport

    def broken():
        r = VerificationReport("lie", {})
        r.check("forced-failure", False, "injected for the exit-code test")
        return r

    monkeypatch.setattr(cli.g2model, "verify_lie_models", broken)
    assert main(["verify", "lie"]) == 1
    assert "overall: FAIL" in capsys.readouterr().out


def counting(monkeypatch, module, name):
    """Wrap module.name so each call is counted; returns the call list."""
    original = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_both_cases_build_the_conjugation_rule_once(monkeypatch, capsys):
    # one evaluation of r(Fr) r(g) r(Fr) = r(_tg^-1) builds two matrices;
    # it does not depend on the case, so --case both builds them once
    from g2adjoint import lfunc

    calls = counting(monkeypatch, lfunc, "conjugation_adjugate_matrix")
    assert main(["verify", "lfactor", "--case", "both"]) == 0
    assert len(calls) == 2
    assert main(["verify", "lfactor", "--case", "split"]) == 0
    assert len(calls) == 4
    capsys.readouterr()


def test_both_cases_sum_the_inner_integral_shells_once(monkeypatch, capsys):
    # the shell check evaluates v(c) in [-3, 8] once for both cases, and
    # again in the next run
    from g2adjoint import lfunc

    calls = counting(monkeypatch, lfunc, "inner_integral_shell")
    argv = ["verify", "integral", "--case", "both", "--degree", "2"]
    assert main(argv) == 0
    assert len(calls) == 12
    assert sorted(vc for vc, in calls) == list(range(-3, 9))
    assert main(argv) == 0
    assert len(calls) == 24
    capsys.readouterr()


def case_status(argv, check, capsys):
    """{case: status} of `check` in the merged --case both report."""
    main([*argv, "--case", "both", "--format", "json", "--no-timestamp"])
    (suite,) = json.loads(capsys.readouterr().out)["suites"]
    status = {c["name"]: c["status"] for c in suite["checks"]}
    return {case: status[f"{case}/{check}"] for case in ("split", "nonsplit")}


def test_a_shared_check_sees_a_patch_on_the_next_run(monkeypatch, capsys):
    # the shared verdicts live for one run: a run after a patch, and one
    # after the patch is undone, each compute theirs afresh, and both case
    # blocks carry the verdict
    from g2adjoint import lfunc

    passing = {"split": "pass", "nonsplit": "pass"}
    failing = {"split": "fail", "nonsplit": "fail"}
    rule = (["verify", "lfactor"], "frobenius-conjugation-rule")
    shell = (["verify", "integral", "--degree", "2"],
             "inner-integral-shell-vs-closed-form")
    closed = lfunc.inner_integral_closed
    for (argv, check), attr, wrong in (
        (rule, "conjugation_adjugate_matrix", lambda g: RingMatrix.identity(8)),
        # only v(c) = 5 is wrong, so the unramified identity (v(c) = 0)
        # keeps passing and the shell check alone fails
        (shell, "inner_integral_closed",
         lambda vc: closed(vc) + (1 if vc == 5 else 0)),
    ):
        assert case_status(argv, check, capsys) == passing
        with monkeypatch.context() as patch:
            patch.setattr(lfunc, attr, wrong)
            assert case_status(argv, check, capsys) == failing
        assert case_status(argv, check, capsys) == passing


def test_verify_all_document(capsys):
    # reduced degree keeps this quick; the default degree is 12
    assert main(
        ["verify", "all", "--degree", "6", "--format", "json",
         "--no-timestamp"]
    ) == 0
    out = capsys.readouterr().out
    # the report recorded from the original code, byte for byte (it is
    # also perfbench/gate.py's VERIFY_ALL_DIGESTS[("full", 2)])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a19cf76aec00b4078bf1db053753bbb730f8625053310274ab6e32317704b14a"
    )
    doc = json.loads(out)
    assert [s["suite"] for s in doc["suites"]] == [
        "lie", "iwasawa", "identities", "lfactor", "integral", "orbits",
    ]
    assert doc["passed"] is True
    assert len(doc["typo_ledger"]) >= 5


@pytest.mark.parametrize(
    "degree, rho, digest",
    [
        (6, 1, "5d81df0e75c39aa6a61b3a77e70bd2e47cb23c094933340239b220cff919ce96"),
        (6, 3, "c4039af6444dffd0bdf8b069287625b12c2311c23f144e5d6557cc4968697045"),
        (6, 4, "991e187a9a5dde33bcae46c59e80812bacb02adc2d7c1e2d1585280b8f97ac4a"),
        (2, 1, "c43b962ead21002ce1cdba2ae08162c6571af584f88fec642a13669162039c83"),
        (2, 2, "7ac884ac4bfbb1cc8ed12d97055afb4403e2ad012e9f774c9fc4ec01f842314f"),
        (2, 3, "d803fa6b5709f34762cf5a78c80577d029db9ff768dbb96c4418fbcbe8abaecd"),
        (2, 4, "f7acc49d5c2cf79670f45ce5b4e7f533b50123e7025e608613bd7408f7187839"),
        (12, 1, "744d5179870df0ad4491cfa03314b449dcfa0bdce55a464ae7f6510a7c741f09"),
        (12, 3, "96e9616719902c9c13a0a6d13a5490af3fe1246ec856935c8d966a6b89a523fa"),
        (12, 4, "745caf6c652a578a51d8c0608461655e0830793b4b39a85b801f7f44a12b7158"),
    ],
    ids=["1", "3", "4", "tiny-1", "tiny-2", "tiny-3", "tiny-4",
         "roadmap-1", "roadmap-3", "roadmap-4"],
)
def test_verify_all_digest_other_rhos(capsys, degree, rho, digest):
    # both quadratic classes at q = 5, byte for byte: the sha256 values are
    # perfbench/gate.py's VERIFY_ALL_DIGESTS[("full", rho)] at degree 6,
    # [("tiny", rho)] at degree 2, where a drift in the lowest terms shows,
    # and [("roadmap", rho)] at the default degree 12
    assert main(
        ["verify", "all", "--degree", str(degree), "--rho", str(rho), "--format",
         "json", "--no-timestamp"]
    ) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_all_default_degree_document(capsys):
    # the default degree (12) and rho (2), byte for byte: the sha256 is
    # perfbench/gate.py's VERIFY_ALL_DIGESTS[("roadmap", 2)]
    assert main(["verify", "all", "--format", "json", "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f763212d775f270e3f79bc3ff163d6dd82c2d2338ad60745add24a993d8e7999"
    )
