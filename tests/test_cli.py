"""CLI behavior: subcommands, exit codes, output formats, determinism."""

import hashlib
import json
import re

import pytest

from g2adjoint.cli import DEFAULT_DEGREE, DEFAULT_Q, DEFAULT_RHO, main


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
        ["verify", "orbits", "--q", "4"],
        ["verify", "orbits", "--q", "3"],
        ["verify", "orbits", "--rho", "0"],
        ["verify", "orbits", "--q", "23"],
        ["verify", "all", "--q", "7", "--rho", "14"],
        ["verify", "lie", "--out", "/nonexistent/dir/x.json"],
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
    "rho, digest",
    [
        (1, "5d81df0e75c39aa6a61b3a77e70bd2e47cb23c094933340239b220cff919ce96"),
        (3, "c4039af6444dffd0bdf8b069287625b12c2311c23f144e5d6557cc4968697045"),
        (4, "991e187a9a5dde33bcae46c59e80812bacb02adc2d7c1e2d1585280b8f97ac4a"),
    ],
    ids=["1", "3", "4"],
)
def test_verify_all_digest_other_rhos(capsys, rho, digest):
    # both quadratic classes at q = 5, byte for byte: the sha256 values are
    # perfbench/gate.py's VERIFY_ALL_DIGESTS[("full", rho)]
    assert main(
        ["verify", "all", "--degree", "6", "--rho", str(rho), "--format",
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
