"""Report structure: statuses, aggregation, ledger de-duplication."""

import json

import numpy as np
import pytest

from g2adjoint.algebra import sym
from g2adjoint.report import (
    TYPOS,
    VerificationReport,
    merge_reports,
    reports_to_json,
)


def test_pass_fail_logic():
    r = VerificationReport("demo", {"n": 1})
    assert r.check("ok", True, "fine")
    assert r.passed
    r.info("note", "informational entries never fail a suite")
    assert r.passed
    r.check("broken", False, "boom", counterexample="entry (0, 0)")
    assert not r.passed
    statuses = [c.status for c in r.checks]
    assert statuses == ["pass", "info", "fail"]


@pytest.mark.parametrize(
    "ok",
    [
        "entry (0, 0) differs",
        sym("a"),
        np.array([True]),
    ],
    ids=["str", "LaurentPoly", "ndarray"],
)
def test_check_takes_only_a_bool(ok):
    # each of these is truthy, and would otherwise record a PASS
    r = VerificationReport("demo")
    with pytest.raises(TypeError, match="ok must be a bool"):
        r.check("truthy", ok)
    assert r.checks == []


def test_unknown_typo_key_rejected():
    r = VerificationReport("demo")
    with pytest.raises(KeyError):
        r.note_typo("not-a-ledger-key")


def test_typo_keys_deduplicate():
    r = VerificationReport("demo")
    r.note_typo("norm-formula")
    r.note_typo("norm-formula")
    assert r.typo_keys == ["norm-formula"]


def test_merge_prefixes_and_collects():
    r1 = VerificationReport("one")
    r1.check("a", True)
    r1.note_typo("norm-formula")
    r2 = VerificationReport("two")
    r2.check("b", False, counterexample="x")
    r2.note_typo("norm-formula")
    r2.note_typo("zeta-triple")
    merged = merge_reports("both", {}, [("one", r1), ("two", r2)])
    assert [c.name for c in merged.checks] == ["one/a", "two/b"]
    assert merged.typo_keys == ["norm-formula", "zeta-triple"]
    assert not merged.passed


def test_json_aggregation_shape():
    r = VerificationReport("demo", {"q": 5})
    r.check("a", True, "detail")
    r.note_typo("J-antidiagonal")
    doc = json.loads(reports_to_json([r], timestamp="t0"))
    assert doc["timestamp"] == "t0"
    assert doc["passed"] is True
    suite = doc["suites"][0]
    assert suite["parameters"] == {"q": 5}
    assert suite["typo_ledger"][0]["display"] == TYPOS["J-antidiagonal"].display
    assert doc["typo_ledger"] == suite["typo_ledger"]


def test_text_rendering_includes_counterexample():
    r = VerificationReport("demo")
    r.check("broken", False, "boom", counterexample="entry (1, 2)")
    text = r.to_text()
    assert "[FAIL] broken: boom" in text
    assert "counterexample: entry (1, 2)" in text
    assert text.endswith("result: FAIL")
