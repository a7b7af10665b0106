"""Correctness gate: checks a workload's verdict from its JSON report.

The gate reads the same document shape that `g2adjoint verify ... --format
json` prints (`{"suites": [...], "passed": ...}`) and returns the gate
conditions it tested and the ones that failed.  It imports nothing from
g2adjoint, so it also judges a program that no longer runs.
"""

from __future__ import annotations

import re

WINNING_TRIPLE = "{3s, 6s-2, 9s-3}"

# sha256 of `verify all --format json --no-timestamp --degree D --rho R` at
# each size (workloads.py gives D), recorded from the seed code; the output
# must stay byte-identical.
VERIFY_ALL_DIGESTS = {
    ("full", 1): "5d81df0e75c39aa6a61b3a77e70bd2e47cb23c094933340239b220cff919ce96",
    ("full", 2): "a19cf76aec00b4078bf1db053753bbb730f8625053310274ab6e32317704b14a",
    ("full", 3): "c4039af6444dffd0bdf8b069287625b12c2311c23f144e5d6557cc4968697045",
    ("full", 4): "991e187a9a5dde33bcae46c59e80812bacb02adc2d7c1e2d1585280b8f97ac4a",
    ("tiny", 1): "c43b962ead21002ce1cdba2ae08162c6571af584f88fec642a13669162039c83",
    ("tiny", 2): "7ac884ac4bfbb1cc8ed12d97055afb4403e2ad012e9f774c9fc4ec01f842314f",
    ("tiny", 3): "d803fa6b5709f34762cf5a78c80577d029db9ff768dbb96c4418fbcbe8abaecd",
    ("tiny", 4): "f7acc49d5c2cf79670f45ce5b4e7f533b50123e7025e608613bd7408f7187839",
    ("roadmap", 1): "744d5179870df0ad4491cfa03314b449dcfa0bdce55a464ae7f6510a7c741f09",
    ("roadmap", 2): "f763212d775f270e3f79bc3ff163d6dd82c2d2338ad60745add24a993d8e7999",
    ("roadmap", 3): "96e9616719902c9c13a0a6d13a5490af3fe1246ec856935c8d966a6b89a523fa",
    ("roadmap", 4): "745caf6c652a578a51d8c0608461655e0830793b4b39a85b801f7f44a12b7158",
}

_SIZE = re.compile(r"orbit size (\d+) equals")


def is_square_mod(rho, q):
    return pow(rho % q, (q - 1) // 2, q) == 1


def _all_checks(doc):
    return [c for suite in doc.get("suites", []) for c in suite.get("checks", [])]


def gate(doc, *, triple=False, orbit_q=None, returncode=None, digest=None,
         expected_digest=None):
    """Return (conditions, failures, checks, failed_checks) for one report.

    `conditions` names every gate condition tested and `failures` the ones
    that did not hold; `checks` and `failed_checks` count the report's own
    checks and those with status "fail".
    """
    checks = _all_checks(doc)
    failed_checks = sum(c.get("status") == "fail" for c in checks)
    tests = {
        "report-passed": doc.get("passed") is True,
        "no-failed-check": failed_checks == 0 and bool(checks),
    }
    if triple:
        winners = [
            c for c in checks
            if c["name"].endswith(f"integral-equals-L-over-zeta-{WINNING_TRIPLE}")
        ]
        infos = [c for c in checks if c["name"].endswith("winning-triple")]
        tests["winning-triple"] = (
            bool(winners)
            and all(c["status"] == "pass" for c in winners)
            and len(infos) == len(winners)
            and all(c["detail"].startswith(WINNING_TRIPLE) for c in infos)
        )
    if orbit_q is not None:
        q = orbit_q
        suites = [s for s in doc.get("suites", []) if s.get("suite") == "orbits"]
        sizes = []
        for suite in suites:
            for c in suite.get("checks", []):
                if not c["name"].endswith("orbit-equals-sphere"):
                    continue
                rho = re.match(r"rho=(\d+)", c["name"])
                found = _SIZE.search(c["detail"])
                if rho is None or found is None:
                    sizes.append(False)
                    continue
                square = is_square_mod(int(rho.group(1)), q)
                sizes.append(int(found.group(1)) == q ** 3 * (q ** 3 + (1 if square else -1)))
        # verify_orbits always runs both quadratic classes
        tests["orbit-sizes"] = len(sizes) == 2 * len(suites) > 0 and all(sizes)
    if returncode is not None:
        tests["exit-0"] = returncode == 0
    if expected_digest is not None:
        tests["json-digest"] = digest == expected_digest
    failures = [name for name, ok in tests.items() if not ok]
    return list(tests), failures, len(checks), failed_checks
