"""Structured pass/fail reports and the ledger of computationally
resolved discrepancies in the displayed formulas."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # "pass" | "fail" | "info"
    detail: str = ""
    counterexample: str | None = None

    def to_dict(self):
        out = {"name": self.name, "status": self.status, "detail": self.detail}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass(frozen=True)
class TypoNote:
    """One displayed formula whose printed form is overridden by computation."""

    display: str
    printed: str
    computed: str

    def to_dict(self):
        return asdict(self)


# Every discrepancy that the suites resolve by exact computation, keyed for
# de-duplication when suites are aggregated.
TYPOS = {
    "J-antidiagonal": TypoNote(
        display="the bilinear form J",
        printed="J rendered as the identity matrix",
        computed=(
            "J is the anti-diagonal identity: the secondary transpose is "
            "described as reflection across the upper-right/lower-left "
            "diagonal, the Borel is upper triangular, and <v_rho, v_rho> = "
            "2*rho only holds anti-diagonally; the so8 and derivation "
            "identities of the Lie suite pass only for this reading"
        ),
    ),
    "norm-formula": TypoNote(
        display="the 8x8 torus matrix, N := a^2 - b*rho^2",
        printed="N := a^2 - b*rho^2",
        computed=(
            "N = a^2 - b^2*rho (the norm of a + b*sqrt(rho)); only this "
            "makes the torus matrix have determinant 1 and fix v_rho"
        ),
    ),
    "case1-k-sign": TypoNote(
        display="the first Iwasawa factorization (|b*rho| <= |a|), third factor",
        printed="lower-triangular factor with parameter +b*rho/a",
        computed=(
            "the compact factor is the one-parameter element at -alpha1 with "
            "parameter -b*rho/a (the printed matrix is its inverse); with "
            "the printed sign the product u't'k' differs from the torus "
            "matrix already in entry (2,1)"
        ),
    ),
    "case2-blank": TypoNote(
        display="the second Iwasawa factorization (|b*rho| > |a|)",
        printed="first and third factors left blank",
        computed=(
            "u' = x_alpha1(-a/(b*rho)) and k' = n_alpha1(1) * "
            "x_alpha1(-a/(b*rho)); the product reproduces the torus matrix "
            "identically and k' has entries polynomial in a/(b*rho)"
        ),
    ),
    "adjoint-3x3": TypoNote(
        display="the space carrying the eight-dimensional representation",
        printed="3x4 traceless matrices",
        computed="3x3 traceless matrices (an eight-dimensional space forces 3x3)",
    ),
    "gl3-class": TypoNote(
        display="the Satake conjugacy class of the local representation",
        printed="conjugacy class of GL2(C)",
        computed="conjugacy class of GL3(C) (the dual group at hand)",
    ),
    "eigenspace-duplication": TypoNote(
        display="the Frobenius eigenspace decomposition in the non-split case",
        printed="the '5 dimensional +1 eigenspace' sentence appears twice",
        computed=(
            "the second occurrence describes the 3-dimensional -1 eigenspace, "
            "on which diag(mu,1,mu^-1) acts with eigenvalues mu, 1, mu^-1"
        ),
    ),
    "zeta-triple": TypoNote(
        display="the normalizing zeta factors of the unramified integral",
        printed="zeta(3s) zeta(6s-2) zeta(3s-9)",
        computed=(
            "zeta(3s) zeta(6s-2) zeta(9s-3): with zeta(9s-3) both the split "
            "and non-split sums match the L-factor identically to degree 12, "
            "while zeta(3s-9) already fails at the x^1 coefficient"
        ),
    ),
    "TM-exponent": TypoNote(
        display="the non-split generating identity, rightmost sum",
        printed="... (1-X^(m+1))/(1-X) * T^M",
        computed="the exponent is m (the summation index): T^m",
    ),
    "delta-B-sign": TypoNote(
        display="the modulus character value delta_B^(-1/2)(t)",
        printed="delta_B^(-1/2)(t) = |N|^(-1)",
        computed=(
            "delta_B^(-1/2)(t) = |N| = q^(-m1-m2); under v(N) = m1 + m2 the "
            "printed inverse contradicts the split-case display "
            "q^(-m1-m2), which is the value the final sum consumes"
        ),
    ),
}


@dataclass
class VerificationReport:
    """Pass/fail record for one named suite."""

    suite: str
    parameters: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    typo_keys: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def check(self, name, ok, detail="", counterexample=None):
        # a truthy non-bool (an array, a mismatch string, a nonzero
        # polynomial) must not record a PASS
        if type(ok) is not bool:
            raise TypeError(
                f"check {name!r}: ok must be a bool, not {type(ok).__name__}"
            )
        status = "pass" if ok else "fail"
        self.checks.append(Check(name, status, detail, counterexample))
        return ok

    def info(self, name, detail=""):
        self.checks.append(Check(name, "info", detail))

    def note_typo(self, key):
        if key not in TYPOS:
            raise KeyError(key)
        if key not in self.typo_keys:
            self.typo_keys.append(key)

    @property
    def passed(self):
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self):
        out = {
            "suite": self.suite,
            "parameters": self.parameters,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "typo_ledger": [TYPOS[k].to_dict() for k in self.typo_keys],
        }
        if self.extras:
            out["extras"] = self.extras
        return out

    def to_text(self):
        lines = [f"suite: {self.suite}"]
        if self.parameters:
            params = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
            lines.append(f"parameters: {params}")
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "info": "info"}[c.status]
            line = f"  [{mark}] {c.name}"
            if c.detail:
                line += f": {c.detail}"
            lines.append(line)
            if c.counterexample:
                lines.append(f"         counterexample: {c.counterexample}")
        # the extras are matrices of entry strings
        for name, rows in self.extras.items():
            lines.append(f"  {name}:")
            lines.extend("    [" + ", ".join(row) + "]" for row in rows)
        for key in self.typo_keys:
            note = TYPOS[key]
            lines.append(f"  [typo] {note.display}")
            lines.append(f"         printed:  {note.printed}")
            lines.append(f"         computed: {note.computed}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def merge_reports(suite, parameters, labeled_reports):
    """Flatten several reports into one, prefixing check names."""
    merged = VerificationReport(suite, parameters)
    for label, r in labeled_reports:
        for c in r.checks:
            name = f"{label}/{c.name}"
            merged.checks.append(Check(name, c.status, c.detail, c.counterexample))
        for key in r.typo_keys:
            merged.note_typo(key)
        for key, value in r.extras.items():
            merged.extras[f"{label}/{key}"] = value
    return merged


def reports_to_json(reports, timestamp=None):
    """Aggregate several suite reports into one stable JSON document."""
    seen = dict.fromkeys(k for r in reports for k in r.typo_keys)
    doc = {
        "suites": [r.to_dict() for r in reports],
        "typo_ledger": [TYPOS[k].to_dict() for k in seen],
        "passed": all(r.passed for r in reports),
    }
    if timestamp is not None:
        doc["timestamp"] = timestamp
    return json.dumps(doc, indent=2)
