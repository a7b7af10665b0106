"""Batch verification runner.

Subcommands (all under `verify`): lie, iwasawa, identities, lfactor,
integral, orbits, all.  Output is human-readable text or a stable JSON
document; exit code 0 when every check passes, 1 on any failure, 2 on
usage errors and invalid values.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import g2model, lfunc, orbits
from .report import merge_reports, reports_to_json

DEFAULT_DEGREE = 12
DEFAULT_Q = 5
DEFAULT_RHO = 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="g2adjoint",
        description="Exact verification of the G2/SU(2,1) matrix models and "
        "the unramified adjoint L-factor identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification suite")
    suites = verify.add_subparsers(dest="suite", required=True)

    def common(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format (default: text)",
        )
        p.add_argument("--out", metavar="PATH", help="write the report to PATH")
        p.add_argument(
            "--no-timestamp", action="store_true",
            help="omit the timestamp field from JSON output",
        )
        # invalid values are reported with this suite's usage line
        p.set_defaults(usage_error=p.error)

    def degree(p):
        p.add_argument("--degree", type=int, default=DEFAULT_DEGREE,
                       help=f"truncation degree (default {DEFAULT_DEGREE})")

    def case(p):
        p.add_argument("--case", choices=("split", "nonsplit", "both"),
                       default="both",
                       help="split or non-split case (default both)")

    def field(p):
        p.add_argument("--q", type=int, default=DEFAULT_Q,
                       help=f"residue characteristic (default {DEFAULT_Q})")
        p.add_argument("--rho", type=int, default=DEFAULT_RHO,
                       help=f"the unit rho mod q (default {DEFAULT_RHO})")

    for name, help_text, flags in (
        ("lie", "Lie-algebra model identities", ()),
        ("iwasawa", "torus element and both Iwasawa factorizations (prints "
         "the derived factors)", ()),
        ("identities", "the three power-series identities", (degree,)),
        ("lfactor", "local L-factor determinant forms", (case,)),
        ("integral", "inner integral and the end-to-end unramified identity "
         "(reports the winning zeta triple)", (case, degree)),
        ("orbits", "finite-field double-coset analogue", (field,)),
        ("all", "every suite", (degree, field)),
    ):
        p = suites.add_parser(name, help=help_text)
        for flag in flags + (common,):
            flag(p)
    # `all` has no --case flag; it runs both cases
    suites.choices["all"].set_defaults(case="both")
    return parser


def _check_values(args):
    """Reject values no suite can run with, as usage errors (exit 2)."""
    if getattr(args, "degree", 1) < 1:
        args.usage_error("--degree must be at least 1")
    # the report is written after every suite has run, so an unwritable
    # path is refused first
    if args.out is not None:
        parent = os.path.dirname(os.path.abspath(args.out))
        if os.path.isdir(args.out) or not os.access(parent, os.W_OK):
            args.usage_error(f"--out {args.out}: cannot write a file there")
    if hasattr(args, "q"):
        try:
            orbits._validate(args.q, args.rho)
        except ValueError as exc:
            args.usage_error(f"--q {args.q} --rho {args.rho}: {exc}")


def _by_case(suite, case, verify, **parameters):
    """verify(case), or for case "both" the split and non-split reports
    merged under `suite`."""
    if case != "both":
        return verify(case)
    return merge_reports(
        suite,
        {"case": case, **parameters},
        [(c, verify(c)) for c in ("split", "nonsplit")],
    )


# Every suite in report order; `all` runs each of them.  The entries look
# their functions up on the module at call time, so patching a module
# attribute takes effect.
SUITES = {
    "lie": lambda args: g2model.verify_lie_models(),
    "iwasawa": lambda args: g2model.verify_iwasawa(),
    "identities": lambda args: lfunc.verify_identities(args.degree),
    "lfactor": lambda args: _by_case(
        "lfactor", args.case, lfunc.verify_lfactor
    ),
    "integral": lambda args: _by_case(
        "integral", args.case, lambda c: lfunc.verify_integral(c, args.degree),
        degree=args.degree,
    ),
    "orbits": lambda args: orbits.verify_orbits(args.q, args.rho),
}


def run(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = [SUITES[name](args) for name in names]

    if args.format == "json":
        timestamp = None if args.no_timestamp else time.strftime(
            "%Y-%m-%dT%H:%M:%S", time.gmtime()
        )
        payload = reports_to_json(reports, timestamp=timestamp) + "\n"
    else:
        blocks = [r.to_text() for r in reports]
        overall = all(r.passed for r in reports)
        blocks.append(f"overall: {'PASS' if overall else 'FAIL'}")
        payload = "\n\n".join(blocks) + "\n"

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    _check_values(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
