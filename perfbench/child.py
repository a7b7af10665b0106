"""One iteration of one workload in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD --size full --rho R --trace 0|1 [--spans PATH]

Prints one JSON object as its last line: the report document the gate
reads, and for in-process workloads the wall time, CPU time and peak RSS of
the workload calls.  With --trace 1 it installs the tracer first and adds
the per-layer metrics; spans go to PATH.  verify_all runs `cli.main` in
process here, which only the traced run uses; untraced verify_all is timed
as a real `python -m g2adjoint` subprocess by run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import spans
import workloads


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=workloads.NAMES)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--rho", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    import g2adjoint.cli  # noqa: F401  (imports every layer before timing)

    workloads.warm_up(args.workload, args.size)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    out = {}
    cpu0, start = _cpu_s(), time.perf_counter()
    try:
        if args.workload == "verify_all":
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                out["returncode"] = g2adjoint.cli.main(
                    workloads.verify_all_argv(args.size, args.rho)
                )
            payload = buffer.getvalue().encode()
            out["digest"] = hashlib.sha256(payload).hexdigest()
            doc = json.loads(payload)
        else:
            reports = workloads.run_orbits(args.size, args.rho)
    finally:
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
        if tracer is not None:
            tracer.uninstall()
    if args.workload != "verify_all":
        doc = {
            "suites": [r.to_dict() for r in reports],
            "passed": all(r.passed for r in reports),
        }
    out.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        doc=doc,
    )
    if tracer is not None:
        out["metrics"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
