"""Benchmark harness for g2adjoint.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Every iteration runs in a fresh child process.  With --trace 0 the
run measures set-up time, then repeats the workload until the next
iteration would pass S seconds (at least once), and reports medians of the
end-to-end metrics.  With --trace 1 it runs the workload once untraced and
once under the tracer, and reports the per-layer metrics plus the tracing
overhead (traced minus untraced wall time).  Each iteration's verdict goes
through the gate; failed checks and gate conditions are counted, and any
failure exits 1 after the result line.  The last stdout line is the JSON
result.  A checkout without src/g2adjoint exits 2 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 11
# the whole run, children included, ends within this many seconds
DEADLINE_S = 170.0
SETUP_CODE = "import g2adjoint.cli, g2adjoint.lfunc, g2adjoint.orbits"


class Runner:
    """Spawns and times children for one benchmark run."""

    def __init__(self, args):
        self.args = args
        self.rhos = []
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def spawn(self, cmd):
        """Run `cmd` to completion; returns (stdout, returncode, wall, rusage).

        The child is killed when the run's deadline passes.
        """
        stem = OUT / f"{self.args.workload}-{os.getpid()}"
        with open(f"{stem}.stdout", "wb") as out, open(f"{stem}.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = Path(f"{stem}.stdout").read_bytes()
        stderr = Path(f"{stem}.stderr").read_text(errors="replace")
        os.remove(f"{stem}.stdout")
        os.remove(f"{stem}.stderr")
        if proc.returncode not in (0, 1):
            self.notes.append(f"child exited {proc.returncode}: {stderr[-2000:]}")
        return stdout, proc.returncode, wall, usage

    def setup_s(self):
        """Median time for a fresh interpreter to import the package."""
        cmd = [sys.executable, "-c", SETUP_CODE]
        times = []
        for i in range(SETUP_SAMPLES + 1):
            _, code, wall, _ = self.spawn(cmd)
            if code != 0:
                raise SystemExit(f"importing g2adjoint failed (exit {code})")
            if i:  # the first import may compile bytecode
                times.append(wall)
        return statistics.median(times)

    def _count(self, doc, rho, returncode=None, digest=None):
        w, size = self.args.workload, self.args.size
        conditions, failures, checks, failed_checks = gate.gate(
            doc,
            triple=w == "verify_all",
            orbit_q=workloads.orbit_q(w, size),
            returncode=returncode,
            digest=digest,
            expected_digest=gate.VERIFY_ALL_DIGESTS.get((size, rho))
            if w == "verify_all" else None,
        )
        self.attempted += checks + len(conditions)
        self.failed += failed_checks + len(failures)
        if failures or failed_checks:
            self.notes.append(
                f"gate failed: {failures}, {failed_checks} failed checks"
            )

    def _crashed(self, why):
        self.attempted += workloads.CHECKS[self.args.workload] + 1
        self.failed += workloads.CHECKS[self.args.workload] + 1
        self.notes.append(f"workload crashed: {why}")

    def iteration(self, index, traced=False):
        """One child running the workload; returns (sample, per-layer metrics)."""
        a = self.args
        rho = workloads.choose_rho(a.workload, a.size, a.seed, index)
        self.rhos.append(rho)
        if a.workload == "verify_all" and not traced:
            cmd = [sys.executable, "-m", "g2adjoint",
                   *workloads.verify_all_argv(a.size, rho)]
        else:
            cmd = [sys.executable, str(HERE / "child.py"), a.workload,
                   "--size", a.size, "--trace", str(int(traced)),
                   "--rho", str(rho),
                   "--spans", str(OUT / f"spans-{a.workload}-seed{a.seed}.jsonl")]
        stdout, code, wall, usage = self.spawn(cmd)
        sample = {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
        metrics = None
        if a.workload == "verify_all" and not traced:
            try:
                doc = json.loads(stdout)
            except ValueError:
                self._crashed(f"exit {code}, no JSON report")
            else:
                self._count(doc, rho, code, hashlib.sha256(stdout).hexdigest())
            return sample, metrics
        try:
            result = json.loads(stdout.splitlines()[-1]) if code == 0 else None
        except (ValueError, IndexError):
            result = None
        if result is None:
            self._crashed(f"child exit {code}")
            return sample, metrics
        if a.workload == "verify_all":
            self._count(result["doc"], rho, result["returncode"], result["digest"])
        else:
            # in process: time the workload calls, not interpreter start-up
            sample = {k: result[k] for k in sample}
            self._count(result["doc"], rho)
        return sample, result.get("metrics")

    def measure(self):
        a = self.args
        if a.trace:
            untraced, _ = self.iteration(0)
            traced, metrics = self.iteration(0, traced=True)
            metrics = dict(metrics or {name: 0 for name in spans.PER_LAYER})
            metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
            self.notes.append(
                f"wall untraced {untraced['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s"
            )
            return {name: (metrics[name], unit) for name, unit in spans.PER_LAYER.items()}
        setup = self.setup_s()
        samples = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            sample, _ = self.iteration(len(samples))
            samples.append(sample)
            now = time.perf_counter()
            # stop before an iteration as long as the last would pass the limit
            if now - start + (now - began) > a.seconds or (
                time.monotonic() + (now - began) > self.deadline
            ):
                break
        self.notes.append(
            "wall samples: " + ", ".join(f"{s['wall_s']:.3f}" for s in samples)
        )

        def median(key):
            return statistics.median(s[key] for s in samples)

        return {
            "setup_s": (setup, "s"),
            "wall_s": (median("wall_s"), "s"),
            "cpu_s": (median("cpu_s"), "s"),
            "peak_rss_mb": (median("peak_rss_mb"), "MB"),
            "check_pass_ratio": (1 - self.failed / self.attempted, "ratio"),
        }


def machine():
    import numpy

    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, {platform.machine()}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny: inputs for the self-tests; roadmap: verify_all "
                        "at the default degree 12 (default full)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "g2adjoint" / "__init__.py").is_file():
        print(f"no g2adjoint source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(args)
    metrics = runner.measure()
    print(f"workload {args.workload} (size {args.size}), seed {args.seed}, "
          f"rho {runner.rhos}; {machine()}")
    for note in runner.notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
