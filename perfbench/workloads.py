"""The benchmark workloads and the inputs each seed gives them.

Why these two (the one-line form is in BENCHMARK.json):

- verify_all: `python -m g2adjoint verify all --degree 6` as a subprocess
  at q=5, the run users make at half its default degree.  About half
  of its time is LaurentPoly add and mul, under `reps.schur_char` and
  `LaurentPoly.subs`, so a kernel rewrite, a subs fast path or a
  schur_char rewrite shows here; the orbit BFS at q=5 takes about a third.
- orbits_q7: `verify_orbits(7, rho)` in process, numpy BFS over p^8
  bitmaps.  It never touches LaurentPoly after set-up, so kernel and reps
  changes should leave it unchanged; minimal generators and sorted-key
  orbits show in wall_s and peak_rss_mb.

A third workload, the series identities at degree 32 in process, was
dropped: it is bound by copying polynomial dicts of thousands of terms,
and on a shared 2-vCPU machine its run medians spread by 22-29% (IQR over
median) in three sets of runs, against 11-21% for these two (verify_all
then at degree 12).

verify_all runs at degree 6, not the default 12: one run at degree 12
holds only two executions, and the medians of such runs spread by 21-28%
(IQR over median) against a largest allowed bound of 25%.  Degree 6
gives eleven to fourteen executions a run.  The size "roadmap" runs
degree 12, the user's default, for traced runs that reproduce the ROADMAP
baseline rows (poincare_oracle(10), the split proposition at degree 12).

The seed picks the first rho among the units mod q, and each further
iteration of a run takes the next unit, so a run's median spans several
values of rho (peak RSS of the orbit BFS depends on it by up to 10%).
verify_orbits adds a companion rho of the opposite quadratic class, so
both classes run for every rho.
"""

from __future__ import annotations

import random

NAMES = ("verify_all", "orbits_q7")
SIZES = ("full", "tiny", "roadmap")

# Checks in one report of each workload (the same at every size); a run
# that crashes counts all of them as failed.
CHECKS = {"verify_all": 71, "orbits_q7": 18}

_ALL_DEGREE = {"full": 6, "tiny": 2, "roadmap": 12}
_ORBIT_Q = {"full": 7, "tiny": 5, "roadmap": 7}


def orbit_q(workload, size):
    """The field size q of the workload's orbit suite."""
    return 5 if workload == "verify_all" else _ORBIT_Q[size]


def choose_rho(workload, size, seed, iteration=0):
    """rho for one iteration of a run: the units mod q in turn, starting
    from one the seed picks."""
    q = orbit_q(workload, size)
    start = random.Random(seed).randrange(q - 1)
    return 1 + (start + iteration) % (q - 1)


def verify_all_argv(size, rho):
    return [
        "verify", "all", "--format", "json", "--no-timestamp",
        "--degree", str(_ALL_DEGREE[size]), "--rho", str(rho),
    ]


def warm_up(workload, size):
    """Set-up a workload needs before timing starts.

    orbits caches the integer tables of the root exponentials on first use,
    built with LaurentPoly; building them here keeps the timed BFS free of
    kernel calls.
    """
    if workload == "orbits_q7":
        from g2adjoint import orbits

        orbits.group_generators(_ORBIT_Q[size], "full")


def run_orbits(size, rho):
    """Run orbits_q7 in process; returns its VerificationReports."""
    from g2adjoint import orbits

    return [orbits.verify_orbits(_ORBIT_Q[size], rho)]
