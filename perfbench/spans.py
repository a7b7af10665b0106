"""Spans and counters recorded around calls into g2adjoint.

Everything here patches the package from outside: `Tracer.install` wraps
kernel methods on their classes and public functions in every g2adjoint
module namespace that holds them, and `Tracer.uninstall` puts the
originals back.  Spans stay in memory until `write_spans` is called at the
end of the run.

`LaurentPoly` add and mul run about 175 000 times in one `verify all`, so
they keep counters only (calls, time, term counts) and record no span.  Every other
wrapped call records a span: id, name, start, end and parent id.  A
wrapper's own bookkeeping is charged to its parent's child time, so the
parent's self time does not absorb the tracing cost.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from fractions import Fraction

# Per-layer metric names, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "algebra.add.calls": "count",
    "algebra.add.self_s": "s",
    "algebra.add.terms_out": "count",
    "algebra.add.useful_ratio": "ratio",
    "algebra.mul.calls": "count",
    "algebra.mul.self_s": "s",
    "algebra.mul.term_products": "count",
    "algebra.subs.calls": "count",
    "algebra.subs.self_s": "s",
    "algebra.subs.s": "s",
    "algebra.series_inverse.calls": "count",
    "algebra.series_inverse.self_s": "s",
    "algebra.series_expand.self_s": "s",
    "algebra.det.calls": "count",
    "algebra.det.self_s": "s",
    "algebra.peak_terms": "count",
    "reps.schur_char.calls": "count",
    "reps.schur_char.self_s": "s",
    "reps.schur_char.s": "s",
    "reps.schur_char.repeat_ratio": "ratio",
    "reps.schur_expand.self_s": "s",
    "reps.sym_power_char.self_s": "s",
    "reps.sl2_char.self_s": "s",
    "lfunc.poincare_oracle.s": "s",
    "lfunc.unramified_lhs.self_s": "s",
    "lfunc.unramified_rhs.self_s": "s",
    "lfunc.split_identity_check.self_s": "s",
    "lfunc.nonsplit_identity_check.self_s": "s",
    "lfunc.l_factor_denominator.self_s": "s",
    "lfunc.proposition_check.split.s": "s",
    "lfunc.proposition_check.nonsplit.s": "s",
    "g2model.verify_lie_models.s": "s",
    "g2model.verify_iwasawa.s": "s",
    "orbits.orbit.calls": "count",
    "orbits.orbit.self_s": "s",
    "orbits.orbit.vectors": "count",
    "orbits.orbit.images": "count",
    "orbits.orbit.fresh_ratio": "ratio",
    "orbits.orbit.peak_alloc_mb": "MB",
    "orbits.generator_invariants_hold.self_s": "s",
    "orbits.group_generators.count": "count",
    "orbits.double_coset_check.s_per_call": "s",
    "report.reports_to_json.self_s": "s",
    "report.json_bytes": "count",
    "cli.run.s": "s",
    "trace.overhead_s": "s",
}

# Metrics that must repeat exactly from run to run of the same workload.
EXACT = [name for name, unit in PER_LAYER.items() if unit in ("count", "ratio")]


def _term_count(value):
    """Number of terms of a kernel operand (scalars count as one term)."""
    terms = getattr(value, "terms", None)
    if terms is not None:
        return len(terms)
    if isinstance(value, (int, Fraction)):
        return 1 if value else 0
    return 0


class _Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Records spans and counters for one traced run in one thread."""

    def __init__(self):
        self.stats = {}
        self.counts = {
            "add.terms_out": 0,
            "add.useful": 0,
            "mul.term_products": 0,
            "peak_terms": 0,
            "schur_char.repeats": 0,
            "orbit.vectors": 0,
            "orbit.images": 0,
            "orbit.peak_alloc": 0,
            "group_generators.count": 0,
            "json_bytes": 0,
        }
        self.spans = []
        # one [child seconds, span id] frame per open call; the root has id None
        self._stack = [[0.0, None]]
        self._next_id = 0
        self._undo = []
        self._schur_seen = set()

    def _stat(self, name):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        return stat

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name_of, after=None):
        """Wrap `fn` so each call records a span and updates its stat.

        `name_of` is the span name or a function of the call's arguments;
        `after(result, args, kwargs)` updates counters outside the timed
        interval.
        """
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of if isinstance(name_of, str) else name_of(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat = self._stat(name)
                stat.calls += 1
                stat.total_s += end - start
                stat.self_s += end - start - frame[0]
                spans.append((span_id, name, start, end, parent))
            if after is not None:
                after(result, args, kwargs)
            stack[-1][0] += clock() - start
            return result

        return wrapper

    def _counted(self, fn, name, count):
        """Wrap a leaf kernel method with counters only (no span)."""
        stack, clock, counts = self._stack, time.perf_counter, self.counts
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(a, b):
            start = clock()
            result = fn(a, b)
            end = clock()
            stat.calls += 1
            stat.total_s += end - start
            stat.self_s += end - start
            terms = getattr(result, "terms", None)
            if terms is not None:
                count(a, b, len(terms))
                if len(terms) > counts["peak_terms"]:
                    counts["peak_terms"] = len(terms)
            stack[-1][0] += clock() - start
            return result

        return wrapper

    # -- counters ----------------------------------------------------------

    def _count_add(self, a, b, out):
        self.counts["add.terms_out"] += out
        self.counts["add.useful"] += min(_term_count(a), _term_count(b))

    def _count_mul(self, a, b, out):
        self.counts["mul.term_products"] += _term_count(a) * _term_count(b)

    def _peak(self, result, args, kwargs):
        """Peak terms of a series built without LaurentPoly add or mul."""
        terms = len(result.poly.terms)
        if terms > self.counts["peak_terms"]:
            self.counts["peak_terms"] = terms

    def _schur_repeat(self, result, args, kwargs):
        key = (args, tuple(sorted(kwargs.items())))
        if key in self._schur_seen:
            self.counts["schur_char.repeats"] += 1
        else:
            self._schur_seen.add(key)

    def _orbit_counts(self, result, args, kwargs):
        gens = args[1] if len(args) > 1 else kwargs["gens"]
        self.counts["orbit.vectors"] += len(result)
        self.counts["orbit.images"] += len(gens) * len(result)

    def _generator_count(self, result, args, kwargs):
        self.counts["group_generators.count"] += len(result)

    def _json_bytes(self, result, args, kwargs):
        self.counts["json_bytes"] += len(result.encode())

    def _traced_orbit(self, fn):
        """orbit() under tracemalloc, which runs only inside the call."""

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                if peak > self.counts["orbit.peak_alloc"]:
                    self.counts["orbit.peak_alloc"] = peak

        return self._span(measured, "orbits.orbit", self._orbit_counts)

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, original, wrapper):
        """Replace `original` in every g2adjoint module that holds it."""
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "g2adjoint" and not name.startswith("g2adjoint."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self):
        from g2adjoint import algebra, cli, g2model, lfunc, orbits, report, reps

        poly = algebra.LaurentPoly
        for names, label, count in (
            (("__add__", "__radd__"), "algebra.add", self._count_add),
            (("__mul__", "__rmul__"), "algebra.mul", self._count_mul),
        ):
            wrapper = self._counted(getattr(poly, names[0]), label, count)
            for attr in names:
                self._patch(poly, attr, wrapper)
        self._patch(poly, "subs", self._span(poly.subs, "algebra.subs"))
        series = algebra.TruncatedSeries
        self._patch(
            series,
            "inverse",
            self._span(series.inverse, "algebra.series_inverse", self._peak),
        )
        matrix = algebra.RingMatrix
        self._patch(matrix, "det", self._span(matrix.det, "algebra.det"))

        def case_name(*args, **kwargs):
            case = args[0] if args else kwargs["case"]
            return f"lfunc.proposition_check.{case}"

        functions = [
            (algebra.series_expand, "algebra.series_expand", self._peak),
            (reps.schur_char, "reps.schur_char", self._schur_repeat),
            (reps.schur_expand, "reps.schur_expand", None),
            (reps.sym_power_char, "reps.sym_power_char", None),
            (reps.sl2_char, "reps.sl2_char", None),
            (lfunc.poincare_oracle, "lfunc.poincare_oracle", None),
            (lfunc.unramified_lhs, "lfunc.unramified_lhs", None),
            (lfunc.unramified_rhs, "lfunc.unramified_rhs", None),
            (lfunc.split_identity_check, "lfunc.split_identity_check", None),
            (lfunc.nonsplit_identity_check, "lfunc.nonsplit_identity_check", None),
            (lfunc.l_factor_denominator, "lfunc.l_factor_denominator", None),
            (lfunc.proposition_check, case_name, None),
            (lfunc.verify_lfactor, "lfunc.verify_lfactor", None),
            (lfunc.verify_identities, "lfunc.verify_identities", None),
            (lfunc.verify_integral, "lfunc.verify_integral", None),
            (g2model.verify_lie_models, "g2model.verify_lie_models", None),
            (g2model.verify_iwasawa, "g2model.verify_iwasawa", None),
            (orbits.generator_invariants_hold, "orbits.generator_invariants_hold", None),
            (orbits.group_generators, "orbits.group_generators", self._generator_count),
            (orbits.double_coset_check, "orbits.double_coset_check", None),
            (orbits.verify_orbits, "orbits.verify_orbits", None),
            (report.reports_to_json, "report.reports_to_json", self._json_bytes),
            (cli.run, "cli.run", None),
        ]
        for fn, name_of, after in functions:
            self._patch_function(fn, self._span(fn, name_of, after))
        self._patch_function(orbits.orbit, self._traced_orbit(orbits.orbit))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Every per-layer metric except trace.overhead_s, by name."""

        def stat(name):
            return self.stats.get(name) or _Stat()

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        add, mul, orbit = stat("algebra.add"), stat("algebra.mul"), stat("orbits.orbit")
        schur, coset = stat("reps.schur_char"), stat("orbits.double_coset_check")
        out = {
            "algebra.add.calls": add.calls,
            "algebra.add.self_s": add.self_s,
            "algebra.add.terms_out": c["add.terms_out"],
            "algebra.add.useful_ratio": ratio(c["add.useful"], c["add.terms_out"]),
            "algebra.mul.calls": mul.calls,
            "algebra.mul.self_s": mul.self_s,
            "algebra.mul.term_products": c["mul.term_products"],
            "algebra.peak_terms": c["peak_terms"],
            "reps.schur_char.repeat_ratio": ratio(c["schur_char.repeats"], schur.calls),
            "orbits.orbit.vectors": c["orbit.vectors"],
            "orbits.orbit.images": c["orbit.images"],
            "orbits.orbit.fresh_ratio": ratio(
                c["orbit.vectors"] - orbit.calls, c["orbit.images"]
            ),
            "orbits.orbit.peak_alloc_mb": c["orbit.peak_alloc"] / 2 ** 20,
            "orbits.group_generators.count": c["group_generators.count"],
            "orbits.double_coset_check.s_per_call": ratio(coset.total_s, coset.calls),
            "report.json_bytes": c["json_bytes"],
        }
        for name in PER_LAYER:
            if name in out or name == "trace.overhead_s":
                continue
            layer, _, field = name.rpartition(".")
            s = stat(layer)
            out[name] = {"calls": s.calls, "self_s": s.self_s, "s": s.total_s}[field]
        return {name: out[name] for name in PER_LAYER if name in out}

    def write_spans(self, path):
        """Write the recorded spans as JSON lines ordered by start time."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent in sorted(
                self.spans, key=lambda s: s[2]
            ):
                handle.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )
