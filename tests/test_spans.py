"""The benchmark tracer (perfbench/spans.py) patches kernel methods and
public functions by name; these tests keep its hooks attached to the
package, so a rename in g2adjoint fails here and not only in a traced
benchmark run."""

import importlib.util
import sys
from pathlib import Path

# every module the tracer patches is imported before the first snapshot
from g2adjoint import algebra, cli, g2model, lfunc, orbits, report, reps

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_attributes():
    """Every attribute of every g2adjoint module and kernel class, by owner."""
    owners = [
        mod for name, mod in sys.modules.items()
        if name == "g2adjoint" or name.startswith("g2adjoint.")
    ]
    owners += [algebra.LaurentPoly, algebra.TruncatedSeries, algebra.RingMatrix]
    return {(owner, attr): value for owner in owners
            for attr, value in list(vars(owner).items())}


def test_tracer_counts_kernel_calls_and_uninstalls():
    spans = load_spans()
    before = package_attributes()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert algebra.LaurentPoly.subs is not before[algebra.LaurentPoly, "subs"]
        verdict = lfunc.verify_integral("split", 2)
    finally:
        tracer.uninstall()
    assert verdict.passed
    metrics = tracer.metrics()
    assert metrics["algebra.subs.calls"] > 0
    assert metrics["algebra.series_inverse.calls"] > 0
    assert metrics["algebra.mul.calls"] > 0
    after = package_attributes()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
