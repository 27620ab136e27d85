"""Per-layer spans around hilbseries' public functions, from outside the program.

The layers are the package's modules.  ``installed`` replaces each traced
function, in every hilbseries module and class that binds it, by a wrapper
that opens a span, and puts the originals back on exit.  Spans are folded
into per-name totals as they close, so a traced run keeps O(number of
names) state however many calls it makes.

A span's self time is its duration minus the time its child spans cover;
calls are sequential in one thread, so the children of a span are disjoint
and their durations simply add up.
"""

from __future__ import annotations

import contextlib
import sys
from time import perf_counter

# (metric name, module, attribute path)
TRACED = (
    ("localization.enumerate_fixed_points", "hilbseries.localization", "enumerate_fixed_points"),
    ("localization.tangent_weights", "hilbseries.localization", "tangent_weights"),
    ("localization.taut_weights", "hilbseries.localization", "taut_weights"),
    ("localization.segre_integral", "hilbseries.localization", "segre_integral"),
    ("localization.verlinde_chi", "hilbseries.localization", "verlinde_chi"),
    ("series.mul", "hilbseries.series", "Series.__mul__"),
    ("series.inverse", "hilbseries.series", "Series.inverse"),
    ("series.log", "hilbseries.series", "Series.log"),
    ("series.exp", "hilbseries.series", "Series.exp"),
    ("series.pow_rational", "hilbseries.series", "Series.pow_rational"),
    ("series.compose", "hilbseries.series", "Series.compose"),
    ("series.revert", "hilbseries.series", "Series.revert"),
    ("series.solve_algebraic", "hilbseries.series", "solve_algebraic"),
    ("extraction.build_panel", "hilbseries.extraction", "build_panel"),
    ("extraction.solve_exact", "hilbseries.extraction", "solve_exact"),
    ("extraction.extract_universal", "hilbseries.extraction", "extract_universal"),
    ("extraction.extract_verlinde", "hilbseries.extraction", "extract_verlinde"),
    ("extraction.predict_unknown", "hilbseries.extraction", "predict_unknown"),
    ("extraction.predict_verlinde", "hilbseries.extraction", "predict_verlinde"),
    ("catalog.segre_A", "hilbseries.catalog", "segre_A"),
    ("catalog.chern_A", "hilbseries.catalog", "chern_A"),
    ("catalog.verlinde_B", "hilbseries.catalog", "verlinde_B"),
    ("catalog.segre_full", "hilbseries.catalog", "segre_full"),
    ("catalog.verlinde_full", "hilbseries.catalog", "verlinde_full"),
    ("catalog.segre_change_of_var", "hilbseries.catalog", "segre_change_of_var"),
    ("catalog.verlinde_change_of_var", "hilbseries.catalog", "verlinde_change_of_var"),
    ("catalog.segre_rank2_branch", "hilbseries.catalog", "segre_rank2_branch"),
    ("catalog.verlinde_r3_branch", "hilbseries.catalog", "verlinde_r3_branch"),
    ("verify.run_suite", "hilbseries.verify", "run_suite"),
    ("cli.main", "hilbseries.cli", "main"),
)

# Series spans opened inside an oracle entry point are that oracle's kernel.
KERNELS = {
    "series.mul": (("localization.segre_integral", "kernel.segre"),
                   ("localization.verlinde_chi", "kernel.euler")),
    "series.inverse": (("localization.verlinde_chi", "kernel.euler"),),
}

COUNTERS = (
    "localization.fixed_points",
    "extraction.panel_rows",
    "extraction.coeff_bits_max",
    "verify.checks",
)


def _fixed_points(tracer, args, kwargs, result):
    tracer.counters["localization.fixed_points"] += len(result)


def _panel_rows(position, keyword):
    def hook(tracer, args, kwargs, result):
        rows = args[position] if len(args) > position else kwargs.get(keyword)
        if rows is not None:
            tracer.counters["extraction.panel_rows"] += len(rows)
        bits = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                   for series in result for c in series.coeffs)
        counters = tracer.counters
        counters["extraction.coeff_bits_max"] = max(counters["extraction.coeff_bits_max"], bits)
    return hook


def _verify_checks(tracer, args, kwargs, result):
    tracer.counters["verify.checks"] += sum(report.checks for report in result)


def _catalog_args(name):
    def hook(tracer, args, kwargs, result):
        tracer.catalog_keys.add((name, args, tuple(sorted(kwargs.items()))))
    return hook


HOOKS = {
    "localization.enumerate_fixed_points": _fixed_points,
    "extraction.extract_universal": _panel_rows(2, "panel"),
    "extraction.extract_verlinde": _panel_rows(2, "rows"),
    "verify.run_suite": _verify_checks,
}
HOOKS.update((name, _catalog_args(name)) for name, module, _ in TRACED
             if module == "hilbseries.catalog")


class Tracer:
    """Aggregated spans and counters of one traced pass."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        names = [name for name, _, _ in TRACED]
        names += sorted({kernel for pairs in KERNELS.values() for _, kernel in pairs})
        self.calls = dict.fromkeys(names, 0)
        self.total_s = dict.fromkeys(names, 0.0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.catalog_keys = set()
        self._children = []  # child time of each open span, innermost last
        self._open = dict.fromkeys(names, 0)

    def begin_job(self):
        """Forget spans left open by a job that was interrupted."""
        self._children.clear()
        for name in self._open:
            self._open[name] = 0

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        kernels = KERNELS.get(name, ())
        children, is_open = self._children, self._open
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = self.clock

        def span(*args, **kwargs):
            children.append(0.0)
            is_open[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                is_open[name] -= 1
                own = elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += own
                for context, kernel in kernels:
                    if is_open[context]:
                        calls[kernel] += 1
                        self_s[kernel] += own
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return span


def _resolve(module, path):
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return getattr(owner, attr)


def _bindings(original):
    """Every (owner, attribute) in loaded hilbseries modules bound to ``original``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hilbseries" or name.startswith("hilbseries.")):
            continue
        for attr, value in vars(module).items():
            if value is original:
                found.append((module, attr))
            elif isinstance(value, type) and value.__module__ == name:
                found.extend((value, key) for key, item in vars(value).items()
                             if item is original)
    return found


@contextlib.contextmanager
def installed(tracer):
    """Trace every function in TRACED while the block runs."""
    undo = []
    try:
        for name, module, path in TRACED:
            original = _resolve(module, path)
            span = tracer.wrap(name, original)
            for owner, attr in _bindings(original):
                undo.append((owner, attr, original))
                setattr(owner, attr, span)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(tracer):
    """Per-layer metrics of a traced pass, by name; values as measured."""
    out = {}
    for name, _, _ in TRACED:
        out[name + ".calls"] = (tracer.calls[name], "count")
        out[name + ".total_s"] = (tracer.total_s[name], "s")
        out[name + ".self_s"] = (tracer.self_s[name], "s")
    for kernel in sorted({k for pairs in KERNELS.values() for _, k in pairs}):
        out[kernel + ".calls"] = (tracer.calls[kernel], "count")
        out[kernel + ".self_s"] = (tracer.self_s[kernel], "s")
    for name in COUNTERS:
        out[name] = (tracer.counters[name], "count")
    catalog_calls = sum(tracer.calls[name] for name, module, _ in TRACED
                        if module == "hilbseries.catalog")
    out["catalog.distinct_ratio"] = (
        len(tracer.catalog_keys) / catalog_calls if catalog_calls else 0.0, "ratio")
    return out
