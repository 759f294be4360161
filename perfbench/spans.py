"""Span tracing for the traced benchmark run.

Spans come from wrappers installed at the module attributes that
pinchopt's own callers look up (for example ``outage.ccdf_inst_snr`` and
``kernels.marcum_q1_scalar``), and are removed again afterwards, so the
untraced runs execute the unmodified program. Spans are aggregated in
memory per name: call count, inclusive time and self time (inclusive
minus the time of child spans), plus inclusive time per (name, parent).
Leaf spans record only calls and self time, to keep tracing cheap.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter
from time import perf_counter

# (module the caller looks the function up in, attribute, span name)
TARGETS = (
    ("cli", "load_scenario", "scenario_io.load_scenario"),
    ("cli", "solve_maxmin", "maxmin.solve_maxmin"),
    ("cli", "fixed_antenna_baseline", "maxmin.fixed_antenna_baseline"),
    ("cli", "solve_outage", "outage.solve_outage"),
    ("cli", "fixed_antenna_outage_baseline", "outage.fixed_antenna_outage_baseline"),
    ("cli", "estimate_ccdf_curve", "montecarlo.estimate_ccdf_curve"),
    ("cli", "ccdf_inst_snr", "special.ccdf_inst_snr"),
    ("maxmin", "invert_f", "maxmin.invert_f"),
    ("maxmin", "min_avg_snr", "maxmin.min_avg_snr"),
    ("maxmin", "f_scalar", "model.f_scalar"),
    ("model", "f_scalar", "model.f_scalar"),
    ("outage", "invert_ccdf", "outage.invert_ccdf"),
    ("outage", "max_threshold_at", "outage.max_threshold_at"),
    ("outage", "ccdf_inst_snr", "special.ccdf_inst_snr"),
    ("kernels", "marcum_q1_scalar", "kernels.marcum_q1_scalar"),
    ("kernels", "snr_samples", "kernels.snr_samples"),
)

# Hot functions that call no other traced function.
LEAVES = {"model.f_scalar", "kernels.marcum_q1_scalar", "kernels.snr_samples"}


class Tracer:
    """Span aggregates and layer counters of one traced run."""

    def __init__(self, kernels_module):
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.under_s = Counter()  # inclusive time keyed by (name, parent name)
        self.regimes = Counter()
        self.samples = 0
        self.outer_iters = Counter()
        self.polish_gains = []
        self._stack = []
        # Marcum dispatch thresholds as documented in kernels.py.
        self._ab_limit = getattr(kernels_module, "LINEAR_AB_LIMIT", 500.0)
        self._exp_limit = getattr(kernels_module, "EXP_ARG_LIMIT", 700.0)
        self._gap = getattr(kernels_module, "SATURATION_GAP", 14.0)

    def span(self, name, fn, on_call=None, on_return=None):
        stack = self._stack

        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                if on_call is not None:
                    on_call(args)
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    self.under_s[name, parent[0]] += elapsed
            if on_return is not None:
                on_return(result)
            return result

        return wrapped

    def leaf(self, name, fn, on_call=None):
        """A cheaper span for hot functions that call no other traced one."""
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def wrapped(*args):
            start = perf_counter()
            if on_call is not None:
                on_call(args)
            result = fn(*args)
            elapsed = perf_counter() - start
            calls[name] += 1
            self_s[name] += elapsed
            if stack:
                stack[-1][1] += elapsed
            return result

        return wrapped

    def _marcum_regime(self, args):
        a, b = args[0], args[1]
        if a == 0.0 or b == 0.0:
            regime = "edge"
        elif a * b <= self._ab_limit and 0.5 * a * a < self._exp_limit \
                and 0.5 * b * b < self._exp_limit:
            regime = "series"
        elif abs(a - b) >= self._gap:
            regime = "sat"
        else:
            regime = "band"
        self.regimes[regime] += 1

    def _count_samples(self, args):
        self.samples += len(args[0])

    def _solution_hook(self, metric):
        def hook(solution):
            self.outer_iters[metric] += solution.outer_iterations
            if metric == "outage":
                lo = solution.meta.get("bracket_lo")
                if lo:
                    self.polish_gains.append((solution.t_star - lo) / lo)
        return hook

    def _hooks(self, name):
        return {
            "kernels.marcum_q1_scalar": {"on_call": self._marcum_regime},
            "kernels.snr_samples": {"on_call": self._count_samples},
            "maxmin.solve_maxmin": {"on_return": self._solution_hook("maxmin")},
            "outage.solve_outage": {"on_return": self._solution_hook("outage")},
        }.get(name, {})

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target present in this version of pinchopt."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(f"pinchopt.{module_name}")
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                make = self.leaf if name in LEAVES else self.span
                setattr(module, attr, make(name, original, **self._hooks(name)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
