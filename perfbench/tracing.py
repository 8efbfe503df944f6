"""Outside-in tracing of the snls layers.

The benchmark times calls into each layer from its own code and changes
nothing under ``src/``.  Modules bind names with ``from .x import y``,
so a boundary is wrapped at the name its caller looks up, not only where
the function is defined.  Every wrapped call records a span: its id, its
parent span's id, the unit (pass) it belongs to, the binding (hence the
span name), start, end, self time (duration minus the time its child
spans cover) and whether it returned.  The hottest boundaries,
SpectralField construction and the FFT entry points, are counted instead
of spanned: a span each would cost more than the work it measures.

Spans are kept in memory and written out once, after the timed passes.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import math
import os
import statistics
import time
from collections import Counter, defaultdict

# (binding "module:attr" or "module:Class.attr", span name)
SPANS = (
    ("snls.cli:main", "cli.main"),
    ("snls.cli:parse_config", "config.parse_config"),
    ("snls.config:initial_field", "config.initial_field"),
    ("snls.experiments:initial_field", "config.initial_field"),
    ("snls.cli:simulate", "integrator.simulate"),
    ("snls.integrator:step", "integrator.step"),
    ("snls.experiments:step", "integrator.step"),
    ("snls.integrator:fixed_point_solve", "integrator.fixed_point_solve"),
    ("snls.integrator:map_F_midpoint_physical", "maps.F_fast"),
    ("snls.integrator:map_F", "maps.F_direct"),
    ("snls.integrator:map_P_frozen", "maps.P_frozen"),
    ("snls.integrator:increment", "noise.increment"),
    ("snls.noise:sample_path", "noise.sample_path"),
    ("snls.experiments:sample_path", "noise.sample_path"),
    ("snls.integrator:free_propagator", "torus.free_propagator"),
    ("snls.integrator:sobolev_norm", "diagnostics.sobolev_norm"),
    ("snls.experiments:sobolev_norm", "diagnostics.sobolev_norm"),
    ("snls.config:sobolev_norm", "diagnostics.sobolev_norm"),
    ("snls.diagnostics:mass", "diagnostics.mass"),
    ("snls.diagnostics:energy_h0", "diagnostics.energy_h0"),
    ("snls.experiments:cmd_local_error", "experiments.cmd_local_error"),
    ("snls.experiments:reference_solution", "experiments.reference_solution"),
    ("snls.cli:cmd_kernel_error", "experiments.cmd_kernel_error"),
    ("snls.experiments:kernel_K2d", "kernels.kernel_K2d"),
    ("snls.experiments:kernel_exact", "kernels.kernel_exact"),
    ("snls.kernels:interp_exp", "kernels.interp_exp"),
    ("snls.integrator:RunRecord.write_csv", "cli.write"),
    ("snls.cli:write_snapshot", "cli.write"),
    ("snls.experiments:ErrorTable.write_csv", "cli.write"),
)

SPAN_NAME = dict(SPANS)

# counted boundaries
FIELD_NEW = "snls.torus:SpectralField.__post_init__"
# FFT entry points; the value is the default transform axes
FFTS = {
    "numpy.fft:fft": (-1,), "numpy.fft:ifft": (-1,),
    "numpy.fft:fft2": (-2, -1), "numpy.fft:ifft2": (-2, -1),
    "numpy.fft:fftn": None, "numpy.fft:ifftn": None,
    "scipy.fft:fft": (-1,), "scipy.fft:ifft": (-1,),
    "scipy.fft:fft2": (-2, -1), "scipy.fft:ifft2": (-2, -1),
    "scipy.fft:fftn": None, "scipy.fft:ifftn": None,
}
_WRITE_SPAN = "cli.write"
_FP_SPAN = "integrator.fixed_point_solve"

# every per-layer metric: (unit, which way is better)
LAYER_METRICS = {
    "torus.field_new.per_step": ("count", "lower"),
    "torus.fft.calls.per_step": ("count", "lower"),
    "torus.fft.points.per_step": ("count", "lower"),
    "torus.fft.flops_computed.per_step": ("flop", "lower"),
    "torus.free_propagator.self_s": ("s", "lower"),
    "maps.F_fast.calls": ("count", "lower"),
    "maps.F_fast.self_s": ("s", "lower"),
    "maps.F_fast.us_per_call": ("us", "lower"),
    "maps.P_frozen.calls": ("count", "lower"),
    "maps.P_frozen.self_s": ("s", "lower"),
    "maps.P_frozen.us_per_call": ("us", "lower"),
    "maps.F_direct.calls": ("count", "lower"),
    "integrator.step.calls": ("count", "lower"),
    "integrator.step.self_s": ("s", "lower"),
    "integrator.step.us_p50": ("us", "lower"),
    "integrator.step.us_tail": ("us", "lower"),
    "integrator.step.tail_pct": ("%", "higher"),
    "integrator.step.samples": ("count", "higher"),
    "integrator.fixed_point_solve.self_s": ("s", "lower"),
    "integrator.fp_iters_per_step": ("count", "lower"),
    "integrator.map_evals_per_step": ("count", "lower"),
    "integrator.contraction_rate": ("ratio", "lower"),
    "integrator.accepted_ratio": ("ratio", "higher"),
    "noise.sample_path.calls": ("count", "lower"),
    "noise.sample_path.self_s": ("s", "lower"),
    "noise.increment.calls": ("count", "lower"),
    "noise.increment.self_s": ("s", "lower"),
    "diagnostics.sobolev_norm.calls": ("count", "lower"),
    "diagnostics.sobolev_norm.self_s": ("s", "lower"),
    "diagnostics.record_s": ("s", "lower"),
    "experiments.reference_solution.calls": ("count", "lower"),
    "experiments.reference_solution.us_p50": ("us", "lower"),
    "kernels.kernel_K2d.calls": ("count", "lower"),
    "kernels.kernel_K2d.self_s": ("s", "lower"),
    "kernels.interp_exp.calls": ("count", "lower"),
    "kernels.interp_exp.us_per_call": ("us", "lower"),
    "kernels.kernel_exact.self_s": ("s", "lower"),
    "config.parse_config.self_s": ("s", "lower"),
    "config.initial_field.self_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_out": ("B", "lower"),
    "trace.overhead": ("ratio", "higher"),
}


def resolve(binding):
    """(owner object, attribute name) of a "module:attr.path" binding."""
    module, _, path = binding.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _fft_axes(fn_axes, out, args, kwargs):
    """Transformed axes of an FFT call, read from its arguments."""
    if fn_axes == (-1,):
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        return (axis,)
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    if axes is not None:
        return tuple(axes)
    if fn_axes is not None:
        return fn_axes
    s = kwargs.get("s", args[1] if len(args) > 1 else None)
    return tuple(range(-len(s), 0)) if s is not None else tuple(range(out.ndim))


class Tracer:
    """Spans and counters for the passes run while it is installed."""

    def __init__(self):
        # (id, parent id, unit, binding, start, end, self seconds, ok)
        self.spans = []
        self.unit = 0  # the pass (closed-loop operation) spans belong to
        self.fft_binding_calls = Counter()
        self.field_new = 0
        self.fft_calls = 0
        self.fft_points = 0
        self.fft_flops = 0.0
        self.fp_iterations = 0
        self.residual_ratios = []
        self.bytes_out = 0
        self._stack = []  # open spans: [id, seconds covered by children]
        self._ids = itertools.count(1)
        self._patches = []

    # -- installation -------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for binding, name in SPANS:
            self._patch(binding, lambda fn, b=binding, n=name: self._span(b, n, fn))
        self._patch(FIELD_NEW, self._count_field)
        for binding, axes in FFTS.items():
            self._patch(binding, lambda fn, b=binding, a=axes: self._count_fft(b, a, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, binding, make_wrapper):
        owner, attr = resolve(binding)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    # -- wrappers -----------------------------------------------------------

    def _span(self, binding, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        after = {_FP_SPAN: self._record_solve, _WRITE_SPAN: self._record_write}.get(name)

        def wrapper(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((frame[0], parent, self.unit, binding, start, end,
                              duration - frame[1], ok))
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _record_write(self, _, args, kwargs):
        self.bytes_out += os.path.getsize(kwargs.get("path", args[1]))

    def _record_solve(self, result, *_):
        _, iterations, _, history = result
        self.fp_iterations += iterations
        self.residual_ratios.extend(
            b / a for a, b in zip(history, history[1:]) if a > 0.0
        )

    def _count_field(self, fn):
        def post_init(obj):
            self.field_new += 1
            return fn(obj)

        return post_init

    def _count_fft(self, binding, fn_axes, fn):
        sizes = {}  # output shape -> (points, flops) of a call with default axes

        def wrapper(*args, **kwargs):
            self.fft_binding_calls[binding] += 1
            out = fn(*args, **kwargs)
            cost = sizes.get(out.shape) if len(args) == 1 and not kwargs else None
            if cost is None:
                axes = _fft_axes(fn_axes, out, args, kwargs)
                length = math.prod(out.shape[a] for a in axes)
                cost = (out.size, 5.0 * out.size * math.log2(length) if length > 1 else 0.0)
                if len(args) == 1 and not kwargs:
                    sizes[out.shape] = cost
            self.fft_calls += 1
            self.fft_points += cost[0]
            self.fft_flops += cost[1]
            return out

        return wrapper

    # -- results ------------------------------------------------------------

    def write_spans(self, path):
        """Spans as gzipped CSV, times in microseconds from the first span."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,unit,name,binding,start_us,end_us,ok\n")
            for sid, parent, unit, binding, start, end, _, ok in self.spans:
                fh.write(f"{sid},{parent},{unit},{SPAN_NAME[binding]},{binding},"
                         f"{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f},{int(ok)}\n")

    def binding_calls(self):
        """Calls seen at each wrapped or counted binding."""
        calls = Counter(span[3] for span in self.spans)
        calls.update(self.fft_binding_calls)
        return dict(calls)

    def layer_metrics(self, passes):
        """Per-layer metrics over `passes` traced passes.  Counts and
        times are per pass; `per_step` values are per integrator.step."""
        durations = defaultdict(list)
        self_s = defaultdict(float)
        ok_steps = 0
        for _, _, _, binding, start, end, self_time, ok in self.spans:
            name = SPAN_NAME[binding]
            durations[name].append(end - start)
            self_s[name] += self_time
            if name == "integrator.step" and ok:
                ok_steps += 1

        def calls(name):
            return len(durations[name])

        def per_pass(x):
            return x / passes

        def us_per_call(name):
            d = durations[name]
            return 1e6 * sum(d) / len(d) if d else 0.0

        def us_p50(name):
            d = durations[name]
            return 1e6 * statistics.median(d) if d else 0.0

        steps = calls("integrator.step")

        def per_step(x):
            return x / steps if steps else 0.0

        tail_pct, tail_us = _tail(durations["integrator.step"])
        return {
            "torus.field_new.per_step": per_step(self.field_new),
            "torus.fft.calls.per_step": per_step(self.fft_calls),
            "torus.fft.points.per_step": per_step(self.fft_points),
            "torus.fft.flops_computed.per_step": per_step(self.fft_flops),
            "torus.free_propagator.self_s": per_pass(self_s["torus.free_propagator"]),
            "maps.F_fast.calls": per_pass(calls("maps.F_fast")),
            "maps.F_fast.self_s": per_pass(self_s["maps.F_fast"]),
            "maps.F_fast.us_per_call": us_per_call("maps.F_fast"),
            "maps.P_frozen.calls": per_pass(calls("maps.P_frozen")),
            "maps.P_frozen.self_s": per_pass(self_s["maps.P_frozen"]),
            "maps.P_frozen.us_per_call": us_per_call("maps.P_frozen"),
            "maps.F_direct.calls": per_pass(calls("maps.F_direct")),
            "integrator.step.calls": per_pass(steps),
            "integrator.step.self_s": per_pass(self_s["integrator.step"]),
            "integrator.step.us_p50": us_p50("integrator.step"),
            "integrator.step.us_tail": tail_us,
            "integrator.step.tail_pct": tail_pct,
            "integrator.step.samples": steps,
            "integrator.fixed_point_solve.self_s": per_pass(self_s[_FP_SPAN]),
            "integrator.fp_iters_per_step": per_step(self.fp_iterations),
            "integrator.map_evals_per_step": per_step(calls("maps.F_fast") + calls("maps.F_direct")),
            "integrator.contraction_rate": (
                statistics.median(self.residual_ratios) if self.residual_ratios else 0.0
            ),
            "integrator.accepted_ratio": ok_steps / steps if steps else 1.0,
            "noise.sample_path.calls": per_pass(calls("noise.sample_path")),
            "noise.sample_path.self_s": per_pass(self_s["noise.sample_path"]),
            "noise.increment.calls": per_pass(calls("noise.increment")),
            "noise.increment.self_s": per_pass(self_s["noise.increment"]),
            "diagnostics.sobolev_norm.calls": per_pass(calls("diagnostics.sobolev_norm")),
            "diagnostics.sobolev_norm.self_s": per_pass(self_s["diagnostics.sobolev_norm"]),
            "diagnostics.record_s": per_pass(
                sum(durations["diagnostics.mass"]) + sum(durations["diagnostics.energy_h0"])
            ),
            "experiments.reference_solution.calls": per_pass(calls("experiments.reference_solution")),
            "experiments.reference_solution.us_p50": us_p50("experiments.reference_solution"),
            "kernels.kernel_K2d.calls": per_pass(calls("kernels.kernel_K2d")),
            "kernels.kernel_K2d.self_s": per_pass(self_s["kernels.kernel_K2d"]),
            "kernels.interp_exp.calls": per_pass(calls("kernels.interp_exp")),
            "kernels.interp_exp.us_per_call": us_per_call("kernels.interp_exp"),
            "kernels.kernel_exact.self_s": per_pass(self_s["kernels.kernel_exact"]),
            "config.parse_config.self_s": per_pass(self_s["config.parse_config"]),
            "config.initial_field.self_s": per_pass(self_s["config.initial_field"]),
            "cli.write_s": per_pass(sum(durations[_WRITE_SPAN])),
            "cli.bytes_out": per_pass(self.bytes_out),
        }


def _tail(durations):
    """(percentile, microseconds) of the highest of 50/90/99/99.9/99.99
    that has at least ten samples beyond it."""
    if not durations:
        return 0.0, 0.0
    ordered = sorted(durations)
    n = len(ordered)
    pct = 50.0
    for p in (90.0, 99.0, 99.9, 99.99):
        if n * (1.0 - p / 100.0) >= 10:
            pct = p
    index = min(n - 1, math.ceil(pct / 100.0 * n) - 1)
    return pct, 1e6 * ordered[index]
