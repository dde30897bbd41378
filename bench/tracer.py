"""Spans and counts recorded from outside the package, around each layer's calls.

The stages are imported by name into the module that calls them (``runner``
does ``from .coupling import coupling_posterior``), so a layer is wrapped in
the namespace of its caller, not where it is defined.  Spans are kept in
memory as ``(name, start, end, parent)`` and summarised when the pass ends.
"""

from __future__ import annotations

import importlib
import re
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name); a span name starts with its layer's name
TRACED = (
    ("scvamp.experiment", "load_code", "codes.load"),
    ("scvamp.experiment", "build_scenario", "channel.build"),
    ("scvamp.channel", "precompute", "coupling.precompute"),
    ("scvamp.experiment", "realize", "channel.realize"),
    ("scvamp.experiment", "run_variant", "runner"),
    ("scvamp.runner", "coupling_posterior", "coupling"),
    ("scvamp.runner", "likelihood_step", "likelihood"),
    ("scvamp.runner", "bp_decode", "denoiser"),
)


class TraceError(RuntimeError):
    """A traced name is missing or a layer went silent: the trace cannot be trusted."""


_FALLBACK_WARNING = re.compile(r"quadrature normalizer underflow on (\d+) of (\d+) components")


@contextmanager
def patched(replacements):
    """Swap ``(module, attr, make_wrapper)`` targets in place and restore them on exit.

    Every target is checked before any is replaced, so a missing attribute
    fails loudly and leaves the package untouched.
    """
    resolved = []
    for module_name, attr, make in replacements:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            raise TraceError(
                f"benchmark wraps {module_name}.{attr}, which no longer exists; "
                f"update bench/tracer.py to the renamed layer"
            )
        resolved.append((module, attr, make))
    originals = []
    try:
        for module, attr, make in resolved:
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


class OutcomeRecorder:
    """Per-frame outcomes of ``run_variant``, recorded without timing anything.

    Each entry is ``(variant, snr_db, seed, bit_errors, n, final_mse,
    diverged)``; the final MSE of a frame with an empty trace is the
    initialization MSE of 1, as in the mse-trace experiment.
    """

    def __init__(self):
        self.frames = []

    def note(self, args, result):
        variant, _, scenario = args[:3]
        mse = result.trace.mse
        self.frames.append((
            getattr(variant, "value", variant),
            round(float(scenario.spec.snr_db), 6),
            int(scenario.seed),
            int(result.bit_errors),
            int(scenario.code.n),
            float(mse[-1]) if mse.shape[0] else 1.0,
            bool(result.diverged),
        ))
        return result

    def replacements(self):
        def make(original):
            def run_variant(*args, **kwargs):
                return self.note(args, original(*args, **kwargs))
            return run_variant
        return [("scvamp.experiment", "run_variant", make)]


class Tracer(OutcomeRecorder):
    """Timed spans around every layer boundary plus the counts each layer does."""

    def __init__(self):
        super().__init__()
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self._stack = []

    def span(self, name, call):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _count(self, name, args, result):
        if name == "runner":
            self.note(args, result)
            self.counts["runner.outer_iters"] += len(result.trace)
            self.counts["runner.diverged"] += int(result.diverged)
        elif name == "likelihood":
            self.counts["likelihood.components"] += int(args[1].shape[0])
        elif name == "denoiser":
            code, _, iterations = args[:3]
            self.counts["denoiser.edge_updates"] += int(iterations) * int(code.num_edges)

    def _likelihood_call(self, original, args, kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = original(*args, **kwargs)
        for w in caught:
            match = _FALLBACK_WARNING.search(str(w.message))
            if match is None:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            else:
                self.counts["likelihood.fallbacks"] += int(match.group(1))
        return result

    def replacements(self):
        def make_for(name):
            def make(original):
                if name == "likelihood":
                    def call(args, kwargs):
                        return self._likelihood_call(original, args, kwargs)
                else:
                    def call(args, kwargs):
                        return original(*args, **kwargs)

                def traced(*args, **kwargs):
                    result = self.span(name, lambda: call(args, kwargs))
                    self._count(name, args, result)
                    return result
                return traced
            return make
        return [(module, attr, make_for(name)) for module, attr, name in TRACED]

    def summary(self):
        """Per span name: count, total seconds, self seconds and per-call durations."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "durations": [], "self_durations": []})
            total = end - start
            own = total - child_time[index]
            rec["calls"] += 1
            rec["s"] += total
            rec["self_s"] += own
            rec["durations"].append(total)
            rec["self_durations"].append(own)
        return out

    def check_layers(self, layers, workload):
        """Fail loudly when a layer the workload uses recorded no calls."""
        seen = {name.split(".")[0] for name, *_ in self.spans}
        missing = [layer for layer in layers if layer not in seen]
        if missing:
            raise TraceError(
                f"traced pass of {workload} recorded no calls into layer(s) "
                f"{', '.join(missing)}; a traced name was renamed or bypassed"
            )
