"""In-memory spans around the calls into each cavitysim layer.

The wrappers live here, outside the package, and are installed at every
place a layer function is looked up: each `cavitysim.*` module attribute
that is bound to the original function object is replaced.  That covers
names bound by `from .model import build_generator` as well as calls made
through a module attribute such as `dyn.integrate` or `ent.partial_trace`.

A layer function that no longer exists, or is never called, simply
records no span, so its metrics read zero calls and zero seconds.
"""

import bisect
import functools
import importlib
import sys
import time
from collections import defaultdict

# span name -> (defining module, function name)
LAYER_FUNCTIONS = {
    "config.parse_config": ("cavitysim.config", "parse_config"),
    "coupling.synth_fieldmap": ("cavitysim.coupling", "synth_fieldmap"),
    "coupling.coupling_ratio": ("cavitysim.coupling", "coupling_ratio"),
    "model.build_generator": ("cavitysim.model", "build_generator"),
    "model.liouvillian_matrix": ("cavitysim.model", "liouvillian_matrix"),
    "dynamics.integrate": ("cavitysim.dynamics", "integrate"),
    "dynamics.rabi_frequency": ("cavitysim.dynamics", "rabi_frequency"),
    "dynamics.envelope_lifetime": ("cavitysim.dynamics", "envelope_lifetime"),
    "dynamics.write_trajectory_csv": ("cavitysim.dynamics", "write_trajectory_csv"),
    "entanglement.partial_trace": ("cavitysim.entanglement", "partial_trace"),
    "entanglement.entropy_normalized": ("cavitysim.entanglement", "entropy_normalized"),
    "entanglement.concurrence": ("cavitysim.entanglement", "concurrence"),
    "runner.run_scenario": ("cavitysim.runner", "run_scenario"),
}


# The hooks read attributes leniently: a refactored layer should lose a
# counter, not fail the run it is measuring.
def _output_steps(args, kwargs, result):
    return "dynamics.output_steps", len(getattr(result, "times", ()))


def _liouvillian_mb(args, kwargs, result):
    # Computed from the generator dimension, (d^2)^2 complex128 entries,
    # not measured; reported as the largest over all calls.
    gen = args[0] if args else kwargs.get("gen")
    return "model.liouvillian_mb", (getattr(gen, "dim", 0) ** 2) ** 2 * 16 / 1e6


# span name -> hook(args, kwargs, result) -> (counter name, value)
_COUNTER_HOOKS = {
    "dynamics.integrate": _output_steps,
    "model.liouvillian_matrix": _liouvillian_mb,
}
_MAX_COUNTERS = {"model.liouvillian_mb"}


class Tracer:
    """Spans as [name, start_ns, end_ns, parent_index] plus counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = _COUNTER_HOOKS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                key, value = hook(args, kwargs, result)
                if key in _MAX_COUNTERS:
                    counters[key] = max(counters[key], value)
                else:
                    counters[key] += value
            return result

        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every lookup site of each layer function that exists."""
    for name, (module_name, attr) in LAYER_FUNCTIONS.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        original = getattr(module, attr, None)
        if original is None:
            continue
        wrapper = tracer.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cavitysim" or mod_name.startswith("cavitysim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def self_times(spans, excluded=()) -> tuple:
    """(self seconds by span name, calls by span name).

    A span's self time is its duration minus the time its direct children
    cover; spans come from one thread, so children never overlap.  Each
    excluded (start_ns, end_ns) interval, such as a host-speed probe chunk,
    is also taken out of the innermost span that holds it.
    """
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    # Spans are listed in the order they started.
    starts = [span[1] for span in spans]
    for start, end in excluded:
        i = bisect.bisect_right(starts, start) - 1
        while i >= 0 and spans[i][2] < end:
            i = spans[i][3]
        if i >= 0:
            covered[i] += end - start
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name] += (end - start - covered[i]) / 1e9
        calls[name] += 1
    return self_s, calls
