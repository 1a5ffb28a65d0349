"""Span recorder for the traced benchmark run.

The traced run rebinds each layer function at the names it is looked up
under (module globals, class attributes) to a wrapper that records one
span per call: name, start, end, parent span and run id.  Spans stay in
memory and are aggregated and written out once at the end.  `restore`
puts every original object back, and `pristine` proves that nothing is
still rebound, which the untraced passes check before and after they run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import scipy.sparse.linalg

from frontlab import (certify, cli, config, diagnostics, evolution, fronts,
                      runio, spectral, symbols)

# Module-level functions, rebound wherever a frontlab module (or the
# package) holds a reference to the same function object.
FUNCTIONS = [
    (cli, "main"), (cli, "cmd_simulate"), (cli, "cmd_rates"),
    (spectral, "lp_norm"), (spectral, "weighted_l2"),
    (spectral, "trig_interpolate"),
    (fronts, "shoot_local_front"), (fronts, "newton_front"),
    (fronts, "operator_on_reference"), (fronts, "profile_residual"),
    (fronts, "front_for_operator"),
    (certify, "certify_front"), (certify, "count_below"), (certify, "sweep_nu"),
    (evolution, "evolve"), (evolution, "cole_hopf_exact"),
    (diagnostics, "compare_to_theorem"),
    (diagnostics, "check_energy_inequality"),
    (runio, "write_field_csv"), (runio, "write_series_csv"),
    (runio, "read_series_csv"),
]

# Methods, rebound on their class; the metric is named after the module.
METHODS = [
    ("symbols", symbols.MultiplierSpec, "values"),
    ("fronts", fronts.FrontProfile, "phi_prime_at"),
    ("diagnostics", diagnostics.NormSeries, "append"),
    ("config", config.RunConfig, "from_ini"),
]

# Foreign solvers, counted as work of the layer that calls them.  lgmres
# is imported inside newton_front at call time, so it is rebound on its
# own module.
FOREIGN = [
    ("fronts", fronts, "solve_ivp"),
    ("fronts", scipy.sparse.linalg, "lgmres"),
]


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _frontlab_namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "frontlab" or name.startswith("frontlab."))
            and m is not None]


class Tracer:
    """Owns the rebinding, the span list and its aggregation."""

    def __init__(self):
        self.spans = []      # [name_id, start, end, parent, run_id, error]
        self.names = []
        self._name_ids = {}
        self._stack = []
        self.run_id = 0
        self._bindings = self._find_bindings()

    # -- binding table ------------------------------------------------------

    def _find_bindings(self):
        """(owner, attribute, original, metric name) for every rebinding."""
        out = []
        namespaces = _frontlab_namespaces()
        for module, attr in FUNCTIONS:
            fn = getattr(module, attr)
            name = f"{_layer(module)}.{attr}"
            for ns in namespaces:
                for key, value in vars(ns).items():
                    if value is fn:
                        out.append((ns, key, fn, name))
        for layer, cls, attr in METHODS:
            out.append((cls, attr, cls.__dict__[attr], f"{layer}.{attr}"))
        for layer, owner, attr in FOREIGN:
            out.append((owner, attr, getattr(owner, attr), f"{layer}.{attr}"))
        out.append((evolution, "make_stepper", evolution.make_stepper,
                    "evolution.make_stepper"))
        return out

    def pristine(self) -> bool:
        """True when every traced name holds its original object."""
        return all(vars(owner).get(attr) is original
                   for owner, attr, original, _ in self._bindings)

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name_id, 0.0, 0.0, stack[-1] if stack else -1,
                      self.run_id, False]
            spans.append(record)
            stack.append(index)
            ok = False
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                record[2] = clock()
                record[5] = not ok
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _traced_make_stepper(self, original):
        advance_name = "evolution.advance"
        wrap = self.wrap

        class TracedStepper:
            def __init__(self, inner):
                self._inner = inner
                self.advance = wrap(advance_name, inner.advance)

            def __getattr__(self, attr):
                return getattr(self._inner, attr)

        def make_stepper(*args, **kwargs):
            stepper, nonlin = original(*args, **kwargs)
            return TracedStepper(stepper), wrap("evolution.nonlin", nonlin)

        return self.wrap("evolution.make_stepper", make_stepper)

    # -- install / restore --------------------------------------------------

    def install(self):
        wrappers = {}
        for owner, attr, original, name in self._bindings:
            if id(original) not in wrappers:
                if name == "evolution.make_stepper":
                    new = self._traced_make_stepper(original)
                elif isinstance(original, staticmethod):
                    new = staticmethod(self.wrap(name, original.__func__))
                else:
                    new = self.wrap(name, original)
                wrappers[id(original)] = new
            setattr(owner, attr, wrappers[id(original)])

    def restore(self):
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def per_run(self) -> dict:
        """{run_id: {name: {"calls", "self_s", "errors"}}}.

        A span's self time is its duration minus the durations of its
        direct children; calls on one thread nest, so children never
        overlap each other.
        """
        child = defaultdict(float)
        for name_id, start, end, parent, run_id, failed in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "errors": 0}))
        for index, (name_id, start, end, parent, run_id, failed) in \
                enumerate(self.spans):
            entry = out[run_id][self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[index]
            entry["errors"] += int(failed)
        return {run: dict(names) for run, names in out.items()}

    def write(self, path, summary: dict):
        """Write names, spans and the aggregated summary as one JSON file."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "span_fields": ["name", "start", "end", "parent",
                                       "run_id", "error"],
                       "spans": self.spans,
                       "summary": summary}, fh)
