"""In-memory spans around the public functions of hmg's layers.

Nothing inside `src/` is instrumented. `Tracer.installed()` replaces each
public function at the module attributes its callers resolve (for example
`hmg.sim.run`, which `compare_with_gecm` calls, and `hmg.cli.run`, which
`hmg simulate` calls) with a wrapper that records a span and returns the
wrapped call's result unchanged. On exit the original attributes come back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

import hmg.cli
import hmg.gecm
import hmg.lti
import hmg.sim
from hmg.gecm import FREQ_SCALE_CANDIDATES


def _run_attrs(args, kwargs, result):
    scenario = args[0] if args else kwargs["scenario"]
    return {"steps": int(round(scenario.horizon_s / scenario.step_s))}


def _csv_attrs(args, kwargs, result):
    trace, path = args[0], args[1]
    return {"rows": len(trace.t), "bytes": os.path.getsize(path)}


def _nodal_attrs(args, kwargs, result):
    return {"scale_retries": FREQ_SCALE_CANDIDATES.index(result.freq_scale)}


def _bode_attrs(args, kwargs, result):
    return {"points": len(result)}


# (module, attribute, span name, attribute extractor). One span name may sit
# on several attributes: each caller resolves its own binding.
TIMED = (
    (hmg.cli, "main", "cli.main", None),
    (hmg.cli, "load_config", "config.load_config", None),
    (hmg.cli, "run", "sim.run", _run_attrs),
    (hmg.cli, "measure", "sim.measure", None),
    (hmg.cli, "write_trace_csv", "sim.write_trace_csv", _csv_attrs),
    (hmg.sim, "run", "sim.run", _run_attrs),
    (hmg.sim, "measure", "sim.measure", None),
    (hmg.sim, "compare_with_gecm", "sim.compare_with_gecm", None),
    (hmg.sim, "build_gecm", "gecm.build_gecm", None),
    (hmg.sim, "solve_nodal", "gecm.solve_nodal", _nodal_attrs),
    (hmg.sim, "rk4_step_maps", "lti.rk4_step_maps", None),
    (hmg.sim, "tf_to_statespace", "lti.tf_to_statespace", None),
    (hmg.lti, "tf_to_statespace", "lti.tf_to_statespace", None),
    (hmg.gecm, "build_gecm", "gecm.build_gecm", None),
    (hmg.gecm, "solve_nodal", "gecm.solve_nodal", _nodal_attrs),
    (hmg.gecm, "ideal_global_deviation_tf", "gecm.ideal_global_deviation_tf", None),
    (hmg.gecm, "restored_absolute_tf", "gecm.restored_absolute_tf", None),
    (hmg.gecm, "bode_export", "gecm.bode_export", _bode_attrs),
)

# Rational arithmetic is called thousands of times per nodal solve, so it is
# counted per operation rather than timed per call.
COUNTED = (
    (hmg.gecm, "tf_eval", "lti.tf_eval"),
    (hmg.gecm, "poly_mul", "lti.poly_mul"),
    (hmg.lti, "poly_mul", "lti.poly_mul"),
)


class Tracer:
    """Spans as [name, start, end, parent index, op id, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self.op_id = -1

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.op_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result
        return traced

    def count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[self.op_id][name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, attrs in TIMED:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr), attrs))
            for module, attr, name in COUNTED:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.count(name, getattr(module, attr)))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def op(self, op_id: int, fn, *args):
        """Run one operation as a root span named "op"."""
        self.op_id = op_id
        try:
            return self.wrap("op", fn)(*args)
        finally:
            self.op_id = -1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, op_id, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op_id,
                                     "attrs": attrs}) + "\n")

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover.

        Calls are sequential on one thread, so children never overlap.
        """
        own = [t1 - t0 for _, t0, t1, _, _, _ in self.spans]
        for _, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= t1 - t0
        return own
