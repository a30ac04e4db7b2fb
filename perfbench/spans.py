"""Outside-in span tracer for the robust_recon layers.

The benchmark must not edit the program, so layer timings come from
wrapping the public functions of each layer module from the outside. A
wrapper is installed at every module attribute that holds the original
function, because that is what callers look up at call time: cli calls
``load_config`` through its own namespace and metrics calls
``rasterize_support`` through its own, so wrapping only the defining module
would miss those calls. ``Objective.evaluate`` is wrapped on the class,
since lbfgsb binds the method once per solve.

Spans are kept in memory as (name, parent, start, end, counters) and
reduced to per-layer numbers once the traced stages have run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

PACKAGE = "robust_recon"
LAYER_MODULES = ("model", "acquisition", "preprocess", "solvers", "metrics",
                 "artifacts", "config")


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _row_updates(args, kwargs, result):
    system = args[0] if args else kwargs["system"]
    # kaczmarz_reg skips zero rows, so only rows with a nonzero norm count
    usable = int((abs(system.A).sum(axis=1) > 0.0).sum())
    return {"row_updates": usable * result.iterations}


def _complex_draws(args, kwargs, result):
    # an EmptyScanSet, a Measurement or a bare (voxels, coils, freqs) array
    for attr in ("spectra", "spectrum"):
        result = getattr(result, attr, result)
    return {"complex_draws": int(result.size)}


# Counters taken from a call's arguments and result after its span closed,
# so computing them costs no traced time.
COUNTERS = {
    "artifacts.write_artifact": _file_bytes,
    "artifacts.read_artifact": _file_bytes,
    "artifacts.sha256_file": _file_bytes,
    "solvers.lbfgsb": lambda a, k, r: {"iterations": r.iterations,
                                       "converged": int(bool(r.converged))},
    "solvers.kaczmarz_reg": _row_updates,
    "model.simulate_system_matrix": lambda a, k, r: {
        "voxel_samples": r.voxel_count * a[0].samples_per_period},
    "acquisition.draw_empty_scans": _complex_draws,
    "acquisition.draw_calibration_scans": _complex_draws,
    "acquisition.draw_phantom_measurement": _complex_draws,
    "preprocess.assemble_reduced_system": lambda a, k, r: {"rows_retained": r.rows},
    "metrics.reference_stack": lambda a, k, r: {"shifts": int(r.shape[0])},
}


class Tracer:
    """Records nested spans; one instance per traced process."""

    def __init__(self):
        self.spans = []   # [name, parent index or -1, start, end, counters]
        self._open = []   # indices of the spans now open, innermost last

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, time.perf_counter(), None, {}])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._open.pop()

    def _wrapper(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                self.spans[index][4] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules at every module
        attribute that refers to it, plus Objective.evaluate."""
        # the namespaces that may hold imported copies of layer functions
        lookups = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in LAYER_MODULES + ("cli",)]
        for short in LAYER_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    continue
                traced = self._wrapper(f"{short}.{attr}", fn)
                for owner in lookups:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            setattr(owner, key, traced)
        objective = importlib.import_module(f"{PACKAGE}.solvers").Objective
        objective.evaluate = self._wrapper("solvers.Objective.evaluate",
                                           objective.evaluate)


def summarize(spans) -> dict:
    """Per span name: calls, total seconds, self seconds (duration minus
    direct children) and summed counters. No layer function calls itself,
    so no span nests inside one of the same name."""
    children = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    out = {}
    for i, (name, parent, start, end, counters) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += (end - start) - children[i]
        for key, value in counters.items():
            entry[key] = entry.get(key, 0) + value
    return out
