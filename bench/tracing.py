"""Spans and call counts recorded from outside the program.

Each probed function is replaced, under the name it is looked up by,
with a wrapper that counts its calls and, when tracing, records a span
(name, start, end, parent).  Spans stay in memory until `write`.
Methods are patched on their class, so every call site sees them.
"""

from contextlib import contextmanager
import importlib
import json
from time import perf_counter

# (module, attribute path) of every function the traced run wraps.
# Free functions are listed under each module that looks them up.
PROBES = {
    "blur": [
        ("poissontv.blur", "BlurOperator.__init__"),
        ("poissontv.blur", "BlurOperator.apply"),
        ("poissontv.blur", "BlurOperator.apply_adjoint"),
        ("poissontv.cli", "gaussian_psf"),
        ("poissontv.cli", "motion_psf"),
    ],
    "kl": [
        ("poissontv.kl", "PoissonData.__init__"),
        ("poissontv.kl", "PoissonData.forward"),
        ("poissontv.kl", "kl_value"),
        ("poissontv.solver", "kl_value"),
        ("poissontv.solver", "kl_gradient"),
        ("poissontv.kl", "KlQuadraticModel.__init__"),
        ("poissontv.kl", "KlQuadraticModel.value"),
        ("poissontv.kl", "KlQuadraticModel.gradient"),
        ("poissontv.kl", "KlQuadraticModel.hessian_vec"),
    ],
    "tv": [
        ("poissontv.tv", "tv_mu_value"),
        ("poissontv.solver", "tv_mu_value"),
        ("poissontv.solver", "tv_mu_gradient"),
        ("poissontv.tv", "TvQuadraticModel.__init__"),
        ("poissontv.tv", "TvQuadraticModel.value"),
        ("poissontv.tv", "TvQuadraticModel.gradient"),
        ("poissontv.tv", "TvQuadraticModel.hessian_vec"),
    ],
    "constraints": [
        ("poissontv.constraints", "FeasibleSet.project"),
        ("poissontv.constraints", "FeasibleSet.project_weighted"),
        ("poissontv.constraints", "FeasibleSet.projected_gradient"),
        ("poissontv.constraints", "FeasibleSet.contains"),
    ],
    "sgp": [
        ("poissontv.solver", "sgp_solve"),
        ("poissontv.sgp", "abbmin_steplength"),
        ("poissontv.sgp", "scaling_matrix"),
    ],
    "solver": [
        ("poissontv.solver", "acquire_solve"),
        ("poissontv.solver", "sgp_restore"),
        ("poissontv.cli", "acquire_solve"),
        ("poissontv.cli", "sgp_restore"),
        ("poissontv.solver", "objective_value"),
        ("poissontv.solver", "objective_gradient"),
        ("poissontv.solver", "OuterModel.__init__"),
        ("poissontv.solver", "OuterModel.value"),
        ("poissontv.solver", "OuterModel.gradient"),
        ("poissontv.solver", "OuterModel.hessian_vec"),
        ("poissontv.solver", "_SmoothObjective.value"),
        ("poissontv.solver", "_SmoothObjective.gradient"),
        ("poissontv.solver", "_rel_error"),
    ],
    "testbed": [
        ("poissontv.solver", "_mssim"),
        ("poissontv.cli", "shepp_logan"),
        ("poissontv.cli", "make_problem"),
        ("poissontv.cli", "save_problem"),
        ("poissontv.cli", "load_problem"),
        ("poissontv.testbed", "poisson_sample"),
    ],
    "image": [
        ("poissontv.image", "save_f64img"),
        ("poissontv.cli", "save_f64img"),
        ("poissontv.cli", "save_pgm"),
        ("poissontv.testbed", "save_f64img"),
        ("poissontv.testbed", "load_f64img"),
        ("poissontv.blur", "save_f64img"),
        ("poissontv.blur", "load_f64img"),
    ],
    "cli": [
        ("poissontv.cli", "main"),
        ("poissontv.cli", "cmd_generate"),
        ("poissontv.cli", "cmd_sweep"),
        ("poissontv.cli", "load_config"),
        ("poissontv.cli", "resolve_problem"),
        ("poissontv.cli", "build_psf"),
        ("poissontv.cli", "feasible_set_for"),
        ("poissontv.cli", "starting_guess"),
        ("poissontv.cli", "solver_config"),
        ("poissontv.cli", "run_method"),
        ("poissontv.cli", "sweep_rows"),
        ("poissontv.cli", "write_summary"),
        ("poissontv.cli", "write_meta"),
        ("poissontv.cli", "save_restored"),
    ],
}

BLUR_CALLS = ("poissontv.blur.BlurOperator.apply",
              "poissontv.blur.BlurOperator.apply_adjoint")
WRITERS = ("save_f64img", "save_pgm")


class Probe:
    """Call counts always; spans only when `tracing` is set."""

    def __init__(self, tracing, run_id=""):
        self.tracing = tracing
        self.run_id = run_id
        self.counts = {}
        self.spans = []          # [name, layer, start, end, parent index]
        self.bytes_written = 0
        self.inner_solves = []   # (target, final pg norm, iterations)
        self._stack = []
        self._saved = []

    def _wrap(self, name, layer, fn):
        counts = self.counts
        counts.setdefault(name, 0)
        if not self.tracing:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            counts[name] += 1
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            self._observe(name, args, kwargs, result)
            return result
        return traced

    def _observe(self, name, args, kwargs, result):
        if name.endswith(WRITERS):
            with open(args[0], "rb") as fh:
                self.bytes_written += fh.seek(0, 2)
        elif name == "poissontv.solver.sgp_solve":
            inner = result[1]
            self.inner_solves.append((kwargs.get("stop_norm_target"),
                                      inner.final_pg_norm, inner.iterations))

    def patch(self, module, path, layer):
        owner = module
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        name = f"{module.__name__}.{path}"
        setattr(owner, attr, self._wrap(name, layer, original))
        self._saved.append((owner, attr, original))

    @contextmanager
    def span(self, name, layer="bench"):
        """Record one span; the benchmark's own spans are layer "bench"."""
        if not self.tracing:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, layer, perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][3] = perf_counter()

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def blur_calls(self, counts=None):
        counts = self.counts if counts is None else counts
        return sum(counts.get(name, 0) for name in BLUR_CALLS)

    def count(self, suffix):
        """Calls to a function under every name it is looked up by."""
        return sum(n for name, n in self.counts.items()
                   if name.endswith("." + suffix))

    def self_times(self):
        """Per-layer self time: span time minus time covered by children."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for (name, layer, start, end, _), covered in zip(self.spans, child):
            totals[layer] = totals.get(layer, 0.0) + (end - start - covered)
        return totals

    def total_time(self, names):
        return sum(end - start for name, _, start, end, _ in self.spans
                   if name in names)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"run": self.run_id,
                       "columns": ["name", "layer", "start", "end", "parent"],
                       "spans": self.spans}, fh)


@contextmanager
def probed(tracing, run_id=""):
    """Patch the program for one run; blur calls are counted either way."""
    probe = Probe(tracing, run_id)
    try:
        for layer, targets in PROBES.items():
            for module_name, path in targets:
                full = f"{module_name}.{path}"
                if tracing or full in BLUR_CALLS:
                    probe.patch(importlib.import_module(module_name), path,
                                layer)
        yield probe
    finally:
        probe.restore()
