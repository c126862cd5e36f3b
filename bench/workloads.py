"""The three benchmark workloads.

Every workload solves a fixed list of problem instances, each to a fixed
iteration cap with no wall-clock stop.  An instance's Poisson noise seed
is derived from the benchmark seed, so the same seed gives the same
inputs.  Each solve is one operation; it fails if it raises or stops
short of its cap, or if its output fails a check in `reference`.
"""

from contextlib import contextmanager, redirect_stdout
import io
import json
import os
from time import perf_counter

import numpy as np

import poissontv.cli
import poissontv.image
import poissontv.solver

import reference

SETUP_REPEATS = 3       # timed set-ups per instance; the last one is used
NO_TIME_LIMIT = 1e9     # seconds: the iteration cap is the only stop
SWEEP_TOL = 1e-12       # below any relative change the capped runs reach
LAMBDA, MU = 6e-3, 1e-2
SOLVER_ERRORS = (RuntimeError, ValueError, FloatingPointError)


def instance_seeds(seed, count):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


class Progress:
    """on_iterate hook: timestamps, work counts and the benchmark's own
    relative error at each iterate.  Its own time is excluded from the
    solver time it reports.

    A solve that never reaches the target counts as reaching it one
    iteration after the cap, with all its time and blur calls, and is
    marked `missed`."""

    def __init__(self, probe, truth, target):
        self.probe = probe
        self.truth = truth
        self.target = target
        self.inner = None            # the caller's own on_iterate
        self.inputs = {}             # what the isolated timings need
        self.iters = 0
        self.hit = None              # (iterations, solver s, blur calls)
        self.missed = False
        self.objective_calls = []    # cumulative, one per iterate (traced)
        self.last = (None, None)     # the last two iterates
        self.overhead = 0.0
        self.start = None

    def begin(self, inner=None, **inputs):
        self.inner = inner
        self.inputs = inputs
        self.counts_start = dict(self.probe.counts)
        self.start = perf_counter()

    def __call__(self, k, x, rel_change):
        now = perf_counter()
        self.iters += 1
        self.last = (self.last[1], x)
        if self.probe.tracing:
            self.objective_calls.append(self.probe.count("objective_value"))
        if self.hit is None and reference.rel_error(x, self.truth) <= self.target:
            self.hit = (self.iters, now - self.start - self.overhead,
                        self._blur_calls())
        if self.inner is not None:
            self.inner(k, x, rel_change)
        self.overhead += perf_counter() - now

    def _blur_calls(self):
        return self.probe.blur_calls() - self.probe.blur_calls(self.counts_start)

    def finish(self):
        if self.start is None:       # the solver was never reached
            self.begin()
        self.solve_s = perf_counter() - self.start - self.overhead
        self.counts = {name: n - self.counts_start.get(name, 0)
                       for name, n in self.probe.counts.items()}
        if self.hit is None:
            self.missed = True
            self.hit = (self.iters + 1, self.solve_s, self._blur_calls())


def _read_f64img(path):
    """This file's own reader: magic, r, s (uint32 LE), column-major data."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:6] != b"F64IMG":
        raise ValueError(f"{path}: bad magic")
    r, s = np.frombuffer(raw[6:14], dtype="<u4")
    return np.frombuffer(raw[14:], dtype="<f8").reshape(s, r).T.copy()


class Solve:
    """Outcome of one operation; `problems` empty means it passed, and
    `wrong` means a returned output failed a check."""

    def __init__(self, method, progress, problems, final_err=float("nan"),
                 wrong=False):
        self.method = method
        self.progress = progress
        self.problems = problems
        self.final_err = final_err
        self.wrong = wrong

    @property
    def failed(self):
        return bool(self.problems)


def _checked(method, progress, x, values, cap, memory, check):
    """Run the reference checks on one returned solve."""
    f0, f0_scale = check["objective"](check["start"])
    wrong = reference.check_output(x, values, memory, f0, f0_scale,
                                   check["objective"](x),
                                   flux=check.get("flux"))
    stopped = ([f"stopped after {len(values)} of {cap} iterations"]
               if len(values) != cap else [])
    return Solve(method, progress, wrong + stopped,
                 reference.rel_error(x, check["truth"]), wrong=bool(wrong))


class LibraryWorkload:
    """One solver called as a library on the default phantom problem:
    256^2 modified Shepp-Logan, full-support Gaussian PSF (sigma 2), SNR
    35, lambda 6e-3, mu 1e-2, S1, no MSSIM tracking; `start` is the CLI's
    start option ("observed" or "flat")."""

    def __init__(self, method, start, cap, target, instances):
        self.method = method
        self.start = start
        self.cap = cap
        self.target = target
        self.instances = instances

    def run_instance(self, seed, probe, workdir, setups):
        cli = poissontv.cli
        cfg = dict(cli.DEFAULTS, seed=seed, method=self.method,
                   start=self.start, max_iters=self.cap,
                   max_time=NO_TIME_LIMIT)
        for _ in range(SETUP_REPEATS):
            with probe.span("bench.setup"):
                start = perf_counter()
                problem = cli.resolve_problem(cfg)
                setups.append(perf_counter() - start)
        fs = cli.feasible_set_for(cfg, problem)
        x0 = cli.starting_guess(cfg, problem)
        config = cli.solver_config(cfg, tol=0.0)
        solve = getattr(poissontv.solver, "acquire_solve" if self.method
                        == "acquire" else "sgp_restore")
        truth = problem.ground_truth
        progress = Progress(probe, truth, self.target)
        with probe.span("bench.solve"):
            progress.begin(**_inputs(cfg, problem, fs))
            try:
                x, trace = solve(problem.data(), fs, x0, config,
                                 ground_truth=truth, on_iterate=progress)
            except SOLVER_ERRORS as exc:
                x = exc
            progress.finish()
        if isinstance(x, Exception):
            return ([Solve(self.method, progress, [f"raised {x!r}"])],
                    progress.solve_s)
        path = os.path.join(workdir, "restored.f64img")
        with probe.span("bench.save"):
            poissontv.image.save_f64img(path, x)
        blur = reference.DirectBlur(problem.psf.kernel, x.shape)
        y, b = problem.observed, problem.scaled_background
        check = {
            "truth": truth,
            "start": fs.project(x0),
            "objective": lambda z: reference.objective(blur, y, b, z,
                                                       LAMBDA, MU),
        }
        memory = 1 if self.method == "sgp" else cfg["memory"]
        solve = _checked(self.method, progress, x, trace.objective,
                         self.cap, memory, check)
        if not np.array_equal(_read_f64img(path), x):
            solve.problems.append("saved image does not read back exactly")
            solve.wrong = True
        return [solve], progress.solve_s


class SweepWorkload:
    """The CLI path: `generate` a motion-blur bundle (length 11, 45
    degrees), then one `sweep` per method on S2 from the flat start, with
    per-iteration MSSIM, trace files and restored images."""

    def __init__(self, caps, targets, instances):
        self.caps = caps
        self.targets = targets
        self.instances = instances

    def run_instance(self, seed, probe, workdir, setups):
        main = poissontv.cli.main
        bundle = os.path.join(workdir, "bundle")
        generate = ["generate", "--blur", "motion", "--len", "11",
                    "--angle", "45", "--snr", "35", "--seed", str(seed),
                    "--out", bundle]
        for _ in range(SETUP_REPEATS):
            with probe.span("bench.setup"):
                start = perf_counter()
                _quiet(main, generate)
                setups.append(perf_counter() - start)
        with open(os.path.join(bundle, "meta.json")) as fh:
            meta = json.load(fh)
        truth = _read_f64img(os.path.join(bundle, "ground_truth.f64img"))
        y = _read_f64img(os.path.join(bundle, "observed.f64img"))
        blur = reference.DirectBlur(
            _read_f64img(os.path.join(bundle, "psf.f64img")), y.shape)
        b = meta["background"] / meta["scale"]
        check = {
            "truth": truth,
            "flux": meta["flux"],
            "start": np.full(y.shape, meta["flux"] / y.size),
            "objective": lambda z: reference.objective(blur, y, b, z,
                                                       LAMBDA, MU),
        }
        solves = []
        run_s = 0.0
        for method in ("acquire", "sgp"):
            out = os.path.join(workdir, method)
            sweep = ["sweep", "--problem", bundle, "--method", method,
                     "--constraint", "s2", "--blur", "motion",
                     "--lambda", repr(LAMBDA), "--mu", repr(MU),
                     "--tol", repr(SWEEP_TOL), "--max-iters",
                     str(self.caps[method]), "--max-time",
                     repr(NO_TIME_LIMIT), "--out", out]
            progress = Progress(probe, truth, self.targets[method])
            with probe.span("bench.solve"), _hooked_run_method(progress):
                start = perf_counter()
                try:
                    status = _quiet(main, sweep)
                except SOLVER_ERRORS as exc:
                    status = exc
                run_s += perf_counter() - start - progress.overhead
            progress.finish()
            if status != 0:
                solves.append(Solve(method, progress,
                                    [f"sweep returned {status!r}"]))
                continue
            tag = f"{method}_tol{SWEEP_TOL:.0e}".replace("+", "")
            x = _read_f64img(os.path.join(out, f"restored_{tag}.f64img"))
            values = _trace_objective(os.path.join(out, f"trace_{tag}.csv"))
            memory = 1 if method == "sgp" else poissontv.cli.DEFAULTS["memory"]
            solves.append(_checked(method, progress, x, values,
                                   self.caps[method], memory, check))
        return solves, run_s


def _inputs(cfg, problem, feasible_set):
    return {"data": problem.data(), "feasible_set": feasible_set,
            "truth": problem.ground_truth, "lam": cfg["lambda"],
            "mu": cfg["mu"], "gamma": cfg["gamma"]}


def _quiet(fn, *args):
    with redirect_stdout(io.StringIO()):
        return fn(*args)


def _trace_objective(path):
    with open(path) as fh:
        column = fh.readline().strip().split(",").index("objective")
        return [float(line.split(",")[column]) for line in fh]


@contextmanager
def _hooked_run_method(progress):
    """Patch `poissontv.cli.run_method` so the solve the CLI starts
    reports through `progress`, chained before the CLI's own hook."""
    original = poissontv.cli.run_method

    def run_method(method, cfg, problem, *args, on_iterate=None, **kwargs):
        progress.begin(on_iterate, **_inputs(
            cfg, problem, poissontv.cli.feasible_set_for(cfg, problem)))
        return original(method, cfg, problem, *args, on_iterate=progress,
                        **kwargs)

    poissontv.cli.run_method = run_method
    try:
        yield
    finally:
        poissontv.cli.run_method = original


# The -flat workloads' targets sit on steps of the error curve that every
# noise draw takes at the same iteration; from the observed start, the
# work to a target in the acceptance band depends on the draw (README).
WORKLOADS = {
    "acquire-gauss-s1": LibraryWorkload("acquire", "observed", cap=30,
                                        target=0.165, instances=3),
    "sgp-gauss-s1": LibraryWorkload("sgp", "observed", cap=150,
                                    target=0.165, instances=9),
    "acquire-gauss-s1-flat": LibraryWorkload("acquire", "flat", cap=10,
                                             target=0.3, instances=7),
    "sgp-gauss-s1-flat": LibraryWorkload("sgp", "flat", cap=150,
                                         target=0.3, instances=7),
    "sweep-motion-s2": SweepWorkload(caps={"acquire": 8, "sgp": 40},
                                     targets={"acquire": 0.25, "sgp": 0.165},
                                     instances=5),
}
