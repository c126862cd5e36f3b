"""The benchmark's tracer wraps program functions under the names they
are looked up by (`bench/tracing.py`), and its layer timings import
program functions directly (`bench/layers.py`).  A refactor that renames
or moves one of them breaks `bench/run.py --trace 1`; these tests catch
that without running the benchmark."""

import importlib
import importlib.util
import inspect
import os

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, "bench")


def load_bench_module(name):
    """Load `bench/<name>.py` from its path, under a private name."""
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_resolves_to_an_owned_function():
    # Probe.patch walks the dotted path with getattr and then reads the
    # last part from the owner's __dict__, so a method must be defined
    # on the class it is listed under and a free function must be bound
    # in the module that looks it up.
    missing = []
    for targets in load_bench_module("tracing").PROBES.values():
        for module_name, path in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            if not callable(getattr(owner, "__dict__", {}).get(attr)):
                missing.append(f"{module_name}.{path}")
    assert not missing, f"probes naming no function: {missing}"


def test_layer_timings_import_and_call_patterns():
    from poissontv.blur import gaussian_psf
    from poissontv.constraints import FeasibleSet
    from poissontv.sgp import sgp_solve
    from poissontv.testbed import make_problem, shepp_logan

    # The tracer reads the inner stop target from this keyword.
    assert "stop_norm_target" in inspect.signature(sgp_solve).parameters
    # `--trace 1` calls the layer timings with a workload's last two
    # iterates; a changed signature among the functions they call fails
    # here.
    problem = make_problem(shepp_logan(32), gaussian_psf(5, 1.0), 30.0, 1)
    feasible = FeasibleSet.nonneg()
    x_prev = feasible.project(problem.observed)
    timings = load_bench_module("layers").isolated_timings(
        problem.data(), feasible, x_prev, 0.9 * x_prev + 0.01,
        problem.ground_truth, 6e-3, 1e-2, 1e-5)
    assert timings and all(t >= 0.0 for t in timings.values())


def test_mssim_is_timed_once_per_recorded_iterate(monkeypatch):
    # The tracer times per-iterate MSSIM through `poissontv.solver._mssim`.
    import numpy as np
    from poissontv import solver
    from poissontv.blur import gaussian_psf
    from poissontv.constraints import FeasibleSet
    from poissontv.testbed import make_problem, shepp_logan

    problem = make_problem(shepp_logan(32), gaussian_psf(5, 1.0), 30.0, 1)
    calls = []
    mssim = solver._mssim
    monkeypatch.setattr(solver, "_mssim",
                        lambda *args: calls.append(1) or mssim(*args))
    for run in (solver.acquire_solve, solver.sgp_restore):
        for track in (True, False):
            calls.clear()
            config = solver.AcquireConfig(lam=6e-3, tol=0.0,
                                          max_outer_iters=4,
                                          track_mssim=track)
            _, trace = run(problem.data(), FeasibleSet.nonneg(),
                           problem.observed, config,
                           ground_truth=problem.ground_truth)
            assert len(calls) == (len(trace.iters) if track else 0)
            assert np.isnan(trace.mssim).all() != track
