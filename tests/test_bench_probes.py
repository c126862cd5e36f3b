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
    # The tracer times MSSIM through `poissontv.solver._mssim`, which
    # `cli.sweep_rows` calls through the module, once for each distinct
    # minimum-error iterate its rows record: at most once per row.
    import numpy as np
    import poissontv.cli
    from poissontv import solver

    calls = []
    mssim = solver._mssim
    monkeypatch.setattr(solver, "_mssim",
                        lambda *args: calls.append(1) or mssim(*args))
    cfg = dict(poissontv.cli.DEFAULTS, size=32, snr=30.0, seed=4,
               max_iters=40)
    problem = poissontv.cli.resolve_problem(cfg)
    for method in ("acquire", "sgp"):
        calls.clear()
        rows = poissontv.cli.sweep_rows(method, cfg, problem,
                                        [1e-2, 1e-3, 1e-9])
        scored = ~np.isnan(rows[0]["_trace"].mssim)
        assert 1 <= len(calls) == np.count_nonzero(scored) <= len(rows)


def test_probed_counts_cover_every_evaluation():
    # `bench/run.py` derives solver.objective_calls_per_iter,
    # sgp.accept_ratio and solver.unit_step_ratio from the calls to
    # `poissontv.solver.objective_value` (one at the start, then one per
    # line-search trial), and kl.hessian_calls_per_iter from those to
    # `KlQuadraticModel.hessian_vec` (one per inner iteration).  A
    # refactor that evaluated past these names would skew them.
    import numpy as np
    from poissontv import sgp, solver
    from poissontv.blur import gaussian_psf
    from poissontv.constraints import FeasibleSet
    from poissontv.testbed import make_problem, shepp_logan

    problem = make_problem(shepp_logan(32), gaussian_psf(5, 1.0), 30.0, 1)
    # From the flat start SGP backtracks at three of its first 20 steps.
    flat = np.full_like(problem.observed, problem.flux / problem.observed.size)
    config = solver.AcquireConfig(lam=6e-3, tol=0.0, max_outer_iters=20,
                                  max_time=float("inf"))
    tracing = load_bench_module("tracing")
    with tracing.probed(True) as probe:
        _, trace = solver.sgp_restore(problem.data(), FeasibleSet.nonneg(),
                                      flat, config)
        trials = [1 + round(np.log(a) / np.log(sgp.BACKTRACK))
                  for a in trace.alpha]
        assert len(trials) == 20 and max(trials) > 1
        assert probe.counts["poissontv.solver.objective_value"] == (
            1 + sum(trials))
    with tracing.probed(True) as probe:
        _, trace = solver.acquire_solve(problem.data(), FeasibleSet.nonneg(),
                                        problem.observed, config)
        assert len(trace.iters) == 20 and sum(trace.inner_iters) > 0
        assert probe.counts["poissontv.kl.KlQuadraticModel.hessian_vec"] == (
            sum(trace.inner_iters))
