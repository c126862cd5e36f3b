"""End-to-end acceptance gate.

Each test covers one acceptance criterion and emits a single pass/fail
line (visible with `pytest -v`; the printed detail lines additionally
appear with `-s` or `-rA`).  The phantom benchmark runs are shared
across criteria 1-4 through a module-level cache, and a tolerance sweep
is evaluated from a single run at the tightest tolerance: stopping at a
looser tolerance truncates the same deterministic iterate sequence.
Criteria 1-4 carry the `slow` marker (ten 25-second runs per method);
`pytest -m "not slow"` leaves them out.  Each has a companion that reads
the same instances stopped on an outer-iteration cap alone, one cap per
method (CAPS), so its results have the same bits on any machine, however
fast.
"""

import itertools
import time

import numpy as np
import pytest

from poissontv import sgp
from poissontv.blur import BlurOperator, gaussian_psf
from poissontv.constraints import DiagonalMetric, FeasibleSet
from poissontv.kl import KlQuadraticModel, PoissonData, kl_gradient, kl_value
from poissontv.solver import (AcquireConfig, OuterModel, acquire_solve,
                              objective_gradient, objective_value,
                              sgp_restore)
from poissontv.testbed import (make_problem, measured_snr, mssim,
                               poisson_sample, shepp_logan)
from poissontv.tv import TvStencil, tv_mu_gradient, tv_mu_value

from test_blur import dense_matrix
from test_constraints import oracle_project, oracle_tangent
from test_solver import toy_config, toy_problem

SEEDS = (1, 2, 3, 4, 5)
LAMBDA = {35.0: 6e-3, 40.0: 4e-3}
TOLS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)

# Outer iterations of each method's runs in the capped companions.  SGP
# iterations are cheaper and make less progress each; at 600 its minimum
# errors lie within 0.2% of ACQUIRE's 100-iteration ones on all ten
# instances.
CAPS = {"acquire": 100, "sgp": 600}

_RUNS = {}


def phantom_run(method, snr, seed, capped=False):
    """One benchmark run, cached across criteria: 25 seconds long, or if
    `capped`, CAPS[method] outer iterations with no clock."""
    key = (method, snr, seed, capped)
    if key in _RUNS:
        return _RUNS[key]
    problem = make_problem(shepp_logan(256), gaussian_psf(255, 2.0),
                           snr, seed)
    stop = (dict(max_time=np.inf, max_outer_iters=CAPS[method]) if capped
            else dict(max_time=25.0))
    config = AcquireConfig(lam=LAMBDA[snr], mu=1e-2, tol=min(TOLS), **stop)
    truth = problem.ground_truth
    truth_norm = float(np.linalg.norm(truth))
    best = {"err": np.inf, "x": None}

    def on_iterate(k, x, rel_change):
        err = float(np.linalg.norm(x - truth)) / truth_norm
        if err < best["err"]:
            best["err"] = err
            best["x"] = x.copy()

    run = acquire_solve if method == "acquire" else sgp_restore
    _, trace = run(problem.data(), FeasibleSet.nonneg(), problem.observed,
                   config, ground_truth=truth, on_iterate=on_iterate)
    errs = trace.rel_error
    _RUNS[key] = {
        "min_rel_err": min(errs),
        "mssim": mssim(best["x"], truth),
        "err_at_10": errs[9] if len(errs) >= 10 else errs[-1],
        "trace": trace,
    }
    return _RUNS[key]


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def median_band(snr, err_band, mssim_floor, capped=False):
    runs = [phantom_run("acquire", snr, s, capped) for s in SEEDS]
    errs = [r["min_rel_err"] for r in runs]
    sims = [r["mssim"] for r in runs]
    med_err = float(np.median(errs))
    med_sim = float(np.median(sims))
    ok = err_band[0] <= med_err <= err_band[1] and med_sim >= mssim_floor
    return ok, med_err, med_sim


@pytest.mark.slow
def test_criterion_1_phantom_snr35_error_and_mssim_bands():
    ok, med_err, med_sim = median_band(35.0, (0.12, 0.165), 0.95)
    report(1, ok, f"SNR=35 median min rel err {med_err:.4f} in [0.12, "
                  f"0.165], median MSSIM {med_sim:.4f} >= 0.95")


@pytest.mark.slow
def test_criterion_1_on_an_iteration_cap():
    ok, med_err, med_sim = median_band(35.0, (0.12, 0.165), 0.95, True)
    report("1 (capped)", ok,
           f"SNR=35 median min rel err {med_err:.4f} in [0.12, 0.165], "
           f"median MSSIM {med_sim:.4f} >= 0.95, over "
           f"{CAPS['acquire']}-outer-iteration runs with no clock")


@pytest.mark.slow
def test_criterion_2_phantom_snr40_error_and_mssim_bands():
    ok, med_err, med_sim = median_band(40.0, (0.11, 0.15), 0.96)
    report(2, ok, f"SNR=40 median min rel err {med_err:.4f} in [0.11, "
                  f"0.15], median MSSIM {med_sim:.4f} >= 0.96")


@pytest.mark.slow
def test_criterion_2_on_an_iteration_cap():
    ok, med_err, med_sim = median_band(40.0, (0.11, 0.15), 0.96, True)
    report("2 (capped)", ok,
           f"SNR=40 median min rel err {med_err:.4f} in [0.11, 0.15], "
           f"median MSSIM {med_sim:.4f} >= 0.96, over "
           f"{CAPS['acquire']}-outer-iteration runs with no clock")


def worst_parity_gap(capped=False):
    """The largest relative gap between the two methods' minimum errors
    over the phantom instances."""
    worst = 0.0
    for snr in (35.0, 40.0):
        for seed in SEEDS:
            a = phantom_run("acquire", snr, seed, capped)["min_rel_err"]
            b = phantom_run("sgp", snr, seed, capped)["min_rel_err"]
            worst = max(worst, abs(a - b) / a)
    return worst


@pytest.mark.slow
def test_criterion_3_acquire_sgp_parity():
    worst = worst_parity_gap()
    report(3, worst <= 0.05,
           f"min rel errs of the two methods agree within 5% on every "
           f"phantom instance (worst gap {100 * worst:.2f}%)")


@pytest.mark.slow
def test_criterion_3_on_an_iteration_cap():
    worst = worst_parity_gap(True)
    report("3 (capped)", worst <= 0.05,
           f"min rel errs of the two methods agree within 5% on every "
           f"phantom instance (worst gap {100 * worst:.2f}%), over "
           f"runs of {CAPS['acquire']} ACQUIRE and {CAPS['sgp']} SGP "
           f"outer iterations with no clock")


def early_progress(capped=False):
    """Median over the seeds of the SNR-35 ACQUIRE error after 10 outer
    iterations over the run's minimum."""
    runs = [phantom_run("acquire", 35.0, s, capped) for s in SEEDS]
    return float(np.median([r["err_at_10"] / r["min_rel_err"]
                            for r in runs]))


@pytest.mark.slow
def test_criterion_4_early_progress():
    med = early_progress()
    report(4, med <= 1.25,
           f"SNR=35 rel err after 10 outer iterations <= 1.25x the run "
           f"minimum (median ratio {med:.3f})")


@pytest.mark.slow
def test_criterion_4_early_progress_on_an_iteration_cap():
    med = early_progress(True)
    capped = all(phantom_run("acquire", 35.0, s, True)["trace"].stop_reason
                 == "cap" for s in SEEDS)
    report("4 (capped)", med <= 1.25 and capped,
           f"SNR=35 rel err after 10 outer iterations <= 1.25x the minimum "
           f"of a {CAPS['acquire']}-outer-iteration run with no clock "
           f"(median ratio {med:.3f}, every run on its cap: {capped})")


def test_criterion_5_oracle_equivalence_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    # Projections vs brute-force KKT enumeration for n <= 6.
    for n in range(2, 7):
        for _ in range(10):
            v = rng.standard_normal(n) * 2.0
            d = rng.uniform(0.2, 5.0, n)
            c = rng.uniform(0.5, 3.0)
            s1 = FeasibleSet.nonneg()
            s2 = FeasibleSet.nonneg_flux(c)
            metric = DiagonalMetric(d, 0.2, 5.0)
            pairs = [
                (s1.project(v), oracle_project(v, np.ones(n), None)),
                (s2.project(v), oracle_project(v, np.ones(n), c)),
                (s2.project_weighted(metric, v), oracle_project(v, d, c)),
            ]
            x = np.maximum(rng.standard_normal(n), 0.0)
            if not x.any():
                x[0] = 1.0
            grad = rng.standard_normal(n)
            pairs.append((s1.projected_gradient(x, grad),
                          oracle_tangent(-grad, x == 0, False)))
            s2x = FeasibleSet.nonneg_flux(float(x.sum()))
            pairs.append((s2x.projected_gradient(x, grad),
                          oracle_tangent(-grad, x == 0, True)))
            for got, want in pairs:
                worst = max(worst, float(np.abs(got - want).max()))
    # FFT operator vs dense circulant on 8x8 images.
    op = BlurOperator(gaussian_psf(5, 1.2), 8, 8)
    a = dense_matrix(op)
    for _ in range(5):
        x = rng.random((8, 8))
        v = x.ravel(order="F")
        worst = max(worst, float(np.abs(
            op.apply(x).ravel(order="F") - a @ v).max()))
        worst = max(worst, float(np.abs(
            op.apply_adjoint(x).ravel(order="F") - a.T @ v).max()))
    elapsed = time.perf_counter() - start
    report(5, worst <= 1e-10 and elapsed <= 10.0,
           f"projection and operator oracles agree within 1e-10 (worst "
           f"{worst:.2e}) in {elapsed:.1f} s <= 10 s")


def test_criterion_6_derivative_suite():
    problem = toy_problem()
    data = problem.data()
    rng = np.random.default_rng(101)
    x = rng.random(problem.observed.shape) + 0.2
    mu = 1e-2
    assert np.all(np.abs(TvStencil(x).fill(x).norms - mu) > 1e-3)

    def fd_gradient(f, x, h=1e-6):
        g = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            step = h * (1.0 + abs(x[idx]))
            xp, xm = x.copy(), x.copy()
            xp[idx] += step
            xm[idx] -= step
            g[idx] = (f(xp) - f(xm)) / (2.0 * step)
        return g

    def rel(a, b):
        return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30))

    kl_gap = rel(kl_gradient(data, x),
                 fd_gradient(lambda z: kl_value(data, z), x))
    tv_gap = rel(tv_mu_gradient(x, mu),
                 fd_gradient(lambda z: tv_mu_value(z, mu), x))
    lam = 1e-3
    model = OuterModel(data, x, lam, mu, 1e-5)
    model_gap = rel(model.gradient(x),
                    fd_gradient(model.value, x))
    v = rng.standard_normal(x.shape)
    h = 1e-6
    hess_fd = (kl_gradient(data, x + h * v)
               - kl_gradient(data, x - h * v)) / (2 * h)
    hess_gap = rel(KlQuadraticModel(data, x, 0.0).hessian_vec(v), hess_fd)
    tangency = float(np.abs(model.gradient(x)
                            - objective_gradient(data, x, lam, mu)).max())
    ok = (kl_gap <= 1e-6 and tv_gap <= 1e-6 and model_gap <= 1e-6
          and hess_gap <= 1e-5 and tangency <= 1e-12)
    report(6, ok,
           f"gradients match finite differences within 1e-6 (kl {kl_gap:.1e},"
           f" tv {tv_gap:.1e}, model {model_gap:.1e}), hessian action within "
           f"1e-5 ({hess_gap:.1e}), model tangency within 1e-12 "
           f"({tangency:.1e})")


def test_criterion_7_convergence_suite():
    problem = toy_problem()
    data = problem.data()
    feasible = FeasibleSet.nonneg()
    config = toy_config()
    x0 = feasible.project(problem.observed)
    d_norms = []
    last = {"x": x0}

    def on_iterate(k, x, rel_change):
        d_norms.append(float(np.linalg.norm(x - last["x"])))
        last["x"] = x.copy()

    x, trace = acquire_solve(data, feasible, problem.observed, config,
                             on_iterate=on_iterate)
    grad = objective_gradient(data, x, config.lam, config.mu)
    pg = float(np.linalg.norm(feasible.projected_gradient(x, grad)))
    # GLL re-check of every accepted step.
    history = [objective_value(data, x0, config.lam, config.mu)]
    history += trace.objective
    gll_ok = all(history[k] <= max(history[max(0, k - config.memory):k])
                 + 1e-10 for k in range(1, len(history)))
    backtracks = max(round(np.log(a) / np.log(config.delta)) if a < 1 else 0
                     for a in trace.alpha)
    steps = [dn / a for dn, a in zip(d_norms, trace.alpha)]
    shrink = steps[-1] / steps[0]
    ok = (pg <= 1e-6 and gll_ok and backtracks < sgp.MAX_BACKTRACKS
          and shrink <= 1e-6)
    report(7, ok,
           f"8x8 strictly convex instance: final projected-gradient norm "
           f"{pg:.1e} <= 1e-6, every accepted step re-satisfies the "
           f"nonmonotone Armijo test ({gll_ok}), max backtracks "
           f"{backtracks} < {sgp.MAX_BACKTRACKS}, inner-step norm shrink {shrink:.1e} <= 1e-6")


def test_criterion_8_inner_stop_suite():
    problem = toy_problem()
    config = toy_config()          # uncapped inner iterations
    _, trace = acquire_solve(problem.data(), FeasibleSet.nonneg(),
                             problem.observed, config)
    ref = trace.inner_ref_norm[0]
    checked = 0
    ok = True
    for pg, target in zip(trace.pg_norm, trace.inner_target):
        if target >= 1e-12 * ref:  # resolvable in double precision
            ok = ok and pg <= target * (1 + 1e-12)
            checked += 1
    ok = ok and checked >= 5 and "cap" not in trace.inner_stop
    report(8, ok,
           f"uncapped inner solves meet the geometric threshold at every "
           f"outer iteration ({checked} thresholds checked, none missed)")


def test_criterion_9_noise_snr_suite():
    worst_gap = 0.0
    for snr in (35.0, 40.0):
        problem = make_problem(shepp_logan(256), gaussian_psf(255, 2.0),
                               snr, seed=1)
        worst_gap = max(worst_gap, abs(measured_snr(problem) - snr))
    draws = poisson_sample(np.full((1000, 100), 7.0), seed=7)
    mean_gap = abs(draws.mean() - 7.0)
    var_gap = abs(draws.var() - 7.0)
    ok = worst_gap <= 0.1 and mean_gap <= 0.05 and var_gap <= 0.2
    report(9, ok,
           f"measured SNR within 0.1 dB of target (worst {worst_gap:.3f}), "
           f"Poisson sample mean gap {mean_gap:.3f} <= 0.05 and variance "
           f"gap {var_gap:.3f} <= 0.2 at intensity 7")
