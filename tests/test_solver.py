import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from poissontv import sgp, solver
from poissontv.blur import BlurOperator, gaussian_psf
from poissontv.constraints import FeasibleSet
from poissontv.kl import PoissonData, kl_gradient, kl_value
from poissontv.sgp import SteplengthState, sgp_solve
from poissontv.solver import (AcquireConfig, OuterModel, SolverTrace,
                              _SmoothObjective, acquire_solve,
                              objective_gradient, objective_value,
                              sgp_restore)
from poissontv.testbed import make_problem, shepp_logan
from poissontv.tv import TvQuadraticModel, tv_mu_gradient


LAM = 1e-3


def toy_problem(n=8, seed=0):
    """Small strictly convex instance: smooth positive truth, y > 0."""
    rng = np.random.default_rng(seed)
    u = np.linspace(0.0, 1.0, n)
    reference = 0.2 + np.add.outer(np.sin(3 * u), np.cos(2 * u)) ** 2
    reference += 0.05 * rng.random((n, n))
    problem = make_problem(reference, gaussian_psf(3, 1.0), snr_db=30.0,
                           seed=seed, background=1e-3, sample_noise=False)
    assert np.all(problem.observed > 0)
    return problem


def toy_config(**overrides):
    base = dict(lam=LAM, tol=1e-10, max_outer_iters=500, max_time=60.0,
                inner_max_iters=0)
    base.update(overrides)
    return AcquireConfig(**base)


# --------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        AcquireConfig(lam=0.0)
    with pytest.raises(ValueError):
        AcquireConfig(lam=1.0, mu=-1.0)
    with pytest.raises(ValueError):
        AcquireConfig(lam=1.0, eta=1.5)
    with pytest.raises(ValueError):
        AcquireConfig(lam=1.0, theta=1.0)
    # -1 used to run uncapped like 0; 0 outer iterations left no trace.
    with pytest.raises(ValueError):
        AcquireConfig(lam=1.0, inner_max_iters=-1)
    with pytest.raises(ValueError):
        AcquireConfig(lam=1.0, max_outer_iters=0)
    # Non-integer counts used to pass: a NaN inner cap ran uncapped, and
    # the rest raised TypeError inside the solve.
    nan, inf = float("nan"), float("inf")
    for name in ("memory", "inner_max_iters", "max_outer_iters"):
        for bad in (2.5, nan, inf, True, 3.0):
            with pytest.raises(ValueError, match="integers"):
                AcquireConfig(lam=1.0, **{name: bad})
    AcquireConfig(lam=1.0, memory=np.int64(3), inner_max_iters=np.int32(0))
    # Non-finite settings used to run, some to a NaN image.
    for bad in (dict(lam=nan), dict(mu=nan), dict(tol=nan),
                dict(max_time=nan), dict(gamma=inf), dict(lam=inf)):
        with pytest.raises(ValueError):
            AcquireConfig(**{"lam": 1.0, **bad})
    # An infinite wall-clock budget means none.
    AcquireConfig(lam=1.0, max_time=inf)


# ---------------------------------------------------------- outer model


def test_outer_model_gradient_tangency():
    problem = toy_problem()
    data = problem.data()
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = rng.random(problem.observed.shape) + 0.1
        model = OuterModel(data, x, LAM, 1e-2, 1e-5)
        true_grad = kl_gradient(data, x) + LAM * tv_mu_gradient(x, 1e-2)
        assert np.allclose(model.gradient(x), true_grad, atol=1e-12)
        assert np.allclose(model.gradient(x),
                           objective_gradient(data, x, LAM, 1e-2), atol=1e-12)


def test_outer_model_curvature():
    problem = toy_problem()
    data = problem.data()
    gamma = 1e-5
    x = problem.observed
    model = OuterModel(data, x, LAM, 1e-2, gamma)
    rng = np.random.default_rng(2)
    v, w = rng.standard_normal((2, *x.shape))
    quad = float(np.vdot(v, model.hessian_vec(v)))
    assert quad >= gamma * float(np.vdot(v, v)) - 1e-12
    # Symmetry and linearity of the curvature action.
    lhs = float(np.vdot(model.hessian_vec(v), w))
    rhs = float(np.vdot(v, model.hessian_vec(w)))
    assert lhs == pytest.approx(rhs, rel=1e-10)
    assert np.allclose(model.hessian_vec(2.0 * v - w),
                       2.0 * model.hessian_vec(v) - model.hessian_vec(w),
                       rtol=1e-10, atol=1e-12)


def test_full_step_satisfies_armijo_on_the_model():
    # With an (almost) exact inner solve of the quadratic model, the unit
    # step satisfies the sufficient-decrease test since eta < 1/2.
    problem = toy_problem()
    data = problem.data()
    feasible = FeasibleSet.nonneg()
    x = feasible.project(problem.observed)
    model = OuterModel(data, x, LAM, 1e-2, 1e-5)
    x_hat, _ = sgp_solve(model, feasible, x, model.gradient(x),
                         SteplengthState(), max_iters=500,
                         stop_norm_target=1e-12)
    d = x_hat - x
    slope = float(np.vdot(model.gradient(x), d))
    assert slope < 0
    eta = 1e-5
    assert model.value(x_hat) <= model.value(x) + eta * slope + 1e-12
    # Strong convexity gives the descent bound on the direction.
    gamma = 1e-5
    assert slope <= -0.5 * gamma * float(np.vdot(d, d)) + 1e-10


# --------------------------------------------------------------- solves


def test_tol_infinite_stops_after_one_iteration():
    problem = toy_problem()
    x, trace = acquire_solve(problem.data(), FeasibleSet.nonneg(),
                             problem.observed, toy_config(tol=1e30))
    assert trace.iters == [1]


def test_convergence_on_strictly_convex_instance():
    problem = toy_problem()
    data = problem.data()
    feasible = FeasibleSet.nonneg()
    norms = [float(np.linalg.norm(problem.observed))]
    d_norms = []
    last = {"x": feasible.project(problem.observed)}

    def on_iterate(k, x, rel_change):
        d_norms.append(float(np.linalg.norm(x - last["x"])))
        last["x"] = x.copy()

    config = toy_config()
    x, trace = acquire_solve(data, feasible, problem.observed, config,
                             on_iterate=on_iterate)
    # Final constrained stationarity of the true smoothed objective.
    grad = objective_gradient(data, x, config.lam, config.mu)
    pg = float(np.linalg.norm(feasible.projected_gradient(x, grad)))
    assert pg <= 1e-6
    # Accepted steps shrink: ||x_{k+1} - x_k|| = alpha_k ||d_k|| and
    # alpha <= 1, so the raw step bound suffices.
    steps = [dn / a for dn, a in zip(d_norms, trace.alpha)]
    assert steps[-1] <= 1e-6 * steps[0]
    # Every accepted step re-satisfies the nonmonotone Armijo test.
    f0 = objective_value(data, feasible.project(problem.observed),
                         config.lam, config.mu)
    history = [f0] + trace.objective
    for k in range(1, len(history)):
        ref = max(history[max(0, k - config.memory):k])
        assert history[k] <= ref + 1e-10
    # Line search stays within its budget (else the solve would raise),
    # and every alpha is a power of the backtrack factor.
    for a in trace.alpha:
        j = round(np.log(a) / np.log(config.delta)) if a < 1.0 else 0
        assert 0 <= j <= 60
        assert a == pytest.approx(config.delta**j)


def test_inner_stop_thresholds_geometric_and_achieved():
    problem = toy_problem()
    config = toy_config(max_outer_iters=25)
    _, trace = acquire_solve(problem.data(), FeasibleSet.nonneg(),
                             problem.observed, config)
    ref = trace.inner_ref_norm[0]
    assert all(r == ref for r in trace.inner_ref_norm)
    for k, target in zip(trace.iters, trace.inner_target):
        assert target == pytest.approx(config.theta**k * ref, rel=1e-12)
    # Uncapped inner iterations reach the threshold at every iteration
    # whose target is still resolvable in double precision.
    checked = 0
    for pg, target in zip(trace.pg_norm, trace.inner_target):
        if target >= 1e-12 * ref:
            assert pg <= target * (1 + 1e-12)
            checked += 1
    assert checked >= 5
    assert not any(trace.inner_cap_hit)


def test_inner_cap_flagged_when_binding():
    problem = toy_problem()
    config = toy_config(inner_max_iters=2, max_outer_iters=30)
    _, trace = acquire_solve(problem.data(), FeasibleSet.nonneg(),
                             problem.observed, config)
    assert all(i <= 2 for i in trace.inner_iters)
    assert any(trace.inner_cap_hit)


def test_capped_inner_solve_takes_one_pg_norm_per_iteration(monkeypatch):
    # The stop test needs the projected-gradient norm only from the first
    # step on, and the cap exit needs it once: a solve capped at ten
    # steps projects onto the tangent cone ten times.  With no target
    # the norm is taken at the exit alone.
    problem = toy_problem()
    feasible = FeasibleSet.nonneg()
    x = feasible.project(problem.observed)
    model = OuterModel(problem.data(), x, LAM, 1e-2, 1e-5)
    calls = []
    pg_norm = FeasibleSet.pg_norm
    monkeypatch.setattr(FeasibleSet, "pg_norm", lambda self, *args:
                        calls.append(1) or pg_norm(self, *args))
    g = model.gradient(x)
    _, trace = sgp_solve(model, feasible, x, g, SteplengthState(),
                         max_iters=10, stop_norm_target=1e-12)
    assert trace.iterations == 10 and len(calls) == 10
    assert trace.final_pg_norm > 1e-12
    calls.clear()
    _, trace = sgp_solve(model, feasible, x, g, SteplengthState(),
                         max_iters=10)
    assert trace.iterations == 10 and len(calls) == 1


def test_uncapped_inner_solve_stops_at_the_deadline(monkeypatch):
    # An uncapped inner solve whose target is far below reach runs until
    # it stalls, far past a short budget, unless it reads the clock
    # itself: each inner solve stops at the run's deadline after at most
    # one more Hessian action, and the outer loop then takes its step and
    # stops on the clock.
    problem = make_problem(shepp_logan(64), gaussian_psf(63, 2.0), 35.0, 1)
    solves = []                 # (deadline, Hessian action times, return)
    solve = solver.sgp_solve

    def timed(model, *args, deadline, **kwargs):
        times = []
        hessian_vec = model.hessian_vec
        model.hessian_vec = lambda v: (times.append(time.perf_counter())
                                       or hessian_vec(v))
        result = solve(model, *args, deadline=deadline, **kwargs)
        solves.append((deadline, times, time.perf_counter()))
        return result

    monkeypatch.setattr(solver, "sgp_solve", timed)
    config = AcquireConfig(lam=6e-3, theta=1e-12, inner_max_iters=0,
                           tol=0.0, max_time=0.3)
    start = time.perf_counter()
    _, trace = acquire_solve(problem.data(), FeasibleSet.nonneg(),
                             problem.observed, config)
    assert trace.stop_reason == "time"
    assert start + config.max_time <= solves[0][0] <= time.perf_counter()
    deadline, times, returned = solves[-1]
    assert returned >= deadline and len(trace.iters) == len(solves)
    assert all(sum(t >= deadline for t in times) <= 1
               for deadline, times, _ in solves)
    assert trace.pg_norm[-1] > trace.inner_target[-1]


def test_monotone_mode_is_monotone():
    problem = toy_problem()
    config = toy_config(memory=1, max_outer_iters=50)
    _, trace = acquire_solve(problem.data(), FeasibleSet.nonneg(),
                             problem.observed, config)
    objs = trace.objective
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


def test_iterates_feasible_under_flux_constraint():
    problem = toy_problem()
    feasible = FeasibleSet.nonneg_flux(problem.flux)
    seen = []

    def on_iterate(k, x, rel_change):
        seen.append(feasible.contains(x))

    x, _ = acquire_solve(problem.data(), feasible, problem.observed,
                         toy_config(max_outer_iters=20),
                         on_iterate=on_iterate)
    assert seen and all(seen)
    assert feasible.contains(x)


def test_sgp_restore_decreases_objective_and_error():
    problem = toy_problem()
    data = problem.data()
    config = toy_config(max_outer_iters=200)
    x, trace = sgp_restore(data, FeasibleSet.nonneg(), problem.observed,
                           config, ground_truth=problem.ground_truth)
    assert trace.objective[-1] < trace.objective[0]
    start_err = float(np.linalg.norm(problem.observed - problem.ground_truth)
                      / np.linalg.norm(problem.ground_truth))
    assert min(trace.rel_error) < start_err


def test_cached_line_search_matches_direct_evaluation(monkeypatch):
    problem = toy_problem()
    data = problem.data()
    feasible = FeasibleSet.nonneg()
    x0 = feasible.project(problem.observed)
    applies = []
    apply = data.op.apply

    def counted_apply(x):
        applies.append(1)
        return apply(x)

    data.op.apply = counted_apply
    config = toy_config(tol=0.0, max_outer_iters=40)
    za, ta = sgp_restore(data, feasible, x0, config)
    cached_applies = len(applies)

    # Every evaluation ignores the carried A x and applies A itself, and
    # ignores the TV half and stencil started on the worker: each trial
    # and gradient is evaluated from its point alone.
    monkeypatch.setattr(_SmoothObjective, "value", lambda self, x, ax,
                        tv=None: objective_value(self.data, x, self.lam,
                                                 self.mu))
    monkeypatch.setattr(_SmoothObjective, "gradient", lambda self, x, ax:
                        objective_gradient(self.data, x, self.lam, self.mu))
    zb, tb = sgp_restore(data, feasible, x0, config)
    assert len(ta.iters) == len(tb.iters) == 40
    assert np.linalg.norm(za - zb) <= 1e-12 * np.linalg.norm(zb)
    assert ta.objective == pytest.approx(tb.objective, rel=1e-12)
    # One apply at the start, then one (A d) per iteration, however many
    # trials the line search makes.
    assert cached_applies == 1 + len(ta.iters)
    assert len(applies) - cached_applies > 2 * len(tb.iters)


@pytest.mark.parametrize("cpus", [2, 1], ids=["worker", "inline"])
@pytest.mark.parametrize("constraint", ["s1", "s2"])
def test_gradient_at_accepted_trial_reuses_its_stencil(monkeypatch,
                                                       constraint, cpus):
    # Each SGP gradient is taken at the point the line search accepted
    # last, and its TV half starts from the stencil that point's value
    # left behind: the same bits as a gradient computed anew.
    monkeypatch.setattr(solver, "_usable_cpus", lambda: cpus)
    problem = toy_problem()
    data = problem.data()
    feasible = (FeasibleSet.nonneg() if constraint == "s1" else
                FeasibleSet.nonneg_flux(float(problem.ground_truth.sum())))
    gradient = _SmoothObjective.gradient
    checked = []

    def compared(self, x, ax):
        reused = x is self._stencil_of
        fresh = objective_gradient(data, x, self.lam, self.mu, ax)
        g = gradient(self, x, ax)
        checked.append(reused and np.array_equal(g, fresh))
        return g

    monkeypatch.setattr(_SmoothObjective, "gradient", compared)
    _, trace = sgp_restore(data, feasible, problem.observed,
                           toy_config(tol=0.0, max_outer_iters=20))
    assert len(trace.iters) == 20 and min(trace.alpha) < 1.0
    assert len(checked) == 20 and all(checked)


def test_acquire_blur_calls_per_outer_iteration():
    # One at the start (A x0), then per outer iteration: one adjoint to
    # build the model (whose gradient at the anchor is then free), one
    # Hessian action (A and its adjoint) per inner iteration, and one
    # A d for the outer line search however many trials it makes.  The
    # strict eta makes every outer step backtrack.
    problem = toy_problem()
    data = problem.data()
    calls = []
    for name in ("apply", "apply_adjoint"):
        fn = getattr(data.op, name)
        setattr(data.op, name, lambda x, fn=fn: calls.append(1) or fn(x))
    for overrides in ({}, {"eta": 0.99, "memory": 1}):
        del calls[:]
        _, trace = acquire_solve(data, FeasibleSet.nonneg(), problem.observed,
                                 toy_config(max_outer_iters=8, **overrides))
        assert len(trace.iters) == 8
        assert len(calls) == 1 + sum(2 * i + 2 for i in trace.inner_iters)
    assert all(a < 1.0 for a in trace.alpha)


def test_inner_gradient_recurrence_matches_fresh_gradient():
    # On a quadratic model the inner solve carries g + rho H d instead of
    # re-evaluating the gradient; the carried gradient must not drift.
    # From the flat start the minimizer has active pixels, so the
    # gradient stays of order one and a relative comparison is sharp.
    problem = toy_problem()
    data = problem.data()
    feasible = FeasibleSet.nonneg()
    x = np.full_like(problem.observed, problem.flux / problem.observed.size)
    model = OuterModel(data, x, LAM, 1e-2, 1e-5)
    state = SteplengthState()
    pairs = []
    record = state.record
    state.record = lambda z, g: pairs.append((z, g)) or record(z, g)
    _, inner = sgp_solve(model, feasible, x, model.gradient(x), state,
                         max_iters=100000, stop_norm_target=1e-10)
    assert inner.final_pg_norm <= 1e-10
    assert len(pairs) == inner.iterations
    for z, g in pairs:
        fresh = model.gradient(z)
        assert np.linalg.norm(g - fresh) <= 1e-10 * np.linalg.norm(fresh)


def test_model_results_are_fresh_and_inputs_untouched():
    # The models keep work buffers; an array one returns must not change
    # on a later call, and no call may write into its argument.
    problem = toy_problem()
    data = problem.data()
    rng = np.random.default_rng(3)
    x, v, w = (rng.random(problem.observed.shape) + 0.1 for _ in range(3))
    kept = [a.copy() for a in (x, v, w)]
    tv = TvQuadraticModel(x, 1e-2)
    outer = OuterModel(data, x, LAM, 1e-2, 1e-5)
    for method in (tv.gradient, tv.hessian_vec, outer.kl.gradient,
                   outer.kl.hessian_vec, outer.gradient, outer.hessian_vec):
        first = method(v)
        snapshot = first.copy()
        second = method(w)
        tv.value(w)
        outer.value(w)
        assert second is not first
        assert np.array_equal(first, snapshot)
        assert np.array_equal(method(v), snapshot)
    for a, k in zip((x, v, w), kept):
        assert np.array_equal(a, k)


class RecordCheckingState(SteplengthState):
    """Steplength state that checks its recorded pair is never written,
    and keeps every iterate it records with a copy."""

    def record(self, z, g):
        self.check()
        super().record(z, g)
        self.recorded = (z.copy(), g.copy())
        self.seen = getattr(self, "seen", []) + [(z, z.copy())]

    def check(self):
        if self.prev_z is not None:
            assert np.array_equal(self.prev_z, self.recorded[0])
            assert np.array_equal(self.prev_g, self.recorded[1])


@pytest.mark.parametrize("feasible", [FeasibleSet.nonneg(), None],
                         ids=["s1", "s2"])
def test_sgp_step_writes_only_arrays_it_owns(feasible, monkeypatch):
    # sgp_solve and the outer loop form their steps (and the inner
    # gradient recurrence) in place: the recorded (z, g) pair, every
    # recorded or reported iterate, the start and the returned iterate
    # must keep their values across later steps and a later call that
    # shares the state, as in ACQUIRE's inner solves.
    problem = toy_problem()
    data = problem.data()
    feasible = feasible or FeasibleSet.nonneg_flux(problem.flux)
    x = np.full_like(problem.observed, problem.flux / problem.observed.size)
    x_kept = x.copy()
    state = RecordCheckingState()
    model = OuterModel(data, x, LAM, 1e-2, 1e-5)
    g0 = model.gradient(x)
    g0_kept = g0.copy()
    z1, _ = sgp_solve(model, feasible, x, g0, state, max_iters=15)
    z1_kept = z1.copy()
    model = OuterModel(data, z1, LAM, 1e-2, 1e-5)
    sgp_solve(model, feasible, z1, model.gradient(z1), state, max_iters=15)
    state.check()
    assert len(state.seen) == 30 and state.seen[15][0] is z1
    assert np.array_equal(x, x_kept) and np.array_equal(z1, z1_kept)
    assert np.array_equal(g0, g0_kept)
    assert all(np.array_equal(z, kept) for z, kept in state.seen)

    monkeypatch.setattr(solver, "SteplengthState", RecordCheckingState)
    reported = []
    x_out, _ = sgp_restore(data, feasible, x, toy_config(
        tol=0.0, max_outer_iters=15),
        on_iterate=lambda k, z, rel_change: reported.append((z, z.copy())))
    assert len(reported) == 15 and x_out is reported[-1][0]
    assert np.array_equal(x, x_kept)
    assert all(np.array_equal(z, kept) for z, kept in reported)


def test_outer_line_search_failure_explains_itself(monkeypatch):
    # The full step's decrease is about half its linear prediction on a
    # nearly quadratic objective, so with eta = 0.99 it fails the Armijo
    # test, and the outer search may make no backtracks.
    problem = toy_problem()
    armijo = solver.armijo

    def capped(*args):
        with monkeypatch.context() as patched:
            patched.setattr(sgp, "MAX_BACKTRACKS", 0)
            return armijo(*args)

    monkeypatch.setattr(solver, "armijo", capped)
    config = toy_config(eta=0.99, memory=1)
    with pytest.raises(RuntimeError, match=r"after 0 backtracks \(f_ref "
                       r"\S+, slope -\S+, last step 1\): value and "
                       r"gradient are inconsistent"):
        acquire_solve(problem.data(), FeasibleSet.nonneg(), problem.observed,
                      config)


@pytest.mark.parametrize("run", [acquire_solve, sgp_restore],
                         ids=["acquire", "sgp"])
def test_line_search_stall_ends_the_run(monkeypatch, run):
    # A stalled outer search (armijo returns None) ends the run with the
    # iterates it has, without raising.
    armijo = solver.armijo
    calls = []

    def stalling(*args):
        calls.append(1)
        return None if len(calls) == 3 else armijo(*args)

    monkeypatch.setattr(solver, "armijo", stalling)
    problem = toy_problem()
    reported = []
    x, trace = run(problem.data(), FeasibleSet.nonneg(), problem.observed,
                   toy_config(tol=0.0, max_outer_iters=10),
                   on_iterate=lambda k, z, rel_change: reported.append(z))
    assert len(trace.iters) == 2 and len(calls) == 3
    assert x is reported[-1]


@pytest.mark.parametrize("reason", ["tol", "time", "cap", "stalled"])
@pytest.mark.parametrize("run", [acquire_solve, sgp_restore],
                         ids=["acquire", "sgp"])
def test_trace_records_why_the_run_stopped(monkeypatch, run, reason):
    settings = {"tol": dict(tol=1e30), "time": dict(max_time=1e-9),
                "cap": dict(max_outer_iters=3), "stalled": {}}[reason]
    if reason == "stalled":
        monkeypatch.setattr(solver, "armijo", lambda *args: None)
    problem = toy_problem()
    _, trace = run(problem.data(), FeasibleSet.nonneg(), problem.observed,
                   toy_config(**{"tol": 0.0, **settings}))
    # With tol = 1e30 every change passes, and SGP waits out its patience.
    patience = solver.SGP_STOP_PATIENCE if run is sgp_restore else 1
    assert trace.stop_reason == reason
    assert len(trace.iters) == {"tol": patience, "time": 1, "cap": 3,
                                "stalled": 0}[reason]


def test_sgp_stops_where_the_scaled_step_stays_put():
    # No counts and a unit background: at x = 0 the gradient is positive
    # everywhere, so the projected scaled step is x itself.
    op = BlurOperator(gaussian_psf(3, 1.0), 8, 8)
    data = PoissonData(np.zeros((8, 8)), 1.0, op)
    x, trace = sgp_restore(data, FeasibleSet.nonneg(), np.zeros((8, 8)),
                           toy_config(tol=0.0))
    assert trace.stop_reason == "stationary" and trace.iters == []
    assert not x.any()


@pytest.mark.parametrize("cpus", [2, 1], ids=["worker", "inline"])
def test_sgp_restore_rejects_a_non_finite_iterate(monkeypatch, cpus):
    # The projected-gradient norm, taken on the worker beside the
    # direction, raises its feasibility error, whatever the direction
    # made of the NaN pixel meanwhile.
    monkeypatch.setattr(solver, "_usable_cpus", lambda: cpus)
    problem = toy_problem()
    x0 = problem.observed.copy()
    x0[2, 5] = np.nan
    with pytest.raises(ValueError, match="point is not feasible"):
        sgp_restore(problem.data(), FeasibleSet.nonneg(), x0,
                    toy_config(tol=0.0, max_outer_iters=5))


def test_sgp_rows_record_their_armijo_step(monkeypatch):
    # Each SGP row holds the accepted step rho, a power of BACKTRACK, and
    # an objective that passes the monotone Armijo test against the row
    # before it.
    searches = []
    armijo = solver.armijo

    def recorded(trial, f_ref, slope, eta, delta):
        searches.append((f_ref, slope, eta, delta))
        return armijo(trial, f_ref, slope, eta, delta)

    monkeypatch.setattr(solver, "armijo", recorded)
    problem = toy_problem()
    _, trace = sgp_restore(problem.data(), FeasibleSet.nonneg(),
                           problem.observed,
                           toy_config(tol=0.0, max_outer_iters=60))
    assert len(searches) == len(trace.alpha) == 60
    previous = searches[0][0]
    for alpha, f, (f_ref, slope, eta, delta) in zip(
            trace.alpha, trace.objective, searches):
        assert (eta, delta) == (sgp.BETA_LS, sgp.BACKTRACK)
        assert f_ref == previous
        backtracks = round(np.log(alpha) / np.log(sgp.BACKTRACK))
        assert alpha == sgp.BACKTRACK**backtracks
        assert f <= f_ref + eta * alpha * slope
        previous = f
    assert min(trace.alpha) < 1.0


def test_sgp_restore_ends_on_its_patience_stop():
    # The baseline stops once SGP_STOP_PATIENCE consecutive relative
    # changes are <= tol, and not before, well short of its cap.
    problem = toy_problem()
    tol = 1e-4
    _, trace = sgp_restore(problem.data(), FeasibleSet.nonneg(),
                           problem.observed,
                           toy_config(tol=tol, max_outer_iters=500))
    patience = solver.SGP_STOP_PATIENCE
    calm = [c <= tol for c in trace.rel_change]
    assert len(calm) < 500
    assert all(calm[-patience:])
    assert not any(all(calm[i:i + patience])
                   for i in range(len(calm) - patience))


def test_loose_inner_target_does_not_end_the_run():
    # With theta = 0.9 the inner target of outer iteration 2 already
    # exceeded the projected-gradient norm at its start: the inner solve
    # returned its start, and the zero step passed the tol stop after 2
    # of 30 iterations, at an error far above a full run's.
    problem = make_problem(shepp_logan(64), gaussian_psf(63, 2.0), 35.0, 1)
    errors = {}
    for theta in (0.9, 0.1):
        config = AcquireConfig(lam=6e-3, theta=theta, tol=1e-6,
                               max_outer_iters=30, max_time=float("inf"))
        _, trace = acquire_solve(problem.data(), FeasibleSet.nonneg(),
                                 problem.observed, config,
                                 ground_truth=problem.ground_truth)
        assert len(trace.iters) == 30
        assert min(trace.inner_iters) >= 1
        errors[theta] = min(trace.rel_error)
    assert errors[0.9] <= 1.01 * errors[0.1]


def test_sgp_restore_does_not_creep_on_the_phantom():
    # At (SNR 40, seed 3) a scaling floor above the iterate's smallest
    # pixels made SGP zero them on long steps and spend hundreds of
    # iterations regrowing them.  Both methods converge to a relative
    # error of about 0.128; the bound is 1.05 times that.
    problem = make_problem(shepp_logan(256), gaussian_psf(255, 2.0), 40.0, 3)
    config = AcquireConfig(lam=4e-3, tol=1e-7, max_outer_iters=400,
                           max_time=float("inf"))
    _, trace = sgp_restore(problem.data(), FeasibleSet.nonneg(),
                           problem.observed, config,
                           ground_truth=problem.ground_truth)
    assert min(trace.rel_error) <= 0.134


def test_sgp_restore_line_search_work_per_iterate(monkeypatch):
    # The ABBmin rule takes the smallest buffered BB2 where BB1 is
    # undefined (s'C^-1 w <= 0).  Returning nu_max there instead cost 33
    # objective evaluations at iterations 14 and 18 of this run (110 in
    # all); the rule makes at most 4 (56 in all).
    problem = make_problem(shepp_logan(256), gaussian_psf(255, 2.0), 35.0, 7)
    x0 = np.full_like(problem.observed, problem.flux / problem.observed.size)
    config = AcquireConfig(lam=6e-3, tol=0.0, max_outer_iters=40,
                           max_time=float("inf"))
    calls = []
    value = solver.objective_value
    monkeypatch.setattr(solver, "objective_value",
                        lambda *args: calls.append(1) or value(*args))
    per_iterate = []

    def on_iterate(k, x, rel_change):
        per_iterate.append(len(calls))
        calls.clear()
    sgp_restore(problem.data(), FeasibleSet.nonneg(), x0, config,
                on_iterate=on_iterate)
    assert len(per_iterate) == 40
    assert max(per_iterate) <= 10, per_iterate


def test_acquire_and_sgp_agree_on_toy_minimizer():
    problem = toy_problem()
    data = problem.data()
    feasible = FeasibleSet.nonneg()
    xa, _ = acquire_solve(data, feasible, problem.observed, toy_config())
    xs, _ = sgp_restore(data, feasible, problem.observed,
                        toy_config(max_outer_iters=5000, tol=1e-12))
    assert np.linalg.norm(xa - xs) / np.linalg.norm(xa) <= 1e-4


def test_trace_time_monotone_and_csv(tmp_path):
    problem = toy_problem()
    _, trace = acquire_solve(problem.data(), FeasibleSet.nonneg(),
                             problem.observed,
                             toy_config(max_outer_iters=10),
                             ground_truth=problem.ground_truth)
    assert all(b >= a for a, b in zip(trace.time_s, trace.time_s[1:]))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(SolverTrace.CSV_COLUMNS)
    assert len(lines) == len(trace.iters) + 1
    trace.write_csv(path, last=3)
    assert len(path.read_text().splitlines()) == 4


def test_trace_rows_take_column_defaults():
    trace = SolverTrace()
    trace.append(iters=1, objective=2.0, rel_change=0.5, pg_norm=0.1,
                 rel_error=0.3, time_s=0.0, mssim=float("nan"))
    assert trace.alpha == [1.0] and trace.inner_iters == [0]
    assert trace.inner_cap_hit == [False]
    with pytest.raises(KeyError, match="objective"):
        trace.append(iters=2)
    assert trace.iters == [1]       # a rejected row leaves no trace
    with pytest.raises(KeyError, match="bogus"):
        trace.append(iters=2, objective=2.0, rel_change=0.5, pg_norm=0.1,
                     rel_error=0.3, time_s=0.0, mssim=0.0, bogus=1)


# ------------------------------------------------------------- TV worker


COLUMNS = ("objective", "rel_change", "alpha", "pg_norm", "rel_error",
           "inner_iters")


def watched_solve(monkeypatch, run, constraint, cpus):
    """A capped toy solve with `cpus` usable CPUs; returns x, the trace,
    the threads it started, and the threads that blurred and that ran a
    TV half."""
    monkeypatch.setattr(solver, "_usable_cpus", lambda: cpus)
    seen = {"started": [], "blur": set(), "tv": set()}
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: seen["started"].append(self)
                        or start(self))
    for owner, name, kind in ((BlurOperator, "apply", "blur"),
                              (BlurOperator, "apply_adjoint", "blur"),
                              (solver, "tv_mu_value", "tv"),
                              (solver, "tv_mu_gradient", "tv"),
                              (TvQuadraticModel, "__init__", "tv"),
                              (TvQuadraticModel, "hessian_vec", "tv")):
        def watched(*args, _fn=getattr(owner, name), _kind=kind, **kwargs):
            seen[_kind].add(threading.get_ident())
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, watched)
    problem = toy_problem()
    feasible = (FeasibleSet.nonneg() if constraint == "s1" else
                FeasibleSet.nonneg_flux(float(problem.ground_truth.sum())))
    before = set(threading.enumerate())
    x, trace = run(problem.data(), feasible, problem.observed,
                   toy_config(tol=0.0, max_outer_iters=8),
                   ground_truth=problem.ground_truth)
    assert set(threading.enumerate()) == before
    monkeypatch.undo()
    return x, trace, seen


@pytest.mark.parametrize("constraint", ["s1", "s2"])
@pytest.mark.parametrize("run", [acquire_solve, sgp_restore],
                         ids=["acquire", "sgp"])
def test_tv_halves_run_on_a_worker_of_the_solve(monkeypatch, run,
                                                constraint):
    # On two CPUs a solve starts one worker, runs every TV half on it and
    # every blur on the calling thread, and joins it before returning
    # (`watched_solve` checks that no thread outlives the call).  On one
    # CPU it starts none, and the iterates and trace are the same bits.
    caller = threading.get_ident()
    x2, trace2, seen = watched_solve(monkeypatch, run, constraint, cpus=2)
    [worker] = seen["started"]
    assert seen["blur"] == {caller} and seen["tv"] == {worker.ident}
    x1, trace1, seen = watched_solve(monkeypatch, run, constraint, cpus=1)
    assert seen["started"] == []
    assert seen["blur"] == seen["tv"] == {caller}
    assert len(trace1.iters) == 8 and np.array_equal(x1, x2)
    for column in COLUMNS:
        assert np.array_equal(getattr(trace1, column),
                              getattr(trace2, column)), column


@pytest.mark.parametrize("cpus", [2, 1], ids=["worker", "inline"])
def test_errstate_holds_in_the_tv_half(monkeypatch, cpus):
    # A spike that overflows only the TV half: its squared differences,
    # and its weighted ones in the Hessian action.  The KL half works from
    # a finite A x, and its Hessian action scales the spike by at most 6.
    monkeypatch.setattr(solver, "_usable_cpus", lambda: cpus)
    problem = toy_problem()
    data = problem.data()
    x = problem.observed
    ax = data.op.apply(x)
    spiked = x.copy()
    spiked[3, 4] = 1e307
    with solver._solve_executor() as pool, np.errstate(all="raise"):
        model = OuterModel(data, x, LAM, 1e-2, 1e-5, ax, pool)
        for point, raises in ((x, False), (spiked, True)):
            evaluations = (
                lambda: objective_value(data, point, LAM, 1e-2, ax, pool),
                lambda: objective_gradient(data, point, LAM, 1e-2, ax, pool),
                lambda: OuterModel(data, point, LAM, 1e-2, 1e-5, ax, pool),
                lambda: model.hessian_vec(point))
            for evaluate in evaluations:
                if raises:
                    with pytest.raises(FloatingPointError, match="overflow"):
                        evaluate()
                else:
                    evaluate()


# A 128x128 phantom: large enough that a BLAS dot product would split
# its sum over threads.  ACQUIRE 6 outer iterations and SGP 30, capped
# by count, from the observed start.
THREAD_RUN = """
import sys
import numpy as np
from poissontv.blur import gaussian_psf
from poissontv.constraints import FeasibleSet
from poissontv.solver import AcquireConfig, acquire_solve, sgp_restore
from poissontv.testbed import make_problem, shepp_logan

problem = make_problem(shepp_logan(128), gaussian_psf(9, 2.0), snr_db=35.0,
                       seed=7)
data, feasible = problem.data(), FeasibleSet.nonneg_flux(
    float(problem.observed.sum() - problem.scaled_background
          * problem.observed.size))
runs = []
for solve, iters in ((acquire_solve, 6), (sgp_restore, 30)):
    config = AcquireConfig(lam=6e-3, tol=0.0, max_outer_iters=iters,
                           max_time=float("inf"))
    x, trace = solve(data, feasible, problem.observed, config)
    assert len(trace.iters) == iters
    runs.append(x)
np.save(sys.argv[1], np.stack(runs))
"""


def test_iterates_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Dot products and norms on the solver path are summed outside BLAS,
    # whose summation order follows its thread count.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / f"x{threads}.npy"
        subprocess.run([sys.executable, "-c", THREAD_RUN, str(out)],
                       env=env, check=True, timeout=300)
        results.append(np.load(out))
    assert np.array_equal(results[0], results[1])
