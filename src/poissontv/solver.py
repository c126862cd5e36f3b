"""Outer quadratic-model line-search solver and the standalone SGP baseline.

Both run one outer loop, `_line_search_run`, and differ only in their
direction, Armijo window and constants, and stop rule.  The loop carries
A x with the iterate x, so a search along d needs A d once and each
trial's A x is A x + rho A d; the objective keeps no state.  ACQUIRE's
direction solves a strongly convex quadratic model of the smoothed
objective (second-order Taylor model of the KL term plus the reweighted
TV surrogate) inexactly with scaled gradient projection, whose Hessian
actions also give A d, and its Armijo step is nonmonotone.  The SGP
baseline's is one scaled gradient-projection step, searched
monotonically, whose search blurs d.

Every objective value and gradient, model build and Hessian action is
a KL half plus lam times a TV half, which share nothing but x; a solve
computes its TV halves on a worker of its own (see `acquire_solve`), each
value's into the TV stencil its objective owns, where the SGP baseline's
gradient at that point starts (see `_SmoothObjective`).
"""

from collections import deque
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
import contextvars
import csv
import math
import numbers
import os
import time

import numpy as np

from .constraints import _dot, _norm
from .kl import KlQuadraticModel, kl_value, kl_gradient
from .tv import TvQuadraticModel, TvStencil, tv_mu_value, tv_mu_gradient
from .sgp import (BACKTRACK, BETA_LS, SteplengthState, abbmin_gradient_half,
                  abbmin_iterate_half, armijo, sgp_direction, sgp_solve)
from .testbed import relative_error


def relative_change(new, old):
    """||new - old|| / ||old||, guarded against a zero old iterate."""
    return _norm(new - old) / max(_norm(old), np.finfo(float).tiny)


# Consecutive iterations the relative-change criterion must hold before
# the standalone SGP run stops: wide enough to span one full cycle of
# the adaptive steplength rule (buffer length 3 plus the recovery step
# on either side), so transient tiny-step bursts do not end the run.
SGP_STOP_PATIENCE = 7


class RelChangeStop:
    """The relative-change stop of `method` ("acquire" or "sgp") at tol:
    true once the change has stayed <= tol for `patience` consecutive
    iterations, 1 for ACQUIRE and SGP_STOP_PATIENCE for SGP."""

    def __init__(self, method, tol):
        self.tol = tol
        self.patience = SGP_STOP_PATIENCE if method == "sgp" else 1
        self.calm = 0

    def __call__(self, rel_change):
        self.calm = self.calm + 1 if rel_change <= self.tol else 0
        return self.calm >= self.patience


class _InlineExecutor(Executor):
    """Runs each task at `submit`, on the calling thread."""

    def submit(self, fn, /, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


_INLINE = _InlineExecutor()


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _solve_executor():
    """The executor of one solve's TV halves: one worker thread where the
    process may run on two or more CPUs; inline on one, where a worker
    would only add thread switches."""
    if _usable_cpus() >= 2:
        return ThreadPoolExecutor(max_workers=1)
    return _INLINE


def _submit(pool, fn, *args):
    """fn(*args) on `pool`, in a copy of the caller's context, so that
    the caller's np.errstate holds there too."""
    return pool.submit(contextvars.copy_context().run, fn, *args)


@dataclass
class AcquireConfig:
    lam: float                      # regularization weight
    mu: float = 1e-2                # Huber threshold
    gamma: float = 1e-5             # curvature shift of the KL model
    eta: float = 1e-5               # Armijo slope fraction
    delta: float = 0.5              # backtrack factor
    memory: int = 5                 # nonmonotone window; 1 is monotone
    theta: float = 0.1              # inner stop ratio
    inner_max_iters: int = 10       # 0 means uncapped
    tol: float = 1e-6               # relative-change stopping threshold
    max_outer_iters: int = 10000
    max_time: float = 25.0          # wall-clock budget, seconds

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   for v in (self.memory, self.inner_max_iters,
                             self.max_outer_iters)):
            raise ValueError("memory and the iteration caps must be integers")
        if not all(math.isfinite(v) for v in
                   (self.lam, self.mu, self.gamma, self.tol)):
            raise ValueError("lam, mu, gamma and tol must be finite")
        if not self.max_time > 0:       # also NaN; inf means no budget
            raise ValueError("max_time must be positive")
        if self.lam <= 0 or self.mu <= 0 or self.gamma < 0:
            raise ValueError("require lam > 0, mu > 0, gamma >= 0")
        if not (0 < self.eta < 1 and 0 < self.delta < 1):
            raise ValueError("eta and delta must lie in (0, 1)")
        if not (0 < self.theta < 1) or self.memory < 1 or self.tol < 0:
            raise ValueError("invalid theta, memory or tol")
        if self.inner_max_iters < 0 or self.max_outer_iters < 1:
            raise ValueError("require inner_max_iters >= 0 and "
                             "max_outer_iters >= 1")


class SolverTrace:
    """Per-iteration history of a solve: one list per column.

    COLUMNS defines the columns in CSV order, each with the value a row
    that leaves it out records (None: every row must give it).  The CSV
    holds the first nine, under the names in CSV_COLUMNS.  `stop_reason`
    is not a column: the solver sets it to why the run ended, one of
    "tol", "time", "cap", "stalled" or "stationary".
    """

    COLUMNS = {
        "iters": None,
        "objective": None,
        "rel_change": None,
        "alpha": 1.0,                    # accepted Armijo step
        "inner_iters": 0,
        "pg_norm": None,                 # of F_k at the inner solution
        "rel_error": None,               # vs ground truth, or nan
        "time_s": None,
        "mssim": float("nan"),           # scored by callers, where read
        "inner_target": float("nan"),    # inner stopping thresholds
        "inner_ref_norm": float("nan"),  # projected-gradient norm at x0
        "inner_stop": "",                # SgpTrace.stop_reason
    }
    CSV_COLUMNS = ("iter",) + tuple(COLUMNS)[1:9]

    def __init__(self):
        for name in self.COLUMNS:
            setattr(self, name, [])
        self.stop_reason = None

    def append(self, **row):
        """Add one row; a column it leaves out takes its default."""
        row = {**{k: v for k, v in self.COLUMNS.items() if v is not None},
               **row}
        if row.keys() != self.COLUMNS.keys():
            raise KeyError("trace row columns differ from COLUMNS: "
                           f"{sorted(row.keys() ^ self.COLUMNS.keys())}")
        for name in self.COLUMNS:
            getattr(self, name).append(row[name])

    def write_csv(self, path, last=None):
        """Write the trace as CSV; `last` truncates to the first rows."""
        columns = [getattr(self, name)
                   for name, _ in zip(self.COLUMNS, self.CSV_COLUMNS)]
        write_csv(path, self.CSV_COLUMNS, islice(zip(*columns), last))


def write_csv(path, header, rows):
    """Write the header and rows as CSV, floats at .17g (read back exact)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v
                             for v in row])


class OuterModel:
    """F_k: quadratic KL model plus lam times the reweighted TV model.

    `ax`, when given, is A x_k (see `KlQuadraticModel`).  The TV halves
    of the build and of `hessian_vec` run on `pool`; the Hessian action's
    TV half writes into an array the model owns.  `hessian_diag` sums the
    halves' diagonals, fresh, with no blur; `sgp_solve` scales by it.
    `accept_step(rho)` adds rho A v, for the v of the latest Hessian
    action, to `ad`, which so holds A (z - x_k) for the z that `sgp_solve`
    has reached (zero before its first step), with no blur of its own.
    """

    def __init__(self, data, x_k, lam, mu, gamma, ax=None, pool=_INLINE):
        tv = _submit(pool, TvQuadraticModel, x_k, mu)
        self.kl = KlQuadraticModel(data, x_k, gamma, ax)
        self.tv = tv.result()
        self.lam = lam
        self.pool = pool
        self._tv_hv = np.empty_like(self.kl.x_k)
        self.ad = np.zeros_like(self.kl.x_k)

    def value(self, x):
        return self.kl.value(x) + self.lam * self.tv.value(x)

    def gradient(self, x):
        return _add_scaled(self.kl.gradient(x), self.lam, self.tv.gradient(x))

    def hessian_diag(self):
        return _add_scaled(self.kl.hessian_diag(), self.lam,
                           self.tv.hessian_diag(self._tv_hv))

    def hessian_vec(self, v):
        tv = _submit(self.pool, self.tv.hessian_vec, v, self._tv_hv)
        return _add_scaled(self.kl.hessian_vec(v), self.lam, tv.result())

    def accept_step(self, rho):
        av, self.kl.av = self.kl.av, None
        av *= rho
        self.ad += av


def _add_scaled(a, lam, b):
    """a + lam * b, written into a, which is fresh; b is overwritten."""
    b *= lam
    a += b
    return a


def objective_value(data, x, lam, mu, ax=None, pool=_INLINE, tv=None):
    """The smoothed objective: KL divergence plus lam times smoothed TV.

    `ax`, when given, is A x (see `PoissonData.forward`).  The TV half
    runs on `pool`; `tv`, when given, is the future of x's TV half,
    already started there.
    """
    if tv is None:
        tv = _submit(pool, tv_mu_value, x, mu)
    return kl_value(data, x, ax) + lam * tv.result()


def objective_gradient(data, x, lam, mu, ax=None, pool=_INLINE, stencil=None):
    """The smoothed objective's gradient; `stencil` as in `tv_mu_gradient`."""
    tv = _submit(pool, tv_mu_gradient, x, mu, stencil)
    return _add_scaled(kl_gradient(data, x, ax), lam, tv.result())


def _rel_error(x, ground_truth):
    return (float("nan") if ground_truth is None
            else relative_error(x, ground_truth))


def _mssim(reference, x):
    """MSSIM of x against a `MssimReference`.

    The solver scores nothing itself: `cli.sweep_rows` calls this as
    `solver._mssim`, once per summary row, so that the benchmark's tracer,
    which wraps it under this name, times each score.
    """
    return reference(x)


def acquire_solve(data, feasible_set, x0, config, ground_truth=None,
                  on_iterate=None):
    """Run the outer solver; returns (restored image, trace).

    x0 is projected onto the feasible set before use.  Stops on relative
    iterate change <= config.tol, the outer iteration cap, the wall-clock
    budget, or a line search stalled at round-off; `trace.stop_reason`
    says which.  An inner solve that reaches the budget's end stops there,
    after at least one step, and the outer loop takes its step and stops.
    `on_iterate(k, x, rel_change)` sees each iterate and must not write
    into x: the solver forms the next step from it, and SGP's steplength
    state keeps it.

    The TV halves of every evaluation run on one worker thread that lives
    as long as the call, where the process may run on two or more CPUs,
    and inline otherwise; every blur runs on the calling thread.  Either
    way the iterates are the same bits.
    """
    start = time.perf_counter()
    deadline = start + config.max_time
    x = feasible_set.project(np.asarray(x0, dtype=np.float64))
    ax = data.op.apply(x)
    state = SteplengthState()
    inner_cap = config.inner_max_iters if config.inner_max_iters > 0 else 100000
    with _solve_executor() as pool:
        objective = _SmoothObjective(data, config.lam, config.mu, pool, x)
        ref_norm = None

        def direction(k, x, ax):
            nonlocal ref_norm
            model = OuterModel(data, x, config.lam, config.mu, config.gamma,
                               ax, pool)
            # At the anchor the model gradient is the true one: the inner
            # solve starts from it, the outer slope is taken along it, and
            # at x^(0) its projected norm is the inner stop's reference,
            # fixed for the run so that the targets are exactly geometric.
            g = model.gradient(x)
            if k == 1:
                ref_norm = feasible_set.pg_norm(x, g)
            target = config.theta**k * ref_norm
            x_hat, inner = sgp_solve(model, feasible_set, x, g, state,
                                     max_iters=inner_cap,
                                     stop_norm_target=target,
                                     deadline=deadline)
            d = x_hat - x
            # A d is the sum the inner steps' Hessian actions gave.
            return d, model.ad, _dot(g, d), dict(
                pg_norm=inner.final_pg_norm, inner_iters=inner.iterations,
                inner_target=target, inner_ref_norm=ref_norm,
                inner_stop=inner.stop_reason)

        return _line_search_run(objective, x, ax, direction, config.memory,
                                config.eta, config.delta,
                                RelChangeStop("acquire", config.tol), config,
                                start, ground_truth, on_iterate)


class _SmoothObjective:
    """value/gradient callbacks for the smoothed objective at x, given A x;
    the TV halves run on `pool`.

    The objective owns a `TvStencil` shaped like `like`: each value leaves
    its point's TV stencil there, and a gradient at that point, the next
    call for it, starts from the stencil.
    """

    def __init__(self, data, lam, mu, pool, like):
        self.data = data
        self.lam = lam
        self.mu = mu
        self.pool = pool
        self.stencil = TvStencil(like)
        self._stencil_of = None         # the point the stencil holds

    def start_trial(self, x, d, rho=1.0):
        """Start the trial x + rho d on the worker: futures of the point,
        formed there, and of its TV half."""
        point = _submit(self.pool, _trial, x, d, rho)
        return point, _submit(self.pool, _tv_value_at, point, self.mu,
                              self.stencil)

    def value(self, x, ax, tv=None):
        """The objective at x; `tv` as in `objective_value`."""
        if tv is None:
            tv = _submit(self.pool, tv_mu_value, x, self.mu, self.stencil)
        f = objective_value(self.data, x, self.lam, self.mu, ax, self.pool,
                            tv)
        self._stencil_of = x
        return f

    def gradient(self, x, ax):
        stencil = self.stencil if x is self._stencil_of else None
        self._stencil_of = None
        return objective_gradient(self.data, x, self.lam, self.mu, ax,
                                  self.pool, stencil)


def _trial(x, d, rho):
    """x + rho d; at rho = 1 the product 1.0 d, which is d, is skipped."""
    return x + d if rho == 1.0 else x + rho * d


def _tv_value_at(point, mu, stencil):
    """The TV half at the point that the future `point` gives."""
    return tv_mu_value(point.result(), mu, stencil)


def sgp_restore(data, feasible_set, x0, config, ground_truth=None,
                on_iterate=None):
    """Standalone SGP baseline on the smoothed objective.

    Each direction is one step of the inner solver (`sgp_direction`), with
    a monotone search.  Stops as `acquire_solve` does, with the SGP
    relative-change stop (see `RelChangeStop`), or where the scaled step
    leaves x in place.  `on_iterate` is called as in `acquire_solve`, and
    must not write into x either; the TV halves run as there, and so
    does each steplength's iterate half (`abbmin_iterate_half`), beside
    the gradient's KL half.
    """
    start = time.perf_counter()
    x = feasible_set.project(np.asarray(x0, dtype=np.float64))
    state = SteplengthState()
    scaled = np.empty_like(x)
    with _solve_executor() as pool:
        objective = _SmoothObjective(data, config.lam, config.mu, pool, x)

        def direction(k, x, ax):
            ahead = _submit(pool, abbmin_iterate_half, state, x)
            g = objective.gradient(x, ax)
            pg_norm = _submit(pool, feasible_set.pg_norm, x, g)
            try:
                metric, s_cinv_s_cinv = ahead.result()
                nu = abbmin_gradient_half(state, metric, s_cinv_s_cinv, g)
                found = sgp_direction(feasible_set, x, g, metric, nu, state,
                                      scaled)
            finally:
                # A non-finite iterate fails here, whatever the direction
                # made of it.
                row = dict(pg_norm=pg_norm.result())
            return None if found is None else (found[0], None, found[1], row)

        return _line_search_run(objective, x, data.op.apply(x), direction,
                                1, BETA_LS, BACKTRACK,
                                RelChangeStop("sgp", config.tol), config,
                                start, ground_truth, on_iterate)


def _line_search_run(objective, x, ax, direction, window, eta, delta, stop,
                     config, start, ground_truth, on_iterate):
    """The outer loop of both solvers, from feasible x with its A x;
    returns (x, trace).

    Iteration k takes (d, A d or None, slope, trace columns) from
    `direction(k, x, ax)`, or ends the run on None, and searches x + rho d
    with `armijo` against the largest of the last `window` objective
    values.  Where the direction brings no A d, it applies A once per
    search, to d, after starting the first trial's TV half on the
    worker.  Each trial evaluates at its own fresh pair (x + rho d,
    A x + rho A d), the point formed on the worker beside its TV half and
    A x + rho A d on the calling thread beside its KL half; the accepted
    trial's pair is the next (x, A x).  It records the iterate with its
    error and time since `start`, and calls `on_iterate(k, x,
    rel_change)`.  Stops on `stop(rel_change)` ("tol"), the wall clock
    ("time", at `start + config.max_time`), the iteration cap ("cap"), a
    search that stalls at round-off ("stalled") or a direction of None
    ("stationary"), and records which in `trace.stop_reason`.
    """
    deadline = start + config.max_time
    pool = objective.pool
    f_hist = deque([objective.value(x, ax)], maxlen=window)
    trace = SolverTrace()
    trial = None
    for k in range(1, config.max_outer_iters + 1):
        found = direction(k, x, ax)
        if found is None:
            trace.stop_reason = "stationary"
            break
        d, ad, slope, row = found
        first = objective.start_trial(x, d)
        if ad is None:
            ad = objective.data.op.apply(d)

        def value_at(rho):
            nonlocal trial
            point, tv = (first if rho == 1.0 else
                         objective.start_trial(x, d, rho))
            ax_trial = _trial(ax, ad, rho)      # as the worker forms point
            trial = point.result(), ax_trial
            return objective.value(*trial, tv)

        step = armijo(value_at, max(f_hist), slope, eta, delta)
        if step is None:
            trace.stop_reason = "stalled"
            break
        alpha, f_x = step
        change = _submit(pool, relative_change, trial[0], x)
        x, ax = trial
        f_hist.append(f_x)
        rel_error = _rel_error(x, ground_truth)
        rel_change = change.result()
        trace.append(iters=k, objective=f_x, rel_change=rel_change,
                     alpha=alpha, rel_error=rel_error,
                     time_s=time.perf_counter() - start, **row)
        if on_iterate is not None:
            on_iterate(k, x, rel_change)
        if stop(rel_change):
            trace.stop_reason = "tol"
            break
        if time.perf_counter() >= deadline:
            trace.stop_reason = "time"
            break
    else:
        trace.stop_reason = "cap"
    return x, trace
