"""Outer quadratic-model line-search solver and the standalone SGP baseline.

Each outer iteration assembles a strongly convex quadratic model of the
smoothed objective (second-order Taylor model of the KL term plus the
reweighted TV surrogate), solves it inexactly with scaled gradient
projection, and takes a nonmonotone Armijo step along the resulting
direction.
"""

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
import csv
import math
import time

import numpy as np

from .kl import KlQuadraticModel, kl_value, kl_gradient
from .tv import TvQuadraticModel, tv_mu_value, tv_mu_gradient
from .sgp import (RelChangeStop, SgpConfig, SteplengthState, _dot,
                  relative_change, sgp_solve)
from .testbed import MssimReference, relative_error

# Consecutive iterations the relative-change criterion must hold before
# the standalone SGP run stops: wide enough to span one full cycle of
# the adaptive steplength rule (buffer length 3 plus the recovery step
# on either side), so transient tiny-step bursts do not end the run.
SGP_STOP_PATIENCE = 7


def stop_rule(method, tol):
    """The relative-change stop of `method` ("acquire" or "sgp") at tol.

    ACQUIRE stops on the first change <= tol.  The adaptive
    Barzilai-Borwein rule emits short bursts of tiny steps followed by a
    large recovery step, so SGP stops only after SGP_STOP_PATIENCE
    consecutive ones.
    """
    return RelChangeStop(tol, SGP_STOP_PATIENCE if method == "sgp" else 1)


@dataclass
class AcquireConfig:
    lam: float                      # regularization weight
    mu: float = 1e-2                # Huber threshold
    gamma: float = 1e-5             # curvature shift of the KL model
    eta: float = 1e-5               # Armijo slope fraction
    delta: float = 0.5              # backtrack factor
    memory: int = 5                 # nonmonotone reference window
    theta: float = 0.1              # inner stop ratio
    inner_max_iters: int = 10       # 0 means uncapped
    tol: float = 1e-6               # relative-change stopping threshold
    max_outer_iters: int = 10000
    max_time: float = 25.0          # wall-clock budget, seconds
    monotone: bool = False          # force memory = 1
    track_mssim: bool = False       # per-iteration MSSIM when truth is known
    max_line_search: int = 60
    sgp: SgpConfig = field(default_factory=SgpConfig)

    def __post_init__(self):
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
    holds the first nine, under the names in CSV_COLUMNS.
    """

    COLUMNS = {
        "iters": None,
        "objective": None,
        "rel_change": None,
        "alpha": 1.0,                    # outer step length
        "inner_iters": 0,
        "pg_norm": None,                 # of F_k at the inner solution
        "rel_error": None,               # vs ground truth, or nan
        "time_s": None,
        "mssim": None,                   # optional, else nan
        "inner_target": float("nan"),    # inner stopping thresholds
        "inner_ref_norm": float("nan"),  # projected-gradient norm at x0
        "inner_cap_hit": False,
    }
    CSV_COLUMNS = ("iter",) + tuple(COLUMNS)[1:9]

    def __init__(self):
        for name in self.COLUMNS:
            setattr(self, name, [])

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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.CSV_COLUMNS)
            for row in islice(zip(*columns), last):
                writer.writerow([f"{v:.17g}" if isinstance(v, float) else v
                                 for v in row])


class OuterModel:
    """F_k: quadratic KL model plus lam times the reweighted TV model.

    `ax`, when given, is A x_k (see `KlQuadraticModel`).
    """

    def __init__(self, data, x_k, lam, mu, gamma, ax=None):
        self.kl = KlQuadraticModel(data, x_k, gamma, ax)
        self.tv = TvQuadraticModel(x_k, mu)
        self.lam = lam

    def value(self, x):
        return self.kl.value(x) + self.lam * self.tv.value(x)

    def gradient(self, x):
        return _add_scaled(self.kl.gradient(x), self.lam, self.tv.gradient(x))

    def hessian_vec(self, v):
        return _add_scaled(self.kl.hessian_vec(v), self.lam,
                           self.tv.hessian_vec(v))


def _add_scaled(a, lam, b):
    """a + lam * b, written into a (b is overwritten); both fresh."""
    b *= lam
    a += b
    return a


def objective_value(data, x, lam, mu, ax=None):
    """The smoothed objective: KL divergence plus lam times smoothed TV.

    `ax`, when given, is A x (see `PoissonData.forward`).
    """
    return kl_value(data, x, ax) + lam * tv_mu_value(x, mu)


def objective_gradient(data, x, lam, mu, ax=None):
    return _add_scaled(kl_gradient(data, x, ax), lam, tv_mu_gradient(x, mu))


def _rel_error(x, ground_truth):
    return (float("nan") if ground_truth is None
            else relative_error(x, ground_truth))


def _mssim(score):
    """Wait for one iterate's MSSIM, scored on the solve's worker thread.

    A function of its own so that the benchmark's tracer can time the
    wait; it runs on the calling thread, once per recorded iterate.
    """
    return score.result()


@contextmanager
def _recorder(config, ground_truth, on_iterate, start):
    """A solve's trace and the one function both solvers record an
    iterate with: it adds the error, MSSIM and time since `start`, then
    calls `on_iterate(k, x, rel_change)`.

    MSSIM is scored on one worker thread that the solve owns, while the
    solver goes on: recording an iterate first waits for the previous
    iterate's score, so at most one is in flight, and the last one is
    waited for on leaving the block.  The worker reads x after `record`
    returns, so no one may write into a recorded iterate.
    """
    trace = SolverTrace()
    # The truth's side of MSSIM is filtered once per solve.
    reference = (MssimReference(ground_truth)
                 if config.track_mssim and ground_truth is not None else None)
    pool = None if reference is None else ThreadPoolExecutor(1)
    scoring = []                # the last row's MSSIM, while in flight

    def settle():
        if scoring:
            trace.mssim[-1] = _mssim(scoring.pop())

    def record(k, x, objective, rel_change, pg_norm, **row):
        rel_error = _rel_error(x, ground_truth)
        settle()
        trace.append(iters=k, objective=objective, rel_change=rel_change,
                     pg_norm=pg_norm, rel_error=rel_error,
                     mssim=float("nan"),
                     time_s=time.perf_counter() - start, **row)
        if pool is not None:
            scoring.append(pool.submit(reference, x))
        if on_iterate is not None:
            on_iterate(k, x, rel_change)
    try:
        yield trace, record
        settle()
    finally:
        if pool is not None:
            pool.shutdown()


def acquire_solve(data, feasible_set, x0, config, ground_truth=None,
                  on_iterate=None):
    """Run the outer solver; returns (restored image, trace).

    x0 is projected onto the feasible set before use.  Stops on relative
    iterate change <= config.tol, the outer iteration cap, or the
    wall-clock budget.  `on_iterate(k, x, rel_change)` sees each iterate
    and must not write into x: with `config.track_mssim`, a worker thread
    may still be scoring it.
    """
    start = time.perf_counter()
    x = feasible_set.project(np.asarray(x0, dtype=np.float64))
    memory = 1 if config.monotone else config.memory
    # The one evaluation path for the objective: it keeps A x of the
    # current iterate, so the outer line search applies A once (A d) and
    # the next model is built from the cached A x.
    objective = _SmoothObjective(data, config.lam, config.mu)
    f_x = objective.value(x)
    f_hist = deque([f_x], maxlen=memory)
    state = SteplengthState()
    inner_cap = config.inner_max_iters if config.inner_max_iters > 0 else 100000
    stop = stop_rule("acquire", config.tol)
    # Reference norm for the inner stopping rule, fixed once per run.  At
    # the first iteration the model gradient at the start equals the true
    # gradient, so this is the model's projected-gradient norm at x^(0);
    # keeping it fixed makes the threshold sequence exactly geometric.
    ref_norm = float(np.linalg.norm(feasible_set.projected_gradient(
        x, objective.gradient(x))))
    recording = _recorder(config, ground_truth, on_iterate, start)
    with recording as (trace, record):
        for k in range(1, config.max_outer_iters + 1):
            model = OuterModel(data, x, config.lam, config.mu, config.gamma,
                               objective.blurred(x))
            target = config.theta**k * ref_norm
            x_hat, inner = sgp_solve(model, feasible_set, x, state,
                                     config.sgp, max_iters=inner_cap,
                                     stop_norm_target=target)
            d = x_hat - x
            # The inner solve starts at x, where the model gradient equals
            # the true one.
            slope = _dot(inner.start_gradient, d)
            f_ref = max(f_hist)
            alpha = 1.0
            trial = objective.line(x, d)
            f_trial = trial(alpha)
            backtracks = 0
            while f_trial > f_ref + config.eta * alpha * slope:
                backtracks += 1
                if backtracks > config.max_line_search:
                    raise RuntimeError(
                        f"outer line search at iteration {k}: no Armijo "
                        f"step within {config.max_line_search} backtracks "
                        f"(f_ref {f_ref:.17g}, slope {slope:.6g}, last "
                        f"alpha {alpha:.6g})")
                alpha *= config.delta
                f_trial = trial(alpha)
            x_new = x + alpha * d
            rel_change = relative_change(x_new, x)
            x = x_new
            f_x = f_trial
            f_hist.append(f_x)
            record(k, x, f_x, rel_change, inner.final_pg_norm, alpha=alpha,
                   inner_iters=inner.iterations, inner_target=target,
                   inner_ref_norm=ref_norm,
                   inner_cap_hit=inner.iterations >= inner_cap
                   and inner.final_pg_norm > target)
            if stop(rel_change):
                break
            if time.perf_counter() - start >= config.max_time:
                break
    return x, trace


class _SmoothObjective:
    """value/gradient callbacks for the smoothed objective itself.

    Keeps A x of the last point it evaluated.  Line-search trials use
    A(z + rho d) = A z + rho A d, so a backtracking search costs one blur
    apply however many trials it makes, and the gradient at the accepted
    point reuses the accepted trial's A x.
    """

    def __init__(self, data, lam, mu):
        self.data = data
        self.lam = lam
        self.mu = mu
        self._x = None
        self._ax = None

    def blurred(self, x):
        """A x, from the cache when x is the last point evaluated."""
        if self._x is None or not np.array_equal(x, self._x):
            self._x, self._ax = x.copy(), self.data.op.apply(x)
        return self._ax

    def value(self, x):
        return objective_value(self.data, x, self.lam, self.mu,
                               self.blurred(x))

    def gradient(self, x):
        return objective_gradient(self.data, x, self.lam, self.mu,
                                  self.blurred(x))

    def line(self, z, direction):
        """rho -> value(z + rho * direction), applying A once (A d)."""
        az = self.blurred(z)
        ad = self.data.op.apply(direction)

        def value_at(rho):
            self._x, self._ax = z + rho * direction, az + rho * ad
            return objective_value(self.data, self._x, self.lam, self.mu,
                                   self._ax)
        return value_at


def sgp_restore(data, feasible_set, x0, config, ground_truth=None,
                on_iterate=None):
    """Standalone SGP baseline on the smoothed objective.

    Uses the same steplength/scaling machinery as the inner solver, with
    the iteration cap lifted and the SGP relative-change stop (see
    `stop_rule`).  `on_iterate` is called as in `acquire_solve`, and must
    not write into x either.
    """
    start = time.perf_counter()
    x0 = feasible_set.project(np.asarray(x0, dtype=np.float64))
    recording = _recorder(config, ground_truth, on_iterate, start)
    with recording as (trace, record):
        x, _ = sgp_solve(_SmoothObjective(data, config.lam, config.mu),
                         feasible_set, x0, SteplengthState(), config.sgp,
                         max_iters=config.max_outer_iters,
                         stop=stop_rule("sgp", config.tol),
                         max_time=config.max_time, monitor=record)
    return x, trace
