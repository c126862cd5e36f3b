"""Outer quadratic-model line-search solver and the standalone SGP baseline.

Each outer iteration assembles a strongly convex quadratic model of the
smoothed objective (second-order Taylor model of the KL term plus the
reweighted TV surrogate), solves it inexactly with scaled gradient
projection, and takes a nonmonotone Armijo step along the resulting
direction.
"""

from collections import deque
from dataclasses import dataclass, field, replace
import csv
import time

import numpy as np

from .kl import KlQuadraticModel, kl_value, kl_gradient
from .tv import TvQuadraticModel, tv_mu_value, tv_mu_gradient
from .sgp import SgpConfig, SteplengthState, sgp_solve
from .testbed import mssim as _mssim

# Consecutive iterations the relative-change criterion must hold before
# the standalone SGP run stops: wide enough to span one full cycle of
# the adaptive steplength rule (buffer length 3 plus the recovery step
# on either side), so transient tiny-step bursts do not end the run.
SGP_STOP_PATIENCE = 7


def _dot(a, b):
    return float(np.vdot(a, b))


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
        if self.lam <= 0 or self.mu <= 0 or self.gamma < 0:
            raise ValueError("require lam > 0, mu > 0, gamma >= 0")
        if not (0 < self.eta < 1 and 0 < self.delta < 1):
            raise ValueError("eta and delta must lie in (0, 1)")
        if not (0 < self.theta < 1) or self.memory < 1 or self.tol < 0:
            raise ValueError("invalid theta, memory or tol")


@dataclass
class SolverTrace:
    """Per-outer-iteration history of a solve."""

    iters: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    rel_change: list = field(default_factory=list)
    alpha: list = field(default_factory=list)
    inner_iters: list = field(default_factory=list)
    pg_norm: list = field(default_factory=list)         # of F_k at the inner solution
    rel_error: list = field(default_factory=list)       # vs ground truth, or nan
    mssim: list = field(default_factory=list)            # optional, else nan
    time_s: list = field(default_factory=list)
    inner_target: list = field(default_factory=list)    # inner stopping thresholds
    inner_ref_norm: list = field(default_factory=list)  # projected-gradient norm at x0
    inner_cap_hit: list = field(default_factory=list)
    stagnated: bool = False

    def append(self, **row):
        for key, value in row.items():
            getattr(self, key).append(value)

    CSV_COLUMNS = ("iter", "objective", "rel_change", "alpha", "inner_iters",
                   "pg_norm", "rel_error", "time_s", "mssim")

    def write_csv(self, path, last=None):
        """Write the trace as CSV; `last` truncates to the first rows."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.CSV_COLUMNS)
            rows = zip(self.iters, self.objective, self.rel_change,
                       self.alpha, self.inner_iters, self.pg_norm,
                       self.rel_error, self.time_s, self.mssim)
            for i, row in enumerate(rows):
                if last is not None and i >= last:
                    break
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
        return self.kl.gradient(x) + self.lam * self.tv.gradient(x)

    def hessian_vec(self, v):
        return self.kl.hessian_vec(v) + self.lam * self.tv.hessian_vec(v)


def objective_value(data, x, lam, mu, ax=None):
    """The smoothed objective: KL divergence plus lam times smoothed TV.

    `ax`, when given, is A x (see `PoissonData.forward`).
    """
    return kl_value(data, x, ax) + lam * tv_mu_value(x, mu)


def objective_gradient(data, x, lam, mu, ax=None):
    return kl_gradient(data, x, ax) + lam * tv_mu_gradient(x, mu)


def _rel_error(x, ground_truth):
    if ground_truth is None:
        return float("nan")
    return float(np.linalg.norm(x - ground_truth) / np.linalg.norm(ground_truth))


def acquire_solve(data, feasible_set, x0, config, ground_truth=None,
                  on_iterate=None):
    """Run the outer solver; returns (restored image, trace).

    x0 is projected onto the feasible set before use.  Stops on relative
    iterate change <= config.tol, the outer iteration cap, or the
    wall-clock budget.
    """
    start = time.perf_counter()
    x = feasible_set.project(np.asarray(x0, dtype=np.float64))
    x_start = x.copy()
    memory = 1 if config.monotone else config.memory
    # The one evaluation path for the objective: it keeps A x of the
    # current iterate, so the outer line search applies A once (A d) and
    # the next model is built from the cached A x.
    objective = _SmoothObjective(data, config.lam, config.mu)
    f_x = objective.value(x)
    f_hist = deque([f_x], maxlen=memory)
    state = SteplengthState(nu_min=config.sgp.nu_min, nu_max=config.sgp.nu_max)
    inner_cap = config.inner_max_iters if config.inner_max_iters > 0 else 100000
    trace = SolverTrace()
    # Reference norm for the inner stopping rule, fixed once per run.  At
    # the first iteration the model gradient at the start equals the true
    # gradient, so this is the model's projected-gradient norm at x^(0);
    # keeping it fixed makes the threshold sequence exactly geometric.
    ref_norm = float(np.linalg.norm(feasible_set.projected_gradient(
        x_start, objective.gradient(x_start))))
    for k in range(1, config.max_outer_iters + 1):
        model = OuterModel(data, x, config.lam, config.mu, config.gamma,
                           objective.blurred(x))
        target = config.theta**k * ref_norm
        x_hat, inner = sgp_solve(model, feasible_set, x, state, config.sgp,
                                 stop_norm_target=target, max_iters=inner_cap)
        # At the anchor the model costs no blur; at x_hat the inner solve
        # already holds its value.
        fk_x = model.value(x)
        if inner.values and inner.values[-1] > fk_x:
            # Inner solve failed to decrease the model; fall back to the
            # current iterate and let the stopping test fire.
            x_hat = x
            trace.stagnated = True
        d = x_hat - x
        slope = _dot(model.gradient(x), d)   # equals the true gradient slope
        f_ref = max(f_hist)
        alpha = 1.0
        trial = objective.line(x, d)
        f_trial = trial(alpha)
        backtracks = 0
        while f_trial > f_ref + config.eta * alpha * slope:
            backtracks += 1
            if backtracks > config.max_line_search:
                raise RuntimeError(
                    f"outer line search at iteration {k}: no Armijo step "
                    f"within {config.max_line_search} backtracks (f_ref "
                    f"{f_ref:.17g}, slope {slope:.6g}, last alpha "
                    f"{alpha:.6g})")
            alpha *= config.delta
            f_trial = trial(alpha)
        x_new = x + alpha * d
        rel_change = float(np.linalg.norm(x_new - x)) / max(
            float(np.linalg.norm(x)), np.finfo(float).tiny)
        x = x_new
        f_x = f_trial
        f_hist.append(f_x)
        track = config.track_mssim and ground_truth is not None
        trace.append(
            iters=k,
            objective=f_x,
            rel_change=rel_change,
            alpha=alpha,
            inner_iters=inner.iterations,
            pg_norm=inner.final_pg_norm,
            rel_error=_rel_error(x, ground_truth),
            mssim=_mssim(x, ground_truth) if track else float("nan"),
            time_s=time.perf_counter() - start,
            inner_target=target,
            inner_ref_norm=ref_norm,
            inner_cap_hit=inner.iterations >= inner_cap
            and inner.final_pg_norm > target,
        )
        if on_iterate is not None:
            on_iterate(k, x, rel_change)
        if rel_change <= config.tol:
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
    the iteration cap lifted and stopping on relative iterate change.
    The stop requires the small change to persist for
    SGP_STOP_PATIENCE consecutive iterations: the adaptive
    Barzilai-Borwein rule emits short bursts of tiny steps followed by a
    large recovery step, and a single tiny step far from stationarity
    would otherwise end the run early.
    """
    start = time.perf_counter()
    x0 = feasible_set.project(np.asarray(x0, dtype=np.float64))
    objective = _SmoothObjective(data, config.lam, config.mu)
    state = SteplengthState(nu_min=config.sgp.nu_min, nu_max=config.sgp.nu_max)
    trace = SolverTrace()
    prev = {"x": x0, "k": 0}

    def monitor(z, f, pg_norm):
        prev["k"] += 1
        rel_change = float(np.linalg.norm(z - prev["x"])) / max(
            float(np.linalg.norm(prev["x"])), np.finfo(float).tiny)
        prev["x"] = z
        track = config.track_mssim and ground_truth is not None
        trace.append(
            iters=prev["k"],
            objective=f,
            rel_change=rel_change,
            alpha=1.0,
            inner_iters=0,
            pg_norm=pg_norm,
            rel_error=_rel_error(z, ground_truth),
            mssim=_mssim(z, ground_truth) if track else float("nan"),
            time_s=time.perf_counter() - start,
            inner_target=float("nan"),
            inner_ref_norm=float("nan"),
            inner_cap_hit=False,
        )
        if on_iterate is not None:
            on_iterate(prev["k"], z, rel_change)

    x, _ = sgp_solve(objective, feasible_set, x0, state, config.sgp,
                     rel_change_tol=config.tol,
                     rel_change_patience=SGP_STOP_PATIENCE,
                     max_iters=config.max_outer_iters,
                     max_time=config.max_time, monitor=monitor)
    return x, trace
