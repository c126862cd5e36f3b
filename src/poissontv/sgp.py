"""Scaled gradient projection with adaptive Barzilai-Borwein steplengths.

Used both as the inner solver for the per-iteration quadratic models and
as a standalone baseline on the smoothed objective.  The steplength
state (a short ring buffer of recent BB2-type steps plus the adaptive
switching threshold) survives across solver invocations so consecutive
calls do not restart from scratch.
"""

from collections import deque
from dataclasses import dataclass, field
import time

import numpy as np

from .constraints import DiagonalMetric


def _dot(a, b):
    return float(np.vdot(a, b))


def relative_change(new, old):
    """||new - old|| / ||old||, guarded against a zero old iterate."""
    return float(np.linalg.norm(new - old)) / max(
        float(np.linalg.norm(old)), np.finfo(float).tiny)


class RelChangeStop:
    """Stop rule: true once the relative iterate change has stayed <= tol
    for `patience` consecutive iterations."""

    def __init__(self, tol, patience=1):
        self.tol = tol
        self.patience = patience
        self.calm = 0

    def __call__(self, rel_change):
        self.calm = self.calm + 1 if rel_change <= self.tol else 0
        return self.calm >= self.patience


@dataclass
class SgpConfig:
    """Steplength, line-search and scaling parameters.

    The diagonal scaling is the iterate itself, clamped into
    [scale_min, scale_max].  The floor only has to keep the metric
    positive at exact zeros, so it sits far below the values iterates
    take (unit-max images hold pixels near 1e-5).  A floor above a pixel
    turns the multiplicative step z (1 - nu g) into the additive
    z - nu scale_min g, which a long steplength drives to zero; the
    pixel then has to be regrown over many short steps, and the run
    creeps.
    """

    beta_ls: float = 1e-4          # sufficient-decrease fraction
    backtrack: float = 0.5
    max_backtracks: int = 50
    scale_min: float = 1e-10       # diagonal scaling clamp bounds
    scale_max: float = 1e4


@dataclass
class SteplengthState:
    """Cross-call memory for the adaptive BB steplength rule."""

    nu_min: float = 1e-10
    nu_max: float = 1e10
    q: int = 3
    tau_abb: float = 0.5
    buffer: deque = field(default_factory=lambda: deque(maxlen=3))
    prev_z: np.ndarray | None = None
    prev_g: np.ndarray | None = None

    def __post_init__(self):
        if self.buffer.maxlen != self.q:
            self.buffer = deque(self.buffer, maxlen=self.q)

    def begin_call(self):
        # A new invocation works on a new objective: the iterate/gradient
        # pair is stale, but the steplength buffer carries over.
        self.prev_z = None
        self.prev_g = None

    def record(self, z, g):
        self.prev_z = z
        self.prev_g = g


def scaling_matrix(z, lo=SgpConfig.scale_min, hi=SgpConfig.scale_max):
    """Diagonal scaling: the iterate clamped into [lo, hi]."""
    return DiagonalMetric(np.clip(z, lo, hi), lo, hi)


def abbmin_steplength(state, metric, z=None, g=None):
    """Adaptive BB steplength in the metric induced by C = diag(metric).

    Falls back to the minimum buffered steplength when no iterate pair
    is available yet in this call, and to 1 on a completely cold start.
    """
    clamp = lambda nu: min(max(nu, state.nu_min), state.nu_max)
    if z is None or state.prev_z is None:
        if state.buffer:
            return clamp(min(state.buffer))
        return 1.0
    d = metric.d
    s = z - state.prev_z
    w = g - state.prev_g
    s_cinv = s / d
    s_cinv_w = _dot(s_cinv, w)
    s_cinv_s_cinv = _dot(s_cinv, s_cinv)
    s_c_w = _dot(np.multiply(s, d, out=s), w)
    wd = np.multiply(w, d, out=w)
    w_cc_w = _dot(wd, wd)
    if s_cinv_w <= 0 or w_cc_w <= 0:
        return state.nu_max
    nu_bb1 = s_cinv_s_cinv / s_cinv_w
    # BB2 measures curvature as s'Cw, whose sign can differ from that of
    # s'C^-1 w when the scaling spans orders of magnitude.  A nonpositive
    # s'Cw carries no curvature information: BB2 counts as nu_max, as in
    # Bonettini, Zanella & Zanni (2009), and never enters the buffer as a
    # tiny step that the min-BB2 branch would then take.
    nu_bb2 = s_c_w / w_cc_w if s_c_w > 0 else state.nu_max
    state.buffer.append(clamp(nu_bb2))
    if nu_bb2 / nu_bb1 < state.tau_abb:
        state.tau_abb *= 0.9
        return clamp(min(state.buffer))
    state.tau_abb *= 1.1
    return clamp(nu_bb1)


@dataclass
class SgpTrace:
    iterations: int = 0
    values: list = field(default_factory=list)
    pg_norms: list = field(default_factory=list)
    steplengths: list = field(default_factory=list)
    final_pg_norm: float = float("nan")
    start_gradient: np.ndarray | None = None    # model gradient at z0


def sgp_solve(model, feasible_set, z0, state, config, max_iters,
              stop_norm_target=None, stop=None, max_time=None,
              monitor=None):
    """Run scaled gradient projection on a convex model over a feasible set.

    Stops when the projected-gradient norm reaches `stop_norm_target`,
    when `stop(rel_change)` holds after an accepted step (see
    `RelChangeStop`), or on the iteration / wall-time caps.  Every
    iterate is feasible and the objective sequence is monotone (Armijo
    sufficient decrease on each accepted step).  `monitor(k, z, f,
    rel_change, pg_norm)` sees each accepted iterate, with the
    projected-gradient norm of the iterate it was stepped from.

    The solver writes into the arrays that `hessian_vec` and
    `project_weighted` return, so those must be fresh; it never writes
    into z0, a returned or monitored iterate, or a gradient.
    """
    state.begin_call()
    z = np.asarray(z0, dtype=np.float64)
    # Quadratic models expose their Hessian action H.  One action H d
    # per iteration then gives the line-search trial values exactly
    # (from the one-dimensional restriction) and the next gradient by
    # the recurrence g + rho H d, as in Bonettini, Zanella & Zanni
    # (2009).  Other models may expose `line(z, direction)`, a cheaper
    # evaluator of rho -> value(z + rho * direction).
    hessian_vec = getattr(model, "hessian_vec", None)
    line = getattr(model, "line", None)
    scaled = np.empty_like(z)
    start = time.perf_counter()
    f_z = model.value(z)
    g = model.gradient(z)       # gradient at z; None while stale
    trace = SgpTrace(start_gradient=g)
    stopped_at_z = False
    for _ in range(max_iters):
        if g is None:
            g = model.gradient(z)
        pg_norm = float(np.linalg.norm(feasible_set.projected_gradient(z, g)))
        trace.pg_norms.append(pg_norm)
        if stop_norm_target is not None and pg_norm <= stop_norm_target:
            stopped_at_z = True
            break
        metric = scaling_matrix(z, config.scale_min, config.scale_max)
        nu = abbmin_steplength(state, metric, z, g)
        # The scaled trial point z - nu d g, formed in place.
        np.multiply(nu, metric.d, out=scaled)
        scaled *= g
        np.subtract(z, scaled, out=scaled)
        direction = feasible_set.project_weighted(metric, scaled)
        direction -= z
        slope = _dot(g, direction)
        if slope >= 0:
            # Projection returned the current point (stationary for the
            # scaled step); nothing more to gain.
            stopped_at_z = True
            break
        rho = 1.0
        backtracks = 0
        if hessian_vec is not None:
            hd = hessian_vec(direction)
            curv = _dot(direction, hd)
            trial = lambda rho: f_z + rho * slope + 0.5 * rho * rho * curv
        elif line is not None:
            trial = line(z, direction)
        else:
            trial = lambda rho: model.value(z + rho * direction)
        f_new = trial(rho)
        while f_new > f_z + config.beta_ls * rho * slope:
            backtracks += 1
            if backtracks > config.max_backtracks:
                if abs(rho * slope) <= 1e-12 * max(abs(f_z), 1e-30):
                    # The last trial step's predicted decrease is below
                    # the round-off resolution of the objective value:
                    # no resolvable progress remains along this
                    # direction, so treat the iterate as stationary to
                    # working precision.
                    stopped_at_z = True
                    break
                raise RuntimeError(
                    f"SGP line search exhausted after {config.max_backtracks} "
                    f"backtracks (slope {slope:.6g}, last rho {rho:.6g}): "
                    "model value and gradient are inconsistent")
            rho *= config.backtrack
            f_new = trial(rho)
        if stopped_at_z:
            break
        # The state keeps z and g: the step and the recurrence below
        # write only into this iteration's direction and H d.
        state.record(z, g)
        direction *= rho
        z_new = np.add(z, direction, out=direction)
        if stop is not None or monitor is not None:
            rel_change = relative_change(z_new, z)
        z = z_new
        f_z = f_new
        if hessian_vec is not None:
            hd *= rho
            hd += g
            g = hd
        else:
            # Other models evaluate it when next needed: at the next
            # pass or at exit.
            g = None
        trace.iterations += 1
        trace.values.append(f_z)
        trace.steplengths.append(nu)
        if monitor is not None:
            monitor(trace.iterations, z, f_z, rel_change, pg_norm)
        if stop is not None and stop(rel_change):
            break
        if max_time is not None and time.perf_counter() - start >= max_time:
            break
    if stopped_at_z:
        trace.final_pg_norm = trace.pg_norms[-1]
    else:
        if g is None:
            g = model.gradient(z)
        trace.final_pg_norm = float(np.linalg.norm(
            feasible_set.projected_gradient(z, g)))
    return z, trace
