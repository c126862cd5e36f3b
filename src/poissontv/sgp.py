"""Scaled gradient projection with adaptive Barzilai-Borwein steplengths.

`sgp_direction` is one scaled gradient-projection step and `armijo` the
one backtracking line search.  `sgp_solve` runs them on the quadratic
models of ACQUIRE's inner solves; the standalone SGP baseline takes the
same direction and search in the outer loop of `solver.py`.  The
steplength state (a short ring buffer of recent BB2-type steps plus the
adaptive switching threshold) survives across solver invocations so
consecutive calls do not restart from scratch.
"""

from collections import deque
from dataclasses import dataclass, field
import math
import time

import numpy as np

from .constraints import DiagonalMetric, _dot


# Armijo line search: sufficient-decrease fraction, backtrack factor and
# the number of backtracks before the search gives up.
BETA_LS = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 50

# The diagonal scaling is the iterate itself, or for a model that states
# its Hessian diagonal h the iterate damped by it, z / (1 + z h), clamped
# into [SCALE_MIN, SCALE_MAX]: fixed bounds keep SGP convergent whatever
# the scaling (Bonettini, Zanella & Zanni 2009).  The floor only has to
# keep the metric positive at exact zeros, so it sits far below the
# values iterates take (unit-max images hold pixels near 1e-5).  A floor
# above a pixel turns the multiplicative step z (1 - nu g) into the
# additive z - nu SCALE_MIN g, which a long steplength drives to zero; the
# pixel then has to be regrown over many short steps, and the run creeps.
SCALE_MIN = 1e-10
SCALE_MAX = 1e4

# Adaptive BB steplength: the clamp bounds and the number of recent BB2
# values the min-BB2 branch looks back over.
NU_MIN = 1e-10
NU_MAX = 1e10
BB2_MEMORY = 3


@dataclass
class SteplengthState:
    """Cross-call memory for the adaptive BB steplength rule: the
    switching threshold, the recent BB2 values and the last
    iterate/gradient pair, plus the steplength's own work arrays."""

    tau_abb: float = 0.5
    buffer: deque = field(default_factory=lambda: deque(maxlen=BB2_MEMORY))
    prev_z: np.ndarray | None = None
    prev_g: np.ndarray | None = None
    _work: tuple = field(default=(), init=False, repr=False, compare=False)

    def begin_call(self):
        # A new invocation works on a new objective: the iterate/gradient
        # pair is stale, but the steplength buffer carries over.
        self.prev_z = None
        self.prev_g = None

    def record(self, z, g):
        self.prev_z = z
        self.prev_g = g

    def work(self, like):
        """Three arrays shaped like `like` for s, w and C^-1 s, kept
        across calls so that a steplength allocates no image."""
        if not self._work or self._work[0].shape != like.shape:
            self._work = tuple(np.empty(like.shape) for _ in range(3))
        return self._work


def scaling_matrix(z, h=None):
    """Diagonal scaling, clamped into [SCALE_MIN, SCALE_MAX]: the iterate
    z, or with a Hessian diagonal h >= 0 the split-gradient-type scaling
    z / (1 + z h) (Lanteri, Roche & Aime 2002), which is z where z h << 1
    and the Jacobi scaling 1 / h where z h >> 1."""
    if h is None:
        d = np.clip(z, SCALE_MIN, SCALE_MAX)
    else:
        d = np.multiply(z, h)
        d += 1.0
        np.clip(np.divide(z, d, out=d), SCALE_MIN, SCALE_MAX, out=d)
    return DiagonalMetric(d, SCALE_MIN, SCALE_MAX)


def abbmin_steplength(state, metric, z, g):
    """ABBmin steplength (Frassoldati, Zanghirati & Zanni 2008) in the
    metric C = diag(metric), as SGP states it (Bonettini, Zanella & Zanni
    2009).

    With s and w the last iterate and gradient differences,
    BB1 = s'C^-2 s / s'C^-1 w and BB2 = s'Cw / w'C^2 w; a BB value whose
    curvature term is nonpositive counts as NU_MAX.  BB2 enters a buffer
    of the last BB2_MEMORY values.  If BB2 / BB1 < tau the rule takes
    the smallest buffered BB2 and shrinks tau by 0.9, else it takes BB1
    and grows tau by 1.1; the result is clamped into [NU_MIN, NU_MAX].
    Falls back to the minimum buffered steplength when no iterate pair
    is available yet in this call, and to 1 on a completely cold start.

    Runs `abbmin_iterate_half` and `abbmin_gradient_half` in sequence.
    """
    metric, s_cinv_s_cinv = abbmin_iterate_half(state, z, metric)
    return abbmin_gradient_half(state, metric, s_cinv_s_cinv, g)


def abbmin_iterate_half(state, z, metric=None):
    """The terms of `abbmin_steplength` at z that need no gradient, as
    (C, s'C^-2 s), with C = `scaling_matrix(z)` unless `metric` gives it.

    s C^-1 and s C are left in `state`'s work arrays for
    `abbmin_gradient_half`; s'C^-2 s is None where no iterate pair is
    available yet in this call.
    """
    if metric is None:
        metric = scaling_matrix(z)
    if state.prev_z is None:
        return metric, None
    d = metric.d
    s, _, s_cinv = state.work(z)
    np.subtract(z, state.prev_z, out=s)
    np.divide(s, d, out=s_cinv)
    np.multiply(s, d, out=s)
    return metric, _dot(s_cinv, s_cinv)


def abbmin_gradient_half(state, metric, s_cinv_s_cinv, g):
    """The ABBmin steplength at gradient g from `abbmin_iterate_half`'s
    (metric, s_cinv_s_cinv), taken at the iterate g belongs to."""
    clamp = lambda nu: min(max(nu, NU_MIN), NU_MAX)
    if s_cinv_s_cinv is None:
        if state.buffer:
            return clamp(min(state.buffer))
        return 1.0
    s_c, w, s_cinv = state.work(g)
    np.subtract(g, state.prev_g, out=w)
    s_cinv_w = _dot(s_cinv, w)
    s_c_w = _dot(s_c, w)
    wd = np.multiply(w, metric.d, out=w)
    w_cc_w = _dot(wd, wd)
    # A nonpositive curvature term leaves that BB value undefined; it
    # counts as nu_max and the ratio test still runs.  With BB1 = nu_max
    # the test takes the smallest buffered BB2, a step the line search
    # can accept; a step of nu_max it would halve about 33 times.  BB2
    # measures curvature as s'Cw, whose sign can differ from that of
    # s'C^-1 w when the scaling spans orders of magnitude; an undefined
    # BB2 never enters the buffer as a tiny step that the min-BB2 branch
    # would then take.
    nu_bb1 = s_cinv_s_cinv / s_cinv_w if s_cinv_w > 0 else NU_MAX
    nu_bb2 = s_c_w / w_cc_w if s_c_w > 0 and w_cc_w > 0 else NU_MAX
    state.buffer.append(clamp(nu_bb2))
    if nu_bb2 / nu_bb1 < state.tau_abb:
        state.tau_abb *= 0.9
        return clamp(min(state.buffer))
    state.tau_abb *= 1.1
    return clamp(nu_bb1)


def armijo(trial, f_ref, slope, eta, delta):
    """The one backtracking search: the first rho of 1, delta, delta^2, ...
    with trial(rho) <= f_ref + eta rho slope, as (rho, trial(rho)).

    After MAX_BACKTRACKS backtracks it returns None where the last step's
    predicted decrease is below the round-off resolution of f_ref (no
    resolvable progress remains along the direction), else raises.
    """
    rho = 1.0
    f_new = trial(rho)
    backtracks = 0
    while f_new > f_ref + eta * rho * slope:
        backtracks += 1
        if backtracks > MAX_BACKTRACKS:
            if abs(rho * slope) <= 1e-12 * max(abs(f_ref), 1e-30):
                return None
            raise RuntimeError(
                f"line search exhausted after {MAX_BACKTRACKS} backtracks "
                f"(f_ref {f_ref:.17g}, slope {slope:.6g}, last step "
                f"{rho:.6g}): value and gradient are inconsistent")
        rho *= delta
        f_new = trial(rho)
    return rho, f_new


def sgp_direction(feasible_set, z, g, metric, nu, state, scaled):
    """(d, g'd) for the scaled step d = P_C(z - nu C g) - z, projected in
    the metric C = diag(`metric.d`) with steplength nu; None where
    g'd >= 0 (z is stationary for the scaled step).  `scaled` is work
    space shaped like z; d is fresh.

    A returned direction records (z, g) in `state`, by reference: a step
    from z must write only into fresh arrays, never into z or g.
    """
    # The scaled trial point z - nu d g, formed in place.
    np.multiply(nu, metric.d, out=scaled)
    scaled *= g
    np.subtract(z, scaled, out=scaled)
    direction = feasible_set.project_weighted(metric, scaled)
    direction -= z
    slope = _dot(g, direction)
    if slope >= 0:
        return None
    state.record(z, g)
    return direction, slope


@dataclass
class SgpTrace:
    """An inner solve's accepted steps, final projected-gradient norm and
    why it stopped: "target" (the norm met the stop target), "cap" (the
    iteration cap, with the target unmet), "time" (the deadline),
    "stationary" (no descent direction) or "stalled" (the Armijo search
    gave up at round-off)."""

    iterations: int = 0
    final_pg_norm: float = float("nan")
    stop_reason: str | None = None


def sgp_solve(model, feasible_set, z0, g0, state, max_iters,
              stop_norm_target=None, deadline=math.inf):
    """Run scaled gradient projection on a quadratic model (`hessian_vec`)
    over a feasible set from z0, where the model gradient is g0; returns
    (z, SgpTrace).

    One Hessian action H d per iteration gives the model's change along d
    exactly and the next gradient by the recurrence g + rho H d, as in
    Bonettini, Zanella & Zanni (2009).  Where the model has a
    `hessian_diag()`, read once per call, the steps are scaled by it (see
    `scaling_matrix`); else by the iterate alone.  Where it has an
    `accept_step(rho)`, each accepted step calls it once, after the Hessian
    action along its direction, with its Armijo step rho.  Stops when the
    projected-gradient norm reaches `stop_norm_target` or the clock
    (`time.perf_counter`) reaches `deadline`, either after at least one
    step (a loose target or a spent budget that returned z0 would give
    the outer solver a zero step, which ends its run as if converged), on
    the iteration cap, where the scaled step leaves z in place, or where
    its search stalls at round-off; `SgpTrace.stop_reason` says which.
    Every iterate is feasible and the model values are monotone (Armijo
    sufficient decrease of the change).

    The solver writes into the arrays that `hessian_vec` and
    `project_weighted` return, so those must be fresh; it never writes
    into z0, g0, a returned iterate, or a gradient.
    """
    state.begin_call()
    h = model.hessian_diag() if hasattr(model, "hessian_diag") else None
    accept_step = getattr(model, "accept_step", None)
    z = np.asarray(z0, dtype=np.float64)
    scaled = np.empty_like(z)
    g = g0
    trace = SgpTrace()
    pg_norm = None              # at z, once computed
    for _ in range(max_iters):
        if trace.iterations > 0 and time.perf_counter() >= deadline:
            trace.stop_reason = "time"
            break
        if stop_norm_target is not None and trace.iterations > 0:
            pg_norm = feasible_set.pg_norm(z, g)
            if pg_norm <= stop_norm_target:
                trace.stop_reason = "target"
                break
        elif not feasible_set.contains(z):    # pg_norm's own check
            raise ValueError("point is not feasible")
        metric = scaling_matrix(z, h)
        nu = abbmin_steplength(state, metric, z, g)
        found = sgp_direction(feasible_set, z, g, metric, nu, state, scaled)
        if found is None:
            trace.stop_reason = "stationary"
            break
        direction, slope = found
        hd = model.hessian_vec(direction)
        curv = _dot(direction, hd)
        step = armijo(lambda rho: rho * slope + 0.5 * rho * rho * curv,
                      0.0, slope, BETA_LS, BACKTRACK)
        if step is None:
            trace.stop_reason = "stalled"
            break
        rho, _ = step
        if accept_step is not None:
            accept_step(rho)
        direction *= rho
        z = np.add(z, direction, out=direction)
        hd *= rho
        hd += g
        g = hd
        pg_norm = None
        trace.iterations += 1
    if pg_norm is None:
        pg_norm = feasible_set.pg_norm(z, g)
    trace.final_pg_norm = pg_norm
    if trace.stop_reason is None:       # the loop ran to its cap
        trace.stop_reason = ("target" if stop_norm_target is not None
                             and pg_norm <= stop_norm_target else "cap")
    return z, trace
