import itertools
import types

import numpy as np
import pytest

from poissontv import sgp
from poissontv.constraints import DiagonalMetric, FeasibleSet
from poissontv.sgp import (NU_MAX, RelChangeStop, SteplengthState,
                           abbmin_steplength, armijo, scaling_matrix,
                           sgp_solve)


class Quadratic:
    """0.5 z'Qz + q'z with explicit curvature action."""

    def __init__(self, q_mat, q_vec):
        self.q_mat = np.asarray(q_mat, dtype=np.float64)
        self.q_vec = np.asarray(q_vec, dtype=np.float64)

    def value(self, z):
        return float(0.5 * z @ self.q_mat @ z + self.q_vec @ z)

    def gradient(self, z):
        return self.q_mat @ z + self.q_vec

    def hessian_vec(self, v):
        return self.q_mat @ v


def qp_simplex_oracle(q_mat, q_vec, c):
    """Active-set enumeration for min 0.5 x'Qx + q'x on {x>=0, sum x=c}."""
    n = len(q_vec)
    best, best_val = None, np.inf
    for pattern in itertools.product((False, True), repeat=n):
        free = np.array(pattern)
        if not free.any():
            continue
        k = free.sum()
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = q_mat[np.ix_(free, free)]
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.concatenate([-q_vec[free], [c]])
        sol = np.linalg.solve(kkt, rhs)
        x = np.zeros(n)
        x[free] = sol[:k]
        if np.any(x < -1e-12):
            continue
        x = np.maximum(x, 0.0)
        val = 0.5 * x @ q_mat @ x + q_vec @ x
        if val < best_val:
            best, best_val = x, val
    return best


# -------------------------------------------------------------- scaling


def test_scaling_matrix_clamps():
    z = np.array([0.0, 0.5, 1e6])
    metric = scaling_matrix(z)
    assert metric.d.tolist() == [1e-10, 0.5, 1e4]
    # Strictly interior entries pass through untouched.
    z2 = np.array([0.01, 3.0])
    assert scaling_matrix(z2).d.tolist() == [0.01, 3.0]


def test_default_scaling_floor_keeps_small_pixels_positive():
    # Unit-max iterates hold pixels near 1e-5.  With the scaling equal to
    # the iterate, a long step (nu = 0.6) against a gradient of +1 is the
    # multiplicative z (1 - nu g) and the pixel stays positive; a floor
    # above the pixel makes the step z - nu * floor * g, which the
    # projection sets to zero.
    z = np.array([1e-5, 0.5])
    g = np.array([1.0, 1.0])
    metric = scaling_matrix(z)
    p = FeasibleSet.nonneg().project_weighted(metric, z - 0.6 * metric.d * g)
    assert p[0] == pytest.approx(0.4e-5, rel=1e-12)


# ----------------------------------------------------------- steplength


def test_abbmin_cold_start_is_one():
    state = SteplengthState()
    metric = DiagonalMetric(np.ones(2), 1.0, 1.0)
    assert abbmin_steplength(state, metric) == 1.0


def test_abbmin_unit_curvature():
    # s = w: both BB values equal 1.
    state = SteplengthState()
    state.prev_z = np.zeros(2)
    state.prev_g = np.zeros(2)
    metric = DiagonalMetric(np.ones(2), 1.0, 1.0)
    nu = abbmin_steplength(state, metric, np.array([1.0, 2.0]),
                           np.array([1.0, 2.0]))
    assert nu == pytest.approx(1.0)


def test_abbmin_scalar_case():
    # s = (1, 0), w = (2, 0): BB1 = BB2 = 0.5.
    state = SteplengthState()
    state.prev_z = np.zeros(2)
    state.prev_g = np.zeros(2)
    metric = DiagonalMetric(np.ones(2), 1.0, 1.0)
    nu = abbmin_steplength(state, metric, np.array([1.0, 0.0]),
                           np.array([2.0, 0.0]))
    assert nu == pytest.approx(0.5)
    assert list(state.buffer) == [pytest.approx(0.5)]


def test_abbmin_negative_curvature_returns_nu_max():
    state = SteplengthState()
    state.prev_z = np.zeros(2)
    state.prev_g = np.array([1.0, 0.0])
    metric = DiagonalMetric(np.ones(2), 1.0, 1.0)
    # w = g - prev_g = (-1, 0), s = (1, 0): s'w < 0, so both BB1 and BB2
    # are undefined and count as nu_max.  The ratio test still runs: BB2
    # enters the buffer, and BB2 / BB1 = 1 is not below tau.
    nu = abbmin_steplength(state, metric, np.array([1.0, 0.0]),
                           np.zeros(2))
    assert nu == NU_MAX
    assert list(state.buffer) == [NU_MAX]
    assert state.tau_abb == pytest.approx(0.5 * 1.1)


def test_abbmin_undefined_bb1_takes_the_buffered_minimum():
    # s'C^-1 w <= 0 < s'Cw: BB1 counts as nu_max, so BB2 / BB1 falls below
    # tau and the rule takes the smallest buffered BB2, the new one
    # included, rather than nu_max.
    state = SteplengthState()
    state.buffer.extend([2.0, 3.0])
    state.prev_z = np.zeros(2)
    state.prev_g = np.zeros(2)
    metric = DiagonalMetric(np.array([1e-2, 1.0]), 1e-2, 1.0)
    s = np.array([1.0, 1.0])
    w = np.array([-1.0, 1.0])  # s'C^-1 w = -99, s'Cw = 0.99
    bb2 = 0.99 / (1e-4 + 1.0)
    nu = abbmin_steplength(state, metric, s, w)
    assert nu == pytest.approx(bb2)
    assert list(state.buffer) == [2.0, 3.0, pytest.approx(bb2)]
    assert state.tau_abb == pytest.approx(0.5 * 0.9)


def test_abbmin_reuses_its_work_arrays():
    # The state owns the steplength's three work arrays; the same call
    # with fresh arrays gives the same bits.
    rng = np.random.default_rng(3)
    z, z_prev, g, g_prev = rng.random((4, 16)) + 0.1
    metric = scaling_matrix(z)
    steps = []
    for state in (SteplengthState(), SteplengthState()):
        state.record(z_prev, g_prev)
        work = state.work(z)
        steps.append([abbmin_steplength(state, metric, z, g)
                      for _ in range(3)])
        assert all(a is b for a, b in zip(state.work(z), work))
    assert steps[0] == steps[1]
    assert state.work(np.zeros(3))[0].shape == (3,)


def test_abbmin_nonpositive_bb2_curvature_is_not_a_tiny_step():
    # s'C^-1 w > 0 but s'Cw < 0: BB1 is defined, BB2 is not.  BB2 counts
    # as nu_max, so the rule takes BB1 instead of a clamped BB2 of nu_min.
    state = SteplengthState()
    state.prev_z = np.zeros(2)
    state.prev_g = np.zeros(2)
    metric = DiagonalMetric(np.array([1e-2, 1.0]), 1e-2, 1.0)
    s = np.array([1.0, 1.0])
    w = np.array([1.0, -0.5])  # s'C^-1 w = 99.5, s'Cw = -0.49
    nu = abbmin_steplength(state, metric, s, w)
    assert nu == pytest.approx((1e4 + 1.0) / 99.5)
    assert list(state.buffer) == [NU_MAX]
    assert state.tau_abb == pytest.approx(0.5 * 1.1)


def test_abbmin_switching_updates_tau():
    # Anisotropic curvature makes BB2 < tau * BB1: min-buffer branch.
    state = SteplengthState(tau_abb=0.99)
    state.prev_z = np.zeros(2)
    state.prev_g = np.zeros(2)
    metric = DiagonalMetric(np.ones(2), 1.0, 1.0)
    s = np.array([1.0, 1.0])
    w = np.array([1.0, 100.0])  # BB1 = 2/101, BB2 = 101/10001
    nu = abbmin_steplength(state, metric, s, w)
    assert nu == pytest.approx(101.0 / 10001.0)
    assert state.tau_abb == pytest.approx(0.99 * 0.9)


def test_abbmin_buffer_fallback_after_begin_call():
    state = SteplengthState()
    state.buffer.extend([0.3, 0.7, 0.2])
    state.begin_call()
    metric = DiagonalMetric(np.ones(2), 1.0, 1.0)
    assert abbmin_steplength(state, metric) == pytest.approx(0.2)


# ----------------------------------------------------------------- solve


def test_stationary_start_returns_immediately():
    model = Quadratic(np.eye(2), np.array([-1.0, -1.0]))  # min at (1, 1)
    z0 = np.array([1.0, 1.0])
    z, trace = sgp_solve(model, FeasibleSet.nonneg(), z0, model.gradient(z0),
                         SteplengthState(), max_iters=10,
                         stop_norm_target=1e-12)
    assert np.array_equal(z, z0)
    assert trace.iterations == 0


def test_loose_target_still_takes_a_step():
    # A start already within the target is not stationary: the solve
    # steps once before it tests the target, so it never returns z0.
    model = Quadratic(np.eye(2), np.array([-1.0, -1.0]))
    z0 = np.array([2.0, 2.0])
    z, trace = sgp_solve(model, FeasibleSet.nonneg(), z0, model.gradient(z0),
                         SteplengthState(), max_iters=10,
                         stop_norm_target=1e30)
    assert trace.iterations == 1
    assert model.value(z) < model.value(z0)
    assert trace.final_pg_norm == pytest.approx(
        np.linalg.norm(model.gradient(z)), rel=1e-12)


def test_1d_quadratic_converges():
    # 0.5 (z - 3)^2 over z >= 0 from z0 = 0 with the default scaling.
    model = Quadratic(np.eye(1), np.array([-3.0]))
    z0 = np.array([0.0])
    z, trace = sgp_solve(model, FeasibleSet.nonneg(), z0, model.gradient(z0),
                         SteplengthState(), max_iters=10,
                         stop_norm_target=1e-10)
    assert abs(z[0] - 3.0) <= 1e-8
    assert trace.iterations <= 10


def test_qp_on_flux_simplex_matches_kkt_oracle():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    q_mat = a @ a.T + 0.5 * np.eye(3)
    q_vec = rng.standard_normal(3)
    c = 2.0
    expected = qp_simplex_oracle(q_mat, q_vec, c)
    feasible = FeasibleSet.nonneg_flux(c)
    z0 = feasible.project(np.ones(3))
    model = Quadratic(q_mat, q_vec)
    z, _ = sgp_solve(model, feasible, z0, model.gradient(z0),
                     SteplengthState(), max_iters=200,
                     stop_norm_target=1e-10)
    assert np.allclose(z, expected, atol=1e-6)


def test_iterates_feasible_and_objective_monotone():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    model = Quadratic(a @ a.T + np.eye(4), rng.standard_normal(4))
    feasible = FeasibleSet.nonneg_flux(1.5)
    z0 = feasible.project(np.ones(4))
    # The state records each iterate a step is taken from.
    state = SteplengthState()
    seen = []
    record = state.record
    state.record = lambda z, g: seen.append(z.copy()) or record(z, g)
    z, trace = sgp_solve(model, feasible, z0, model.gradient(z0), state,
                         max_iters=50, stop_norm_target=0.0)
    seen.append(z)
    assert len(seen) == trace.iterations + 1 > 2
    assert np.array_equal(seen[0], z0)
    assert all(feasible.contains(z) for z in seen)
    # Monotone from the start value on: the contract ACQUIRE's outer
    # step relies on.
    values = [model.value(z) for z in seen]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_solve_calls_nothing_of_the_model_but_its_hessian_action():
    # The start gradient comes from the caller: a model that offers only
    # hessian_vec gives the iterates of the full quadratic.
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    model = Quadratic(a @ a.T + np.eye(4), rng.standard_normal(4))
    hessian_only = types.SimpleNamespace(hessian_vec=model.hessian_vec)
    feasible = FeasibleSet.nonneg_flux(1.5)
    z0 = feasible.project(np.ones(4))
    runs = []
    for solved in (model, hessian_only):
        state = SteplengthState()
        seen = []
        record = state.record
        state.record = lambda z, g: seen.append(z.copy()) or record(z, g)
        z, _ = sgp_solve(solved, feasible, z0, model.gradient(z0), state,
                         max_iters=50, stop_norm_target=0.0)
        runs.append(seen + [z])
    assert len(runs[0]) == len(runs[1]) > 2
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


def test_steplength_state_persists_across_calls(monkeypatch):
    model = Quadratic(np.diag([1.0, 4.0]), np.array([-1.0, -2.0]))
    feasible = FeasibleSet.nonneg()
    state = SteplengthState()
    z0 = np.array([2.0, 2.0])
    sgp_solve(model, feasible, z0, model.gradient(z0), state,
              max_iters=5, stop_norm_target=0.0)
    assert state.buffer  # BB2 values recorded
    carried = min(state.buffer)
    steplengths = []
    steplength = sgp.abbmin_steplength

    def recorded(*args):
        steplengths.append(steplength(*args))
        return steplengths[-1]

    monkeypatch.setattr(sgp, "abbmin_steplength", recorded)
    z0 = np.array([3.0, 1.0])
    sgp_solve(model, feasible, z0, model.gradient(z0), state,
              max_iters=5, stop_norm_target=0.0)
    # First steplength of the second call comes from the carried buffer,
    # not from a cold restart at 1.
    assert steplengths[0] == pytest.approx(
        min(max(carried, sgp.NU_MIN), NU_MAX))


def test_line_search_exhaustion_raises(monkeypatch):
    # A trial value that only grows along a claimed descent direction:
    # value and gradient are inconsistent, far above round-off.
    monkeypatch.setattr(sgp, "MAX_BACKTRACKS", 8)
    with pytest.raises(RuntimeError, match=r"after 8 backtracks \(f_ref 1, "
                       r"slope -10, last step 0\.00390625\)"):
        armijo(lambda rho: 1.0 + rho, 1.0, -10.0, 1e-4, 0.5)


def test_armijo_returns_none_on_a_round_off_stall():
    # No trial resolves a decrease; after MAX_BACKTRACKS halvings the
    # predicted decrease 0.5^50 is below 1e-12 |f_ref|: a stall, not an
    # error.  The same search along a steeper slope raises.
    stalled = lambda rho: 1.0 + 1e-15
    assert armijo(stalled, 1.0, -1.0, 1e-4, 0.5) is None
    with pytest.raises(RuntimeError, match="after 50 backtracks"):
        armijo(stalled, 1.0, -1e6, 1e-4, 0.5)
    assert armijo(lambda rho: 1.0 - rho, 1.0, -1.0, 1e-4, 0.5) == (1.0, 0.0)


class NanCurvature(Quadratic):
    """A quadratic whose Hessian action turns NaN after its first call."""

    def __init__(self, q_mat, q_vec):
        super().__init__(q_mat, q_vec)
        self.calls = 0

    def hessian_vec(self, v):
        self.calls += 1
        hv = super().hessian_vec(v)
        return hv if self.calls <= 1 else np.full_like(hv, np.nan)


def test_nan_gradient_on_s1_raises():
    # A NaN Hessian action makes the gradient recurrence g + rho H d NaN,
    # which gives a NaN step that no Armijo test rejects; the NaN iterate
    # must then fail the feasibility check rather than run on to the
    # iteration cap.
    model = NanCurvature(np.eye(2), np.array([-1.0, -1.0]))
    z0 = np.array([3.0, 0.5])
    with pytest.raises(ValueError, match="not feasible"):
        sgp_solve(model, FeasibleSet.nonneg(), z0, model.gradient(z0),
                  SteplengthState(), max_iters=20)


def test_rel_change_stop():
    stop = RelChangeStop(1e-3)
    assert [stop(c) for c in (1e-2, 2e-3, 1e-3)] == [False, False, True]


def test_rel_change_patience_delays_stop():
    # The alternating Barzilai-Borwein steplengths produce transiently
    # tiny steps; with patience p the small-change criterion must hold on
    # p consecutive iterations, and one larger change starts the count
    # again.
    stop = RelChangeStop(1e-5, patience=4)
    changes = [1e-6, 1e-6, 1e-6, 1e-2, 1e-6, 1e-6, 1e-6, 1e-5]
    assert [stop(c) for c in changes] == [False] * 7 + [True]
