import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from poissontv.constraints import DiagonalMetric, FeasibleSet


def oracle_project(v, d, c):
    """Brute-force projection onto {x >= 0, sum x = c} in the metric with
    weights 1/d_i: enumerate zero patterns, solve each equality-constrained
    problem in closed form, return the feasible candidate of least cost."""
    n = len(v)
    best, best_cost = None, np.inf
    for pattern in itertools.product((False, True), repeat=n):
        free = np.array(pattern)
        if not free.any() and c is not None:
            continue
        tau = (v[free].sum() - c) / d[free].sum() if c is not None else None
        x = np.zeros(n)
        x[free] = v[free] if c is None else v[free] - tau * d[free]
        if np.any(x < -1e-13):
            continue
        x = np.maximum(x, 0.0)
        if c is not None and abs(x.sum() - c) > 1e-9 * max(c, 1.0):
            continue
        cost = float(((x - v) ** 2 / d).sum())
        if cost < best_cost - 1e-15:
            best, best_cost = x, cost
    return best


def oracle_tangent(w, active, flux):
    """Brute-force projection of w onto the tangent cone: {v_i >= 0 on the
    active set} intersected with the zero-sum hyperplane when flux holds."""
    n = len(w)
    best, best_cost = None, np.inf
    for pattern in itertools.product((False, True), repeat=n):
        pinned = np.array(pattern)
        if np.any(pinned & ~active):
            continue
        free = ~pinned
        if flux and not free.any():
            continue
        v = np.zeros(n)
        if flux:
            v[free] = w[free] - w[free].sum() / free.sum()
        else:
            v[free] = w[free]
        if np.any(v[active] < -1e-13):
            continue
        cost = float(((v - w) ** 2).sum())
        if cost < best_cost - 1e-15:
            best, best_cost = v, cost
    return best


# ----------------------------------------------------------- membership


def test_construction_guards():
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            FeasibleSet.nonneg_flux(bad)
    with pytest.raises(ValueError):
        DiagonalMetric(np.array([1.0]), 2.0, 1.0)
    with pytest.raises(ValueError):
        DiagonalMetric(np.array([0.5, 3.0]), 1.0, 2.0)


def test_contains():
    s1 = FeasibleSet.nonneg()
    s2 = FeasibleSet.nonneg_flux(1.0)
    assert s1.contains(np.array([0.0, 2.0]))
    assert not s1.contains(np.array([-1e-12, 1.0]))
    assert s2.contains(np.array([0.5, 0.5]))
    assert not s2.contains(np.array([0.5, 0.6]))


# ----------------------------------------------------------- projection


def test_project_nonneg_clamps():
    out = FeasibleSet.nonneg().project(np.array([-1.0, 2.0]))
    assert out.tolist() == [0.0, 2.0]


def test_project_flux_already_feasible():
    out = FeasibleSet.nonneg_flux(1.0).project(np.array([0.5, 0.5]))
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)


def test_project_flux_scalar_case():
    # (2, 2) with c = 1: tau = 1.5, result (0.5, 0.5).
    out = FeasibleSet.nonneg_flux(1.0).project(np.array([2.0, 2.0]))
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)


def test_project_weighted_reduces_to_euclidean_for_unit_metric():
    rng = np.random.default_rng(0)
    s2 = FeasibleSet.nonneg_flux(2.0)
    metric = DiagonalMetric(np.ones(6), 1.0, 1.0)
    for _ in range(5):
        v = rng.standard_normal(6)
        assert np.allclose(s2.project_weighted(metric, v), s2.project(v),
                           atol=1e-12)


def test_project_weighted_nonneg_is_separable_clamp():
    metric = DiagonalMetric(np.array([0.5, 2.0]), 0.5, 2.0)
    out = FeasibleSet.nonneg().project_weighted(metric, np.array([-3.0, 5.0]))
    assert out.tolist() == [0.0, 5.0]


def test_projections_match_kkt_oracle():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4, 5, 6):
        for _ in range(20):
            v = rng.standard_normal(n) * 2.0
            d = rng.uniform(0.2, 5.0, n)
            c = rng.uniform(0.5, 3.0)
            metric = DiagonalMetric(d, 0.2, 5.0)
            s1 = FeasibleSet.nonneg()
            s2 = FeasibleSet.nonneg_flux(c)
            assert np.allclose(s1.project(v), oracle_project(v, np.ones(n), None),
                               atol=1e-10)
            assert np.allclose(s2.project(v), oracle_project(v, np.ones(n), c),
                               atol=1e-10)
            assert np.allclose(s2.project_weighted(metric, v),
                               oracle_project(v, d, c), atol=1e-10)


def test_projection_idempotent():
    rng = np.random.default_rng(2)
    for feasible in (FeasibleSet.nonneg(), FeasibleSet.nonneg_flux(1.7)):
        v = rng.standard_normal(8)
        p = feasible.project(v)
        assert np.array_equal(feasible.project(p), p)


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, 6, elements=st.floats(-5, 5)),
       hnp.arrays(np.float64, 6, elements=st.floats(-5, 5)))
def test_projection_nonexpansive(u, v):
    for feasible in (FeasibleSet.nonneg(), FeasibleSet.nonneg_flux(2.0)):
        pu, pv = feasible.project(u), feasible.project(v)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


# ------------------------------------------------------ tangent cone


def test_projected_gradient_interior_point():
    s1 = FeasibleSet.nonneg()
    x = np.array([1.0, 2.0])
    grad = np.array([0.3, -0.7])
    assert np.allclose(s1.projected_gradient(x, grad), -grad)


def test_projected_gradient_active_clamp():
    s1 = FeasibleSet.nonneg()
    out = s1.projected_gradient(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
    # -grad = (-1, 1); the active first coordinate cannot go negative.
    assert out.tolist() == [0.0, 1.0]


def test_projected_gradient_requires_feasible_point():
    with pytest.raises(ValueError):
        FeasibleSet.nonneg().projected_gradient(np.array([-1.0, 1.0]),
                                                np.array([0.0, 0.0]))


def test_tangent_projection_matches_oracle():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 5, 6):
        for _ in range(20):
            grad = rng.standard_normal(n)
            x = np.maximum(rng.standard_normal(n), 0.0)
            if not x.any():
                x[0] = 1.0
            active = x == 0
            s1 = FeasibleSet.nonneg()
            out = s1.projected_gradient(x, grad)
            assert np.allclose(out, oracle_tangent(-grad, active, False),
                               atol=1e-10)
            c = float(x.sum())
            s2 = FeasibleSet.nonneg_flux(c)
            out2 = s2.projected_gradient(x, grad)
            assert np.allclose(out2, oracle_tangent(-grad, active, True),
                               atol=1e-10)


def test_moreau_decomposition():
    # -grad splits into the tangent-cone part plus an orthogonal
    # normal-cone remainder.
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = np.maximum(rng.standard_normal(6), 0.0)
        if not x.any():
            x[0] = 1.0
        grad = rng.standard_normal(6)
        for feasible in (FeasibleSet.nonneg(),
                         FeasibleSet.nonneg_flux(float(x.sum()))):
            pg = feasible.projected_gradient(x, grad)
            normal = -grad - pg
            assert abs(float(np.vdot(pg, normal))) <= 1e-10


# --------------------------------------------------------- stationarity


def test_is_stationary_trivial_cases():
    s1 = FeasibleSet.nonneg()
    x = np.array([1.0, 2.0])
    assert s1.is_stationary(x, np.zeros(2), 0.0)
    grad = np.array([1.0, 0.0])
    assert not s1.is_stationary(x, grad, 0.5)


def test_stationarity_at_qp_oracle_solution():
    # Strictly convex 3-variable quadratic over the flux simplex with a
    # boundary solution, solved by active-set enumeration.
    q_mat = np.diag([1.0, 2.0, 4.0])
    q_vec = np.array([-3.0, 5.0, 1.0])
    c = 1.0
    best, best_val = None, np.inf
    for pattern in itertools.product((False, True), repeat=3):
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
        x = np.zeros(3)
        x[free] = sol[:k]
        if np.any(x < -1e-12):
            continue
        val = 0.5 * x @ q_mat @ x + q_vec @ x
        if val < best_val:
            best, best_val = np.maximum(x, 0.0), val
    assert best is not None and np.any(best == 0.0)  # boundary solution
    grad = q_mat @ best + q_vec
    s2 = FeasibleSet.nonneg_flux(c)
    assert np.linalg.norm(s2.projected_gradient(best, grad)) <= 1e-9
    assert s2.is_stationary(best, grad, 1e-8)
