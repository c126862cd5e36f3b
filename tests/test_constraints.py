import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from poissontv.constraints import DiagonalMetric, FeasibleSet, _project_flux


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


def oracle_kkt(v, d, c):
    """Brute-force projection onto {x >= 0, sum x = c} in the metric with
    weights 1/d_i, chosen by the KKT sign conditions: enumerate the sets
    of entries held at zero and return the x that is nonnegative on the
    rest and whose held entries would go negative if released.  Unlike
    the cost comparison in oracle_project, the sign test still resolves
    entries of size 1e-12 when d spans 1e-10 .. 1e4."""
    slack = 1e-14 * max(1.0, np.abs(v).max(), c)
    for pattern in itertools.product((False, True), repeat=len(v)):
        zero = np.array(pattern)
        if zero.all():
            continue
        tau = (v[~zero].sum() - c) / d[~zero].sum()
        x = v - tau * d
        if np.all(x[~zero] >= -slack) and np.all(x[zero] <= slack):
            return np.where(zero, 0.0, np.maximum(x, 0.0))
    raise AssertionError("no pattern meets the KKT conditions")


def sort_scan_project(v, d, c, bounded=None):
    """Large-n reference for the flux kernel: the sort and suffix-sum scan
    over the breakpoints v_i / d_i (+inf on unbounded entries) that the
    S2 projections used before the median split.  The scan picks the
    entries positive at the root; tau is then summed over them exactly,
    since a sequential cumsum drifts by about 1e-12 relative on 256^2
    inputs."""
    vr, dr = v.ravel(), d.ravel()
    t = vr / dr if bounded is None else np.where(bounded.ravel(), vr / dr,
                                                 np.inf)
    order = np.argsort(t)
    suff_v = np.cumsum(vr[order][::-1])[::-1]
    suff_d = np.cumsum(dr[order][::-1])[::-1]
    j = np.nonzero((suff_v - c) / suff_d <= t[order])[0][0]
    positive = order[j:]
    tau = (math.fsum(vr[positive]) - c) / math.fsum(dr[positive])
    x = v - tau * d
    return np.maximum(x, 0.0, out=x,
                      where=True if bounded is None else bounded)


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


def test_nan_entries_fail_the_range_checks():
    # A NaN compares false both ways, so each check asks that every
    # entry lies in range rather than that none lies out of it.
    with pytest.raises(ValueError):
        DiagonalMetric(np.array([np.nan, 1.0]), 1e-10, 1e4)
    assert not FeasibleSet.nonneg().contains(np.array([np.nan, 1.0]))
    assert not FeasibleSet.nonneg_flux(1.0).contains(np.array([np.nan, 1.0]))


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


def test_pg_norm_trivial_cases():
    s1 = FeasibleSet.nonneg()
    x = np.array([1.0, 2.0])
    assert s1.pg_norm(x, np.zeros(2)) == 0.0
    grad = np.array([1.0, 0.0])
    assert s1.pg_norm(x, grad) == 1.0
    # At an active bound, a gradient pushing outward leaves nothing.
    assert s1.pg_norm(np.array([0.0, 2.0]), grad) == 0.0


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
    assert s2.pg_norm(best, grad) <= 1e-9


# ------------------------------------------------------- flux kernel


def assert_close(out, ref, scale, tol=1e-12):
    assert np.max(np.abs(out - ref)) <= tol * max(1.0, scale)


@st.composite
def mostly_active_tangent(draw):
    """A feasible S2 point with few free coordinates and a gradient that
    points outward on the active ones: many pins for an active-set loop."""
    n = draw(st.integers(2, 8))
    n_free = draw(st.integers(1, max(1, n // 3)))
    order = draw(st.permutations(range(n)))
    free = np.zeros(n, dtype=bool)
    free[list(order[:n_free])] = True
    w = draw(hnp.arrays(np.float64, n, elements=st.floats(-5, 5)))
    w = np.where(free, w, -np.abs(w) - 1e-3)
    x = np.where(free, draw(st.floats(0.1, 3)), 0.0)
    return x, -w


@settings(max_examples=200, deadline=None)
@given(mostly_active_tangent())
def test_tangent_kernel_matches_oracle_with_many_outward_pins(case):
    x, grad = case
    s2 = FeasibleSet.nonneg_flux(float(x.sum()))
    out = s2.projected_gradient(x, grad)
    assert_close(out, oracle_tangent(-grad, x == 0, True), np.abs(grad).max())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    hnp.arrays(np.float64, n, elements=st.floats(-5, 5)),
    hnp.arrays(np.float64, n, elements=st.floats(-10, 4)),
    st.floats(1e-3, 10))))
def test_weighted_kernel_matches_oracle_over_the_scaling_range(case):
    # SGP's scaling floor lets the metric span 1e-10 .. 1e4.
    v, log_d, c = case
    d = 10.0 ** log_d
    out = FeasibleSet.nonneg_flux(c).project_weighted(
        DiagonalMetric(d, 1e-10, 1e4), v)
    assert_close(out, oracle_kkt(v, d, c), max(np.abs(v).max(), c))


def test_kernel_with_a_single_free_coordinate():
    x = np.array([0.0, 0.0, 0.0, 2.0])
    for grad in (np.array([1.0, 2.0, 3.0, -1.0]),
                 np.array([-1.0, 0.5, 2.0, 4.0])):
        out = FeasibleSet.nonneg_flux(2.0).projected_gradient(x, grad)
        assert_close(out, oracle_tangent(-grad, x == 0, True), 4.0)
        assert abs(out.sum()) <= 1e-15


def test_kernel_with_tied_breakpoints():
    # Equal v: the median split meets only ties.
    s2 = FeasibleSet.nonneg_flux(2.0)
    assert np.array_equal(s2.project(np.ones(4)), np.full(4, 0.5))
    # Equal v_i / d_i under different weights: x = v - 0.5 d.
    v = np.array([1.0, 2.0, 4.0])
    metric = DiagonalMetric(v.copy(), 1.0, 4.0)
    out = FeasibleSet.nonneg_flux(3.5).project_weighted(metric, v)
    assert_close(out, np.array([0.5, 1.0, 2.0]), 4.0, tol=1e-15)
    # Tied outward pins around one free coordinate.
    x = np.array([0.0, 0.0, 0.0, 1.0])
    grad = np.array([1.0, 1.0, 1.0, -3.0])
    out = FeasibleSet.nonneg_flux(1.0).projected_gradient(x, grad)
    assert_close(out, oracle_tangent(-grad, x == 0, True), 3.0)


def test_kernel_with_flux_near_zero():
    rng = np.random.default_rng(5)
    for c in (1e-12, 1e-9):
        v = rng.standard_normal(7)
        d = rng.uniform(0.5, 2.0, 7)
        out = FeasibleSet.nonneg_flux(c).project_weighted(
            DiagonalMetric(d, 0.5, 2.0), v)
        assert out.min() >= 0 and abs(out.sum() - c) <= 1e-15
        assert_close(out, oracle_project(v, d, c), np.abs(v).max())
    # A flux below the rounding of sum v, with every breakpoint tied: the
    # unclipped root rounds above them all.
    out = FeasibleSet.nonneg_flux(1e-17).project(np.full(3, 0.1))
    assert out.min() >= 0 and abs(out.sum() - 1e-17) <= 1e-16


def large_inputs():
    """256^2 inputs like those of S2 restorations: a half-active
    iterate, its gradient, an SGP trial point and a metric over SGP's
    scaling range."""
    rng = np.random.default_rng(6)
    shape = (256, 256)
    x = np.maximum(rng.standard_normal(shape), 0.0)
    grad = rng.standard_normal(shape)
    d = 10.0 ** rng.uniform(-10, 4, shape)
    return x, grad, x - 0.1 * grad, d


def test_kernel_matches_sort_scan_on_large_inputs():
    x, grad, v, d = large_inputs()
    s2 = FeasibleSet.nonneg_flux(float(x.sum()))
    for out, ref in (
            (s2.project(v), sort_scan_project(v, np.ones_like(v), s2.flux)),
            (s2.project_weighted(DiagonalMetric(d, 1e-10, 1e4), v),
             sort_scan_project(v, d, s2.flux)),
            (s2.projected_gradient(x, grad),
             sort_scan_project(-grad, np.ones_like(x), 0.0, x == 0))):
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


def test_unit_weights_match_the_weighted_path_bit_for_bit():
    # Unit weights run as counts, with v as the breakpoints; the sums of
    # ones are exact and v / 1 is v, so the weighted path with a metric
    # of ones gives the same bits.
    x, grad, v, _ = large_inputs()
    s2 = FeasibleSet.nonneg_flux(float(x.sum()))
    for w in (v, 1e3 * v, v[:1, :37]):
        ones = DiagonalMetric(np.ones_like(w), 1.0, 1.0)
        assert np.array_equal(s2.project(w), s2.project_weighted(ones, w))
    assert np.array_equal(s2.projected_gradient(x, grad),
                          _project_flux(-grad, np.ones_like(x), 0.0, x == 0))
    # A column-major input (as images read from files are) still gives a
    # C-ordered result, the blur's layout, as the weighted path does.
    assert s2.project(np.asfortranarray(v)).flags.c_contiguous


def test_kernel_pass_count_is_logarithmic(monkeypatch):
    x, grad, v, d = large_inputs()
    passes = []
    argpartition = np.argpartition
    monkeypatch.setattr(np, "argpartition",
                        lambda a, k: passes.append(a.size) or argpartition(a, k))
    bound = math.floor(math.log2(v.size)) + 1
    for args in ((v, np.ones_like(v), 1.0), (v, d, 1.0),
                 (-grad, np.ones_like(x), 0.0, x == 0)):
        passes.clear()
        _project_flux(*args)
        assert 0 < len(passes) <= bound
        # Each pass keeps at most half of the breakpoints it split.
        assert all(b <= a // 2 for a, b in zip(passes, passes[1:]))


def count_partitions(monkeypatch):
    """Record the size of every argpartition the kernel makes."""
    passes = []
    argpartition = np.argpartition
    monkeypatch.setattr(np, "argpartition",
                        lambda a, k: passes.append(a.size) or argpartition(a, k))
    return passes


def test_kernel_unclipped_root_needs_no_partition(monkeypatch):
    # Every entry stays positive at the unclipped root: one Michelot step.
    rng = np.random.default_rng(7)
    passes = count_partitions(monkeypatch)
    for n in (1, 2, 5, 8):
        v = rng.uniform(1.0, 2.0, n)
        d = rng.uniform(0.5, 2.0, n)
        c = float(v.sum()) - 0.5
        out = _project_flux(v, d, c)
        assert out.min() > 0
        assert_close(out, oracle_project(v, d, c), 2.0)
    assert passes == []


def test_kernel_stops_where_every_candidate_ends_at_zero(monkeypatch):
    # Free entries w = (1, 2, 3) and pins w = (-5, -6): the Michelot tau,
    # -1, lies above both pins, so both end at zero and the free entries
    # alone fix the root, with no split.
    passes = count_partitions(monkeypatch)
    x = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    w = np.array([1.0, 2.0, 3.0, -5.0, -6.0])
    out = FeasibleSet.nonneg_flux(3.0).projected_gradient(x, -w)
    assert_close(out, oracle_tangent(w, x == 0, True), 6.0)
    assert np.array_equal(out, [-1.0, 0.0, 1.0, 0.0, 0.0])
    assert passes == []


def test_kernel_michelot_and_split_rounds_match_sort_scan(monkeypatch):
    rng = np.random.default_rng(8)
    n = 4096
    # Two thirds of the breakpoints far below the rest, and a flux that
    # keeps the rest positive: the first Michelot step drops the low
    # ones, the second finds the root, and no split is made.
    high = np.arange(n) < n // 3
    mostly_low = np.where(high, rng.uniform(5.0, 10.0, n),
                          rng.uniform(-2000.0, -1900.0, n))
    # Breakpoints spread evenly over [0, 1] and a small flux: the first
    # Michelot tau sits near their middle, so the step drops at most
    # about half of them and a median split follows.
    spread = rng.uniform(0.0, 1.0, n)
    d = 10.0 ** rng.uniform(-2, 2, n)
    passes = count_partitions(monkeypatch)
    for v, weights, splits in ((mostly_low, np.ones(n), False),
                               (mostly_low * d, d, False),
                               (spread, np.ones(n), True),
                               (spread * d, d, True)):
        c = 0.9 * v[high].sum() if not splits else 1.0
        passes.clear()
        out = _project_flux(v, weights, c)
        ref = sort_scan_project(v, weights, c)
        assert (out == 0).any()
        assert bool(passes) == splits
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
