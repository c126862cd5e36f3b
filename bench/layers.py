"""Isolated per-call timings for the layer table.

Inputs are the last two iterates of a workload's final solve, with that
workload's operator, data and feasible set; on `sweep-motion-s2` the S2
projections therefore see the active set of a real S2 iterate.  Each
entry is the median of SAMPLES timed calls, after one untimed call.
"""

import statistics
from time import perf_counter

from poissontv.kl import KlQuadraticModel
from poissontv.sgp import SteplengthState, abbmin_steplength, scaling_matrix
from poissontv.solver import OuterModel, objective_gradient
from poissontv.testbed import mssim, relative_error
from poissontv.tv import tv_mu_gradient, tv_mu_value

SAMPLES = 15


def _median_ms(fn):
    fn()
    times = []
    for _ in range(SAMPLES):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return 1e3 * statistics.median(times)


def isolated_timings(data, feasible_set, x_prev, x, truth, lam, mu, gamma):
    """{metric: median ms} for one captured pair of iterates."""
    op = data.op
    g_prev = objective_gradient(data, x_prev, lam, mu)
    g = objective_gradient(data, x, lam, mu)
    metric = scaling_matrix(x)
    trial = x - metric.d * g
    step = x - x_prev
    kl_model = KlQuadraticModel(data, x, gamma)
    model = OuterModel(data, x, lam, mu, gamma)

    def steplength():
        state = SteplengthState()
        state.record(x_prev, g_prev)
        return abbmin_steplength(state, metric, x, g)

    calls = {
        "blur.apply_ms": lambda: op.apply(x),
        "blur.adjoint_ms": lambda: op.apply_adjoint(x),
        "kl.hessian_ms": lambda: kl_model.hessian_vec(step),
        "tv.value_ms": lambda: tv_mu_value(x, mu),
        "tv.gradient_ms": lambda: tv_mu_gradient(x, mu),
        "solver.model_build_ms": lambda: OuterModel(data, x, lam, mu, gamma),
        "solver.model_gradient_ms": lambda: model.gradient(x_prev),
        "constraints.project_ms": lambda: feasible_set.project(trial),
        "constraints.project_weighted_ms":
            lambda: feasible_set.project_weighted(metric, trial),
        "constraints.pg_ms": lambda: feasible_set.projected_gradient(x, g),
        "sgp.steplength_ms": steplength,
        "testbed.mssim_ms": lambda: mssim(x, truth),
        "testbed.rel_error_ms": lambda: relative_error(x, truth),
    }
    return {name: _median_ms(fn) for name, fn in calls.items()}
