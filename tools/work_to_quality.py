"""Print the work ACQUIRE needs to reach given qualities on the phantom.

Every run restores the 256x256 phantom under a Gaussian PSF (sigma 2,
255x255 support) over S1 from the observed start, with mu 1e-2, the
default inner settings and no clock, at lambda 6e-3 for SNR 35 and 4e-3
for SNR 40.  It prints:

- blur calls (applies plus adjoints), outer iterations and blur calls
  per outer iteration to tol 1e-7 on seed 1 at SNR 35, and the final
  objective;
- on 100-outer-iteration runs over seeds 1..N: the outer iterations to
  relative errors 0.15 and 0.146 (SNR 35) and 0.13 and 0.1285 (SNR 40),
  "-" where a run never gets there, and each run's minimum error;
- the early-progress ratio of the acceptance gate's criterion 4: the
  median over seeds 1..5 (SNR 35) of the error after 10 outer iterations
  over the run's minimum.

The counts do not depend on the machine.  Run it on a tree as

    PYTHONPATH=src python tools/work_to_quality.py [--seeds 10]
"""

import argparse
import time

import numpy as np

from poissontv.blur import gaussian_psf
from poissontv.constraints import FeasibleSet
from poissontv.solver import AcquireConfig, acquire_solve
from poissontv.testbed import make_problem, shepp_logan

LAMBDA = {35.0: 6e-3, 40.0: 4e-3}
TARGETS = {35.0: (0.15, 0.146), 40.0: (0.13, 0.1285)}


def run(snr, seed, **stop):
    """One solve as the docstring describes; returns (trace, blur calls,
    seconds)."""
    problem = make_problem(shepp_logan(256), gaussian_psf(255, 2.0), snr,
                           seed)
    data = problem.data()
    calls = [0]
    for name in ("apply", "apply_adjoint"):
        blur = getattr(data.op, name)
        setattr(data.op, name, lambda x, blur=blur: (
            calls.__setitem__(0, calls[0] + 1), blur(x))[1])
    config = AcquireConfig(lam=LAMBDA[snr], mu=1e-2, max_time=np.inf, **stop)
    start = time.perf_counter()
    _, trace = acquire_solve(data, FeasibleSet.nonneg(), problem.observed,
                             config, ground_truth=problem.ground_truth)
    return trace, calls[0], time.perf_counter() - start


def first_below(errors, target):
    return next((k for k, e in enumerate(errors, 1) if e <= target), "-")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="seeds 1..N of the capped runs (default 10)")
    args = parser.parse_args()

    trace, calls, seconds = run(35.0, 1, tol=1e-7)
    outer = len(trace.iters)
    print(f"tol 1e-7, SNR 35, seed 1: {calls} blur calls, {outer} outer "
          f"iterations ({calls / outer:.2f} blur calls each), objective "
          f"{trace.objective[-1]:.10f}, {seconds:.1f} s "
          f"(stop: {trace.stop_reason})")

    ratios = []
    for snr, targets in TARGETS.items():
        print(f"SNR {snr:g}, 100 outer iterations: seed, outer iterations "
              f"to {' / '.join(map(str, targets))}, minimum error")
        reached = {t: [] for t in targets}
        for seed in range(1, args.seeds + 1):
            trace, _, _ = run(snr, seed, tol=0.0, max_outer_iters=100)
            errors = trace.rel_error
            hits = [first_below(errors, t) for t in targets]
            for t, k in zip(targets, hits):
                reached[t].append(k)
            print(f"  {seed:2d}  {' / '.join(map(str, hits))}  "
                  f"{min(errors):.5f}")
            if snr == 35.0 and seed <= 5:
                ratios.append(errors[9] / min(errors))
        for t, ks in reached.items():
            got = [k for k in ks if k != "-"]
            median = f"{np.median(got):g}" if got else "-"
            print(f"  to {t}: {len(got)} of {len(ks)} seeds, median {median}")
    if ratios:
        print(f"criterion-4 ratio (seeds 1-{len(ratios)}, SNR 35): median "
              f"{np.median(ratios):.3f}")


if __name__ == "__main__":
    main()
