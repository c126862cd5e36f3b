"""Fingerprint a fixed set of capped solves, to check that a change keeps
the iterates' bits.

Each run restores the 256x256 phantom at SNR 35, seed 7, with lambda 6e-3,
mu 1e-2, tol 0 and no clock: ACQUIRE for 10 outer iterations and SGP for
40, on Gaussian blur over S1 from the flat and from the observed start,
and on motion blur over S2 from the flat start.  Each run is made twice:
as the machine allows (with the TV worker on two or more CPUs), and with
`solver._usable_cpus` patched to 1, so that every TV half runs inline, in
the calling thread's order.  Each run prints one line: the SHA-256 of the
restored image and of each trace column below, each cut to its first 16
hex digits.  Run it on two source trees and compare the output:

    PYTHONPATH=<other checkout>/src python tools/fingerprint.py > a.txt
    PYTHONPATH=src python tools/fingerprint.py > b.txt
    diff a.txt b.txt
"""

import hashlib
import itertools

import numpy as np

from poissontv import cli, solver
from poissontv.solver import AcquireConfig, acquire_solve, sgp_restore

COLUMNS = ("objective", "rel_change", "alpha", "inner_iters", "pg_norm",
           "rel_error", "inner_target")
PROBLEMS = (("gauss-s1-flat", dict(blur="gaussian", constraint="s1",
                                   start="flat")),
            ("gauss-s1-observed", dict(blur="gaussian", constraint="s1",
                                       start="observed")),
            ("motion-s2-flat", dict(blur="motion", constraint="s2",
                                    start="flat")))
METHODS = (("acquire", acquire_solve, 10), ("sgp", sgp_restore, 40))
PATHS = (("", solver._usable_cpus), ("-inline", lambda: 1))


def digest(values):
    return hashlib.sha256(np.asarray(values).tobytes()).hexdigest()[:16]


def main():
    for label, overrides in PROBLEMS:
        cfg = dict(cli.DEFAULTS, snr=35.0, seed=7, **overrides)
        problem = cli.resolve_problem(cfg)
        feasible = cli.feasible_set_for(cfg, problem)
        x0 = cli.starting_guess(cfg, problem)
        for (method, solve, cap), (path, cpus) in itertools.product(
                METHODS, PATHS):
            config = AcquireConfig(lam=6e-3, mu=1e-2, tol=0.0,
                                   max_outer_iters=cap, max_time=np.inf)
            solver._usable_cpus = cpus
            try:
                x, trace = solve(problem.data(), feasible, x0, config,
                                 ground_truth=problem.ground_truth)
            finally:
                solver._usable_cpus = PATHS[0][1]
            fields = [f"x={digest(x)}"] + [
                f"{name}={digest(getattr(trace, name))}" for name in COLUMNS]
            print(f"{method}-{label}{path}", *fields)


if __name__ == "__main__":
    main()
