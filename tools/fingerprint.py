"""Fingerprint a fixed set of capped solves and CLI outputs, to check that
a change keeps the iterates' bits and the files the CLI writes.

Each run restores the 256x256 phantom at SNR 35, seed 7, with lambda 6e-3,
mu 1e-2, tol 0 and no clock: ACQUIRE for 10 outer iterations and SGP for
40, on Gaussian blur over S1 from the flat and from the observed start,
and on motion blur over S2 from the flat start.  Each run is made twice:
as the machine allows (with the TV worker on two or more CPUs), and with
`solver._usable_cpus` patched to 1, so that every TV half runs inline, in
the calling thread's order.  Each run prints one line: the SHA-256 of the
restored image and of each trace column below, each cut to its first 16
hex digits.

Then, in a fresh working directory, it runs the CLI capped as in
CLI_RUNS: `generate` writes a 64x64 motion-blur bundle, `sweep --method
both` restores it over S2 at three tolerances, `solve` runs SGP on it
over S1 for 20 iterations, and `report` turns the sweep into plot data.
Each written file prints one line: its path and the digest of its
contents, less what the clock sets (see `_untimed`).  The printed output
is not digested.  Last, each verb's `--help` text, formatted 80 columns
wide whatever the terminal, prints one line with its digest, so that a
change to a flag or its help text shows too.

With `--against <checkout>`, it runs this script on that checkout's `src`
as well, in a subprocess, and prints only the lines where the two trees
differ (that tree's marked `<`, this tree's `>`) and a count of them; it
exits 1 on any mismatch:

    PYTHONPATH=src python tools/fingerprint.py --against <other checkout>
"""

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

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
CLI_RUNS = (["generate", "--size", "64", "--blur", "motion", "--len", "11",
             "--angle", "45", "--snr", "35", "--seed", "7", "--out",
             "bundle"],
            ["sweep", "--problem", "bundle", "--method", "both",
             "--constraint", "s2", "--lambda", "6e-3", "--mu", "1e-2",
             "--tol", "1e-1,1e-2,1e-3", "--max-iters", "40",
             "--max-time", "1e9", "--out", "sweep"],
            ["solve", "--problem", "bundle", "--method", "sgp",
             "--lambda", "6e-3", "--mu", "1e-2", "--tol", "1e-3",
             "--max-iters", "20", "--max-time", "1e9", "--out", "solve"],
            ["report", "sweep", "--out", "report"])


def digest(values):
    return hashlib.sha256(np.asarray(values).tobytes()).hexdigest()[:16]


def fingerprint_lines():
    """One line per run, as the module docstring describes."""
    lines = []
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
            lines.append(" ".join([f"{method}-{label}{path}", *fields]))
    return lines


def _untimed(path):
    """The bytes of a written file, less what the clock sets: a CSV
    file's time_s column, a JSON file's time_s entry, and the times in a
    report's time table, whose header and tolerance column stay."""
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        keep = [i for i, name in enumerate(rows[0]) if name != "time_s"]
        rows = [[row[i] for i in keep] for row in rows]
    elif path.endswith(".json"):
        with open(path) as fh:
            meta = json.load(fh)
        meta.pop("time_s", None)
        return json.dumps(meta, sort_keys=True).encode()
    elif path.endswith("_time_vs_tol.dat"):
        with open(path) as fh:
            rows = [line.split()[:None if line.startswith("#") else 1]
                    for line in fh]
    else:
        with open(path, "rb") as fh:
            return fh.read()
    return "\n".join(",".join(row) for row in rows).encode()


def cli_output_lines():
    """One line per file that the CLI_RUNS write, as the module docstring
    describes."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for argv in CLI_RUNS:
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise RuntimeError(f"poissontv {argv[0]} failed")
            paths = sorted(os.path.join(root, name)[2:]
                           for root, _, names in os.walk(".")
                           for name in names)
            return [f"cli-{path} "
                    f"{hashlib.sha256(_untimed(path)).hexdigest()[:16]}"
                    for path in paths]
        finally:
            os.chdir(home)


def help_lines():
    """One line per verb's --help text, as the module docstring describes."""
    lines = []
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for verb in ("generate", "solve", "sweep", "report"):
            text = io.StringIO()
            with contextlib.redirect_stdout(text), \
                    contextlib.suppress(SystemExit):
                cli.main([verb, "--help"])
            sha = hashlib.sha256(text.getvalue().encode()).hexdigest()
            lines.append(f"help-{verb} {sha[:16]}")
    return lines


def lines_of(src):
    """The lines this script prints when it runs on the package in src."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                         env=dict(os.environ, PYTHONPATH=src),
                         stdout=subprocess.PIPE, text=True, check=True)
    return out.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="CHECKOUT",
                        help="compare with the outputs of this checkout")
    args = parser.parse_args()
    if args.against is None:
        print(*fingerprint_lines(), *cli_output_lines(), *help_lines(),
              sep="\n")
        return 0
    src = os.path.join(os.path.abspath(args.against), "src")
    if not os.path.isdir(os.path.join(src, "poissontv")):
        parser.error(f"no package at {src}/poissontv")
    theirs = lines_of(src)
    ours = fingerprint_lines() + cli_output_lines() + help_lines()
    differ = 0
    for their, our in itertools.zip_longest(theirs, ours, fillvalue=""):
        if their != our:
            differ += 1
            print(f"< {their}\n> {our}")
    print(f"{differ} of {max(len(theirs), len(ours))} lines differ "
          f"from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
