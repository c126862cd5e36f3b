"""Benchmark command line.

Verbs:
  generate  build a synthetic problem bundle (blur + Poisson noise at a
            target SNR) into a directory
  solve     run one solver on one problem at a single tolerance
  sweep     run a tolerance sweep and write a summary table, per-tolerance
            traces and restored images
  report    turn sweep summaries into gnuplot-ready data files and a
            plot script

Configuration is a flat JSON document; command-line flags override config
values; every effective value (including defaults) is echoed into the
meta.json written next to the results, so runs are self-describing.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from .blur import (disk_psf, disk_support, gaussian_psf, motion_psf,
                   motion_support)
from . import solver
from .constraints import FeasibleSet
from .image import load_f64img, load_pgm, save_f64img, save_pgm
from .solver import AcquireConfig, acquire_solve, sgp_restore, stop_rule
from .testbed import (PHANTOM_MIN_SIZE, MssimReference, load_problem,
                      make_problem, relative_error, save_problem,
                      shepp_logan)

DEFAULTS = {
    "problem": "phantom",       # built-in name, image file, or bundle dir
    "size": 256,                # phantom grid size
    "variant": "modified",      # phantom intensity table
    "blur": "gaussian",         # gaussian | motion | disk
    "sigma": 2.0,               # gaussian width
    "psf_size": 0,              # gaussian support; 0 = full image
    "length": 11,               # motion blur length (pixels)
    "angle": 45.0,              # motion blur direction (degrees)
    "radius": 4,                # out-of-focus disk radius (pixels)
    "snr": 35.0,
    "seed": 1,
    "background": 1e-10,        # per-pixel background counts
    "method": "acquire",        # acquire | sgp | both (sweep only)
    "lambda": 6e-3,
    "mu": AcquireConfig.mu,
    "gamma": AcquireConfig.gamma,
    "eta": AcquireConfig.eta,
    "delta": AcquireConfig.delta,
    "memory": AcquireConfig.memory,
    "theta": AcquireConfig.theta,
    "inner_max_iters": AcquireConfig.inner_max_iters,  # 0 = uncapped
    "constraint": "s1",         # s1 (nonneg) | s2 (nonneg + flux)
    "start": "auto",            # auto | observed | flat
    "tol": [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7],
    "max_time": AcquireConfig.max_time,
    "max_iters": AcquireConfig.max_outer_iters,
    "monotone": False,
    "out": "results",
}

SUMMARY_COLUMNS = ("method", "problem", "snr", "tol", "min_rel_err",
                   "mssim", "iters", "time_s")


class ConfigError(ValueError):
    pass


def _parse_tol_list(text):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError("field 'tol': entries must be numbers")
    return values


def load_config(args):
    """Merge defaults, an optional JSON config file, and CLI overrides."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"field 'config': cannot read {args.config}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"field 'config': invalid JSON: {exc}")
        for key, value in user.items():
            if key not in DEFAULTS:
                raise ConfigError(f"field '{key}': unknown config key")
            cfg[key] = value
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    validate_config(cfg)
    return cfg


def _check_types(cfg):
    """Each field has the JSON type of its default, tol that of a number
    or a list of numbers; a config file can hold any value."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    for key, default in DEFAULTS.items():
        value = cfg[key]
        if isinstance(default, (bool, str)):
            ok = type(value) is type(default)
        elif isinstance(default, list) and isinstance(value, list):
            ok = all(map(number, value))
        else:
            ok = number(value)
        if not ok:
            raise ConfigError(f"field '{key}': {value!r} has the wrong type")


def validate_config(cfg):
    _check_types(cfg)
    tol = cfg["tol"]
    tol = [float(t) for t in (tol if isinstance(tol, list) else [tol])]
    if not tol:
        raise ConfigError("field 'tol': list must be nonempty")
    if not all(0 < t < math.inf for t in tol):
        raise ConfigError("field 'tol': values must be positive and finite")
    if any(a <= b for a, b in zip(tol, tol[1:])):
        raise ConfigError("field 'tol': values must be strictly decreasing")
    cfg["tol"] = tol
    # meta.json echoes the config, and JSON has no infinity; the solver
    # itself reads an infinite budget as none.
    if not math.isfinite(cfg["max_time"]):
        raise ConfigError("field 'max_time': must be finite")
    # int() takes no NaN or infinity.
    for key, default in DEFAULTS.items():
        if type(default) is int and not math.isfinite(cfg[key]):
            raise ConfigError(f"field '{key}': must be finite")
    if cfg["problem"] == "phantom" and int(cfg["size"]) < PHANTOM_MIN_SIZE:
        raise ConfigError(
            f"field 'size': phantom size must be at least {PHANTOM_MIN_SIZE}")
    if cfg["constraint"] not in ("s1", "s2"):
        raise ConfigError("field 'constraint': must be 's1' or 's2'")
    if cfg["blur"] not in ("gaussian", "motion", "disk"):
        raise ConfigError("field 'blur': must be gaussian, motion or disk")
    if cfg["start"] not in ("auto", "observed", "flat"):
        raise ConfigError("field 'start': must be auto, observed or flat")
    if cfg["method"] not in ("acquire", "sgp", "both"):
        raise ConfigError("field 'method': must be acquire, sgp or both")
    try:
        solver_config(cfg, tol[-1])
    except ValueError as exc:
        raise ConfigError(f"solver settings: {exc}")


def build_psf(cfg, shape):
    """The config's PSF, once its support is known to fit the grid: a
    kernel too large for it (a disk's subpixel grid grows with the
    square of its radius) is never built."""
    if cfg["blur"] == "gaussian":
        # Size 0 is full-image support: the largest odd size that fits.
        size = int(cfg["psf_size"]) or min(shape) - 1 + min(shape) % 2
        support, build = size, lambda: gaussian_psf(size, cfg["sigma"])
    elif cfg["blur"] == "motion":
        args = cfg["length"], cfg["angle"]
        support, build = motion_support(*args), lambda: motion_psf(*args)
    else:
        support = disk_support(cfg["radius"])
        build = lambda: disk_psf(cfg["radius"])
    if support > min(shape):
        raise ValueError("PSF support exceeds image dimensions")
    return build()


def _bundle_meta(cfg):
    """The meta.json of the bundle the config names; {} for other problems."""
    name = cfg["problem"]
    if not os.path.isdir(name):
        return {}
    try:
        with open(os.path.join(name, "meta.json")) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {}


def problem_label(cfg):
    name = cfg["problem"]
    if name == "phantom":
        return "phantom"
    # Bundles record the name they were generated under.
    recorded = _bundle_meta(cfg).get("problem")
    if recorded:
        return recorded
    stem = os.path.basename(name.rstrip("/"))
    return os.path.splitext(stem)[0]


def resolve_problem(cfg):
    """Build or load the test problem named by the config; settings the
    phantom, PSF or observation reject are reported as ConfigError."""
    name = cfg["problem"]
    bundle = os.path.isdir(name)
    if not (bundle or name == "phantom"
            or name.endswith((".pgm", ".f64img"))):
        raise ConfigError(f"field 'problem': cannot resolve {name!r} "
                          "(expected 'phantom', a .pgm/.f64img file, or a "
                          "bundle directory)")
    try:
        if bundle:
            problem = load_problem(name)
        else:
            if name == "phantom":
                reference = shepp_logan(int(cfg["size"]), cfg["variant"])
            else:
                loader = load_pgm if name.endswith(".pgm") else load_f64img
                reference = loader(name)
            problem = make_problem(reference,
                                   build_psf(cfg, reference.shape),
                                   cfg["snr"], int(cfg["seed"]),
                                   background=cfg["background"])
        problem.data()          # the fidelity term checks the background
    except OSError as exc:
        raise ConfigError(f"field 'problem': cannot read {name}: {exc}")
    except KeyError as exc:
        raise ConfigError(f"field 'problem': {name} lacks meta entry {exc}")
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"problem settings: {exc}")
    return problem


def feasible_set_for(cfg, problem):
    if cfg["constraint"] == "s2":
        return FeasibleSet.nonneg_flux(problem.flux)
    return FeasibleSet.nonneg()


def starting_guess(cfg, problem):
    mode = cfg["start"]
    if mode == "auto":
        # A bundle's blur is the one it was generated with, whatever
        # --blur says.
        blur = _bundle_meta(cfg).get("blur", cfg["blur"])
        mode = "observed" if blur == "gaussian" else "flat"
    if mode == "observed":
        return problem.observed.copy()
    flat = problem.flux / problem.observed.size
    return np.full_like(problem.observed, flat)


def solver_config(cfg, tol):
    # --monotone means memory 1; a memory below 1 is still rejected.
    memory = int(cfg["memory"])
    return AcquireConfig(
        lam=cfg["lambda"],
        mu=cfg["mu"],
        gamma=cfg["gamma"],
        eta=cfg["eta"],
        delta=cfg["delta"],
        memory=min(memory, 1) if cfg["monotone"] else memory,
        theta=cfg["theta"],
        inner_max_iters=int(cfg["inner_max_iters"]),
        tol=tol,
        max_outer_iters=int(cfg["max_iters"]),
        max_time=cfg["max_time"],
    )


def run_method(method, cfg, problem, tol, on_iterate=None):
    data = problem.data()
    feasible = feasible_set_for(cfg, problem)
    x0 = starting_guess(cfg, problem)
    config = solver_config(cfg, tol)
    run = acquire_solve if method == "acquire" else sgp_restore
    return run(data, feasible, x0, config,
               ground_truth=problem.ground_truth, on_iterate=on_iterate)


def write_meta(path, cfg, problem=None, extra=None):
    meta = {key: cfg[key] for key in sorted(DEFAULTS)}
    if problem is not None:
        meta["flux"] = problem.flux
        meta["scale"] = problem.scale
    if extra:
        meta.update(extra)
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def save_restored(out_dir, stem, image):
    save_f64img(os.path.join(out_dir, stem + ".f64img"), image)
    save_pgm(os.path.join(out_dir, stem + ".pgm"), image)


def _tol_tag(tol):
    return f"{tol:.0e}".replace("+", "")


# ---------------------------------------------------------------- verbs


def cmd_generate(args):
    cfg = load_config(args)
    problem = resolve_problem(cfg)
    out = cfg["out"]
    save_problem(problem, out, extra_meta={
        "problem": problem_label(cfg),
        "blur": cfg["blur"],
        "lambda_hint": cfg["lambda"],
    })
    print(f"wrote problem bundle to {out}")
    return 0


def cmd_solve(args):
    cfg = load_config(args)
    method = cfg["method"]
    if method == "both":
        raise ConfigError("solve runs one method; use sweep")
    problem = resolve_problem(cfg)
    tol = min(cfg["tol"])
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    # A one-tolerance sweep: its row ends where the run itself stopped.
    [row] = sweep_rows(method, cfg, problem, [tol])
    row["_trace"].write_csv(os.path.join(out, "trace.csv"))
    save_restored(out, "restored", row["_restored"])
    write_meta(os.path.join(out, "meta.json"), cfg, problem, extra={
        "tol_used": tol,
        "iters": row["iters"],
        "min_rel_err": row["min_rel_err"],
        "mssim_at_min": row["mssim"],
        "time_s": row["time_s"],
        "stop_reason": row["_trace"].stop_reason,
    })
    print(f"{method} {problem_label(cfg)} tol={tol:g}: "
          f"min rel err {row['min_rel_err']:.4g}, "
          f"mssim {row['mssim']:.4g}, "
          f"{row['iters']} iters, {row['time_s']:.2f} s")
    return 0


def sweep_rows(method, cfg, problem, tols):
    """One master run at the smallest tolerance, summarized at every
    tolerance.

    Stopping on relative change at Tol truncates the (deterministic)
    iterate sequence, so one run at min(Tol) reproduces every run of the
    sweep: the method's own stop rule runs at every tolerance, and the
    iterate is snapshotted where each one fires.  The hook also keeps
    the minimum-error iterate so far and scores its MSSIM once for each
    iterate a row reads; the trace's `mssim` column is nan elsewhere.
    """
    pending = list(tols)        # strictly decreasing
    snapshots = {}
    stops = {tol: stop_rule(method, tol) for tol in tols}
    # Every image the hook reads, cleared after the run: whoever keeps
    # the hook must not keep the images too.
    held = {"truth": problem.ground_truth,
            "reference": MssimReference(problem.ground_truth),
            "best": np.empty_like(problem.ground_truth)}
    best = {"k": 0, "err": math.inf}
    scores = {}                 # iteration -> MSSIM of that iterate

    def score_best():           # through the module: the tracer times it
        if best["k"] not in scores:
            scores[best["k"]] = solver._mssim(held["reference"], held["best"])

    def on_iterate(k, x, rel_change):
        # The solver's own error function, so "strictly below" keeps the
        # iterate that argmin finds in the trace.
        err = relative_error(x, held["truth"])
        if err < best["err"]:
            best.update(k=k, err=err)
            np.copyto(held["best"], x)
        for tol in list(pending):
            if stops[tol](rel_change):
                pending.remove(tol)
                snapshots[tol] = (k, x.copy())
                score_best()

    try:
        x, trace = run_method(method, cfg, problem, tols[-1],
                              on_iterate=on_iterate)
        for tol in pending:     # never reached: budget/iteration stop
            snapshots[tol] = (trace.iters[-1], x.copy())
        if pending:
            score_best()
    finally:
        held.clear()
    rows = []
    label = problem_label(cfg)
    for tol in tols:
        # Popped: whoever keeps the hook must not keep the images too.
        k, x_tol = snapshots.pop(tol)
        errs = trace.rel_error[:k]
        idx = int(np.argmin(errs))
        trace.mssim[idx] = scores[idx + 1]
        rows.append({
            "method": method,
            "problem": label,
            "snr": cfg["snr"],
            "tol": tol,
            "min_rel_err": errs[idx],
            "mssim": scores[idx + 1],
            "iters": k,
            "time_s": trace.time_s[k - 1],
            "_trace": trace,
            "_restored": x_tol,
        })
    return rows


def write_summary(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([
                row["method"], row["problem"], f"{row['snr']:.17g}",
                f"{row['tol']:.17g}", f"{row['min_rel_err']:.17g}",
                f"{row['mssim']:.17g}", row["iters"],
                f"{row['time_s']:.17g}",
            ])


def cmd_sweep(args):
    cfg = load_config(args)
    problem = resolve_problem(cfg)
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    tols = cfg["tol"]
    all_rows = []
    for method in (["acquire", "sgp"] if cfg["method"] == "both"
                   else [cfg["method"]]):
        rows = sweep_rows(method, cfg, problem, tols)
        for row in rows:
            tag = f"{method}_tol{_tol_tag(row['tol'])}"
            row["_trace"].write_csv(os.path.join(out, f"trace_{tag}.csv"),
                                    last=row["iters"])
            save_restored(out, f"restored_{tag}", row["_restored"])
        all_rows.extend(rows)
    write_summary(os.path.join(out, "summary.csv"), all_rows)
    write_meta(os.path.join(out, "meta.json"), cfg, problem)
    for row in all_rows:
        print(f"{row['method']:8s} tol={row['tol']:g}: "
              f"min rel err {row['min_rel_err']:.4g}, "
              f"mssim {row['mssim']:.4g}, {row['iters']} iters, "
              f"{row['time_s']:.2f} s")
    print(f"wrote {os.path.join(out, 'summary.csv')}")
    return 0


def read_summary(directory):
    path = os.path.join(directory, "summary.csv")
    if not os.path.isfile(path):
        raise ConfigError(f"no summary.csv in {directory}")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def cmd_report(args):
    rows = []
    for directory in args.dirs:
        rows.extend(read_summary(directory))
    if not rows:
        print("error: summaries contain no runs", file=sys.stderr)
        return 1
    out = args.out or args.dirs[0]
    os.makedirs(out, exist_ok=True)
    problems = sorted({row["problem"] for row in rows})
    written = []
    for problem in problems:
        prows = [r for r in rows if r["problem"] == problem]
        methods = sorted({r["method"] for r in prows})
        tols = sorted({float(r["tol"]) for r in prows}, reverse=True)
        table = {(r["method"], float(r["tol"])): r for r in prows}
        for metric, suffix in (("min_rel_err", "err_vs_tol"),
                               ("time_s", "time_vs_tol")):
            path = os.path.join(out, f"{problem}_{suffix}.dat")
            with open(path, "w") as fh:
                fh.write("# tol " + " ".join(methods) + "\n")
                for tol in tols:
                    cells = [f"{tol:.6g}"]
                    for method in methods:
                        row = table.get((method, tol))
                        cells.append(f"{float(row[metric]):.6g}"
                                     if row else "nan")
                    fh.write(" ".join(cells) + "\n")
            written.append((problem, suffix, path, methods))
    script = os.path.join(out, "plot.gp")
    with open(script, "w") as fh:
        fh.write("set logscale x\nset xlabel 'tolerance'\nset key top left\n")
        for problem, suffix, path, methods in written:
            ylabel = ("relative error" if suffix == "err_vs_tol"
                      else "time (s)")
            fh.write(f"\nset ylabel '{ylabel}'\n")
            fh.write(f"set title '{problem}'\n")
            parts = [f"'{os.path.basename(path)}' using 1:{i + 2} "
                     f"with linespoints title '{m}'"
                     for i, m in enumerate(methods)]
            fh.write("plot " + ", \\\n     ".join(parts) + "\n")
            fh.write("pause -1\n")
    for _, _, path, _ in written:
        print(f"wrote {path}")
    print(f"wrote {script}")
    return 0


# ---------------------------------------------------------------- parser


def _add_common_flags(p):
    p.add_argument("--config", metavar="PATH", help="JSON config file")
    p.add_argument("--problem", metavar="NAME",
                   help="'phantom', an image file, or a bundle directory")
    p.add_argument("--size", type=int, help="phantom grid size")
    p.add_argument("--variant", choices=("original", "modified"),
                   help="phantom intensity table")
    p.add_argument("--blur", choices=("gaussian", "motion", "disk"))
    p.add_argument("--sigma", type=float, help="gaussian blur width")
    p.add_argument("--psf-size", dest="psf_size", type=int,
                   help="gaussian support size (0 = full image)")
    p.add_argument("--len", dest="length", type=float,
                   help="motion blur length")
    p.add_argument("--angle", type=float, help="motion blur angle (deg)")
    p.add_argument("--radius", type=float, help="out-of-focus disk radius")
    p.add_argument("--snr", type=float, help="target SNR (dB)")
    p.add_argument("--seed", type=int)
    p.add_argument("--background", type=float)
    p.add_argument("--out", metavar="DIR", help="output directory")


def _add_solver_flags(p):
    p.add_argument("--method", help="acquire, sgp, or both")
    p.add_argument("--lambda", dest="lambda", type=float,
                   help="regularization weight")
    p.add_argument("--mu", type=float, help="Huber smoothing threshold")
    p.add_argument("--gamma", type=float)
    p.add_argument("--theta", type=float, help="inner stop ratio")
    p.add_argument("--inner-iters", dest="inner_max_iters", type=int,
                   help="inner iteration cap (0 = uncapped)")
    p.add_argument("--tol", type=_parse_tol_list, metavar="LIST",
                   help="comma-separated tolerances, strictly decreasing")
    p.add_argument("--constraint", choices=("s1", "s2"))
    p.add_argument("--start", choices=("auto", "observed", "flat"))
    p.add_argument("--max-time", dest="max_time", type=float,
                   help="wall-clock budget per run (s)")
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--monotone", action="store_const", const=True,
                   default=None, help="monotone line search")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="poissontv",
        description="TV-regularized Poisson image restoration benchmark")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="write a problem bundle")
    _add_common_flags(p)
    p.add_argument("--lambda", dest="lambda", type=float,
                   help="regularization hint recorded in the bundle")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="one solver run")
    _add_common_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="tolerance sweep")
    _add_common_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="plot data from sweep results")
    p.add_argument("dirs", nargs="+", metavar="DIR",
                   help="sweep output directories")
    p.add_argument("--out", metavar="DIR",
                   help="where to write plot files (default: first DIR)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
