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
values; every effective value (including defaults, and a bundle's own
noise and blur) is echoed into the meta.json written next to the results,
so runs are self-describing.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys
import types

import numpy as np

from .blur import (disk_psf, disk_support, gaussian_psf, motion_psf,
                   motion_support)
from . import solver
from .constraints import FeasibleSet
from .image import load_f64img, load_pgm, save_f64img, save_pgm
from .solver import AcquireConfig, RelChangeStop, acquire_solve, sgp_restore
from .testbed import (BLURS, MssimReference, is_plain_name, load_problem,
                      make_problem, relative_error, save_problem,
                      shepp_logan)


class ConfigError(ValueError):
    pass


def _parse_tol_list(text):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError("field 'tol': entries must be numbers")


# The verbs that make a problem, and the two of them that run a solver.
PROBLEM, SOLVER = ("generate", "solve", "sweep"), ("solve", "sweep")


def _key(default, help=None, verbs=SOLVER, **flag):
    return types.SimpleNamespace(default=default, help=help, verbs=verbs,
                                 flag=flag)


# Every config key, in --help order: its default, its flag's help text (by
# verb where they differ), the verbs whose flags set it (none: config files
# only), and the flag's add_argument keywords that differ from the derived
# ones: --<key> with - for _, typed like the default.  validate_config
# checks a key's `choices`, which its flag shows as its metavar.
KEYS = {
    "problem": _key("phantom", "'phantom', a bundle directory, or an "
                    "image file", PROBLEM, metavar="NAME"),
    "size": _key(256, "phantom grid size", PROBLEM),
    "variant": _key("modified", "phantom intensity table", PROBLEM,
                    choices=("original", "modified")),
    "blur": _key("gaussian", None, PROBLEM, choices=BLURS),
    "sigma": _key(2.0, "gaussian blur width", PROBLEM),
    "psf_size": _key(0, "gaussian support size (0 = full image)", PROBLEM),
    "length": _key(11, "motion blur length", PROBLEM, option="--len",
                   type=float),
    "angle": _key(45.0, "motion blur angle (deg)", PROBLEM),
    "radius": _key(4, "out-of-focus disk radius", PROBLEM, type=float),
    "snr": _key(35.0, "target SNR (dB)", PROBLEM),
    "seed": _key(1, None, PROBLEM),
    "background": _key(1e-10, None, PROBLEM),   # per-pixel counts
    "out": _key("results", "output directory", PROBLEM, metavar="DIR"),
    "method": _key("acquire", "acquire, sgp, or both", metavar="METHOD",
                   choices=("acquire", "sgp", "both")),
    "lambda": _key(6e-3, dict(generate="regularization hint recorded in "
                              "the bundle", solve="regularization weight",
                              sweep="regularization weight"), PROBLEM),
    "mu": _key(AcquireConfig.mu, "Huber smoothing threshold"),
    "gamma": _key(AcquireConfig.gamma),
    "eta": _key(AcquireConfig.eta, verbs=()),
    "delta": _key(AcquireConfig.delta, verbs=()),
    "memory": _key(AcquireConfig.memory, verbs=()),
    "theta": _key(AcquireConfig.theta, "inner stop ratio"),
    "inner_max_iters": _key(AcquireConfig.inner_max_iters, "inner iteration "
                            "cap (0 = uncapped)", option="--inner-iters"),
    # Read as text and parsed by load_config, so that a bad entry exits
    # through ConfigError rather than argparse's usage error.
    "tol": _key([1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7],
                "comma-separated tolerances, strictly decreasing",
                type=str, metavar="LIST"),
    "constraint": _key("s1", None, choices=("s1", "s2")),
    "start": _key("auto", None, choices=("auto", "observed", "flat")),
    "max_time": _key(AcquireConfig.max_time, "wall-clock budget per run (s)"),
    "max_iters": _key(AcquireConfig.max_outer_iters),
    "monotone": _key(False, "monotone line search", action="store_const",
                     const=True),
}
DEFAULTS = {key: row.default for key, row in KEYS.items()}
CHOICES = {key: row.flag["choices"] for key, row in KEYS.items()
           if "choices" in row.flag}
# The keys whose flags take only an integer.
INTEGERS = {key for key, row in KEYS.items()
            if type(row.default) is int and "type" not in row.flag}

SUMMARY_COLUMNS = ("method", "problem", "snr", "tol", "min_rel_err",
                   "mssim", "iters", "time_s")


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
        if not isinstance(user, dict):
            raise ConfigError("field 'config': must hold a JSON object")
        for key, value in user.items():
            if key not in DEFAULTS:
                raise ConfigError(f"field '{key}': unknown config key")
            cfg[key] = value
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = _parse_tol_list(flag) if key == "tol" else flag
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    """Each field has its default's JSON type (tol: a number or a list of
    numbers), as a config file can hold any value; a key whose flag takes
    only an integer holds one, and one whose default is an integer is
    finite; a choice key holds one of its choices."""
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
        if key in INTEGERS and not isinstance(value, int):
            raise ConfigError(f"field '{key}': must be an integer")
        if type(default) is int and not math.isfinite(value):
            raise ConfigError(f"field '{key}': must be finite")
        if key in CHOICES and value not in CHOICES[key]:
            *rest, last = CHOICES[key]
            raise ConfigError(f"field '{key}': must be {', '.join(rest)} "
                              f"or {last}")
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
        size = cfg["psf_size"] or min(shape) - 1 + min(shape) % 2
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


def is_bundle(name):
    """Whether `--problem` names a bundle: a directory other than phantom."""
    return name != "phantom" and os.path.isdir(name)


def resolve_problem(cfg):
    """The test problem the config names: the built-in phantom, else a
    bundle directory, else a .pgm/.f64img file.  Its name and blur are a
    bundle's recorded ones, else the file stem and the config's blur; the
    name, which labels summary rows and names report files, holds no path
    separator or quote.  Settings the phantom, PSF, observation or
    constraint reject are ConfigErrors."""
    name = cfg["problem"]
    bundle = is_bundle(name)
    if not (bundle or name == "phantom"
            or name.endswith((".pgm", ".f64img"))):
        raise ConfigError(f"field 'problem': cannot resolve {name!r} "
                          "(expected 'phantom', a bundle directory, or a "
                          ".pgm/.f64img file)")
    try:
        if bundle:
            problem = load_problem(name)
        else:
            if name == "phantom":
                reference = shepp_logan(cfg["size"], cfg["variant"])
            else:
                loader = load_pgm if name.endswith(".pgm") else load_f64img
                reference = loader(name)
            problem = make_problem(reference,
                                   build_psf(cfg, reference.shape),
                                   cfg["snr"], cfg["seed"],
                                   background=cfg["background"])
        problem.data()          # the fidelity term checks the background
        feasible_set_for(cfg, problem)  # and S2 the flux
    except OSError as exc:
        raise ConfigError(f"field 'problem': cannot read {name}: {exc}")
    except KeyError as exc:
        raise ConfigError(f"field 'problem': {name} lacks meta entry {exc}")
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"problem settings: {exc}")
    stem = os.path.splitext(os.path.basename(name.rstrip("/")))[0]
    problem.name = problem.name or stem
    if not is_plain_name(problem.name):
        raise ConfigError(f"field 'problem': the name {problem.name!r} "
                          "holds a path separator or a quote")
    problem.blur = problem.blur or cfg["blur"]
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
        mode = "observed" if problem.blur == "gaussian" else "flat"
    if mode == "observed":
        return problem.observed.copy()
    flat = problem.flux / problem.observed.size
    return np.full_like(problem.observed, flat)


def solver_config(cfg, tol):
    # --monotone means memory 1; a memory below 1 is still rejected.
    memory = cfg["memory"]
    return AcquireConfig(
        lam=cfg["lambda"],
        mu=cfg["mu"],
        gamma=cfg["gamma"],
        eta=cfg["eta"],
        delta=cfg["delta"],
        memory=min(memory, 1) if cfg["monotone"] else memory,
        theta=cfg["theta"],
        inner_max_iters=cfg["inner_max_iters"],
        tol=tol,
        max_outer_iters=cfg["max_iters"],
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


def write_meta(path, cfg, problem, extra=None):
    meta = {key: cfg[key] for key in sorted(DEFAULTS)}
    if is_bundle(cfg["problem"]):
        # A bundle's noise and blur are its own, and it does not record
        # the settings that shaped its image and PSF.
        meta.update(dict.fromkeys(("size", "variant", "sigma", "psf_size",
                                   "length", "angle", "radius")),
                    snr=problem.snr_db, seed=problem.seed,
                    background=problem.background, blur=problem.blur)
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
    if is_bundle(cfg["problem"]):
        raise ConfigError(f"field 'problem': generate takes the phantom or "
                          f"an image, not the bundle {cfg['problem']!r}")
    problem = resolve_problem(cfg)
    out = cfg["out"]
    save_problem(problem, out, extra_meta={"lambda_hint": cfg["lambda"]})
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
    print(f"{method} {problem.name} tol={tol:g}: "
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
    stops = {tol: RelChangeStop(method, tol) for tol in tols}
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
    for tol in tols:
        # Popped: whoever keeps the hook must not keep the images too.
        k, x_tol = snapshots.pop(tol)
        errs = trace.rel_error[:k]
        idx = int(np.argmin(errs))
        trace.mssim[idx] = scores[idx + 1]
        rows.append({
            "method": method,
            "problem": problem.name,
            "snr": problem.snr_db,
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
    solver.write_csv(path, SUMMARY_COLUMNS,
                     ([row[name] for name in SUMMARY_COLUMNS] for row in rows))


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
    """The rows of a sweep's summary.csv, with tol, min_rel_err and time_s
    parsed.  A problem names files and is quoted in plot.gp, so one with a
    path separator or a quote is rejected, as is an unknown method."""
    path = os.path.join(directory, "summary.csv")
    if not os.path.isfile(path):
        raise ConfigError(f"no summary.csv in {directory}")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    try:
        for row in rows:
            for key in ("tol", "min_rel_err", "time_s"):
                row[key] = float(row[key])
            if row["method"] not in ("acquire", "sgp"):
                raise ValueError(f"unknown method {row['method']!r}")
            if not is_plain_name(row["problem"]):
                raise ValueError(f"problem {row['problem']!r} holds a path "
                                 "separator or a quote")
    except KeyError as exc:
        raise ConfigError(f"{path}: no column {exc}")
    except (TypeError, ValueError) as exc:  # a short row's cells are None
        raise ConfigError(f"{path}: {exc}")
    return rows


def cmd_report(args):
    rows = []
    for directory in args.dirs:
        rows.extend(read_summary(directory))
    if not rows:
        raise ConfigError("summaries contain no runs")
    out = args.out or args.dirs[0]
    os.makedirs(out, exist_ok=True)
    problems = sorted({row["problem"] for row in rows})
    written = []
    for problem in problems:
        prows = [r for r in rows if r["problem"] == problem]
        methods = sorted({r["method"] for r in prows})
        tols = sorted({r["tol"] for r in prows}, reverse=True)
        table = {(r["method"], r["tol"]): r for r in prows}
        for metric, suffix, ylabel in (
                ("min_rel_err", "err_vs_tol", "relative error"),
                ("time_s", "time_vs_tol", "time (s)")):
            path = os.path.join(out, f"{problem}_{suffix}.dat")
            with open(path, "w") as fh:
                fh.write("# tol " + " ".join(methods) + "\n")
                for tol in tols:
                    cells = [f"{tol:.6g}"]
                    for method in methods:
                        row = table.get((method, tol))
                        cells.append(f"{row[metric]:.6g}"
                                     if row else "nan")
                    fh.write(" ".join(cells) + "\n")
            written.append((problem, ylabel, path, methods))
            print(f"wrote {path}")
    script = os.path.join(out, "plot.gp")
    with open(script, "w") as fh:
        fh.write("set logscale x\nset xlabel 'tolerance'\nset key top left\n")
        for problem, ylabel, path, methods in written:
            fh.write(f"\nset ylabel '{ylabel}'\n")
            fh.write(f"set title '{problem}'\n")
            parts = [f"'{os.path.basename(path)}' using 1:{i + 2} "
                     f"with linespoints title '{m}'"
                     for i, m in enumerate(methods)]
            fh.write("plot " + ", \\\n     ".join(parts) + "\n")
            fh.write("pause -1\n")
    print(f"wrote {script}")
    return 0


# ---------------------------------------------------------------- parser


def _add_flags(parser, verb):
    """--config, then the flags of the keys the verb sets, in KEYS order."""
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    for key, row in KEYS.items():
        if verb not in row.verbs:
            continue
        help = row.help.get(verb) if isinstance(row.help, dict) else row.help
        flag = dict(dest=key, help=help, **row.flag)
        if "action" not in flag:
            flag.setdefault("type", type(row.default))
        if "choices" in flag:
            flag.setdefault("metavar", "{%s}" % ",".join(flag.pop("choices")))
        parser.add_argument(flag.pop("option", "--" + key.replace("_", "-")),
                            **flag)


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="poissontv",
        description="TV-regularized Poisson image restoration benchmark")
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, help, func in (
            ("generate", "write a problem bundle", cmd_generate),
            ("solve", "one solver run", cmd_solve),
            ("sweep", "tolerance sweep", cmd_sweep)):
        p = sub.add_parser(verb, help=help)
        _add_flags(p, verb)
        p.set_defaults(func=func)

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
