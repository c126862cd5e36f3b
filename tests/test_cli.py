import csv
import json
import math
import os
import shutil
import threading
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest

import poissontv.cli
import poissontv.solver
from poissontv.cli import (CHOICES, DEFAULTS, KEYS, ConfigError, build_parser,
                           load_config, main, resolve_problem, starting_guess,
                           sweep_rows)
from poissontv.image import load_f64img, save_f64img, save_pgm
from poissontv.testbed import load_problem, mssim, shepp_logan


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run(*argv):
    return main(list(argv))


GEN = ("--size", "32", "--snr", "30", "--seed", "4")
BASE = GEN + ("--max-time", "30", "--max-iters", "40")


def test_generate_writes_loadable_bundle(tmp_path):
    out = str(tmp_path / "bundle")
    assert run("generate", *GEN, "--out", out) == 0
    problem = load_problem(out)
    assert problem.observed.shape == (32, 32)
    meta = json.loads((tmp_path / "bundle" / "meta.json").read_text())
    assert meta["seed"] == 4 and meta["snr_db"] == 30
    assert "flux" in meta and "lambda_hint" in meta


def test_parser_is_built_once_and_calls_keep_their_own_options(tmp_path):
    # One parser serves every call in a process; an option given to one
    # call must not carry over into the next.
    assert poissontv.cli.build_parser() is poissontv.cli.build_parser()
    first, second = str(tmp_path / "first"), str(tmp_path / "second")
    assert run("generate", *GEN, "--blur", "motion", "--out", first) == 0
    assert run("generate", "--size", "32", "--out", second) == 0
    meta = json.loads((tmp_path / "second" / "meta.json").read_text())
    assert meta["seed"] == DEFAULTS["seed"] != 4
    assert meta["snr_db"] == DEFAULTS["snr"] != 30
    assert meta["blur"] == DEFAULTS["blur"] != "motion"


def test_solve_outputs(tmp_path):
    out = str(tmp_path / "run")
    assert run("solve", *BASE, "--lambda", "6e-3", "--tol", "1e-3",
               "--out", out) == 0
    for name in ("trace.csv", "restored.pgm", "restored.f64img", "meta.json"):
        assert os.path.isfile(os.path.join(out, name))
    meta = json.loads((tmp_path / "run" / "meta.json").read_text())
    # Every config default is echoed so the run is self-describing.
    for key in ("eta", "delta", "memory", "theta", "gamma", "mu",
                "inner_max_iters", "constraint", "lambda"):
        assert key in meta
    # The run stopped on its tolerance, before the 40-iteration cap.
    assert meta["stop_reason"] == "tol" and meta["iters"] < 40
    rows = read_csv(os.path.join(out, "trace.csv"))
    assert rows and set(rows[0]) == {"iter", "objective", "rel_change",
                                     "alpha", "inner_iters", "pg_norm",
                                     "rel_error", "time_s", "mssim"}
    restored = load_f64img(os.path.join(out, "restored.f64img"))
    assert restored.shape == (32, 32) and restored.min() >= 0


def test_sweep_cardinality(tmp_path):
    out = str(tmp_path / "sweep")
    assert run("sweep", *BASE, "--method", "acquire", "--lambda", "6e-3",
               "--tol", "1e-2,1e-3", "--out", out) == 0
    rows = read_csv(os.path.join(out, "summary.csv"))
    assert len(rows) == 2
    traces = [f for f in os.listdir(out) if f.startswith("trace_")]
    assert len(traces) == 2
    # Looser tolerances stop no later than tighter ones.
    assert int(rows[0]["iters"]) <= int(rows[1]["iters"])


def test_sweep_summary_recomputable_from_traces(tmp_path):
    out = str(tmp_path / "sweep")
    run("sweep", *BASE, "--method", "both", "--lambda", "6e-3",
        "--tol", "1e-2,1e-3", "--out", out)
    for row in read_csv(os.path.join(out, "summary.csv")):
        tag = f"{row['method']}_tol{float(row['tol']):.0e}"
        trace = read_csv(os.path.join(out, f"trace_{tag}.csv"))
        assert len(trace) == int(row["iters"])
        errs = [float(t["rel_error"]) for t in trace]
        assert min(errs) == pytest.approx(float(row["min_rel_err"]), rel=1e-15)
        idx = int(np.argmin(errs))
        assert float(trace[idx]["mssim"]) == pytest.approx(
            float(row["mssim"]), rel=1e-15)
        restored = load_f64img(os.path.join(out, f"restored_{tag}.f64img"))
        assert restored.shape == (32, 32)


def test_sweep_determinism_excluding_wall_time(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        run("sweep", *BASE, "--method", "acquire", "--lambda", "6e-3",
            "--tol", "1e-2,1e-3", "--out", out)
        rows = read_csv(os.path.join(out, "summary.csv"))
        outs.append([{k: v for k, v in r.items() if k != "time_s"}
                     for r in rows])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("method", ["acquire", "sgp"])
def test_sweep_rows_match_separate_solves(tmp_path, method):
    # One run at min(Tol) stands for the whole sweep: its row at
    # tolerance T must be the run `solve --tol T` makes, with the same
    # iteration count and the same restored image, bit for bit.
    args = GEN + ("--max-time", "30", "--max-iters", "100", "--method",
                  method, "--lambda", "6e-3")
    sweep = str(tmp_path / "sweep")
    tols = ("1e-2", "1e-3")
    assert run("sweep", *args, "--tol", ",".join(tols), "--out", sweep) == 0
    rows = read_csv(os.path.join(sweep, "summary.csv"))
    for tol, row in zip(tols, rows):
        out = str(tmp_path / f"solve_{tol}")
        assert run("solve", *args, "--tol", tol, "--out", out) == 0
        meta = json.loads(open(os.path.join(out, "meta.json")).read())
        # The tolerance, not the iteration cap, ends both runs.
        assert meta["iters"] == int(row["iters"]) < 100
        tag = f"{method}_tol{float(tol):.0e}"
        with open(os.path.join(sweep, f"restored_{tag}.f64img"), "rb") as a, \
                open(os.path.join(out, "restored.f64img"), "rb") as b:
            assert a.read() == b.read()


def test_sweep_rows_leave_their_images_to_the_rows(monkeypatch):
    # A caller may keep the solve's on_iterate hook (the benchmark's
    # progress record does); the restored images must die with the rows.
    hooks = []
    solve = poissontv.cli.run_method

    def run_method(*args, on_iterate=None, **kwargs):
        hooks.append(on_iterate)
        return solve(*args, on_iterate=on_iterate, **kwargs)
    monkeypatch.setattr(poissontv.cli, "run_method", run_method)
    cfg = dict(DEFAULTS, size=32, snr=30.0, seed=4, max_iters=40)
    problem = resolve_problem(cfg)
    # 1e-2 stops in the hook; 1e-9 only at the iteration cap.
    rows = sweep_rows("acquire", cfg, problem, [1e-2, 1e-9])
    assert [row["iters"] < 40 for row in rows] == [True, False]
    images = [weakref.ref(row["_restored"]) for row in rows]
    del rows
    assert len(hooks) == 1
    assert [image() is None for image in images] == [True, True]
    # Nor may the hook hold the truth, its MSSIM statistics or the
    # minimum-error iterate.
    assert [a.shape for a in reachable_arrays(hooks[0])] == []


def reachable_arrays(fn):
    """The numpy arrays reachable from fn's closure cells, through
    containers, closures and instance attributes."""
    found, seen, stack = [], set(), [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:      # an empty cell
                    pass
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set)):
            stack.extend(obj)
        elif not isinstance(obj, (type, types.ModuleType)):
            stack.extend(getattr(obj, "__dict__", {}).values())
    return found


@pytest.mark.parametrize("constraint", ["s1", "s2"])
@pytest.mark.parametrize("method", ["acquire", "sgp"])
def test_sweep_row_mssim_scores_the_minimum_error_iterate(
        monkeypatch, method, constraint):
    # Each row's MSSIM is that of the minimum-error iterate up to the
    # row's stop, bit for bit, as an independent hook captures it; the
    # trace's mssim column holds it there and is nan elsewhere.
    iterates = []
    solve = poissontv.cli.run_method

    def run_method(*args, on_iterate=None, **kwargs):
        def capture(k, x, rel_change):
            iterates.append(x.copy())
            on_iterate(k, x, rel_change)
        return solve(*args, on_iterate=capture, **kwargs)
    monkeypatch.setattr(poissontv.cli, "run_method", run_method)
    cfg = dict(DEFAULTS, size=32, snr=30.0, seed=4, max_iters=40,
               constraint=constraint)
    problem = resolve_problem(cfg)
    truth = problem.ground_truth
    rows = sweep_rows(method, cfg, problem, [1e-2, 1e-3, 1e-9])
    trace = rows[0]["_trace"]
    assert len(iterates) == len(trace.iters) == 40
    best = set()
    for row in rows:
        idx = int(np.argmin(trace.rel_error[:row["iters"]]))
        best.add(idx)
        assert row["mssim"] == mssim(iterates[idx], truth)
        assert trace.mssim[idx] == row["mssim"]
    assert {i for i, v in enumerate(trace.mssim) if v == v} == best


@pytest.mark.parametrize("method", ["acquire", "sgp"])
def test_sweep_leaves_no_thread_running(monkeypatch, tmp_path, method):
    # Each run of a sweep starts one worker for its TV halves, on two or
    # more CPUs, and joins it before it returns.
    monkeypatch.setattr(poissontv.solver, "_usable_cpus", lambda: 2)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or start(self))
    before = set(threading.enumerate())
    for constraint in ("s1", "s2"):
        out = str(tmp_path / constraint)
        assert run("sweep", *BASE, "--method", method, "--lambda", "6e-3",
                   "--constraint", constraint, "--tol", "1e-2,1e-3",
                   "--out", out) == 0
        assert set(threading.enumerate()) == before
    assert len(started) == 2
    assert not any(thread.is_alive() for thread in started)


def test_report_shapes(tmp_path):
    out = str(tmp_path / "sweep")
    run("sweep", *BASE, "--method", "both", "--lambda", "6e-3",
        "--tol", "1e-2,1e-3,1e-4", "--out", out)
    plots = str(tmp_path / "plots")
    assert run("report", out, "--out", plots) == 0
    for suffix in ("err_vs_tol", "time_vs_tol"):
        lines = [l for l in
                 open(os.path.join(plots, f"phantom_{suffix}.dat"))
                 if not l.startswith("#")]
        assert len(lines) == 3            # one row per tolerance
        cols = [l.split() for l in lines]
        assert all(len(c) == 3 for c in cols)  # tol + two methods
        tols = [float(c[0]) for c in cols]
        assert tols == sorted(tols, reverse=True)
    assert os.path.isfile(os.path.join(plots, "plot.gp"))


def test_report_missing_summary_errors(tmp_path, capsys):
    empty = str(tmp_path / "empty")
    os.makedirs(empty)
    assert run("report", empty) == 2
    assert not os.path.isfile(os.path.join(empty, "plot.gp"))
    # Summaries report cannot use: a missing column, a number that does
    # not parse, a short row, an unknown method, or a problem that would
    # name a file elsewhere or break plot.gp's quoted strings.  The first
    # two used to end in a traceback, and `../../x` wrote its data two
    # directories above --out.
    good = {"method": "acquire", "problem": "phantom", "snr": "35",
            "tol": "0.01", "min_rel_err": "0.2", "mssim": "0.9",
            "iters": "3", "time_s": "0.5"}
    bad_rows = [{k: v for k, v in good.items() if k != "time_s"},
                dict(good, tol="abc"), dict(good, min_rel_err=""),
                dict(good, method="both"), dict(good, problem="../../x"),
                dict(good, problem="a'b"), dict(good, problem='a"b'),
                dict(good, problem="a\\b")]
    summary = tmp_path / "sweep" / "summary.csv"
    summary.parent.mkdir()
    plots = tmp_path / "deep" / "er" / "plots"
    for row in bad_rows:
        with open(summary, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(row),
                                    extrasaction="ignore")
            writer.writeheader()
            writer.writerows([good, row])
        capsys.readouterr()
        assert run("report", str(summary.parent), "--out", str(plots)) == 2
        assert str(summary) in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "deep"), row
    summary.write_text(summary.read_text().splitlines()[0] + "\n"
                       "acquire,phantom,35,0.01\n")
    assert run("report", str(summary.parent), "--out", str(plots)) == 2
    assert not os.path.exists(tmp_path / "deep")
    # A summary with no rows used to exit 1, unlike every other summary
    # report cannot use.
    summary.write_text(",".join(good) + "\n")
    capsys.readouterr()
    assert run("report", str(summary.parent), "--out", str(plots)) == 2
    assert capsys.readouterr().err == "error: summaries contain no runs\n"
    assert not os.path.exists(tmp_path / "deep")
    # The good row alone is reported.
    with open(summary, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(good))
        writer.writeheader()
        writer.writerow(good)
    assert run("report", str(summary.parent), "--out", str(plots)) == 0
    assert (plots / "phantom_err_vs_tol.dat").read_text() == (
        "# tol acquire\n0.01 0.2\n")


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"size": 32, "snr": 30.0, "seed": 4,
                               "lambda": 1e-3, "tol": [1e-2],
                               "max_iters": 10, "max_time": 30.0}))
    out = str(tmp_path / "run")
    assert run("solve", "--config", str(cfg), "--lambda", "5e-3",
               "--out", out) == 0
    meta = json.loads((tmp_path / "run" / "meta.json").read_text())
    assert meta["lambda"] == 5e-3        # flag wins over config file
    assert meta["size"] == 32            # config file wins over default


def test_invalid_configs_rejected(tmp_path, capsys):
    out = str(tmp_path / "x")
    # Non-decreasing tolerance list.
    assert run("solve", *BASE, "--tol", "1e-3,1e-2", "--out", out) == 2
    # Nonpositive regularization weight.
    assert run("solve", *BASE, "--lambda", "0", "--out", out) == 2
    # Unknown config key in the file.
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    assert run("solve", "--config", str(cfg), "--out", out) == 2
    # A config file holding JSON other than an object, which used to end
    # in an AttributeError traceback.
    for user in ([1, 2], "abc"):
        cfg.write_text(json.dumps(user))
        capsys.readouterr()
        assert run("solve", "--config", str(cfg), "--out", out) == 2, user
        assert "field 'config'" in capsys.readouterr().err, user
    # Unresolvable problem path.
    assert run("solve", *BASE, "--problem", "missing.pgm", "--out", out) == 2
    # Negative inner iteration cap (0 is the only "uncapped" value).
    assert run("solve", *BASE, "--inner-iters", "-1", "--out", out) == 2
    # Non-finite settings used to run to a NaN image or a NaN tolerance;
    # the others used to end in a traceback.
    for flag, value in (("--lambda", "nan"), ("--mu", "nan"),
                        ("--gamma", "inf"), ("--tol", "nan"),
                        ("--max-time", "nan"), ("--theta", "2"),
                        ("--gamma", "-1"), ("--size", "16")):
        assert run("solve", *BASE, flag, value, "--out", out) == 2, flag
    # Settings the PSF, the observation or the solver configuration
    # reject, which used to end in a traceback.
    for flags in (("--sigma", "-1"), ("--psf-size", "4"),
                  ("--len", "0", "--blur", "motion"),
                  ("--radius", "-2", "--blur", "disk"),
                  ("--radius", "1e300", "--blur", "disk"),
                  ("--len", "1e308", "--blur", "motion"),
                  ("--snr", "nan"), ("--snr", "inf"),
                  ("--background", "-1"), ("--background", "0"),
                  ("--background", "nan"), ("--seed", "-1")):
        assert run("solve", *BASE, *flags, "--out", out) == 2, flags
    # A non-finite motion angle used to reach an integer cast, and exit
    # on the array size it gave.
    for value in ("nan", "inf"):
        capsys.readouterr()
        assert run("solve", *BASE, "--blur", "motion", "--angle", value,
                   "--out", out) == 2
        assert "angle must be finite" in capsys.readouterr().err
    # A motion length whose offsets overflow the integer cast used to
    # print numpy's cast warning, and exit on the array size it gave.
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("solve", *BASE, "--blur", "motion", "--len", "1e20",
                   "--out", out) == 2
    assert "length must lie in [1, 2**64)" in capsys.readouterr().err
    # --monotone stands for memory 1, but a memory below 1 is still wrong.
    for user in ({"memory": 0}, {"memory": 0, "monotone": True}):
        cfg.write_text(json.dumps(user))
        assert run("solve", *BASE, "--config", str(cfg), "--out", out) == 2
    # Non-finite integer fields, which int() used to turn into a
    # traceback.  JSON has no NaN or Infinity; Python's parser takes both.
    for text in ('{"size": NaN}', '{"size": Infinity}',
                 '{"max_iters": Infinity}', '{"seed": -Infinity}'):
        cfg.write_text(text)
        assert run("solve", "--config", str(cfg), "--out", out) == 2, text
    # An integer field takes only a JSON integer, as its flag does: a
    # seed of 4.5 used to solve with seed 4 and reach meta.json as 4.5.
    for key, value in (("seed", 4.5), ("size", 32.0), ("psf_size", 0.5),
                       ("memory", 2.0), ("inner_max_iters", 1.5),
                       ("max_iters", 2.5)):
        cfg.write_text(json.dumps({"size": 32, "max_iters": 2,
                                   "method": "sgp", key: value}))
        capsys.readouterr()
        assert run("solve", "--config", str(cfg), "--out", out) == 2, key
        assert capsys.readouterr().err == (
            f"error: field '{key}': must be an integer\n"), key
    assert not os.path.exists(out)
    # A --tol entry that is no number used to end in argparse's usage
    # error, naming its parser, instead of the field's own message.
    capsys.readouterr()
    assert run("solve", *BASE, "--tol", "abc", "--out", out) == 2
    assert capsys.readouterr().err == (
        "error: field 'tol': entries must be numbers\n")
    # `solve` runs one method, and "both" used to run only ACQUIRE; a
    # comma list was an undocumented spelling of "both".
    capsys.readouterr()
    assert run("solve", *BASE, "--method", "both", "--out", out) == 2
    assert "solve runs one method; use sweep" in capsys.readouterr().err
    for value in ("sgp,acquire", "acquire,"):
        for verb in ("solve", "sweep"):
            assert run(verb, *BASE, "--method", value, "--out", out) == 2
    # A PGM cut off in its payload or its header used to end in a
    # StopIteration traceback, and a reference image holding NaN in
    # numpy's "lam value too large".
    bad = tmp_path / "t.pgm"
    for text in ("P2\n3 2\n255\n0 1 2\n3\n", "P2\n3", "P5\n3 2\n255\n\x01"):
        bad.write_text(text)
        capsys.readouterr()
        assert run("solve", "--problem", str(bad), "--out", out) == 2, text
        assert "truncated PGM" in capsys.readouterr().err
    nan_image = tmp_path / "nan.f64img"
    save_f64img(nan_image, np.full((32, 32), np.nan))
    assert run("solve", "--problem", str(nan_image), "--out", out) == 2
    assert "reference image must be finite" in capsys.readouterr().err
    # An image whose stem, the problem's name, would name a file elsewhere
    # or break plot.gp's quoted strings, as a bundle's recorded name may
    # not; such a stem used to sweep and land in summary.csv.
    for stem in ("a'b", 'a"b', "a\\b"):
        image = tmp_path / f"{stem}.pgm"
        save_pgm(image, shepp_logan(32))
        for verb, cap in (("generate", ()), ("solve", ("--max-iters", "5")),
                          ("sweep", ("--max-iters", "5"))):
            capsys.readouterr()
            assert run(verb, "--problem", str(image), *cap,
                       "--out", out) == 2, (stem, verb)
            assert "holds a path separator or a quote" in \
                capsys.readouterr().err, (stem, verb)
    # Config-file values of the wrong type, which used to end in a
    # traceback.
    for user in ({"tol": "abc"}, {"tol": [0.001, "x"]}, {"tol": None},
                 {"max_time": "abc"}, {"lambda": "abc"}):
        cfg.write_text(json.dumps(user))
        assert run("solve", "--size", "32", "--config", str(cfg),
                   "--out", out) == 2, user
    # A PGM whose maxval does not bound its samples.
    bad.write_bytes(b"P2\n2 1\n6\n5 7\n")
    capsys.readouterr()
    assert run("solve", "--problem", str(bad), "--out", out) == 2
    assert "PGM sample outside 0..6" in capsys.readouterr().err
    # Bundles with a missing image, a malformed or incomplete meta.json,
    # a negative scale, a meta.json other than an object, or a scale,
    # background or SNR other than a number, which used to end in a
    # traceback; and bundles recording a name that would name a file
    # elsewhere or break plot.gp's quoted strings, or an unknown blur,
    # which used to sweep and write the name into summary.csv.
    bundle = str(tmp_path / "bundle")
    assert run("generate", *GEN, "--out", bundle) == 0
    meta = json.loads((tmp_path / "bundle" / "meta.json").read_text())
    del meta["seed"]
    # Ground truths no error can be scored against, and meta numbers no
    # run can use, which used to end in a traceback (a NaN pixel in the
    # sweep's summary, another shape, all zeros, a zero scale) or run and
    # echo the value into meta.json (a NaN SNR, a seed other than an
    # integer).
    truth = load_f64img(os.path.join(bundle, "ground_truth.f64img"))
    nan_truth = truth.copy()
    nan_truth[3, 5] = np.nan

    def f64img(image):
        path = tmp_path / "image.f64img"
        save_f64img(path, image)
        return path.read_bytes()
    for i, (name, text, message) in enumerate((
            ("observed.f64img", None, "cannot read"),
            ("meta.json", "{", "problem settings"),
            ("meta.json", json.dumps(meta), "lacks meta entry 'seed'"),
            ("meta.json", json.dumps(dict(meta, seed=4, scale=-1)),
             "background must be positive"),
            ("meta.json", "[]", "must hold a JSON object"),
            ("meta.json", '"str"', "must hold a JSON object"),
            ("meta.json", json.dumps(dict(meta, seed=4, scale="x")),
             "must be numbers"),
            ("meta.json", json.dumps(dict(meta, seed=4, background=[1, 2])),
             "must be numbers"),
            ("meta.json", json.dumps(dict(meta, seed=4, snr_db="30")),
             "must be numbers"),
            ("meta.json", json.dumps(dict(meta, seed=4, problem="../../x")),
             "no path separator or quote"),
            ("meta.json", json.dumps(dict(meta, seed=4, problem="a\\b")),
             "no path separator or quote"),
            ("meta.json", json.dumps(dict(meta, seed=4, problem="a'b")),
             "no path separator or quote"),
            ("meta.json", json.dumps(dict(meta, seed=4, problem='a"b')),
             "no path separator or quote"),
            ("meta.json", json.dumps(dict(meta, seed=4, problem=5)),
             "no path separator or quote"),
            ("meta.json", json.dumps(dict(meta, seed=4, blur="bogus")),
             "blur 'bogus': a name holds"),
            ("ground_truth.f64img", f64img(nan_truth),
             "ground truth must be finite"),
            ("ground_truth.f64img", f64img(truth[:, :-1]),
             "ground truth shape (32, 31) does not match"),
            ("ground_truth.f64img", f64img(np.zeros_like(truth)),
             "not all zero"),
            ("meta.json", json.dumps(dict(meta, seed=4, scale=0)),
             "scale must be positive"),
            ("meta.json", json.dumps(dict(meta, seed=4, snr_db=math.nan)),
             "must be finite"),
            ("meta.json", json.dumps(dict(meta, seed="x")),
             "seed must be a nonnegative integer"))):
        broken = tmp_path / f"broken{i}"
        broken.mkdir()
        for item in os.listdir(bundle):
            if item != name:
                (broken / item).write_bytes(
                    (tmp_path / "bundle" / item).read_bytes())
        if isinstance(text, bytes):
            (broken / name).write_bytes(text)
        elif text is not None:
            (broken / name).write_text(text)
        for verb in ("solve", "sweep"):
            capsys.readouterr()
            assert run(verb, "--problem", str(broken), "--max-iters", "5",
                       "--out", out) == 2, (name, verb)
            assert message in capsys.readouterr().err, (name, verb)
    # A bundle with no flux above its background, which S2 cannot hold,
    # used to end in a traceback after making the output directory.
    dark = tmp_path / "dark"
    shutil.copytree(bundle, dark)
    save_f64img(dark / "observed.f64img", np.zeros_like(truth))
    for verb in ("solve", "sweep"):
        capsys.readouterr()
        assert run(verb, "--problem", str(dark), "--constraint", "s2",
                   "--max-iters", "5", "--out", out) == 2, verb
        assert "problem settings: flux constant must be positive" in \
            capsys.readouterr().err, verb
    assert not os.path.exists(out)
    # Over S1 the same bundle still runs.
    assert run("solve", "--problem", str(dark), "--max-iters", "5",
               "--out", str(tmp_path / "dark_s1")) == 0


def test_psf_support_checked_before_the_kernel_is_built():
    # A disk's kernel keeps the pixel rows whose subpixels it covers: on
    # a 32 x 32 grid radii below 16 - 16/33 give 31 x 31 kernels, and
    # larger ones do not fit.
    cfg = dict(DEFAULTS, size=32, blur="disk", radius=15.515)
    assert resolve_problem(cfg).psf.kernel.shape == (31, 31)
    # A rejected support is found without building the kernel: radius
    # 40 used to trace 121.7 MiB, --psf-size 1001 16.3 MiB.
    for blur in ({"blur": "disk", "radius": 15.516},
                 {"blur": "disk", "radius": 40},
                 {"blur": "gaussian", "psf_size": 1001},
                 {"blur": "motion", "length": 50.0}):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="PSF support exceeds"):
                resolve_problem(dict(cfg, **blur))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (blur, peak)


def test_solve_from_pgm_file(tmp_path):
    img = tmp_path / "ref.pgm"
    save_pgm(img, shepp_logan(32))
    out = str(tmp_path / "run")
    assert run("solve", "--problem", str(img), "--snr", "30", "--seed", "1",
               "--tol", "1e-2", "--max-iters", "20", "--lambda", "6e-3",
               "--out", out) == 0
    meta = json.loads((tmp_path / "run" / "meta.json").read_text())
    assert meta["problem"].endswith("ref.pgm")


def test_sweep_from_bundle_uses_recorded_name(tmp_path):
    bundle = str(tmp_path / "bundle")
    run("generate", *GEN, "--out", bundle)
    out = str(tmp_path / "sweep")
    run("sweep", "--problem", bundle, "--method", "acquire", "--lambda",
        "6e-3", "--tol", "1e-2", "--max-iters", "20", "--max-time", "30",
        "--out", out)
    rows = read_csv(os.path.join(out, "summary.csv"))
    assert rows[0]["problem"] == "phantom"


def test_bundle_may_leave_its_name_and_blur_unrecorded(tmp_path):
    # A null name or blur falls back to the directory's name and --blur.
    bundle = tmp_path / "old"
    assert run("generate", *GEN, "--out", str(bundle)) == 0
    meta = json.loads((bundle / "meta.json").read_text())
    (bundle / "meta.json").write_text(
        json.dumps(dict(meta, problem=None, blur=None)))
    problem = resolve_problem(dict(DEFAULTS, problem=str(bundle),
                                   blur="disk"))
    assert (problem.name, problem.blur) == ("old", "disk")


def test_summary_snr_is_the_problems_own(tmp_path):
    # A bundle fixes its noise: its sweep reports the SNR it was
    # generated at, not --snr, which the bundle ignores.
    bundle = str(tmp_path / "bundle")
    assert run("generate", *GEN, "--out", bundle) == 0
    out = str(tmp_path / "sweep")
    assert run("sweep", "--problem", bundle, "--snr", "35", "--tol", "1e-2",
               "--max-iters", "3", "--out", out) == 0
    assert [row["snr"] for row in read_csv(os.path.join(out,
                                                        "summary.csv"))] \
        == ["30"]


def test_generate_refuses_a_bundle(tmp_path, capsys):
    # Regenerating a bundle used to re-save it as loaded, ignoring every
    # noise and blur flag; now it writes nothing, into --out or the
    # bundle itself.
    bundle = tmp_path / "bundle"
    assert run("generate", *GEN, "--out", str(bundle)) == 0
    before = {p.name: p.read_bytes() for p in bundle.iterdir()}
    for out in (tmp_path / "again", bundle):
        capsys.readouterr()
        assert run("generate", "--problem", str(bundle), "--snr", "20",
                   "--seed", "99", "--blur", "motion", "--out",
                   str(out)) == 2
        assert "not the bundle" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()
    assert {p.name: p.read_bytes() for p in bundle.iterdir()} == before


def test_auto_start_follows_the_blur_recorded_in_a_bundle(tmp_path):
    # A motion-blur bundle starts flat even when --blur is left at its
    # gaussian default, as it would be for `sweep --problem <bundle>`.
    bundle = str(tmp_path / "bundle")
    run("generate", *GEN, "--blur", "motion", "--out", bundle)
    cfg = dict(DEFAULTS, problem=bundle)
    problem = resolve_problem(cfg)
    x0 = starting_guess(cfg, problem)
    assert np.all(x0 == problem.flux / x0.size)


def test_sweep_on_a_bundle_reads_its_meta_once(tmp_path, monkeypatch):
    # The loaded problem carries the bundle's recorded name and blur, so
    # labels and starting guesses read the problem, not the disk.
    bundle = str(tmp_path / "bundle")
    assert run("generate", *GEN, "--blur", "motion", "--out", bundle) == 0
    meta = os.path.abspath(os.path.join(bundle, "meta.json"))
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and (
                os.path.abspath(file) == meta):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert run("sweep", "--problem", bundle, "--method", "both",
               "--tol", "1e-2", "--max-iters", "3", "--out",
               str(tmp_path / "sweep")) == 0
    assert len(opened) == 1


def test_phantom_names_the_built_in_phantom_whatever_the_cwd_holds(
        tmp_path, monkeypatch):
    # A bundle directory named phantom/ in the working directory, made
    # from another image with another blur and recording another name.
    cfg = dict(DEFAULTS, size=32, snr=30.0, seed=4)
    expected = resolve_problem(cfg)
    save_pgm(tmp_path / "square.pgm", shepp_logan(48))
    monkeypatch.chdir(tmp_path)
    assert run("generate", "--problem", "square.pgm", "--blur", "motion",
               "--out", "phantom") == 0
    assert json.loads((tmp_path / "phantom" / "meta.json").read_text())[
        "problem"] == "square"
    problem = resolve_problem(cfg)
    assert np.array_equal(problem.observed, expected.observed)
    assert np.array_equal(starting_guess(cfg, problem), expected.observed)
    assert problem.name == "phantom" and problem.blur == "gaussian"
    # The CLI labels it "phantom" and checks --size as a phantom size.
    assert run("sweep", "--size", "32", "--snr", "30", "--seed", "4",
               "--method", "acquire", "--tol", "1e-2", "--max-iters", "3",
               "--out", "sweep") == 0
    rows = read_csv(tmp_path / "sweep" / "summary.csv")
    assert [row["problem"] for row in rows] == ["phantom"]
    restored = load_f64img(tmp_path / "sweep" / "restored_acquire_tol1e-02"
                           ".f64img")
    assert restored.shape == (32, 32)
    assert run("sweep", "--size", "16", "--out", "small") == 2


def test_meta_records_a_bundles_own_values(tmp_path):
    # A bundle's noise and blur are its own, and it does not record the
    # settings that shaped its image and PSF; meta.json used to echo the
    # config's snr, seed, background and blur settings instead.
    bundle = tmp_path / "bundle"
    assert run("generate", *GEN, "--blur", "motion", "--background", "1e-9",
               "--out", str(bundle)) == 0
    for verb in ("solve", "sweep"):
        out = tmp_path / verb
        assert run(verb, "--problem", str(bundle), "--tol", "1e-2",
                   "--max-iters", "3", "--out", str(out)) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert {key: meta[key] for key in (
            "snr", "seed", "background", "blur", "size", "variant", "sigma",
            "psf_size", "length", "angle", "radius")} == {
            "snr": 30.0, "seed": 4, "background": 1e-9, "blur": "motion",
            "size": None, "variant": None, "sigma": None, "psf_size": None,
            "length": None, "angle": None, "radius": None}, verb
        assert meta["problem"] == str(bundle) and meta["tol"] == [1e-2]


def test_defaults_are_the_documented_values():
    expected = {
        "problem": "phantom", "size": 256, "variant": "modified",
        "blur": "gaussian", "sigma": 2.0, "psf_size": 0, "length": 11,
        "angle": 45.0, "radius": 4, "snr": 35.0, "seed": 1,
        "background": 1e-10, "method": "acquire", "lambda": 6e-3,
        "mu": 1e-2, "gamma": 1e-5, "eta": 1e-5, "delta": 0.5, "memory": 5,
        "theta": 0.1, "inner_max_iters": 10, "constraint": "s1",
        "start": "auto", "tol": [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7],
        "max_time": 25.0, "max_iters": 10000, "monotone": False,
        "out": "results"}
    # 4 and 4.0 compare equal, but meta.json writes them apart.
    assert {key: (type(value), value) for key, value in DEFAULTS.items()} \
        == {key: (type(value), value) for key, value in expected.items()}
    assert set(CHOICES) == {"variant", "blur", "method", "constraint",
                            "start"}


def test_each_flag_sets_what_its_config_key_sets(tmp_path):
    # Every key a flag sets, with a value other than its default: the
    # flag's arguments and the value a config file gives for it.
    image, out = tmp_path / "ref.pgm", str(tmp_path / "run")
    save_pgm(image, shepp_logan(32))
    cases = {
        "problem": (["--problem", str(image)], str(image)),
        "size": (["--size", "48"], 48),
        "variant": (["--variant", "original"], "original"),
        "blur": (["--blur", "disk"], "disk"),
        "sigma": (["--sigma", "1.5"], 1.5),
        "psf_size": (["--psf-size", "7"], 7),
        "length": (["--len", "7"], 7.0),
        "angle": (["--angle", "30"], 30.0),
        "radius": (["--radius", "3"], 3.0),
        "snr": (["--snr", "30"], 30.0),
        "seed": (["--seed", "4"], 4),
        "background": (["--background", "1e-9"], 1e-9),
        "out": (["--out", out], out),
        "method": (["--method", "sgp"], "sgp"),
        "lambda": (["--lambda", "5e-3"], 5e-3),
        "mu": (["--mu", "2e-2"], 2e-2),
        "gamma": (["--gamma", "1e-4"], 1e-4),
        "theta": (["--theta", "0.2"], 0.2),
        "inner_max_iters": (["--inner-iters", "5"], 5),
        "tol": (["--tol", "1e-2,1e-3"], [1e-2, 1e-3]),
        "constraint": (["--constraint", "s2"], "s2"),
        "start": (["--start", "flat"], "flat"),
        "max_time": (["--max-time", "30"], 30.0),
        "max_iters": (["--max-iters", "3"], 3),
        "monotone": (["--monotone"], True),
    }
    assert set(cases) == {key for key, row in KEYS.items() if row.verbs}
    assert {key for key, row in KEYS.items() if not row.verbs} == {
        "eta", "delta", "memory"}
    cfg = tmp_path / "cfg.json"
    parse = build_parser().parse_args
    for key, (flag, value) in cases.items():
        cfg.write_text(json.dumps({key: value}))
        for verb in KEYS[key].verbs:
            by_flag = load_config(parse([verb, *flag]))
            by_file = load_config(parse([verb, "--config", str(cfg)]))
            assert by_flag == by_file, (key, verb)
            assert type(by_flag[key]) is type(value), (key, verb)
            assert by_flag[key] == value != DEFAULTS[key], (key, verb)
    # All at once, into the meta.json of a solve.
    cfg.write_text(json.dumps({key: value for key, (_, value)
                               in cases.items()}))
    metas = []
    for args in ([arg for flag, _ in cases.values() for arg in flag],
                 ["--config", str(cfg)]):
        assert run("solve", *args) == 0, args
        metas.append(json.loads(open(os.path.join(out, "meta.json")).read()))
    for meta in metas:
        assert {key: meta[key] for key in cases} == {
            key: value for key, (_, value) in cases.items()}
        del meta["time_s"]
    assert metas[0] == metas[1]


@pytest.mark.parametrize("key, message", [
    ("variant", "must be original or modified"),
    ("blur", "must be gaussian, motion or disk"),
    ("method", "must be acquire, sgp or both"),
    ("constraint", "must be s1 or s2"),
    ("start", "must be auto, observed or flat")])
def test_choice_keys_reject_flags_and_config_files_alike(
        tmp_path, capsys, key, message):
    # Argparse used to reject a bad --variant, --blur, --constraint or
    # --start with its usage error, and a config file's variant reached
    # the phantom unchecked.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "bogus"}))
    out = str(tmp_path / "x")
    for args in (["--" + key, "bogus"], ["--config", str(cfg)]):
        capsys.readouterr()
        assert run("solve", "--size", "32", *args, "--out", out) == 2, args
        assert capsys.readouterr().err == f"error: field '{key}': {message}\n"
    assert not os.path.exists(out)
