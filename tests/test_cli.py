import csv
import json
import os
import threading
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest

import poissontv.cli
import poissontv.solver
from poissontv.cli import (DEFAULTS, ConfigError, main, resolve_problem,
                           starting_guess, sweep_rows)
from poissontv.image import load_f64img, save_f64img
from poissontv.testbed import load_problem, mssim


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


def test_report_missing_summary_errors(tmp_path):
    empty = str(tmp_path / "empty")
    os.makedirs(empty)
    assert run("report", empty) == 2
    assert not os.path.isfile(os.path.join(empty, "plot.gp"))


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
    # or a negative scale, which used to end in a traceback.
    bundle = str(tmp_path / "bundle")
    assert run("generate", *GEN, "--out", bundle) == 0
    meta = json.loads((tmp_path / "bundle" / "meta.json").read_text())
    del meta["seed"]
    for i, (name, text, message) in enumerate((
            ("observed.f64img", None, "cannot read"),
            ("meta.json", "{", "problem settings"),
            ("meta.json", json.dumps(meta), "lacks meta entry 'seed'"),
            ("meta.json", json.dumps(dict(meta, seed=4, scale=-1)),
             "background must be positive"))):
        broken = tmp_path / f"broken{i}"
        broken.mkdir()
        for item in os.listdir(bundle):
            if item != name:
                (broken / item).write_bytes(
                    (tmp_path / "bundle" / item).read_bytes())
        if text is not None:
            (broken / name).write_text(text)
        for verb in ("solve", "sweep"):
            capsys.readouterr()
            assert run(verb, "--problem", str(broken), "--max-iters", "5",
                       "--out", out) == 2, (name, verb)
            assert message in capsys.readouterr().err, (name, verb)
    assert not os.path.exists(out)


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
    from poissontv.image import save_pgm
    from poissontv.testbed import shepp_logan
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


def test_auto_start_follows_the_blur_recorded_in_a_bundle(tmp_path):
    # A motion-blur bundle starts flat even when --blur is left at its
    # gaussian default, as it would be for `sweep --problem <bundle>`.
    bundle = str(tmp_path / "bundle")
    run("generate", *GEN, "--blur", "motion", "--out", bundle)
    cfg = dict(DEFAULTS, problem=bundle)
    problem = resolve_problem(cfg)
    x0 = starting_guess(cfg, problem)
    assert np.all(x0 == problem.flux / x0.size)
