#!/usr/bin/env python3
"""Time and operator work to a target error, for both solvers.

    python3 bench/run.py --workload acquire-gauss-s1 --seed 1 --seconds 20 --trace 0

A run set-ups and solves the workload's problem instances in whole rounds
until --seconds have passed (at least one round), checks every solve
against computations made apart from the program, and prints a table
and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run does one untraced and one traced round and reports per-layer
metrics, including the tracing overhead.  --workload all runs every
workload once; --repeat N runs each selected workload N times (seeds
seed .. seed+N-1) in this one process and prints medians, quartiles and
sample counts.  See bench/README.md.
"""

import os
import sys

# Pin BLAS threads before numpy loads: steadier timings on a shared box.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s",
    "time_to_target_s": "s",
    "run_s": "s",
    "iters_to_target": "count",
    "blur_calls_to_target": "count",
    "final_rel_err": "ratio",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Import the program from this checkout's sources, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "poissontv", "__init__.py")):
        sys.exit("error: program sources (src/poissontv) not found next to "
                 "the benchmark directory")
    sys.path[:0] = [SRC, HERE]
    import poissontv
    if os.path.dirname(os.path.dirname(os.path.abspath(poissontv.__file__))) \
            != SRC:
        sys.exit("error: poissontv was imported from outside this checkout")


class Measurement:
    """One or more whole rounds over a workload's instances."""

    def __init__(self, workload, seeds, workdir, seconds, tracing, run_id):
        from tracing import probed
        self.setups = []
        self.instances = []          # (solves, run_s) per instance
        rounds = 0
        start = perf_counter()
        with probed(tracing, run_id) as probe:
            while rounds == 0 or perf_counter() - start < seconds:
                for seed in seeds:
                    # Only the newest solve keeps its arrays, for the
                    # isolated timings; memory stays flat across rounds.
                    for solves, _ in self.instances[-1:]:
                        for s in solves:
                            s.progress.inputs, s.progress.last = {}, ()
                    self.instances.append(workload.run_instance(
                        seed, probe, workdir, self.setups))
                rounds += 1
        self.probe = probe
        self.solves = [s for solves, _ in self.instances for s in solves]

    @property
    def failed(self):
        return sum(s.failed for s in self.solves)

    @property
    def correct(self):
        """False if a solve that returned gave a wrong output."""
        return not any(s.wrong for s in self.solves)


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(m):
    ok = [(solves, run_s) for solves, run_s in m.instances
          if not any(s.failed for s in solves)]

    def per_instance(fn):
        return _median([fn(solves, run_s) for solves, run_s in ok])

    hit = lambda solves, i: sum(s.progress.hit[i] for s in solves)
    values = {
        "setup_s": _median(m.setups),
        "time_to_target_s": per_instance(lambda s, r: hit(s, 1)),
        "run_s": per_instance(lambda s, r: r),
        "iters_to_target": per_instance(lambda s, r: hit(s, 0)),
        "blur_calls_to_target": per_instance(lambda s, r: hit(s, 2)),
        "final_rel_err": per_instance(
            lambda s, r: max(x.final_err for x in s)),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _unit_step_ratio(solves):
    """Share of iterations that took the first trial step."""
    unit = total = 0
    for s in solves:
        p = s.progress
        prev = p.counts_start.get("poissontv.solver.objective_value", 0) + 1
        for calls in p.objective_calls:
            unit += calls - prev == 1
            total += 1
            prev = calls
    return unit / total if total else 0.0


def per_layer(untraced, traced, inputs):
    from layers import isolated_timings
    from tracing import PROBES, WRITERS
    probe = traced.probe
    solves = traced.solves
    n = len(traced.instances)
    iters = sum(s.progress.iters for s in solves)
    calls = {}
    for s in solves:
        for name, count in s.progress.counts.items():
            calls[name] = calls.get(name, 0) + count

    def calls_of(predicate):
        return sum(c for name, c in calls.items() if predicate(name))

    objective = calls_of(lambda k: k.endswith(".objective_value"))
    tv_names = {f"{m}.{p}" for m, p in PROBES["tv"]}
    acquire_iters = sum(s.progress.iters for s in solves
                        if s.method == "acquire")
    inner = [i for i in probe.inner_solves if i[0] is not None]
    self_s = probe.self_times()
    spans = probe.spans
    writers = {name for name, *_ in spans if name.endswith(WRITERS)}
    run_s = lambda m: sum(r for _, r in m.instances)
    values = {
        "blur.calls_per_iter": probe.blur_calls(calls) / iters,
        "kl.hessian_calls_per_iter":
            calls_of(lambda k: k.endswith("KlQuadraticModel.hessian_vec"))
            / iters,
        "solver.objective_calls_per_iter": objective / iters,
        "sgp.accept_ratio": iters / (objective - len(solves)),
        "solver.unit_step_ratio": _unit_step_ratio(solves),
        "tv.calls_per_iter": calls_of(tv_names.__contains__) / iters,
        "sgp.inner_iters_per_outer":
            sum(i[2] for i in inner) / acquire_iters if acquire_iters else 0.0,
        "sgp.inner_met_ratio":
            sum(i[1] <= i[0] for i in inner) / len(inner) if inner else 0.0,
        "testbed.instrument_s": probe.total_time(
            {"poissontv.solver._rel_error", "poissontv.solver._mssim"}) / n,
        "image.write_s": probe.total_time(writers) / n,
        "image.bytes_written": probe.bytes_written / n,
        "trace.overhead_ratio": run_s(traced) / run_s(untraced) - 1.0,
        "trace.spans": len(spans) / n,
    }
    for layer in ("blur", "kl", "tv", "constraints", "sgp", "solver", "cli"):
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0) / n
    values.update(isolated_timings(**inputs))
    return {k: {"value": v, "unit": _layer_unit(k)} for k, v in values.items()}


def _layer_unit(name):
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_ratio", "ratio"),
                         ("bytes_written", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(name, seed, seconds, tracing):
    from workloads import WORKLOADS, instance_seeds
    workload = WORKLOADS[name]
    seeds = instance_seeds(seed, workload.instances)
    workdir = os.path.join(ROOT, ".bench_work", name)
    os.makedirs(workdir, exist_ok=True)
    run_id = f"{name}-seed{seed}"
    if not tracing:
        m = Measurement(workload, seeds, workdir, seconds, False, run_id)
        metrics, runs = end_to_end(m), [m]
    else:
        untraced = Measurement(workload, seeds, workdir, 0, False, run_id)
        traced = Measurement(workload, seeds, workdir, 0, True, run_id)
        traced.probe.write(os.path.join(workdir, "trace.json"))
        last = traced.solves[-1].progress
        inputs = dict(last.inputs, x_prev=last.last[0], x=last.last[1])
        metrics = per_layer(untraced, traced, inputs)
        runs = [untraced, traced]
    for m in runs:
        for s in m.solves:
            for problem in s.problems:
                print(f"{name} {s.method}: {problem}", file=sys.stderr)
            if s.progress.missed:
                print(f"{name} {s.method}: missed relative error "
                      f"{s.progress.target} within the cap", file=sys.stderr)
    return {
        "correct": all(m.correct for m in runs),
        "attempted": sum(len(m.solves) for m in runs),
        "failed": sum(m.failed for m in runs),
        "metrics": metrics,
    }


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def print_result(name, result):
    print(f"== {name}: attempted {result['attempted']}, failed "
          f"{result['failed']}, correct {result['correct']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:34s} {_fmt(entry['value']):>14s} {entry['unit']}")


def repeat(names, seed, count, seconds, tracing):
    from workloads import WORKLOADS
    summary = {}
    attempted = failed = 0
    correct = True
    for name in names or list(WORKLOADS):
        samples = {}
        for i in range(count):
            result = run_workload(name, seed + i, seconds, tracing)
            attempted += result["attempted"]
            failed += result["failed"]
            correct &= result["correct"]
            for metric, entry in result["metrics"].items():
                samples.setdefault(metric, (entry["unit"], []))[1].append(
                    entry["value"])
        print(f"== {name}: {count} runs, seeds {seed}..{seed + count - 1}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>8s}  n")
        summary[name] = {}
        for metric, (unit, values) in samples.items():
            values = [v for v in values if v is not None]
            med = _median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                     "n": len(values), "unit": unit}
            print(f"  {metric:34s} {_fmt(med):>12s} {_fmt(q1):>12s} "
                  f"{_fmt(q3):>12s} {spread:8.3f}  {len(values)} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "repeat": summary}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep starting rounds until this much time "
                             "has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run each workload N times and summarize")
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.repeat:
        repeat(names, args.seed, args.repeat, args.seconds, bool(args.trace))
        return 0
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
        print_result(name, results[name])
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": {n: r["metrics"] for n, r in results.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
