"""The benchmark's tracer wraps program functions under the names they
are looked up by (`bench/tracing.py`), and its layer timings import
program functions directly (`bench/layers.py`).  A refactor that renames
or moves one of them breaks `bench/run.py --trace 1`; these tests catch
that without running the benchmark."""

import importlib
import importlib.util
import inspect
import os

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, "bench")


def load_bench_module(name):
    """Load `bench/<name>.py` from its path, under a private name."""
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_resolves_to_an_owned_function():
    # Probe.patch walks the dotted path with getattr and then reads the
    # last part from the owner's __dict__, so a method must be defined
    # on the class it is listed under and a free function must be bound
    # in the module that looks it up.
    missing = []
    for targets in load_bench_module("tracing").PROBES.values():
        for module_name, path in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            if not callable(getattr(owner, "__dict__", {}).get(attr)):
                missing.append(f"{module_name}.{path}")
    assert not missing, f"probes naming no function: {missing}"


def test_layer_timings_import_and_call_patterns():
    load_bench_module("layers")
    from poissontv.sgp import SteplengthState, sgp_solve
    SteplengthState()
    # The tracer reads the inner stop target from this keyword.
    assert "stop_norm_target" in inspect.signature(sgp_solve).parameters
