"""The benchmark's tracer self-test runs as part of the test suite, so that a
change in the call counts it pins shows up here, not only in traced runs.  The
names the tracer wraps are checked to still resolve in the package."""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_ok():
    res = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.splitlines()[-1] == "selftest: ok"


def _bench_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    # the tracer wraps only canonical public functions and listed methods; a
    # traced name that was renamed, removed or turned into an alias would
    # read 0 calls instead of failing
    tracer = _bench_tracer()
    names = set(tracer.HOT) | {q for pair in tracer.SCOPED for q in pair}
    for qual in sorted(names):
        layer, name = qual.split(".")
        assert layer in tracer.LAYERS, qual
        mod = importlib.import_module(f"grauertlab.{layer}")
        obj = getattr(mod, name, None)
        assert inspect.isfunction(obj) and not name.startswith("_"), qual
        assert obj.__module__ == mod.__name__ and obj.__name__ == name, qual
    for layer, methods in tracer.METHODS.items():
        mod = importlib.import_module(f"grauertlab.{layer}")
        for cls_name, meth in methods:
            cls = getattr(mod, cls_name, None)
            assert cls is not None and inspect.isfunction(
                cls.__dict__.get(meth)
            ), f"{layer}.{cls_name}.{meth}"
