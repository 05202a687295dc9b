"""grauertlab benchmark: one workload per call, end-to-end or traced.

    python3 bench/run.py --workload suites --seed 1 --seconds 20 --trace 0

Run it from the repository root (or any checkout of it); the program is
imported from ``src/``.  With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suites", "direction-sweep", "profile-scan")

#: BLAS and OpenMP pools are pinned to one thread; the originals are recorded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: fresh interpreters timed for setup_s; their median is reported
SETUP_PROBES = 5
#: fewest measured passes per run, whatever --seconds says
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120
#: CLOCK_MONOTONIC reading at which the parent spawned a setup probe
SPAWN_VAR = "GRAUERTLAB_BENCH_SPAWN"

#: Timings are reported at a reference machine speed.  This machine's speed
#: drifts by 25% and more over seconds to minutes, and differs between its
#: two cores (CPU time tracks wall time, so it is not descheduling); no window
#: in the run budget averages that out.  A fixed calibration kernel is timed
#: in the same process as the work, right before and after it and sampled
#: during it (SpeedSampler), and each raw time is scaled by
#: ref / (mean kernel time).  The op kernel mixes pure-Python scalar
#: arithmetic with 2x2 numpy calls, like the program; the setup kernel is the
#: pure-Python part alone, because numpy is not imported yet when a setup
#: probe starts.  Each ref is the kernel's typical time here, so scaled and
#: raw seconds are close; the raw medians are printed alongside.
OP_KERNEL = (4000, 40)  # (pure-Python steps, numpy steps)
OP_CAL_REF_S = 0.0017
SETUP_KERNEL = (4000, 0)
SETUP_CAL_REF_S = 0.001
#: CPU seconds between kernel samples taken during an op or a setup probe
SAMPLE_CPU_S = 0.05


def import_program(root: Path) -> types.SimpleNamespace:
    """Import grauertlab from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "grauertlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no grauertlab package under {src}")
    sys.path.insert(0, str(src))
    import grauertlab
    import grauertlab.cli

    if Path(grauertlab.__file__).resolve().parent != (src / "grauertlab").resolve():
        raise SystemExit(f"error: grauertlab imported from {grauertlab.__file__}, not {src}")
    from grauertlab import curvature, density, divisors, errors, foliation, holomorphic, metric, verify

    return types.SimpleNamespace(
        package=grauertlab, cli=grauertlab.cli, curvature=curvature, density=density,
        divisors=divisors, errors=errors, foliation=foliation, holomorphic=holomorphic,
        metric=metric, verify=verify,
    )


def build(workload: str, seed: int, work: Path, g):
    import workloads

    work.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[workload](work, seed, g)


def _probe(args) -> int:
    """One setup_s sample: import grauertlab.cli and build the inputs.

    Prints the seconds since the parent spawned this process, less the
    first calibration, and the factor to the reference speed.  The kernel
    runs here because the parent may sit on the other core.
    """
    clock = time.CLOCK_MONOTONIC
    t_cal = time.clock_gettime(clock)
    speed = SpeedSampler(SETUP_KERNEL, SETUP_CAL_REF_S)
    t_setup = time.clock_gettime(clock)
    work = ROOT / ".bench_work" / f"probe-{os.getpid()}"
    try:
        with speed:
            build(args.workload, args.seed, work, import_program(ROOT))
            elapsed = time.clock_gettime(clock) - float(os.environ[SPAWN_VAR]) - (t_setup - t_cal)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"elapsed": elapsed, "scale": speed.scale()}))
    return 0


def _kernel(py_steps: int, np_steps: int) -> float:
    t0 = time.perf_counter()
    acc, z = 0, 0.3 + 0.1j
    for i in range(py_steps):
        acc += i * i % 7
        z = z * z * 0.5 + 0.1j
    if np_steps:
        import numpy as np

        a = np.array([1 + 2j, 0.5 - 1j])
        for i in range(np_steps):
            m = np.outer(a, np.conj(a)) * (1.0 + 0.01 * i) + np.eye(2)
            acc += np.einsum("ij,i,j->", m, a, np.conj(a)).real
    return time.perf_counter() - t0


class SpeedSampler:
    """Measures machine speed around and during a piece of work.

    The calibration kernel runs (median of 3) before and after the work;
    a tenth of it runs every SAMPLE_CPU_S of CPU time during the work, in a
    SIGPROF handler on the same thread, so long ops are scaled by the speed
    they actually ran at.
    """

    def __init__(self, kernel: tuple[int, int], ref_s: float, before: float | None = None):
        self.kernel, self.ref_s = kernel, ref_s
        self.samples = [self.calibrate() if before is None else before]

    def calibrate(self) -> float:
        return statistics.median(_kernel(*self.kernel) for _ in range(3))

    def __enter__(self):
        self._old = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)
        self.after = self.calibrate()
        self.samples.append(self.after)

    def _sample(self, signum, frame):
        self.samples.append(10 * _kernel(*(k // 10 for k in self.kernel)))

    def scale(self) -> float:
        """Factor from raw seconds to seconds at the reference speed."""
        return self.ref_s / statistics.fmean(self.samples)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Raw and speed-scaled setup times of SETUP_PROBES fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        env = dict(os.environ)
        env[SPAWN_VAR] = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {proc.stderr.decode()[-2000:]}")
        probe = json.loads(proc.stdout.decode().splitlines()[-1])
        raw.append(probe["elapsed"])
        scaled.append(probe["elapsed"] * probe["scale"])
    return raw, scaled


def provenance(args, g, thread_env) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "git_sha": sha,
        "grauertlab": getattr(g.package, "__version__", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "argv": sys.argv,
        "thread_env": thread_env,
        "GRAUERT_THREADS": os.environ.get("GRAUERT_THREADS"),
    }


def run_pass(ops, g, outcomes_ref, failures):
    """One pass over the op list.

    Returns (raw wall, scaled wall, scaled cpu, outcomes); see SpeedSampler.
    """
    import workloads

    raw = wall = cpu = 0.0
    outs = {}
    before = None
    for op in ops:
        with SpeedSampler(OP_KERNEL, OP_CAL_REF_S, before) as speed:
            out, w, c = workloads.run_op(op, g)
        before = speed.after
        raw += w
        wall += w * speed.scale()
        cpu += c * speed.scale()
        outs[op.name] = out
        if outcomes_ref is not None and out.data != outcomes_ref[op.name].data:
            failures.append(f"{op.name}: output differs from the first pass")
    return raw, wall, cpu, outs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    thread_env = {v: os.environ.get(v) for v in THREAD_VARS}
    for v in THREAD_VARS:
        os.environ[v] = "1"
    if args.setup_probe:
        return _probe(args)
    if not (ROOT / "src" / "grauertlab" / "__init__.py").is_file():
        print(f"error: no grauertlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setup = measure_setup(args)
    g = import_program(ROOT)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        wl = build(args.workload, args.seed, work, g)
        return measure(args, g, wl, setup, thread_env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, g, wl, setup, thread_env) -> int:
    import warnings

    import tracer as tracing

    ops = wl.ops
    diffs: list[str] = []
    tr = tracing.Tracer() if args.trace else None
    plain, traced, traced_counts, traced_times = [], [], [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        *_, first = run_pass(ops, g, None, diffs)  # warm-up; reference bytes
        passes = 1
        t_end = time.perf_counter() + args.seconds
        while True:
            if tr is not None and len(plain) > len(traced):
                tr.reset()
                tr.install()
                try:
                    with tr.capture_warnings():
                        _, wall, _, _ = run_pass(ops, g, first, diffs)
                finally:
                    tr.uninstall()
                traced.append(wall)
                traced_counts.append(tracing.counts(tr))
                traced_times.append(tracing.timings(tr))
                if len(traced) == 1:
                    u_samples = list(tr.u_jet_samples)
            else:
                raw, wall, cpu, _ = run_pass(ops, g, first, diffs)
                plain.append((wall, cpu, raw))
            passes += 1
            done = len(plain) >= MIN_PASSES and (tr is None or len(traced) >= MIN_PASSES)
            if done and time.perf_counter() >= t_end:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    res = wl.check(first, g)
    failed_names = set(res.failed_ops)
    failed = sum(passes for op in ops if op.name in failed_names)
    failed += sum(1 for name in failed_names if name not in {op.name for op in ops})
    for d in diffs:
        failed += 1
        res.failed_ops.setdefault(d.split(":")[0] + " (determinism)", d)
    attempted = passes * len(ops) + wl.extra_ops
    misses = [o for o in res.oracle if not o[1] <= o[2]]
    n_oracle = len(res.oracle)

    walls = sorted(p[0] for p in plain)
    cpus = sorted(p[1] for p in plain)
    raws = sorted(p[2] for p in plain)
    setup_raw, setup = setup
    failed_frac = failed / attempted
    miss_frac = len(misses) / n_oracle if n_oracle else 0.0
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1.0 - failed_frac, "1"),
        "oracle_ok_frac": (1.0 - miss_frac, "1"),
    }

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("provenance " + json.dumps(provenance(args, g, thread_env), sort_keys=True))
    q1, _, q3 = statistics.quantiles(walls, n=4)
    print(f"  setup_s          {e2e['setup_s'][0]:.4f} s   median of {len(setup)} fresh "
          f"interpreters {[round(s, 3) for s in setup]}; raw median "
          f"{statistics.median(setup_raw):.4f} s")
    print(f"  pass_s           {e2e['pass_s'][0]:.4f} s   median of {len(walls)} passes "
          f"of {len(ops)} ops, quartiles {q1:.4f} .. {q3:.4f}; raw median "
          f"{statistics.median(raws):.4f} s")
    print(f"  cpu_s            {e2e['cpu_s'][0]:.4f} s   median process CPU per pass")
    print(f"  peak_rss_mb      {peak_rss_mb:.1f} MB")
    print(f"  failed_frac      {failed_frac:.6g}     {failed} of {attempted} ops "
          f"(ok_frac {e2e['ok_frac'][0]:.6g})")
    print(f"  oracle_miss_frac {miss_frac:.6g}     {len(misses)} of {n_oracle} values "
          f"(oracle_ok_frac {e2e['oracle_ok_frac'][0]:.6g}); {res.declared} sampled "
          f"points raised a declared GrauertError")
    print(f"  non-finite values {res.nonfinite}, raw ArithmeticError points {res.raw_arith}")
    for name, why in sorted(res.failed_ops.items()):
        print(f"  FAILED {name}: {why}")
    for label, err, tol, _ in misses[:10]:
        print(f"  oracle miss {label}: rel err {err:.3g} > {tol:g}")
    if len(misses) > 10:
        print(f"  ... {len(misses) - 10} more oracle misses")

    correct = failed == 0
    if args.trace:
        import selftest

        layer = per_layer(traced_counts, traced_times, traced, walls, res, u_samples)
        for c in traced_counts[1:]:
            if c != traced_counts[0]:
                correct = False
                print("  FAILED traced counts differ between passes")
                break
        st = selftest.run(g)
        for f in st:
            print(f"  FAILED selftest {f}")
        correct = correct and not st
        for name, (value, unit) in layer.items():
            print(f"  {name:42s} {value:.6g} {unit}")
        metrics = layer
    else:
        metrics = e2e
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def per_layer(counts, times, traced_walls, plain_walls, res, u_samples) -> dict:
    import oracle
    import tracer as tracing

    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.calls"] = (counts[0][f"{layer}.calls"], "count")
        out[f"{layer}.self_s"] = (statistics.median(t[f"{layer}.self_s"] for t in times), "s")
        out[f"{layer}.errors"] = (counts[0][f"{layer}.errors"], "count")
        out[f"{layer}.fp_warnings"] = (counts[0][f"{layer}.fp_warnings"], "count")
    for qual in tracing.HOT:
        out[f"{qual}.calls"] = (counts[0][f"{qual}.calls"], "count")
        out[f"{qual}.self_s"] = (statistics.median(t[f"{qual}.self_s"] for t in times), "s")
    for name in ("curvature.jets_per_kplus", "holomorphic.jets_per_hsc",
                 "divisors.metric_evals_per_point", "foliation.chart_coeffs_per_leaf",
                 "metric.cond_max"):
        out[name] = (counts[0][name], "1")
    errs = [e for _, e, _, dens in res.oracle if dens and e != float("inf")]
    for j in u_samples:
        ref = oracle.u_jet(j.t)
        errs += [oracle.rel_err(v, r) for v, r in zip((j.u, j.up, j.upp), ref)]
    errs = [e for e in errs if e != float("inf")]
    out["density.max_rel_err"] = (max(errs, default=0.0), "1")
    out["density.nonfinite_values"] = (res.nonfinite, "count")
    out["density.raw_arith_points"] = (res.raw_arith, "count")
    out["tracing_overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "1")
    return out


if __name__ == "__main__":
    sys.exit(main())
