"""The benchmark's workloads: seeded inputs, op lists and output checks.

An op is one in-process ``grauertlab.cli.main(argv)`` call where a
subcommand exists, otherwise a sweep of library calls over a band of
points.  Every op's output is kept as bytes, so passes can be compared for
byte identity.  A sweep records each point's outcome: the returned value,
or the name of the exception raised.  A ``GrauertError`` at a point is a
declared outcome; a raw ``ArithmeticError`` is not, and counts as an oracle
miss like a non-finite value.

An op fails when it raises, returns another exit code than expected, or its
output fails a structural check.  Accuracy is judged per value against the
mpmath oracles in ``oracle.py``; each check class states its tolerance.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle

#: relative tolerance for density values (u, u', u'', K_g and the radial
#: curvatures).  Known losses at this bound's scale sit at the t = 1 seam:
#: u'' just outside the series branch (|t - 1| ~ 1.1e-3) is off by ~8e-11,
#: and K_g near |z| = 1 by up to ~2e-9, so the seam band shows a few misses
DENSITY_TOL = 1e-9
#: relative tolerance for holomorphic sectional curvature (measured errors
#: are below 1e-12 at well-conditioned points)
HSC_TOL = 1e-9
#: relative tolerance for the divisor-family gaps recomputed from the oracle
GAP_TOL = 1e-9
#: relative tolerance when matching a verify report against its reference
REFERENCE_TOL = 1e-9

SUITES = ("thm11", "thm12", "thm13", "thm51", "lemma52")

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Op:
    name: str
    argv: list | None = None  # cli op
    sweep: tuple | None = None  # (module, function name, list of arg tuples)
    out: Path | None = None


@dataclass
class Outcome:
    """What one execution of an op produced."""

    rc: int | None = None
    error: str | None = None  # exception that escaped the op
    data: bytes = b""
    values: list | None = None  # sweep outcomes


@dataclass
class CheckResult:
    failed_ops: dict = field(default_factory=dict)  # op name -> reason
    oracle: list = field(default_factory=list)  # (label, rel_err, tol, is_density)
    declared: int = 0  # sampled points that raised a GrauertError
    nonfinite: int = 0  # non-finite values written or returned, all points
    raw_arith: int = 0  # raw ArithmeticError at a point, all points

    def fail(self, op, reason):
        self.failed_ops.setdefault(op.name, reason)

    def add(self, label, value, ref, tol, density=True):
        self.oracle.append((label, oracle.rel_err(value, ref), tol, density))


def fmt_complex(z: complex) -> str:
    """Round-trip text for a complex CLI argument; never starts with '-'."""
    return f"({z.real!r}{z.imag:+}j)"


def _subsample(rng: random.Random, n: int, k: int) -> list[int]:
    """k indices of range(n), one per stratum, so the share of a band that
    misses barely moves with the seed."""
    if k >= n:
        return list(range(n))
    return [int((i + rng.random()) * n / k) for i in range(k)]


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n seeded values in [lo, hi], one per equal-width stratum."""
    return [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]


def _read_csv(data: bytes):
    rows = list(csv.reader(io.StringIO(data.decode())))
    return rows[0], rows[1:]


def _count_nonfinite(rows, cols) -> int:
    return sum(1 for r in rows for c in cols if not math.isfinite(float(r[c])))


# -- op execution ---------------------------------------------------------------

def run_op(op: Op, g) -> tuple[Outcome, float, float]:
    """Execute one op against the grauertlab modules in ``g``.

    Returns the outcome and the wall and CPU seconds of the call alone.
    Functions are looked up at call time, so an installed tracer sees them.
    """
    clock, cpu = time.perf_counter, time.process_time
    if op.argv is not None:
        err = io.StringIO()
        main = g.cli.main
        w0, c0 = clock(), cpu()
        try:
            with contextlib.redirect_stderr(err):
                rc = main(op.argv)
        except Exception as exc:  # an escaping exception fails the op
            out = Outcome(error=f"{type(exc).__name__}: {exc}")
        else:
            out = Outcome(rc=rc)
        wall, used = clock() - w0, cpu() - c0
        if out.rc == 0:
            out.data = op.out.read_bytes()
        elif out.rc is not None:
            out.data = err.getvalue().encode()
        return out, wall, used
    module, name, points = op.sweep
    fn = getattr(getattr(g, module), name)
    declared = (g.errors.GrauertError, ArithmeticError)
    values = []
    w0, c0 = clock(), cpu()
    try:
        for args in points:
            try:
                values.append(fn(*args))
            except declared as exc:
                values.append(type(exc).__name__)
    except Exception as exc:
        out = Outcome(error=f"{type(exc).__name__}: {exc}")
    else:
        out = Outcome(rc=0, values=values)
    wall, used = clock() - w0, cpu() - c0
    if out.values is not None:
        out.data = repr(values).encode()
    return out, wall, used


def check_common(op: Op, out: Outcome, res: CheckResult) -> bool:
    if out.error is not None:
        res.fail(op, f"raised {out.error}")
        return False
    if out.rc != 0:
        res.fail(op, f"exit code {out.rc}: {out.data[-300:]!r}")
        return False
    return True


def _classify_point(res: CheckResult, g, v) -> str:
    """'value', 'declared' or 'raw' for one sweep outcome; counts non-finite."""
    if isinstance(v, str):
        if issubclass(getattr(g.errors, v, type(None)), g.errors.GrauertError):
            return "declared"
        res.raw_arith += 1
        return "raw"
    if not math.isfinite(v):
        res.nonfinite += 1
    return "value"


def _check_sweep(op, out, res, g, rng, sample, ref_fn, label):
    """Oracle-check a seeded subsample of a sweep's points."""
    if not check_common(op, out, res):
        return
    points = op.sweep[2]
    kinds = [_classify_point(res, g, v) for v in out.values]
    for i in _subsample(rng, len(points), sample):
        if kinds[i] == "declared":
            res.declared += 1
            continue
        v = out.values[i]
        res.add(f"{label}{points[i]}", math.nan if kinds[i] == "raw" else v,
                ref_fn(*points[i]), DENSITY_TOL)


# -- workloads --------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, work: Path, seed: int, g):
        self.work = work
        self.seed = seed
        self.ops: list[Op] = []
        self.extra_ops = 0  # ops run once by the checks, outside the passes

    def out(self, name: str) -> Path:
        return self.work / name

    def check(self, outcomes: dict, g) -> CheckResult:
        raise NotImplementedError


class Suites(Workload):
    """The five bundled verify suites at the benchmark seed."""

    name = "suites"

    def __init__(self, work, seed, g):
        super().__init__(work, seed, g)
        for s in SUITES:
            out = self.out(f"verify-{s}.json")
            self.ops.append(Op(f"verify {s}", ["verify", "--suite", s, "--seed",
                                               str(seed), "--out", str(out)], out=out))

    def check(self, outcomes, g):
        res = CheckResult()
        reports = {}
        for op in self.ops:
            out = outcomes[op.name]
            if not check_common(op, out, res):
                continue
            rep = json.loads(out.data)
            suite = op.argv[2]
            if rep.get("suite") != suite or rep.get("seed") != self.seed or rep.get("pass") is not True:
                failing = [c["name"] for c in rep.get("checks", []) if not c.get("pass")]
                res.fail(op, f"report does not pass: {failing}")
                continue
            reports[suite] = {c["name"]: c["observed"] for c in rep["checks"]}
        self._oracle(reports, res, g)
        self._reference(res, g)
        return res

    def _oracle(self, reports, res, g):
        if "lemma52" in reports:
            r = reports["lemma52"]
            u, up, upp = oracle.u_jet(1.0)
            res.add("lemma52 u(1)", r["u(1)"], u, DENSITY_TOL)
            res.add("lemma52 u'(1)", r["u'(1)"], up, DENSITY_TOL)
            res.add("lemma52 u''(1)", r["u''(1)"], upp, DENSITY_TOL)
            res.add("lemma52 Kg(|z|=1)", r["Kg(|z|=1)"],
                    oracle.grauert_curvature(1.0, 0.0), DENSITY_TOL)
        if "thm12" not in reports and "thm13" not in reports:
            return
        # n = 1 family f_j = z - 1 - 1/j on grid_1d: G_j = gamma(|f_j|^2) + 1 and
        # the leaf curvature of X = 1 is that of gamma(|f_j|^2) + 1
        pts = [p[0] for p in g.verify.grid_1d().points(g.verify.family_1d().f0)]

        def shift(j):
            return (1.0 + 1.0 / j) if j else 1.0

        if "thm12" in reports:
            r = reports["thm12"]
            with oracle.mp.workdps(oracle.DPS):
                G = {j: [oracle.gamma(p - shift(j)) for p in pts] for j in (0, 1, 8, 16, 32, 64)}
                gap = {j: max(abs(a - b) for a, b in zip(G[j], G[0])) for j in (1, 8, 16, 32, 64)}
                res.add("thm12 gap(64)", r["gap(64) < gap(8)"], gap[64], GAP_TOL, False)
                res.add("thm12 gap(8)", r["gap(8) < gap(1)"], gap[8], GAP_TOL, False)
                res.add("thm12 gap(32)/gap(16)", r["first-order ratio gap(32)/gap(16)"],
                        gap[32] / gap[16], GAP_TOL, False)
                res.add("thm12 gap(64)/gap(1)", r["gap(64)/gap(1)"], gap[64] / gap[1],
                        GAP_TOL, False)
        if "thm13" in reports:
            r = reports["thm13"]
            with oracle.mp.workdps(oracle.DPS):
                K = {j: [oracle.shifted_line_curvature(p - shift(j)) for p in pts]
                     for j in (0, 1, 4, 64)}
                cg = {j: max(abs(a - b) for a, b in zip(K[j], K[0])) for j in (1, 4, 64)}
                res.add("thm13 cg(64)/cg(4)", r["curvature gap(64) < 0.1 gap(4)"],
                        cg[64] / cg[4], GAP_TOL, False)
                res.add("thm13 cg(64)/cg(1)", r["curvature gap(64)/gap(1)"],
                        cg[64] / cg[1], GAP_TOL, False)

    def _reference(self, res, g):
        """At the default verify seed every report matches the kept reference."""
        for s in SUITES:
            out = self.out(f"reference-{s}.json")
            op = Op(f"reference {s}", ["verify", "--suite", s, "--out", str(out)], out=out)
            o, _, _ = run_op(op, g)
            self.extra_ops += 1
            if not check_common(op, o, res):
                continue
            want = json.loads((BENCH_DIR / "reference" / f"{s}.json").read_text())
            why = _report_mismatch(json.loads(o.data), want)
            if why:
                res.fail(op, f"differs from bench/reference/{s}.json: {why}")


def _report_mismatch(got, want, path="") -> str | None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"keys differ at {path or '/'}"
        for k in sorted(want):
            why = _report_mismatch(got[k], want[k], f"{path}/{k}")
            if why:
                return why
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"length differs at {path}"
        for i, (a, b) in enumerate(zip(got, want)):
            why = _report_mismatch(a, b, f"{path}/{i}")
            if why:
                return why
        return None
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - want) <= REFERENCE_TOL * max(abs(got), abs(want)):
            return None
        return f"{path}: {got!r} vs {want!r}"
    return None if got == want else f"{path}: {got!r} vs {want!r}"


#: direction-sweep maps: the n = 2 polynomial z1 z2 - 1, an n = 2 quotient
#: whose denominator stays away from 0 on the sampling box, and an n = 3
#: polynomial
def _poly(n, terms):
    return {"n": n, "terms": [{"exp": list(e), "re": float(c), "im": 0.0} for e, c in terms]}


MAPS = {
    "poly2": _poly(2, [((1, 1), 1.0), ((0, 0), -1.0)]),
    "quot2": {
        "num": _poly(2, [((1, 1), 1.0), ((2, 0), 0.5), ((0, 0), -1.0)]),
        "den": _poly(2, [((0, 1), 1.0), ((0, 0), 2.5)]),
    },
    "poly3": _poly(3, [((1, 1, 0), 1.0), ((0, 1, 1), 1.0), ((0, 0, 2), 1.0), ((0, 0, 0), -1.0)]),
}
KPLUS_POINTS_PER_MAP = 3
KPLUS_SAMPLES = 256
CHECK_DIRECTIONS = 8
GRID = {"box": [[0.5, 2.5, -0.5, 0.5], [0.5, 2.5, -0.5, 0.5]], "resolution": 5, "delta": 0.3}
GRID_V = (1 + 0j, 0.5j)
GRID_ORACLE_ROWS = 8


def _eval_map(desc, z):
    """f(z) in double precision from a descriptor (input selection only)."""
    def poly(d):
        return sum(complex(t["re"], t["im"]) * math.prod(zi ** e for zi, e in zip(z, t["exp"]))
                   for t in d["terms"])
    if "num" in desc:
        return poly(desc["num"]) / poly(desc["den"])
    return poly(desc)


def _rand_complex(rng, scale):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


class DirectionSweep(Workload):
    """kplus at seeded points on three maps, plus one curvature-grid."""

    name = "direction-sweep"

    def __init__(self, work, seed, g):
        super().__init__(work, seed, g)
        rng = random.Random(f"direction-sweep/{seed}")
        self.points = {}
        for key, desc in MAPS.items():
            fpath = self.out(f"{key}.json")
            fpath.write_text(json.dumps(desc))
            n = 3 if key == "poly3" else 2
            pts = []
            while len(pts) < KPLUS_POINTS_PER_MAP:
                p = tuple(_rand_complex(rng, 1.2) for _ in range(n))
                if abs(_eval_map(desc, p)) >= 0.25:
                    pts.append(p)
            for i, p in enumerate(pts):
                out = self.out(f"kplus-{key}-{i}.json")
                argv = ["kplus", "--f", str(fpath), "--p", *map(fmt_complex, p),
                        "--samples", str(KPLUS_SAMPLES), "--seed", str(rng.randrange(2**31)),
                        "--out", str(out)]
                op = Op(f"kplus {key} #{i}", argv, out=out)
                self.points[op.name] = (key, p)
                self.ops.append(op)
        gpath = self.out("grid.json")
        gpath.write_text(json.dumps(GRID))
        out = self.out("curvature-grid.csv")
        self.grid_op = Op("curvature-grid poly2", ["curvature-grid", "--f", str(self.out("poly2.json")),
                                                   "--grid", str(gpath), "--V",
                                                   *map(fmt_complex, GRID_V), "--out", str(out)], out=out)
        self.ops.append(self.grid_op)

    def check(self, outcomes, g):
        res = CheckResult()
        rng = random.Random(f"direction-sweep-check/{self.seed}")
        for op in self.ops[:-1]:
            out = outcomes[op.name]
            if not check_common(op, out, res):
                continue
            key, p = self.points[op.name]
            rep = json.loads(out.data)
            kp = rep["k_plus"]
            V = [complex(a, b) for a, b in rep["direction"]]
            if not (math.isfinite(kp) and all(map(math.isfinite, (x for v in V for x in (v.real, v.imag))))):
                res.fail(op, f"non-finite k_plus {kp} or direction {V}")
                continue
            f = g.holomorphic.HoloMap.from_json(MAPS[key])
            best = -math.inf
            for _ in range(CHECK_DIRECTIONS):
                W = [_rand_complex(rng, 1.0) for _ in p]
                best = max(best, g.curvature.holo_sectional_curvature(f, p, W))
            if kp < best - 1e-12 * max(1.0, abs(best)):
                res.fail(op, f"k_plus {kp!r} below hsc {best!r} at a seeded direction")
            res.add(f"{op.name} k_plus", kp, oracle.holo_sectional_curvature(MAPS[key], p, V),
                    HSC_TOL, False)
        op = self.grid_op
        out = outcomes[op.name]
        if check_common(op, out, res):
            head, rows = _read_csv(out.data)
            f = g.holomorphic.HoloMap.from_json(MAPS["poly2"])
            want = g.divisors.CompactGrid.from_json(GRID).points(f)
            if head != ["re1", "re2", "im1", "im2", "K"] or len(rows) != len(want):
                res.fail(op, f"header {head} / {len(rows)} rows, expected {len(want)}")
            else:
                bad = _count_nonfinite(rows, [4])
                res.nonfinite += bad
                if bad:
                    res.fail(op, f"{bad} non-finite K rows")
                for i in _subsample(rng, len(rows), GRID_ORACLE_ROWS):
                    r = [float(x) for x in rows[i]]
                    p = (complex(r[0], r[2]), complex(r[1], r[3]))
                    res.add(f"grid row {i}", r[4],
                            oracle.holo_sectional_curvature(MAPS["poly2"], p, GRID_V), HSC_TOL, False)
        return res


#: documented domain of the profile: t in [T_MIN, T_MAX], |z| in [1e-140, 1e140]
T_MIN, T_MAX = 1e-280, 1e280
U_BANDS = [  # (label, t_min, t_max, points)
    ("README", 1e-6, 1e6, 200),
    ("low", T_MIN, 1e-6, 600),
    ("high", 1e6, T_MAX, 600),
    ("seam", 1 - 5e-3, 1 + 5e-3, 600),
]
#: kg-grid raises a raw OverflowError out of cli.main above |z| ~ 1e54 (an
#: escaping exception would fail the whole band); that part of the domain is
#: covered point by point by the K_g sweep below
KG_BANDS = [  # (label, r_min, r_max, angles, radii)
    ("README", 1e-6, 1e6, 16, 25),
    ("low", 1e-140, 1e-6, 4, 150),
    ("high", 1e6, 1e50, 4, 100),
    ("seam", 1 - 2.5e-3, 1 + 2.5e-3, 4, 150),
]
BAND_ORACLE_ROWS = 24
KG_SWEEP_POINTS, KG_SWEEP_ORACLE = 2000, 250
POWER_POINTS, POWER_ORACLE = 200, 40
LINE_STEPS, LINE_ORACLE = 140, 60


class ProfileScan(Workload):
    """The density layer over its whole documented domain and the t = 1 seam."""

    name = "profile-scan"

    def __init__(self, work, seed, g):
        super().__init__(work, seed, g)
        rng = random.Random(f"profile-scan/{seed}")
        for label, lo, hi, pts in U_BANDS:
            out = self.out(f"u-{label}.csv")
            self.ops.append(Op(f"u-table {label}", ["u-table", "--t-min", repr(lo), "--t-max", repr(hi),
                                                    "--points", str(pts), "--out", str(out)], out=out))
        for label, lo, hi, ang, rad in KG_BANDS:
            out = self.out(f"kg-{label}.csv")
            self.ops.append(Op(f"kg-grid {label}", ["kg-grid", "--rmin", repr(lo), "--rmax", repr(hi),
                                                    "--angles", str(ang), "--radii", str(rad),
                                                    "--out", str(out)], out=out))

        def polar(log10_r):
            return 10.0 ** log10_r * complex(math.cos(a := rng.uniform(0, 2 * math.pi)), math.sin(a))

        self.ops.append(Op("K_g sweep", sweep=("density", "grauert_curvature", [
            (polar(x),) for x in _stratified(rng, -140, 140, KG_SWEEP_POINTS)])))
        for k in range(1, 6):
            self.ops.append(Op(f"power_curvature k={k}", sweep=("density", "power_curvature", [
                (k, polar(x / k)) for x in _stratified(rng, -140, 140, POWER_POINTS)])))
        self.monomials = {}
        for k in (1, 2, 3):
            # z -> 0 along a seeded ray, |z| = 10^-(m/2): into the zero of order k
            name = f"line_curvature z^{k}"
            self.monomials[name] = k
            f = g.holomorphic.HoloMap.poly(1, {(k,): 1.0})
            self.ops.append(Op(name, sweep=("curvature", "line_curvature", [
                (f, polar(-m / 2)) for m in range(1, LINE_STEPS + 1)])))

    def check(self, outcomes, g):
        res = CheckResult()
        rng = random.Random(f"profile-scan-check/{self.seed}")
        for op in self.ops:
            out = outcomes[op.name]
            if op.argv is not None and op.argv[0] == "u-table":
                self._check_u(op, out, res, rng)
            elif op.argv is not None:
                self._check_kg(op, out, res, rng)
            elif op.sweep[1] == "grauert_curvature":
                _check_sweep(op, out, res, g, rng, KG_SWEEP_ORACLE,
                             lambda z: oracle.grauert_curvature(z.real, z.imag), "K_g")
            elif op.sweep[1] == "power_curvature":
                _check_sweep(op, out, res, g, rng, POWER_ORACLE, oracle.power_curvature, "K_k")
            else:
                k = self.monomials[op.name]
                _check_sweep(op, out, res, g, rng, LINE_ORACLE,
                             lambda f, z, k=k: oracle.monomial_line_curvature(k, z), f"K[z^{k}]")
        return res

    def _check_u(self, op, out, res, rng):
        if not check_common(op, out, res):
            return
        head, rows = _read_csv(out.data)
        pts = int(op.argv[6])
        if head != ["t", "u", "up", "upp"] or len(rows) != pts:
            res.fail(op, f"header {head} / {len(rows)} rows, expected {pts}")
            return
        res.nonfinite += _count_nonfinite(rows, [1, 2, 3])
        for i in _subsample(rng, len(rows), BAND_ORACLE_ROWS):
            t, u, up, upp = (float(x) for x in rows[i])
            ref = oracle.u_jet(t)
            for lab, v, r in (("u", u, ref[0]), ("u'", up, ref[1]), ("u''", upp, ref[2])):
                res.add(f"{lab}({t!r})", v, r, DENSITY_TOL)

    def _check_kg(self, op, out, res, rng):
        if not check_common(op, out, res):
            return
        head, rows = _read_csv(out.data)
        want = int(op.argv[6]) * int(op.argv[8])
        if head != ["re", "im", "Kg"] or len(rows) != want:
            res.fail(op, f"header {head} / {len(rows)} rows, expected {want}")
            return
        res.nonfinite += _count_nonfinite(rows, [2])
        for i in _subsample(rng, len(rows), BAND_ORACLE_ROWS):
            re, im, kg = (float(x) for x in rows[i])
            res.add(f"Kg({re!r},{im!r})", kg, oracle.grauert_curvature(re, im), DENSITY_TOL)


WORKLOADS = {w.name: w for w in (Suites, DirectionSweep, ProfileScan)}
