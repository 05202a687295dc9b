"""Exact-count self-test of the tracer's coverage.

Checks that the wrappers see every call path: imported names, aliases,
dict-held suites and ``HoloMap.__call__``.  The traced run calls ``run``;
it also runs on its own from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path


def run(g) -> list[str]:
    """Failures, empty when every count matches; leaves no wrapper installed."""
    from tracer import Tracer

    fails = []

    def expect(what, got, want):
        if got != want:
            fails.append(f"{what}: {got} != {want}")

    fam, grid = g.verify.family_1d(), g.verify.grid_1d()
    npts = len(grid.points(fam.f0))
    tr = Tracer()
    tr.install()
    try:
        tr.reset()
        g.divisors.sup_metric_gap(fam, grid, 1)
        expect("grid_1d points", npts, 431)
        expect("metric.metric_matrix.calls", tr.calls["metric.metric_matrix"], 862)
        expect("divisors.metric_evals_per_point",
               tr.scoped["divisors.sup_metric_gap", "metric.metric_matrix"]
               / tr.grid_points_in_gap, 2.0)
        expect("density.gamma_jet.calls (via metric's import)",
               tr.calls["density.gamma_jet"], 862)
        if tr.calls["holomorphic.HoloMap.__call__"] < 862:
            fails.append("HoloMap.__call__ not traced on the class")

        tr.reset()
        X = g.foliation.VectorField.constant([1.0])
        g.divisors.curvature_gap(fam, X, grid, 1)
        expect("foliation.integrate_leaf.calls", tr.calls["foliation.integrate_leaf"], 862)

        tr.reset()
        f = g.holomorphic.HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})
        g.verify.k_plus(f, (1.5 + 0.2j, 0.3 - 0.4j))  # alias imported by verify
        hsc = tr.calls["curvature.holo_sectional_curvature"]
        expect("curvature.sup_sectional_curvature.calls",
               tr.calls["curvature.sup_sectional_curvature"], 1)
        expect("holomorphic.eval_jet.calls", tr.calls["holomorphic.eval_jet"], 2 * hsc)
        expect("curvature.jets_per_kplus",
               tr.scoped["curvature.sup_sectional_curvature", "metric.metric_matrix_jet"], 393)

        tr.reset()
        g.verify.run_suite("lemma52")  # suite functions live in verify.SUITES
        expect("verify.suite_lemma52.calls", tr.calls["verify.suite_lemma52"], 1)
    finally:
        tr.uninstall()
    if g.curvature.hsc is not g.curvature.holo_sectional_curvature or hasattr(
        g.holomorphic.HoloMap.__call__, "__wrapped__"
    ):
        fails.append("uninstall left a wrapper behind")
    return fails


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import run as bench_run

    g = bench_run.import_program(root)
    fails = run(g)
    for f in fails:
        print("FAIL", f)
    print("selftest:", "ok" if not fails else f"{len(fails)} failure(s)")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
