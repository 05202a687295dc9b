"""Acceptance suite: seven criteria with pinned tolerances.

Each test prints exactly one PASS/FAIL line (visible under ``pytest -s``)
and asserts the same condition, so the suite is green iff every criterion
holds.
"""

import time

import numpy as np

from grauertlab.curvature import hsc, k_plus, line_curvature
from grauertlab.density import grauert_curvature, power_curvature
from grauertlab.divisors import curvature_gap, liminf_check, sup_metric_gap
from grauertlab.foliation import (
    VectorField,
    divisor_approach,
    geometric_path,
    leaf_curvature,
)
from grauertlab.holomorphic import HoloMap, eval_jet
from grauertlab.metric import metric_matrix, metric_matrix_jet
from grauertlab.verify import LIMINF_TAIL, family_1d, family_2d, grid_1d, grid_2d
from oracles import critical_point_curvature, wirtinger_fd

SEED = 20260824


def _report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_1_power_pullback_identity():
    # |K_k(z) - K_g(z^k)| / |K_g(z^k)| < 1e-8, k in {1,2,3,5},
    # 200 log-spaced points with |z^k|^2 in [1e-12, 1e12]; runtime < 1 s
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for k in (1, 2, 3, 5):
        for t in np.logspace(-12, 12, 50):  # t = |z^k|^2
            r = t ** (1.0 / (2 * k))
            z = r * np.exp(2j * np.pi * rng.random())
            kg = grauert_curvature(z**k)
            worst = max(worst, abs(power_curvature(k, z) - kg) / abs(kg))
    elapsed = time.time() - t0
    _report(1, "power-pullback identity", worst < 1e-8 and elapsed < 1.0)


def test_criterion_2_grauert_limits():
    # non-positivity on the full grid; |Kg + 4| < 0.2 at |z| = 1e-10 with
    # monotone gap decrease; |Kg| < 0.2 at |z| = 1e10 trending to 0
    sign_ok = all(
        grauert_curvature(r * np.exp(2j * np.pi * q / 16)) <= 1e-10
        for r in np.logspace(-12, 12, 49)
        for q in range(16)
    )
    gaps = [abs(grauert_curvature(10.0**-m) + 4.0) for m in (4, 6, 8, 10)]
    near_ok = all(b < a for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 0.2
    far = [abs(grauert_curvature(10.0**m)) for m in (8, 9, 10)]
    far_ok = all(b < a for a, b in zip(far, far[1:])) and far[-1] < 0.2
    _report(2, "Grauert curvature limits", sign_ok and near_ok and far_ok)


def test_criterion_3_derived_values():
    # Kg(|z|=1) = -1/12 within 1e-9; z^2 + c with |c|^2 = 1 gives -16
    ok1 = abs(grauert_curvature(1.0) + 1.0 / 12.0) < 1e-9
    f = HoloMap.poly(1, {(2,): 1, (0,): np.exp(0.3j)})
    ok2 = abs(line_curvature(f, 0.0) + 16.0) < 1e-9
    _report(3, "derived closed-form values", ok1 and ok2)


def test_criterion_4_one_variable_pullbacks():
    rng = np.random.default_rng(SEED)
    # 50 random polynomials of degree <= 5, 20 off-divisor points each
    sign_ok = True
    for _ in range(50):
        terms = {(d,): complex(*rng.normal(size=2)) for d in range(6)}
        f = HoloMap.poly(1, terms)
        done = 0
        while done < 20:
            z = complex(*rng.normal(size=2)) * 1.5
            if abs(f([z])) < 1e-3:
                continue
            sign_ok = sign_ok and line_curvature(f, z) <= 1e-8
            done += 1

    # constructed critical points: closed form vs tensor and leaf paths
    crit_ok = True
    for _ in range(5):
        p = complex(*rng.normal(size=2))
        b = complex(*rng.normal(size=2)) + 2.0
        g = complex(*rng.normal(size=2))
        # f(z) = b + (z - p)^2 (g + z): f'(p) = 0, f(p) = b != 0
        shift = HoloMap.poly(1, {(1,): 1, (0,): -p})
        f = HoloMap(
            shift.num * shift.num * HoloMap.poly(1, {(1,): 1, (0,): g}).num
            + HoloMap.constant(1, b).num
        )
        closed = critical_point_curvature(f, p)
        tensor = hsc(f, [p], [1.0])
        leaf = leaf_curvature(f, VectorField.constant([1.0]), [p])
        crit_ok = crit_ok and abs(closed - tensor) < 1e-8 and abs(closed - leaf) < 1e-8

    # approach sequences at zeros of order k in {1,2,3}
    appr_ok = True
    for k in (1, 2, 3):
        f = HoloMap.poly(1, {(k,): 1.0})
        gaps = [abs(line_curvature(f, 10.0**-m) + 4.0) for m in range(2, 10)]
        appr_ok = appr_ok and all(b < a for a, b in zip(gaps, gaps[1:]))
        appr_ok = appr_ok and gaps[-1] < 0.3  # |z_m| = 1e-9
    _report(4, "one-variable sign, critical points, -4 limit",
            sign_ok and crit_ok and appr_ok)


def test_criterion_5_sectional_curvature_signs():
    rng = np.random.default_rng(SEED)
    f = HoloMap.poly(2, {(1, 1): 1, (0, 0): -1})
    kernel_ok = True
    done = 0
    while done < 100:
        p = rng.normal(size=2) * 1.5 + 1j * rng.normal(size=2) * 1.5
        if abs(f(p)) < 0.05:
            continue
        g = eval_jet(f, p, 1).gradient()
        V = np.array([-g[1], g[0]])
        if np.linalg.norm(V) < 1e-8:
            continue
        kernel_ok = kernel_ok and hsc(f, p, V) <= 1e-8
        done += 1

    frank0 = HoloMap.poly(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    rank0_ok = k_plus(frank0, (0.0, 0.0), seed=SEED) <= 1e-6

    path = geometric_path((1.0, 1.0), (1.0, 0.0), start=0.1, steps=8)
    gaps = [r["gap"] for r in divisor_approach(f, (1.0, 1.0), path)]
    appr_ok = all(b < a for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 0.3
    _report(5, "kernel directions, rank-0 supremum, transverse -4 limit",
            kernel_ok and rank0_ok and appr_ok)


def test_criterion_6_divisor_convergence():
    fam1, g1 = family_1d(), grid_1d()
    fam2, g2 = family_2d(), grid_2d()
    X1 = VectorField.constant([1.0])
    X2 = VectorField.constant([1.0, 0.0])

    m_ok = (
        sup_metric_gap(fam1, g1, 64)[0] < 1e-2 * sup_metric_gap(fam1, g1, 1)[0]
        and sup_metric_gap(fam2, g2, 64)[0] < 1e-2 * sup_metric_gap(fam2, g2, 1)[0]
    )
    c_ok = (
        curvature_gap(fam1, X1, g1, 64)[0] < 1e-2 * curvature_gap(fam1, X1, g1, 1)[0]
        and curvature_gap(fam2, X2, g2, 64)[0] < 1e-2 * curvature_gap(fam2, X2, g2, 1)[0]
    )

    rng = np.random.default_rng(SEED)
    deep1, deep2 = family_1d(LIMINF_TAIL), family_2d(LIMINF_TAIL)
    li_ok = True
    for _ in range(10):
        r = 0.5 + 2.5 * rng.random()
        p = 1.0 + r * np.exp(2j * np.pi * rng.random())
        rep = liminf_check(deep1, [p], [1.0], LIMINF_TAIL[0])
        li_ok = li_ok and rep["margin"] >= -1e-6
    done = 0
    while done < 10:
        p = rng.normal(size=2) * 1.2 + 1j * rng.normal(size=2) * 1.2
        if abs(deep2.f0(p)) < 0.3:
            continue
        V = rng.normal(size=2) + 1j * rng.normal(size=2)
        rep = liminf_check(deep2, p, V, LIMINF_TAIL[0])
        li_ok = li_ok and rep["margin"] >= -1e-6
        done += 1
    _report(6, "divisor-family convergence and liminf", m_ok and c_ok and li_ok)


def test_criterion_7_oracle_coherence():
    rng = np.random.default_rng(SEED)

    # jets vs finite differences: 100 random cases, relative 1e-5
    jets_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 4))
        exps = [tuple(rng.integers(0, 6, size=n)) for _ in range(4)]
        f = HoloMap.poly(n, {e: complex(*rng.normal(size=2)) for e in exps})
        p = tuple(rng.normal(size=n) * 0.8 + 1j * rng.normal(size=n) * 0.8)
        jet = eval_jet(f, p, 1)
        i = int(rng.integers(n))

        def F_re(T, i=i):
            q = list(p)
            q[i] += T
            return f(q).real

        def F_im(T, i=i):
            q = list(p)
            q[i] += T
            return f(q).imag

        d_fd = wirtinger_fd(F_re, 0j).d + 1j * wirtinger_fd(F_im, 0j).d
        jets_ok = jets_ok and abs(d_fd - jet.d(i)) < 1e-5 * max(1.0, abs(jet.d(i)))

    # kahler_tensor vs gaussian_conformal in n = 1: 20 cases, 1e-8
    tensor_ok = True
    done = 0
    while done < 20:
        terms = {(d,): complex(*rng.normal(size=2)) for d in range(4)}
        f = HoloMap.poly(1, terms)
        z = complex(*rng.normal(size=2))
        if abs(f([z])) < 0.1:
            continue
        tensor_ok = tensor_ok and abs(hsc(f, [z], [1.0]) - line_curvature(f, z)) < 1e-8
        done += 1

    # leaf_curvature with constant field vs hsc: 20 cases, 1e-8
    # (one-variable cases, where the straight leaf is the whole space and
    # the series pipeline and the tensor pipeline are fully independent)
    leaf_ok = True
    done = 0
    while done < 20:
        terms = {(d,): complex(*rng.normal(size=2)) for d in range(4)}
        f = HoloMap.poly(1, terms)
        z = complex(*rng.normal(size=2))
        c = complex(*rng.normal(size=2))
        if abs(f([z])) < 0.1 or abs(c) < 0.1:
            continue
        K = leaf_curvature(f, VectorField.constant([c]), [z])
        leaf_ok = leaf_ok and abs(K - hsc(f, [z], [1.0])) < 1e-8
        done += 1

    # metric derivative blocks vs stencils, relative 1e-5
    blocks_ok = True
    done = 0
    while done < 5:
        exps = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
        f = HoloMap.poly(2, {e: complex(*rng.normal(size=2)) for e in exps})
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        if abs(f(z)) < 0.1:
            continue
        md = metric_matrix_jet(f, z)
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    def Gij_re(T, k=k, i=i, j=j):
                        q = list(z)
                        q[k] += T
                        return metric_matrix(f, q)[i, j].real

                    def Gij_im(T, k=k, i=i, j=j):
                        q = list(z)
                        q[k] += T
                        return metric_matrix(f, q)[i, j].imag

                    d_fd = wirtinger_fd(Gij_re, 0j).d + 1j * wirtinger_fd(Gij_im, 0j).d
                    blocks_ok = blocks_ok and abs(d_fd - md.dG[k][i, j]) < 1e-5 * max(
                        1.0, abs(md.dG[k][i, j])
                    )
        done += 1
    _report(7, "oracle coherence", jets_ok and tensor_ok and leaf_ok and blocks_ok)
