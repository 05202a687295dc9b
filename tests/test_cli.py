"""Tests for the command-line front-end: schemas, determinism, exit codes,
and the no-partial-artifacts contract."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grauertlab
from grauertlab.cli import FLOAT_FMT, emit_grid, main
from grauertlab.curvature import hsc
from grauertlab.divisors import DivisorFamily, curvature_gap, sup_metric_gap
from grauertlab.foliation import VectorField
from grauertlab.holomorphic import HoloMap
from grauertlab.verify import SUITES, grid_1d

#: verify reports at the default seed, kept with the benchmark; read only
REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"


def _dump(obj, path: Path) -> None:
    """Write ``obj`` as JSON to ``path``, closing the file."""
    path.write_text(json.dumps(obj))


def _load(path: Path):
    """The JSON object at ``path``, read with the file closed again."""
    return json.loads(path.read_text())


@pytest.fixture
def workdir(tmp_path):
    # z1 z2 - 1, z - 1, the constant field 1 and verify.grid_1d()
    _dump({"n": 2, "terms": [{"exp": [0, 0], "re": -1.0, "im": 0.0},
                             {"exp": [1, 1], "re": 1.0, "im": 0.0}]}, tmp_path / "f2.json")
    _dump({"n": 1, "terms": [{"exp": [0], "re": -1.0, "im": 0.0},
                             {"exp": [1], "re": 1.0, "im": 0.0}]}, tmp_path / "f1.json")
    _dump({"components": [{"n": 1, "terms": [{"exp": [0], "re": 1.0}]}]}, tmp_path / "X1.json")
    _dump({"box": [[-0.97, 3.03, -2.0, 2.0]], "resolution": 21, "delta": 0.4},
          tmp_path / "grid1.json")
    _dump(
        {
            "f0": {"n": 1, "terms": [{"exp": [1], "re": 1}, {"exp": [0], "re": -1}]},
            "fj": {
                "template": {
                    "terms": [
                        {"exp": [1], "re": 1},
                        {"exp": [0], "re": -1, "re_j": -1},
                    ]
                }
            },
            "J": [1, 8, 64],
        },
        tmp_path / "fam1.json",
    )
    return tmp_path


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _main_under_warning_error(argv):
    """Run ``grauertlab.cli.main(argv)`` in a fresh interpreter under -W error."""
    src = Path(grauertlab.__file__).resolve().parent.parent
    code = "import sys; from grauertlab.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-W", "error", "-c", code, *argv],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)


def test_u_table_round_trip(workdir):
    out = workdir / "u.csv"
    assert main(["u-table", "--t-min", "0.5", "--t-max", "2", "--points", "7",
                 "--out", str(out)]) == 0
    rows = _rows(out)
    assert len(rows) == 7
    assert list(rows[0]) == ["t", "u", "up", "upp"]
    from grauertlab.density import u_jet

    for r in rows:
        j = u_jet(float(r["t"]))
        assert float(r["u"]) == j.u  # 17-digit printing round-trips exactly
        assert float(r["upp"]) == j.upp


def test_kg_grid_round_trip(workdir):
    out = workdir / "kg.csv"
    assert main(["kg-grid", "--rmin", "0.1", "--rmax", "10", "--angles", "4",
                 "--radii", "3", "--out", str(out)]) == 0
    rows = _rows(out)
    assert len(rows) == 12
    from grauertlab.density import grauert_curvature

    for r in rows:
        z = complex(float(r["re"]), float(r["im"]))
        assert float(r["Kg"]) == grauert_curvature(z)


def test_kg_grid_overflow_exit_2_no_output(workdir, capsys):
    # above |z| ~ 2.38e51 the t-domain M(t) overflows: DomainOverflow, exit 2
    out = workdir / "kg.csv"
    assert main(["kg-grid", "--rmin", "1e52", "--rmax", "1e60", "--angles", "2",
                 "--radii", "3", "--out", str(out)]) == 2
    assert "error: DomainOverflow: " in capsys.readouterr().err
    assert not out.exists()


def test_kg_grid_t_overflow_exit_2_no_output(workdir, capsys):
    # |z|^2 itself overflows above |z| ~ 1.34e154: a raw OverflowError escaped
    out = workdir / "kg.csv"
    assert main(["kg-grid", "--rmin", "1e155", "--rmax", "1e160", "--angles", "1",
                 "--radii", "2", "--out", str(out)]) == 2
    assert "error: DomainOverflow: |z|^2 overflows at z = " in capsys.readouterr().err
    assert not out.exists()


# M(t)'s terms overflow below |z| ~ 1e-39, and must do so without a warning
def test_kg_grid_near_zero_writes_without_warning(workdir):
    out = workdir / "kg.csv"
    assert main(["kg-grid", "--rmin", "1e-100", "--rmax", "1", "--angles", "2",
                 "--radii", "5", "--out", str(out)]) == 0
    assert len(_rows(out)) == 10


def test_determinism_byte_identical(workdir):
    a, b = workdir / "a.csv", workdir / "b.csv"
    args = ["kg-grid", "--rmin", "0.5", "--rmax", "2", "--angles", "8"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_metric_eval_json(workdir):
    out = workdir / "m.json"
    assert main(["metric-eval", "--f", str(workdir / "f2.json"), "--z", "2", "1",
                 "--V", "1", "0", "--out", str(out)]) == 0
    rep = _load(out)
    assert set(rep) == {"phi", "G", "detG"}
    assert abs(rep["phi"] - (2 * 1 + 1)) < 1e-12  # gamma(1)=2, |df(V)|^2=1
    assert abs(rep["detG"] - 11.0) < 1e-12


@pytest.mark.parametrize("v", ["1e-100", "1e-78", "1e77", "1e200"])
def test_hsc_tiny_and_huge_directions_exit_0(workdir, v):
    # |V|^4 underflows to a subnormal or 0 (1e-78, 1e-100), and phi^2 or
    # phi overflows (1e77, 1e200)
    out = workdir / "h.json"
    assert main(["hsc", "--f", str(workdir / "f2.json"), "--p", "2", "1",
                 "--V", v, v, "--out", str(out)]) == 0
    K = _load(out)["K"]
    ref = hsc(HoloMap.poly(2, {(1, 1): 1, (0, 0): -1}), (2, 1), (1, 1))
    assert abs(K - ref) < 1e-15 * abs(ref)


def test_curvature_grid_tiny_direction_matches_unit(workdir):
    # |V|^4 underflows to 0 at V = 1e-100
    outs = [workdir / "a.csv", workdir / "b.csv"]
    for v, out in zip(["1e-100", "1"], outs):
        assert main(["curvature-grid", "--f", str(workdir / "f1.json"), "--grid",
                     str(workdir / "grid1.json"), "--V", v, "--out", str(out)]) == 0
    tiny, unit = (_rows(out) for out in outs)
    assert len(tiny) == len(unit) > 0
    for a, b in zip(tiny, unit):
        assert abs(float(a["K"]) - float(b["K"])) <= 1e-15 * abs(float(b["K"]))


def test_metric_eval_overflow_exit_2_no_output(workdir, capsys):
    # phi overflows: no Infinity is written
    out = workdir / "m.json"
    assert main(["metric-eval", "--f", str(workdir / "f2.json"), "--z", "2", "1",
                 "--V", "1e200", "0", "--out", str(out)]) == 2
    assert not out.exists()
    assert "error: DomainOverflow: " in capsys.readouterr().err


def test_hsc_huge_direction_exit_0_under_warning_error(workdir):
    # df(z)(V) overflowed in np.dot at V = 1e308, a RuntimeWarning traceback
    # and exit 1 under -W error; V is scaled before phi is evaluated
    out = workdir / "h.json"
    r = _main_under_warning_error(["hsc", "--f", str(workdir / "f2.json"), "--p", "2", "1",
                                   "--V", "1e308", "1e308", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    K = hsc(HoloMap.poly(2, {(1, 1): 1, (0, 0): -1}), (2, 1), (1, 1))
    assert float.hex(_load(out)["K"]) == float.hex(K)


def test_gradient_overflow_is_solve_failure_under_warning_error(workdir):
    # |grad f|^2 overflows at a point off the divisor: the conditioning test
    # runs before the a a* block, whose product raised "overflow encountered
    # in multiply" under -W error
    _dump({"n": 2, "terms": [{"exp": [0, 1], "re": -1e160}, {"exp": [1, 0], "re": 1e160}]},
          workdir / "fbig.json")
    r = _main_under_warning_error(["hsc", "--f", str(workdir / "fbig.json"),
                                   "--p", "0", "1e-30", "--V", "1", "0"])
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert r.stderr.startswith("error: SolveFailure: metric conditioning inf ")


@pytest.mark.parametrize("z, V", [(["2", "1"], ["1e308", "1e308"]),
                                  (["2+1j", "1"], ["1e200+1e200j", "1e200"])])
def test_metric_eval_huge_direction_exit_2_no_output(workdir, capsys, z, V):
    # |V|^2 overflows: np.dot warned (exit 1 under the warning rule) or
    # "phi": NaN was written with exit 0
    out = workdir / "m.json"
    assert main(["metric-eval", "--f", str(workdir / "f2.json"), "--z", *z,
                 "--V", *V, "--out", str(out)]) == 2
    assert not out.exists()
    assert "error: DomainOverflow: phi(z, V)" in capsys.readouterr().err


def test_metric_eval_det_overflow_exit_2_no_output(workdir, capsys):
    # 1 + gamma |grad f|^2 overflows: "detG": Infinity was written with exit 0
    _dump({"n": 2, "terms": [{"exp": [0, 1], "re": -1e160}, {"exp": [1, 0], "re": 1e160}]},
          workdir / "fbig.json")
    out = workdir / "m.json"
    assert main(["metric-eval", "--f", str(workdir / "fbig.json"), "--z", "0", "1e-30",
                 "--V", "0", "0", "--out", str(out)]) == 2
    assert not out.exists()
    assert "error: DomainOverflow: det G" in capsys.readouterr().err


def test_metric_eval_finite_g_up_to_det_limit_under_warning_error(workdir):
    # det G is 1.2e308; G was written as [[Infinity]] with exit 0, after an
    # "overflow encountered in add" from its symmetrization
    _dump({"n": 1, "terms": [{"exp": [1], "re": 7.75e153}]}, workdir / "fb.json")
    out = workdir / "m.json"
    r = _main_under_warning_error(["metric-eval", "--f", str(workdir / "fb.json"), "--z",
                                   repr(1 / 7.75e153), "--V", "1", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    rep = _load(out)
    assert rep["G"] == [[[rep["detG"], 0.0]]] and 1.2e308 < rep["detG"] < math.inf


def test_hsc_and_kplus(workdir):
    out = workdir / "h.json"
    assert main(["hsc", "--f", str(workdir / "f2.json"), "--p", "2", "1",
                 "--V", "1", "0", "--out", str(out)]) == 0
    assert "K" in _load(out)
    out2 = workdir / "k.json"
    assert main(["kplus", "--f", str(workdir / "f2.json"), "--p", "2", "1",
                 "--samples", "64", "--out", str(out2)]) == 0
    rep = _load(out2)
    assert set(rep) == {"k_plus", "direction", "samples", "seed"}


def test_leaf_approach_csv(workdir):
    out = workdir / "ap.csv"
    assert main(["leaf-approach", "--f", str(workdir / "f2.json"),
                 "--base", "1", "1", "--direction", "1", "0",
                 "--start", "0.1", "--steps", "5", "--out", str(out)]) == 0
    rows = _rows(out)
    assert list(rows[0]) == ["m", "re1", "re2", "im1", "im2", "K", "gap"]
    gaps = [float(r["gap"]) for r in rows]
    assert gaps[-1] < gaps[0]


def test_converge_metric_csv(workdir):
    out = workdir / "cm.csv"
    assert main(["converge-metric", "--family", str(workdir / "fam1.json"),
                 "--grid", str(workdir / "grid1.json"), "--out", str(out)]) == 0
    rows = _rows(out)
    assert [r["j"] for r in rows] == ["1", "8", "64"]
    assert float(rows[-1]["gap"]) < 1e-2 * float(rows[0]["gap"])
    assert float(rows[0]["delta"]) == 0.4


@pytest.mark.parametrize("command", ["converge-metric", "converge-curvature"])
def test_converge_rows_match_fresh_family_gaps(workdir, command):
    # one call serves every j, sharing its f_0 side; each row, a repeated
    # index too, must still hold the bits of a one-j gap on a fresh family
    fam_json = _load(workdir / "fam1.json")
    fam_json["J"] = [1, 2, 4, 8, 16, 64, 64]
    _dump(fam_json, workdir / "fam6.json")
    out = workdir / "c.csv"
    argv = [command, "--family", str(workdir / "fam6.json"),
            "--grid", str(workdir / "grid1.json"), "--out", str(out)]
    if command == "converge-curvature":
        argv += ["--X", str(workdir / "X1.json")]
    assert main(argv) == 0
    grid, X = grid_1d(), VectorField.constant([1.0])
    gaps = []
    for j in fam_json["J"]:
        fam = DivisorFamily.from_json(fam_json)
        gaps += (sup_metric_gap(fam, grid, j) if command == "converge-metric"
                 else curvature_gap(fam, X, grid, j))
    rows = _rows(out)
    assert [r["j"] for r in rows] == [str(j) for j in fam_json["J"]]
    assert [r["gap"] for r in rows] == [FLOAT_FMT % gap for gap in gaps]
    assert [float(r["gap"]) for r in rows] == gaps  # %.17g round-trips


@pytest.mark.parametrize("warnings_as_errors", [False, True])
def test_converge_metric_gradient_overflow_exit_2_no_output(workdir, capsys,
                                                            warnings_as_errors):
    # |grad f_0|^2 = 1e320 overflows at every grid point: G_0 was NaN, with a
    # RuntimeWarning (exit 1 under -W error) or "SVD did not converge"
    _dump({"f0": {"n": 1, "terms": [{"exp": [1], "re": 1e160}]},
           "fj": {"template": {"terms": [{"exp": [1], "re": 1e160},
                                         {"exp": [0], "re_j": 1e130}]}},
           "J": [1]}, workdir / "fbig.json")
    _dump({"box": [[1e-23, 3e-23, -1e-23, 1e-23]], "resolution": 3, "delta": 1e-6},
          workdir / "gbig.json")
    out = workdir / "cm.csv"
    argv = ["converge-metric", "--family", str(workdir / "fbig.json"),
            "--grid", str(workdir / "gbig.json"), "--out", str(out)]
    if warnings_as_errors:
        proc = _main_under_warning_error(argv)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert "error: DomainOverflow: det G" in err


def test_liminf_report(workdir):
    deep = _load(workdir / "fam1.json")
    deep["J"] = [10_000_000, 100_000_000]
    _dump(deep, workdir / "deep.json")
    out = workdir / "li.json"
    assert main(["liminf", "--family", str(workdir / "deep.json"), "--p", "3",
                 "--V", "1", "--tail", "10000000", "--out", str(out)]) == 0
    rep = _load(out)
    assert set(rep) == {"K0", "Kj_min", "margin"}
    assert rep["margin"] >= -1e-6


def test_verify_exit_codes(workdir):
    out = workdir / "v.json"
    assert main(["verify", "--suite", "lemma52", "--out", str(out)]) == 0
    rep = _load(out)
    assert rep["pass"] and rep["suite"] == "lemma52"
    assert all(
        set(c) == {"name", "expected", "observed", "tolerance", "pass"}
        for c in rep["checks"]
    )


def test_malformed_input_exit_2_no_partial_output(workdir):
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    out = workdir / "never.csv"
    code = main(["converge-metric", "--family", str(bad),
                 "--grid", str(workdir / "grid1.json"), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    # and no stray temp files left behind
    assert not [p for p in os.listdir(workdir) if p.startswith(".grauertlab-")]


def test_family_base_not_f0_exit_2_no_output(workdir, capsys):
    obj = _load(workdir / "fam1.json")
    obj["fj"]["template"]["terms"][1]["re"] = 5
    _dump(obj, workdir / "fam_bad.json")
    out = workdir / "never.csv"
    code = main(["converge-metric", "--family", str(workdir / "fam_bad.json"),
                 "--grid", str(workdir / "grid1.json"), "--out", str(out)])
    assert code == 2
    assert "bad family descriptor" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_keys_rejected(workdir):
    obj = _load(workdir / "grid1.json")
    obj["extra"] = 1
    _dump(obj, workdir / "grid_bad.json")
    code = main(["converge-metric", "--family", str(workdir / "fam1.json"),
                 "--grid", str(workdir / "grid_bad.json")])
    assert code == 2


def _edit_term(i, old, new, value=None):
    """Descriptor edit: term ``i`` of a map, or of a family's template, loses
    key ``old`` and gets key ``new``, with ``old``'s value or with ``value``."""
    def edit(obj):
        terms = obj["fj"]["template"]["terms"] if "fj" in obj else obj["terms"]
        v = terms[i].pop(old)
        terms[i][new] = v if value is None else value
        return obj
    return edit


#: the descriptor a defect is written into, the edit that makes it, and the
#: wording of the error, which must name the defect
SCHEMA_DEFECTS = {
    "map is a number": ("f1.json", lambda obj: 3, "must be a JSON object"),
    "map is null": ("f1.json", lambda obj: None, "must be a JSON object"),
    # dropped: hsc would read z, not z - 1
    "map term key": ("f1.json", _edit_term(1, "re", "Re"), "unknown keys"),
    # dropped: every gap would read 0
    "template term key": ("fam1.json", _edit_term(1, "re_j", "rej"), "unknown keys"),
    # read as 1 and as 3
    "exponent 1.7": ("f1.json", _edit_term(0, "exp", "exp", [1.7]), "is not an integer"),
    "resolution 3.9": ("grid1.json", lambda obj: {**obj, "resolution": 3.9},
                       "is not an integer"),
    # JSON Infinity (or 1e400): int() raised a raw OverflowError
    "n inf": ("f1.json", lambda obj: {**obj, "n": math.inf}, "is not an integer"),
    "exponent inf": ("f1.json", _edit_term(0, "exp", "exp", [math.inf]), "is not an integer"),
    "resolution inf": ("grid1.json", lambda obj: {**obj, "resolution": math.inf},
                       "is not an integer"),
    "J inf": ("fam1.json", lambda obj: {**obj, "J": [1, math.inf]}, "is not an integer"),
    # booleans and strings in number fields, which int() and float() read as
    # numbers (true as 1); resolution true was rejected only for lying below 2
    "n true": ("f1.json", lambda obj: {**obj, "n": True}, "is not an integer"),
    "exponent true": ("f1.json", _edit_term(1, "exp", "exp", [True]), "is not an integer"),
    "re true": ("f1.json", _edit_term(1, "re", "re", True), "is not a number"),
    "re string": ("f1.json", _edit_term(1, "re", "re", "1.0"), "is not a number"),
    "im true": ("f1.json", _edit_term(1, "im", "im", True), "is not a number"),
    "re_j string": ("fam1.json", _edit_term(1, "re_j", "re_j", "-1"), "is not a number"),
    "resolution true": ("grid1.json", lambda obj: {**obj, "resolution": True},
                        "is not an integer"),
    "delta true": ("grid1.json", lambda obj: {**obj, "delta": True}, "is not a number"),
    # an integer literal beyond the largest double: float() raised OverflowError
    "delta 10^400": ("grid1.json", lambda obj: {**obj, "delta": 10**400}, "is not a number"),
    "box string": ("grid1.json", lambda obj: {**obj, "box": [[str(v) for v in obj["box"][0]]]},
                   "is not a number"),
    "J true": ("fam1.json", lambda obj: {**obj, "J": [True, 8, 64]}, "is not an integer"),
    # JSON Infinity and NaN in the grid: np.linspace warned on an infinite
    # bound, and every other one emptied the grid ("grid is empty after
    # divisor exclusion"), a message that named neither field nor descriptor
    "box Infinity": ("grid1.json", lambda obj: {**obj, "box": [[-0.97, math.inf, -2.0, 2.0]]},
                     "grid box bounds must be finite"),
    "box NaN": ("grid1.json", lambda obj: {**obj, "box": [[-0.97, 3.03, math.nan, 2.0]]},
                "grid box bounds must be finite"),
    "delta Infinity": ("grid1.json", lambda obj: {**obj, "delta": math.inf},
                       "delta must be finite"),
    "delta NaN": ("grid1.json", lambda obj: {**obj, "delta": math.nan}, "delta must be finite"),
}


@pytest.mark.parametrize("defect", sorted(SCHEMA_DEFECTS))
def test_descriptor_schema_defect_exit_2_no_output(workdir, capsys, defect):
    name, edit, wording = SCHEMA_DEFECTS[defect]
    bad = workdir / "bad.json"
    _dump(edit(_load(workdir / name)), bad)
    if name == "f1.json":
        argv = ["hsc", "--f", str(bad), "--p", "3", "--V", "1"]
    else:
        files = {"fam1.json": workdir / "fam1.json", "grid1.json": workdir / "grid1.json",
                 name: bad}
        argv = ["converge-metric", "--family", str(files["fam1.json"]),
                "--grid", str(files["grid1.json"])]
    out = workdir / "never.out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "descriptor" in err and wording in err
    assert not out.exists()


@pytest.mark.parametrize("argv, wording", [
    (["u-table", "--t-min", "1", "--t-max", "inf", "--points", "3"], "0 < t-min < t-max"),
    (["kg-grid", "--rmin", "1", "--rmax", "inf", "--angles", "1", "--radii", "3"],
     "0 < rmin < rmax"),
], ids=["u-table", "kg-grid"])
def test_infinite_upper_bound_exit_2_no_output(workdir, capsys, argv, wording):
    # refused before np.geomspace warns on the infinite bound
    out = workdir / "never.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert wording in capsys.readouterr().err
    assert not out.exists()


def test_domain_error_exit_2(workdir, capsys):
    # point on the divisor surfaces the offending point, exit 2
    code = main(["hsc", "--f", str(workdir / "f2.json"), "--p", "1", "1",
                 "--V", "1", "0"])
    assert code == 2
    assert "OnDivisor" in capsys.readouterr().err


def test_metric_eval_gamma_overflow_exit_2_no_output(workdir, capsys):
    # gamma(|f|^2) overflows at z = 1e-80 on f = z: exit 2, no NaN written
    _dump({"n": 1, "terms": [{"exp": [1], "re": 1}]}, workdir / "fz.json")
    out = workdir / "m.json"
    code = main(["metric-eval", "--f", str(workdir / "fz.json"), "--z", "1e-80",
                 "--V", "1", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "OnDivisor" in capsys.readouterr().err


def test_hsc_gamma_overflow_exit_2_no_output(workdir, capsys):
    # gamma(|f|^2) overflows at p = (1e-100, 0) on f = z1 + z2: exit 2 with
    # OnDivisor, as metric-eval gives, not a conditioning failure
    _dump({"n": 2, "terms": [{"exp": [0, 1], "re": 1}, {"exp": [1, 0], "re": 1}]},
          workdir / "fsum.json")
    out = workdir / "k.json"
    code = main(["hsc", "--f", str(workdir / "fsum.json"), "--p", "1e-100", "0",
                 "--V", "1", "0", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "OnDivisor" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["1e-40", "1e-60"])
def test_leaf_curvature_gamma_overflow_exit_2_no_output(workdir, capsys, p):
    # f = z: gamma's 2-jet overflows; "K": -Infinity was written at 1e-40 and
    # a raw OverflowError escaped at 1e-60
    _dump({"n": 1, "terms": [{"exp": [1], "re": 1}]}, workdir / "fz.json")
    out = workdir / "K.json"
    code = main(["leaf-curvature", "--f", str(workdir / "fz.json"),
                 "--X", str(workdir / "X1.json"), "--p", p, "--out", str(out)])
    assert code == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "OnDivisor" in captured.err


@pytest.mark.parametrize("p", ["1e-40", "1e-80", "1e-120"])
def test_leaf_curvature_gamma_overflow_exit_2_under_warning_error(workdir, p):
    # no outcome depends on the warning filter: under -W error the overflowing
    # gamma jet still gives OnDivisor and exit 2, not a RuntimeWarning
    # traceback and exit 1
    _dump({"n": 1, "terms": [{"exp": [1], "re": 1}]}, workdir / "fz.json")
    out = workdir / "K.json"
    r = _main_under_warning_error(["leaf-curvature", "--f", str(workdir / "fz.json"),
                                   "--X", str(workdir / "X1.json"), "--p", p,
                                   "--out", str(out)])
    assert r.returncode == 2, r.stderr
    assert r.stdout == "" and not out.exists()
    assert r.stderr.startswith("error: OnDivisor: ")


@pytest.mark.parametrize("p", ["inf", "1e200"])
def test_arithmetic_error_exit_2(workdir, capsys, p):
    # an overflowing point is an input error (exit 2), not a failed check,
    # and reaches the CLI as a GrauertError, not a raw OverflowError
    error = {"inf": "NonFiniteInput", "1e200": "DomainOverflow"}[p]
    code = main(["hsc", "--f", str(workdir / "f2.json"), "--p", p, "1",
                 "--V", "1", "0"])
    assert code == 2
    assert f"error: {error}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["hsc", "--f", "f2.json", "--p", "2", "1", "--V", "nan", "0"],
    ["metric-eval", "--f", "f2.json", "--z", "2", "1", "--V", "inf", "0"],
    ["curvature-grid", "--f", "f1.json", "--grid", "grid1.json", "--V", "nan"],
    ["liminf", "--family", "fam1.json", "--p", "3", "--V", "nan", "--tail", "8"],
])
def test_non_finite_direction_exit_2_no_output(workdir, capsys, argv):
    # a NaN or infinite direction is an input error: no NaN row, no file
    out = workdir / "never.out"
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert "NonFiniteInput" in capsys.readouterr().err


@pytest.mark.parametrize("argv, sizes", [
    (["hsc", "--f", "f2.json", "--p", "2", "1", "--V", "1"], (1, 2)),
    (["metric-eval", "--f", "f2.json", "--z", "2", "1", "--V", "1"], (1, 2)),
    (["curvature-grid", "--f", "f1.json", "--grid", "grid1.json", "--V", "1", "0"], (2, 1)),
    (["liminf", "--family", "fam1.json", "--p", "3", "--V", "1", "0", "--tail", "8"], (2, 1)),
])
def test_direction_of_wrong_length_exit_2_no_output(workdir, capsys, argv, sizes):
    # an input error worded like a wrong-length point, not numpy's text
    out = workdir / "never.out"
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    got, want = sizes
    assert capsys.readouterr().err == (
        f"error: direction has {got} coordinates, map expects {want}\n")


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_matches_reference_report(workdir, suite):
    # reports at the default seed are byte-identical to the kept references
    out = workdir / f"{suite}.json"
    assert main(["verify", "--suite", suite, "--out", str(out)]) == 0
    assert out.read_bytes() == (REFERENCE / f"{suite}.json").read_bytes()


def test_negative_coordinates_in_exponent_and_complex_form(workdir):
    f = str(workdir / "f2.json")
    outs = []
    for tok in ("-1e-3", "-0.001"):
        out = workdir / f"h{tok}.json"
        assert main(["hsc", "--f", f, "--p", "2", tok, "--V", "1", "0",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    out = workdir / "c.json"
    assert main(["hsc", "--f", f, "--p", "-1+2j", "-2j", "--V", "-.5", "-1e-3j",
                 "--out", str(out)]) == 0
    K = hsc(HoloMap.poly(2, {(1, 1): 1, (0, 0): -1}), (-1 + 2j, -2j), (-0.5, -1e-3j))
    assert _load(out) == {"K": K}
    out = workdir / "m.json"
    assert main(["metric-eval", "--f", f, "--z", "-1e-3", "-1+2j", "--V", "1", "-2j",
                 "--out", str(out)]) == 0


def test_import_leaves_scipy_unloaded():
    # scipy.stats is imported on the first direction sample, not at import
    src = Path(grauertlab.__file__).resolve().parent.parent
    code = "import sys, grauertlab.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                       text=True, timeout=120, check=True)
    assert r.stdout.strip() == "False"


def test_import_grauertlab_loads_no_submodule_and_no_numpy():
    # the package holds only __version__: every name is imported from the
    # module that defines it, so importing the package loads none of them
    tomllib = pytest.importorskip("tomllib")
    src = Path(grauertlab.__file__).resolve().parent.parent
    code = ("import json, sys, grauertlab; print(json.dumps([sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'numpy' or m.startswith('grauertlab.')), "
            "grauertlab.__version__]))")
    r = subprocess.run([sys.executable, "-W", "error", "-c", code],
                       env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                       text=True, timeout=120, check=True)
    with open(src.parent / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert json.loads(r.stdout) == [[], version]


def test_leaf_approach_ratio_overflow_exit_2_no_output(workdir, capsys):
    # ratio^m overflows a Python float at m = 31: a raw OverflowError escaped
    _dump({"n": 1, "terms": [{"exp": [1], "re": 1}]}, workdir / "fz.json")
    out = workdir / "ap.csv"
    assert main(["leaf-approach", "--f", str(workdir / "fz.json"), "--base", "0",
                 "--direction", "1", "--ratio", "1e10", "--steps", "40",
                 "--out", str(out)]) == 2
    assert "error: DomainOverflow: path point m = 31 overflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_leaf_approach_without_steps_exit_2_no_output(workdir, capsys, steps):
    # a path of no points wrote a CSV of its header alone, with exit 0
    out = workdir / "ap.csv"
    assert main(["leaf-approach", "--f", str(workdir / "f1.json"), "--base", "1",
                 "--direction", "1", "--steps", steps, "--out", str(out)]) == 2
    assert f"error: need steps >= 1, not {steps}" in capsys.readouterr().err
    assert not out.exists()


def _csv_writer_grid(rows, schema) -> str:
    """A grid as csv.writer wrote it, each float cell formatted FLOAT_FMT."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(schema)
    for row in rows:
        w.writerow([FLOAT_FMT % float(x) if isinstance(x, float) else x for x in row])
    return buf.getvalue()


_EDGE_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308]
_FLOAT_CELLS = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_COLUMN_CELLS = {
    "float": _FLOAT_CELLS,
    "float64": _FLOAT_CELLS.map(np.float64),
    "int": st.integers(),
    "mixed": st.one_of(_FLOAT_CELLS, st.integers()),
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_emit_grid_bytes_match_csv_writer(data):
    kinds = data.draw(st.lists(st.sampled_from(sorted(_COLUMN_CELLS)), min_size=1, max_size=6))
    rows = data.draw(st.lists(st.tuples(*(_COLUMN_CELLS[k] for k in kinds)), max_size=8))
    schema = [f"c{i}" for i in range(len(kinds))]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        emit_grid(rows, schema, None)
    assert buf.getvalue() == _csv_writer_grid(rows, schema)


@pytest.mark.parametrize("cell", ["1.5", True, False, None])
def test_emit_grid_refuses_other_cells(cell, capsys):
    with pytest.raises(ValueError, match="floats or ints, not "):
        emit_grid([(1.0, 2), (1.0, cell)], ["a", "b"], None)
    assert capsys.readouterr().out == ""


def _call(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_parser_reused_within_a_process(workdir, monkeypatch):
    # main builds its parser once per process; each call writes what it
    # writes as the first call of a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")
    f2 = str(workdir / "f2.json")
    calls = [
        ["u-table", "--t-min", "0.5", "--t-max", "2", "--points", "5"],
        ["u-table", "--t-min", "0.5"],
        ["--help"],
        ["kplus", "--f", f2, "--p", "2", "1", "--samples", "64", "--seed", "5"],
        ["kplus", "--f", f2, "--p", "2", "1"],
    ]
    src = Path(grauertlab.__file__).resolve().parent.parent
    code = "import sys; from grauertlab.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                               text=True, timeout=120,
                               env={**os.environ, "PYTHONPATH": str(src)})
        assert _call(argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [_call(argv)[0] for argv in calls] == [0, 2, 0, 0, 0]
    assert json.loads(_call(calls[-1])[1])["samples"] == 256
