"""CLI front end: job configs, outputs, exit codes, reproducibility."""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dunkl_frft
from dunkl_frft import cli
from dunkl_frft.cli import main, parse_config, run
from dunkl_frft.errors import RangeError, UsageError
from dunkl_frft.polyengine import HermiteBasis
from dunkl_frft.specfun import Multiplicity


def read_csv(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        rows.append([float(v) for v in line.split(",")])
    return np.array(rows)


def test_transform_matches_classical_fourier(tmp_path):
    cfg = {
        "command": "transform",
        "mu": [0.0],
        "alpha": -math.pi / 2,
        "function": {"kind": "gaussian", "a": 0.5},
        "outputs": {"linspace": [-3, 3, 13]},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    code = main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    data = read_csv(tmp_path / "out" / "result.csv")
    got = data[:, 1] + 1j * data[:, 2]
    assert np.max(np.abs(got - np.exp(-data[:, 0] ** 2 / 2))) <= 1e-8
    resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
    assert resolved["command"] == "transform"
    assert "version" in resolved


def test_reproducible_outputs(tmp_path):
    cfg = {
        "command": "transform",
        "mu": [0.5],
        "alpha": math.pi / 3,
        "route": "spectral",
        "M": 8,
        "function": {
            "kind": "hermite_combo",
            "terms": [{"nu": [0], "re": 1.0}, {"nu": [3], "im": -0.5}],
        },
        "outputs": {"linspace": [-2, 2, 9]},
        "seed": 7,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert main(["--config", str(path), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "result.csv").read_bytes() == (
        tmp_path / "b" / "result.csv"
    ).read_bytes()


def test_spectral_route_honours_r(tmp_path):
    # D^a_{k,r} h_2 = r^2 e^{2ia} h_2: the spectral route uses the config's r
    alpha = math.pi / 3
    cfg = {
        "command": "transform",
        "mu": [0.5],
        "alpha": alpha,
        "route": "spectral",
        "r": 0.5,
        "M": 4,
        "function": {"kind": "hermite_combo", "terms": [{"nu": [2], "re": 1.0}]},
        "outputs": {"linspace": [-2, 2, 9]},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    data = read_csv(tmp_path / "out" / "result.csv")
    h2 = HermiteBasis(Multiplicity([0.5]), 4).function((2,))
    want = 0.25 * cmath.exp(2j * alpha) * h2(data[:, :1])
    assert np.max(np.abs(data[:, 1] + 1j * data[:, 2] - want)) <= 1e-10


def test_check_command_passes(tmp_path, capsys):
    cfg = {"command": "check", "mu": [0.5], "suite": "master_formula"}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_check_command_unknown_suite(tmp_path, capsys):
    cfg = {"command": "check", "mu": [0.5], "suite": "nope"}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "suite" in capsys.readouterr().err


def test_malformed_config_points_at_field(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "transform", "mu": "zero"}))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "'mu'" in capsys.readouterr().err

    path.write_text(json.dumps({"command": "transform", "mu": [0.5], "bogus": 1}))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "'bogus'" in capsys.readouterr().err

    path.write_text("{not json")
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2

    combo = {"kind": "hermite_combo", "terms": [{"nu": [0], "re": 1.0}]}
    cases = [
        ({"command": "hankel", "mu": [0.5], "order": 0.5}, "'function'"),
        ({"command": "projection", "mu": [0.5], "M": 4, "function": combo,
          "projections": [0, "two"]}, "'projections'"),
        ({"command": "transform", "mu": [0.5], "M": 4,
          "function": {"kind": "hermite_combo", "terms": [3]}}, "'function.terms'"),
        ({"command": "transform", "mu": [0.5], "M": 4,
          "function": {"kind": "hermite_combo", "terms": [{"re": 1.0}]}}, "'function.terms'"),
        ({"command": "transform", "mu": [0.5], "M": 4,
          "function": {"kind": "gauss_poly", "poly": {"dim": 1, "terms": [True]}}},
         "'function.poly'"),
        ({"command": "transform", "mu": [0.5], "M": 4, "function": combo,
          "outputs": {"linspace": [-1, 1]}}, "'outputs.linspace'"),
        ({"command": "transform", "mu": [0.5], "M": 4, "function": combo,
          "outputs": {"points": [[0.0], [1.0, 2.0]]}}, "'outputs.points'"),
        ({"command": "convergence", "mu": [0.5], "alpha": 1.0, "values": [0.5, "x"]}, "'values'"),
        ({"command": "transform", "mu": [], "function": combo}, "'mu'"),
        ({"command": "transform", "mu": [-0.5], "function": combo}, "'mu'"),
        ({"command": "transform", "mu": [0.5], "L": -1, "function": combo}, "'L'"),
        ({"command": "transform", "mu": [0.5], "n": 6, "function": combo}, "'n'"),
        ({"command": "transform", "mu": [0.5], "L": 1, "n": 8, "function": combo},
         "'L' and 'n'"),
        ({"command": "transform", "mu": [0.5], "r": 0, "function": combo}, "'r'"),
        ({"command": "transform", "mu": [0.5], "alpha": "inf", "function": combo}, "'alpha'"),
        ({"command": "transform", "mu": [0.5], "s_min": -1, "function": combo}, "'s_min'"),
        ({"command": "transform", "mu": [0.5], "s_min": 0, "function": combo}, "'s_min'"),
        ({"command": "transform", "mu": [0.5], "s_min": "nan", "function": combo}, "'s_min'"),
        ({"command": "transform", "mu": [0.5], "M": -1, "route": "spectral",
          "function": combo}, "'M'"),
        ({"command": "projection", "mu": [0.5], "M": 4, "q_nodes": 4, "function": combo},
         "'q_nodes'"),
        ({"command": "hankel", "mu": [0.5], "order": -1.0,
          "function": {"kind": "gaussian"}}, "'order'"),
        ({"command": "transform", "mu": [0.5], "M": 4, "route": "spectral",
          "function": combo, "outputs": {"points": [[math.nan]]}}, "'outputs.points'"),
        ({"command": "transform", "mu": [0.5], "M": 4, "route": "spectral",
          "function": combo, "outputs": {"points": [[math.inf]]}}, "'outputs.points'"),
        ({"command": "transform", "mu": [0.5], "function": combo,
          "outputs": {"points": [[0.0], [math.nan]]}}, "'outputs.points'"),
        ({"command": "transform", "mu": [0.5], "M": 4, "route": "spectral",
          "function": combo, "outputs": {"linspace": [-math.inf, 1.0, 5]}},
         "'outputs.linspace'"),
        ({"command": "kernel", "mu": [0.5], "M": 4, "route": "spectral",
          "outputs": {"pairs": [[0.5, math.nan]]}}, "'outputs.pairs'"),
        ({"command": "hankel", "mu": [0.5], "order": 0.5, "function": {"kind": "gaussian"},
          "outputs": {"radii": [1.0, math.nan]}}, "'outputs.radii'"),
        ({"command": "hankel", "mu": [0.5], "alpha": 1.0, "order": 0.5,
          "function": {"kind": "gaussian", "a": -0.5}}, "'function.a'"),
        ({"command": "hankel", "mu": [0.5], "alpha": 1.0, "order": 0.5,
          "function": {"kind": "gaussian", "a": 0}}, "'function.a'"),
        ({"command": "transform", "mu": [0.5], "alpha": 1.0,
          "function": {"kind": "gaussian", "a": -0.5}}, "'function.a'"),
        # numbers are never silently truncated, and booleans are not numbers
        ({"command": "basis", "mu": [0.5], "M": 2.7}, "'M'"),
        ({"command": "basis", "mu": [0.5], "M": True}, "'M'"),
        ({"command": "transform", "mu": [0.5], "n": 40.9, "function": combo}, "'n'"),
        ({"command": "transform", "mu": [0.5], "alpha": True, "function": combo}, "'alpha'"),
        ({"command": "transform", "mu": [0.5], "r": True, "function": combo}, "'r'"),
        ({"command": "transform", "mu": [True], "function": combo}, "'mu'"),
        ({"command": "projection", "mu": [0.5], "M": 4, "q_nodes": 64.5, "function": combo},
         "'q_nodes'"),
        ({"command": "projection", "mu": [0.5], "M": 4, "function": combo,
          "projections": [0, 1.5]}, "'projections'"),
        ({"command": "projection", "mu": [0.5], "M": 4, "function": combo,
          "projections": [True]}, "'projections'"),
        # degrees the 64-node rule aliases at M = 24 (only -40 < n < 64 is exact)
        *(({"command": "projection", "mu": [0.5], "alpha": 0.0, "function": combo,
            "projections": [3, n]}, "'projections'") for n in (64, -40, 67, 10**30)),
        ({"command": "resolvent", "mu": [0.5], "M": 4, "function": combo,
          "resolvent_lambda": [1.0, True]}, "'resolvent_lambda'"),
        ({"command": "transform", "mu": [0.5], "M": 4, "function": combo,
          "outputs": {"linspace": [-1, 1, 4.5]}}, "'outputs.linspace'"),
        ({"command": "transform", "mu": [0.5], "M": 4, "function": combo,
          "outputs": {"linspace": [-1, 1, True]}}, "'outputs.linspace'"),
        ({"command": "transform", "mu": [0.5], "M": 4,
          "function": {"kind": "hermite_combo", "terms": [{"nu": [1.5], "re": 1.0}]}},
         "'function.terms'"),
        ({"command": "check", "mu": [0.5], "suite": "basis", "seed": 7.5}, "'seed'"),
        ({"command": "hankel", "mu": [0.5], "alpha": 1.0, "order": 0.5,
          "function": {"kind": "laguerre_gaussian", "m": 1.5}}, "'function.m'"),
        ({"command": "hankel", "mu": [0.5], "alpha": 1.0, "order": 0.5,
          "function": {"kind": "laguerre_gaussian", "order": True}}, "'function.order'"),
        ({"command": "transform", "mu": [0.5], "M": 4,
          "function": {"kind": "gaussian", "a": True}}, "'function.a'"),
        ({"command": "transform", "mu": [0.5], "M": 4, "function": {"kind": "bessel"}},
         "'function.kind'"),
        ({"command": "transform", "mu": [0.5], "M": 4, "route": "spectral",
          "function": {"kind": "gauss_poly", "poly": {"dim": 1, "terms": [
              {"exp": [1.5], "re": "1"}]}}}, "'function.poly'"),
        ({"command": "transform", "mu": [0.5], "M": 4, "route": "spectral",
          "function": {"kind": "gauss_poly", "poly": {"dim": True, "terms": [
              {"exp": [1], "re": "1"}]}}}, "'function.poly'"),
        ({"command": "transform", "mu": [0.5], "M": 4, "route": "spectral",
          "function": {"kind": "gauss_poly", "poly": {"dim": 1.5, "terms": [
              {"exp": [1], "re": "1"}]}}}, "'function.poly'"),
        ({"command": "transform", "mu": [0.5], "M": 4, "route": "spectral",
          "function": {"kind": "gauss_poly", "poly": {"dim": 1, "terms": [
              {"exp": [True], "re": "1"}]}}}, "'function.poly'"),
        ({"command": "transform", "mu": [0.5], "M": 4, "route": "spectral",
          "function": {"kind": "gauss_poly", "poly": {"dim": 1, "terms": [
              {"exp": [1], "re": True}]}}}, "'function.poly'"),
        ({"command": "transform", "mu": [0.5], "M": 4, "route": "spectral",
          "function": {"kind": "gauss_poly", "poly": {"dim": 1, "terms": [
              {"exp": [1], "re": "1", "im": False}]}}}, "'function.poly'"),
        ({"command": "transform", "mu": [0.5], "M": 4, "function": combo,
          "outputs": {"points": [[0.5], [True]]}}, "'outputs.points'"),
        ({"command": "kernel", "mu": [0.5], "M": 4, "route": "spectral",
          "outputs": {"pairs": [[0.5, False]]}}, "'outputs.pairs'"),
        # the pair list is one (m, 2N) array: wrong widths and ragged lists are refused
        *(({"command": "kernel", "mu": [0.3, 0.7], "M": 4, "route": "spectral",
            "outputs": {"pairs": pairs}}, "'outputs.pairs'")
          for pairs in ([[0.5, 1.0, 2.0]], [[0.5, 1.0, 2.0, 3.0], [0.5, 1.0]],
                        [[0.5, 1.0, 2.0, 3.0], [0.5, 1.0, 2.0, 3.0, 4.0]], [0.5, 1.0, 2.0, 3.0],
                        [[[0.5, 1.0, 2.0, 3.0]]])),
        ({"command": "transform", "mu": [0.5], "L": 6.0, "n": 16, "function": {
            "kind": "samples", "values_re": [0.0] * 31 + [True]}}, "'function.values_re'"),
        # out-of-range values are refused by field, before any work is done
        ({"command": "hankel", "mu": [0.5], "alpha": 1.0, "order": 0.5,
          "function": {"kind": "gaussian"}, "outputs": {"radii": [1.0, -0.5]}},
         "'outputs.radii'"),
        ({"command": "resolvent", "mu": [0.5], "M": 4, "function": combo,
          "resolvent_lambda": [0.0, 1.0]}, "'resolvent_lambda'"),
        ({"command": "hankel", "mu": [0.5], "alpha": 1.0, "order": 0.5,
          "function": {"kind": "laguerre_gaussian", "m": -1}}, "'function.m'"),
        ({"command": "hankel", "mu": [0.5], "alpha": 1.0, "order": 0.5,
          "function": {"kind": "laguerre_gaussian", "order": -3}}, "'function.order'"),
        ({"command": "convergence", "mu": [0.5], "M": 4, "vary": "alpha", "values": [0.0],
          "function": combo}, "'values'"),
        ({"command": "convergence", "mu": [0.5], "alpha": 1.0, "values": [1.5]}, "'values'"),
        ({"command": "transform", "mu": [0.5], "alpha": 1.0,
          "function": {"kind": "gaussian", "a": "nan"}}, "'function.a'"),
        ({"command": "hankel", "mu": [0.5], "alpha": 1.0, "order": 0.5,
          "function": {"kind": "laguerre_gaussian", "m": 2, "order": "inf"}}, "'function.order'"),
        # non-finite numbers are refused by field, not carried into the rows
        ({"command": "transform", "mu": [0.5], "L": "nan",
          "function": {"kind": "gaussian"}, "outputs": [[0.5]]}, "'L'"),
        ({"command": "transform", "mu": [0.5], "L": "inf",
          "function": {"kind": "gaussian"}, "outputs": [[0.5]]}, "'L'"),
        ({"command": "transform", "mu": [0.5], "L": 1e300,
          "function": {"kind": "gaussian"}, "outputs": [[0.5]]}, "'L'"),
        ({"command": "kernel", "mu": [0.5], "L": "nan", "route": "spectral",
          "outputs": {"pairs": [[0.5, 1.0]]}}, "'L'"),
        ({"command": "transform", "mu": [0.5], "M": 4, "outputs": [[0.5]],
          "function": {"kind": "hermite_combo", "terms": [{"nu": [0], "re": "nan"}]}},
         "'function.terms'"),
        ({"command": "transform", "mu": [0.5], "M": 4, "outputs": [[0.5]],
          "function": {"kind": "hermite_combo", "terms": [{"nu": [1], "im": "inf"}]}},
         "'function.terms'"),
        ({"command": "transform", "mu": [0.5], "L": 6.0, "n": 16, "outputs": [[0.5]],
          "function": {"kind": "samples", "values_re": [0.0] * 31 + ["nan"]}},
         "'function.values_re'"),
        ({"command": "transform", "mu": [0.5], "L": 6.0, "n": 16, "outputs": [[0.5]],
          "function": {"kind": "samples", "values_re": [0.0] * 32,
                       "values_im": ["nan"] + [0.0] * 31}}, "'function.values_im'"),
        ({"command": "check", "mu": [0.5], "suite": "basis", "tol_scale": "nan"}, "'tol_scale'"),
        ({"command": "check", "mu": [0.5], "suite": "basis", "tol_scale": 0}, "'tol_scale'"),
        ({"command": "check", "mu": [0.5], "suite": "basis", "tol_scale": -1}, "'tol_scale'"),
    ]
    for cfg, field_name in cases:
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2, cfg
        assert field_name in capsys.readouterr().err


def test_integral_numbers_and_numeric_strings_accepted(tmp_path):
    # an integral float or a numeric string is the number it spells
    cfg = {"command": "transform", "mu": ["0.5"], "M": 4.0, "n": "40", "L": "8",
           "alpha": "1.0", "route": "spectral",
           "function": {"kind": "hermite_combo", "terms": [{"nu": [2.0], "re": "1.0"}]},
           "outputs": {"linspace": [-2, 2, 9.0]}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
    assert (resolved["M"], resolved["n"], resolved["L"], resolved["alpha"]) == (4, 40, 8.0, 1.0)
    assert type(resolved["M"]) is int and type(resolved["n"]) is int
    assert read_csv(tmp_path / "out" / "result.csv").shape == (9, 3)


@pytest.mark.parametrize("dim", [1, 2])
def test_complex_rows_equal_per_element_floats(dim):
    tiny = 5e-324
    values = np.array([-0.0 + 0.0j, complex(0.0, -0.0), tiny - tiny * 1j, 1e300 - 1e300j,
                       -2.5e-310 + 3.0j, 1.0 / 3.0 + math.pi * 1j], dtype=complex)
    axis = np.array([-0.0, 1e300, tiny, -tiny, 0.1, -7.25])
    points = np.stack([axis, axis[::-1]], axis=-1)[:, :dim]
    for m in (len(values), 1):
        pts, vals = points[:m], values[:m]
        ref = [[float(c) for c in pt] + [float(np.real(v)), float(np.imag(v))]
               for pt, v in zip(pts, vals)]
        rows = cli._complex_rows(pts, vals)
        cli._finite_rows(["x", "y", "re", "im"], rows, None)
        got = [row for block in cli._blocks(rows) for row in block]
        assert repr(got) == repr(ref)
        assert all(type(v) is float for row in got for v in row)


def test_huge_finite_output_points(tmp_path, capsys):
    # A finite coordinate beyond double range: the spectral route writes the
    # underflowed value 0, the kernel routes refuse it by name and write no rows.
    path = tmp_path / "job.json"
    base = {"command": "transform", "mu": [0.5], "M": 4,
            "function": {"kind": "gaussian", "a": 0.5}}
    path.write_text(json.dumps(dict(base, route="spectral",
                                    outputs={"points": [[1e200], [40.0]]})))
    assert main(["--config", str(path), "--out", str(tmp_path / "spectral")]) == 0
    data = read_csv(tmp_path / "spectral" / "result.csv")
    assert data[0].tolist() == [1e200, 0.0, 0.0]
    assert capsys.readouterr().err == ""
    for route, r, huge in (("integral", 1.0, 1e200), ("smoothed", 0.9, 1e200),
                           ("smoothed", 0.9, 1e20)):
        out = tmp_path / f"{route}-{huge:g}"
        path.write_text(json.dumps(dict(base, route=route, r=r,
                                        outputs={"points": [[huge], [40.0]]})))
        assert main(["--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{route} route" in err[0] and f"x0 = {huge!r}" in err[0]
        assert not (out / "result.csv").exists()


def test_overflowing_box_exits_2_with_one_line(tmp_path):
    # At mu = 0 and L >~ 1e154 the grid's t^2 overflows: the job is refused
    # naming 'L', and no numpy warning reaches stderr first.  Run in a clean
    # interpreter, where warnings print as they would for a user.
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "kernel", "mu": [0.0], "L": 1e300, "route": "spectral",
                                "outputs": {"pairs": [[0.5, 1.0]]}}))
    src = str(Path(dunkl_frft.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "dunkl_frft.cli", "--config", str(path), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and "'L'" in err[0], proc.stderr


def test_oversized_output_request_exits_1_without_traceback(tmp_path):
    # A linspace count of 1e12 fails at its first allocation (7.28 TiB), so
    # no memory is used; run in a clean interpreter, as a user would.
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "transform", "mu": [0.5], "function": {"kind": "gaussian"},
                                "outputs": {"linspace": [0, 1, 1e12]}}))
    src = str(Path(dunkl_frft.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "dunkl_frft.cli", "--config", str(path), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory: "), proc.stderr


@pytest.mark.parametrize("config, where", [
    # x^400 overflows on the grid: the integral route's rows are nan
    ({"command": "transform", "mu": [0.5], "function": {"kind": "gauss_poly", "poly": {
        "dim": 1, "terms": [{"exp": [400], "re": 1}]}}}, "result row 0, column 're'"),
    # x^200 at N = 1: the spectral summary's tail mass is inf
    ({"command": "transform", "mu": [0.5], "route": "spectral", "function": {
        "kind": "gauss_poly", "poly": {"dim": 1, "terms": [{"exp": [200], "re": 1}]}}},
     "result summary 'tail_mass'"),
])
def test_nonfinite_result_exits_1_with_one_line(tmp_path, config, where):
    # A result holding nan or inf is refused before any file is written (nan
    # and inf are not JSON), and no numpy warning reaches stderr; run in a
    # clean interpreter, as a user would.
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    src = str(Path(dunkl_frft.__file__).resolve().parent.parent)
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        proc = subprocess.run(
            [sys.executable, "-m", "dunkl_frft.cli", "--config", str(path), "--out", str(out),
             "--format", fmt],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {where}: "), proc.stderr
        assert err[0].endswith(" is not a finite number"), proc.stderr
        assert not out.exists()


def test_basis_degree_past_double_range_exits_1_without_traceback(tmp_path):
    # the Hermite norms of degree 197 and up overflow a double; run in a
    # clean interpreter, as a user would
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "basis", "mu": [0.5], "M": 200}))
    src = str(Path(dunkl_frft.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "dunkl_frft.cli", "--config", str(path), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the Hermite norm of degree 197 at mu = 0.5 "), proc.stderr


@pytest.mark.parametrize("config", [
    {"command": "basis", "mu": [200.0], "M": 4},
    {"command": "transform", "mu": [200.0], "function": {"kind": "gaussian"}, "outputs": [[0.5]]},
])
def test_multiplicity_past_gamma_range_exits_1_without_traceback(tmp_path, config):
    # Gamma(mu + 1/2) overflows a double above mu ~ 171.1; run in a clean
    # interpreter, as a user would
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    src = str(Path(dunkl_frft.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "dunkl_frft.cli", "--config", str(path), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "Gamma(200.5)" in err[0], proc.stderr


@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_panel_size_past_512_exits_2_naming_grid_fields(tmp_path, capsys, mu):
    config = {"command": "transform", "mu": [mu], "function": {"kind": "gaussian"},
              "outputs": [[0.5]]}
    assert run(dict(config, n=512), out_dir=str(tmp_path / "ok")) == 0
    capsys.readouterr()
    assert run(dict(config, n=513), out_dir=str(tmp_path / "refused")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "'L' and 'n'" in err[0] and "got 513" in err[0], err
    assert not (tmp_path / "refused").exists()


def test_spectral_transform_reports_gram_residual(tmp_path):
    # at mu = 1/2 the default box (L = 8, n = 120) keeps the M = 24 basis
    # orthonormal to 1e-4, and M = 100 not at all.  The tables are exact to
    # rounding, so the M = 100 residual (0.62) measures the grid alone: an
    # 8-wide box cannot hold degree-100 functions, which turn at sqrt(201).
    config = {"command": "transform", "mu": [0.5], "route": "spectral",
              "function": {"kind": "gaussian"}, "outputs": [[0.5]]}
    summaries = {}
    for M in (None, 100):
        out = tmp_path / f"M{M}"
        assert run(dict(config, M=M), out_dir=str(out), fmt="json") == 0
        summaries[M] = json.loads((out / "result.json").read_text())["summary"]
    assert summaries[None]["gram_residual"] < 1e-3
    assert summaries[100]["gram_residual"] > 0.5
    assert set(summaries[None]) == {"tail_mass", "parseval_slack", "gram_residual"}


def test_spectral_expansion_summary_has_no_gram_residual(tmp_path):
    # a hermite_combo's coefficients are copied, not analysed on the grid,
    # so the grid's Gram residual (0.072 at M = 32) does not bound them
    config = {"command": "transform", "mu": [0.5], "alpha": 1.0, "route": "spectral", "M": 32,
              "function": {"kind": "hermite_combo",
                           "terms": [{"nu": [30], "re": 1.0}, {"nu": [2], "re": 0.5}]},
              "outputs": [[0.5]]}
    assert run(config, out_dir=str(tmp_path), fmt="json") == 0
    summary = json.loads((tmp_path / "result.json").read_text())["summary"]
    assert summary == {"tail_mass": 0.0, "parseval_slack": 0.0}


def test_jobs_do_not_import_scipy_linalg(tmp_path):
    # The Gauss-Jacobi rules (the sphere rule's included) and the basis avoid
    # scipy.linalg, whose import costs a fresh job about 50 ms; run in a clean
    # interpreter.
    jobs = [
        {"command": "transform", "mu": [0.3, 0.7], "alpha": 1.0, "route": "spectral",
         "function": {"kind": "gaussian", "a": 0.5}},
        {"command": "transform", "mu": [0.3, 0.7], "alpha": 1.0,
         "function": {"kind": "gaussian", "a": 0.5}},
        {"command": "hankel", "mu": [0.5], "alpha": 1.0, "order": 0.7,
         "function": {"kind": "gaussian"}},
        {"command": "check", "mu": [0.5], "suite": "funk_hecke"},
    ]
    code = (
        "import json, sys\n"
        "from dunkl_frft.cli import run\n"
        f"for i, job in enumerate(json.loads({json.dumps(json.dumps(jobs))})):\n"
        f"    assert run(job, out_dir={str(tmp_path)!r} + f'/job{{i}}') == 0\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    src = str(Path(dunkl_frft.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # the check job prints its rows first; the probe's answer is the last line
    assert proc.stdout.strip().splitlines()[-1] == "False"


def test_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 2
    assert "not found" in capsys.readouterr().err


def test_parse_config_round_trip():
    obj = {
        "command": "transform",
        "mu": [0.3, 0.7],
        "alpha": 0.9,
        "route": "smoothed",
        "r": 0.75,
        "outputs": {"points": [[0.0, 0.0]]},
    }
    cfg = parse_config(obj)
    blob = cfg.to_json()
    again = parse_config({k: v for k, v in blob.items() if k != "version"})
    assert again.to_json() == blob


def test_projection_command_coefficients(tmp_path):
    cfg = {
        "command": "projection",
        "mu": [0.5],
        "alpha": 0.0,
        "M": 6,
        "function": {
            "kind": "hermite_combo",
            "terms": [{"nu": [0], "re": 1.0}, {"nu": [2], "re": 0.5, "im": -0.25}],
        },
        "projections": [0, 2, -1],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    data = read_csv(tmp_path / "out" / "result.csv")
    live = data[np.abs(data[:, 2] + 1j * data[:, 3]) > 1e-12]
    assert live.shape[0] == 2
    assert live[0, :2].tolist() == [0.0, 0.0]
    assert live[0, 2] == pytest.approx(1.0, abs=1e-10)
    assert live[1, :2].tolist() == [2.0, 2.0]
    assert live[1, 2] + 1j * live[1, 3] == pytest.approx(0.5 - 0.25j, abs=1e-10)


def test_resolvent_command(tmp_path):
    cfg = {
        "command": "resolvent",
        "mu": [0.5],
        "alpha": 0.0,
        "M": 6,
        "function": {"kind": "hermite_combo", "terms": [{"nu": [2], "re": 1.0}]},
        "resolvent_lambda": [1.0, 1.0],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    data = read_csv(tmp_path / "out" / "result.csv")
    row = data[data[:, 0] == 2.0][0]
    assert row[1] + 1j * row[2] == pytest.approx(1.0 / (1.0 + 1.0j - 2.0j), abs=1e-10)


def test_hankel_command_eigen_phase(tmp_path):
    alpha = math.pi / 3
    cfg = {
        "command": "hankel",
        "mu": [1.0],
        "alpha": alpha,
        "order": 0.5,
        "function": {"kind": "laguerre_gaussian", "m": 2, "order": 0.5},
        "outputs": {"radii": [0.0, 0.5, 1.0, 2.0]},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    data = read_csv(tmp_path / "out" / "result.csv")
    from dunkl_frft.specfun import laguerre_eval

    phase = np.exp(4j * alpha)
    for x, re, im in data:
        want = phase * laguerre_eval(2, 0.5, x * x) * math.exp(-0.5 * x * x)
        assert re + 1j * im == pytest.approx(want, abs=1e-9)


def test_samples_function_kind(tmp_path):
    # transform raw node samples of h0: eigenvalue 1 at every order
    from dunkl_frft.polyengine import HermiteBasis
    from dunkl_frft.quadrature import build_grid
    from dunkl_frft.specfun import Multiplicity

    mult = Multiplicity([0.5])
    grid = build_grid(mult)
    basis = HermiteBasis(mult, 0)
    vals = basis.function((0,))(grid.nodes).real
    cfg = {
        "command": "transform",
        "mu": [0.5],
        "alpha": math.pi / 3,
        "function": {"kind": "samples", "values_re": vals.tolist()},
        "outputs": {"points": [[0.0], [1.0]]},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    data = read_csv(tmp_path / "out" / "result.csv")
    for x, re, im in data:
        want = basis.function((0,))(np.array([[x]]))[0]
        assert re + 1j * im == pytest.approx(want, abs=1e-8)


def test_json_output_format(tmp_path):
    cfg = {
        "command": "transform",
        "mu": [0.0],
        "alpha": -math.pi / 2,
        "function": {"kind": "gaussian", "a": 0.5},
        "outputs": {"points": [[0.0]]},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--format", "json"]) == 0
    payload = json.loads((tmp_path / "out" / "result.json").read_text())
    assert payload["version"]
    assert payload["columns"] == ["x0", "re", "im"]
    assert payload["rows"][0][1] == pytest.approx(1.0, abs=1e-8)


def test_convergence_command_monotone(tmp_path):
    cfg = {
        "command": "convergence",
        "mu": [0.5],
        "alpha": math.pi / 3,
        "vary": "r",
        "values": [1 - 2.0**-j for j in range(3, 9)],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    data = read_csv(tmp_path / "out" / "result.csv")
    assert np.all(np.diff(data[:, 1]) < 0)


def test_run_accepts_parsed_config():
    with pytest.raises(UsageError):
        parse_config({"command": "fly", "mu": [0.5]})
    assert run({"command": "fly", "mu": [0.5]}) == 2


def test_wire_format_conveniences(tmp_path):
    # outputs as a bare point list and grid params in a nested object
    cfg = {
        "command": "transform",
        "mu": [0.0],
        "alpha": -math.pi / 2,
        "grid": {"L": 8.0, "n": 80},
        "function": {"kind": "gaussian", "a": 0.5},
        "outputs": [[0.0], [1.0]],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    data = read_csv(tmp_path / "out" / "result.csv")
    assert data[0, 1] == pytest.approx(1.0, abs=1e-8)
    assert data[1, 1] == pytest.approx(math.exp(-0.5), abs=1e-8)


def test_tolerance_env_scaling(tmp_path, monkeypatch, capsys):
    # DUNKL_FRFT_TOL = 1e-12 shrinks every tolerance: a passing suite fails
    monkeypatch.setenv("DUNKL_FRFT_TOL", "1e-12")
    cfg = {"command": "check", "mu": [0.5], "suite": "classical"}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
    monkeypatch.setenv("DUNKL_FRFT_TOL", "1.0")
    assert main(["--config", str(path), "--out", str(tmp_path / "out2")]) == 0
    # a malformed scale is a usage error, not a silent 1.0
    for bad in ("abc", "nan", "inf", "0", "-1"):
        monkeypatch.setenv("DUNKL_FRFT_TOL", bad)
        assert main(["--config", str(path), "--out", str(tmp_path / "out3")]) == 2
        assert "DUNKL_FRFT_TOL" in capsys.readouterr().err


def test_huge_kernel_and_hankel_coordinates(tmp_path, capsys):
    # The kernel command's integral and smoothed routes and the hankel
    # command refuse a coordinate whose kernel value is not finite.
    path = tmp_path / "job.json"
    cases = [
        ({"command": "kernel", "mu": [0.5], "alpha": 1.0, "route": "integral",
          "outputs": {"pairs": [[1.0, 1.0], [1e200, 1.0]]}}, "integral route", "x0 = 1e+200"),
        ({"command": "kernel", "mu": [0.5], "alpha": 1.0, "route": "smoothed", "r": 0.9,
          "outputs": {"pairs": [[1e20, 1.0]]}}, "smoothed route", "x0 = 1e+20"),
        ({"command": "hankel", "mu": [0.5], "alpha": 1.0, "order": 0.5,
          "function": {"kind": "gaussian"}, "outputs": {"radii": [1e200]}},
         "integral route", "x0 = 1e+200"),
    ]
    for i, (cfg, route, coordinate) in enumerate(cases):
        out = tmp_path / f"out{i}"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--out", str(out)]) == 1, cfg
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and route in err[0] and coordinate in err[0]
        assert not (out / "result.csv").exists()


def test_hankel_order_past_its_grid_refused(tmp_path, capsys):
    # At order 100 the weight y^201 on [0, box + 4] fails the Mehta
    # calibration of the Hankel grid: refused, not answered far off.
    cfg = {"command": "hankel", "mu": [0.5], "alpha": 1.0, "order": 100,
           "function": {"kind": "laguerre_gaussian", "m": 1, "order": 100},
           "outputs": {"radii": [0.0, 3.0, 6.0]}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "Mehta calibration" in err[0] and "L=12.0, n=160" in err[0], err
    assert not (out / "result.csv").exists()


@pytest.mark.parametrize("key, value", [("n", 8), ("n", 40), ("n", 200), ("M", 0), ("M", 8)])
def test_hankel_refuses_grid_fields(tmp_path, capsys, key, value):
    # The hankel command runs on its own rank-one grid, so a set n or M
    # would be recorded and ignored: it is refused by name instead.
    cfg = {"command": "hankel", "mu": [0.5], "alpha": 1.0, "order": 0.5, key: value,
           "function": {"kind": "gaussian"}, "outputs": {"radii": [0.0, 1.0, 2.0]}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"'{key}'" in err[0] and "160 points per half-axis" in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("extra", [{"vary": "r"},
                                   {"vary": "alpha", "M": 4, "function": {
                                       "kind": "hermite_combo", "terms": [{"nu": [2], "re": 1.0}]}}],
                         ids=["r", "alpha"])
def test_convergence_empty_values_gives_empty_table(tmp_path, extra):
    # An explicit empty list is a sweep over nothing, not the default sweep.
    cfg = dict({"command": "convergence", "mu": [0.5], "alpha": 1.0, "values": []}, **extra)
    assert run(cfg, out_dir=str(tmp_path), fmt="json") == 0
    payload = json.loads((tmp_path / "result.json").read_text())
    assert payload["rows"] == [] and payload["config"]["values"] == []


@pytest.mark.parametrize("route, name", [("integral", "kernel_alpha"),
                                         ("smoothed", "kernel_smoothed"),
                                         ("spectral", "kernel_spectral")])
def test_kernel_job_calls_kernel_once(tmp_path, monkeypatch, route, name):
    # All pairs of a kernel job go to the library in one call, whose rows
    # are written as computed.
    calls = []
    kernel = getattr(cli, name)

    def counted(plan, x, y, *args, **kwargs):
        calls.append((x.copy(), y.copy()))
        return kernel(plan, x, y, *args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    pairs = [[0.5, -1.0, 0.25, 2.0], [-0.0, 0.0, 1.5, -2.5], [0.5, -1.0, 0.25, 2.0]]
    cfg = {"command": "kernel", "mu": [0.3, 0.7], "alpha": 1.0, "route": route,
           "M": 8, "outputs": {"pairs": pairs}}
    if route != "integral":
        cfg["r"] = 0.6
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--format", "json"]) == 0
    assert len(calls) == 1
    x, y = calls[0]
    assert x.tolist() == [p[:2] for p in pairs] and y.tolist() == [p[2:] for p in pairs]
    plan = cli._make_plan(parse_config(dict(cfg)))
    want = kernel(plan, x, y) if route == "integral" else kernel(plan, x, y, 0.6)
    rows = json.loads((tmp_path / "out" / "result.json").read_text())["rows"]
    assert [row[:4] for row in rows] == pairs
    assert [complex(*row[4:]) for row in rows] == want.tolist()
    # an empty pair list writes no rows
    path.write_text(json.dumps(dict(cfg, outputs={"pairs": []})))
    assert main(["--config", str(path), "--out", str(tmp_path / "empty"), "--format", "json"]) == 0
    assert json.loads((tmp_path / "empty" / "result.json").read_text())["rows"] == []


def test_convergence_sweep_calls_kernels_once_per_r(tmp_path, monkeypatch):
    # The r-sweep computes its target once and each r's kernels in one call.
    calls = []

    def counting(name):
        kernel = getattr(cli, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return kernel(*args, **kwargs)
        return counted

    for name in ("kernel_alpha", "kernel_smoothed"):
        monkeypatch.setattr(cli, name, counting(name))
    cfg = {"command": "convergence", "mu": [0.5], "alpha": 1.0, "values": [0.5, 0.9, 0.99]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert calls == ["kernel_alpha"] + ["kernel_smoothed"] * 3


def test_spectral_grid_output_matches_pointwise(tmp_path):
    # A spectral transform with grid outputs evaluates the expansion on the
    # tensor grid; json rows carry every bit of the pointwise values.
    cfg = {"command": "transform", "mu": [0.3, 0.7], "alpha": 0.8, "route": "spectral", "M": 6,
           "grid": {"L": 8.0, "n": 20}, "outputs": {"grid": True},
           "function": {"kind": "hermite_combo",
                        "terms": [{"nu": [1, 2], "re": 0.5, "im": -0.25}, {"nu": [0, 0], "re": 1.0}]}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--format", "json"]) == 0
    rows = json.loads((tmp_path / "out" / "result.json").read_text())["rows"]
    from dunkl_frft.cli import _make_plan, build_function
    from dunkl_frft.transform import fdt_spectral

    plan = _make_plan(parse_config(dict(cfg)))
    nodes = plan.grid.nodes
    want = fdt_spectral(build_function(cfg["function"], plan), plan)(nodes)
    assert [row[:2] for row in rows] == nodes.tolist()
    assert [complex(*row[2:]) for row in rows] == want.tolist()


@pytest.mark.parametrize("route", ["integral", "smoothed"])
def test_kernel_grid_output_is_on_grid_transform(tmp_path, route):
    # Grid outputs of the kernel routes take the on-grid transform; json rows
    # carry every bit of it, and it agrees with the points path.
    terms = [{"nu": [1, 2], "re": 0.5, "im": -0.25}, {"nu": [0, 0], "re": 1.0}]
    cfg = {"command": "transform", "mu": [0.3, 0.7], "alpha": 0.8, "route": route,
           "M": 6, "grid": {"L": 8.0, "n": 20}, "outputs": {"grid": True},
           "function": {"kind": "hermite_combo", "terms": terms}}
    if route == "smoothed":
        cfg["r"] = 0.7
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--format", "json"]) == 0
    rows = json.loads((tmp_path / "out" / "result.json").read_text())["rows"]
    from dunkl_frft.cli import _make_plan, build_function
    from dunkl_frft.transform import (
        fdt_integral,
        fdt_integral_on_grid,
        fdt_smoothed,
        fdt_smoothed_on_grid,
    )

    plan = _make_plan(parse_config(dict(cfg)))
    f = build_function(cfg["function"], plan)
    nodes = plan.grid.nodes
    if route == "integral":
        want, points = fdt_integral_on_grid(f, plan), fdt_integral(f, plan, nodes)
    else:
        want, points = fdt_smoothed_on_grid(f, plan, 0.7), fdt_smoothed(f, plan, nodes, 0.7)
    assert [row[:2] for row in rows] == nodes.tolist()
    got = np.array([complex(*row[2:]) for row in rows])
    assert got.tolist() == want.tolist()
    assert np.max(np.abs(got - points)) <= 1e-12


@pytest.mark.parametrize("command", ["transform", "kernel"])
def test_integral_route_refuses_smoothing_r(tmp_path, capsys, command):
    # The integral route does not smooth: an r other than 1 there is refused
    # (exit 2, one stderr line naming both fields), and r = 1 is the default.
    cfg = {"command": command, "mu": [0.5], "alpha": 1.0, "route": "integral"}
    if command == "transform":
        cfg.update(function={"kind": "gaussian", "a": 1.0}, outputs=[[0.5]])
    else:
        cfg.update(outputs={"pairs": [[0.5, -1.0], [0.0, 2.0]]})
    path = tmp_path / "job.json"
    results = {}
    for label, r in (("smoothing", 0.5), ("one", 1.0), ("default", None)):
        path.write_text(json.dumps(cfg if r is None else dict(cfg, r=r)))
        out = tmp_path / label
        code = main(["--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        if r == 0.5:
            assert code == 2 and len(err) == 1
            assert "'r'" in err[0] and "'route'" in err[0]
            assert not (out / "result.csv").exists()
        else:
            assert code == 0 and err == []
            results[label] = (out / "result.csv").read_bytes()
    assert results["one"] == results["default"]
    if command == "transform":
        value = complex(*read_csv(tmp_path / "one" / "result.csv")[0, 1:])
        assert abs(value - (0.511252 + 0.106606j)) <= 1e-6


_COMBO_H2 = {"kind": "hermite_combo", "terms": [{"nu": [2], "re": 1.0}]}


@pytest.mark.parametrize("cfg", [
    {"command": "basis", "mu": [0.5], "M": 4},
    {"command": "hankel", "mu": [0.5], "alpha": 1.0, "order": 0.5,
     "function": {"kind": "gaussian"}, "outputs": {"radii": [0.5, 1.0]}},
    {"command": "projection", "mu": [0.5], "alpha": 0.0, "M": 4, "function": _COMBO_H2,
     "projections": [2]},
    {"command": "resolvent", "mu": [0.5], "alpha": 0.0, "M": 4, "function": _COMBO_H2},
    {"command": "convergence", "mu": [0.5], "alpha": 1.0, "values": [0.5, 0.9]},
    {"command": "check", "mu": [0.0], "suite": "basis"},
], ids=lambda cfg: cfg["command"])
def test_commands_that_do_not_smooth_refuse_r(tmp_path, capsys, cfg):
    # These commands never read the config's r: an r other than 1 used to
    # be recorded and ignored with exit 0; it is refused (exit 2, one stderr
    # line naming 'r' and the command), and r = 1 is the default.
    path = tmp_path / "job.json"
    for r, want in ((0.5, 2), (1.0, 0)):
        path.write_text(json.dumps(dict(cfg, r=r)))
        out = tmp_path / f"r{r}"
        code = main(["--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == want, err
        if want == 2:
            assert len(err) == 1 and "'r'" in err[0] and cfg["command"] in err[0], err
            assert not out.exists() or not any(out.iterdir())
        else:
            assert err == [] and (out / "result.csv").exists()


@pytest.mark.parametrize("nu, M, fields", [([1], None, ["'function.terms'"]),
                                           ([9], 4, ["'function.terms'", "'M'"]),
                                           ([-1], None, ["'function.terms'"])])
def test_combo_term_outside_basis_names_field(tmp_path, capsys, nu, M, fields):
    # A term of the wrong length (here at N = 2), of a degree above M or with
    # a negative entry is a config error, not a refused computation.
    mu = [0.3, 0.7] if nu == [1] else [0.5]
    cfg = {"command": "transform", "mu": mu, "M": M,
           "function": {"kind": "hermite_combo", "terms": [{"nu": nu, "re": 1.0}]}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and all(field in err[0] for field in fields), err
    assert ("'M'" in err[0]) == ("'M'" in fields)


def _fresh_peak_mb(tmp_path, name, body):
    """The peak RSS in MB of a fresh interpreter running body (its argv[1]
    is a fresh output directory) with one BLAS thread."""
    job = tmp_path / f"{name}.py"
    job.write_text("import resource, sys\n" + body
                   + "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    # Linux carries the spawning process's peak RSS into a child's ru_maxrss
    # at exec, so the job starts from a small launcher, not from the test
    # runner, whose peak would mask its own.
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", launcher, sys.executable, str(job), str(tmp_path / name)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1]) / 1024.0  # ru_maxrss is in KiB on Linux


def test_n3_integral_job_builds_no_mesh(tmp_path):
    # An N = 3 expansion input at a few points never needs the 4.1M-node
    # mesh of the default grid; a fresh process reads its own peak RSS.
    cfg = {"command": "transform", "mu": [0.2, 0.5, 0.4], "alpha": 1.0, "route": "integral",
           "function": {"kind": "hermite_combo", "terms": [{"nu": [1, 0, 2], "re": 1.0}]},
           "outputs": [[0.5, 0.0, -1.0]]}
    body = f"from dunkl_frft.cli import run\nassert run({cfg!r}, out_dir=sys.argv[1]) == 0\n"
    peak_mb = _fresh_peak_mb(tmp_path, "job", body)
    assert peak_mb < 150.0, peak_mb


def test_n3_spectral_job_builds_no_mesh(tmp_path):
    # The spectral route of an expansion in the plan's multiplicity is its
    # coefficients times the phases: no grid values and no mesh weights.
    cfg = {"command": "transform", "mu": [0.2, 0.5, 0.4], "alpha": 1.0, "route": "spectral",
           "function": {"kind": "hermite_combo", "terms": [{"nu": [1, 0, 2], "re": 1.0}]},
           "outputs": [[0.5, 0.0, -1.0]]}
    body = f"from dunkl_frft.cli import run\nassert run({cfg!r}, out_dir=sys.argv[1]) == 0\n"
    peak_mb = _fresh_peak_mb(tmp_path, "job", body)
    assert peak_mb < 150.0, peak_mb


def test_grid_json_job_holds_one_block_of_text(tmp_path):
    # The default N = 2 grid writes 25,600 rows (3.2 MB of JSON).  Streamed
    # in blocks, the job peaks a few MB above the bare import; holding the
    # whole table as lists and text took about 20 MB more.
    cfg = {"command": "transform", "mu": [0.5, 0.3], "alpha": 1.0, "route": "integral",
           "function": {"kind": "gaussian", "a": 0.5}, "outputs": {"grid": True}}
    body = (f"from dunkl_frft.cli import run\n"
            f"assert run({cfg!r}, out_dir=sys.argv[1], fmt='json') == 0\n")
    import_mb = _fresh_peak_mb(tmp_path, "bare", "import dunkl_frft.cli\n")
    job_mb = _fresh_peak_mb(tmp_path, "job", body)
    assert len(json.loads((tmp_path / "job" / "result.json").read_text())["rows"]) == 25600
    assert job_mb - import_mb < 10.0, (job_mb, import_mb)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("exc, code", [(MemoryError, 1), (RuntimeError, None)])
def test_result_file_appears_whole_or_not_at_all(tmp_path, monkeypatch, capsys, fmt, exc, code):
    # A table of 2B + 1 rows is written in three blocks.  When the encoder
    # fails after the first, neither the result file nor its temporary file
    # is left behind; a job that completes leaves exactly its two files.
    cfg = {"command": "transform", "mu": [0.5], "function": {"kind": "gaussian"},
           "outputs": {"linspace": [-3, 3, 2 * cli._BLOCK_ROWS + 1]}}
    assert run(cfg, out_dir=tmp_path / "whole", fmt=fmt) == 0
    assert sorted(os.listdir(tmp_path / "whole")) == sorted(["resolved_config.json", f"result.{fmt}"])
    blocks = cli._blocks

    def failing(rows):
        gen = blocks(rows)
        yield next(gen)
        raise exc("encoder failed after one block")

    monkeypatch.setattr(cli, "_blocks", failing)
    if code is None:
        with pytest.raises(exc):
            run(cfg, out_dir=tmp_path / "cut", fmt=fmt)
    else:
        assert run(cfg, out_dir=tmp_path / "cut", fmt=fmt) == code
        assert capsys.readouterr().err == "error: out of memory: encoder failed after one block\n"
    assert os.listdir(tmp_path / "cut") == ["resolved_config.json"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("as_array", [True, False])
def test_nonfinite_value_in_last_block_refused_before_any_write(tmp_path, fmt, as_array):
    # The whole table is checked before the first block is written: an
    # infinity in the last row of the last block still leaves no file, and
    # the message names its row, column and repr as for any other row.
    rows = np.full((2 * cli._BLOCK_ROWS + 1, 3), 0.5)
    rows[-1, 2] = -math.inf
    cfg = parse_config({"command": "transform", "mu": [0.5]})
    with pytest.raises(RangeError) as info:
        cli._emit(cfg, tmp_path / "out", fmt, ["x0", "re", "im"], rows if as_array else rows.tolist())
    assert str(info.value) == f"result row {2 * cli._BLOCK_ROWS}, column 'im': -inf is not a finite number"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workload", ["repeat_orders", "cli_jobs"])
def test_traced_benchmark_boundaries(workload):
    # The benchmark's tracer wraps library functions by name and reads their
    # arguments by name; a tiny traced run fails if one is renamed or re-signed.
    root = Path(__file__).resolve().parent.parent
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", "1", "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=root)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["correct"], result
