"""CLI front end: job configs, outputs, exit codes, reproducibility."""

import cmath
import json
import math

import numpy as np
import pytest

from dunkl_frft.cli import main, parse_config, run
from dunkl_frft.errors import UsageError
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
    ]
    for cfg, field_name in cases:
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2, cfg
        assert field_name in capsys.readouterr().err


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
