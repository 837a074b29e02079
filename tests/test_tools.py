"""Repository tools: the output digest's residual table, library runs and
the numeric diff of kept library results."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _digest_tool():
    path = ROOT / "tools" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _keep_tree(root, suites):
    """A --keep tree holding only json check runs: {suite: [(name, residual, tol)]}."""
    for suite, rows in suites.items():
        out = root / "check" / suite / "json" / "out"
        out.mkdir(parents=True)
        payload = {"columns": ["name", "residual", "tolerance", "passed"],
                   "rows": [[name, resid, tol, int(resid <= tol)] for name, resid, tol in rows]}
        (out / "result.json").write_text(json.dumps(payload), encoding="utf-8")
    return root


def _table(capsys):
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["| suite | check row | before | after | gate | inside gate |",
                         "|---|---|---|---|---|---|"]
    return [[cell.strip() for cell in line.strip("|").split(" | ")] for line in lines[2:]]


def test_residual_table_inside_gates(tmp_path, capsys):
    tool = _digest_tool()
    old = _keep_tree(tmp_path / "old", {"mehler": [("limit", 1.5e-4, 1e-2)],
                                        "classical": [("gauss |x|", 3.25e-14, 1e-8),
                                                      ("cosine", 2.0e-14, 1e-8)]})
    new = _keep_tree(tmp_path / "new", {"mehler": [("limit", 1.5e-4, 1e-2)],
                                        "classical": [("gauss |x|", 3.5e-14, 1e-8),
                                                      ("cosine", 2.0e-14, 1e-8)]})
    assert tool.main(["--residuals", str(old), str(new)]) == 0
    assert _table(capsys) == [
        ["classical", "gauss \\|x\\|", "3.2500000000e-14", "3.5000000000e-14", "1e-08", "yes"],
        ["classical", "cosine", "2.0000000000e-14", "2.0000000000e-14", "1e-08", "yes"],
        ["mehler", "limit", "1.5000000000e-04", "1.5000000000e-04", "0.01", "yes"],
    ]


def test_residual_table_flags_rows_that_leave_or_change(tmp_path, capsys):
    tool = _digest_tool()
    old = _keep_tree(tmp_path / "old", {"unitary_group": [("group law", 3e-10, 1e-6),
                                                          ("adjoint", 2e-16, 1e-8),
                                                          ("gone", 1e-12, 1e-8)],
                                        "generator": [("exact", 5e-9, 1e-6)]})
    new = _keep_tree(tmp_path / "new", {"unitary_group": [("group law", 2e-6, 1e-6),
                                                          ("adjoint", 2e-16, 1e-8)],
                                        "generator": [("exact", 5e-9, 1e-5)]})
    assert tool.main(["--residuals", str(old), str(new)]) == 1
    assert [(row[1], row[3], row[4], row[5]) for row in _table(capsys)] == [
        ("exact", "5.0000000000e-09", "1e-06 -> 1e-05", "no"),
        ("group law", "2.0000000000e-06", "1e-06", "no"),
        ("adjoint", "2.0000000000e-16", "1e-08", "yes"),
        ("gone", "missing", "1e-08", "no"),
    ]


def test_library_digest_repeats_in_documented_format(capsys):
    tool = _digest_tool()
    outputs = []
    for _ in range(2):
        assert tool.main(["--library"]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0] == outputs[1]
    route = re.compile(r"lib/fdt_(integral|smoothed)(_on_grid)?/[123]/(expansion|array|callable)/"
                       r"(points|mesh|grid)/(1|0\.7)/(first|repeat) [0-9a-f]{40}")
    edge = re.compile(r"lib/fdt_(integral|smoothed)(_on_grid)?/1/expansion-(tail0|zero|h0|deg30)/"
                      r"(points|empty|grid)/(1|0\.7)/(first|repeat) [0-9a-f]{40}")
    pair = re.compile(r"lib/(kernel_alpha/[123]/pairs/points/1|kernel_smoothed/[123]/pairs/points/0\.7|"
                      r"kernel_spectral/[123]/pairs/points/(1|0\.6))/(batch|single) [0-9a-f]{40}")
    special = re.compile(r"lib/(normalized_ibessel/1/nu=(-0\.5|-0\.2|0|0\.7)/(axis|complex)|"
                         r"funk_hecke_radial/(1/mu=(0|0\.5)|2/mu=(0,0|0\.3,0\.7)|3/mu=(0,0,0|0\.3,0\.7,0\.2))/"
                         r"sphere|"
                         r"circle_identity_residual/2/mu=(0,0|0\.3,0\.7)/circle(4096|1000)|"
                         r"fractional_hankel/1/nu=(-0\.5|0\.5|1\.7)/radii) [0-9a-f]{40}")
    grid = re.compile(r"lib/build_grid/[123]/(default|L=6,n=24)/(nodes|weights|points_per_axis) [0-9a-f]{40}")
    table = re.compile(r"lib/axis_matrix/1/mu=(0|0\.3|0\.5|1\.7)/M=(24|100)/(grid|past_reach|subnormal) "
                       r"[0-9a-f]{40}")
    spectral = re.compile(r"lib/(fdt_spectral/[123]/[^/]+/coefficients/(1|0\.6)|"
                          r"hermite_expand/[123]/[^/]+/coefficients/1)/(first|repeat) [0-9a-f]{40}")
    routes = [text for text in outputs[0] if route.fullmatch(text)]
    edges = [text for text in outputs[0] if edge.fullmatch(text)]
    pairs = [text for text in outputs[0] if pair.fullmatch(text)]
    specials = [text for text in outputs[0] if special.fullmatch(text)]
    grids = [text for text in outputs[0] if grid.fullmatch(text)]
    spectrals = [text for text in outputs[0] if spectral.fullmatch(text)]
    tables = [text for text in outputs[0] if table.fullmatch(text)]
    matched = (len(routes) + len(edges) + len(pairs) + len(specials) + len(grids) + len(spectrals)
               + len(tables))
    assert matched == len(outputs[0]), outputs[0]
    labels = [text.split()[0] for text in outputs[0]]
    assert len(set(labels)) == len(labels)
    assert len(routes) == 2 * 3 * 3 * 3 * 2 and len(pairs) == 3 * 4 * 2
    assert len(edges) == 2 * 4 * 3 * 2
    assert len(specials) == 4 * 2 + 6 + 2 * 2 + 3 and len(grids) == 3 * 2 * 3
    assert len(tables) == 4 * 2 * 3
    # four inputs: the expansion, its grid values, bases of degree M - 2 and M + 2
    inputs = {text.split("/")[3] for text in spectrals}
    assert inputs == {"expansion", "array", "expansion-deg22", "expansion-deg26",
                      "expansion-deg14", "expansion-deg18"}
    assert len(spectrals) == 3 * 4 * 3 * 2
    # the repeat, served by the plan's cache, gives the first call's bits
    digests = dict(text.split() for text in outputs[0])
    for label in [text.split()[0] for text in (routes + edges + spectrals)[::2]]:
        assert digests[label] == digests[label.replace("/first", "/repeat")], label


def test_library_keep_saves_results_that_numeric_diff_sizes(tmp_path, capsys, monkeypatch):
    # --library --keep saves each result as .npy (a refusal as .err) without
    # changing its digest line, and --numeric-diff sizes library results
    # like CLI runs, flagging any difference that is not a change of number
    tool = _digest_tool()
    sides = {
        "old": [("lib/a/2/grid/first", np.array([1.0, 2.0 + 1.0j])),
                ("lib/b/1/points/refused", "RangeError: output coordinate x0 = 1e+200"),
                ("lib/c/1/points/same", np.arange(3.0))],
        "new": [("lib/a/2/grid/first", np.array([1.0, 2.5 + 1.0j])),
                ("lib/b/1/points/refused", "RangeError: output coordinate x0 = 1e+200"),
                ("lib/c/1/points/same", np.arange(3.0))],
        "bad": [("lib/a/2/grid/first", np.array([1.0, np.nan + 1.0j])),
                ("lib/b/1/points/refused", np.zeros(2)),
                ("lib/c/1/points/same", np.arange(4.0))],
    }
    for side, results in sides.items():
        monkeypatch.setattr(tool, "_library_runs", lambda: iter(results))
        assert tool.main(["--library"]) == 0
        plain = capsys.readouterr().out
        assert tool.main(["--library", "--keep", str(tmp_path / side)]) == 0
        assert capsys.readouterr().out == plain
    kept = tmp_path / "old" / "lib"
    assert np.load(kept / "a" / "2" / "grid" / "first.npy").tolist() == [1.0, 2.0 + 1.0j]
    assert (kept / "b" / "1" / "points" / "refused.err").read_text() == sides["old"][1][1]
    assert tool.main(["--numeric-diff", str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "lib/a/2/grid/first max|diff| 0.5",
        "1 run(s) differ, 0 flagged, 2 identical",
    ]
    assert tool.main(["--numeric-diff", str(tmp_path / "old"), str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FLAG lib/a/2/grid/first: NaN on one side only",
        "FLAG lib/b/1/points/refused: .err != .npy",
        "FLAG lib/c/1/points/same: float64 (3,) != float64 (4,)",
        "3 run(s) differ, 3 flagged, 0 identical",
    ]
