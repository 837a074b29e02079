"""Print one sha1 per CLI run, for a byte-identity check between checkouts.

    python3 tools/output_digest.py [--seeds 301 7] > digest.txt
    python3 tools/output_digest.py [--seeds 301 7] --compare digest.txt

Each run is a fresh CLI process with every BLAS thread variable at 1 (the
library is bit-reproducible only single-threaded), in csv and in json:

- the first deck of ``bench/workloads.job_stream`` (one job of each of its
  22 kinds) for every seed, drawn exactly as ``bench/run.py --workload
  cli_jobs --seed N`` draws it;
- one ``check`` job per suite in ``checks.SUITES``, at the suites' default
  seed.

A run's digest covers its exit code, stdout, stderr and every file it
wrote; the checkout's path and the temporary directory's are replaced by
``<root>`` and ``<tmp>`` first, so two checkouts that compute the same
bytes print the same lines.  Save the lines of one checkout and run the
other with ``--compare FILE``: it prints the label of every run whose
digest differs from the saved one, or that only one side has, and exits 1
if there is any.  The library and the job decks come from this checkout's
``src/`` and ``bench/``.

For a declared output change, keep each run's files and compare them by
value:

    python3 tools/output_digest.py --keep old/     # in the parent checkout
    python3 tools/output_digest.py --keep new/     # in the changed one
    python3 tools/output_digest.py --numeric-diff old/ new/

``--keep DIR`` also writes every run's exit code, stdout, stderr and output
files under ``DIR/<label>/``.  ``--numeric-diff`` prints, for each run that
differs, the largest absolute difference over the numeric entries of its
result rows (csv and json alike) and of the json summaries.  It flags, and
exits 1 on, any change that is not a change of number: a run only one side
has, exit code, stderr, the set of files, columns, row count, a text entry,
a csv comment line, or stdout with its numbers masked.

    python3 tools/output_digest.py --residuals old/ new/

prints the before/after table of the check suites from two --keep trees:
one markdown row per result row of each ``check/<suite>`` json run, with
its residual before and after, its gate (the tolerance) and whether the
after residual is still inside it.  It exits 1 if any row leaves its gate,
or has no partner on the other side, or changed its gate.

    python3 tools/output_digest.py --library [--compare FILE]

runs the library routes in this process instead of the CLI, with every BLAS
thread variable at 1, and prints one ``lib/<entry>/<N>/<input>/<outputs>/<r>/<call>``
line per result: the integral route (r = 1) and the smoothed one
(r = 0.7) at 40 scattered points with repeats and signed zeros and at a
7^N mesh (``fdt_integral``, ``fdt_smoothed``) and on the grid
(``fdt_*_on_grid``); for a degree-6 Hermite expansion, its grid values as
an array, and a callable; for mu = [0.5], [0.3, 0.7] and [0.2, 0.5, 0.4]
on ``build_grid(mult, L=6, n=24)`` at alpha = 1.1; at N = 1 also four
edge-case expansions (``_edge_expansions``) at the scattered points, at
no point (outputs ``empty``) and on the grid; each for its first call
and for the repeat, which the plan's operator cache serves.  Then
the pair kernels on 40 (x, y) pairs with repeats and signed zeros:
``kernel_alpha``, ``kernel_smoothed`` at r = 0.7 and ``kernel_spectral``
at r = 1 and 0.6, each as one batch call and pair by pair (input
``pairs``, outputs ``points``, call ``batch`` or ``single``).  Then the
spectral side, outputs ``coefficients``: ``fdt_spectral`` at r = 1 and
0.6 and ``hermite_expand`` (r = 1), each first and repeat, of the
degree-6 expansion, its grid values as an array, and expansions in bases
of degree M - 2 and M + 2 (``expansion-deg<degree>``; M = 24 at N = 1,
16 above).  All runs of one mu share one plan, so sampled and expansion
inputs meet in its cache.  On the N = 1 plan, ``fractional_hankel`` of
the profile (1 + 0.3i y^2) e^(-y^2/2) at nu = -1/2, 1/2 and 1.7, on nine
radii from 0 to 4, one ``lib/fractional_hankel/1/nu=<nu>/radii`` line
each.  Then come the special functions, one
``lib/<function>/<N>/<parameter>/<points>`` line each:
``normalized_ibessel`` at nu = -1/2, -0.2, 0 and 0.7 on 101 points of the
imaginary axis up to |u| = 80 (``axis``) and on 37 complex points with
|u| < 80 (``complex``); ``funk_hecke_radial`` (on its sphere rule,
input ``sphere``) at nine x, radius 0 to 20, for mu = (0), (0.5), (0, 0),
(0.3, 0.7), (0, 0, 0) and (0.3, 0.7, 0.2); and ``circle_identity_residual``
on the uniform circle for mu = (0, 0) and (0.3, 0.7) at n = 2^12 and 1000.
Then one
``lib/build_grid/<N>/<grid>/<attribute>`` line each for the ``nodes``,
``weights`` and ``points_per_axis`` of ``build_grid`` for the three mu
above, at the default (L, n) (``default``) and at L = 6, n = 24.  Last,
the Hermite tables themselves, one ``lib/axis_matrix/1/<mu>/<M>/<points>``
line each: ``HermiteBasis.axis_matrix`` at mu = 0, 0.3, 0.5 and 1.7 and
M = 24 and 100, on the default grid's axis (``grid``), on points at and
past |t| = 40 up to 1e300 (``past_reach``), and on signed zeros and
subnormals (``subnormal``).  A run that raises digests its exception's
type and message.  ``--compare``
reads these lines like the CLI ones.

    python3 tools/output_digest.py --library --keep old/   # in the parent checkout
    python3 tools/output_digest.py --library --keep new/   # in the changed one
    python3 tools/output_digest.py --numeric-diff old/ new/

``--library --keep DIR`` also saves each result as ``DIR/<label>.npy``
(a refusal as ``DIR/<label>.err``, its text), and ``--numeric-diff``
sizes these like CLI runs: the largest absolute difference of each
result whose bytes differ, flagging a result only one side has, a
refusal on one side or with another text, another dtype or shape, or a
NaN on one side only.
"""

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _runs(seeds):
    """(label, config) for every run, in a fixed order."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    import numpy as np
    import workloads
    from dunkl_frft.checks import SUITES

    deck = len(workloads.JOB_KINDS)
    for seed in seeds:
        rng = np.random.default_rng(seed % (1 << 63))
        for job in itertools.islice(workloads.job_stream(rng), deck):
            yield f"seed{seed}/{job.id}-{job.kind}", job.config
    for name in SUITES:
        yield f"check/{name}", {"command": "check", "mu": [0.0], "suite": name}


def _library_runs():
    """(label, result) of every in-process kernel-route run, in a fixed
    order: the result as a C-contiguous array, or its refusal's text."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC)]
    import numpy as np
    import dunkl_frft as dk

    def result(call):
        try:
            return np.ascontiguousarray(call())
        except Exception as exc:  # a refusal is a result too
            return f"{type(exc).__name__}: {exc}"

    for mu in ([0.5], [0.3, 0.7], [0.2, 0.5, 0.4]):
        mult = dk.Multiplicity(mu)
        dim = mult.dim
        plan = dk.TransformPlan(mult, 1.1, grid=dk.build_grid(mult, L=6.0, n=24))
        rng = np.random.default_rng(19)
        basis = dk.HermiteBasis(mult, 6)
        expansion = dk.HermiteExpansion(
            basis, rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size))
        scattered = rng.choice([-2.5, -1.0, -0.0, 0.0, 0.75, 1.0, 3.2], size=(40, dim))
        scattered[30:] = scattered[:10]
        axis = np.linspace(-3.0, 3.0, 7)
        mesh = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)

        def gaussian_times_quadratic(y):
            return np.exp(-0.5 * np.sum(y * y, axis=-1)) * (1.0 + 0.5j * y[:, 0] - y[:, -1] ** 2)

        inputs = {"expansion": expansion, "array": expansion(plan.grid.nodes),
                  "callable": gaussian_times_quadratic}
        sets = [(inputs, (("points", scattered), ("mesh", mesh), ("grid", None)))]
        if dim == 1:
            edges = (("points", scattered), ("empty", scattered[:0]), ("grid", None))
            sets.append((_edge_expansions(dk, basis), edges))
        for route, r in (("integral", 1.0), ("smoothed", 0.7)):
            extra = () if r == 1.0 else (r,)
            for functions, targets in sets:
                for name, f in functions.items():
                    for outputs, xs in targets:
                        if xs is None:
                            entry = f"fdt_{route}_on_grid"
                            args = (f, plan) + extra
                        else:
                            entry = f"fdt_{route}"
                            args = (f, plan, xs) + extra
                        for call in ("first", "repeat"):
                            label = f"lib/{entry}/{dim}/{name}/{outputs}/{r:g}/{call}"
                            yield label, result(lambda: getattr(dk, entry)(*args))
        pairs = rng.choice([-2.5, -1.0, -0.0, 0.0, 0.75, 1.0, 3.2], size=(40, 2 * dim))
        pairs[30:] = pairs[:10]
        x, y = pairs[:, :dim], pairs[:, dim:]
        for entry, r in (("kernel_alpha", 1.0), ("kernel_smoothed", 0.7),
                         ("kernel_spectral", 1.0), ("kernel_spectral", 0.6)):
            extra = () if entry == "kernel_alpha" else (r,)
            kernel = getattr(dk, entry)
            yield f"lib/{entry}/{dim}/pairs/points/{r:g}/batch", result(lambda: kernel(plan, x, y, *extra))
            yield f"lib/{entry}/{dim}/pairs/points/{r:g}/single", result(
                lambda: [kernel(plan, a, b, *extra) for a, b in zip(x, y)])
        spectral_inputs = {"expansion": expansion, "array": inputs["array"]}
        for degree in (plan.M - 2, plan.M + 2):
            other = dk.HermiteBasis(mult, degree)
            spectral_inputs[f"expansion-deg{degree}"] = dk.HermiteExpansion(
                other, rng.standard_normal(other.size) + 1j * rng.standard_normal(other.size))
        spectral = (("fdt_spectral", 1.0, lambda f: dk.fdt_spectral(f, plan).coefficients),
                    ("fdt_spectral", 0.6, lambda f: dk.fdt_spectral(f, plan, 0.6).coefficients),
                    ("hermite_expand", 1.0, lambda f: dk.transform.hermite_expand(f, plan).coeffs))
        for name, f in spectral_inputs.items():
            for entry, r, run in spectral:
                for call in ("first", "repeat"):
                    yield f"lib/{entry}/{dim}/{name}/coefficients/{r:g}/{call}", result(lambda: run(f))
        if dim == 1:
            radii = np.linspace(0.0, 4.0, 9)
            for nu in (-0.5, 0.5, 1.7):
                yield f"lib/fractional_hankel/1/nu={nu:g}/radii", result(
                    lambda: dk.fractional_hankel(lambda y: np.exp(-0.5 * y * y) * (1.0 + 0.3j * y * y),
                                                 nu, plan, radii))

    axis = 1j * np.linspace(0.0, 80.0, 101)
    spiral = np.linspace(0.3, 79.0, 37) * np.exp(1j * np.linspace(0.05, 6.2, 37))
    for nu in (-0.5, -0.2, 0.0, 0.7):
        for points, u in (("axis", axis), ("complex", spiral)):
            yield f"lib/normalized_ibessel/1/nu={nu:g}/{points}", result(
                lambda: dk.normalized_ibessel(nu, u))
    radii = (0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0, 10.0, 20.0)
    angles = np.linspace(0.0, 2.8, 9)
    units = {1: [np.array([(-1.0) ** k]) for k in range(9)],
             2: [np.array([math.cos(t), math.sin(t)]) for t in angles],
             3: [np.array([math.cos(t), math.sin(t) * math.cos(2 * t), math.sin(t) * math.sin(2 * t)])
                 for t in angles]}
    for mu in ((0.0,), (0.5,), (0.0, 0.0), (0.3, 0.7), (0.0, 0.0, 0.0), (0.3, 0.7, 0.2)):
        mult = dk.Multiplicity(mu)
        label = "mu=" + ",".join(f"{m:g}" for m in mu)
        xs = [radius * unit for radius, unit in zip(radii, units[mult.dim])]
        yield f"lib/funk_hecke_radial/{mult.dim}/{label}/sphere", result(
            lambda: [dk.funk_hecke_radial(mult, x) for x in xs])
    for mu in ((0.0, 0.0), (0.3, 0.7)):
        mult = dk.Multiplicity(mu)
        label = "mu=" + ",".join(f"{m:g}" for m in mu)
        for n in (1 << 12, 1000):
            yield f"lib/circle_identity_residual/2/{label}/circle{n}", result(
                lambda: dk.quadrature.circle_identity_residual(mult, n))
    for mu in ([0.5], [0.3, 0.7], [0.2, 0.5, 0.4]):
        mult = dk.Multiplicity(mu)
        for label, grid_args in (("default", {}), ("L=6,n=24", {"L": 6.0, "n": 24})):
            grid = dk.build_grid(mult, **grid_args)
            for name in ("nodes", "weights", "points_per_axis"):
                yield f"lib/build_grid/{mult.dim}/{label}/{name}", result(lambda: getattr(grid, name))
    tiny = np.nextafter(0.0, 1.0)
    far = np.array([-1e300, -45.0, -40.0, -39.999, 0.5, 39.5, 40.0, 41.0, 1e200])
    small = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -3e-320, 1e-300, 2.2250738585072014e-308, -1e-160])
    for mu in (0.0, 0.3, 0.5, 1.7):
        mult = dk.Multiplicity([mu])
        points = {"grid": dk.build_grid(mult).axes_nodes[0], "past_reach": far, "subnormal": small}
        for M in (24, 100):
            basis = dk.HermiteBasis(mult, M)
            for name, t in points.items():
                yield f"lib/axis_matrix/1/mu={mu:g}/M={M}/{name}", result(lambda: basis.axis_matrix(0, t))


def _edge_expansions(dk, basis):
    """The N = 1 edge-case expansions of ``_library_runs``: trailing zero
    coefficients (the last one -0.0, and a signed zero inside), the zero
    expansion, h_0 alone, and a basis of degree 30, above the plan's M = 24."""
    import numpy as np

    rng = np.random.default_rng(23)
    tail = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    tail[1], tail[4:], tail[-1] = complex(-0.0, 0.0), 0.0, complex(-0.0, -0.0)
    wide = dk.HermiteBasis(basis.mult, 30)
    return {
        "expansion-tail0": dk.HermiteExpansion(basis, tail),
        "expansion-zero": dk.HermiteExpansion(basis, np.zeros(basis.size)),
        "expansion-h0": dk.HermiteExpansion.from_terms(basis, {(0,): 0.8 - 0.6j}),
        "expansion-deg30": dk.HermiteExpansion(
            wide, rng.standard_normal(wide.size) + 1j * rng.standard_normal(wide.size)),
    }


def _library_lines(keep):
    """(label, sha1) of every library run; with keep, each result is also
    saved under it by ``_keep_result``."""
    for label, result in _library_runs():
        if isinstance(result, str):
            data = result.encode()
        else:
            data = f"{result.dtype} {result.shape}\n".encode() + result.tobytes()
        if keep is not None:
            _keep_result(keep / label, result)
        yield label, hashlib.sha1(data).hexdigest()


def _keep_result(path, result):
    """Save a library result as ``<path>.npy``, or its refusal's text as
    ``<path>.err``."""
    import numpy as np

    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(result, str):
        path.with_name(path.name + ".err").write_text(result, encoding="utf-8")
    else:
        np.save(path.with_name(path.name + ".npy"), result, allow_pickle=False)


def _cli_runs(seeds, tmp, keep):
    """(label, sha1) of every CLI run, each a fresh process working in tmp;
    with keep, each run's files are also written under it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    for i, (label, config) in enumerate(_runs(seeds)):
        cfg_path = tmp / f"config{i}.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        for fmt in ("csv", "json"):
            out_dir = tmp / f"out{i}-{fmt}"
            proc = subprocess.run(
                [sys.executable, "-m", "dunkl_frft.cli", "--config", str(cfg_path),
                 "--out", str(out_dir), "--format", fmt],
                env=env, capture_output=True, text=True, cwd=tmp,
            )
            out_dir.mkdir(exist_ok=True)
            stdout, stderr = _clean(proc.stdout, tmp), _clean(proc.stderr, tmp)
            run = f"{label}/{fmt}"
            if keep is not None:
                _keep(keep / run, proc.returncode, stdout, stderr, out_dir)
            yield run, _digest(proc.returncode, stdout, stderr, out_dir)


def _clean(stream, tmp):
    return stream.replace(str(ROOT), "<root>").replace(str(tmp), "<tmp>")


def _digest(code, stdout, stderr, out_dir):
    h = hashlib.sha1()
    h.update(f"exit {code}\n".encode())
    for stream in (stdout, stderr):
        h.update(stream.encode())
        h.update(b"\0")
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out_dir)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _keep(run_dir, code, stdout, stderr, out_dir):
    run_dir.mkdir(parents=True)
    (run_dir / "exit").write_text(f"{code}\n", encoding="utf-8")
    (run_dir / "stdout").write_text(stdout, encoding="utf-8")
    (run_dir / "stderr").write_text(stderr, encoding="utf-8")
    shutil.copytree(out_dir, run_dir / "out")


class _Mismatch(Exception):
    """A difference between two kept runs that is not a change of number."""


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _largest_json(a, b, where):
    """Largest |a - b| over the numbers of two json values of one shape."""
    if _is_number(a) and _is_number(b):
        if a == b or math.isnan(a) and math.isnan(b):
            return 0.0
        if math.isnan(a) or math.isnan(b):
            raise _Mismatch(f"{where}: {a!r} != {b!r}")
        return abs(a - b)
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            raise _Mismatch(f"{where}: keys {list(a)} != {list(b)}")
        return max((_largest_json(a[k], b[k], f"{where}.{k}") for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise _Mismatch(f"{where}: length {len(a)} != {len(b)}")
        return max((_largest_json(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))),
                   default=0.0)
    if a != b or type(a) is not type(b):
        raise _Mismatch(f"{where}: {a!r} != {b!r}")
    return 0.0


def _largest_csv(a, b, where):
    """Largest |a - b| over the numeric cells of two csv results; comment
    lines (version, config, columns) and text cells must match."""
    rows = [list(csv.reader(text.splitlines())) for text in (a, b)]
    if len(rows[0]) != len(rows[1]):
        raise _Mismatch(f"{where}: {len(rows[0])} lines != {len(rows[1])}")
    worst = 0.0
    for i, (x, y) in enumerate(zip(*rows)):
        if x and x[0].startswith("#") or len(x) != len(y):
            if x != y:
                raise _Mismatch(f"{where} line {i + 1}: {x} != {y}")
            continue
        worst = max(worst, _largest_json([_cell(c) for c in x], [_cell(c) for c in y],
                                         f"{where} line {i + 1}"))
    return worst


def _compare_run(old, new):
    """(largest numeric difference, whether any byte differs) between two
    kept CLI runs, or _Mismatch."""
    for name in ("exit", "stderr"):
        if (old / name).read_bytes() != (new / name).read_bytes():
            raise _Mismatch(f"{name} differs")
    masked = [_NUMBER.sub("#", (d / "stdout").read_text(encoding="utf-8")) for d in (old, new)]
    if masked[0] != masked[1]:
        raise _Mismatch("stdout differs beyond its numbers")
    files = [sorted(p.relative_to(d / "out") for p in (d / "out").rglob("*") if p.is_file())
             for d in (old, new)]
    if files[0] != files[1]:
        raise _Mismatch(f"files {[str(f) for f in files[0]]} != {[str(f) for f in files[1]]}")
    worst = 0.0
    changed = (old / "stdout").read_bytes() != (new / "stdout").read_bytes()
    for rel in files[0]:
        a, b = ((d / "out" / rel).read_text(encoding="utf-8") for d in (old, new))
        if a == b:
            continue
        changed = True
        if rel.suffix == ".json":
            worst = max(worst, _largest_json(json.loads(a), json.loads(b), str(rel)))
        else:
            worst = max(worst, _largest_csv(a, b, str(rel)))
    return worst, changed


def _compare_result(old, new):
    """(largest |old - new|, whether any byte differs) between two kept
    library results, or _Mismatch: a refusal on one side only or with
    another text, another dtype or shape, or a NaN on one side only."""
    import numpy as np

    if old.suffix != new.suffix:
        raise _Mismatch(f"{old.suffix} != {new.suffix}")
    if old.suffix == ".err":
        a, b = (p.read_text(encoding="utf-8") for p in (old, new))
        if a != b:
            raise _Mismatch(f"{a!r} != {b!r}")
        return 0.0, False
    a, b = (np.load(p, allow_pickle=False) for p in (old, new))
    if (a.dtype, a.shape) != (b.dtype, b.shape):
        raise _Mismatch(f"{a.dtype} {a.shape} != {b.dtype} {b.shape}")
    if np.any(np.isnan(a) != np.isnan(b)):
        raise _Mismatch("NaN on one side only")
    with np.errstate(invalid="ignore"):
        diff = np.where((a == b) | np.isnan(a), 0.0, np.abs(a - b))
    return float(diff.max(initial=0.0)), a.tobytes() != b.tobytes()


def _kept(root):
    """{run: path} of a --keep tree: a CLI run's directory, which holds its
    ``exit`` file, and a library result's .npy or .err file."""
    runs = {p.parent.relative_to(root): p.parent for p in root.rglob("exit")}
    runs.update((p.relative_to(root).with_suffix(""), p) for p in root.glob("lib/**/*")
                if p.suffix in (".npy", ".err"))
    return runs


def numeric_diff(old_root, new_root):
    """Print every kept run, CLI run or library result, that differs between
    two --keep trees; return 1 if any difference is not a change of number."""
    runs = [_kept(root) for root in (old_root, new_root)]
    flagged = same = 0
    for run in sorted(runs[0].keys() | runs[1].keys()):
        if run not in runs[0] or run not in runs[1]:
            print(f"FLAG {run}: only in {old_root if run in runs[0] else new_root}")
            flagged += 1
            continue
        old, new = runs[0][run], runs[1][run]
        try:
            compare = _compare_run if old.is_dir() and new.is_dir() else _compare_result
            worst, changed = compare(old, new)
        except _Mismatch as exc:
            print(f"FLAG {run}: {exc}")
            flagged += 1
            continue
        if changed:
            print(f"{run} max|diff| {worst:.3g}")
        else:
            same += 1
    print(f"{len(runs[0].keys() | runs[1].keys()) - same} run(s) differ, {flagged} flagged, "
          f"{same} identical")
    return 1 if flagged else 0


def _check_rows(root):
    """{suite: [(name, residual, tolerance), ...]} from a --keep tree's json
    check runs."""
    out = {}
    for path in sorted(root.glob("check/*/json/out/result.json")):
        rows = json.loads(path.read_text(encoding="utf-8"))["rows"]
        out[path.parts[-4]] = [(name, resid, tol) for name, resid, tol, _ in rows]
    return out


def residuals(old_root, new_root):
    """Print the before/after residual table of two --keep trees' check
    suites; return 1 if any row leaves its gate, lacks a partner or changed
    its gate."""
    old, new = _check_rows(old_root), _check_rows(new_root)
    print("| suite | check row | before | after | gate | inside gate |")
    print("|---|---|---|---|---|---|")
    left = 0
    for suite in sorted(old.keys() | new.keys()):
        before = {name: (resid, tol) for name, resid, tol in old.get(suite, [])}
        after = {name: (resid, tol) for name, resid, tol in new.get(suite, [])}
        names = [name for name, _, _ in new.get(suite, [])]
        names += [name for name, _, _ in old.get(suite, []) if name not in after]
        for name in names:
            b, a = before.get(name), after.get(name)
            gates = [part[1] for part in (b, a) if part is not None]
            same_gate = len(set(gates)) == 1
            inside = b is not None and a is not None and same_gate and a[0] <= a[1]
            left += not inside
            cells = [f"{part[0]:.10e}" if part is not None else "missing" for part in (b, a)]
            gate = f"{gates[0]:g}" if same_gate else " -> ".join(f"{g:g}" for g in gates)
            label = name.replace("|", "\\|")
            print(f"| {suite} | {label} | {cells[0]} | {cells[1]} | {gate} | "
                  f"{'yes' if inside else 'no'} |")
    return 1 if left else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[301, 7])
    parser.add_argument("--compare", metavar="FILE", type=Path, default=None,
                        help="diff against digest lines saved from another checkout")
    parser.add_argument("--keep", metavar="DIR", type=Path, default=None,
                        help="also write every run's exit code, streams and files under DIR")
    parser.add_argument("--numeric-diff", metavar=("OLD", "NEW"), type=Path, nargs=2,
                        help="compare two --keep trees by value instead of running")
    parser.add_argument("--residuals", metavar=("OLD", "NEW"), type=Path, nargs=2,
                        help="print the check suites' residual table of two --keep trees")
    parser.add_argument("--library", action="store_true",
                        help="digest in-process kernel-route runs instead of CLI runs")
    args = parser.parse_args(argv)
    if args.numeric_diff:
        return numeric_diff(*args.numeric_diff)
    if args.residuals:
        return residuals(*args.residuals)
    saved = None
    if args.compare is not None:
        saved = dict(line.split() for line in args.compare.read_text().splitlines() if line)
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        runs = _library_lines(args.keep) if args.library else _cli_runs(args.seeds, Path(tmp), args.keep)
        for run, digest in runs:
            if saved is None:
                print(f"{run} {digest}", flush=True)
            elif saved.pop(run, None) != digest:
                differ.append(run)
                print(f"differs: {run}", flush=True)
    if saved is None:
        return 0
    for run in saved:
        print(f"differs: {run} (not run here)")
    differ += list(saved)
    print(f"{len(differ)} run(s) differ from {args.compare}" if differ
          else f"every run matches {args.compare}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
