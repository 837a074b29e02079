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
"""

import argparse
import hashlib
import itertools
import json
import os
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


def _digest(code, stdout, stderr, out_dir, tmp):
    h = hashlib.sha1()
    h.update(f"exit {code}\n".encode())
    for stream in (stdout, stderr):
        h.update(stream.replace(str(ROOT), "<root>").replace(str(tmp), "<tmp>").encode())
        h.update(b"\0")
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out_dir)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[301, 7])
    parser.add_argument("--compare", metavar="FILE", type=Path, default=None,
                        help="diff against digest lines saved from another checkout")
    args = parser.parse_args(argv)
    saved = None
    if args.compare is not None:
        saved = dict(line.split() for line in args.compare.read_text().splitlines() if line)
    differ = []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, (label, config) in enumerate(_runs(args.seeds)):
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
                digest = _digest(proc.returncode, proc.stdout, proc.stderr, out_dir, tmp)
                run = f"{label}/{fmt}"
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
