"""dunkl-frft benchmark: one command, three workloads, end-to-end and
per-layer metrics.

    python3 bench/run.py --workload {repeat_orders,cli_jobs,check_gate} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics, timed with nothing
instrumented; with ``--trace 1`` a fixed, seed-determined request set runs
with every layer boundary instrumented and the line carries the per-layer
metrics, whose counters repeat exactly for a given seed.  The line before
it is the run record: machine, versions, calibration probe, request mix,
failures by id, tolerance headroom and the untimed integral-route census.
``bench/selfcheck.py`` exercises the harness itself at tiny sizes.

BENCHMARK.json lists repeat_orders and cli_jobs.  check_gate, one pass of
the acceptance gate, runs on demand only: on a shared 2-core VM a single
35-65 s pass per run follows the host's minute-scale speed drift, and its
spread over ten runs (0.27 of the median) exceeds any bound the benchmark
may set.  The traced cli_jobs run includes the gate's check jobs, so the
gate's layers are still measured.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, fixed before numpy loads: the library's results are
# bit-reproducible only single-threaded, and a closed loop on a shared
# box times one core.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("repeat_orders", "cli_jobs", "check_gate")
SETUP_REPEATS = 7
TRACE_REPEAT_REQUESTS = 96
CENSUS_REQUESTS = 24
MIN_SAMPLES = 100
LOOP_WALL_CAP_S = 120.0
TINY_SUITES = ("basis", "projection_algebra")


def _load_library():
    """Import dunkl_frft from this checkout's src/, or exit 2."""
    if not (SRC / "dunkl_frft" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'dunkl_frft'}; run from a source checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import dunkl_frft

    if Path(dunkl_frft.__file__).resolve().parent != (SRC / "dunkl_frft").resolve():
        print(f"error: imported {dunkl_frft.__file__}, not the checkout's", file=sys.stderr)
        raise SystemExit(2)
    return dunkl_frft


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--corrupt-ref", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    args.rng_seed = args.seed % (1 << 63)
    return args


# ---------------------------------------------------------------------------
# run record


def run_record(args):
    import numpy as np
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def calibration_s():
    """Fixed numpy/scipy work, timed in every run so machine drift shows.
    Reported only; never used to rescale results."""
    import numpy as np
    from scipy import special

    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
    t = rng.uniform(0.0, 60.0, 50_000)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        b = a @ a
        v = special.jv(0.3, t)
        times.append(time.perf_counter() - start)
    del b, v
    return statistics.median(times)


class SetupProbes:
    """The workload's set-up time, from interpreter start, measured in
    SETUP_REPEATS fresh interpreters spread evenly over the run, so a slow
    phase of the machine weighs in only for its share of the run.  The
    caller reports its progress through the run as a fraction."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", "0", "--probe-setup"]
        self.count = 0 if args.trace else (1 if args.tiny else SETUP_REPEATS)
        self.values = []

    def tick(self, progress):
        while len(self.values) < self.count and progress * self.count >= len(self.values):
            proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
            self.values.append(float(proc.stdout.strip().splitlines()[-1]))

    def median(self):
        self.tick(math.inf)
        return statistics.median(self.values)


def probe_setup(args):
    """Set-up as the workload pays it, from interpreter start: for the CLI
    workloads, what the forkserver preloads."""
    _load_library()
    import workloads

    if args.workload == "repeat_orders":
        workloads.repeat_orders_setup()
    else:
        import dunkl_frft.cli  # noqa: F401
    print(repr(time.perf_counter() - T0))


# ---------------------------------------------------------------------------
# summaries


def latency_summary(outcomes):
    """Percentiles of request latency; throughput is requests per second of
    request time, so the benchmark's own reference work is left out."""
    import numpy as np

    lat = [o.latency_s for o in outcomes]
    p50, p90 = np.percentile(lat, [50, 90])
    busy = sum(lat)
    return {
        "latency_p50_s": float(p50),
        "latency_p90_s": float(p90),
        "throughput_rps": len(lat) / busy,
        "samples": len(lat),
        "beyond_p90": sum(1 for x in lat if x > p90),
        "busy_s": busy,
    }


def headroom(outcomes):
    vals = [o.extra.get("headroom", o.headroom) for o in outcomes]
    vals = [v for v in vals if v is not None]
    return min(vals) if vals else None


def failures(outcomes):
    return [{"id": o.id, "kind": o.kind, "why": o.why} for o in outcomes if not o.ok]


def mix(outcomes):
    """Request count and median latency per kind."""
    by_kind = {}
    for o in outcomes:
        by_kind.setdefault(o.kind, []).append(o.latency_s)
    return {k: {"n": len(v), "p50_s": statistics.median(v)} for k, v in sorted(by_kind.items())}


def peak_rss_mb_self():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def span_cost_s(tracer_mod):
    """Per-span bookkeeping cost of the instrumentation, on a wrapped no-op.
    The work counters' own time is measured separately (trace.counter_s)."""
    tr = tracer_mod.Tracer()

    def noop(a, b=None):
        return a

    wrapped = tr.span("noop", noop)
    n = 20_000
    start = time.perf_counter()
    for i in range(n):
        wrapped(i)
    traced = time.perf_counter() - start
    start = time.perf_counter()
    for i in range(n):
        noop(i)
    return max(0.0, (traced - (time.perf_counter() - start)) / n)


# ---------------------------------------------------------------------------
# workloads


def _budget(args, busy, wall_start, count, unit):
    """Closed loop, ended on a whole cycle of ``unit`` requests once
    --seconds of request time and enough samples for ten beyond p90 are
    in, or at a wall-clock cap that keeps a run inside 180 s."""
    if time.perf_counter() - wall_start > LOOP_WALL_CAP_S:
        return False
    if count == 0 or count % unit:
        return True
    return busy < args.seconds or (count < MIN_SAMPLES and not args.tiny)


def run_repeat_orders(args, record, probes):
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        tracer.request = "setup"
    ops = workloads.repeat_orders_setup()
    load = workloads.RepeatOrders(args.rng_seed, ops)
    outcomes = []
    wall_start = time.perf_counter()
    busy = 0.0
    limit = (6 if args.tiny else TRACE_REPEAT_REQUESTS) if args.trace else None
    unit = len(load.cycle)
    probes.tick(0.0)
    while (len(outcomes) < limit) if limit else _budget(args, busy, wall_start, len(outcomes), unit):
        if tracer is not None:
            tracer.request = f"r{load.count}"
        out = load.run_one(corrupt_id=args.corrupt_ref)
        busy += out.latency_s
        outcomes.append(out)
        probes.tick(busy / args.seconds)
    record["cycle"] = [op.name for op in load.cycle]
    e2e = {"peak_rss_mb": peak_rss_mb_self()}
    return outcomes, e2e, ([tracer.summary()] if tracer else []), (tracer.spans if tracer else []), {}


def _cli_loop(args, record, jobs, check, probes, unit=None, limit=None):
    """Run jobs from the iterator ``jobs``, each in a fresh forkserver
    child, either ``limit`` of them or under ``_budget`` in whole cycles of
    ``unit``."""
    import workloads

    work = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    outcomes, summaries, spans = [], [], []
    extra = {"cli.bytes_written": 0, "cli.exit.0": 0, "cli.exit.1": 0, "cli.exit.2": 0}
    peak_kb = 0
    busy = 0.0
    try:
        ctx = workloads.forkserver_context(args.trace, work.parent)
        probes.tick(0.0)
        wall_start = time.perf_counter()
        for job in jobs:
            if limit is not None and len(outcomes) >= limit:
                break
            if limit is None and not _budget(args, busy, wall_start, len(outcomes), unit):
                break
            code, elapsed, result, stderr, written, usage, trace = workloads.run_cli_job(
                ctx, job, work, args.trace)
            extra["cli.bytes_written"] += written
            extra[f"cli.exit.{code}"] = extra.get(f"cli.exit.{code}", 0) + 1
            peak_kb = max(peak_kb, usage["maxrss_kb"])
            if "Traceback" in stderr:
                out = workloads.Outcome(job.id, job.kind, why="traceback: " + stderr.strip().splitlines()[-1])
            elif result is None:
                out = workloads.Outcome(job.id, job.kind, why=f"exit {code}: {stderr.strip()[-200:]}")
            else:
                out = check(job, result, corrupt=(job.id == args.corrupt_ref))
                if code != 0 and out.ok:
                    out.ok, out.why = False, f"exit {code}"
            out.latency_s = elapsed
            out.extra["cpu_s"] = usage["cpu_s"]
            out.extra["input"] = json.dumps(job.config, sort_keys=True)
            busy += out.latency_s
            outcomes.append(out)
            if trace is not None:
                summaries.append(trace["summary"])
                spans.extend(trace["spans"])
            probes.tick(len(outcomes) / limit if limit else busy / args.seconds)
    finally:
        workloads.stop_forkserver()
        shutil.rmtree(work, ignore_errors=True)
    return outcomes, {"peak_rss_mb": peak_kb / 1024.0}, summaries, spans, extra


def run_cli_jobs(args, record, probes):
    import numpy as np
    import workloads

    refs = workloads.References()
    rng = np.random.default_rng(args.rng_seed)

    def check(job, result, corrupt):
        return workloads.check_job(job, result, refs, corrupt)

    deck = 6 if args.tiny else len(workloads.JOB_KINDS)
    if args.trace:
        # One deck, then one check job per suite: the traced run also
        # measures the layers only the acceptance gate reaches (the circle
        # rule, Funk-Hecke, the generator), since check_gate is not among
        # the workloads BENCHMARK.json lists.
        gate = workloads.gate_jobs(args.rng_seed, _suites(args))
        jobs = itertools.chain(itertools.islice(workloads.job_stream(rng), deck), gate)
        result = _cli_loop(args, record, jobs, check, probes, limit=deck + len(gate))
        record["gate_pass_traced_s"] = sum(o.latency_s for o in result[0] if o.kind.startswith("check-"))
        record["traced_deck_busy_s"] = sum(o.latency_s for o in result[0] if not o.kind.startswith("check-"))
    else:
        result = _cli_loop(args, record, workloads.job_stream(rng), check, probes, unit=deck)
        census_rng = np.random.default_rng([args.rng_seed, 1])
        cens = workloads.census(census_rng, refs, 2 if args.tiny else CENSUS_REQUESTS)
        fails = [dict(id=o.id, kind=o.kind, why=o.why, alpha=o.extra["alpha"]) for o in cens if not o.ok]
        record["census"] = {
            "what": "untimed integral-route requests, alpha uniform on (-pi, pi]",
            "attempted": len(cens),
            "failed": len(fails),
            "failed_frac": len(fails) / len(cens),
            "failed_ids": fails,
            "tol_headroom_digits": headroom(cens),
        }
    return result


def _suites(args):
    from dunkl_frft.checks import SUITES

    return TINY_SUITES if args.tiny else list(SUITES)


def run_check_gate(args, record, probes):
    import workloads

    jobs = workloads.gate_jobs(args.rng_seed, _suites(args))
    outcomes, e2e, summaries, spans, extra = _cli_loop(args, record, iter(jobs), workloads.check_gate_result,
                                                       probes, limit=len(jobs))
    record["gate_pass_s"] = sum(o.latency_s for o in outcomes)
    record["suite_s"] = {o.kind: o.latency_s for o in outcomes}
    record["gate_pass_cpu_s"] = sum(o.extra["cpu_s"] for o in outcomes)
    return outcomes, e2e, summaries, spans, extra


RUNNERS = {"repeat_orders": run_repeat_orders, "cli_jobs": run_cli_jobs, "check_gate": run_check_gate}


def main(argv=None):
    args = _parse(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0
    _load_library()
    record = run_record(args)
    record["calibration_s"] = calibration_s()
    probes = SetupProbes(args)
    outcomes, e2e, summaries, spans, extra = RUNNERS[args.workload](args, record, probes)
    record["calibration_after_s"] = calibration_s()
    if not args.trace:
        setup_median = probes.median()
        record["setup_probe_s"] = probes.values

    fails = failures(outcomes)
    lat = latency_summary(outcomes)
    if args.workload == "check_gate":
        # The gate's request is one pass over every suite; a median over
        # 13 suites of unlike size would be one suite's time.
        gate = record["gate_pass_s"]
        lat.update(latency_p50_s=gate, latency_p90_s=gate, throughput_rps=1.0 / gate, samples=1, beyond_p90=0)
    record["requests"] = mix(outcomes)
    record["attempted"] = len(outcomes)
    record["failed"] = len(fails)
    record["failed_frac"] = len(fails) / len(outcomes)
    record["failed_ids"] = fails
    record["tol_headroom_digits"] = headroom(outcomes)
    record["inputs_sha1"] = hashlib.sha1("\n".join(o.extra["input"] for o in outcomes).encode()).hexdigest()
    grams = [o.extra["gram_residual"] for o in outcomes if "gram_residual" in o.extra]
    if grams:
        record["basis_gram_residual_max"] = max(grams)
    record["latency_samples"] = lat["samples"]
    record["latency_beyond_p90"] = lat["beyond_p90"]

    if args.trace:
        import tracer as tracing

        agg = tracing.merge(summaries)
        metrics = tracing.layer_metrics(agg, extra)
        per_span = span_cost_s(tracing)
        metrics["trace.requests"] = {"value": len(outcomes), "unit": "count"}
        metrics["trace.busy_s"] = {"value": lat["busy_s"], "unit": "s"}
        metrics["trace.span_cost_s"] = {"value": per_span, "unit": "s"}
        # An estimate: span bookkeeping at the no-op rate plus the measured
        # counter time.  The measured overhead is traced minus untraced.
        metrics["trace.overhead_est_s"] = {"value": per_span * agg["spans"] + agg["counter_s"], "unit": "s"}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-s{args.seed}.jsonl"
        with open(span_file, "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(dict(zip(("id", "parent", "request", "name", "start", "end"), s))) + "\n")
        record["span_file"] = str(span_file.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": {"value": setup_median, "unit": "s"},
            "latency_p50_s": {"value": lat["latency_p50_s"], "unit": "s"},
            "latency_p90_s": {"value": lat["latency_p90_s"], "unit": "s"},
            "throughput_rps": {"value": lat["throughput_rps"], "unit": "1/s"},
            "peak_rss_mb": {"value": e2e["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({"correct": not fails, "attempted": len(outcomes), "failed": len(fails),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
