"""Self-test of the benchmark harness at tiny sizes.

    python3 bench/selfcheck.py

Checks that every metric named in BENCHMARK.json prints with its unit on
every workload, in both modes; that a deliberately corrupted reference
shows up as a failed request on each workload; that one seed run twice
gives identical generated inputs and work counters; and that the
benchmark refuses, without a result line, in a directory holding only
BENCHMARK.json and the benchmark's own files.  Exits 0 when all hold.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("repeat_orders", "cli_jobs", "check_gate")
CORRUPT = {"repeat_orders": "r0", "cli_jobs": "j0", "check_gate": "g0-basis"}
EXACT_UNITS = ("count", "flop", "B", "ratio")


def run(workload, seed, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=cwd)
    return proc


def parse(proc):
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            problems.append(what)

    traced = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, record = parse(run(workload, 7, trace))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], f"{workload} trace={trace}: every metric with its unit")
            expect(result["attempted"] >= 1 and result["failed"] == 0 and result["correct"],
                   f"{workload} trace={trace}: tiny run verified, no failures")
            if trace:
                traced[workload] = (result, record)

    for workload in WORKLOADS:
        result, record = parse(run(workload, 7, 0, "--corrupt-ref", CORRUPT[workload]))
        ids = [f["id"] for f in record["failed_ids"]]
        expect(ids == [CORRUPT[workload]] and not result["correct"],
               f"{workload}: corrupted reference of {CORRUPT[workload]} reported as failed ({ids})")

    for workload in ("repeat_orders", "cli_jobs"):
        first_result, first_record = traced[workload]
        result, record = parse(run(workload, 7, 1))
        expect(record["inputs_sha1"] == first_record["inputs_sha1"],
               f"{workload}: same seed, identical generated inputs")
        counters = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in EXACT_UNITS}
        before = {k: v["value"] for k, v in first_result["metrics"].items() if v["unit"] in EXACT_UNITS}
        expect(counters == before, f"{workload}: same seed, identical work counters ({len(counters)})")
        _, other = parse(run(workload, 8, 1))
        expect(other["inputs_sha1"] != first_record["inputs_sha1"],
               f"{workload}: another seed, other inputs")

    bare = ROOT / ".bench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run("repeat_orders", 7, 0, cwd=bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and '"correct"' not in last[0],
           f"bare directory: exit {proc.returncode}, no result line")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
