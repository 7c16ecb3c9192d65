#!/usr/bin/env python3
"""Host-wall benchmark of SIMAS: build, run one workload, report.

Run from the root of a SIMAS checkout:

  python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --all [--seed 1] [--seconds 10]   # every workload
  python3 perfbench/run.py --self-test                       # short check

BENCHMARK.json lists solve and ensemble; small_um runs the same way but is
not listed there (perfbench/rationale.json says why).

The first call builds perfbench/ (which compiles src/) with CMake into
$CARGO_TARGET_DIR, default .bench_build, under a perfbench/ subdirectory.
A single-workload run prints the program's own report, then one JSON line
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Workloads, metrics and the reasons for them are in perfbench/rationale.json.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve", "small_um", "ensemble")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def run_quiet(cmd):
    """Run a build step; its output goes to stderr, never to stdout."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
    return proc.returncode == 0


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"SIMAS sources not found under {ROOT}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    configure = ["cmake", "-S", str(HERE), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", str(bdir), "-j", str(os.cpu_count() or 1)]
    for attempt in range(2):
        if attempt == 1:
            shutil.rmtree(bdir, ignore_errors=True)  # stale cache: start over
        if (bdir / "CMakeCache.txt").exists() or run_quiet(configure):
            if run_quiet(compile_):
                return bdir / "simas_perf"
    fail("build failed")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def run_program(exe, workload, seed, seconds, trace, quick=False):
    """Run one workload; returns (exit code, human lines, parsed result)."""
    workdir = exe.parent / f"work-{os.getpid()}"
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", str(workdir)]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    return proc.returncode, lines, result


def check_metrics(result, trace):
    """Every metric BENCHMARK.json names, with its unit and a finite value."""
    want = expected_metrics(trace)
    got = result["metrics"]
    problems = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append(f"{name}: missing")
        elif name not in want:
            problems.append(f"{name}: not in BENCHMARK.json")
        elif got[name]["unit"] != want[name]:
            problems.append(f"{name}: unit {got[name]['unit']} != {want[name]}")
        elif not isinstance(got[name]["value"], (int, float)) or \
                not math.isfinite(got[name]["value"]):
            problems.append(f"{name}: value {got[name]['value']} not finite")
    return problems


def single(args):
    exe = build()
    rc, lines, result = run_program(exe, args.workload, args.seed,
                                    args.seconds, args.trace)
    for line in lines:
        print(line)
    if result is None:
        fail(f"{args.workload} printed no result (exit {rc})")
    problems = check_metrics(result, args.trace)
    if problems:
        fail("metric contract broken: " + "; ".join(problems))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()
    return 0 if rc == 0 and result["correct"] else 1


def summary(args):
    """Every end-to-end metric, by the names the workloads' users know."""
    exe = build()
    status = 0
    rows = []
    for workload in WORKLOADS:
        rc, lines, result = run_program(exe, workload, args.seed,
                                        args.seconds, False)
        if result is None or rc != 0 or not result["correct"]:
            print("\n".join(lines))
            print(f"{workload}: FAILED (exit {rc})")
            status = 1
            if result is None:
                continue
        m = {k: v["value"] for k, v in result["metrics"].items()}
        info = result["info"]
        m["latency_tail_ms"] = info["latency_tail_ms"]
        tail = f"p{info['latency_tail_percentile']:g} of " \
               f"n={info['latency_tail_n']:.0f}"
        failed_frac = result["failed"] / max(1, result["attempted"])
        rows.append((workload, "setup_s", m["setup_s"], "s", ""))
        if workload == "ensemble":
            rows += [
                (workload, "runs_per_hour", 3600 * m["throughput_per_s"],
                 "1/h", ""),
                (workload, "job_service_p50_s", m["latency_p50_ms"] / 1e3,
                 "s", ""),
                (workload, "job_service_tail_s", m["latency_tail_ms"] / 1e3,
                 "s", tail),
            ]
        else:
            rows += [
                (workload, "steps_per_s", m["throughput_per_s"], "1/s", ""),
                (workload, "step_ms_p50", m["latency_p50_ms"], "ms", ""),
                (workload, "step_ms_tail", m["latency_tail_ms"], "ms", tail),
            ]
        rows += [
            (workload, "failed_frac", failed_frac, "ratio",
             f"{result['failed']} of {result['attempted']}"),
            (workload, "peak_rss_mb", m["peak_rss_mb"], "MB", ""),
        ]
    print(f"\nend-to-end metrics (seed {args.seed}, {args.seconds:g} s per "
          "workload)")
    for workload, name, value, unit, note in rows:
        print(f"  {workload:9s} {name:20s} {value:14.6g} {unit:6s} {note}")
    return status


def self_test(_args):
    """Short runs of every workload: each metric is emitted with its unit
    and a finite value, and the exact counts repeat bit for bit across two
    invocations."""
    exe = build()
    seed, seconds = 7, 2
    problems = []
    for workload in WORKLOADS:
        exact = []
        for trace in (False, True, True):
            rc, lines, result = run_program(exe, workload, seed, seconds,
                                            trace, quick=True)
            tag = f"{workload} trace={int(trace)}"
            if result is None or rc != 0 or not result["correct"]:
                print("\n".join(lines))
                problems.append(f"{tag}: run failed (exit {rc})")
                continue
            problems += [f"{tag}: {p}" for p in check_metrics(result, trace)]
            if trace:
                exact.append({k: v for k, v in result["info"].items()
                              if k.startswith("exact.")})
        if len(exact) == 2:
            if not exact[0]:
                problems.append(f"{workload}: no exact counts reported")
            for key in sorted(set(exact[0]) | set(exact[1])):
                a, b = exact[0].get(key), exact[1].get(key)
                if a != b:
                    problems.append(f"{workload}: {key} differs: {a} vs {b}")
            print(f"{workload}: exact counts {json.dumps(exact[0])}")
    for p in problems:
        print(f"SELF-TEST FAILED: {p}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print its end-to-end metrics")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test(args)
    if args.all:
        return summary(args)
    if args.workload is None:
        ap.error("--workload, --all or --self-test is required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
