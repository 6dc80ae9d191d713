#!/usr/bin/env python3
"""End-to-end GSN benchmark: builds the bench program from this checkout and runs one workload.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The bench program's last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.
The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root; run data lives there too and is removed afterwards.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest", "federation", "query_mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the bench program; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no GSN sources at", ROOT / "src")
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("perfbench: build failed:", err)
            return None
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(step))
            return None
    binary = out / "gsn_perfbench"
    return binary if binary.is_file() else None


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_bench(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    data = build_dir() / f"data-{os.getpid()}"
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--data-dir", str(data)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, lines = done.returncode, done.stdout.splitlines()
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        code, lines = 124, []
    finally:
        shutil.rmtree(data, ignore_errors=True)
    return code, lines


def check_result(lines, trace):
    """Returns the parsed result object, or None with the reason logged."""
    if not lines:
        log("perfbench: the bench program printed nothing")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: last line is not JSON:", lines[-1])
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("perfbench: unexpected result keys", sorted(result))
        return None
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m.get("unit") for name, m in result["metrics"].items()}
        if got != expected:
            log("perfbench: metrics differ from BENCHMARK.json:",
                sorted(set(got.items()) ^ set(expected.items())))
            return None
    return result


def main_run(args):
    binary = build()
    if binary is None:
        return 2
    code, lines = run_bench(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    if code != 0:
        return code
    return 0 if check_result(lines, args.trace) is not None else 3


def self_test():
    """Each workload briefly, fixed seed: every metric printed with its unit,
    correctness checks pass, and the same seed gives the same offered-reading
    count and query sequence."""
    binary = build()
    if binary is None:
        return 2
    failures = []
    for workload in WORKLOADS:
        failed_before = len(failures)
        fingerprints = []
        for trace in (False, False, True):
            code, lines = run_bench(binary, workload, 7, 2, trace)
            result = check_result(lines, trace)
            if code != 0 or result is None or not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace={int(trace)}: exit {code}")
                sys.stderr.write("\n".join(lines[-40:]) + "\n")
                continue
            fingerprints += [l for l in lines if l.startswith("offered_readings ")]
        if len(set(fingerprints)) != 1:
            failures.append(f"{workload}: runs with one seed differ: {fingerprints}")
        log(f"self-test {workload}: {'ok' if len(failures) == failed_before else 'FAILED'}")
    for failure in failures:
        log("FAIL", failure)
    print("self-test", "PASS" if not failures else "FAIL")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
