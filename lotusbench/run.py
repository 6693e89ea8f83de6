#!/usr/bin/env python3
"""Repository benchmark: build, generate seeded inputs, measure one run.

    python3 lotusbench/run.py --workload cold-social --seed 1 --seconds 10 --trace 0
    python3 lotusbench/run.py --self-test

Run from the repository root. The script

1. builds ``lotusbench`` (this directory's CMake project, which compiles the
   library from ``../src``) into ``.bench_build/lotusbench``;
2. generates the workload's inputs for ``--seed`` in a separate process
   (``lotusbench gen``), cached under ``.bench_build/inputs`` so that neither
   ``setup_s`` nor ``peak_rss_mb`` includes generation;
3. runs the measured process (``lotusbench run``), which checks every answer
   against references computed at generation time. A traced run (``--trace 1``)
   also writes its spans to ``.bench_build/traces/<workload>-<seed>.json``.

The last stdout line is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it carries the host fingerprint and
the run's notes. Exit status: 0 when every answer was right, 1 otherwise or
when the build, the inputs or the run failed. See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "lotusbench")
BINARY = os.path.join(BUILD, "lotusbench")
INPUTS = os.path.join(WORK, "inputs")
SCRATCH = os.path.join(WORK, "scratch")
TRACES = os.path.join(WORK, "traces")

WORKLOADS = ["cold-social", "cold-web", "serve-mixed"]
# Graph files of at most this many seeds stay cached per workload; reference
# sidecars are kept for every seed (they are a few hundred bytes).
KEEP_SEEDS = 2
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"lotusbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources under {ROOT}/src; nothing to build")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    compile_cmd = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def evict_old_inputs(workload_dir, keep):
    """Drop graph files of all but the `keep` most recently used seeds."""
    seeds = [os.path.join(workload_dir, d) for d in os.listdir(workload_dir)]
    seeds.sort(key=os.path.getmtime, reverse=True)
    for old in seeds[keep:]:
        for name in os.listdir(old):
            if name.endswith(".gr"):
                os.remove(os.path.join(old, name))


def generate(workload, seed, trace, tiny):
    workload_dir = os.path.join(INPUTS, ("tiny-" if tiny else "") + workload)
    seed_dir = os.path.join(workload_dir, str(seed))
    os.makedirs(seed_dir, exist_ok=True)
    os.utime(seed_dir)
    evict_old_inputs(workload_dir, KEEP_SEEDS)
    cmd = [BINARY, "gen", "--workload", workload, "--seed", str(seed), "--inputs", seed_dir,
           "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    ok = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
    log(f"inputs for {workload} seed {seed} ready in {time.monotonic() - started:.1f} s")
    return seed_dir if ok else None


def measure(workload, seed, seconds, trace, tiny, inputs):
    """Run the measured process; return (exit code, stdout lines)."""
    scratch = os.path.join(SCRATCH, f"{workload}-{os.getpid()}")
    cmd = [BINARY, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--inputs", inputs, "--scratch", scratch]
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        name = f"{'tiny-' if tiny else ''}{workload}-{seed}.json"
        cmd += ["--trace-out", os.path.join(TRACES, name)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
        return proc.returncode, proc.stdout.strip().splitlines()
    except subprocess.TimeoutExpired:
        log(f"measured run exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None
    return result


def run_once(workload, seed, seconds, trace, tiny=False):
    """Returns (exit code, result object or None, detail object or None)."""
    if not build():
        log("build failed")
        return 1, None, None
    inputs = generate(workload, seed, trace, tiny)
    if inputs is None:
        log("input generation or its brute-force self-check failed")
        return 1, None, None
    code, lines = measure(workload, seed, seconds, trace, tiny, inputs)
    result = parse_result(lines)
    detail = None
    if len(lines) >= 2:
        try:
            detail = json.loads(lines[-2]).get("detail")
        except json.JSONDecodeError:
            detail = None
    if result is None:
        log(f"measured run printed no result (exit {code})")
        return 1, None, detail
    if code != 0 or not result["correct"] or result["failed"]:
        first = (detail or {}).get("notes", {}).get("first_failure", "unknown")
        log(f"wrong or failed answers: {first}")
        return 1, result, detail
    return 0, result, detail


def self_test():
    """Tiny instance of every workload, traced (which must leave a trace file)
    and untraced, plus a run whose reference was tampered with, which must be
    reported as wrong."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    spec = None
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, detail = run_once(workload, 1, 0.5, trace, tiny=True)
            if code != 0:
                problems.append(f"{workload} trace={trace}: exit {code}")
                continue
            if trace:
                try:
                    with open(detail["notes"]["trace_file"]) as f:
                        if not json.load(f)["spans"]:
                            problems.append(f"{workload}: the trace file has no spans")
                except (OSError, KeyError, TypeError, json.JSONDecodeError) as e:
                    problems.append(f"{workload}: no readable trace file ({e!r})")
            if spec is not None:
                want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
                if set(result["metrics"]) != want:
                    problems.append(f"{workload} trace={trace}: metrics "
                                    f"{sorted(set(result['metrics']) ^ want)} differ "
                                    "from BENCHMARK.json")
    # A wrong reference must fail the run.
    inputs = generate("cold-social", 2, 0, True)
    ref = os.path.join(inputs, "twtr-f0.02-v0.gr.ref")
    with open(ref) as f:
        text = f.read()
    lines = [(f"triangles {int(l.split()[1]) + 1}" if l.startswith("triangles ") else l)
             for l in text.splitlines()]
    with open(ref, "w") as f:
        f.write("\n".join(lines) + "\n")
    code, lines = measure("cold-social", 2, 0.2, 0, True, inputs)
    result = parse_result(lines)
    if code == 0 or result is None or result["correct"] or not result["failed"]:
        problems.append("a wrong answer was not reported")
    shutil.rmtree(inputs, ignore_errors=True)
    for p in problems:
        log(f"self-test: {p}")
    print(json.dumps({"self_test": "fail" if problems else "ok"}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sized inputs")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    code, result, detail = run_once(args.workload, args.seed, args.seconds, args.trace,
                                    args.tiny)
    if detail is not None:
        print(json.dumps({"detail": detail}))
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
