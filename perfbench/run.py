#!/usr/bin/env python3
"""Repository benchmark: one workload, measured in fresh processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload load-congested --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (the library from src/ plus the workload driver) into
.bench_build/, then starts the driver in a fresh process, again and again,
until --seconds have passed. Every process runs the workload once, cold.
After every untraced process it runs the fixed reference kernel
(perfbench/reference.cpp) and expresses the process's times in reference
seconds, which removes most of the host's speed drift. With --trace 0 it
reports the end-to-end metrics, each the median over the processes. With
--trace 1 it alternates untraced and traced processes and reports the
per-layer metrics from the traced ones, plus the tracing overhead.
Outputs are checked on every process; the last line of stdout is the
result object. Samples, provenance and the last traced run's spans are
written to .bench_out/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD, "perfbench-driver")
REFERENCE = os.path.join(BUILD, "perfbench-reference")
# Times are reported in reference seconds: wall seconds * REFERENCE_S /
# (the wall time of the reference kernel run next to them), i.e. wall
# seconds on a host where the kernel takes REFERENCE_S.
REFERENCE_S = 0.3

WORKLOADS = ("load-congested", "sweep-tree", "sweep-faults")
MIN_PROCESSES = 3    # untraced processes per run, whatever --seconds says
PROCESS_TIMEOUT = 60
MEASURE_BUDGET = 150  # stop starting processes after this many seconds


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the Release driver; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "load", "load_gen.hpp")):
        die(f"library sources not found under {ROOT}/src")
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env, cwd=ROOT).returncode != 0:
            die("build failed: " + " ".join(cmd), 3)


def provenance(seed):
    """Git commit (when the checkout is a repository) plus a digest of the
    measured sources, which identifies the code either way."""
    commit = "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, cwd=ROOT,
                             env=env, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, sub)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read() + b"\0")
    return {"git_commit": commit, "source_sha256": h.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed}


def run_driver(workload, seed, mode, trace_out=None, report_out=None):
    cmd = [DRIVER, f"--workload={workload}", f"--seed={seed}",
           f"--mode={mode}"]
    if trace_out:
        cmd.append(f"--trace-out={trace_out}")
    if report_out:
        cmd.append(f"--report-out={report_out}")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           timeout=PROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        die(f"{workload} ({mode}) did not finish in {PROCESS_TIMEOUT} s", 4)
    sys.stderr.write(p.stderr)
    if p.returncode != 0 or not p.stdout.strip():
        die(f"{workload} ({mode}) exited with {p.returncode}", 4)
    return json.loads(p.stdout.strip().splitlines()[-1])


def run_reference():
    try:
        p = subprocess.run([REFERENCE], capture_output=True, text=True,
                           cwd=ROOT, timeout=PROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        die(f"the reference kernel did not finish in {PROCESS_TIMEOUT} s", 4)
    if p.returncode != 0 or not p.stdout.strip():
        die(f"the reference kernel exited with {p.returncode}", 4)
    return json.loads(p.stdout.strip().splitlines()[-1])


def end_to_end(plain):
    """Medians over the untraced processes, each process's times scaled by
    the reference kernel run right after it."""
    def ref_s(s, key):
        return s[key] * REFERENCE_S / s["reference"]["seconds"]
    return {
        "instances_per_s": median(s["attempted"] / ref_s(s, "loop_s")
                                  for s in plain),
        "schedules_per_s": median(s["attempted"] / ref_s(s, "run_s")
                                  for s in plain),
        "setup_s": median(ref_s(s, "setup_s") for s in plain),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in plain),
    }


def per_layer(plain, traced, units, failed, attempted):
    """Every per-layer metric: medians of the traced processes' layers and
    deterministic outcomes, 0 where the workload has no such layer. Times
    (unit s) are scaled by the run's median reference kernel time."""
    slowdown = median(s["reference"]["seconds"] for s in plain) / REFERENCE_S
    values = {}
    for name, unit in units.items():
        xs = [s["layers"].get(name, s["outcomes"].get(name)) for s in traced]
        xs = [x for x in xs if x is not None]
        values[name] = median(xs) if xs else 0.0
        if unit == "s":
            values[name] /= slowdown
    values["bench.host_slowdown"] = slowdown
    values["breach_share"] = traced[0]["breaches"] / traced[0]["attempted"]
    values["failed_share"] = failed / attempted
    values["bench.trace_overhead"] = (median(s["run_s"] for s in traced) /
                                      median(s["run_s"] for s in plain))
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {spec_path}: {e}")
    build()
    prov = provenance(args.seed)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")

    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(run_driver(args.workload, args.seed, "plain",
                                report_out=stem + ".report"
                                if not plain else None))
        plain[-1]["reference"] = run_reference()
        if args.trace:
            traced.append(run_driver(args.workload, args.seed, "traced",
                                     trace_out=stem + ".spans.tsv"))
        elapsed = time.monotonic() - start
        if (elapsed >= args.seconds and len(plain) >= MIN_PROCESSES) or \
                elapsed >= MEASURE_BUDGET:
            break

    # Correctness: every process passed its own checks, and every process
    # (untraced and traced) produced the same deterministic report.
    failures = []
    samples = plain + traced
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    for s in samples:
        failures += [f"{s['mode']}: {f}" for f in s["failures"]]
    digests = {s["report_digest"] for s in samples}
    if len(digests) != 1:
        failures.append("deterministic reports differ across processes: " +
                        ", ".join(sorted(digests)))
        failed += len(samples)
    checksums = {s["reference"]["checksum"] for s in plain}
    if len(checksums) != 1:
        failures.append("the reference kernel's checksum varies: " +
                        ", ".join(str(c) for c in sorted(checksums)))
    correct = not failures and failed == 0

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(plain, traced, units, failed, attempted)
    else:
        values = end_to_end(plain)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = set(units) - set(values)
    extra = set(values) - set(units)
    for s in traced:
        extra |= (set(s["layers"]) | set(s["outcomes"])) - set(units)
    if missing or extra:
        die(f"metrics do not match BENCHMARK.json: missing {sorted(missing)}, "
            f"unknown {sorted(extra)}", 5)

    first = plain[0]
    prov.update({"threads": first["threads"],
                 "build_type": first["build_type"],
                 "compiler": first["compiler"],
                 "hardware_concurrency": first["hardware_concurrency"],
                 "workload": args.workload, "trace": args.trace,
                 "processes": {"plain": len(plain), "traced": len(traced)}})
    with open(stem + f"-trace{args.trace}.json", "w") as f:
        json.dump({"provenance": prov, "failures": failures,
                   "metrics": values, "samples": samples}, f, indent=1)

    for msg in failures:
        print(f"FAILED: {msg}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in sorted(units)}}))


if __name__ == "__main__":
    main()
