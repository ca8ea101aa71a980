#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload mpi_p2p --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
simulator libraries from ./src plus the benchmark binary into
.bench_build/perfbench (CMake, RelWithDebInfo); later calls only check the
build is current. The binary's standard output is passed through: a detail
line (machine block, sample counts, digest) and, last, the result line with
"correct", "attempted", "failed" and "metrics". Chrome traces of --trace 1
runs land in .bench_build/traces.

--self-test builds and runs the unit tests of the benchmark's own code and
checks that the binary's metric table matches BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
WORKLOADS = ("mpi_p2p", "fabric_uniform", "coll_bsp")
# The default seed, and a second one held out from tuning the benchmark.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
BUILD_TIMEOUT_S = 840
# A run measures for --seconds; its last pass, the set-up and the result
# checks may take this much longer.
RUN_GRACE_S = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return BUILD / target


def revision():
    """The git commit if this is a git checkout, else a digest of src/."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def self_test():
    status = subprocess.run([str(build("perfbench_test"))]).returncode
    listed = subprocess.run([str(build("perfbench")), "--list-metrics"],
                            capture_output=True, text=True, check=True)
    table = json.loads(listed.stdout)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in spec[kind]]
        got = [(m["name"], m["unit"], m["better"]) for m in table[kind]]
        if want != got:
            print(f"BENCHMARK.json {kind} differs from the binary's table:\n"
                  f"  only in BENCHMARK.json: {sorted(set(want) - set(got))}\n"
                  f"  only in the binary: {sorted(set(got) - set(want))}",
                  file=sys.stderr)
            status = 1
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("BENCHMARK.json workloads differ from run.py", file=sys.stderr)
        status = 1
    print("self-test", "passed" if status == 0 else "FAILED")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"default {DEFAULT_SEED}; {HELD_OUT_SEED} is the "
                         "seed held out from tuning")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        return self_test()
    if a.workload is None:
        ap.error("--workload is required")
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        binary = build("perfbench")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    TRACES.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--rev", revision(), "--trace-dir", str(TRACES)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=a.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
