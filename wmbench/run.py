#!/usr/bin/env python3
"""Build and run the end-to-end WaveMin benchmark (see README.md here).

    python3 wmbench/run.py --workload suite-wm --seed 0 --seconds 10 --trace 0
    python3 wmbench/run.py --workload all

Run from the repository root. The first run configures and builds the
library, the wavemin_served daemon and the wmbench program from source
into .bench_build/wmbench (Release); later runs only re-check the build.
Each run works in .bench_build/wmbench-run/<workload>, which keeps its
spans, result.json and daemon log until the next run of that workload.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when
every output check passed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("suite-wm", "suite-wmf", "multimode", "serve-mix")
RUN_TIMEOUT_S = 160  # a run must end within 180 s


def die(msg, code=2):
    print(f"wmbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root):
    """Configure (once) and build; returns the build directory."""
    for need in ("src/CMakeLists.txt", "tools/wavemin_served.cpp"):
        if not (root / need).is_file():
            die(f"{need} not found: run from a full checkout of the repository")
    if shutil.which("cmake") is None:
        die("cmake not found")
    bdir = root / ".bench_build" / "wmbench"
    log = root / ".bench_build" / "wmbench-build.log"
    bdir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(root / "wmbench"), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    jobs = str(os.cpu_count() or 2)
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
            if done.returncode:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed (full log: {log})", 1)
    return bdir


def run_one(root, bdir, workload, seed, seconds, trace, regenerate):
    """Run one workload; returns (exit code, result dict or None)."""
    rundir = root / ".bench_build" / "wmbench-run" / workload
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    cmd = [str(bdir / "wmbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--regenerate", "1" if regenerate else "0",
           "--served", str(bdir / "wavemin_served")]
    # New process group: a timeout kills wmbench and the daemon it started.
    proc = subprocess.Popen(cmd, cwd=rundir, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"wmbench: {workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    lines = stdout.rstrip("\n").splitlines()
    sys.stdout.write(stdout)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print(f"wmbench: {workload} printed no result (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 1, None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="0 = the paper suite as shipped")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regenerate", type=int, choices=(0, 1), default=0,
                    help="1 = regenerate the circuits from the seed "
                         "(else the seed only reorders the work)")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")

    root = Path(__file__).resolve().parent.parent
    t0 = time.monotonic()
    bdir = build(root)
    print(f"wmbench: build ready in {time.monotonic() - t0:.1f} s",
          file=sys.stderr)

    if args.workload != "all":
        code, _ = run_one(root, bdir, args.workload, args.seed, args.seconds,
                          args.trace, args.regenerate)
        sys.exit(code)

    summary, worst = {}, 0
    for w in WORKLOADS:
        code, result = run_one(root, bdir, w, args.seed, args.seconds,
                               args.trace, args.regenerate)
        summary[w] = result
        worst = max(worst, code if result is not None else max(code, 1))
    print(json.dumps({"workloads": summary}))
    sys.exit(worst)


if __name__ == "__main__":
    main()
