#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
benchmark (the repository's src/ tree plus perfbench/src) with CMake into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later runs only rebuild what changed. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
Extra arguments (--tiny, --check-full, --sabotage KIND) pass through to the
benchmark binary. Exits non-zero without a result when the sources are
missing or the build fails, and with the binary's code otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build() -> Path:
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "net" / "simulator.h").is_file():
        sys.exit("perfbench: the program sources (src/) are missing; run "
                 "from a full checkout of the repository")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return out / "perfbench"


def main() -> int:
    binary = build()
    trace_out = build_dir().parent / "traces"
    trace_out.mkdir(parents=True, exist_ok=True)
    command = [str(binary), *sys.argv[1:], "--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as expired:
        sys.stdout.write(expired.stdout or "")
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0:
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if not isinstance(result, dict) or set(result) != RESULT_KEYS:
            print("perfbench: the last output line is not a result",
                  file=sys.stderr)
            return 5
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
