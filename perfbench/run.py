#!/usr/bin/env python3
"""Build and run the end-to-end pipeline benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <trace-to-report|dashboard|monitor-ingest>
                             --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark binary is configured and built
from source on demand (perfbench/CMakeLists.txt) in $CARGO_TARGET_DIR
(default .bench_build), then run with the given arguments. Its standard
output is passed through; the last line is the JSON result. The exit status
is non-zero when the build fails, an output check fails, or the result does
not carry exactly the metrics BENCHMARK.json declares for the mode.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    with open(log, "w") as out:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout)
    if proc.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}")


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    cmake_dir = build_dir / "perfbench"
    if not (cmake_dir / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(cmake_dir),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   build_dir / "configure.log", BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(cmake_dir), "--target", "osn-pipeline-bench",
                "-j", jobs], build_dir / "build.log", BUILD_TIMEOUT_S)
    return cmake_dir / "osn-pipeline-bench"


def source_rev():
    """git HEAD when available, else a digest of the benchmarked sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(build_dir / "work"), "--out-dir", str(build_dir / "out"),
           "--git-rev", source_rev()]
    # Own process group: on a timeout the benchmark and the simulation
    # children it forks are stopped together, and reaped before exiting.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines[:-1]))  # the report, but no result line
        fail(f"benchmark exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    want = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != want:
        print("\n".join(lines[:-1]))
        fail("result metrics differ from BENCHMARK.json: "
             f"missing {sorted(want - set(result['metrics']))}, "
             f"extra {sorted(set(result['metrics']) - want)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
