#!/usr/bin/env python3
"""Build and run the EMLIO benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tcp_large --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and the emlio library it links, from src/) in Release
mode under .bench_build/, prints the host, then runs the benchmark binary,
whose last stdout line is the JSON result. Exits non-zero when the sources
are missing, the build fails, or any delivery check fails.
"""
import argparse
import glob
import os
import platform
import shutil
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
DATA_DIR = os.path.join(".bench_build", "data")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join("src", "core", "daemon.h")):
        log("perfbench: no EMLIO sources here; run from the repository root")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def host_line():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    sha = "none (not a git checkout)"
    if os.path.isdir(".git"):
        got = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    return (f"# host: nproc={os.cpu_count()} cpu=\"{cpu}\" kernel={platform.release()} "
            f"build=Release git={sha}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not build():
        return 2
    os.makedirs(DATA_DIR, exist_ok=True)
    print(host_line(), flush=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--data-root", DATA_DIR]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd)
    code = 3
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s; killed")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if proc.returncode != 0:
            # A run that died cannot unlink its shm segments or dataset itself.
            for path in glob.glob(f"/dev/shm/emlio.perfbench.{proc.pid}.*"):
                os.remove(path)
            for path in glob.glob(os.path.join(DATA_DIR, f"*.{proc.pid}")):
                shutil.rmtree(path, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
