#!/usr/bin/env python3
"""Builds the simcov benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload dlx_campaign --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The first call configures and compiles perfbench/ (which compiles ../src)
into .bench_build/perfbench with CMake in Release mode; later calls only
rebuild what changed. Build output goes to standard error, so the last line
of standard output is the workload's JSON result. Each workload runs in its
own process, so its peak RSS is its own. `--workload all` runs every
workload in turn and exits non-zero if any of them failed.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "simcov_perfbench"
WORKLOADS = ["dlx_campaign", "thm3_mutants", "symbolic_reach",
             "symbolic_campaign"]


def build() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no simcov sources at %s" % (ROOT / "src"))
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(BUILD), "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "simcov_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def commit() -> str:
    """The git commit, or a digest of the sources in a checkout without git."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()[:12]
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def run(workload: str, args: argparse.Namespace, rev: str) -> int:
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", rev]
    if args.trace == 1:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / ("%s-seed%d.json" % (workload, args.seed)))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    rev = commit()
    if args.workload != "all":
        return run(args.workload, args, rev)
    worst = 0
    for workload in WORKLOADS:
        worst = max(worst, run(workload, args, rev))
    return worst


if __name__ == "__main__":
    sys.exit(main())
