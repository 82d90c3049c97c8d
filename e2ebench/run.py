#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
forestview library and the fv_e2e benchmark binary from source into
.bench_build/ (or $CARGO_TARGET_DIR when set); later calls rebuild
incrementally. The binary's report goes to standard output and its last
line is the JSON result. Build output goes to .bench_build/e2ebench-build.log.
"""
import fcntl
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_root() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out: Path) -> Path:
    """Configures and builds fv_e2e; returns the binary path."""
    build_dir = out / "e2ebench"
    log_path = out / "e2ebench-build.log"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "e2ebench.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configuring every time is cheap once the cache exists, and
        # recovers a build directory a failed first configure left behind.
        steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(build_dir), "--target", "fv_e2e",
                  "-j", str(os.cpu_count() or 1)]]
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("e2ebench: build failed:\n" + "\n".join(tail) +
                                 "\n")
                sys.exit(1)
    return build_dir / "fv_e2e"


def option(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main() -> int:
    args = sys.argv[1:]
    workload, seed, trace = (option(args, "--workload"), option(args, "--seed"),
                             option(args, "--trace"))
    if None in (workload, seed, option(args, "--seconds"), trace):
        sys.stderr.write(__doc__)
        return 2
    out = build_root()
    binary = build(out)
    extra = ["--work-dir", str(out / "e2e-work" / f"{workload}-{seed}-{os.getpid()}")]
    if trace == "1":
        extra += ["--spans", str(out / "e2e-traces" / f"{workload}.tsv")]
    sys.stdout.flush()
    try:
        return subprocess.run([str(binary), *args, *extra], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
