#!/usr/bin/env python3
"""Build the tango benchmark program from source and run one workload.

    python3 perfbench/run.py --workload cnn_sweep_cold --seed 1 \\
        --seconds 20 --trace 0

Run it from the repository root.  tango-perfbench is configured and built
(Release, Ninja when available) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; an up-to-date build
is a no-op.  Build output goes to stderr so that the last line of
stdout is the benchmark's JSON result.

The measured program sees a pinned environment: every ambient TANGO_*
variable is dropped, and TANGO_ESTIMATE_WEIGHTS names this checkout's
weights/estimate bundles.  Worker counts are set by the benchmark itself.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(bdir):
    """Configure (once) and build tango-perfbench; exit on failure."""
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(bdir, f)) for f in generated):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "--target", "tango-perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    bdir = build_dir()
    build(bdir)
    env = {k: v for k, v in os.environ.items() if not k.startswith("TANGO_")}
    env["TANGO_ESTIMATE_WEIGHTS"] = os.path.join(ROOT, "weights", "estimate")
    cmd = [os.path.join(bdir, "tango-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.json")]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            bdir, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
