#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
is sent to standard error, so the last line of standard output is the
benchmark's JSON result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "sim_engine.hpp")):
        sys.exit("perfbench: no library sources under src/; run from a "
                 "full checkout of the repository")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def flag(name):
    args = sys.argv[1:]
    return args[args.index(name) + 1] if name in args[:-1] else None


def check_result(line, trace):
    """The result line must name exactly the metrics BENCHMARK.json lists
    for this mode, with the same units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in json.loads(line)["metrics"].items()}
    if got != want:
        sys.exit("perfbench: result metrics differ from BENCHMARK.json")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    run = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                         text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode == 0:
        lines = run.stdout.strip().splitlines()
        check_result(lines[-1], flag("--trace") == "1")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
