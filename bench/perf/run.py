#!/usr/bin/env python3
"""Build and run the repo benchmark (bench/perf/README.md).

One run, as BENCHMARK.json's command (from the root of a checkout):

    python3 bench/perf/run.py --workload serve-zipf --seed 3 \\
        --seconds 10 --trace 0

builds bench/perf (a CMake project against ./src) into $CARGO_TARGET_DIR,
or, when that is unset, into .bench_build at the checkout root whatever
the working directory. It runs the workload in its own process and
passes its output through. The last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}; the metric names
and units are checked against BENCHMARK.json first. The run's JSON file
lands in <build dir>/runs/.

Every workload, one process each, merged into one record:

    python3 bench/perf/run.py --all --seeds 1,2,3,4,5 --record out.json

Build logs go to stderr. Exit status: the workload's (non-zero when an
output check failed), 2 when the checkout cannot be built, 3 when the
result line breaks the BENCHMARK.json contract.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
WORKLOADS = ["train-products-gcn", "infer-papers-sage", "serve-zipf",
             "serve-churn"]
# Every run must end within 180 s, the build aside.
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "no src/ next to bench/perf: nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR",
                            os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(os.path.abspath(target), "perf")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail(2, "cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.call(["cmake", "--build", build_dir, "--target",
                        "graphite_perf", "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail(2, "build failed")
    return build_dir, os.path.join(build_dir, "graphite_perf")


def check_result(line, contract, trace):
    """The result line must carry exactly the contract's metric set."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys %s" % sorted(result))
    wanted = contract["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s, units %s" % (missing, extra, got))
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    return result


def run_one(binary, out_dir, workload, seed, seconds, trace):
    """Run one workload process; returns (exit code, stdout lines)."""
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out-dir", out_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, "%s did not finish within %d s" % (workload,
                                                    RUN_TIMEOUT_S))
    return done.returncode, done.stdout.splitlines()


def main():
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload for every --seeds value")
    parser.add_argument("--seeds", default="1",
                        help="comma-separated seeds for --all")
    parser.add_argument("--record", help="--all: merged record path")
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.all and not args.record:
        parser.error("--all needs --record")

    build_dir, binary = build()
    out_dir = os.path.join(build_dir, "runs")

    if args.workload:
        code, lines = run_one(binary, out_dir, args.workload, args.seed,
                              args.seconds, args.trace)
        try:
            check_result(lines[-1] if lines else "", contract, args.trace)
        except ValueError as error:
            print("\n".join(lines), file=sys.stderr)
            fail(3, str(error))
        print("\n".join(lines), flush=True)
        sys.exit(code)

    runs = []
    worst = 0
    for seed in [int(s) for s in args.seeds.split(",")]:
        for workload in WORKLOADS:
            code, lines = run_one(binary, out_dir, workload, seed,
                                  args.seconds, args.trace)
            try:
                check_result(lines[-1] if lines else "", contract,
                             args.trace)
            except ValueError as error:
                fail(3, "%s seed %d: %s" % (workload, seed, error))
            stem = "%s-seed%d%s" % (workload, seed,
                                    "-trace" if args.trace else "")
            with open(os.path.join(out_dir, stem + ".json")) as f:
                runs.append(json.load(f))
            print("%-20s seed %-3d %s" % (workload, seed, lines[-1]))
            worst = max(worst, code)
    with open(args.record, "w") as f:
        json.dump({"run_seconds": args.seconds, "trace": args.trace,
                   "runs": runs}, f, indent=1)
    print("wrote %s (%d runs)" % (args.record, len(runs)))
    sys.exit(worst)


if __name__ == "__main__":
    main()
