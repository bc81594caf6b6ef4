#!/usr/bin/env python3
"""Agent-hop benchmark for the TACOMA kernel.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the TACOMA
libraries from src/) into .bench_build/perfbench, runs one workload, checks
its result and prints every metric by name with its unit.  The last line of
stdout is the result as one JSON object:

    python3 perfbench/run.py --workload hop --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all          # every workload, both modes
    python3 perfbench/run.py --selftest

--trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones (see
perfbench/README.md and BENCHMARK.json).  Exit status: 0 when every check
passed, 1 when a check failed, 2 when the benchmark could not build or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Variables that change the program being measured or add I/O to every hop.
PINNED_ENV = ("TACOMA_CODE_CACHE", "TACOMA_TACL_VM", "TACOMA_LOG_LEVEL")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no TACOMA sources at %s/src; run from a full checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    open(log_path, "w").close()

    def step(command):
        with open(log_path, "a") as log:
            try:
                return subprocess.run(command, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode == 0
            except subprocess.TimeoutExpired:
                return False

    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not step(configure):
            shutil.rmtree(BUILD, ignore_errors=True)
            die("cmake configure failed")
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    if not step(["cmake", "--build", BUILD, "-j", jobs]):
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        die("build failed (log: %s)" % log_path)


def environment():
    """Build type, compiler and CPU count the numbers were measured with."""
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    return {
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "compiler": (version.stdout.splitlines() or [compiler])[0],
        "nproc": os.cpu_count(),
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("hop", "fleet", "daemon"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the timing decorators leave sim-time "
                             "outputs byte-identical")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    args = parser.parse_args()
    if not (args.selftest or args.all) and args.workload is None:
        parser.error("--workload is required")
    for name in PINNED_ENV:
        if name in os.environ:
            die("refusing to run: %s is set and would change what is measured" % name)

    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                                timeout=RUN_TIMEOUT_S).returncode)
    runs = ([(w, t) for w in ("hop", "fleet", "daemon") for t in (0, 1)] if args.all
            else [(args.workload, args.trace)])
    ok = True
    for workload, trace in runs:
        ok = run_workload(workload, args.seed, args.seconds, trace) and ok
    sys.exit(0 if ok else 1)


def run_workload(workload, seed, seconds, trace):
    """Runs one workload, prints its report; True when every check passed."""
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench_agent"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work]
    if trace:
        command += ["--spans-out", os.path.join(BUILD, "spans-%s.json" % workload)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("no result from %s (exit %d)" % (workload, run.returncode))
    expected = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        die("metrics do not match BENCHMARK.json: %s" %
            sorted(set(got.items()) ^ set(expected.items())))

    env = environment()
    print("perfbench %s seed=%d seconds=%g trace=%d | build=%s compiler=%s nproc=%s"
          % (workload, seed, seconds, trace, env["build_type"], env["compiler"],
             env["nproc"]))
    print("correct=%s attempted=%d failed=%d failed_share=%.6g"
          % (result["correct"], result["attempted"], result["failed"],
             result["failed"] / max(1, result["attempted"])))
    for name, m in result["metrics"].items():
        print("  %-28s %16.6g %s" % (name, m["value"], m["unit"]))
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json"
                           % (workload, seed, trace)), "w") as f:
        json.dump({"environment": env, "result": result}, f, indent=1)
    print(json.dumps(result, separators=(",", ":")))
    return run.returncode == 0 and result["correct"]


if __name__ == "__main__":
    main()
