#!/usr/bin/env python3
"""The repo benchmark: builds the perfbench program from source and runs it.

One run:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
prints the run's log on stderr and, as the last line of stdout, one JSON
object with `correct`, `attempted`, `failed` and `metrics`. The exit code is
non-zero when the program cannot be built or an output check fails.

Steadiness mode (sets the bounds in BENCHMARK.json):
    python3 perfbench/run.py --steadiness [--repeats 10] [--workloads a,b]
repeats each workload with seeds 1..repeats and prints, for every end-to-end
metric, the median, the quartiles, the spread (q3 - q1) / median and the bound.

Reference-figure variants of serve_zipf (README; not measured runs):
    python3 perfbench/run.py --workload serve_zipf --variant pooled|open_loop

Self-tests of the benchmark's own checks:
    python3 perfbench/run.py --selftest
run workloads with a corrupted observation (an altered prediction, a
recovered state that differs, a wrong response id) and expect a non-zero
exit, and one clean run that must pass.

Run it from the root of the repository; everything it builds and writes stays
under .bench_build/ there.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["catalog_feed", "serve_zipf", "rule_maintenance"]
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the program; returns False on failure."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            log(f"perfbench: cannot run {step[0]}: {err}")
            return False
        if result.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            return False
    return os.path.exists(BINARY)


def run_once(workload, seed, seconds, trace, inject=None, variant=None):
    """Runs one workload; returns (exit code, parsed result or None, log)."""
    work = os.path.join(BUILD_ROOT, "work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work]
    if inject:
        cmd += ["--inject", inject]
    if variant:
        cmd += ["--variant", variant]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, out, err = 124, "", f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s\n"
    sys.stderr.write(err)
    traces = os.path.join(BUILD_ROOT, "traces")
    for name in os.listdir(work):
        if name.startswith("spans-"):
            os.makedirs(traces, exist_ok=True)
            shutil.move(os.path.join(work, name), os.path.join(traces, name))
    shutil.rmtree(work, ignore_errors=True)
    lines = [line for line in out.splitlines() if line.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return code, result, err


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def steadiness(args):
    bounds, run_seconds = load_bounds()
    seconds = args.seconds or run_seconds
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    summary = {}
    worst = 0.0
    for workload in workloads:
        values, shares = {}, []
        for i in range(args.repeats):
            seed = args.first_seed + i
            code, result, _ = run_once(workload, seed, seconds, False)
            if code != 0 or result is None or not result["correct"]:
                log(f"perfbench: {workload} seed {seed} failed (exit {code})")
                return 1
            shares.append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            log(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
        print(f"\n{workload}: {args.repeats} runs of {seconds} s, "
              f"failed share {sorted(set(shares))}")
        print(f"  {'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}")
        summary[workload] = {"failed_share": shares, "metrics": {}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, {}).get("bound")
            if name != "setup_s" and bound:
                worst = max(worst, spread / bound)
            print(f"  {name:<18}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.4f}{bound if bound is not None else '-':>8}")
            summary[workload]["metrics"][name] = {
                "values": vals, "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": bound}
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "steadiness.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


def selftest():
    cases = [
        ("catalog_feed", "prediction",
         "batched pooled predictions equal one-item Classify calls"),
        ("rule_maintenance", "recovery",
         "recovered rule state equals the state before shutdown"),
        ("serve_zipf", "response_id",
         "every response carries its own request id"),
        ("serve_zipf", "prediction",
         "served predictions equal an in-process Classify"),
    ]
    ok = True
    code, result, _ = run_once("catalog_feed", 1, 1, False)
    clean = code == 0 and result is not None and result["correct"]
    log(f"selftest: clean catalog_feed run -> exit {code}: "
        f"{'ok' if clean else 'FAIL'}")
    ok = ok and clean
    for workload, inject, check in cases:
        code, result, err = run_once(workload, 1, 1, False, inject)
        caught = (code != 0 and (result is None or not result["correct"]) and
                  f"CHECK FAILED: {check}" in err)
        log(f"selftest: {workload} with injected {inject} -> exit {code}: "
            f"{'ok' if caught else 'FAIL'}")
        ok = ok and caught
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--variant", choices=["pooled", "open_loop"],
                        help="serve_zipf reference-figure variant (README); "
                             "not for measured runs")
    args = parser.parse_args()
    if not args.steadiness and not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 1
    if args.steadiness:
        return steadiness(args)
    if args.selftest:
        return selftest()
    code, result, _ = run_once(args.workload, args.seed, args.seconds or 10,
                               bool(args.trace), variant=args.variant)
    if result is not None:
        print(json.dumps(result))
    return code if code != 0 else (0 if result is not None else 1)


if __name__ == "__main__":
    sys.exit(main())
