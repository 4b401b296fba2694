#!/usr/bin/env python3
"""End-to-end sizing benchmark: build, run one workload, check, report.

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2e_bench/run.py --self-test
    python3 e2e_bench/run.py --update-expected

Run from anywhere; the checkout root is the parent of this directory. The
harness (e2e_bench, with the trdse library and CLI) is built from source
into $CARGO_TARGET_DIR or .bench_build. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer ones. A run
whose output check fails reports no metrics and exits 1.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    """Configure once, then (re)build `target`; build output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("run.py: no trdse sources (CMakeLists.txt, src/) next to e2e_bench/")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("run.py: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, target)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_harness(exe, workload, seed, seconds, trace):
    bdir = build_dir()
    os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-file", os.path.join(bdir, "traces", f"{workload}.seed{seed}.json"),
           "--tmp", os.path.relpath(os.path.join(bdir, "tmp"), ROOT)]
    # Own process group: on a timeout the harness's workers and daemon go too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run.py: harness exceeded {HARNESS_TIMEOUT_S}s, killed")
        sys.exit(1)
    if proc.returncode != 0:
        log(f"run.py: harness exited with {proc.returncode}")
        sys.exit(1)
    return json.loads(out.strip().splitlines()[-1])


def expected_path(workload):
    return os.path.join(HERE, "expected", workload + ".rows")


def check(report, seed):
    """Problems that make the run incorrect (empty = correct)."""
    problems = list(report["problems"])
    if seed == DEFAULT_SEED:
        with open(expected_path(report["workload"])) as f:
            want = [line.rstrip("\n") for line in f if line.strip()]
        got = report["rows"]
        if got != want:
            diff = [f"  expected: {w}\n  got:      {g}"
                    for w, g in zip(want, got) if w != g]
            problems.append(f"rows differ from expected/{report['workload']}.rows "
                            f"({len(got)} vs {len(want)} rows)\n" + "\n".join(diff[:5]))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the harness self-tests")
    ap.add_argument("--update-expected", action="store_true",
                    help=f"rewrite expected/*.rows from runs at seed {DEFAULT_SEED}")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("e2e_selftest")], cwd=ROOT).returncode)

    spec = benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    exe = build("e2e_bench")
    if args.update_expected:
        for w in workloads:
            rows = run_harness(exe, w, DEFAULT_SEED, 0, 0)["rows"]
            with open(expected_path(w), "w") as f:
                f.write("\n".join(rows) + "\n")
            log(f"wrote {expected_path(w)} ({len(rows)} rows)")
        return
    if args.workload not in workloads:
        log(f"run.py: --workload must be one of {workloads}")
        sys.exit(2)

    report = run_harness(exe, args.workload, args.seed, args.seconds, args.trace)
    problems = check(report, args.seed)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} [{m['unit']}] missing from the "
                            f"harness report (got {got})")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    reps = report["reps"]
    log(f"{args.workload} seed={args.seed} trace={args.trace} "
        f"repetitions: {reps['untraced']} untraced, {reps['traced']} traced")
    for name, m in sorted(report["metrics"].items()):
        log(f"  {name:28s} {m['value']:<14.6g} {m['unit']:6s} n={m['n']}")
    for p in problems:
        log("CHECK FAILED: " + p)

    result = {"correct": not problems, "attempted": max(1, report["attempted"]),
              "failed": report["failed"], "metrics": {} if problems else metrics}
    print(json.dumps(result), flush=True)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
