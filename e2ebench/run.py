#!/usr/bin/env python3
"""Builds and runs the mlbs end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

Run from the repository root. The benchmark binary is built from source
into $CARGO_TARGET_DIR (default: .bench_build) and runs one workload in its
own process. Before the binary's output this prints one line with the host
fingerprint and the command that replays the run; the binary's last line
is the result object.

--selftest runs every workload of BENCHMARK.json at toy scale, traced and
untraced, and checks that each run passes its own output checks and prints
exactly the metrics BENCHMARK.json names, each with its unit.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("benchmark build failed")
    return os.path.join(target, "release", "mlbs-e2ebench")


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def fingerprint():
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    commit = None
    if top and os.path.realpath(top) == os.path.realpath(ROOT):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "available_parallelism": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "-V"]),
        "git_commit": commit,
    }


def run_once(binary, workload, seed, seconds, trace, scale="full"):
    argv = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--scale", scale]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            name = f"{w['name']} --trace {trace}"
            r = run_once(binary, w["name"], 1, 1, trace, scale="toy")
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                problems.append(f"{name}: exit {r.returncode}: {r.stderr.strip()}")
                continue
            res = json.loads(lines[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(res)}")
                continue
            if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{name}: fail_frac is not 0: {res['failed']}/{res['attempted']}")
            names = [m["name"] for m in wanted[trace]]
            if sorted(res["metrics"]) != sorted(names):
                problems.append(f"{name}: metrics {sorted(set(res['metrics']) ^ set(names))} "
                                "differ from BENCHMARK.json")
            for m in wanted[trace]:
                got = res["metrics"].get(m["name"])
                if got is None:
                    continue
                if got.get("unit") != m["unit"]:
                    problems.append(f"{name}: {m['name']} unit {got.get('unit')} != {m['unit']}")
                v = got.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{name}: {m['name']} value {v!r}")
            print(f"{name}: {len(res['metrics'])} metrics, "
                  f"{res['failed']}/{res['attempted']} failed", file=sys.stderr)
    for p in problems:
        print(f"SELFTEST FAIL {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if a.selftest:
        return selftest()
    if a.workload is None or a.seed is None or a.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    binary = build()
    replay = (f"python3 {os.path.relpath(__file__, ROOT)} --workload {a.workload} "
              f"--seed {a.seed} --seconds {a.seconds:g} --trace {a.trace}")
    print(json.dumps({"host": fingerprint(), "replay": replay}), flush=True)
    argv = [binary, "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    return subprocess.run(argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
