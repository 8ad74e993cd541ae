#!/usr/bin/env python3
"""Entry point of the end-to-end render benchmark (see README.md).

Builds dc_bench from this directory's CMake project, which compiles the
repository's libraries from src/, into .bench_build/e2e at the repository
root, then runs it from the root:

  python3 bench/e2e/run.py --workload render_warm --seed 2002 --seconds 10 --trace 0
  python3 bench/e2e/run.py --smoke
  python3 bench/e2e/run.py --compare A.jsonl B.jsonl

--compare reads result records, the line dc_bench prints before its last
line: JSON lines, or a JSON object whose "runs" member lists them. FILE:SET
keeps the records whose "set" is SET, a field the caller adds.
It prints per-workload medians and quartiles of every end-to-end metric,
judges B against A under the bounds in BENCHMARK.json, and refuses records
from different environments.
"""
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no src/CMakeLists.txt at the repository root; "
                 "dc_bench cannot be built here")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per checkout; the lock is released at exec.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", BUILD, "--target", "dc_bench", "-j", jobs]]
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            # Build output goes to stderr: stdout carries only results.
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "dc_bench")


def load(spec):
    path, _, set_name = spec.partition(":")
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
        records = doc["runs"] if isinstance(doc, dict) else doc
    except json.JSONDecodeError:
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
    if set_name:
        records = [r for r in records if r.get("set") == set_name]
    return [r for r in records if r.get("bench") == "e2e" and not r.get("trace")]


def environment(record):
    return {k: v for k, v in record["env"].items() if k != "seed"}


def compare(a_spec, b_spec):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    a_runs, b_runs = load(a_spec), load(b_spec)
    if not a_runs or not b_runs:
        sys.exit("run.py: no untraced e2e records in " + (b_spec if a_runs else a_spec))
    envs = {json.dumps(environment(r), sort_keys=True) for r in a_runs + b_runs}
    if len(envs) > 1:
        print("refusing to compare results from different environments:")
        for e in sorted(envs):
            print("  " + e)
        return 2
    print("environment: " + envs.pop())
    regressions = 0
    row = "{:<18} {:<13} {:>5} {:>28} {:>28} {:>8}  {}"
    print(row.format("workload", "metric", "runs", "A median [q1, q3]",
                     "B median [q1, q3]", "change", "verdict"))
    for wl in bench["workloads"]:
        name = wl["name"]
        a_wl = [r for r in a_runs if r["workload"] == name]
        b_wl = [r for r in b_runs if r["workload"] == name]
        failed = sum(r["failed"] for r in a_wl + b_wl)
        for m in bench["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in a_wl]
            b = [r["metrics"][m["name"]]["value"] for r in b_wl]
            if len(a) < 2 or len(b) < 2:
                print(row.format(name, m["name"], f"{len(a)}/{len(b)}", "", "", "",
                                 "too few runs"))
                continue
            qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
            ma, mb = statistics.median(a), statistics.median(b)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (mb - ma) / ma  # > 0: B is worse
            bound = m["bound"]
            spread = max((qa[2] - qa[0]) / ma, (qb[2] - qb[0]) / mb)
            if failed:
                verdict = f"{failed} frames failed"
                regressions += 1
            elif all(sign * y < sign * x for x in a for y in b):
                verdict = "better in every run"
            elif spread > bound:
                verdict = f"unresolved (spread {spread:.1%} > bound)"
            elif worse > bound:
                verdict = f"REGRESSION (bound {bound:.0%})"
                regressions += 1
            else:
                verdict = "ok"
            print(row.format(name, m["name"], f"{len(a)}/{len(b)}",
                             f"{ma:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]",
                             f"{mb:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]",
                             f"{(mb - ma) / ma:+.1%}", verdict))
    return 1 if regressions else 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py --compare A B")
        return compare(argv[1], argv[2])
    binary = build()
    os.chdir(ROOT)
    os.execv(binary, [binary] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
