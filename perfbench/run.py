#!/usr/bin/env python3
"""Builds the engine and the perfbench driver from source, runs one
workload and prints the result as one JSON object on the last line.

    python3 perfbench/run.py --workload star_m2m --seed 1 --seconds 10 --trace 0

Run it from the repository root. With --trace 0 the result carries every
end-to-end metric BENCHMARK.json names, with --trace 1 every per-layer
metric. Every metric the run measured is printed above that line, one
per line, and the full document (all metrics, sample counts, quantiles
used, provenance) is written to <build dir>/results/, with the traced
run's spans next to it.
The build directory is $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=root).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=root).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "fdb_perfbench")


def git_sha(root):
    """HEAD of a git checkout, read from .git without running git."""
    if os.environ.get("FDB_BENCH_GIT_SHA"):
        return os.environ["FDB_BENCH_GIT_SHA"]
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as f:
            return f.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def source_digest(root):
    """sha256 over the engine and benchmark sources: identifies the code
    measured even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, root)):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(d, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test scale (selftest.py)")
    ap.add_argument("--corrupt-op", type=int, default=-1,
                    help="self-test: corrupt the answers of one operation")
    ap.add_argument("--eq-selections", action="store_true",
                    help="self-test: equality-to-constant selections in "
                         "star_m2m's composed operations")
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found next to " + HERE, 2)
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload, 2)
    if not os.path.isfile(os.path.join(root, "src", "api", "engine.h")):
        fail("engine sources (src/) not found; run from a full checkout", 2)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(results, stem + ".spans.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_op >= 0:
        cmd += ["--corrupt-op", str(args.corrupt_op)]
    if args.eq_selections:
        cmd.append("--eq-selections")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=root)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("fdb_perfbench exited with code %d" % proc.returncode)
    detail = json.loads(lines[-1])
    detail["provenance"].update(git_sha=git_sha(root),
                                source_digest=source_digest(root))
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(detail, f, indent=1, sort_keys=True)

    # Every metric the run measured, one per line, then the result line.
    for name, m in sorted(detail["metrics"].items()):
        print("%-34s %14.6g %s" % (name, m["value"], m["unit"]))

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = detail["metrics"].get(m["name"])
        if got is None or (got["unit"], got["better"]) != (m["unit"],
                                                            m["better"]):
            fail("metric %s missing, or its unit or direction differs from "
                 "BENCHMARK.json" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    attempted, failed = detail["attempted"], detail["failed"]
    print(json.dumps({"correct": failed == 0 and attempted >= 1,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
