#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny scale (about a minute).

    python3 perfbench/selftest.py

For every workload it checks that
  1. the untraced and the traced run print every metric by name and unit,
     both the BENCHMARK.json set and the per-operation breakdown;
  2. failed_ratio is 0;
  3. the traced run's split calls reproduce the engine's answers (a
     mismatch there counts as a failed operation);
  4. a deliberately corrupted answer is caught, so the oracle is not
     vacuous.
and, at full scale,
  5. f-plans over equality-to-constant selections (star_m2m
     --eq-selections) give the flat baseline's answers. This check fails
     while the engine defect described under "Known defect" in README.md
     stands; star_m2m's composed operations draw range selections until it
     is fixed.
Exit code 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-operation metrics each workload's untraced run reports, by the names
# the benchmark doc uses.
OPS = {
    "star_m2m": ["select_p50_ms", "select_p90_ms", "groupby_p50_ms",
                 "groupby_p90_ms", "compose_p50_ms", "compose_p90_ms"],
    "serve_mix": ["serve_p50_ms", "serve_p99_ms", "serve_qps"],
}
COMMON = {"setup_s": "s", "frep_bytes_per_flat_byte": "ratio",
          "peak_rss_mb": "MB", "failed_ratio": "ratio"}


def run(workload, trace, *extra, tiny=True):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           *extra] + (["--tiny"] if tiny else [])
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    if p.returncode != 0:
        return None, None, p.stderr.strip().splitlines()[-1:]
    line = json.loads(p.stdout.strip().splitlines()[-1])
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(ROOT, target, "perfbench", "results",
                        "%s-seed7-trace%d.json" % (workload, trace))
    with open(path) as f:
        return line, json.load(f), p.stderr.strip().splitlines()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for w in [x["name"] for x in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            line, detail, err = run(w, trace)
            if line is None:
                check(False, "%s trace=%d runs (%s)" % (w, trace, err))
                continue
            names = {m["name"]: m["unit"] for m in declared}
            if trace == 0:
                names.update({n: "ms" for n in OPS[w]}, **COMMON)
                if w == "serve_mix":
                    names["serve_qps"] = "1/s"
            missing = [n for n, u in names.items()
                       if detail["metrics"].get(n, {}).get("unit") != u]
            check(not missing, "%s trace=%d reports every metric%s" % (
                w, trace, "" if not missing else " (missing %s)" % missing))
            check(set(line["metrics"]) == {m["name"] for m in declared},
                  "%s trace=%d result line carries the declared set" %
                  (w, trace))
            check(line["correct"] and line["failed"] == 0 and
                  line["attempted"] > 0,
                  "%s trace=%d: %d operations, none failed%s" % (
                      w, trace, line["attempted"],
                      " (traced split equals the engine)" if trace else ""))
            if trace == 1:
                check(detail.get("traced_ops", 0) > 0,
                      "%s traced run split %d operations" % (
                          w, detail.get("traced_ops", 0)))
        line, _, _ = run(w, 0, "--corrupt-op", "0")
        check(line is not None and line["failed"] > 0 and
              not line["correct"],
              "%s: a corrupted answer is caught (%s failed)" % (
                  w, line["failed"] if line else "?"))

    # Full scale, the data the benchmark measures.
    line, _, err = run("star_m2m", 0, "--eq-selections", tiny=False)
    check(line is not None and line["failed"] == 0,
          "star_m2m with equality-to-constant selections: %s" % (
              "%d of %d operations failed (known engine defect, README.md)"
              % (line["failed"], line["attempted"]) if line else err))
    if problems:
        print("%d check(s) failed" % len(problems))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
