#!/usr/bin/env python3
"""Steadiness study for the end-to-end benchmark.

    python3 perfbench/study.py [--workloads a,b] [--seeds 10] [--sets 2]
                               [--seconds S] [--traced]

Runs every workload once per seed in each of several sets (seeds 1..N in
every set) through perfbench/run.py, from the root of a checkout. The sets
alternate run by run, so slow host drift lands on every set alike. For
every end-to-end metric it reports, per set, the median and quartiles
(Python's statistics.quantiles(n=4)), the quartile spread as a share of
the median, and how far each later set's median moved from the first
set's, in the metric's worse direction, against the bound in
BENCHMARK.json.

--traced adds two traced runs per workload (same seed) and checks that
the per-layer counts that must be deterministic repeat exactly.

Writes the raw values and the summary to .bench_build/study/ and prints
a Markdown table. Exits 1 when a spread or a median shift breaks a bound,
or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "study")

DETERMINISTIC = (
    "linalg.svd_calls", "linalg.gemm_calls", "linalg.gemm_gflop",
    "isvd.rank_coarse", "isvd.rank_fine_max", "mrdmd.nodes", "mrdmd.modes",
    "model_stack.planted_not_hot", "model_stack.planted_z_min",
    "checkpoint.saves", "checkpoint.bytes_written", "net.frames", "net.bytes",
    "journal.bytes",
)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    started = time.time()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=900)
    lines = done.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if done.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(done.stderr.decode()[-2000:])
        raise SystemExit("study: %s seed %d failed (exit %d)"
                         % (workload, seed, done.returncode))
    return result, time.time() - started


def worse_shift(first, later, better):
    """Relative move of `later` against `first`, positive when worse."""
    delta = (later - first) / first
    return -delta if better == "higher" else delta


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    plan = [(s, seed, w)  # (set, seed, workload), sets interleaved
            for seed in range(1, args.seeds + 1)
            for s in range(args.sets)
            for w in workloads]

    values = {w: [{m["name"]: [] for m in metrics} for _ in range(args.sets)]
              for w in workloads}
    for i, (s, seed, w) in enumerate(plan):
        result, wall = run_once(w, seed, args.seconds, False)
        for m in metrics:
            values[w][s][m["name"]].append(result["metrics"][m["name"]]["value"])
        print("[%d/%d] set %d seed %d %s: %.0f s" % (i + 1, len(plan), s, seed,
                                                    w, wall), file=sys.stderr)

    ok = True
    summary = {}
    print("| workload | metric | bound | set | median | q1 | q3 | spread | "
          "shift vs set 0 |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        summary[w] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            rows = []
            for s in range(args.sets):
                vals = values[w][s][name]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                spread = (q3 - q1) / med
                shift = worse_shift(statistics.median(values[w][0][name]), med,
                                    m["better"]) if s > 0 else 0.0
                if spread > bound or shift > bound:
                    ok = False
                rows.append({"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "shift": shift})
                print("| %s | %s | %.2f | %d | %.6g | %.6g | %.6g | %.3f | "
                      "%+.3f |" % (w, name, bound, s, med, q1, q3, spread,
                                   shift))
            summary[w][name] = rows

    determinism = {}
    if args.traced:
        for w in workloads:
            first, _ = run_once(w, 1, args.seconds, True)
            second, _ = run_once(w, 1, args.seconds, True)
            diffs = [k for k in DETERMINISTIC
                     if first["metrics"][k]["value"]
                     != second["metrics"][k]["value"]]
            determinism[w] = {"differs": diffs,
                              "first": first["metrics"],
                              "second": second["metrics"]}
            print("traced %s: deterministic counts %s; trace.overhead %.4f / "
                  "%.4f" % (w, "repeat" if not diffs else "DIFFER: "
                            + ", ".join(diffs),
                            first["metrics"]["trace.overhead"]["value"],
                            second["metrics"]["trace.overhead"]["value"]))
            ok = ok and not diffs

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "study-%d.json" % int(time.time()))
    with open(path, "w") as f:
        json.dump({"args": vars(args), "values": values, "summary": summary,
                   "determinism": determinism}, f, indent=1)
    print("study written to %s; %s" % (path, "all within bounds" if ok
                                       else "SOME BOUND BROKEN"),
          file=sys.stderr)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
