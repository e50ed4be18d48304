#!/usr/bin/env python3
"""Time a change against a parent revision with perfbench, in pairs.

    python3 bench/pairs.py --parent REV --name NAME [--workload simulate]
        [--seed 1] [--claim METRIC ...]

Run from the root of a locmap git checkout; the working tree is the
change. The parent is exported with `git archive` into a temporary
directory, so the repository itself is left alone. Each pair runs
`perfbench/run.py --workload W --seed S --seconds 20 --trace 0`, which
builds its tree before it runs, in both trees, alternating which runs
first, since the host drifts between minutes. The claimed workload
gets 10 pairs, each of the other workloads 3.

Writes BENCH_<name>.json: each claimed metric's medians, quartiles
(statistics.quantiles, n=4, inclusive), runs, pairs won and verdict
under RULE; the other end-to-end medians and ranges; the output checks
(every run correct, nothing failed, the EXACT metrics equal on every
run); and the same medians and checks over the pairs of each other
workload. Exits 1 unless every claim passes and every check holds.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ["simulate", "map", "serve"]
SECONDS = 20
PAIRS = 10
CHECK_PAIRS = 3
EXACT = ["la_net_latency_reduction_pct", "la_exec_time_reduction_pct",
         "mai_error_mean", "ok_ratio"]
RULE = ("the change wins >= 9/10 of the pairs, and its median is better "
        "than the parent's by more than the parent's IQR")


def log(msg):
    print("pairs: " + msg, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git"] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """Write the files of [rev] into [dest], without a .git."""
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit("pairs: git archive %s failed" % rev)


def run(tree, workload, seed):
    """One perfbench run: its end-to-end values and output checks."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    rec = json.loads(out.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in rec["metrics"].items()}
    return values, rec["correct"], rec["failed"]


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def r4(x):
    return round(x, 4)


def run_pairs(trees, workload, seed, pairs):
    """[pairs] alternating pairs; returns the order and each side's runs."""
    order, runs = [], {"parent": [], "change": []}
    for k in range(pairs):
        sides = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        order.append(sides)
        for side in sides:
            runs[side].append(run(trees[side], workload, seed))
            log("%s pair %d/%d %s done" % (workload, k + 1, pairs, side))
    return order, runs


def series(runs, side, name):
    return [values[name] for values, _, _ in runs[side]]


def checks(runs):
    all_runs = runs["parent"] + runs["change"]
    exact = {}
    for name in EXACT:
        seen = {values.get(name) for values, _, _ in all_runs}
        exact[name] = len(seen) == 1
    return {
        "correct_all_runs": all(c for _, c, _ in all_runs),
        "failed_total": sum(f for _, _, f in all_runs),
        "exact_metrics_equal": exact,
    }


def claimed(runs, name, unit, better):
    p, c = series(runs, "parent", name), series(runs, "change", name)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    pq1, pq3 = quartiles(p)
    cq1, cq3 = quartiles(c)
    pm, cm = statistics.median(p), statistics.median(c)
    diff, iqr = sign * (cm - pm), pq3 - pq1
    ok = 10 * wins >= 9 * len(p) and diff > iqr
    return {
        "unit": unit,
        "better": better,
        "parent": {"median": r4(pm), "q1": r4(pq1), "q3": r4(pq3),
                   "runs": [r4(x) for x in p]},
        "change": {"median": r4(cm), "q1": r4(cq1), "q3": r4(cq3),
                   "runs": [r4(x) for x in c]},
        "change_won_pairs": wins,
        "median_gain_pct": round(100 * (cm - pm) / pm, 1) if pm else None,
        "parent_iqr": r4(iqr),
        "median_diff": r4(cm - pm),
        "verdict": "pass" if ok else "fail",
    }


def medians(runs, names, units):
    out = {}
    for name in names:
        p, c = series(runs, "parent", name), series(runs, "change", name)
        out[name] = {
            "unit": units[name],
            "parent_median": r4(statistics.median(p)),
            "change_median": r4(statistics.median(c)),
            "parent_range": [r4(min(p)), r4(max(p))],
            "change_range": [r4(min(c)), r4(max(c))],
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare to")
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    ap.add_argument("--workload", default="simulate", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--claim", action="append",
                    help="end-to-end metric the verdict covers (repeatable; "
                         "default sim_shared_maccess_per_s)")
    args = ap.parse_args()
    claims = args.claim or ["sim_shared_maccess_per_s"]
    declared = json.load(open("BENCHMARK.json"))["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    betters = {m["name"]: m["better"] for m in declared}
    for name in claims:
        if name not in units:
            sys.exit("pairs: %s is not an end-to-end metric" % name)
    others = [m["name"] for m in declared if m["name"] not in claims]

    parent = git("rev-parse", args.parent)
    change = git("describe", "--always", "--dirty")
    parent_tree = tempfile.mkdtemp(prefix="locmap-pairs-")
    try:
        export(parent, parent_tree)
        trees = {"parent": parent_tree, "change": os.getcwd()}
        command = ("python3 perfbench/run.py --workload %s --seed %d "
                   "--seconds " + str(SECONDS) + " --trace 0")
        order, runs = run_pairs(trees, args.workload, args.seed, PAIRS)
        metrics = {n: claimed(runs, n, units[n], betters[n]) for n in claims}
        result = {
            "bench": args.name,
            "what": "perfbench %s, parent vs change, alternating which side "
                    "ran first" % args.workload,
            "command": command % (args.workload, args.seed),
            "parent_commit": parent,
            "change_commit": change,
            "nproc": os.cpu_count(),
            "ocaml": subprocess.run(["ocamlopt", "-version"], capture_output=True,
                                    text=True).stdout.strip(),
            "quartiles": "Python statistics.quantiles(n=4, method='inclusive')",
            "pairs": PAIRS,
            "order": order,
            "metrics": metrics,
            "other_end_to_end_medians": medians(runs, others, units),
            "checks": checks(runs),
            "other_workloads": {},
        }
        for w in WORKLOADS:
            if w == args.workload:
                continue
            _, wruns = run_pairs(trees, w, args.seed, CHECK_PAIRS)
            result["other_workloads"][w] = {
                "command": command % (w, args.seed),
                "pairs": CHECK_PAIRS,
                "medians": medians(wruns, list(units), units),
                "checks": checks(wruns),
            }
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)

    all_checks = [result["checks"]] + [
        o["checks"] for o in result["other_workloads"].values()]
    checks_hold = all(
        c["correct_all_runs"] and c["failed_total"] == 0
        and all(c["exact_metrics_equal"].values()) for c in all_checks)
    passed = all(m["verdict"] == "pass" for m in metrics.values())
    result["verdict"] = {
        "rule": RULE,
        "claims": {n: m["verdict"] for n, m in metrics.items()},
        "checks_hold": checks_hold,
        "pass": passed and checks_hold,
    }
    path = "BENCH_%s.json" % args.name
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    for n, m in metrics.items():
        log("%s: %s -> %s (%+.1f%%), won %d/%d, median gap %.4g vs parent "
            "IQR %.4g: %s" % (n, m["parent"]["median"], m["change"]["median"],
                              m["median_gain_pct"] or 0, m["change_won_pairs"],
                              PAIRS, abs(m["median_diff"]),
                              m["parent_iqr"], m["verdict"]))
    log("checks %s; wrote %s" % ("hold" if checks_hold else "FAIL", path))
    sys.exit(0 if result["verdict"]["pass"] else 1)


if __name__ == "__main__":
    main()
