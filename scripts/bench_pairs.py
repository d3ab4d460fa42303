#!/usr/bin/env python3
"""Paired-run performance record: parent commit against the working tree.

Runs the repository benchmark (`perfbench/run.py`, untraced) in N pairs per
seed, once on a `git archive` extract of the parent commit and once on the
working tree, alternating which side runs first, and writes
`BENCH_<workload>.json`: per seed and per metric, each side's median and
quartiles, the change's median over the parent's, and how many pairs the
change won.  A claimed gain holds for a metric when the change won at least
nine pairs in ten, its median beats the parent's by more than the parent's
interquartile range, and no more of its operations failed.

Every run lasts `BENCHMARK.json`'s `run_seconds`.  Each side builds its own
`.bench_build` (the first pair pays the builds); the script edits nothing
under `perfbench/`.

Usage, from the repository root:
    bench_pairs.py --workload serve_churn --seeds 1 424242 [--pairs 10]
                   [--parent HEAD~1]
    bench_pairs.py --self-test

Exit codes: 0 record written, 1 a run failed, 2 usage error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    """Runs git in the repository and returns its stripped stdout."""
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev, into):
    """Writes the tree of `rev` into the directory `into`."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def run_once(root, workload, seed, seconds):
    """One untraced benchmark run in the checkout `root`: its `env` stamp and
    its result object, or None when the run failed."""
    env = {key: value for key, value in os.environ.items() if key != "CARGO_TARGET_DIR"}
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        return None
    stamp = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return stamp, json.loads(lines[-1])


def order(pair):
    """The sides of pair `pair` in running order: the parent first in even
    pairs, the change first in odd ones."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def spread(values):
    """Median and quartiles of `values`."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, directions):
    """Per-metric summary of `pairs`, a list of `{"parent": result,
    "change": result}`; `directions` maps a metric to "lower" or "higher"."""
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
    summary = {}
    for name, better in directions.items():
        values = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                  for p in pairs
                  if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if len(values) < 2:
            continue
        parent = spread([v[0] for v in values])
        change = spread([v[1] for v in values])
        sign = 1.0 if better == "lower" else -1.0
        won = sum(1 for p, c in values if sign * (p - c) > 0)
        margin = sign * (parent["median"] - change["median"])
        summary[name] = {
            "unit": pairs[0]["parent"]["metrics"][name].get("unit", ""),
            "better": better,
            "parent": parent,
            "change": change,
            "change_over_parent": change["median"] / parent["median"] if parent["median"] else None,
            "pairs_won": won,
            "claim_holds": (failed["change"] <= failed["parent"] and won * 10 >= 9 * len(values)
                            and margin > parent["q3"] - parent["q1"]),
            "values": [[p, c] for p, c in values],
        }
    return summary


def measure(args, seconds, parent_root, directions):
    """Runs every pair of every seed; the record's `series`, or None."""
    roots = {"parent": parent_root, "change": ROOT}
    series = []
    stamps = {}
    for seed in args.seeds:
        pairs = []
        for pair in range(args.pairs):
            results = {}
            for side in order(pair):
                outcome = run_once(roots[side], args.workload, seed, seconds)
                if outcome is None:
                    print(f"bench_pairs: {side} run failed (seed {seed}, pair {pair})",
                          file=sys.stderr)
                    return None, stamps
                stamps[side], results[side] = outcome
            pairs.append(results)
            print(f"seed {seed} pair {pair + 1}/{args.pairs}: " + ", ".join(
                f"{side} load_us_p50 {results[side]['metrics'].get('load_us_p50', {}).get('value')}"
                for side in ("parent", "change")), file=sys.stderr)
        series.append({
            "seed": seed,
            "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in roots},
            "failed": {side: sum(p[side]["failed"] for p in pairs) for side in roots},
            "correct": all(p[side]["correct"] for p in pairs for side in roots),
            "metrics": summarize(pairs, directions),
        })
    return series, stamps


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="corpus_batch, serve_hot or serve_churn")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD~1", help="the commit to compare against")
    parser.add_argument("--self-test", action="store_true",
                        help="check the summary on synthetic results and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload or args.pairs < 2:
        parser.error("--workload is required, and --pairs must be at least 2")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    directions = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    parent_commit = git("rev-parse", args.parent)
    parent_root = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        extract(parent_commit, parent_root)
        series, stamps = measure(args, seconds, parent_root, directions)
    finally:
        shutil.rmtree(parent_root, ignore_errors=True)
    if series is None:
        return 1
    change = stamps.get("change", {})
    record = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {seconds:g} --trace 0",
        "seconds": seconds,
        "pairs": args.pairs,
        "cpu_count": os.cpu_count(),
        "rustc": change.get("rustc", "unknown"),
        "parent": {"commit": parent_commit,
                   "source_digest": stamps.get("parent", {}).get("source_digest")},
        "change": {"commit": change.get("commit"),
                   "source_digest": change.get("source_digest"),
                   "dirty": bool(git("status", "--porcelain", "--untracked-files=no",
                                     "--", "crates", "src", "Cargo.toml", "Cargo.lock"))},
        "series": series,
    }
    with open(os.path.join(ROOT, f"BENCH_{args.workload}.json"), "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    for entry in series:
        for name, metric in entry["metrics"].items():
            print(f"seed {entry['seed']} {name}: parent {metric['parent']['median']:.6g} "
                  f"change {metric['change']['median']:.6g} "
                  f"({metric['change_over_parent']:.3f}x), "
                  f"won {metric['pairs_won']}/{args.pairs}, claim holds: {metric['claim_holds']}")
    return 0


def self_test():
    """Checks the order, the quartiles, the pairs won and the claim rule on
    synthetic results."""
    assert [order(pair) for pair in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]
    assert spread([1, 2, 3, 4, 5]) == {"median": 3, "q1": 2, "q3": 4}

    def result(load, rate, failed=0):
        return {"correct": True, "failed": failed, "metrics": {
            "load_us_p50": {"value": load, "unit": "us"},
            "requests_per_s": {"value": rate, "unit": "1/s"}}}

    directions = {"load_us_p50": "lower", "requests_per_s": "higher", "setup_s": "lower"}
    # Loads fall by a quarter in nine pairs of ten; the rate is flat.
    pairs = [{"parent": result(100.0 + pair, 50.0 + pair % 3),
              "change": result(75.0 + pair if pair else 101.0, 50.0 + pair % 3)}
             for pair in range(10)]
    summary = summarize(pairs, directions)
    assert set(summary) == {"load_us_p50", "requests_per_s"}, summary
    load = summary["load_us_p50"]
    assert load["pairs_won"] == 9 and load["claim_holds"], load
    assert load["parent"] == spread([100.0 + pair for pair in range(10)])
    assert load["values"][0] == [100.0, 101.0]
    rate = summary["requests_per_s"]
    assert rate["pairs_won"] == 0 and not rate["claim_holds"], rate
    # Eight wins of ten are not enough, whatever the margin.
    pairs[1]["change"] = result(200.0, 50.0)
    assert not summarize(pairs, directions)["load_us_p50"]["claim_holds"]
    # Ten wins by less than the parent's interquartile range are not either.
    close = [{"parent": result(100.0 + 4 * pair, 50.0),
              "change": result(99.0 + 4 * pair, 50.0)} for pair in range(10)]
    tight = summarize(close, directions)["load_us_p50"]
    assert tight["pairs_won"] == 10 and not tight["claim_holds"], tight
    # For a higher-is-better metric, a rise wins.
    faster = [{"parent": result(100.0, 50.0 + pair % 2), "change": result(100.0, 80.0)}
              for pair in range(10)]
    assert summarize(faster, directions)["requests_per_s"]["claim_holds"]
    # A gain does not hold when the change fails more operations.
    faster[3]["change"] = result(100.0, 80.0, failed=1)
    dropping = summarize(faster, directions)["requests_per_s"]
    assert dropping["pairs_won"] == 10 and not dropping["claim_holds"], dropping
    faster[5]["parent"] = result(100.0, 51.0, failed=1)
    assert summarize(faster, directions)["requests_per_s"]["claim_holds"]
    print("bench_pairs self-test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
