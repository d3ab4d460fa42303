#!/usr/bin/env python3
"""Builds the HALOTIS daemon and the benchmark, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload corpus_batch|serve_hot|serve_churn \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Both programs build from source into $CARGO_TARGET_DIR (default
`.bench_build`).  The last line of standard output is the benchmark's
result object.  `--self-test` runs every workload briefly against a
deliberately corrupted golden value and exits 0 only if the output oracle
reported failures on each of them.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("corpus_batch", "serve_hot", "serve_churn")


def build(target_dir):
    """Builds `halotis-serve` and the benchmark; False when either fails."""
    for manifest, extra in (
        ("Cargo.toml", ["--bin", "halotis-serve"]),
        (os.path.join("perfbench", "Cargo.toml"), []),
    ):
        if not os.path.isfile(os.path.join(ROOT, manifest)):
            print(f"run.py: {manifest} not found", file=sys.stderr)
            return False
        command = ["cargo", "build", "--release", "--offline", "--quiet",
                   "--manifest-path", manifest] + extra
        result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                                env=dict(os.environ, CARGO_TARGET_DIR=target_dir))
        if result.returncode != 0:
            return False
    return True


def source_digest():
    """SHA-256 over the program's sources, naming the code a result measured."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, name) for name in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "src"):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(folder, name) for name in sorted(files)]
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def stamp_env():
    env = dict(os.environ)
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    env["PERFBENCH_RUSTC"] = rustc.stdout.strip() or "unknown"
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    env["PERFBENCH_COMMIT"] = commit.stdout.strip() if commit.returncode == 0 else "none"
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    return env


def run_bench(binary, target_dir, args, env):
    command = [binary, "--serve-bin",
               os.path.join(target_dir, "release", "halotis-serve")] + args
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)


def self_test(binary, target_dir, env):
    caught = True
    for workload in WORKLOADS:
        result = run_bench(binary, target_dir, ["--workload", workload, "--seed", "1",
                                                "--seconds", "1", "--trace", "0",
                                                "--corrupt-oracle"], env)
        lines = result.stdout.strip().splitlines()
        outcome = json.loads(lines[-1]) if result.returncode == 0 and lines else None
        failed = outcome["failed"] if outcome else 0
        attempted = outcome["attempted"] if outcome else 0
        ok = outcome is not None and failed > 0 and not outcome["correct"]
        caught &= ok
        print(f"self-test {workload}: failed_frac {failed / max(attempted, 1):.4f} "
              f"({failed} of {attempted}) -> {'caught' if ok else 'MISSED'}")
    return 0 if caught else 1


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    if not build(target_dir):
        return 1
    binary = os.path.join(target_dir, "release", "perfbench")
    env = stamp_env()
    args = sys.argv[1:]
    if args == ["--self-test"]:
        return self_test(binary, target_dir, env)
    result = run_bench(binary, target_dir, args, env)
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
