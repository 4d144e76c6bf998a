#!/usr/bin/env python3
"""End-to-end benchmark entry point (see README.md in this directory).

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

Run from the repository root. Builds the library and the benchmark binary from source
into .bench_build/e2ebench (first run only), pins the thread environment for
the workload, runs it, and prints the binary's lines followed by one JSON
result line. Exit code 0 only when every correctness gate held.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
RUN_TIMEOUT_S = 170

# Pinned per workload, never inherited: the library's thread pool size
# (DAREC_NUM_THREADS). Trainers run one worker (fixed inside the binary);
# serving runs one flusher plus this pool.
WORKLOAD_THREADS = {"train_align": 1, "train_graph": 1, "serve_topk": 1}
# Variables that would change what is measured; removed so every run uses
# the library defaults (CPUID SIMD tier, fusion on, no fail points).
UNPINNED = ("DAREC_SIMD", "DAREC_FUSION", "DAREC_FAILPOINTS")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_id():
    """Git commit (when the checkout is a repository) plus a content hash of
    the library and benchmark sources, which also covers uncommitted edits."""
    commit = "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return f"git:{commit} sha1:{digest.hexdigest()[:16]}"


def scratch_env(env):
    """Keeps compiler and library temporaries inside the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(env, TMPDIR=str(tmp))


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources at {ROOT / 'src'}; run from the repository root")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs, "--target", target]]
    if (BUILD / "CMakeCache.txt").is_file():
        steps = steps[1:]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              env=scratch_env(os.environ))
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed")
            sys.exit(2)
    return BUILD / target


def pinned_env(workload):
    env = {k: v for k, v in os.environ.items() if k not in UNPINNED}
    env["DAREC_NUM_THREADS"] = str(WORKLOAD_THREADS[workload])
    return scratch_env(env)


def check_result(result, trace):
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        raise ValueError(f"result keys {sorted(result)} != {sorted(keys)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name} malformed")
    expected = load_metric_names(trace)
    if expected is not None and set(result["metrics"]) != expected:
        raise ValueError(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ expected)}")


def load_metric_names(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    section = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in json.loads(spec.read_text())[section]}


def repeat_gate(result, info, env, workload, seed, source):
    """recall_at_20 and success_rate must repeat bit for bit for a seed of
    the same sources, SIMD tier and compiler (the cache lives in the build
    directory, so the first run of a seed there only records its values)."""
    cache_path = BUILD / "repeat-cache.json"
    cache = json.loads(cache_path.read_text()) if cache_path.is_file() else {}
    key = f"{source.split()[-1]}|{env.get('simd')}|{env.get('compiler')}|{workload}|{seed}"
    seen = {"recall_at_20": repr(info.get("recall_at_20")),
            "success_rate": repr(result["metrics"]["success_rate"]["value"])}
    if key in cache and cache[key] != seen:
        log(f"gate failed: {workload} seed {seed} repeated as {seen}, first run {cache[key]}")
        return False
    cache[key] = seen
    cache_path.write_text(json.dumps(cache, indent=1, sort_keys=True))
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOAD_THREADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-test")
    args = parser.parse_args()

    if args.selftest:
        binary = build("darec_e2e_selftest")
        sys.exit(subprocess.run([str(binary)]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    binary = build("darec_e2e")
    source = source_id()
    work_dir = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--source", source]
    try:
        done = subprocess.run(cmd, env=pinned_env(args.workload), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(3)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        check_result(result, args.trace)
    except (IndexError, ValueError) as err:
        log(f"no valid result line (exit code {done.returncode}): {err}")
        sys.exit(3)
    info, env = {}, {}
    for line in lines:
        if line.startswith("# info "):
            info = json.loads(line[len("# info "):])
        elif line.startswith("# env "):
            env = json.loads(line[len("# env "):])
    correct = result["correct"] and done.returncode == 0
    if correct and not args.trace:
        correct = repeat_gate(result, info, env, args.workload, args.seed, source)
    result["correct"] = correct
    print(json.dumps(result), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
