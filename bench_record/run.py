#!/usr/bin/env python3
"""Benchmark of record for the Ballista reproduction.

Builds bench_record from the checkout's sources (CMake, into the directory
named by $CARGO_TARGET_DIR, default .bench_build) and runs one workload:

    python3 bench_record/run.py --workload paper7 --seed 1 --seconds 38 --trace 0

The last line of stdout is the JSON result.  At the pinned seed and cap the
merged results must match bench_record/digests.json; at any other seed the
check is self-consistency between repetitions (and, for service4, against
solo in-process runs of each session).

    python3 bench_record/run.py --smoke

runs every workload at a small cap in both trace modes and checks that each
metric BENCHMARK.json names appears with its unit and that nothing failed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_CAP = 40


def die(msg, code=2):
    print(f"bench_record: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures once, then brings the binary up to date; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the repository's src/ is missing next to bench_record/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "bench_record",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd), 1)
    return os.path.join(out, "bench_record")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def src_digest():
    """sha256 over the program's sources, for checkouts that are not repos."""
    h = hashlib.sha256()
    for top in ("src", "bench_record"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def pinned_digest(workload, seed, cap):
    """The pinned digest, when `cap` is None (the workload's own cap, which
    the pin records) or equals the pinned one."""
    with open(os.path.join(HERE, "digests.json")) as f:
        pins = json.load(f)
    pin = pins["digests"].get(workload)
    if pin is None or seed != pins["seed"] or cap not in (None, pin["cap"]):
        return None
    return pin["digest"]


def command(binary, workload, seed, seconds, trace, cap=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", os.path.join(build_dir(), "out"),
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    if cap is not None:
        cmd += ["--cap", str(cap)]
    pin = pinned_digest(workload, seed, cap)
    if pin:
        cmd += ["--expect-digest", pin]
    return cmd


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = command(binary, wl["name"], 7, 1, trace, SMOKE_CAP)
            r = subprocess.run(cmd, capture_output=True, text=True)
            tag = f"{wl['name']} --trace {trace}"
            try:
                result = json.loads(r.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{tag}: no JSON result (exit {r.returncode})")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json")
            if r.returncode or not result["correct"] or result["failed"]:
                problems.append(f"{tag}: failed {result['failed']} of "
                                f"{result['attempted']} (exit {r.returncode})")
            print(f"smoke {tag}: {len(got)} metrics, "
                  f"failed {result['failed']} of {result['attempted']}")
    for p in problems:
        print("smoke FAILED:", p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0x8a11157a)
    ap.add_argument("--seconds", type=int, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cap", type=int,
                    help="cases per MuT (default: the workload's own)")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    binary = build()
    if args.smoke:
        return smoke(binary)
    if not args.workload:
        die("--workload is required")
    cmd = command(binary, args.workload, args.seed, args.seconds, args.trace,
                  args.cap)
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
