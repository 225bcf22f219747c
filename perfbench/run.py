#!/usr/bin/env python3
"""Host-speed benchmark of the TACTIC simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator's libraries and the benchmark binary from this
checkout into .bench_build/perfbench (CMake, the repository's default
RelWithDebInfo flags), runs one workload in a child process, checks the
outputs, and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Beyond the binary's own checks (digests, drain accounting, attacker
content), this script verifies a sample of captured tag signatures with
an independent PKCS#1 v1.5 SHA-256 implementation and holds the Bloom
filter's measured false-positive rate to a binomial interval around the
analytic rate.  README.md describes the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SPANS_DIR = ROOT / ".bench_build" / "spans"
GOLDEN_DIR = ROOT / "tests" / "golden"
WORKLOADS = ("paper_t4", "tag_churn", "forged_flood", "corpus_mix")
# Workloads whose Bloom false-positive rate is held to the analytic bound.
# The small filters of tag_churn (m = 1472 bits) and forged_flood (1792)
# measure 15-30% above (1 - e^(-kn/m))^k, so the bound fails on some seeds
# there; their measured/analytic ratio is still reported as bloom.fp_ratio.
BLOOM_BOUND_WORKLOADS = ("paper_t4", "corpus_mix")
# The binary must finish well inside the benchmark's 180 s limit.
RUN_TIMEOUT_S = 170

END_TO_END_UNITS = {"sim_rate": "sim_s/s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name):
    if name.endswith("_ns") or name == "event.ns_per_event":
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith("sim_rate"):
        return "sim_s/s"
    if name == "net.bytes":
        return "bytes"
    if name.endswith(("share", "ratio", "per_tagged_request", "speed")):
        return "ratio"
    return "count"


def build():
    """Configures and builds the benchmark binary; returns its path."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = BUILD_DIR / "build.log"
    with open(BUILD_DIR / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)]
        if not (BUILD_DIR / "CMakeCache.txt").exists() and shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        for command in (
            configure,
            ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_bin",
             "-j", jobs],
        ):
            if subprocess.run(command, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                raise SystemExit("perfbench: build failed")
    return BUILD_DIR / "perfbench_bin"


# PKCS#1 v1.5 DigestInfo prefix for SHA-256 (RFC 8017, section 9.2).
SHA256_DIGEST_INFO = bytes.fromhex("3031300d060960864801650304020105000420")


def rsa_pkcs1_sha256_verify(n, e, message, signature):
    """RSASSA-PKCS1-v1_5 verification from the RFC, with Python integers."""
    k = (n.bit_length() + 7) // 8
    if len(signature) != k:
        return False
    s = int.from_bytes(signature, "big")
    if s >= n:
        return False
    t = SHA256_DIGEST_INFO + hashlib.sha256(message).digest()
    if k < len(t) + 11:
        return False
    expected = b"\x00\x01" + b"\xff" * (k - len(t) - 3) + b"\x00" + t
    return pow(s, e, n).to_bytes(k, "big") == expected


def check_oracle(samples, problems):
    """Every sampled tag: the independent verdict equals the program's,
    client tags verify and forged tags do not."""
    if not samples:
        problems.append("oracle: no tags captured")
    for sample in samples:
        verdict = rsa_pkcs1_sha256_verify(
            int(sample["n"], 16), int(sample["e"], 16),
            bytes.fromhex(sample["msg"]), bytes.fromhex(sample["sig"]))
        role = sample["role"]
        if verdict != sample["verdict"]:
            problems.append(f"oracle: {role} tag: independent verdict {verdict}, "
                            f"program {sample['verdict']}")
        elif role == "client" and not verdict:
            problems.append("oracle: a client tag does not verify")
        elif role == "forger" and verdict:
            problems.append("oracle: a forged tag verifies")


def check_bloom(fp, gated, problems):
    """Returns the measured false-positive rate over the analytic
    (1 - e^(-kn/m))^k; when `gated`, the rate must also fall within a z=4
    binomial interval around the analytic one."""
    m, k, n = fp["bits"], fp["hashes"], fp["items"]
    probes, hits = fp["probes"], fp["false_positives"]
    if m <= 0 or probes <= 0:
        problems.append("bloom: no false-positive probes ran")
        return 0.0
    p = (1.0 - math.exp(-k * n / m)) ** k
    half = 4.0 * math.sqrt(p * (1.0 - p) / probes)
    rate = hits / probes
    if gated and not p - half <= rate <= p + half:
        problems.append(f"bloom: false-positive rate {rate:.3e} outside "
                        f"[{p - half:.3e}, {p + half:.3e}] (m={m} k={k} n={n})")
    return rate / p


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    spans = SPANS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--golden", str(GOLDEN_DIR), "--spans", str(spans)]
    command += ["--t0-ns", str(time.monotonic_ns())]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            timeout=RUN_TIMEOUT_S)
    if result.returncode != 0:
        raise SystemExit(f"perfbench: benchmark binary exited with {result.returncode}")
    report = json.loads(result.stdout.strip().splitlines()[-1])

    problems = list(report["errors"])
    if args.trace:
        check_oracle(report["oracle"], problems)
        values, unit_of = report["per_layer"], per_layer_unit
        values["bloom.fp_ratio"] = check_bloom(
            report["bloom_fp"], args.workload in BLOOM_BOUND_WORKLOADS, problems)
    else:
        values, unit_of = report["end_to_end"], END_TO_END_UNITS.get
    for problem in problems:
        sys.stderr.write(f"perfbench: {args.workload} seed {args.seed}: {problem}\n")

    print(json.dumps({
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in values.items()},
    }))


if __name__ == "__main__":
    main()
