#!/usr/bin/env bash
# Fixed-seed scenario-fuzz sweeps under ASan+UBSan, one profile per
# simulator layer.  Every profile keeps the runtime invariant checker
# armed and runs each scenario twice, byte-comparing the two runs, so a
# layer that breaks a security invariant or leaks nondeterminism fails
# the sweep.  Any sanitizer report aborts the run
# (-fno-sanitize-recover=all) and fails the script.  Failures reproduce
# locally with the printed `fuzz_scenarios --seed N --repro` line.
#
# Profiles (runs, simulated seconds per run, base seed, layer flags):
#
#   chaos      random fault plans: lossy/bursty/corrupting links, router
#              crash-restarts, link flaps.  Longer runs give crash and
#              flap schedules room to fire and recover.
#   flood      faults + the overload-resilience layer (validation queues,
#              load shedding, negative-tag caches, staged BF resets,
#              bounded PITs, attacker floods).  A disabled layer must be
#              inert and bounded PITs must never exceed capacity.
#   batch      flood + batched validation (per-provider signature
#              batches, same-instant BF probe coalescing).  Batch draws
#              come after the flood draws, so a seed that fails here but
#              not under `flood` isolates the batching layer.
#   scale      flood + bigtables: every router FIB pre-populated with
#              10^4-10^5 random prefixes, and each scenario re-run on the
#              linear reference FIB with fingerprints and trace digests
#              byte-compared.  Heavier runs, so fewer of them.
#   adaptive   flood + the adaptive overload-control layer (gradient
#              admission controller, per-face quarantine), drawn after
#              every other layer.
#   lifecycle  flood + the tag-lifecycle layer (skewed node clocks,
#              skew-tolerant expiry, outage grace, proactive renewal),
#              drawn last of all.  A tolerance window covering the
#              worst-case clock error must eliminate skew-induced
#              rejections of live tags.
#
# flood, batch, scale, adaptive and lifecycle share base seed 9000, so
# their base, fault and overload draws are identical and only the top
# layer differs.
#
# Usage: ci/fuzz.sh <profile> [build-dir]    (default: build-sanitize)
#
# Reuses the sanitizer build tree; run after (or instead of)
# ci/sanitize.sh — the cmake step below is a no-op when it already ran.

set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: ci/fuzz.sh <chaos|flood|batch|scale|adaptive|lifecycle>" \
    "[build-dir]" >&2
  exit 2
}

PROFILE="${1:-}"
case "$PROFILE" in
  chaos)     ARGS=(--runs 16 --duration 12 --seed 7000 --faults) ;;
  flood)     ARGS=(--runs 16 --duration 10 --seed 9000 --faults --overload) ;;
  batch)     ARGS=(--runs 16 --duration 10 --seed 9000 --faults --overload
                   --batch) ;;
  scale)     ARGS=(--runs 10 --duration 8 --seed 9000 --faults --overload
                   --bigtables) ;;
  adaptive)  ARGS=(--runs 16 --duration 10 --seed 9000 --faults --overload
                   --adaptive) ;;
  lifecycle) ARGS=(--runs 16 --duration 10 --seed 9000 --faults --overload
                   --skew) ;;
  *) usage ;;
esac

BUILD_DIR="${2:-build-sanitize}"

cmake -B "$BUILD_DIR" -S . -DTACTIC_SANITIZE=ON
cmake --build "$BUILD_DIR" -j "$(nproc)" --target fuzz_scenarios

"$BUILD_DIR/fuzz_scenarios" "${ARGS[@]}"

echo "$PROFILE: OK"
