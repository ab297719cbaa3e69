#!/usr/bin/env bash
# Offline CI gate + parallel-engine timing harness.
#
#   scripts/ci.sh            # tier-1 gate, then a reduced-size timing run
#   BENCH_SCALE=paper scripts/ci.sh   # paper-size MMT (N=BJ=100, BK=50; minutes)
#
# The gate is the repo's tier-1 contract: an offline release build plus the
# full workspace test suite, no registry access required. The timing run
# exercises bench_parallel, which asserts that serial and parallel
# FindMisses reports are identical before writing its JSON.
# On a single-CPU host the measured speedup will sit near 1.0x — the
# harness reports honest wall-clock, not a simulated core count.
#
# Every harness writes its JSON under target/ci-bench/, never over the
# committed BENCH_*.json artifacts, so a green run leaves the tree clean.
# The committed artifacts are regenerated deliberately, at the scale each
# one states, by running the harness with `--out BENCH_<name>.json`.

set -euo pipefail
cd "$(dirname "$0")/.."
OUT=target/ci-bench
mkdir -p "$OUT"

echo "== lint gate: rustfmt =="
cargo fmt --check

echo "== lint gate: clippy (warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1 gate: offline release build =="
cargo build --release --offline

echo "== tier-1 gate: workspace tests (offline) =="
cargo test -q --offline --workspace

echo "== parallel timing harness =="
if [ "${BENCH_SCALE:-small}" = "paper" ]; then
    ARGS=(--n 100 --bj 100 --bk 50)
else
    ARGS=(--n 48 --bj 48 --bk 24)
fi
cargo run -p cme-bench --bin bench_parallel --release --offline -- \
    "${ARGS[@]}" --out "$OUT/BENCH_parallel.json"

echo "== classify walk-strategy harness =="
# Smoke at small scale: times the set-conscious skip-walk against the
# legacy full scan (both through the Classifier, every point) and the
# production FindMisses pipeline, asserting identical tallies throughout.
cargo run -p cme-bench --bin bench_classify --release --offline -- \
    --scale "${BENCH_SCALE:-small}" --out "$OUT/BENCH_classify.json"

echo "== hit/miss pre-pass harness =="
# Times cold serial FindMisses (pre-pass on) against the same set-skip
# walk over every point without it, asserts identical tallies, and
# enforces the floors: MMT resolution rate >= 50% and pre-pass-on wall
# <= pre-pass-off wall.
cargo run -p cme-bench --bin bench_prepass --release --offline -- \
    --scale "${BENCH_SCALE:-small}" --out "$OUT/BENCH_prepass.json"

echo "== symbolic-tier harness =="
# Always at paper scale: the harness asserts byte-identical reports with
# the tier on, a >=100x formula-vs-enumeration ratio for closed
# references, a >=10x symbolic padding sweep, and a parametric serve
# certificate hit with zero enumerated points — ratios that only mean
# anything where enumeration is expensive.
cargo run -p cme-bench --bin bench_symbolic --release --offline -- \
    --scale paper --out "$OUT/BENCH_symbolic.json"

echo "== trace subsystem harness =="
# Always at paper scale: generates each workload's exact address stream,
# asserts the cross-validation identity (replay == simulator everywhere;
# FindMisses == replay on hydro/mgrid, >= replay on MMT with <2% drift),
# framed-roundtrip byte identity, a store-backed engine repeat, and a
# >=10M accesses/sec serial replay floor on the MMT trace.
cargo run -p cme-bench --bin bench_trace --release --offline -- \
    --scale paper --out "$OUT/BENCH_trace.json"

echo "== result-store harness =="
# Cold vs hot query through one engine; asserts byte-identical payloads
# (and a >=100x hot speedup at paper scale).
cargo run -p cme-bench --bin bench_serve --release --offline -- \
    --scale "${BENCH_SCALE:-small}" --out "$OUT/BENCH_serve.json"

echo "== geometry-sweep harness =="
# Always at paper scale: a 24-cell grid (sizes x assocs x line sizes)
# through one shared SweepPlan vs a naive per-geometry loop. Asserts
# every grid cell byte-identical to its independent single-geometry run,
# a repeat sweep answered entirely from the store, and the amortization
# floor: the shared-plan sweep >=5x faster than naive on the streaming
# workload (a serial win — both sides run one thread).
cargo run -p cme-bench --bin bench_sweep --release --offline -- \
    --scale paper --out "$OUT/BENCH_sweep.json"

echo "== serve smoke test (hard 180 s timeout) =="
# The smoke script kills its daemon on every exit path; the hard timeout
# here turns an injected or accidental hang into a fast CI failure
# instead of a wedged job.
timeout --kill-after=10 180 scripts/serve_smoke.sh

echo "== chaos harness =="
# A seeded schedule of >=100 injected faults (torn writes, read errors,
# dropped connections, >=5 worker panics) against a live daemon: every
# completed response byte-identical to the fault-free baseline, every
# failure structured and retryable, the daemon surviving, compaction
# recovering at every injected crash point, and chaos-off bytes equal to
# the seed's.
cargo run -p cme-bench --bin bench_chaos --release --offline -- \
    --out "$OUT/BENCH_chaos.json"

echo "== ok =="
