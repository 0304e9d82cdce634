#!/usr/bin/env bash
# Repository CI gate: build, test, lint. Run from the workspace root.
#
#   ./scripts/ci.sh
#
# Mirrors the tier-1 verification the roadmap pins (release build + tests)
# and adds the clippy wall the supervision, engine, and storage code is held
# to: unwrap/expect are denied outside tests in bfu-crawler, bfu-script,
# bfu-browser, bfu-store, bfu-objstore, and bfu-fabric (a panic in any of
# them takes a whole survey — or its only on-disk copy — down).
#
# Set BFU_TORTURE_FULL=1 to make the workspace test step sweep every point
# (every backend op, fabric step, wire exchange and replica op) instead of
# the bounded default.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace)"
# Every crate's tests plus the root package's cross-crate suites, each run
# once here:
#
# - store: the dataset store round trip.
# - chaos: the adversarial chaos suite (hostile web, 1 vs 8 threads).
# - store_torture: store crash consistency. The suite bounds its sweep to a
#   fixed budget of crash points unless BFU_TORTURE_FULL=1, in which case it
#   kills the store at every single backend op.
# - fabric_torture: kill the survey fabric at every worker/coordinator step
#   AND partition the whole-object backend at every op (delayed visibility,
#   stale reads/lists, lost replays under chaos), AND run the whole fabric
#   over a hostile wire (dropped/truncated/stalled/duplicated/reordered
#   frames, elected coordinator killed at every step, a standby finishing
#   after each coordinator kill), AND over a 3-replica quorum store — any
#   one replica killed at every one of its ops, partitioned for every
#   window, killed together with a worker, rejoining empty and caught up by
#   anti-entropy, the CAS primary dead from the start — proving every
#   schedule recovers to the single-process fingerprint.
# - objstore_torture: the whole-object backend: every-op crash sweep with
#   process-restart recovery, manifest old-or-new on both publish lowerings
#   (versioned put and copy+delete rename, including the window between
#   copy and delete), chaos-partitioned store runs, the shuffled-listing
#   regression, plus the replica dimension — any single replica killed at
#   any of its ops with no error surfacing, stale R=1 reads caught by
#   visibility retries and healed by scrub, and a replayed mutation past
#   the server's replay window refused typed instead of silently
#   re-executed.
# - fabric_proc: the cross-process fabric. Two real OS worker processes
#   coordinating only through the object store must fingerprint
#   identically to a single-process LocalFs run, a worker process dying
#   mid-run must be fenced and its leases reassigned, and the networked
#   variant — coordinator and workers dialing an ObjectServer over real
#   localhost TCP sockets, the coordinator under an elected CAS-fenced
#   term — must land on the same fingerprint with remote-op and election
#   counters in the provenance sidecar.
# - proptests: no-panic property tests plus the engine differential suite:
#   random token soup and mutated programs must produce identical
#   outcomes, fuel, heap, and string accounting under the tree-walk oracle
#   and the bytecode VM, and whole random crawls must fingerprint
#   identically engine to engine. The chaos suite extends the same gate to
#   a 200-site hostile web.
cargo test --workspace -q

echo "==> cargo test --release -p bfu-script"
# The lexer adds u32 token offsets and lengths, and the parser indexes the
# source by both (token values and deferred bodies); only debug builds check
# that arithmetic for overflow, so the script crate's tests run optimized
# too.
cargo test -q --release -p bfu-script

echo "==> crawl_bench smoke (engine x cache grid fingerprints + live caches)"
# Small scale: correctness gate, not a performance measurement. crawl_bench
# itself errors if any engine x cache cell diverges from the warmup
# fingerprint, if a cached run reports the cache disabled, or if the VM run
# never compiled a chunk; the jq-less greps below additionally pin the grid
# columns and a real hit rate so a silently dead cache — under either
# engine's counters — or a dropped engine dimension cannot pass.
CI_BENCH_OUT=$(mktemp)
cargo run -q --release -p bfu-bench --bin crawl_bench -- \
    --sites 10 --rounds 2 --script-weight 25 --out "$CI_BENCH_OUT"
grep -q '"fingerprints_match": true' "$CI_BENCH_OUT"
grep -q '"treewalk": {' "$CI_BENCH_OUT"
grep -q '"vm": {' "$CI_BENCH_OUT"
grep -q '"vm_speedup"' "$CI_BENCH_OUT"
grep -q '"hits": 0,' "$CI_BENCH_OUT" && { echo "compile cache saw zero hits"; exit 1; }
grep -q '"chunk_hits": 0,' "$CI_BENCH_OUT" && { echo "chunk cache saw zero hits"; exit 1; }
rm -f "$CI_BENCH_OUT"

echo "==> fabric_bench smoke (workers × backend fingerprints identical to single-process)"
# Small scale: the gate is the fingerprint cross-check, not throughput.
# fabric_bench exits non-zero itself on divergence; the greps pin the flag
# and the presence of both backend columns in the emitted JSON so a
# silently skipped check or a dropped grid dimension cannot pass.
CI_FABRIC_OUT=$(mktemp)
cargo run -q --release -p bfu-bench --bin fabric_bench -- \
    --sites 12 --per-lease 2 --out "$CI_FABRIC_OUT"
grep -q '"fingerprints_match": true' "$CI_FABRIC_OUT"
grep -q '"backend": "objstore"' "$CI_FABRIC_OUT"
grep -q '"backend": "posix"' "$CI_FABRIC_OUT"
grep -q '"backend": "remote"' "$CI_FABRIC_OUT"
grep -q '"backend": "replicated"' "$CI_FABRIC_OUT"
# The replicated column must show real quorum effort, not a dead front:
# some row carries 3 replicas with non-zero quorum write and read counts.
grep -q '"replicas": 3' "$CI_FABRIC_OUT"
grep -qE '"replica_quorum_writes": [1-9]' "$CI_FABRIC_OUT"
grep -qE '"replica_quorum_reads": [1-9]' "$CI_FABRIC_OUT"
rm -f "$CI_FABRIC_OUT"

echo "==> perfbench build + self-test (the benchmark sits outside the workspace)"
# perfbench is its own Cargo package, so the workspace build and tests above
# never compile it: a change to a public item its traced replay uses would
# otherwise surface only at the benchmark gate. Build it, then run every
# workload on a tiny web, untraced and traced, through BENCHMARK.json's own
# command; the self-test fails on a non-zero exit, a failed output check
# (pinned fingerprints, replay == crawl), or a missing metric.
cargo build -q --release --offline --manifest-path perfbench/Cargo.toml
python3 perfbench/selftest.py

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings denied)"
# Broken, ambiguous or private intra-doc links fail the gate, so the API
# docs never silently lose a link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "CI OK"
