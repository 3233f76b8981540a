#!/usr/bin/env bash
# Local CI: format check, lints, then the tier-1 and workspace test suites.
# Everything runs offline against the vendored path dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (warnings denied) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc (warnings denied: no broken intra-doc link) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release --offline
cargo test -q --offline

echo "== workspace tests =="
cargo test --workspace -q --offline

echo "== benchmark smoke (perfbench builds and runs every workload) =="
# perfbench/ is a Cargo package of its own, so the workspace build above
# never compiles it; this short run catches API changes that break it.
python3 perfbench/smoke_test.py --seconds 2

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "== examples and nnrt plan (stdout pinned byte for byte) =="
# Each prints only simulated results, so its whole stdout is a pure
# function of the code; tests/fixtures/stdout/ holds the expected text.
cargo build --release --offline --examples
for ex in quickstart resnet_training gpu_study; do
  ./target/release/examples/$ex > "$tmpdir/example-$ex.out" \
    || { echo "example $ex exited non-zero" >&2; exit 1; }
  cmp "tests/fixtures/stdout/$ex.txt" "$tmpdir/example-$ex.out" \
    || { echo "example $ex printed other output than tests/fixtures/stdout/$ex.txt" >&2; exit 1; }
done
for args in "resnet50 16" "lstm 8"; do
  name="plan-${args// /-}"
  ./target/release/nnrt plan $args > "$tmpdir/$name.out"
  cmp "tests/fixtures/stdout/$name.txt" "$tmpdir/$name.out" \
    || { echo "nnrt plan $args printed other output than tests/fixtures/stdout/$name.txt" >&2; exit 1; }
done
echo "examples and plans unchanged (quickstart, resnet_training, gpu_study, plan resnet50 16, plan lstm 8)"

echo "== paper records (sim-domain results pinned across commits) =="
# The benches rewrite experiments/<id>.json; each regenerated record must
# equal the committed one byte for byte.
paper_records="table1 table2 fig1 fig3 fig4 fig5 table3 table4 table5 table6 cluster_scaling cluster_overlap gpu_streams ablation_regression_directed chaos_recovery ablation_batch_size ablation_candidates ablation_oracle ablation_thrash ablation_threshold"
for id in $paper_records; do cp "experiments/$id.json" "$tmpdir/$id.json"; done
cargo bench -q --offline -p nnrt-bench --bench table1_parallelism_grid --bench table2_input_size \
  --bench fig1_op_scaling --bench fig3_ablation --bench fig4_corun_events --bench fig5_gpu_intraop \
  --bench table3_corun_strategies --bench table4_regression --bench table5_hillclimb \
  --bench table6_top_ops --bench cluster_scaling --bench cluster_overlap --bench table7_streams \
  --bench ablation_regression_directed --bench chaos_recovery \
  --bench ablation_batch_size --bench ablation_candidates --bench ablation_oracle \
  --bench ablation_thrash --bench ablation_threshold \
  > "$tmpdir/paper-records.out"
for id in $paper_records; do
  cmp "$tmpdir/$id.json" "experiments/$id.json" \
    || { echo "experiments/$id.json changed: the paper's simulated results moved" >&2; exit 1; }
done
echo "paper records unchanged ($paper_records)"
# The per-step digests behind those records: a moved digest names the
# model and the configuration (strategy set, TF baseline or event trace)
# whose simulated step changed.
cargo test -q --offline -p nnrt-sched --test step_golden

echo "== chaos suite (pinned seed 99) =="
cargo test -q --offline --test chaos_fleet
./target/release/nnrt serve 8 2 7 --chaos 99 --json > "$tmpdir/chaos-a.json"
./target/release/nnrt serve 8 2 7 --chaos 99 --json > "$tmpdir/chaos-b.json"
cmp "$tmpdir/chaos-a.json" "$tmpdir/chaos-b.json" \
  || { echo "chaos determinism violated: same seed produced different reports" >&2; exit 1; }
echo "chaos report deterministic (seed 99, byte-identical JSON)"
# Journaling stays free under faults too: crashes, evictions and retries
# journaled to disk must leave the report byte-identical.
./target/release/nnrt serve 8 2 7 --chaos 99 --durable "$tmpdir/chaos-durable" --json \
  > "$tmpdir/chaos-durable.json"
cmp "$tmpdir/chaos-a.json" "$tmpdir/chaos-durable.json" \
  || { echo "journaling perturbed the chaos report: --durable run differs" >&2; exit 1; }
echo "durable chaos report byte-identical to in-memory (seed 99)"

echo "== profile suite (parallel pipeline determinism) =="
cargo test -q --offline --test profile_parallel
./target/release/nnrt serve 6 2 7 --profile-threads 1 --json > "$tmpdir/profile-1w.json"
./target/release/nnrt serve 6 2 7 --profile-threads 4 --json > "$tmpdir/profile-4w.json"
cmp "$tmpdir/profile-1w.json" "$tmpdir/profile-4w.json" \
  || { echo "parallel profiling changed the report: 1 vs 4 workers differ" >&2; exit 1; }
echo "parallel profiling deterministic (1-worker vs 4-worker JSON byte-identical)"

echo "== gpu suite (stream runtime + fleet determinism) =="
cargo test -q --offline -p nnrt-gpu
./target/release/nnrt serve 4 2 7 --backend gpu --json > "$tmpdir/gpu-a.json"
./target/release/nnrt serve 4 2 7 --backend gpu --json > "$tmpdir/gpu-b.json"
cmp "$tmpdir/gpu-a.json" "$tmpdir/gpu-b.json" \
  || { echo "gpu fleet not deterministic: same seed produced different reports" >&2; exit 1; }
./target/release/nnrt serve 4 2 7 --backend gpu --profile-threads 4 --json > "$tmpdir/gpu-4w.json"
cmp "$tmpdir/gpu-a.json" "$tmpdir/gpu-4w.json" \
  || { echo "gpu profiling changed the report: 1 vs 4 workers differ" >&2; exit 1; }
echo "gpu fleet deterministic (seed 7 byte-identical; 1 vs 4 profile workers byte-identical)"

echo "== cluster suite (multi-node sim + fleet determinism) =="
cargo test -q --offline -p nnrt-cluster
./target/release/nnrt serve 4 2 7 --backend cluster --json > "$tmpdir/cluster-a.json"
./target/release/nnrt serve 4 2 7 --backend cluster --json > "$tmpdir/cluster-b.json"
cmp "$tmpdir/cluster-a.json" "$tmpdir/cluster-b.json" \
  || { echo "cluster fleet not deterministic: same seed produced different reports" >&2; exit 1; }
./target/release/nnrt serve 4 2 7 --backend cluster --profile-threads 4 --json > "$tmpdir/cluster-4w.json"
cmp "$tmpdir/cluster-a.json" "$tmpdir/cluster-4w.json" \
  || { echo "cluster profiling changed the report: 1 vs 4 workers differ" >&2; exit 1; }
grep -q "nnrt_cluster_overlap_fraction" "$tmpdir/cluster-a.json" \
  || { echo "cluster report is missing overlap-fraction telemetry" >&2; exit 1; }
echo "cluster fleet deterministic (seed 7 byte-identical; 1 vs 4 profile workers byte-identical)"

echo "== rpc suite (loopback smoke) =="
cargo test -q --offline --test rpc_loopback
./target/release/nnrt serve --listen 127.0.0.1:0 1 7 \
  > "$tmpdir/rpc-server.out" 2> "$tmpdir/rpc-server.err" &
rpc_server_pid=$!
addr=""
for _ in $(seq 1 50); do
  addr="$(sed -n 's/^listening on //p' "$tmpdir/rpc-server.out")"
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || { echo "rpc server never reported its address" >&2; exit 1; }
./target/release/nnrt submit "$addr" dcgan 4 --steps 2 > "$tmpdir/rpc-submit-0.out"
./target/release/nnrt submit "$addr" lstm 4 --steps 2 > "$tmpdir/rpc-submit-1.out"
grep -q "submitted job 0" "$tmpdir/rpc-submit-0.out"
grep -q "submitted job 1" "$tmpdir/rpc-submit-1.out"
./target/release/nnrt status "$addr" > "$tmpdir/rpc-status.out"
grep -q "dcgan-0" "$tmpdir/rpc-status.out"
grep -q "lstm-1" "$tmpdir/rpc-status.out"
./target/release/nnrt shutdown "$addr" --json > "$tmpdir/rpc-report.json"
python3 - "$tmpdir/rpc-report.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
jobs = {j["name"] for j in report["jobs"]}
assert jobs == {"dcgan-0", "lstm-1"}, f"unexpected job set: {jobs}"
assert report["rejected"] == 0, report["rejected"]
PY
wait "$rpc_server_pid" || { echo "rpc server exited non-zero" >&2; exit 1; }
echo "rpc loopback smoke ok (2 jobs, clean shutdown)"

cargo test -q --offline --test rpc_pipeline

# Wire byte-identity: the exact six-job mix `nnrt serve 6 2 7` runs in
# process, submitted over the socket into a held queue, must come back
# from the event-loop server's shutdown as the byte-identical report.
./target/release/nnrt serve --listen 127.0.0.1:0 2 7 --hold --profile-threads 1 \
  > "$tmpdir/rpc-hold-server.out" 2>/dev/null &
rpc_hold_pid=$!
addr=""
for _ in $(seq 1 50); do
  addr="$(sed -n 's/^listening on //p' "$tmpdir/rpc-hold-server.out")"
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || { echo "rpc hold server never reported its address" >&2; exit 1; }
./target/release/nnrt submit "$addr" resnet50 16 --steps 3 --priority 0 --weight 1 --name resnet50-0 > /dev/null
./target/release/nnrt submit "$addr" dcgan 16 --steps 3 --priority 1 --weight 2 --name dcgan-1 > /dev/null
./target/release/nnrt submit "$addr" inception 4 --steps 3 --priority 2 --weight 3 --name inception-2 > /dev/null
./target/release/nnrt submit "$addr" lstm 8 --steps 3 --priority 0 --weight 4 --name lstm-3 > /dev/null
./target/release/nnrt submit "$addr" transformer 4 --steps 3 --priority 1 --weight 1 --name transformer-4 > /dev/null
./target/release/nnrt submit "$addr" resnet50 16 --steps 3 --priority 2 --weight 2 --name resnet50-5 > /dev/null
# The server answers from one reactor thread: a serving process holds the
# main thread and that one, so a second serving thread cannot come back
# unnoticed. Checked where /proc exists.
if [ -r "/proc/$rpc_hold_pid/status" ]; then
  threads="$(sed -n 's/^Threads:[[:space:]]*//p' "/proc/$rpc_hold_pid/status")"
  [ "$threads" = 2 ] \
    || { echo "rpc server runs $threads threads, want 2 (main + reactor)" >&2; exit 1; }
  echo "rpc server runs 2 threads (main + reactor)"
fi
./target/release/nnrt shutdown "$addr" --json > "$tmpdir/rpc-hold-report.json"
wait "$rpc_hold_pid" || { echo "rpc hold server exited non-zero" >&2; exit 1; }
cmp "$tmpdir/profile-1w.json" "$tmpdir/rpc-hold-report.json" \
  || { echo "event-loop server's wire report differs from the in-process run" >&2; exit 1; }
echo "rpc wire report byte-identical to in-process run (6 jobs, seed 7)"

# Sustained-load smoke: 256 pipelined connections against the release
# binary, exercising the --max-connections/--pipeline-depth flags. The
# server is killed afterwards — a graceful shutdown would simulate every
# queued one-step job, and the byte-identity check above already covers
# the shutdown path at a sane size.
./target/release/nnrt serve --listen 127.0.0.1:0 2 7 --max-connections 300 --pipeline-depth 8 \
  > "$tmpdir/rpc-load-server.out" 2>/dev/null &
rpc_load_pid=$!
addr=""
for _ in $(seq 1 50); do
  addr="$(sed -n 's/^listening on //p' "$tmpdir/rpc-load-server.out")"
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || { echo "rpc load server never reported its address" >&2; exit 1; }
cargo bench -q --offline -p nnrt-bench --bench rpc_load -- \
  --addr "$addr" --connections 256 --pipeline 2 --warmup 0.3 --duration 1 --no-record \
  > "$tmpdir/rpc-load.out" \
  || { echo "rpc load smoke failed" >&2; cat "$tmpdir/rpc-load.out" >&2; exit 1; }
kill -9 "$rpc_load_pid" 2>/dev/null || true
wait "$rpc_load_pid" 2>/dev/null || true
echo "rpc load smoke ok (256 pipelined connections, all answered)"

echo "== recovery suite (journal fuzz + kill -9 drill) =="
cargo test -q --offline --test durable_recovery
cargo test -q --offline --test decoder_fuzz

# Journaling must be observationally free: a fault-free durable run's
# report is byte-identical to one without --durable.
./target/release/nnrt serve 6 2 7 --json > "$tmpdir/plain.json"
./target/release/nnrt serve 6 2 7 --durable "$tmpdir/durable-free" --json > "$tmpdir/durable.json"
cmp "$tmpdir/plain.json" "$tmpdir/durable.json" \
  || { echo "journaling perturbed the report: --durable run differs" >&2; exit 1; }
echo "durable run byte-identical to in-memory run (6 jobs, seed 7)"

# A cut over an unchanged store keeps the snapshot file it wrote last
# instead of serializing the store again. The final store.json must not
# depend on how many cuts kept it: a 5 s cadence (about a dozen cuts, most
# of them over warm placements) and one longer than the 64 s makespan
# (only the set-up and final cuts) must leave byte-identical snapshots,
# holding every entry the report counts (two equally stale files would
# pass the cmp alone).
./target/release/nnrt serve 40 2 7 --durable "$tmpdir/cadence-5s" --flush-interval 5 --json \
  > "$tmpdir/cadence-5s.json"
./target/release/nnrt serve 40 2 7 --durable "$tmpdir/cadence-once" --flush-interval 1000000 --json > /dev/null
cmp "$tmpdir/cadence-5s/store.json" "$tmpdir/cadence-once/store.json" \
  || { echo "a kept snapshot went stale: store.json depends on the flush cadence" >&2; exit 1; }
entries="$(grep -c '"machine":' "$tmpdir/cadence-5s/store.json" || true)"
want="$(sed -n 's/^  "store_entries": \([0-9]*\),$/\1/p' "$tmpdir/cadence-5s.json")"
[ -n "$want" ] && [ "$entries" = "$want" ] \
  || { echo "final store.json holds $entries entries, the report counts ${want:-none}" >&2; exit 1; }
echo "final snapshot independent of the flush cadence and current (40 jobs, $entries entries)"

# The kill -9 drill: start a durable run, kill it dead mid-run, restart
# with --recover, and require the merged completion set to equal an
# uninterrupted run's — with zero lost profile-store keys. 40 jobs on a
# single profiling worker run for about 0.3 s (2-core host, release
# build), so the poll below must be cheap: it greps the journal counts
# every 10 ms instead of starting a Python interpreter per poll, which
# took long enough that the run finished before the kill.
drill="$tmpdir/drill"
./target/release/nnrt serve 40 2 7 --durable "$drill" --profile-threads 1 --json \
  > "$tmpdir/drill-run.json" 2> "$tmpdir/drill-run.err" &
drill_pid=$!
# Wait until the run is genuinely mid-flight: at least one job placed.
placed=0
for _ in $(seq 1 1500); do
  placed="$(./target/release/nnrt journal "$drill" --json 2>/dev/null \
    | sed -n 's/.*"place":\([0-9]*\).*/\1/p' || true)"
  [ "${placed:-0}" -ge 1 ] && break
  kill -0 "$drill_pid" 2>/dev/null || break
  sleep 0.01
done
if kill -9 "$drill_pid" 2>/dev/null; then
  wait "$drill_pid" 2>/dev/null || true
  echo "killed durable run mid-flight (pid $drill_pid, $placed placement(s) journaled)"
else
  # The run can finish before the poll sees a placement on very fast
  # machines; recovery of a completed run is still a valid (if easier)
  # drill.
  wait "$drill_pid" 2>/dev/null || true
  echo "durable run finished before the kill; recovering a completed run"
fi
# Preserve the crashed state before recovery mutates the directory, for
# the determinism check below.
cp -r "$drill" "$tmpdir/drill-copy"
./target/release/nnrt serve 40 2 7 --durable "$drill" --profile-threads 1 --recover --json \
  > "$tmpdir/drill-recovered.json" 2> "$tmpdir/drill-recover.err"
./target/release/nnrt serve 40 2 7 --profile-threads 1 --json \
  > "$tmpdir/drill-uninterrupted.json" 2>/dev/null
python3 - "$drill/recovery.json" "$tmpdir/drill-recovered.json" "$tmpdir/drill-uninterrupted.json" <<'PY'
import json, sys
recovery = json.load(open(sys.argv[1]))
recovered = json.load(open(sys.argv[2]))
baseline = json.load(open(sys.argv[3]))

prior = {j["name"] for j in recovery["jobs_completed"]}
resumed = {j["name"] for j in recovered["jobs"]}
assert not (prior & resumed), f"jobs completed twice: {prior & resumed}"
merged = prior | resumed
expected = {j["name"] for j in baseline["jobs"]}
assert merged == expected, (
    f"lost jobs: {expected - merged}; invented jobs: {merged - expected}"
)

# Zero lost profile-store keys: every key the uninterrupted run measured
# is present after recovery (store entries counted in the final reports).
assert recovered["store_entries"] >= baseline["store_entries"], (
    f"lost store keys: {recovered['store_entries']} < {baseline['store_entries']}"
)

# RecoveryReport accounting is exact: the partition covers every admitted
# job exactly once.
n = len(recovery["jobs_resumed"]) + len(recovery["jobs_requeued"]) + len(prior)
assert n == len(expected), f"recovery accounted {n} jobs, admitted {len(expected)}"
print(
    f"kill -9 drill ok: {len(prior)} prior + {len(resumed)} recovered "
    f"= {len(expected)} jobs; {recovered['store_entries']} store keys "
    f">= {baseline['store_entries']}; "
    f"{len(recovery['jobs_resumed'])} resumed, "
    f"{len(recovery['jobs_requeued'])} re-queued, "
    f"torn tail: {recovery['torn_tail']}"
)
PY

# Recovery determinism: recovering the same crashed state twice is
# byte-identical (report and accounting).
./target/release/nnrt serve 40 2 7 --durable "$tmpdir/drill-copy" --profile-threads 1 --recover --json \
  > "$tmpdir/drill-recovered-b.json" 2>/dev/null
cmp "$tmpdir/drill-recovered.json" "$tmpdir/drill-recovered-b.json" \
  || { echo "recovery not deterministic: same journal produced different reports" >&2; exit 1; }
echo "recovery deterministic (same directory, byte-identical recovered report)"

echo "== obs suite (metrics scrape + event-stream determinism) =="
cargo test -q --offline --test obs_determinism

# Event-stream determinism: two seed-identical runs write byte-identical
# sim-domain JSONL event streams, whatever the profiling worker count.
./target/release/nnrt serve 6 2 7 --profile-threads 1 --events "$tmpdir/events-a.jsonl" --json > /dev/null
./target/release/nnrt serve 6 2 7 --profile-threads 4 --events "$tmpdir/events-b.jsonl" --json > /dev/null
cmp "$tmpdir/events-a.jsonl" "$tmpdir/events-b.jsonl" \
  || { echo "event stream not deterministic: 1 vs 4 workers differ" >&2; exit 1; }
[ -s "$tmpdir/events-a.jsonl" ] || { echo "event stream is empty" >&2; exit 1; }
echo "event stream deterministic ($(wc -l < "$tmpdir/events-a.jsonl") sim events, 1 vs 4 workers byte-identical)"

# Live scrape: a listening fleet answers Request::Metrics with a parseable
# exposition carrying the key series, and `nnrt top --once` renders it.
./target/release/nnrt serve --listen 127.0.0.1:0 1 7 \
  > "$tmpdir/obs-server.out" 2> "$tmpdir/obs-server.err" &
obs_server_pid=$!
addr=""
for _ in $(seq 1 50); do
  addr="$(sed -n 's/^listening on //p' "$tmpdir/obs-server.out")"
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || { echo "obs server never reported its address" >&2; exit 1; }
./target/release/nnrt submit "$addr" dcgan 4 --steps 2 > /dev/null
./target/release/nnrt metrics "$addr" > "$tmpdir/obs-scrape.txt"
python3 - "$tmpdir/obs-scrape.txt" <<'PY'
import sys
series = {}
for line in open(sys.argv[1]):
    line = line.strip()
    if not line or line.startswith("#"):
        continue
    name, value = line.rsplit(" ", 1)
    float(value)  # every sample value parses
    series[name.split("{", 1)[0]] = float(value)
required = [
    "nnrt_jobs_submitted_total",
    "nnrt_jobs",
    "nnrt_queue_depth",
    "nnrt_node_utilization",
    "nnrt_store_entries",
    "nnrt_rpc_requests_total",
    "nnrt_rpc_latency_seconds_bucket",
]
missing = [name for name in required if name not in series]
assert not missing, f"exposition is missing series: {missing}"
assert series["nnrt_jobs_submitted_total"] == 1.0
print(f"exposition ok: {len(series)} distinct series, all values parse")
PY
./target/release/nnrt top "$addr" --once > "$tmpdir/obs-top.out"
grep -q "^jobs " "$tmpdir/obs-top.out"
grep -q "^store " "$tmpdir/obs-top.out"
./target/release/nnrt shutdown "$addr" > /dev/null
wait "$obs_server_pid" || { echo "obs server exited non-zero" >&2; exit 1; }
echo "obs live scrape ok (metrics + top against a listening fleet)"

echo "CI green."
