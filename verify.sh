#!/bin/sh
# Full verification: build, vet, tests (with race detector), examples,
# and a smoke pass over the figure harness and benchmarks.
set -eux

go build ./...
go vet ./...
# Docs lint: godoc coverage, the cmd/* "Command <name>" convention, and
# every registered metric family present in the operator runbook.
go run ./cmd/doccheck -ops OPERATIONS.md
go test ./...
go test -race ./internal/part/ ./internal/sortalgo/ .
go test -race -short ./internal/ws/
go run ./cmd/figures -quick > /dev/null
go run ./cmd/sortcli -n 100000 -algo lsb > /dev/null
go run ./cmd/partcli -n 100000 -variant sync -threads 4 > /dev/null
go run ./cmd/tracecli -n 65536 -fanout 512 > /dev/null
go test -run xxx -bench 'Fig03|Fig09' -benchtime 0.2s . > /dev/null

# Zero-allocation benchmarks: the workspace-backed kernels must report
# 0 allocs/op (BENCH_PR2.json in the repo records the full-length run).
benchout=$(mktemp)
go run ./cmd/benchjson -benchtime 2x -out "$benchout"
grep -q '"allocs_op": 0' "$benchout"
rm -f "$benchout"

# Perf-regression gate: the recorded benchmark trajectory must not regress.
# Each PR records its AutoTune run as BENCH_PR<n>.json — use
#   benchjson -bench AutoTune -count 6 -agg min -out BENCH_PR<n>.json
# (fastest-of-6: scheduler noise is additive, so the minimum is the robust
# estimator on a shared machine). benchdiff fails if any benchmark in the
# newer file is >5% slower than the older. To check the working tree
# against the recorded baseline, record a fresh file and diff it the same
# way.
# -require-all: a recording that drops a baseline benchmark fails the
# gate instead of passing silently.
go run ./cmd/benchdiff -require-all BENCH_PR9.json BENCH_PR10.json

# Observability smoke: the sortcli -trace/-json flags must run end to end.
# Trace shape, the LSB counter invariant (tuples_partitioned == passes *
# n), span_hist reconciliation and the empty trace are checked by
# TestChromeTraceReconciles; the live /metrics scrape (exposition syntax,
# required families, histogram invariants, expvar, labelled profiles, no
# leak on shutdown) by TestServeMetricsLive — both in go test above.
obsdir=$(mktemp -d)
trap 'rm -rf "$obsdir"' EXIT
go run ./cmd/sortcli -n 200000 -algo lsb -threads 4 -trace "$obsdir/t.json" -json > /dev/null
go run ./cmd/partcli -n 100000 -variant sync -threads 4 -stats > /dev/null
go test -run xxx -bench ObsOverhead -benchtime 0.2s ./internal/part/ > /dev/null

# Hardened execution: the fault-injection matrix (TestTryFaultMatrix:
# every fault.Sites() entry x every sort that reaches it, external sort
# included) must contain worker panics as *InternalError with the input
# left a permutation, no goroutine leaks, a drained resource ledger and an
# empty spill dir — under the race detector too; a short context deadline
# must cancel a large sort promptly (TestTryCancelPrompt, in go test
# above).
go test -race -short -count=1 -run 'TestTryFaultMatrix|TestTryCancelRace|TestTryPartitionFault' .

# External sort: forced spill, value attachment, one streaming formation
# pass, in-run cancellation, both extsort fault sites and fd/goroutine
# baselines are TestSortExternal* in go test above. The merge pipeline's
# prefetch effectiveness must keep the majority of block handoffs
# ready-before-needed (overlap >= 0.5 — the block-level measure is
# scheduling-independent, so it gates even on a single-core host where
# wall-clock overlap cannot exist).
go run ./cmd/benchjson -bench 'ExternalMerge' -benchtime 2x \
    -require-extra 'overlap>=0.5' -out /dev/null

# Resilient execution: the seeded chaos matrix (TestResilientChaosMatrix:
# {LSB, MSB, CMP} x {workspace, none}, 240 schedules in go test above)
# must end every supervised run in a retried success or a cleanly
# classified typed error — permutation intact, no goroutine leaks, no
# workspace-byte creep — with single-threaded runs replaying
# byte-identical event logs; TestResilientDegradeOnResourceError is the
# memory-pressure lane. The supervisor's clean first-try path must stay
# allocation-free, and the -short chaos matrix runs here under -race to
# guard the schedule's concurrent budget claims.
go test -race -short -count=1 -run 'TestResilient|TestScheduleConcurrentBudget|TestStress' . ./internal/fault/

# Auto-tuning: quick calibration must produce a valid, reloadable profile
# and a plan (the tuned-vs-static agreement and regression-bound witnesses
# — TestAutoTuneMatchesStatic, BenchmarkAutoTune — run in the suite above
# and in BENCH_PR4.json respectively).
go run ./cmd/tunecli -quick -out "$obsdir/profile.json" -plan-n 1000000 > /dev/null
go run ./cmd/tunecli -load "$obsdir/profile.json" -plan-maxbytes 1048576 > /dev/null

# Sort-as-a-service smoke: start the daemon, drive it with concurrent
# load (sortload verifies every response and scrapes /metrics mid-load,
# failing unless the server families are being served), then SIGTERM —
# a clean drain (ledger and arenas at zero) is sortd exit code 0. The
# daemon runs with a 4 MiB memory ledger and a spill dir, and roughly
# one request in eight is a 131072-key -large request that overflows the
# ledger — exercising the over-budget degradation onto the external
# sort under concurrent load (every response still verified sorted).
go test ./internal/server/
go build -o "$obsdir/sortd" ./cmd/sortd
go build -o "$obsdir/sortload" ./cmd/sortload
mkdir -p "$obsdir/spill"
"$obsdir/sortd" -addr 127.0.0.1:18070 -metrics-addr 127.0.0.1:18090 \
    -max-aux 4194304 -spill-dir "$obsdir/spill" -drain-timeout 30s &
sortd_pid=$!
"$obsdir/sortload" -addr 127.0.0.1:18070 -clients 16 -requests 400 -n 2048 \
    -large-n 131072 -large-every 8 \
    -wait 15s -metrics-url http://127.0.0.1:18090/metrics
kill -TERM "$sortd_pid"
wait "$sortd_pid"
# A drained daemon leaves no spill files behind.
test -z "$(ls -A "$obsdir/spill")"

echo "verify: OK"
