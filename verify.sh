#!/bin/sh
# Repo-wide verification: build, formatting, vet, the canalvet invariant
# linters (map-order hygiene and unit-safety per package; sim determinism
# and hotpath over the call graph; tenantflow over the taint engine — see
# internal/lint), the full test suite under the race detector in shuffled
# order, the shared-state tests ten times over, and the fuzz smokes. This is
# the one gate every PR must pass: CI (.github/workflows/ci.yml) calls this
# script and otherwise only publishes artifacts.
set -eu
cd "$(dirname "$0")"

go build ./...

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# vet's copylocks check is the guard against copying a mutex-bearing struct
# or a typed sync/atomic value (every atomic in the module is one), whether
# passed, received or assigned by value.
go vet ./...

# Diagnostic order is a byte-stable invariant: -runs 2 analyzes the
# type-checked module twice, rebuilding the call graph and taint engine each
# time, and exits 2 if the runs differ. The same invocation is the
# -stale-as-error findings gate.
go run ./cmd/canalvet -stale-as-error -runs 2 -json /tmp/canalvet-run1.json ./...

# Shuffled execution order catches tests that depend on package-level state
# left behind by earlier tests.
go test -race -shuffle=on ./...

# The live gateway recycles per-request state between requests of different
# tenants, round-robins its pools with atomics and shares each service's token
# buckets and throttle slot between every request that meets them, and each
# tenant CA's verified-peer memo and serial counter between every request and
# issue of that tenant, and the admission controller's tenant slots and
# running active weight between every admit and release: the tests that
# share that state between goroutines run ten times over, so an interleaving
# one pass misses still has its chance to be seen. The race detector, not a
# static check, is what guards shared mutable state written on the request
# path.
go test -race -count=10 -run 'TestPooledState|TestGatewayThrottleUnderConcurrentLoad|TestRouteConcurrentRateLimits|TestVerifyPeerConcurrent|TestIssueIdentityConcurrent|TestHTTPControllerConcurrent' . ./internal/l7 ./internal/meshcrypto ./internal/admission

# Fuzz smoke: the in-place traceparent parser against the split-and-decode
# parser it replaced (kept as the oracle in w3c_test.go).
go test -run '^$' -fuzz FuzzParseTraceparent -fuzztime 5s ./internal/trace
# And the -config loader: whatever LoadConfig accepts builds and applies
# without a panic, and builds the same rule lists twice.
go test -run '^$' -fuzz FuzzLoadConfig -fuzztime 5s .
# And the signed-header path: whatever identity headers and request target
# arrive, authenticate never panics and accepts only the seeded identity for
# the service and target it signed.
go test -run '^$' -fuzz FuzzAuthenticate -fuzztime 5s .
# And the flow hash: the inline FNV-1a over the 5-tuple against the fmt+fnv
# form it replaced (kept as the oracle in l4_test.go).
go test -run '^$' -fuzz FuzzHash5Tuple -fuzztime 5s ./internal/l4
# And the compiled policy table: random apply/delete sequences, checked
# after every Apply against the linear Baseline oracle, a fresh compile's
# fingerprint and the patterns in use.
go test -run '^$' -fuzz FuzzCompilerEval -fuzztime 5s ./internal/policy
# And the overlay decoders: whatever bytes arrive, the VXLAN, inner, shim
# and VM-packet decoders never panic, and every header they accept
# re-marshals to a value that decodes to itself.
go test -run '^$' -fuzz FuzzOverlayDecode -fuzztime 5s ./internal/overlay
# And the simulator's event queue: random interleavings of At, After,
# Every, RunUntil, Run and Halt, callbacks scheduling more, checked event by
# event against a reference that sorts by (at, seq).
go test -run '^$' -fuzz FuzzEventQueue -fuzztime 5s ./internal/sim

# The benchmark harness that judges every PR is a module of its own
# (benchmark/go.mod), so the root module's ./... does not reach it.
(cd benchmark && go vet ./... && go test -race ./...)

# The hot-path allocation gate skips itself under -race (instrumentation
# changes allocation counts), so it gets a dedicated non-race invocation
# against the checked-in BENCH_hotpath.json baseline. The suite's rendered
# SHA-256 (every experiment through the parallel runner) skips under -race
# too, for time, and runs beside it.
go test -run 'TestHotPathAllocs|TestSuiteRenderedSHA' ./internal/bench
# The policy table's heap bytes per installed intention skips under -race
# too (instrumentation inflates the heap).
go test -run TestPolicyBytesPerRule ./internal/policy

# Smoke the tracing pipeline end to end: the per-hop breakdown tables must
# render and the JSON report must export.
go run ./cmd/canalsim trace -arch canal -arch istio -requests 50 -json /tmp/canal-trace-breakdown.json >/dev/null
test -s /tmp/canal-trace-breakdown.json

# Smoke the config-churn scenario end to end at a reduced scale: the
# delta-vs-full comparison table must render and the JSON report must
# export with all six (architecture, mode) rows.
go run ./cmd/canalsim config-churn -nodes 60 -services 10 -pods 6 -rolling 3 -window 30s \
    -json /tmp/canal-configpush.json >/dev/null
test -s /tmp/canal-configpush.json

# Smoke the policy-scale sweep end to end at a reduced scale: the dispatch
# table must render with stable fingerprints and the JSON report must
# export with the churn section.
go run ./cmd/canalsim policy-scale -max-rules 10000 -json /tmp/canal-policy.json >/dev/null
test -s /tmp/canal-policy.json

# Smoke the multi-region federation experiments end to end at a reduced
# scale: the evacuation and split-brain tables must render and the JSON
# report must export with both sections.
go run ./cmd/canalsim federation -regions 2 -backends 3 \
    -json /tmp/canal-federation.json >/dev/null
test -s /tmp/canal-federation.json

# Parallel-vs-serial equivalence smoke: the benchmark runner must emit
# byte-identical stdout regardless of the parallelism level (timing and
# diagnostics go to stderr), and the timing report must export. A fast
# experiment subset keeps the gate quick; TestParallelMatchesSerial covers
# the full set.
go build -o /tmp/canalbench ./cmd/canalbench
/tmp/canalbench -parallel 1 -ablations fig2 fig15 table5 abl-shard >/tmp/canalbench-serial.txt 2>/dev/null
/tmp/canalbench -parallel 8 -ablations -json /tmp/canalbench-timings.json fig2 fig15 table5 abl-shard >/tmp/canalbench-parallel.txt 2>/dev/null
cmp /tmp/canalbench-serial.txt /tmp/canalbench-parallel.txt
test -s /tmp/canalbench-timings.json
