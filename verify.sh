#!/bin/sh
# Repo-wide verification: build, formatting, vet, the canalvet invariant
# linters (sim determinism, map-order hygiene and unit-safety, each per
# package — see internal/lint), the full test suite under the race detector
# in shuffled order, the shared-state tests and the tenant-isolation check
# ten times over, the fuzz smokes, the request paths' pinned allocation
# rows without the race detector, both byte contracts of the experiment
# output, and a run of every example. This is
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

# The live gateway links none of the simulator. cmd/canalgw's dependency
# list is the live request path in full: every package a per-layer overhead
# account has to name. A discrete-event simulator package in it is code the
# live path links, and a reader audits, but never runs; the root package
# and the packages it imports stay free of it.
if go list -deps ./cmd/canalgw | grep -qx 'canalmesh/internal/sim'; then
    echo "cmd/canalgw links canalmesh/internal/sim; the live path must not import the simulator" >&2
    exit 1
fi

# The findings gate: canalvet exits 1 on any surviving diagnostic, stale
# //canal:allow directives included. Diagnostic order is a byte-stable
# invariant too: -runs 2 analyzes the type-checked module twice, recomputing
# every finding each time, and exits 2 if the runs differ.
go run ./cmd/canalvet -runs 2 ./...

# Shuffled execution order catches tests that depend on package-level state
# left behind by earlier tests.
go test -race -shuffle=on ./...

# The live gateway recycles per-request state between requests of different
# tenants, round-robins its pools with atomics and shares each service's token
# buckets and throttle slot between every request that meets them, and each
# tenant CA's verified-peer memo and serial counter between every request and
# issue of that tenant, the admission controller's tenant slots, running
# active weight and recycled tickets between every admit and release,
# a bounded tracer's recycled traces between every Finish and the Start
# that refills them, and each mirror pool's X-Canal-Subset slice, shared
# read-only between the requests that mirror to it and the mirror
# goroutines whose round trips on the gateway's transport write it out:
# the tests that share that state between goroutines
# run ten times over, so an interleaving one pass misses still has its
# chance to be seen. The race detector, not a
# static check, is what guards shared mutable state written on the request
# path, and TestPooledStateTenantIsolation, also not a static check, what
# guards tenant isolation: three marked tenants over every way through
# ServeHTTP, and no response, forwarded or mirrored request, log entry or
# kept trace of one may carry another's marker.
go test -race -count=10 -run 'TestPooledState|TestGatewayThrottleUnderConcurrentLoad|TestRouteConcurrentRateLimits|TestVerifyPeerConcurrent|TestIssueIdentityConcurrent|TestHTTPControllerConcurrent|TestHTTPControllerStaleRelease|TestTracerRecycle|TestGatewayMirror' . ./internal/l7 ./internal/meshcrypto ./internal/admission ./internal/trace

# Fuzz smoke: the in-place traceparent parser against the split-and-decode
# parser it replaced (kept as the oracle in w3c_test.go, which refuses
# upper-case hex as the parser does).
go test -run '^$' -fuzz FuzzParseTraceparent -fuzztime 5s ./internal/trace
# And the -config loader: whatever LoadConfig accepts builds and applies
# without a panic, builds the same rule lists twice, and routes one request
# per service, with every rule's fault and split reachable, to a verdict
# whose status http.Error can write.
go test -run '^$' -fuzz FuzzLoadConfig -fuzztime 5s .
# And the signed-header path: whatever identity headers and request target
# arrive, authenticate never panics and accepts only the seeded identity for
# the service and target it signed.
go test -run '^$' -fuzz FuzzAuthenticate -fuzztime 5s .
# And the in-place cookie parser: any set of Cookie lines flattens to the map
# Request.Cookies gives, folded last-wins (net/http is the oracle).
go test -run '^$' -fuzz FuzzFlattenCookies -fuzztime 5s .
# And the flow hash: the inline FNV-1a over the 5-tuple against the fmt+fnv
# form it replaced (kept as the oracle in l4_test.go).
go test -run '^$' -fuzz FuzzHash5Tuple -fuzztime 5s ./internal/l4
# And the route program: random rule lists compiled into one condition
# program per service, each request's rule, subset, rewrite and deny checked
# against the linear scan of the rules' conditions (kept as the oracle in
# route_test.go).
go test -run '^$' -fuzz FuzzRouteProgram -fuzztime 5s ./internal/l7
# And the compiled policy table, the one NewCompiler builds: random
# apply/delete sequences, checked after every Apply against the linear
# Baseline oracle, a fresh compile's fingerprint, the patterns in use and
# the change feed.
go test -run '^$' -fuzz FuzzCompilerEval -fuzztime 5s ./internal/policy
# And the overlay decoders: whatever bytes arrive, the VXLAN, inner, shim
# and VM-packet decoders never panic, and every header they accept
# re-marshals to a value that decodes to itself.
go test -run '^$' -fuzz FuzzOverlayDecode -fuzztime 5s ./internal/overlay
# And the simulator's event queue: random interleavings of At, After,
# Every, RunUntil, Run and Halt, callbacks scheduling more, checked event by
# event against a reference that sorts by (at, seq).
go test -run '^$' -fuzz FuzzEventQueue -fuzztime 5s ./internal/sim
# And the processor's queue-discipline path: random cores, costs and
# arrivals, many on completion instants, served by a FIFO discipline; every
# work item completes once, no core idles while work waits, and work starts
# in the order the discipline hands it out.
go test -run '^$' -fuzz FuzzProcessorDiscipline -fuzztime 5s ./internal/sim
# And the persistent config snapshots: random change sets across every
# resource kind (bulk runs, removals, reverts to an earlier value), checked
# at every retained version against the rebuild-everything oracle for the
# listed resources, full-sync bytes per scope and deltas to head.
go test -run '^$' -fuzz FuzzConfigSnapshots -fuzztime 5s ./internal/configpush

# The benchmark harness that judges every PR is a module of its own
# (benchmark/go.mod), so the root module's ./... does not reach it.
(cd benchmark && go vet ./... && go test -race ./...)

# The request paths' allocation contract is the pinned rows of two tests,
# and both skip themselves under -race (instrumentation changes allocation
# counts), so they get dedicated non-race invocations: TestHotPathAllocs
# against the checked-in BENCH_hotpath.json baseline, and TestServeHTTPAllocs,
# one row per way through the live ServeHTTP. Beside them the policy
# compiler's pins, skipped under -race for the same reason: objects per rule
# of a bulk Apply, and a Fingerprint whose allocations do not grow with the
# table. The suite's rendered SHA-256 (every experiment through the parallel
# runner) skips under -race too, for time, and runs beside them.
go test -run TestServeHTTPAllocs .
go test -run TestCompilerAllocs ./internal/policy
go test -run 'TestHotPathAllocs|TestSuiteRenderedSHA' ./internal/bench
# The digest once more at GOMAXPROCS=1 (-cpu 1): the runner and every
# ForEachPoint sweep inside an experiment then run serially, so the same
# bytes are checked from a serial pass as well as from the parallel one.
go test -cpu 1 -run TestSuiteRenderedSHA ./internal/bench
# The policy table's heap bytes per installed intention skips under -race
# too (instrumentation inflates the heap), and so does the gate that a
# config-push flush allocates the same at 10^3 and 10^5 intentions.
go test -run TestPolicyBytesPerRule ./internal/policy
go test -run TestPolicyFlushAllocsFlat ./internal/configpush

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
# The second byte contract beside TestSuiteRenderedSHA's digest: every
# experiment and ablation through the parallel runner prints exactly the
# bytes pinned here. A change that means to move them re-pins this digest.
want_abl=646a2ecae4d3b5f275a71b681450c0732fbd131f41d99dd1bbf0e1a7e855ffff
got_abl=$(/tmp/canalbench -ablations -parallel 2 2>/dev/null | sha256sum | cut -d' ' -f1)
if [ "$got_abl" != "$want_abl" ]; then
    echo "canalbench -ablations -parallel 2 stdout sha256 is $got_abl, want $want_abl" >&2
    exit 1
fi

# Run every example to a zero exit, not only build it: outside tests they
# are the only callers of the overlay codec, VSwitch.Ingress and the
# simulated gateway's Throttle.
for ex in examples/*/; do
    if ! go run "./$ex" >/dev/null; then
        echo "example $ex exited non-zero" >&2
        exit 1
    fi
done

# Smoke the real gateway: on an ephemeral port, the demo tenant's signed
# request must come back 200 through the mesh. canalgw serves until killed,
# so timeout's exit status 124 is the expected one.
go build -o /tmp/canalgw ./cmd/canalgw
timeout 3 /tmp/canalgw -listen 127.0.0.1:0 >/tmp/canalgw.log 2>&1 || test $? -eq 124
grep -q 'demo request through the mesh -> 200' /tmp/canalgw.log
