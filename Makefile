# Build/test entry points. `make check` is the tier-1 gate; `make race`
# is the concurrency-safety audit behind the fleet orchestrator;
# `make bench-smoke` covers the benchmark module the root build skips.

GO ?= go

.PHONY: all build test race vet check regen figures figures-smoke telemetry-smoke chaos-smoke conform-smoke policy-smoke wire-smoke wire-chaos-smoke scale-smoke trace-smoke bench-smoke loc

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages that exercise concurrency or
# carry the hot-path buffer reuse: the fleet orchestrator (real
# simulations on parallel workers), the kernel with its event freelist,
# the pooled network layer, the reused radio snapshot builder, the stats
# merge, and the protocol engine those runs share.
race:
	$(GO) test -race ./internal/fleet/ ./internal/sim/ ./internal/stats/ ./internal/experiment/ ./internal/netsim/ ./internal/radio/ ./internal/wire/ ./internal/wire/cluster/ ./internal/oracle/ ./internal/core/

vet:
	$(GO) vet ./...

# bench/ is a module of its own (own go.mod, `replace => ../`), so the
# root `go vet ./...` and `go test ./...` never reach it — yet its probes
# and drivers call this module's internals. Vet it and run its tests
# (which include a reduced-size run of every workload) from here.
bench-smoke:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# Figure gate: the whole suite at one simulated hour per run must print
# the checked-in figures_1h.txt byte for byte — the widest behavioural
# byte-compare the repo has (every strategy, every figure; ~6 s on two
# cores). A change that moves it on purpose regenerates the file.
figures-smoke:
	$(GO) run ./cmd/figures -simtime 1h | cmp - figures_1h.txt

# The tier-1 gate, the race audit, both module smokes, the figure gate,
# and a formatting gate: gofmt must have nothing to rewrite.
check: build vet test race bench-smoke figures-smoke
	test -z "$$(gofmt -l .)"

# Rewrite the artefacts pinned to the seeded random streams: the figure
# gate's figures_1h.txt and the divergences recorded in the oracle corpus
# (internal/oracle/testdata/). Only a change that moves the seeded bytes
# on purpose runs this; review the diff it leaves.
regen:
	$(GO) run ./cmd/figures -simtime 1h > figures_1h.txt.new
	mv figures_1h.txt.new figures_1h.txt
	$(GO) test -count=1 ./internal/oracle -run TestReplayTestdataTraces -update

# End-to-end metrics check: a 1-simulated-minute seeded run exports
# Prometheus text, and telemetrylint proves it parses and satisfies the
# histogram invariants plus family presence. (The per-event record is
# the causal trace: trace-smoke and chaos-smoke lint it.)
TELEMETRY_TMP ?= /tmp/rpcc-telemetry-smoke
telemetry-smoke:
	mkdir -p $(TELEMETRY_TMP)
	$(GO) run ./cmd/rpccsim -strategy rpcc-sc -simtime 1m -seed 1 \
		-metrics-out $(TELEMETRY_TMP)/metrics.prom > /dev/null
	$(GO) run ./cmd/telemetrylint \
		-prom $(TELEMETRY_TMP)/metrics.prom \
		-require rpcc_delivery_latency_seconds,rpcc_delivery_hops,rpcc_queries_issued_total,rpcc_staleness_seconds,rpcc_tx_total,rpcc_topology_snapshots_total

# Chaos soak gate: the seeded demonstration campaign (partition + bursty
# loss + crash + relay assassination over 25 simulated minutes, sub-second
# wall) runs twice with the same seed, then a third time from its JSON
# file (internal/faults/testdata/demo.json, the schema wiretest and rpccd
# read); the runs must pass every consistency invariant (non-zero exit
# otherwise), produce byte-identical stdout/metrics/causal traces, and the
# exports must lint — the cause-labelled drop accounting in the metrics,
# the phase vocabulary and the role/fault roots in the trace, which must
# hold at least one fault root (the injected faults are what this trace
# is for).
CHAOS_TMP ?= /tmp/rpcc-chaos-smoke
chaos-smoke:
	mkdir -p $(CHAOS_TMP)
	$(GO) run ./cmd/chaos -seed 11 \
		-trace-out $(CHAOS_TMP)/a.jsonl -metrics-out $(CHAOS_TMP)/a.prom \
		> $(CHAOS_TMP)/a.txt
	$(GO) run ./cmd/chaos -seed 11 \
		-trace-out $(CHAOS_TMP)/b.jsonl -metrics-out $(CHAOS_TMP)/b.prom \
		> $(CHAOS_TMP)/b.txt
	$(GO) run ./cmd/chaos -seed 11 -faults internal/faults/testdata/demo.json \
		-trace-out $(CHAOS_TMP)/c.jsonl -metrics-out $(CHAOS_TMP)/c.prom \
		> $(CHAOS_TMP)/c.txt
	for run in b c; do \
		cmp $(CHAOS_TMP)/a.txt $(CHAOS_TMP)/$$run.txt && \
		cmp $(CHAOS_TMP)/a.prom $(CHAOS_TMP)/$$run.prom && \
		cmp $(CHAOS_TMP)/a.jsonl $(CHAOS_TMP)/$$run.jsonl || exit 1; \
	done
	$(GO) run ./cmd/telemetrylint \
		-prom $(CHAOS_TMP)/a.prom \
		-trace $(CHAOS_TMP)/a.jsonl \
		-require rpcc_fault_events_total,rpcc_dropped_total,rpcc_repair_attempts_total
	grep -q '"parent":0,.*"phase":"fault"' $(CHAOS_TMP)/a.jsonl
	@cat $(CHAOS_TMP)/a.txt

# Conformance gate: the oracle's unit/replay tests, then the conform CLI
# (mutant gate across 5 seeds + per-strategy clean sweep + a short fuzz
# budget) run twice with identical flags; the two outputs must be byte
# identical — the determinism contract behind trace replay and shrinking.
CONFORM_TMP ?= /tmp/rpcc-conform-smoke
conform-smoke:
	mkdir -p $(CONFORM_TMP)
	$(GO) test ./internal/oracle/
	$(GO) run ./cmd/conform -seeds 5 -fuzz 25 > $(CONFORM_TMP)/a.txt
	$(GO) run ./cmd/conform -seeds 5 -fuzz 25 > $(CONFORM_TMP)/b.txt
	cmp $(CONFORM_TMP)/a.txt $(CONFORM_TMP)/b.txt
	@tail -3 $(CONFORM_TMP)/a.txt

# Replacement-policy gate: the four-policy comparison figure (policy-hit:
# LRU/LFU/TTL/utility under Zipf demand, a flash-crowd hotspot and a
# cache-size sweep) runs twice with the same seed; the rendered figure
# and the merged metrics must be byte-identical, and the export must
# lint — including the suppressed-query counter the workload fix
# introduced (the hotspot lands on its own host for one peer, so the
# counter is exercised, not merely registered).
POLICY_TMP ?= /tmp/rpcc-policy-smoke
policy-smoke:
	mkdir -p $(POLICY_TMP)
	$(GO) run ./cmd/figures -only policy-hit -simtime 10m -seed 1 \
		-metrics-out $(POLICY_TMP)/a.prom > $(POLICY_TMP)/a.txt
	$(GO) run ./cmd/figures -only policy-hit -simtime 10m -seed 1 \
		-metrics-out $(POLICY_TMP)/b.prom > $(POLICY_TMP)/b.txt
	cmp $(POLICY_TMP)/a.txt $(POLICY_TMP)/b.txt
	cmp $(POLICY_TMP)/a.prom $(POLICY_TMP)/b.prom
	$(GO) run ./cmd/telemetrylint -prom $(POLICY_TMP)/a.prom \
		-require rpcc_workload_suppressed_total,rpcc_queries_issued_total,rpcc_tx_total
	@cat $(POLICY_TMP)/a.txt

# Sim-to-wire gate: build everything, then boot a 5-node loopback UDP
# cluster of live daemons for ~10 s of wall time. Every served answer is
# judged against the live oracle's staleness envelopes; any divergence,
# unclean shutdown, or vacuous (zero-answer) run exits non-zero.
wire-smoke: build
	$(GO) run ./cmd/wiretest -n 5 -duration 10s -v

# Wire chaos gate: the canonical scripted fault campaign (Gilbert–Elliott
# loss, delay/jitter/duplication, two partition windows, two crash/restart
# cycles) against a 10-node loopback cluster of live daemons, judged by
# the fault-aware live oracle. Four legs:
#   1–2. the rpcc-dc campaign runs twice with the same seed; both must be
#        CONFORMANT and the expanded fault schedule AND the verdict block
#        on stdout must be byte-identical across the runs;
#   3.   the same campaign under rpcc-wc (weak reads are the monotonicity
#        probe: a cold-restarted daemon re-serves its warm copies) must be
#        CONFORMANT under the fault-aware judge;
#   4.   the deliberately broken judge (-broken inflation: blind to the
#        fault schedule) over the same rpcc-wc campaign MUST fail — the
#        restarted daemon's warm re-serves regress the monotone watermark
#        unless the judge honours the restart epoch. A passing broken
#        variant means the gate has lost its teeth.
WIRE_CHAOS_TMP ?= /tmp/rpcc-wire-chaos-smoke
wire-chaos-smoke: build
	mkdir -p $(WIRE_CHAOS_TMP)
	$(GO) run ./cmd/wiretest -n 10 -duration 20s -strategy rpcc-dc -seed 7 \
		-chaos -schedule-out $(WIRE_CHAOS_TMP)/sched-a.log > $(WIRE_CHAOS_TMP)/verdict-a.txt
	$(GO) run ./cmd/wiretest -n 10 -duration 20s -strategy rpcc-dc -seed 7 \
		-chaos -schedule-out $(WIRE_CHAOS_TMP)/sched-b.log > $(WIRE_CHAOS_TMP)/verdict-b.txt
	cmp $(WIRE_CHAOS_TMP)/sched-a.log $(WIRE_CHAOS_TMP)/sched-b.log
	cmp $(WIRE_CHAOS_TMP)/verdict-a.txt $(WIRE_CHAOS_TMP)/verdict-b.txt
	$(GO) run ./cmd/wiretest -n 10 -duration 20s -strategy rpcc-wc -query 100ms \
		-seed 7 -chaos > $(WIRE_CHAOS_TMP)/verdict-wc.txt
	@if $(GO) run ./cmd/wiretest -n 10 -duration 20s -strategy rpcc-wc -query 100ms \
		-seed 7 -chaos -broken inflation > /dev/null 2>$(WIRE_CHAOS_TMP)/broken.err; then \
		echo "BUG: broken judge variant passed — the chaos gate has no teeth"; exit 1; \
	else \
		echo "broken judge variant caught ($$(grep -c 'divergence:' $(WIRE_CHAOS_TMP)/broken.err) divergences)"; \
	fi
	@cat $(WIRE_CHAOS_TMP)/verdict-a.txt $(WIRE_CHAOS_TMP)/verdict-wc.txt

# Scale gate: a 10k-node run (auto region count) runs once with
# GOMAXPROCS=1 — the caller runs every region, the serial reference —
# and once with GOMAXPROCS=4 — three region workers, whatever the box's
# core count; both runs must pass cmd/scale's invariant gate (answers
# exist, no torn/future answers — non-zero exit otherwise) and produce
# byte-identical stdout and merged causal traces: how many workers ran
# the regions is unobservable.
SCALE_TMP ?= /tmp/rpcc-scale-smoke
scale-smoke:
	mkdir -p $(SCALE_TMP)
	GOMAXPROCS=1 $(GO) run ./cmd/scale -nodes 10000 -simtime 60s -seed 1 \
		-trace-out $(SCALE_TMP)/a.jsonl > $(SCALE_TMP)/a.txt
	GOMAXPROCS=4 $(GO) run ./cmd/scale -nodes 10000 -simtime 60s -seed 1 \
		-trace-out $(SCALE_TMP)/b.jsonl > $(SCALE_TMP)/b.txt
	cmp $(SCALE_TMP)/a.txt $(SCALE_TMP)/b.txt
	cmp $(SCALE_TMP)/a.jsonl $(SCALE_TMP)/b.jsonl
	@cat $(SCALE_TMP)/a.txt

# Causal-trace gate: a seeded 30-peer run exports its span JSONL twice;
# the trace files, and the traceview reports rendered from them, must be
# byte-identical — the tracing determinism contract. telemetrylint then
# proves the trace is structurally sound (closed phase vocabulary,
# parents resolve, DAG acyclic, intervals nested, canonical order,
# annotations only where they belong).
TRACE_TMP ?= /tmp/rpcc-trace-smoke
trace-smoke:
	mkdir -p $(TRACE_TMP)
	$(GO) run ./cmd/rpccsim -peers 30 -simtime 10m -seed 1 -trace-out $(TRACE_TMP)/a.jsonl > /dev/null
	$(GO) run ./cmd/rpccsim -peers 30 -simtime 10m -seed 1 -trace-out $(TRACE_TMP)/b.jsonl > /dev/null
	cmp $(TRACE_TMP)/a.jsonl $(TRACE_TMP)/b.jsonl
	$(GO) run ./cmd/traceview -in $(TRACE_TMP)/a.jsonl > $(TRACE_TMP)/a.txt
	$(GO) run ./cmd/traceview -in $(TRACE_TMP)/b.jsonl > $(TRACE_TMP)/b.txt
	cmp $(TRACE_TMP)/a.txt $(TRACE_TMP)/b.txt
	$(GO) run ./cmd/telemetrylint -trace $(TRACE_TMP)/a.jsonl
	@head -12 $(TRACE_TMP)/a.txt

# Full paper reproduction (5 simulated hours per run).
figures:
	$(GO) run ./cmd/figures -simtime 5h

# The size every re-anchor quotes: non-test Go lines outside bench/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

