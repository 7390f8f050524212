# Build/test entry points. `make check` is the tier-1 gate; `make race`
# is the concurrency-safety audit behind the fleet orchestrator;
# `make bench-smoke` covers the benchmark module the root build skips.

GO ?= go

.PHONY: all build test race vet cross check regen figures figures-smoke telemetry-smoke chaos-smoke conform-smoke policy-smoke wire-smoke wire-chaos-smoke scale-smoke trace-smoke bench-smoke parity loc

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over every package of the root module.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Vet for darwin/arm64 and windows: the wire clock's deadline source is
# split by platform, and only the non-Linux half builds there.
cross:
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...
	GOOS=windows $(GO) vet ./...

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
	$(GO) run ./cmd/rpcc figures -simtime 1h | cmp - figures_1h.txt

# The tier-1 gate, the race audit, both module smokes, the figure gate,
# the cross-platform vet, and a formatting gate: gofmt must have nothing
# to rewrite.
check: build vet cross test race bench-smoke figures-smoke
	test -z "$$(gofmt -l .)"

# Rewrite the artefacts pinned to the seeded random streams: the figure
# gate's figures_1h.txt and the divergences recorded in the oracle corpus
# (internal/oracle/testdata/). Only a change that moves the seeded bytes
# on purpose runs this; review the diff it leaves.
regen:
	$(GO) run ./cmd/rpcc figures -simtime 1h > figures_1h.txt.new
	mv figures_1h.txt.new figures_1h.txt
	$(GO) test -count=1 ./internal/oracle -run TestReplayTestdataTraces -update

# Every smoke builds rpcc once into its scratch directory, then drives
# the binary. $(call rpcc,DIR) is that build.
define rpcc
	mkdir -p $(1)
	$(GO) build -o $(1)/rpcc ./cmd/rpcc
endef

# $(call twice,DIR,ARGS,EXTS[,ENV_A,ENV_B]) is the run-twice byte-compare
# behind every determinism gate: legs a and b each run `DIR/rpcc ARGS`
# (under ENV_A / ENV_B when given) with LEG in ARGS replaced by the leg's
# name and stdout in DIR/<leg>.txt; then DIR/a.X and DIR/b.X must be
# byte-identical for X in txt and EXTS.
define twice
	$(4) $(1)/rpcc $(subst LEG,a,$(2)) > $(1)/a.txt
	$(5) $(1)/rpcc $(subst LEG,b,$(2)) > $(1)/b.txt
	for x in txt $(3); do cmp $(1)/a.$$x $(1)/b.$$x || exit 1; done
endef

# End-to-end metrics check: a 2-simulated-minute seeded run exports
# Prometheus text, and rpcc lint proves it parses and satisfies the
# histogram invariants plus family presence — families from each layer
# that publishes or registers its own counts (chassis, engine, netsim
# hook, traffic and topology ledgers). The second minute is there for
# the engine's role and relay-membership counts: no coefficient window
# has promoted a candidate by the end of the first. (The per-event record is
# the causal trace: trace-smoke and chaos-smoke lint it.)
TELEMETRY_TMP ?= /tmp/rpcc-telemetry-smoke
telemetry-smoke:
	$(call rpcc,$(TELEMETRY_TMP))
	$(TELEMETRY_TMP)/rpcc run -strategy rpcc-sc -simtime 2m -seed 1 \
		-metrics-out $(TELEMETRY_TMP)/metrics.prom > /dev/null
	$(TELEMETRY_TMP)/rpcc lint -prom $(TELEMETRY_TMP)/metrics.prom \
		-require rpcc_delivery_latency_seconds,rpcc_delivery_hops,rpcc_queries_issued_total,rpcc_staleness_seconds,rpcc_tx_total,rpcc_topology_snapshots_total,rpcc_polls_total,rpcc_query_failures_total,rpcc_role_transitions_total,rpcc_relay_membership_total

# Chaos soak gate: the seeded demonstration campaign (partition + bursty
# loss + crash + relay assassination over 25 simulated minutes, sub-second
# wall) runs twice with the same seed, then a third time from its JSON
# file (internal/faults/testdata/demo.json, the schema wire and rpccd
# read); the runs must pass every consistency invariant (non-zero exit
# otherwise), produce byte-identical stdout/metrics/causal traces, and the
# exports must lint — the cause-labelled drop accounting in the metrics,
# the phase vocabulary and the role/fault roots in the trace, which must
# hold at least one fault root (the injected faults are what this trace
# is for).
CHAOS_TMP ?= /tmp/rpcc-chaos-smoke
CHAOS_RUN = run -seed 11 -simtime 25m -detail=false \
	-trace-out $(CHAOS_TMP)/LEG.jsonl -metrics-out $(CHAOS_TMP)/LEG.prom
chaos-smoke:
	$(call rpcc,$(CHAOS_TMP))
	$(call twice,$(CHAOS_TMP),$(CHAOS_RUN) -faults demo,prom jsonl)
	$(CHAOS_TMP)/rpcc $(subst LEG,c,$(CHAOS_RUN)) \
		-faults internal/faults/testdata/demo.json > $(CHAOS_TMP)/c.txt
	for x in txt prom jsonl; do cmp $(CHAOS_TMP)/a.$$x $(CHAOS_TMP)/c.$$x || exit 1; done
	$(CHAOS_TMP)/rpcc lint -prom $(CHAOS_TMP)/a.prom -trace $(CHAOS_TMP)/a.jsonl \
		-require rpcc_fault_events_total,rpcc_dropped_total,rpcc_repair_attempts_total
	grep -q '"parent":0,.*"phase":"fault"' $(CHAOS_TMP)/a.jsonl
	@cat $(CHAOS_TMP)/a.txt

# Conformance gate: the oracle's unit/replay tests, then rpcc conform
# (mutant gate across 5 seeds + per-strategy clean sweep + a short fuzz
# budget) run twice with identical flags; the two outputs must be byte
# identical — the determinism contract behind trace replay and shrinking.
CONFORM_TMP ?= /tmp/rpcc-conform-smoke
conform-smoke:
	$(GO) test ./internal/oracle/
	$(call rpcc,$(CONFORM_TMP))
	$(call twice,$(CONFORM_TMP),conform -seeds 5 -fuzz 25,)
	@tail -3 $(CONFORM_TMP)/a.txt

# Replacement-policy gate: the four-policy comparison figure (policy-hit:
# LRU/LFU/TTL/utility under Zipf demand, a flash-crowd hotspot and a
# cache-size sweep) runs twice with the same seed; the rendered figure
# and the merged metrics must be byte-identical, and the export must
# lint — including the suppressed-query counter the workload fix
# introduced (the hotspot lands on its own host for one peer, so the
# counter is exercised, not merely registered).
POLICY_TMP ?= /tmp/rpcc-policy-smoke
POLICY_RUN = figures -only policy-hit -simtime 10m -seed 1 -metrics-out $(POLICY_TMP)/LEG.prom
policy-smoke:
	$(call rpcc,$(POLICY_TMP))
	$(call twice,$(POLICY_TMP),$(POLICY_RUN),prom)
	$(POLICY_TMP)/rpcc lint -prom $(POLICY_TMP)/a.prom \
		-require rpcc_workload_suppressed_total,rpcc_queries_issued_total,rpcc_tx_total
	@cat $(POLICY_TMP)/a.txt

# Sim-to-wire gate: build everything, then boot a 5-node loopback UDP
# cluster of live daemons for ~10 s of wall time. Every served answer is
# judged against the live oracle's staleness envelopes; any divergence,
# unclean shutdown, or vacuous (zero-answer) run exits non-zero. A
# bounded fuzz leg (10 s of FuzzUnmarshalFrame) then throws mutated
# datagrams at the frame codec the daemons decode with.
WIRE_TMP ?= /tmp/rpcc-wire-smoke
wire-smoke: build
	$(call rpcc,$(WIRE_TMP))
	$(WIRE_TMP)/rpcc wire -n 5 -duration 10s -v
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalFrame$$' -fuzztime 10s ./internal/protocol

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
WIRE_CHAOS_DC = wire -n 10 -duration 20s -strategy rpcc-dc -seed 7 -chaos \
	-schedule-out $(WIRE_CHAOS_TMP)/LEG.log
WIRE_CHAOS_WC = wire -n 10 -duration 20s -strategy rpcc-wc -query 100ms -seed 7 -chaos
wire-chaos-smoke: build
	$(call rpcc,$(WIRE_CHAOS_TMP))
	$(call twice,$(WIRE_CHAOS_TMP),$(WIRE_CHAOS_DC),log)
	$(WIRE_CHAOS_TMP)/rpcc $(WIRE_CHAOS_WC) > $(WIRE_CHAOS_TMP)/wc.txt
	@if $(WIRE_CHAOS_TMP)/rpcc $(WIRE_CHAOS_WC) -broken inflation > /dev/null 2>$(WIRE_CHAOS_TMP)/broken.err; then \
		echo "BUG: broken judge variant passed — the chaos gate has no teeth"; exit 1; \
	else \
		echo "broken judge variant caught ($$(grep -c 'divergence:' $(WIRE_CHAOS_TMP)/broken.err) divergences)"; \
	fi
	@cat $(WIRE_CHAOS_TMP)/a.txt $(WIRE_CHAOS_TMP)/wc.txt

# Scale gate: a 10k-node run (auto region count) runs once with
# GOMAXPROCS=1 — the caller runs every region, the serial reference —
# and once with GOMAXPROCS=4 — three region workers, whatever the box's
# core count; both runs must pass rpcc scale's invariant gate (answers
# exist, no torn/future answers — non-zero exit otherwise) and produce
# byte-identical stdout and merged causal traces: how many workers ran
# the regions is unobservable.
#
# Two 100k legs follow, each run under GOMAXPROCS 1 and 4 with equal
# stdout required ($(call scale100k,NAME,ARGS)). One answers nothing
# this early (EXPERIMENTS.md), so the one failure they may report is
# rpcc scale's "no queries answered"; any other error fails the leg.
#   - fields: one field (-shards 1) of 100 000 peers for two simulated
#     seconds — the whole set-up (every host's batch warm) plus the
#     kinetic plane's full build over its dense cell grid and a first
#     incremental sample, at the size they target; stdout must show the
#     plane built, and the GOMAXPROCS=1 leg's peak_rss_kb must stay under
#     353 000, 10 % over the ≈ 320 000 it reads with 40-byte item states,
#     64-byte cache entries and four-byte CSR ids (≈ 407 600 before).
#   - strips: 16 regions of 6 250 peers for 1 ms — set-up alone. A
#     region's whole life is one worker call, so one worker holds one
#     region: the GOMAXPROCS=1 leg's peak_rss_kb (VmHWM, read on Linux
#     only) must stay under 120 000, where keeping every region to the
#     merge read ≈ 331 000. At GOMAXPROCS=4 three workers hold three
#     regions, so that leg is not bounded.
SCALE_TMP ?= /tmp/rpcc-scale-smoke
SCALE_RUN = scale -peers 10000 -simtime 60s -seed 1 -trace-out $(SCALE_TMP)/LEG.jsonl
define scale100k
	GOMAXPROCS=1 $(SCALE_TMP)/rpcc scale -peers 100000 -seed 1 $(2) > $(SCALE_TMP)/$(1)-a.txt 2> $(SCALE_TMP)/$(1)-a.err || \
		grep -qx 'rpcc scale: no queries answered' $(SCALE_TMP)/$(1)-a.err
	GOMAXPROCS=4 $(SCALE_TMP)/rpcc scale -peers 100000 -seed 1 $(2) > $(SCALE_TMP)/$(1)-b.txt 2> $(SCALE_TMP)/$(1)-b.err || \
		grep -qx 'rpcc scale: no queries answered' $(SCALE_TMP)/$(1)-b.err
	cmp $(SCALE_TMP)/$(1)-a.txt $(SCALE_TMP)/$(1)-b.txt
endef
# peakBelow fails leg $(1) when its GOMAXPROCS=1 run's stderr
# peak_rss_kb is at or above $(2) on Linux (VmHWM is Linux-only).
define peakBelow
	@kb=$$(sed -n 's/.*peak_rss_kb=\([0-9]*\).*/\1/p' $(SCALE_TMP)/$(1)-a.err); \
	if [ "$$(uname)" = Linux ] && [ "$$kb" -ge $(2) ]; then \
		echo "$(1) leg peaked at $$kb kB with one worker (bound $(2))"; exit 1; \
	fi; echo "$(1) leg: peak_rss_kb=$$kb with one worker"
endef
scale-smoke:
	$(call rpcc,$(SCALE_TMP))
	$(call twice,$(SCALE_TMP),$(SCALE_RUN),jsonl,GOMAXPROCS=1,GOMAXPROCS=4)
	$(call scale100k,fields,-shards 1 -simtime 2s)
	grep -q 'full_rebuilds=1 kinetic_samples=[1-9]' $(SCALE_TMP)/fields-a.txt
	$(call peakBelow,fields,353000)
	$(call scale100k,strips,-simtime 1ms)
	$(call peakBelow,strips,120000)
	@cat $(SCALE_TMP)/a.txt $(SCALE_TMP)/fields-a.txt $(SCALE_TMP)/strips-a.txt

# Causal-trace gate: a seeded 30-peer run exports its span JSONL twice;
# the trace files, and the rpcc view reports rendered from them, must be
# byte-identical — the tracing determinism contract. rpcc lint then
# proves the trace is structurally sound (closed phase vocabulary,
# parents resolve, DAG acyclic, intervals nested, canonical order,
# annotations only where they belong).
TRACE_TMP ?= /tmp/rpcc-trace-smoke
TRACE_RUN = run -peers 30 -simtime 10m -seed 1 -trace-out $(TRACE_TMP)/LEG.jsonl
trace-smoke:
	$(call rpcc,$(TRACE_TMP))
	$(call twice,$(TRACE_TMP),$(TRACE_RUN),jsonl)
	$(call twice,$(TRACE_TMP),view -in $(TRACE_TMP)/LEG.jsonl,)
	$(TRACE_TMP)/rpcc lint -trace $(TRACE_TMP)/a.jsonl
	@head -12 $(TRACE_TMP)/a.txt

# Parity gate for a change that must not move behaviour: `make parity
# BASE=<rev>` builds rpcc at BASE and from the working tree, runs both on
# the seeded artefacts below and cmps every pair, naming each file that
# differs before it fails: the figure suite at one simulated hour, the
# chaos-smoke campaign's stdout, metrics and causal trace, the metrics of
# 10-minute push, pull and rpcc-hy runs (the baselines' instruments and
# every consistency level), the stdout and metrics of one-hour rpcc-sc
# and pull runs at I_Update 10 s and I_Query 2 min (≈ 360 commits per
# item, so every history spans several segments), the stdout and metrics
# of 30-minute runs over DSR routing and at 20 % link loss (the two
# ablation paths left on the hop-delay code), the conformance gate's
# report, and rpcc scale's stdout (kernel events-fired counts included)
# for 10k peers over 60 s as strips and as one field.
# BASE is exported with git archive rather than checked out in a
# worktree, so nothing is registered in .git and an interrupted run
# leaves only PARITY_TMP behind.
PARITY_TMP ?= /tmp/rpcc-parity
PARITY_FILES = figures.txt chaos.txt chaos.prom chaos.jsonl push.prom pull.prom rpcc-hy.prom \
	write-rpcc-sc.txt write-rpcc-sc.prom write-pull.txt write-pull.prom \
	dsr.txt dsr.prom loss.txt loss.prom conform.txt scale-strips.txt scale-field.txt
define parityOutputs
	$(1)/rpcc figures -simtime 1h > $(1)/figures.txt
	$(1)/rpcc run -seed 11 -simtime 25m -detail=false -faults demo \
		-trace-out $(1)/chaos.jsonl -metrics-out $(1)/chaos.prom > $(1)/chaos.txt
	for s in push pull rpcc-hy; do \
		$(1)/rpcc run -strategy $$s -simtime 10m -metrics-out $(1)/$$s.prom > /dev/null || exit 1; \
	done
	for s in rpcc-sc pull; do \
		$(1)/rpcc run -strategy $$s -update 10s -query 2m -simtime 1h \
			-metrics-out $(1)/write-$$s.prom > $(1)/write-$$s.txt || exit 1; \
	done
	$(1)/rpcc run -dsr -simtime 30m -metrics-out $(1)/dsr.prom > $(1)/dsr.txt
	$(1)/rpcc run -loss 0.2 -simtime 30m -metrics-out $(1)/loss.prom > $(1)/loss.txt
	$(1)/rpcc conform -seeds 5 -fuzz 25 > $(1)/conform.txt
	$(1)/rpcc scale -peers 10000 -simtime 60s -seed 1 > $(1)/scale-strips.txt
	$(1)/rpcc scale -peers 10000 -simtime 60s -seed 1 -shards 1 > $(1)/scale-field.txt
endef
parity:
	@test -n "$(BASE)" || { echo "usage: make parity BASE=<rev>"; exit 2; }
	rm -rf $(PARITY_TMP)
	mkdir -p $(PARITY_TMP)/src $(PARITY_TMP)/base $(PARITY_TMP)/head
	git archive $(BASE) | tar -x -C $(PARITY_TMP)/src
	$(GO) build -C $(PARITY_TMP)/src -o $(PARITY_TMP)/base/rpcc ./cmd/rpcc
	$(GO) build -o $(PARITY_TMP)/head/rpcc ./cmd/rpcc
	$(call parityOutputs,$(PARITY_TMP)/base)
	$(call parityOutputs,$(PARITY_TMP)/head)
	@differ=; for f in $(PARITY_FILES); do \
		cmp $(PARITY_TMP)/base/$$f $(PARITY_TMP)/head/$$f || differ="$$differ $$f"; \
	done; \
	if [ -n "$$differ" ]; then echo "parity with $(BASE): differ:$$differ"; exit 1; fi
	@echo "parity with $(BASE): $(PARITY_FILES) byte-equal"

# Full paper reproduction (5 simulated hours per run).
figures:
	$(GO) run ./cmd/rpcc figures -simtime 5h

# The size every re-anchor quotes: non-test Go lines outside bench/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

