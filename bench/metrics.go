package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// metricSpec names one metric of the benchmark contract. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// workloadSpec is one set of inputs the benchmark runs.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the measured window the driver asks every run for.
const runSeconds = 15

var workloadSpecs = []workloadSpec{
	{"paper50-read", "Table 1 as published, six strategies, query-heavy: POLL/ACK unicasts, core/pushpull handlers, cache and netsim delivery dominate"},
	{"paper50-write", "same engine the other way round (I_Update 10 s, I_Query 2 min): INVALIDATION/UPDATE floods and relay repair dominate, polls are rare"},
	{"scale10k", "10 000 peers at Table 1 density with the per-node workload not stretched: kernel, netsim delivery, routes and memory per node under real load"},
	{"scale10k-quiet", "same 10 000 peers with the cmd/scale 10x workload stretch: mobility, kinetic topology, route repair and lockstep barriers, protocol nearly idle"},
	{"wire5-poll", "5 loopback UDP daemons, 2 ms injected hop delay, two closed-loop clients polling at strong consistency: the only workload on protocol frames, wire.Transport syscalls and the wire.Clock queue"},
}

// endToEnd lists what a user of the system sees. Every workload emits
// every one of them with --trace 0. All carry the contract's widest bound:
// one bound serves all five workloads, the driver measures spread across
// seeds, and on this two-core box the simulator's wall-clock rates drift
// by a fifth over minutes while every ratio over scale10k-quiet's ~800
// answered queries scatters by 8-12 % from seed to seed. README.md has the
// measured spreads.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"answered_per_wall_s", "1/s", "higher", 0.25},
	{"tx_per_wall_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"answer_rate", "ratio", "higher", 0.25},
	{"tx_per_answer", "count", "lower", 0.25},
	{"query_latency_ms", "ms", "lower", 0.25},
	{"allocs_per_answer", "count", "lower", 0.25},
	{"alloc_bytes_per_answer", "B", "lower", 0.25},
}

// failReasons are the rpcc_query_failures_total labels the six paper
// strategies can produce; anything else lands in "other".
var failReasons = []string{"poll-timeout", "fetch-timeout", "refetch-timeout", "no-ir", "copy-lost"}

var tracePhases = []string{
	ctrace.PhaseQuery, ctrace.PhaseTransit, ctrace.PhasePoll, ctrace.PhaseRelayQueue,
	ctrace.PhaseServe, ctrace.PhaseFetch, ctrace.PhaseRepair, ctrace.PhaseInvalidate, ctrace.PhaseUpdate,
}

// perLayer lists the single-layer metrics every workload emits with
// --trace 1; a metric that does not apply to a workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	lower := func(unit string, names ...string) []metricSpec {
		out := make([]metricSpec, len(names))
		for i, n := range names {
			out[i] = metricSpec{Name: n, Unit: unit, Better: "lower"}
		}
		return out
	}
	higher := func(unit, name string) metricSpec {
		return metricSpec{Name: name, Unit: unit, Better: "higher"}
	}
	var m []metricSpec
	m = append(m, lower("ns", "sim.event_ns", "sim.stream_new_ns", "sim.barrier_ns")...)
	m = append(m, lower("count", "sim.event_allocs")...)
	m = append(m, lower("B", "sim.stream_new_bytes")...)
	m = append(m, lower("s", "sim.shard_busy_s", "sim.shard_stall_s")...)
	m = append(m, lower("ratio", "sim.event_imbalance")...)
	m = append(m, higher("1/s", "sim.events_per_wall_s"))
	m = append(m, lower("ns", "mobility.position_ns", "mobility.field_new_ns",
		"radio.build_ns", "radio.route_table_ns", "radio.nexthop_ns",
		"netsim.unicast_ns", "netsim.flood_ns")...)
	m = append(m, lower("count", "radio.build_allocs", "netsim.unicast_allocs", "netsim.flood_allocs",
		"netsim.full_rebuilds", "netsim.kinetic_samples", "netsim.link_events", "netsim.cert_checks",
		"netsim.rebins", "netsim.routes_repaired", "netsim.routes_dropped")...)
	m = append(m, lower("s", "core.sc_wall_s", "core.dc_wall_s", "core.wc_wall_s", "core.hy_wall_s",
		"pushpull.pull_wall_s", "pushpull.push_wall_s")...)
	m = append(m, lower("us", "core.query_host_us.sc", "core.query_host_us.dc", "core.query_host_us.wc",
		"core.update_host_us")...)
	m = append(m, lower("count", "core.poll_direct", "core.poll_ring", "core.poll_fallback",
		"core.relay_forgets", "core.relay_count")...)
	m = append(m, lower("ns", "cache.get_ns", "cache.put_evict_ns")...)
	m = append(m, higher("ratio", "cache.hit_ratio"))
	for _, r := range append(append([]string(nil), failReasons...), "other") {
		m = append(m, lower("ratio", "node.fail_share."+r)...)
	}
	m = append(m, lower("1/s", "workload.issued_per_sim_s")...)
	m = append(m, lower("ratio", "consistency.violation_rate")...)
	for _, op := range []string{"marshal", "unmarshal"} {
		for _, kind := range []string{"poll", "ackb"} {
			m = append(m, lower("ns", "protocol.frame_"+op+"_ns."+kind)...)
			m = append(m, lower("count", "protocol.frame_"+op+"_allocs."+kind)...)
		}
	}
	m = append(m, lower("ns", "wire.inject_ns", "wire.unicast_ns")...)
	m = append(m, lower("us", "wire.rtt_p50_us", "wire.rtt_p99_us", "wire.cpu_us_per_answer")...)
	m = append(m, higher("count", "wire.rtt_samples"), higher("1/s", "wire.answered_per_wall_s"))
	m = append(m, lower("count", "wire.timeouts", "wire.decode_errors", "wire.read_errors")...)
	m = append(m, lower("ratio", "telemetry.metrics_overhead", "telemetry.trace_overhead")...)
	for _, p := range tracePhases {
		m = append(m, lower("ratio", "trace.phase_share."+p)...)
	}
	m = append(m, lower("count", "trace.spans_per_query")...)
	m = append(m, lower("ratio", "experiment.setup_share")...)
	m = append(m, lower("kB", "experiment.rss_kb_per_node")...)
	return m
}

// values holds measured metrics by name.
type values map[string]float64

// report is what one run of one workload produces.
type report struct {
	Attempted   int
	Failed      int
	Fingerprint string   // hash of the simulated counters ("" on the wire)
	Breaches    []string // failed checks; empty means the run was correct
	Values      values
}

func (r *report) breach(format string, args ...any) {
	r.Breaches = append(r.Breaches, fmt.Sprintf(format, args...))
}

// contractLine renders the driver's result object for the given metric
// set. Every spec is present exactly once; a missing or non-finite
// end-to-end value is a harness bug and marks the run incorrect.
func (r *report) contractLine(specs []metricSpec, required bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(specs))
	for _, s := range specs {
		v, ok := r.Values[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (required && (!ok || v == 0)) {
			r.breach("metric %s has no usable value (%v)", s.Name, v)
			v = 0
		}
		ms[s.Name] = mv{v, s.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{len(r.Breaches) == 0, r.Attempted, r.Failed, ms})
	if err != nil {
		panic(err) // plain structs of finite floats always marshal
	}
	return string(out)
}

// benchmarkSpec renders BENCHMARK.json from the tables above.
func benchmarkSpec() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "github.com/manetlab/rpcc/bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// median returns the middle of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the lower and upper quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so spreads
// computed here match the driver's.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
