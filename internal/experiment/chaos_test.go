package experiment

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
	"github.com/manetlab/rpcc/internal/workload"
)

// chaosConfig is the demonstration scenario: Table 1 shrunk to 25
// simulated minutes so a partition, its heal, a relay assassination and a
// crash/restart all fit, under the demonstration campaign.
func chaosConfig() Config {
	cfg := DefaultConfig(StrategyRPCCSC, 11)
	cfg.SimTime = 25 * time.Minute
	cfg.Faults = faults.Demo(cfg.NPeers)
	return cfg
}

// runChaos runs cfg with a metrics hub, failing the test on error.
func runChaos(t *testing.T, cfg Config, opts ...Option) Result {
	t.Helper()
	_, res, err := run(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCampaignRequiresRPCC(t *testing.T) {
	cfg := chaosConfig()
	cfg.Strategy = StrategyPull
	if _, err := Run(cfg); err == nil {
		t.Fatal("non-RPCC strategy accepted a campaign")
	}
}

// An audit-only campaign injects nothing, so it must be invisible: the
// run it audits is the plain run — no extra RNG draws, no behavioural
// drift from the plane or the auditor sweeps — and only the report is
// new.
func TestAuditOnlyCampaignMatchesPlainRun(t *testing.T) {
	cfg := chaosConfig()
	cfg.Faults = faults.Config{}
	plain := runChaos(t, cfg)
	if plain.Faults != nil {
		t.Fatalf("plain run carries a fault report: %s", plain.Faults)
	}
	cfg.Faults = faults.Config{RepairWindow: faults.Duration(6 * time.Minute), StrongStaleBudget: 0.5}
	audited := runChaos(t, cfg)
	rep := audited.Faults
	if rep == nil || rep.Sweeps == 0 {
		t.Fatalf("auditor never swept: %v", rep)
	}
	if rep.MonotoneViolations != 0 || rep.RetryViolations != 0 {
		t.Errorf("fault-free run violated invariants: %s", rep)
	}
	audited.Faults, audited.Config.Faults = nil, faults.Config{}
	if !reflect.DeepEqual(plain, audited) {
		t.Errorf("audit-only campaign perturbed the run:\nplain   %s\naudited %s", plain, audited)
	}
}

func TestChaosSameSeedDeterminism(t *testing.T) {
	r1, r2 := runChaos(t, chaosConfig()), runChaos(t, chaosConfig())
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("same-seed campaigns diverged:\n%s %s\n%s %s", r1, r1.Faults, r2, r2.Faults)
	}
}

// The demonstration campaign — partition, assassination, crash, bursty
// loss, duplication, reordering — must leave every invariant standing.
func TestChaosDemonstrationCampaignPassesInvariants(t *testing.T) {
	res := runChaos(t, chaosConfig())
	rep := res.Faults
	if rep.HealsChecked != 1 {
		t.Errorf("heal checks = %d, want 1", rep.HealsChecked)
	}
	if !rep.Passed() {
		t.Errorf("invariants violated under demonstration campaign: %s", rep)
	}
	if res.Issued == 0 || res.Answered == 0 {
		t.Errorf("campaign starved the workload: %s", res)
	}
	// The faults must really have fired: the partition severed traffic
	// and every fault class was counted.
	var partitionDrops float64
	if fam, ok := res.Telemetry.Family("rpcc_dropped_total"); ok {
		for _, s := range fam.Metrics {
			for _, lb := range s.Labels {
				if lb.Key == "cause" && lb.Value == "partition" {
					partitionDrops += s.Value
				}
			}
		}
	}
	if partitionDrops == 0 {
		t.Error("partition window severed no traffic")
	}
	for _, kind := range []string{"partition-split", "partition-heal", "crash", "restart", "assassination"} {
		if res.Telemetry.CounterValue("rpcc_fault_events_total", telemetry.Label{Key: "kind", Value: kind}) == 0 {
			t.Errorf("fault kind %q never fired", kind)
		}
	}
}

// TestTracedChaosRecordsEveryFaultAndRoleInvisibly: the causal trace is
// the event record of a campaign — one fault root per counted fault
// event of each kind, one role root per counted role transition — and
// recording it moves nothing: Result (metrics snapshot and audit report
// included) equals the untraced run's.
func TestTracedChaosRecordsEveryFaultAndRoleInvisibly(t *testing.T) {
	plain := runChaos(t, chaosConfig())
	res, spans, err := RunWithTrace(chaosConfig(), telemetry.NewHub(telemetry.LevelMetrics))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Errorf("tracing perturbed the campaign:\n got %s %s\nwant %s %s", res, res.Faults, plain, plain.Faults)
	}

	faultRoots := map[string]float64{}
	var roleRoots, islanders float64
	for _, s := range spans {
		switch {
		case s.Phase == ctrace.PhaseFault && s.Parent == 0:
			faultRoots[s.Name]++
		case s.Phase == ctrace.PhaseFault && s.Name == "partition-split":
			islanders++
		case s.Phase == ctrace.PhaseRole:
			roleRoots++
		}
	}
	fam, _ := res.Telemetry.Family("rpcc_fault_events_total")
	if len(fam.Metrics) != 5 || len(faultRoots) != 5 {
		t.Errorf("%d fault kinds counted, %d traced; want 5 and 5", len(fam.Metrics), len(faultRoots))
	}
	for _, m := range fam.Metrics {
		if kind := m.Labels[0].Value; faultRoots[kind] != m.Value {
			t.Errorf("fault kind %q: %g roots in the trace, %g counted", kind, faultRoots[kind], m.Value)
		}
	}
	if islanders != 25 {
		t.Errorf("partition split names %g nodes, want the island's 25", islanders)
	}
	var transitions float64
	fam, _ = res.Telemetry.Family("rpcc_role_transitions_total")
	for _, m := range fam.Metrics {
		transitions += m.Value
	}
	if transitions == 0 || roleRoots != transitions {
		t.Errorf("%g role roots in the trace, %g role transitions counted", roleRoots, transitions)
	}
}

// Deliberately breaking §4.5 — a relay that never issues GET_NEW after
// hearing newer version evidence — must be caught by the heal-convergence
// invariant.
func TestChaosBrokenRepairCaught(t *testing.T) {
	rep := runChaos(t, chaosConfig(), WithCoreConfig(func(c *core.Config) { c.DisableRepair = true })).Faults
	if rep.HealViolations == 0 {
		t.Fatalf("auditor missed the disabled repair path: %s", rep)
	}
	if rep.Passed() {
		t.Fatalf("report passed with repair disabled: %s", rep)
	}
}

// flashCrowdChaosConfig squeezes every cache to four slots under
// Zipf-skewed demand with an 80%-weight hotspot on item 1 spanning the
// partition window, so replacement churn and the fault campaign overlap.
func flashCrowdChaosConfig(policy cache.PolicyKind) Config {
	cfg := chaosConfig()
	cfg.CachePolicy = policy
	cfg.CacheNum = 4
	cfg.Popularity = workload.PopularityZipf
	cfg.Hotspots = []workload.Hotspot{
		{Start: 6 * time.Minute, Duration: 8 * time.Minute, Item: 1, Weight: 0.8},
	}
	return cfg
}

// The flash-crowd campaign: a popularity spike rides through the full
// fault demonstration (partition, bursty loss, assassination, crash)
// while caches churn under every replacement policy. The consistency
// invariants are policy-independent and must hold throughout; the
// policies must also actually behave differently under this pressure —
// identical results across all four would mean the churn is vacuous.
func TestChaosFlashCrowdUnderFaultsPerPolicy(t *testing.T) {
	distinct := map[string][]string{}
	for _, kind := range cache.AllPolicyKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			res := runChaos(t, flashCrowdChaosConfig(kind))
			if !res.Faults.Passed() {
				t.Errorf("invariants violated under %s flash crowd: %s", kind, res.Faults)
			}
			if res.Issued == 0 || res.Answered == 0 {
				t.Errorf("flash crowd starved the workload: %s", res)
			}
			for _, fault := range []string{"partition-split", "partition-heal", "crash", "assassination"} {
				if res.Telemetry.CounterValue("rpcc_fault_events_total", telemetry.Label{Key: "kind", Value: fault}) == 0 {
					t.Errorf("fault kind %q never fired under %s", fault, kind)
				}
			}
			key := fmt.Sprintf("%d/%d/%d", res.Answered, res.Failed, res.TotalTx)
			distinct[key] = append(distinct[key], string(kind))
		})
	}
	if len(distinct) < 2 {
		t.Errorf("all policies produced identical chaos results — no replacement pressure: %v", distinct)
	}
}
