package experiment

import (
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/faults"
)

func TestSweepJobsEnumeration(t *testing.T) {
	spec := Fig7aSpec()
	base := DefaultConfig(StrategyRPCCSC, 7)
	base.SimTime = time.Hour

	jobs, err := SweepJobs(spec, base, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := len(spec.Strategies) * len(spec.Xs) * 3
	if len(jobs) != want {
		t.Fatalf("got %d jobs, want %d", len(jobs), want)
	}
	// Replica r carries seed base.Seed+r regardless of strategy or x, so
	// every strategy faces the same topology process (fair A/B).
	for _, j := range jobs {
		if j.Config.Seed != base.Seed+int64(j.Replica) {
			t.Fatalf("job %s: seed %d, want %d", j.Key, j.Config.Seed, base.Seed+int64(j.Replica))
		}
		if j.Config.Strategy != j.Strategy {
			t.Fatalf("job %s: config strategy %s != job strategy %s", j.Key, j.Config.Strategy, j.Strategy)
		}
	}

	if _, err := SweepJobs(spec, base, 0); err == nil {
		t.Fatal("replicas=0 must error")
	}
}

func TestConfigKeyStableAndDiscriminating(t *testing.T) {
	a := DefaultConfig(StrategyRPCCSC, 1)
	b := DefaultConfig(StrategyRPCCSC, 1)
	if a.Key() != b.Key() {
		t.Fatalf("identical configs must share a key: %s vs %s", a.Key(), b.Key())
	}
	b.CacheNum++
	if a.Key() == b.Key() {
		t.Fatal("configs differing in CacheNum must not share a key")
	}
	c := DefaultConfig(StrategyRPCCSC, 2)
	if a.Key() == c.Key() {
		t.Fatal("configs differing in seed must not share a key")
	}
	// The campaign is part of the scenario, keyed by value: two campaigns
	// built apart key alike, and a campaign moves the plain key.
	d, e := a, a
	d.Faults, e.Faults = faults.Demo(a.NPeers), faults.Demo(a.NPeers)
	if d.Key() != e.Key() {
		t.Fatalf("equal campaigns must share a key: %s vs %s", d.Key(), e.Key())
	}
	if d.Key() == a.Key() {
		t.Fatal("a campaign-bearing config must not share the plain key")
	}
}

// Fig 7a and Fig 8a sweep the same simulation matrix (they differ only
// in the plotted metric), so their job keys must coincide — that overlap
// is what lets the fleet run the shared scenarios once.
func TestSweepJobsSharedAcrossMetricTwins(t *testing.T) {
	base := DefaultConfig(StrategyRPCCSC, 1)
	j7, err := SweepJobs(Fig7aSpec(), base, 2)
	if err != nil {
		t.Fatal(err)
	}
	j8, err := SweepJobs(Fig8aSpec(), base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(j7) != len(j8) {
		t.Fatalf("twin sweeps sized %d vs %d", len(j7), len(j8))
	}
	for i := range j7 {
		if j7[i].Key != j8[i].Key {
			t.Fatalf("job %d: fig7a key %s != fig8a key %s", i, j7[i].Key, j8[i].Key)
		}
	}
}

// AssembleFigure must reproduce what the serial driver computes from the
// same results, and fail loudly when a job's result is missing.
func TestAssembleFigureRoundTrip(t *testing.T) {
	spec := Fig7aSpec()
	spec.Strategies = []StrategyKind{StrategyRPCCWC} // cheapest strategy
	spec.Xs = []float64{2, 4}
	base := DefaultConfig(StrategyRPCCWC, 5)
	base.SimTime = 5 * time.Minute
	base.NPeers = 20

	jobs, err := SweepJobs(spec, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[string]Result, len(jobs))
	for _, j := range jobs {
		if _, ok := results[j.Key]; ok {
			continue
		}
		res, err := Run(j.Config)
		if err != nil {
			t.Fatal(err)
		}
		results[j.Key] = res
	}
	lookup := func(k string) (Result, bool) { r, ok := results[k]; return r, ok }
	fig, err := AssembleFigure(spec, base, 2, lookup)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunSweepReplicated(spec, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	for si := range serial.Series {
		for pi := range serial.Series[si].Points {
			got := fig.Series[si].Points[pi].Result
			want := serial.Series[si].Points[pi].Result
			if got.TotalTx != want.TotalTx || got.MeanLatency != want.MeanLatency {
				t.Fatalf("series %d point %d: assembled %v != serial %v", si, pi, got, want)
			}
		}
	}

	if _, err := AssembleFigure(spec, base, 2, func(string) (Result, bool) { return Result{}, false }); err == nil {
		t.Fatal("missing results must make AssembleFigure fail")
	}
}
