package oracle

import (
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
)

// modelEnv wires a model over a 2-item registry with v1 of item 0
// committed at commitAt.
func modelEnv(t *testing.T, spec Spec, commitAt time.Duration) (*sim.Kernel, *data.Registry, *Model) {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(1))
	reg, err := data.NewRegistry(2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.Master(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update(commitAt); err != nil {
		t.Fatal(err)
	}
	model, err := NewModel(reg, spec)
	if err != nil {
		t.Fatal(err)
	}
	return k, reg, model
}

// observeAt runs the observation at sim time at so k.Now() is honest.
func observeAt(t *testing.T, k *sim.Kernel, at time.Duration, fn func(kk *sim.Kernel)) {
	t.Helper()
	if _, err := k.At(at, "test.observe", fn); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(at + time.Millisecond)
}

func strongSpec(env time.Duration) Spec {
	return Spec{
		Envelopes: map[consistency.Level]time.Duration{consistency.LevelStrong: env},
		Slack:     2 * time.Second,
	}
}

func TestModelFlagsTornCopy(t *testing.T) {
	k, _, model := modelEnv(t, strongSpec(time.Minute), 10*time.Minute)
	q := &node.Query{Host: 1, Item: 0, Level: consistency.LevelStrong}
	observeAt(t, k, time.Minute, func(kk *sim.Kernel) {
		model.ObserveAnswer(kk, q, data.Copy{ID: 0, Version: 1, Value: "garbage"})
	})
	divs := model.Finish()
	if len(divs) != 1 || divs[0].Kind != DivTorn {
		t.Fatalf("divergences = %v, want one %s", divs, DivTorn)
	}
}

func TestModelFlagsUncommittedVersion(t *testing.T) {
	k, _, model := modelEnv(t, strongSpec(time.Minute), 10*time.Minute)
	q := &node.Query{Host: 1, Item: 0, Level: consistency.LevelStrong}
	observeAt(t, k, time.Minute, func(kk *sim.Kernel) {
		// Version 7 was never committed; the value is well-formed so only
		// the commit check can reject it.
		model.ObserveAnswer(kk, q, data.Copy{ID: 0, Version: 7, Value: data.ValueFor(0, 7)})
	})
	divs := model.Finish()
	if len(divs) != 1 || divs[0].Kind != DivUncommitted {
		t.Fatalf("divergences = %v, want one %s", divs, DivUncommitted)
	}
}

func TestModelFlagsFutureVersion(t *testing.T) {
	// v1 commits at 10:00; serving it at 1:00 means the answer cites a
	// version that does not exist yet.
	k, reg, model := modelEnv(t, strongSpec(time.Minute), 10*time.Minute)
	m, _ := reg.Master(0)
	v1 := m.Current()
	q := &node.Query{Host: 1, Item: 0, Level: consistency.LevelStrong}
	observeAt(t, k, time.Minute, func(kk *sim.Kernel) {
		model.ObserveAnswer(kk, q, v1)
	})
	divs := model.Finish()
	if len(divs) != 1 || divs[0].Kind != DivUncommitted {
		t.Fatalf("divergences = %v, want one %s", divs, DivUncommitted)
	}
}

func TestModelStalenessEnvelope(t *testing.T) {
	// Envelope 1min + slack 2s: serving v0 is fine until 11:02, stale
	// after.
	spec := strongSpec(time.Minute)
	k, reg, model := modelEnv(t, spec, 10*time.Minute)
	_ = reg
	v0 := data.Copy{ID: 0, Version: 0, Value: data.ValueFor(0, 0)}
	q := &node.Query{Host: 1, Item: 0, Level: consistency.LevelStrong}
	observeAt(t, k, 11*time.Minute, func(kk *sim.Kernel) {
		model.ObserveAnswer(kk, q, v0) // inside envelope
	})
	if divs := model.divs; len(divs) != 0 {
		t.Fatalf("answer inside envelope flagged: %v", divs)
	}
	observeAt(t, k, 11*time.Minute+3*time.Second, func(kk *sim.Kernel) {
		model.ObserveAnswer(kk, q, v0) // outside envelope
	})
	divs := model.Finish()
	if len(divs) != 1 || divs[0].Kind != DivStale {
		t.Fatalf("divergences = %v, want one %s", divs, DivStale)
	}
	if divs[0].MinOK != 1 {
		t.Fatalf("min ok version = %d, want 1", divs[0].MinOK)
	}
}

func TestModelInflateWidensEnvelope(t *testing.T) {
	spec := strongSpec(time.Minute)
	spec.Inflate = 30 * time.Second
	k, _, model := modelEnv(t, spec, 10*time.Minute)
	v0 := data.Copy{ID: 0, Version: 0, Value: data.ValueFor(0, 0)}
	q := &node.Query{Host: 1, Item: 0, Level: consistency.LevelStrong}
	// 11:03 is stale without inflation (see above) but inside the
	// widened envelope.
	observeAt(t, k, 11*time.Minute+3*time.Second, func(kk *sim.Kernel) {
		model.ObserveAnswer(kk, q, v0)
	})
	if divs := model.Finish(); len(divs) != 0 {
		t.Fatalf("inflated envelope still flagged: %v", divs)
	}
}

func TestModelWeakLevelUnbounded(t *testing.T) {
	// Weak is absent from the envelope map: any committed version is
	// acceptable forever.
	k, _, model := modelEnv(t, strongSpec(time.Minute), 10*time.Minute)
	v0 := data.Copy{ID: 0, Version: 0, Value: data.ValueFor(0, 0)}
	q := &node.Query{Host: 1, Item: 0, Level: consistency.LevelWeak}
	observeAt(t, k, 30*time.Minute, func(kk *sim.Kernel) {
		model.ObserveAnswer(kk, q, v0)
	})
	if divs := model.Finish(); len(divs) != 0 {
		t.Fatalf("weak answer flagged: %v", divs)
	}
}

func TestModelMonotoneWatermark(t *testing.T) {
	k, reg, model := modelEnv(t, Spec{Slack: 2 * time.Second}, time.Minute)
	m, _ := reg.Master(0)
	v1 := m.Current()
	v0 := data.Copy{ID: 0, Version: 0, Value: data.ValueFor(0, 0)}
	q := &node.Query{Host: 1, Item: 0, Level: consistency.LevelWeak}
	observeAt(t, k, 2*time.Minute, func(kk *sim.Kernel) {
		model.ObserveAnswer(kk, q, v1)
		model.ObserveAnswer(kk, q, v0) // regression
	})
	divs := model.Finish()
	if len(divs) != 1 || divs[0].Kind != DivMonotone {
		t.Fatalf("divergences = %v, want one %s", divs, DivMonotone)
	}
	// Another host's watermark is independent.
	q3 := &node.Query{Host: 3, Item: 0, Level: consistency.LevelWeak}
	observeAt(t, k, 3*time.Minute, func(kk *sim.Kernel) {
		model.ObserveAnswer(kk, q3, v0)
	})
	if got := model.Finish(); len(got) != 1 {
		t.Fatalf("other host's v0 answer flagged: %v", got[1:])
	}
}

func TestModelCrashResetsWatermark(t *testing.T) {
	k, reg, model := modelEnv(t, Spec{Slack: 2 * time.Second}, time.Minute)
	m, _ := reg.Master(0)
	v1 := m.Current()
	v0 := data.Copy{ID: 0, Version: 0, Value: data.ValueFor(0, 0)}
	q := &node.Query{Host: 1, Item: 0, Level: consistency.LevelWeak}
	observeAt(t, k, 2*time.Minute, func(kk *sim.Kernel) {
		model.ObserveAnswer(kk, q, v1)
		model.OnCrash(1)
		model.ObserveAnswer(kk, q, v0) // legitimate after a crash
	})
	if divs := model.Finish(); len(divs) != 0 {
		t.Fatalf("post-crash v0 answer flagged: %v", divs)
	}
}

func TestModelFloodReachChecks(t *testing.T) {
	spec := Spec{InvTTL: 2, CheckReach: true, ExpectReach: []int{1, 2}}
	k, _, model := modelEnv(t, spec, time.Minute)
	_ = k
	inv := protocol.Message{Kind: protocol.KindInvalidation, Item: 0, Origin: 0}
	model.ObserveDelivery(time.Minute, 1, inv, netsim.Meta{Hops: 1})
	model.ObserveDelivery(time.Minute, 3, inv, netsim.Meta{Hops: 3}) // overreach
	divs := model.Finish()
	if len(divs) != 2 {
		t.Fatalf("divergences = %v, want overreach + underreach", divs)
	}
	if divs[0].Kind != DivOverreach || divs[0].Node != 3 {
		t.Fatalf("first divergence = %v, want %s at node 3", divs[0], DivOverreach)
	}
	if divs[1].Kind != DivUnderreach || divs[1].Node != 2 {
		t.Fatalf("second divergence = %v, want %s at node 2", divs[1], DivUnderreach)
	}
}

func TestPlanRuleMatching(t *testing.T) {
	rules := []Rule{
		{Kind: "UPDATE", Version: 1, Item: -1, To: -1, Occurrence: 2, Drop: true},
		{Kind: "POLL", Version: -1, Item: 0, To: 3, DelayMS: 500, Dup: true},
	}
	p, err := perturber(rules)
	if err != nil {
		t.Fatal(err)
	}
	upd := protocol.Message{Kind: protocol.KindUpdate, Item: 0, Version: 1}
	// Occurrence 2: first base match passes through, second is dropped,
	// third passes again.
	if got := p(1, upd, netsim.Meta{}); got.Drop {
		t.Fatal("occurrence 1 perturbed, want pass-through")
	}
	if got := p(1, upd, netsim.Meta{}); !got.Drop {
		t.Fatal("occurrence 2 not dropped")
	}
	if got := p(1, upd, netsim.Meta{}); got.Drop {
		t.Fatal("occurrence 3 perturbed, want pass-through")
	}
	// Version mismatch never counts as a base match.
	updV2 := upd
	updV2.Version = 2
	if got := p(1, updV2, netsim.Meta{}); got.Drop || got.Dup {
		t.Fatal("non-matching version perturbed")
	}
	// The second rule matches destination 3 only.
	poll := protocol.Message{Kind: protocol.KindPoll, Item: 0}
	if got := p(2, poll, netsim.Meta{}); got.Dup {
		t.Fatal("poll to node 2 perturbed, want pass-through")
	}
	got := p(3, poll, netsim.Meta{})
	if !got.Dup || got.Delay != 0 || got.DupDelay != 500*time.Millisecond {
		t.Fatalf("poll to node 3 perturbation = %+v, want dup+500ms", got)
	}
}

func TestPlanRejectsUnknownKind(t *testing.T) {
	if _, err := perturber([]Rule{{Kind: "NOT_A_KIND", Version: -1, Item: -1, To: -1}}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestScenarioValidate(t *testing.T) {
	good := Scenario{Name: "ok", Nodes: 4, Strategy: "rpcc", HorizonMS: 60_000}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"one node", func(s *Scenario) { s.Nodes = 1 }},
		{"zero horizon", func(s *Scenario) { s.HorizonMS = 0 }},
		{"unknown strategy", func(s *Scenario) { s.Strategy = "carrier-pigeon" }},
		{"mutant on baseline", func(s *Scenario) { s.Strategy = "pull"; s.Mutant = "ignore-ttr" }},
		{"unknown mutant", func(s *Scenario) { s.Mutant = "definitely-not" }},
		{"relays on baseline", func(s *Scenario) { s.Strategy = "push"; s.Relays = []Placement{{Host: 1}} }},
		{"bad rule kind", func(s *Scenario) { s.Rules = []Rule{{Kind: "NOPE", Version: -1, Item: -1, To: -1}} }},
		{"bad poller period", func(s *Scenario) { s.Pollers = []Poller{{Host: 1, Level: "SC"}} }},
		{"bad level", func(s *Scenario) { s.Queries = []QueryEvent{{Host: 1, Level: "XX"}} }},
		{"placement out of range", func(s *Scenario) { s.Warm = []Placement{{Host: 9, Item: 0}} }},
	}
	for _, tc := range cases {
		sc := good
		tc.mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
