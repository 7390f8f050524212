package rpcc

import (
	"strings"
	"testing"
	"time"
)

func TestDefaultScenarioMatchesTable1(t *testing.T) {
	s := DefaultScenario(StrategyRPCCSC, 1)
	if s.NPeers != 50 {
		t.Errorf("NPeers = %d, want 50", s.NPeers)
	}
	if s.AreaWidth != 1500 || s.AreaHeight != 1500 {
		t.Errorf("area = %gx%g, want 1500x1500", s.AreaWidth, s.AreaHeight)
	}
	if s.CacheNum != 10 {
		t.Errorf("C_Num = %d, want 10", s.CacheNum)
	}
	if s.CommRange != 250 {
		t.Errorf("C_Range = %g, want 250", s.CommRange)
	}
	if s.SimTime != 5*time.Hour {
		t.Errorf("T_Sim = %v, want 5h", s.SimTime)
	}
	if s.UpdateInterval != 2*time.Minute {
		t.Errorf("I_Update = %v, want 2m", s.UpdateInterval)
	}
	if s.QueryInterval != 20*time.Second {
		t.Errorf("I_Query = %v, want 20s", s.QueryInterval)
	}
	if s.BroadcastTTL != 8 {
		t.Errorf("TTL_BR = %d, want 8", s.BroadcastTTL)
	}
	if s.InvalidationTTL != 3 {
		t.Errorf("invalidation TTL = %d, want 3", s.InvalidationTTL)
	}
	if s.TTN != 2*time.Minute || s.TTR != 90*time.Second || s.TTP != 4*time.Minute {
		t.Errorf("timers = %v/%v/%v, want 2m/1.5m/4m", s.TTN, s.TTR, s.TTP)
	}
	if s.SwitchInterval != 5*time.Minute {
		t.Errorf("I_Switch = %v, want 5m", s.SwitchInterval)
	}
	if s.MuCAR != 0.15 || s.MuCS != 0.6 || s.MuCE != 0.6 || s.Omega != 0.2 {
		t.Errorf("thresholds = %g/%g/%g ω=%g, want 0.15/0.6/0.6 ω=0.2", s.MuCAR, s.MuCS, s.MuCE, s.Omega)
	}
}

func TestRunScenarioEndToEnd(t *testing.T) {
	s := DefaultScenario(StrategyRPCCHY, 2)
	s.SimTime = 10 * time.Minute
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Answered == 0 {
		t.Fatal("no queries answered")
	}
	if r.TornAnswers != 0 || r.FutureAnswers != 0 {
		t.Fatalf("integrity violations: torn=%d future=%d", r.TornAnswers, r.FutureAnswers)
	}
	out := RenderResult(r)
	if !strings.Contains(out, "rpcc-hy") {
		t.Errorf("RenderResult missing strategy name:\n%s", out)
	}
}

func TestFiguresCoverPaper(t *testing.T) {
	ids := map[string]bool{}
	for _, spec := range Figures() {
		ids[spec.ID] = true
	}
	for _, want := range []string{"fig7a", "fig7b", "fig7c", "fig8a", "fig8b", "fig8c", "fig9a", "fig9b"} {
		if !ids[want] {
			t.Errorf("Figures() missing %s", want)
		}
	}
}

func TestRunFigureSmall(t *testing.T) {
	specs := Figures()
	var spec FigureSpec
	for _, s := range specs {
		if s.ID == "fig7b" {
			spec = s
			break
		}
	}
	spec.Xs = spec.Xs[:2]                  // two points
	spec.Strategies = spec.Strategies[0:1] // pull only
	base := DefaultScenario(StrategyPull, 3)
	base.SimTime = 5 * time.Minute
	fig, err := RunFigure(spec, base)
	if err != nil {
		t.Fatal(err)
	}
	table := RenderFigure(fig, spec)
	if !strings.Contains(table, "FIG7B") {
		t.Errorf("table missing figure id:\n%s", table)
	}
}

func TestSimulationScriptedScenario(t *testing.T) {
	s, err := NewSimulation(DefaultSimOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	// Host 3 caches host 0's item; host 0 updates it; a strong query from
	// host 3 must observe the new version.
	if err := s.Warm(3, 0); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Version(3, 0); !ok || v != 0 {
		t.Fatalf("warmed version = %d,%v", v, ok)
	}
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Query(3, 0, LevelStrong); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Issued != 1 || m.Answered != 1 {
		t.Fatalf("metrics = %+v, want one answered query", m)
	}
	if m.AuditViolations != 0 {
		t.Fatalf("strong query served stale data: %+v", m)
	}
	if v, _ := s.Version(3, 0); v != 1 {
		t.Errorf("host 3 version after strong query = %d, want 1", v)
	}
}

func TestSimulationDisconnectReconnect(t *testing.T) {
	s, err := NewSimulation(DefaultSimOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Warm(5, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Disconnect(5); err != nil {
		t.Fatal(err)
	}
	// The source updates twice while host 5 is off the network.
	s.Update(0)
	s.RunFor(3 * time.Minute)
	s.Update(0)
	s.RunFor(3 * time.Minute)
	if err := s.Reconnect(5); err != nil {
		t.Fatal(err)
	}
	// After reconnection a strong query repairs the stale copy.
	s.Query(5, 0, LevelStrong)
	s.RunFor(time.Minute)
	if v, ok := s.Version(5, 0); !ok || v != 2 {
		t.Errorf("version after reconnection repair = %d,%v, want 2", v, ok)
	}
	if s.Metrics().AuditViolations != 0 {
		t.Error("reconnected strong query served stale data")
	}
}

func TestSimulationValidation(t *testing.T) {
	if _, err := NewSimulation(SimOptions{Peers: 1}); err == nil {
		t.Error("1-peer simulation accepted")
	}
	s, err := NewSimulation(DefaultSimOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Warm(99, 0); err == nil {
		t.Error("out-of-range host accepted")
	}
	if err := s.Query(0, 99, LevelWeak); err == nil {
		t.Error("out-of-range item accepted")
	}
}

func TestSimulationAtSchedulesActions(t *testing.T) {
	s, err := NewSimulation(DefaultSimOptions(11))
	if err != nil {
		t.Fatal(err)
	}
	s.Warm(2, 0)
	fired := false
	if err := s.At(2*time.Minute, func() {
		fired = true
		s.Query(2, 0, LevelWeak)
	}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Minute)
	if fired {
		t.Fatal("scheduled action fired early")
	}
	s.RunFor(90 * time.Second)
	if !fired {
		t.Fatal("scheduled action never fired")
	}
	if s.Metrics().Answered != 1 {
		t.Error("scheduled weak query unanswered")
	}
}
