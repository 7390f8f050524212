package wire

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/stats"
)

func TestScheduleLogDeterministic(t *testing.T) {
	a := ScheduleLog(DemoScript(10, 20*time.Second, 7), 10)
	b := ScheduleLog(DemoScript(10, 20*time.Second, 7), 10)
	if a != b {
		t.Fatalf("same-seed schedule logs differ:\n%s\n---\n%s", a, b)
	}
	if c := ScheduleLog(DemoScript(10, 20*time.Second, 8), 10); c == a {
		t.Fatalf("different seeds produced identical schedule logs")
	}
}

func TestDemoScriptValid(t *testing.T) {
	for _, n := range []int{2, 3, 5, 10, 16} {
		s := DemoScript(n, 20*time.Second, 7)
		if err := s.Validate(n); err != nil {
			t.Fatalf("DemoScript(%d) invalid: %v", n, err)
		}
		if len(s.Partitions) != 2 {
			t.Fatalf("DemoScript(%d): want 2 partition windows, got %d", n, len(s.Partitions))
		}
		if len(s.Crashes) != 2 {
			t.Fatalf("DemoScript(%d): want 2 crashes, got %d", n, len(s.Crashes))
		}
		if s.Crashes[0].Node == s.Crashes[1].Node {
			t.Fatalf("DemoScript(%d): both crashes hit node %d", n, s.Crashes[0].Node)
		}
	}
}

func TestScriptJSONRoundTrip(t *testing.T) {
	s := DemoScript(5, 10*time.Second, 42)
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := faults.ParseScript(b)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip changed the campaign:\n%s\n---\n%s", ScheduleLog(s, 5), ScheduleLog(got, 5))
	}
	// Durations must serialize as human-readable strings.
	if want := `"delay": "2ms"`; !strings.Contains(string(b), want) {
		t.Fatalf("marshaled script missing %s:\n%s", want, b)
	}
}

// Wire scripts parse through the one campaign parser, which must stay
// strict about their fields and durations.
func TestParseScriptRejectsUnknownFields(t *testing.T) {
	if _, err := faults.ParseScript([]byte(`{"seed": 1, "los": {}}`)); err == nil {
		t.Fatalf("typoed field accepted")
	}
	if _, err := faults.ParseScript([]byte(`{"seed": 1, "delay": "not-a-duration"}`)); err == nil {
		t.Fatalf("bad duration accepted")
	}
	// Nanosecond numbers are accepted for durations.
	s, err := faults.ParseScript([]byte(`{"seed": 1, "delay": 2000000}`))
	if err != nil {
		t.Fatalf("numeric duration rejected: %v", err)
	}
	if s.Delay.D() != 2*time.Millisecond {
		t.Fatalf("numeric duration = %v, want 2ms", s.Delay.D())
	}
}

// NewChaos validates the campaign for the cluster and turns away what a
// daemon cannot run.
func TestScriptValidate(t *testing.T) {
	sec := faults.Duration(time.Second)
	bad := []faults.Config{
		{Seed: 1, Partitions: []faults.Partition{{Start: 2 * sec, End: sec, Islands: [][]int{{0}, {1}}}}},
		{Seed: 1, Partitions: []faults.Partition{{Start: 0, End: sec, Islands: [][]int{{0}, {9}}}}},
		{Seed: 1, Crashes: []faults.Crash{{At: sec, Node: 9}}},
		{Seed: 1, Loss: faults.GilbertParams{PGoodToBad: 2, PBadToGood: 0.5, LossBad: 0.5}},
		{Seed: 1, Delay: -sec},
		{Seed: 1, Assassinations: []faults.Assassination{{At: sec, Item: 1}}},
	}
	for i := range bad {
		if _, err := NewChaos(&bad[i], 0, 3, 0); err == nil {
			t.Fatalf("bad script %d accepted", i)
		}
	}
	if _, err := NewChaos(&faults.Config{Seed: 1}, 0, 3, 0); err != nil {
		t.Fatalf("empty script rejected: %v", err)
	}
}

func TestChaosPartitionWindows(t *testing.T) {
	sec := faults.Duration(time.Second)
	s := &faults.Config{
		Seed: 5,
		Partitions: []faults.Partition{
			{Start: sec, End: 2 * sec, Islands: [][]int{{0, 1}, {2, 3}}},
		},
	}
	c, err := NewChaos(s, 0, 4, 0)
	if err != nil {
		t.Fatalf("NewChaos: %v", err)
	}
	cases := []struct {
		now  time.Duration
		from int
		cut  bool
	}{
		{500 * time.Millisecond, 2, false},  // before the window
		{1500 * time.Millisecond, 2, true},  // cross-island inside it
		{1500 * time.Millisecond, 1, false}, // same island
		{2 * time.Second, 2, false},         // end is exclusive
	}
	for _, tc := range cases {
		if got := c.Partitioned(tc.now, tc.from); got != tc.cut {
			t.Fatalf("Partitioned(%v, %d) = %v, want %v", tc.now, tc.from, got, tc.cut)
		}
		v := c.Plan(tc.now, tc.from)
		if v.Drop != tc.cut {
			t.Fatalf("Plan(%v, %d).Drop = %v, want %v", tc.now, tc.from, v.Drop, tc.cut)
		}
		if tc.cut && v.Cause != stats.DropPartition {
			t.Fatalf("Plan(%v, %d).Cause = %v, want partition", tc.now, tc.from, v.Cause)
		}
	}
	// A restarted daemon rejoining mid-campaign sees windows through its
	// start offset: local time 0.2s + offset 1s lands inside the window.
	late, err := NewChaos(s, 0, 4, time.Second)
	if err != nil {
		t.Fatalf("NewChaos(offset): %v", err)
	}
	if !late.Partitioned(200*time.Millisecond, 3) {
		t.Fatalf("offset chaos missed the shifted window")
	}
	// Unlisted nodes are the mainland, cut from every listed island.
	sub := &faults.Config{
		Seed: 5,
		Partitions: []faults.Partition{
			{Start: 0, End: sec, Islands: [][]int{{3}, {1}}},
		},
	}
	c2, err := NewChaos(sub, 0, 4, 0)
	if err != nil {
		t.Fatalf("NewChaos: %v", err)
	}
	if !c2.Partitioned(0, 3) {
		t.Fatalf("first-island node 3 not cut from unlisted self")
	}
	if !c2.Partitioned(0, 1) {
		t.Fatalf("second-island node 1 not cut from unlisted self")
	}
	if c2.Partitioned(0, 2) {
		t.Fatalf("unlisted node 2 cut from unlisted self")
	}
}

func TestChaosChainsDeterministic(t *testing.T) {
	s := DemoScript(4, 10*time.Second, 99)
	s.Partitions = nil // isolate the stochastic streams
	mk := func() *Chaos {
		c, err := NewChaos(s, 1, 4, 0)
		if err != nil {
			t.Fatalf("NewChaos: %v", err)
		}
		return c
	}
	a, b := mk(), mk()
	sawDrop, sawDelay, sawDup := false, false, false
	for i := 0; i < 2000; i++ {
		from := i % 4
		if from == 1 {
			from = 3
		}
		now := time.Duration(i) * time.Millisecond
		va, vb := a.Plan(now, from), b.Plan(now, from)
		if va != vb {
			t.Fatalf("same-seed plans diverge at %d: %+v vs %+v", i, va, vb)
		}
		sawDrop = sawDrop || va.Drop
		sawDelay = sawDelay || va.Delay > s.Delay.D()
		sawDup = sawDup || va.Dup
	}
	if !sawDrop || !sawDelay || !sawDup {
		t.Fatalf("campaign too tame: drop=%v jitter=%v dup=%v", sawDrop, sawDelay, sawDup)
	}
	// Different receivers derive different chains from the same script.
	other, err := NewChaos(s, 2, 4, 0)
	if err != nil {
		t.Fatalf("NewChaos: %v", err)
	}
	fresh := mk()
	same := true
	for i := 0; i < 500; i++ {
		if a2, o := fresh.Plan(0, 0), other.Plan(0, 0); a2 != o {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("distinct receivers produced identical streams")
	}
}
