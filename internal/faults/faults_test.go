package faults

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func validCampaign() Config {
	return Config{
		Partitions: []Partition{
			{Start: Duration(5 * time.Minute), End: Duration(10 * time.Minute), Islands: [][]int{{0, 1}, {2, 3}}},
		},
		Loss:           GilbertParams{PGoodToBad: 0.05, PBadToGood: 0.3, LossGood: 0.01, LossBad: 0.9},
		Crashes:        []Crash{{At: Duration(2 * time.Minute), Node: 4, RestartAfter: Duration(time.Minute)}},
		Assassinations: []Assassination{{At: Duration(20 * time.Minute), Item: 0, Count: 1}},
		DupProb:        0.01,
		Jitter:         Duration(20 * time.Millisecond),
		RepairWindow:   Duration(3 * time.Minute),
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (validCampaign()).Validate(8); err != nil {
		t.Fatalf("valid campaign rejected: %v", err)
	}
	if err := (Config{}).Validate(8); err != nil {
		t.Fatalf("zero campaign rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"empty window", func(c *Config) { c.Partitions[0].End = c.Partitions[0].Start }, "empty"},
		{"negative start", func(c *Config) { c.Partitions[0].Start = Duration(-time.Second) }, "negative"},
		{"no islands", func(c *Config) { c.Partitions[0].Islands = nil }, "no islands"},
		{"node out of range", func(c *Config) { c.Partitions[0].Islands[0][0] = 8 }, "out of range"},
		{"node twice", func(c *Config) { c.Partitions[0].Islands[1][0] = 0 }, "twice"},
		{"overlap", func(c *Config) {
			c.Partitions = append(c.Partitions, Partition{
				Start: Duration(7 * time.Minute), End: Duration(12 * time.Minute), Islands: [][]int{{5}},
			})
		}, "overlap"},
		{"gilbert out of range", func(c *Config) { c.Loss.LossBad = 1.5 }, "outside [0,1]"},
		{"crash node", func(c *Config) { c.Crashes[0].Node = -1 }, "out of range"},
		{"crash timing", func(c *Config) { c.Crashes[0].RestartAfter = Duration(-time.Second) }, "negative timing"},
		{"assassination item", func(c *Config) { c.Assassinations[0].Item = 99 }, "out of range"},
		{"assassination count", func(c *Config) { c.Assassinations[0].Count = -1 }, "negative count"},
		{"dup prob", func(c *Config) { c.DupProb = 1 }, "outside [0,1)"},
		{"jitter", func(c *Config) { c.Jitter = Duration(-time.Second) }, "negative delay"},
		{"delay", func(c *Config) { c.Delay = Duration(-time.Second) }, "negative delay"},
		{"repair window", func(c *Config) { c.RepairWindow = Duration(-time.Second) }, "negative repair"},
	}
	for _, tc := range cases {
		cfg := validCampaign()
		tc.mut(&cfg)
		err := cfg.Validate(8)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero campaign claims to be enabled")
	}
	audit := Config{RepairWindow: Duration(time.Minute)}
	if audit.Enabled() {
		t.Fatal("a bare audit window is not an injection")
	}
	if !(Config{}).IsZero() || audit.IsZero() {
		t.Fatal("IsZero must hold for the zero campaign only, audit-only campaigns included")
	}
	for name, c := range map[string]Config{
		"partition":     {Partitions: []Partition{{End: Duration(time.Second), Islands: [][]int{{0}}}}},
		"loss":          {Loss: GilbertParams{LossBad: 0.5}},
		"crash":         {Crashes: []Crash{{}}},
		"assassination": {Assassinations: []Assassination{{}}},
		"dup":           {DupProb: 0.1},
		"jitter":        {Jitter: Duration(time.Millisecond)},
	} {
		if !c.Enabled() {
			t.Errorf("%s campaign claims to be disabled", name)
		}
	}
}

// The checked-in demonstration file is the demonstration campaign: the
// JSON schema and Demo describe one campaign.
func TestDemoFileIsDemo(t *testing.T) {
	got, err := LoadScript("testdata/demo.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := Demo(50); !reflect.DeepEqual(*got, want) {
		t.Fatalf("testdata/demo.json = %+v\nwant Demo(50) = %+v", *got, want)
	}
}

func TestAuditorConfigValidate(t *testing.T) {
	good := AuditorConfig{SweepEvery: 5 * time.Second, RepairWindow: 3 * time.Minute, TTN: 2 * time.Minute}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid auditor config rejected: %v", err)
	}
	bad := []AuditorConfig{
		{SweepEvery: 0},
		{SweepEvery: time.Second, RepairWindow: -1},
		{SweepEvery: time.Second, RepairWindow: time.Minute, TTN: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: accepted %+v", i, c)
		}
	}
}

func TestReportVerdict(t *testing.T) {
	var r Report
	if !r.Passed() || !strings.HasPrefix(r.String(), "PASS") {
		t.Fatalf("clean report should pass: %s", r)
	}
	for name, mut := range map[string]func(*Report){
		"strong":   func(r *Report) { r.StrongViolations = 1 },
		"torn":     func(r *Report) { r.TornAnswers = 1 },
		"future":   func(r *Report) { r.FutureAnswers = 1 },
		"monotone": func(r *Report) { r.MonotoneViolations = 1 },
		"heal":     func(r *Report) { r.HealViolations = 1 },
		"retry":    func(r *Report) { r.RetryViolations = 1 },
	} {
		var r Report
		mut(&r)
		if r.Passed() || !strings.HasPrefix(r.String(), "FAIL") {
			t.Errorf("%s violation should fail the report: %s", name, r)
		}
	}
	r = Report{HealsSkipped: 2, HealsChecked: 1, Sweeps: 10}
	if !r.Passed() {
		t.Fatal("skipped heals are not violations")
	}
}
