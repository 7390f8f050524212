package oracle

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	sc := Gates(1)[0].Scenario
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) == 0 {
		t.Fatal("gate scenario produced no divergences to trace")
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, sc, rep.Divergences); err != nil {
		t.Fatal(err)
	}
	got, divs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sc) {
		t.Fatalf("scenario round-trip mismatch:\n%+v\nvs\n%+v", got, sc)
	}
	if len(divs) != len(rep.Divergences) {
		t.Fatalf("divergence count = %d, want %d", len(divs), len(rep.Divergences))
	}
	for i := range divs {
		if divs[i].Kind != rep.Divergences[i].Kind || divs[i].Node != rep.Divergences[i].Node {
			t.Fatalf("divergence %d = %v, want %v", i, divs[i], rep.Divergences[i])
		}
	}
}

func TestTraceRejectsMalformed(t *testing.T) {
	for name, body := range map[string]string{
		"empty":        "",
		"no scenario":  `{"type":"divergence","kind":"stale"}`,
		"unknown type": `{"type":"mystery"}`,
		"bad json":     `{"type":`,
	} {
		if _, _, err := ReadTrace(bytes.NewBufferString(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

var update = flag.Bool("update", false, "rewrite the divergences recorded in testdata/*.jsonl from a fresh run of each scenario")

// TestReplayTestdataTraces replays every shrunk divergence trace shipped
// under testdata/: each must reproduce its recorded divergences exactly.
// These traces are the regression corpus for the bugs this package's
// mutants re-introduce (stale-push replay, ACK races, TTL drift, store
// regression): if a protocol change silently re-opens one, replay either
// diverges differently or stops diverging, and this test fails.
//
// A change that moves every seeded byte on purpose (the kernel's random
// streams) regenerates the recorded divergences with
//
//	go test ./internal/oracle -run TestReplayTestdataTraces -update
//
// (`make regen`). The scenarios are kept; one that no longer diverges
// still fails and must be re-derived through the mutant gate and shrinker.
func TestReplayTestdataTraces(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no testdata traces found")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sc, recorded, err := ReadTrace(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				rep, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				recorded = rep.Divergences
				var buf bytes.Buffer
				if err := WriteTrace(&buf, sc, recorded); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if len(recorded) == 0 {
				t.Fatal("trace records no divergences")
			}
			if _, err := Replay(sc, recorded); err != nil {
				t.Fatal(err)
			}
		})
	}
}
