package oracle

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/manetlab/rpcc/internal/data"
)

// Trace line types. A trace is JSONL: one "scenario" line followed by
// zero or more "divergence" lines — the divergences the scenario
// produced when it was recorded. Replaying the scenario must reproduce
// them exactly (same count, kinds and order): the trace is both the bug
// report and its regression test.
const (
	traceScenario   = "scenario"
	traceDivergence = "divergence"
)

type traceLine struct {
	Type string `json:"type"`
	// Scenario payload (Type == "scenario").
	Scenario *Scenario `json:"scenario,omitempty"`
	// Divergence payload (Type == "divergence"), with the sim time
	// flattened to milliseconds for readability.
	AtMS   int64  `json:"at_ms,omitempty"`
	Node   int    `json:"node,omitempty"`
	Item   int    `json:"item,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Level  string `json:"level,omitempty"`
	Served int64  `json:"served,omitempty"`
	MinOK  int64  `json:"min_ok,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// WriteTrace serialises a scenario and its recorded divergences as JSONL.
func WriteTrace(w io.Writer, sc Scenario, divs []Divergence) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(traceLine{Type: traceScenario, Scenario: &sc}); err != nil {
		return err
	}
	for _, d := range divs {
		line := traceLine{
			Type:   traceDivergence,
			AtMS:   int64(d.At / time.Millisecond),
			Node:   d.Node,
			Item:   int(d.Item),
			Kind:   d.Kind,
			Level:  d.Level,
			Served: int64(d.Served),
			MinOK:  int64(d.MinOK),
			Detail: d.Detail,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// ReadTrace parses a JSONL trace back into its scenario and recorded
// divergence summary (at, node, kind — the fields replay verification
// compares).
func ReadTrace(r io.Reader) (Scenario, []Divergence, error) {
	sc := Scenario{}
	var divs []Divergence
	seenScenario := false
	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for scan.Scan() {
		lineNo++
		raw := scan.Bytes()
		if len(raw) == 0 {
			continue
		}
		var line traceLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return sc, nil, fmt.Errorf("oracle: trace line %d: %w", lineNo, err)
		}
		switch line.Type {
		case traceScenario:
			if seenScenario {
				return sc, nil, fmt.Errorf("oracle: trace line %d: duplicate scenario", lineNo)
			}
			if line.Scenario == nil {
				return sc, nil, fmt.Errorf("oracle: trace line %d: scenario line without payload", lineNo)
			}
			sc = *line.Scenario
			seenScenario = true
		case traceDivergence:
			divs = append(divs, Divergence{
				At:     time.Duration(line.AtMS) * time.Millisecond,
				Node:   line.Node,
				Item:   data.ItemID(line.Item),
				Kind:   line.Kind,
				Level:  line.Level,
				Served: data.Version(line.Served),
				MinOK:  data.Version(line.MinOK),
				Detail: line.Detail,
			})
		default:
			return sc, nil, fmt.Errorf("oracle: trace line %d: unknown type %q", lineNo, line.Type)
		}
	}
	if err := scan.Err(); err != nil {
		return sc, nil, err
	}
	if !seenScenario {
		return sc, nil, fmt.Errorf("oracle: trace has no scenario line")
	}
	return sc, divs, nil
}

// Replay reruns a trace's scenario and verifies it reproduces the
// recorded divergences: same count, and every field a trace line records
// equal per line (the time at the trace's millisecond resolution). It
// returns the fresh report.
func Replay(sc Scenario, recorded []Divergence) (*Report, error) {
	rep, err := Run(sc)
	if err != nil {
		return nil, err
	}
	if len(rep.Divergences) != len(recorded) {
		return rep, fmt.Errorf("oracle: replay produced %d divergences, trace recorded %d",
			len(rep.Divergences), len(recorded))
	}
	for i, got := range rep.Divergences {
		want := recorded[i]
		got.At, want.At = got.At.Truncate(time.Millisecond), want.At.Truncate(time.Millisecond)
		if got != want {
			return rep, fmt.Errorf("oracle: replay divergence %d = (%s), trace recorded (%s)", i, got, want)
		}
	}
	return rep, nil
}
