package consistency_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/oracle"
	"github.com/manetlab/rpcc/internal/sim"
)

const (
	sec = time.Second
	ns  = time.Nanosecond

	sc = consistency.LevelStrong
	dc = consistency.LevelDelta
	wc = consistency.LevelWeak

	none   = consistency.ViolationNone
	torn   = consistency.ViolationTorn
	future = consistency.ViolationFuture
	strong = consistency.ViolationStrong
	delta  = consistency.ViolationDelta
)

func val(item data.ItemID, v data.Version) data.Copy {
	return data.Copy{ID: item, Version: v, Value: data.ValueFor(item, v)}
}

// v2 is the newest committed copy of the table's item.
var v2 = val(1, 2)

// judgeCase is one row of the judge's specification. Every row is about
// item 1, whose ledger holds v1 committed at 10 s and v2 at 20 s, and
// about node 0. env/slack/inflate are what the substrate is configured
// with; horizon is what its horizon computation must hand Judge (0: the
// level is unbounded, or the bound is forgiven).
type judgeCase struct {
	name   string
	served data.Copy
	level  consistency.Level
	at     time.Duration

	env, slack, inflate time.Duration
	windows             []oracle.LiveWindow
	restarts            []oracle.LiveRestart
	horizon             time.Duration

	// prior, when set, is an earlier answer by the same node (served at
	// priorAt); crashed puts a sim-side crash between the two, as
	// restarts puts a wire-side one.
	prior   *data.Copy
	priorAt time.Duration
	crashed bool

	want     consistency.Violation
	minOK    data.Version
	monotone bool // a monotone-reads regression below minOK
}

// The SC rows use a 5 s envelope + 1 s slack, the DC rows 7 s + 1 s
// slack + 1 s inflate; both put the boundary rows' horizon on v2's
// commit instant, 20 s.
var judgeCases = []judgeCase{
	{name: "torn value", served: data.Copy{ID: 1, Version: 1, Value: "garbage"}, level: wc, at: 15 * sec, want: torn},
	{name: "wrong item", served: val(2, 0), level: wc, at: 15 * sec, want: torn},
	{name: "never committed", served: val(1, 7), level: wc, at: 30 * sec, want: future},
	{name: "committed after the answer", served: val(1, 2), level: wc, at: 12 * sec, slack: sec, want: future},

	{name: "SC one nanosecond inside the bound", served: val(1, 1), level: sc, at: 26*sec - ns,
		env: 5 * sec, slack: sec, horizon: 20*sec - ns, want: none},
	{name: "SC exactly on the bound", served: val(1, 1), level: sc, at: 26 * sec,
		env: 5 * sec, slack: sec, horizon: 20 * sec, want: none},
	{name: "SC one nanosecond past the bound", served: val(1, 1), level: sc, at: 26*sec + ns,
		env: 5 * sec, slack: sec, horizon: 20*sec + ns, want: strong, minOK: 2},
	{name: "DC one nanosecond inside the bound", served: val(1, 1), level: dc, at: 29*sec - ns,
		env: 7 * sec, slack: sec, inflate: sec, horizon: 20*sec - ns, want: none},
	{name: "DC exactly on the bound", served: val(1, 1), level: dc, at: 29 * sec,
		env: 7 * sec, slack: sec, inflate: sec, horizon: 20 * sec, want: none},
	{name: "DC one nanosecond past the bound", served: val(1, 1), level: dc, at: 29*sec + ns,
		env: 7 * sec, slack: sec, inflate: sec, horizon: 20*sec + ns, want: delta, minOK: 2},
	{name: "two versions behind", served: val(1, 0), level: sc, at: 40 * sec,
		env: 5 * sec, slack: sec, horizon: 34 * sec, want: strong, minOK: 2},
	{name: "WC unbounded", served: val(1, 0), level: wc, at: time.Hour, want: none},

	{name: "regression inside an epoch", prior: &v2, priorAt: 30 * sec,
		served: val(1, 1), level: wc, at: 31 * sec, want: none, monotone: true, minOK: 2},
	{name: "regression across an epoch", prior: &v2, priorAt: 30 * sec,
		crashed: true, restarts: []oracle.LiveRestart{{Node: 0, At: 30*sec + 500*time.Millisecond}},
		served: val(1, 1), level: wc, at: 31 * sec, want: none},

	// 6 s of lookback paid out of clear time only: the window
	// [15 s, 30 s) pushes the horizon from 24 s back to 9 s, before v2.
	{name: "adversity window extends the horizon", served: val(1, 1), level: sc, at: 30 * sec,
		env: 5 * sec, slack: sec, windows: []oracle.LiveWindow{{Start: 15 * sec, End: 30 * sec, Node: -1}},
		horizon: 9 * sec, want: none},
	{name: "a window on another node extends nothing", served: val(1, 1), level: sc, at: 30 * sec,
		env: 5 * sec, slack: sec, windows: []oracle.LiveWindow{{Start: 15 * sec, End: 30 * sec, Node: 3}},
		horizon: 24 * sec, want: strong, minOK: 2},
	// The horizon (24 s) has not cleared the restart at 25 s: the node is
	// still warming up, so the bound is forgiven.
	{name: "restart epoch forgives warm-up", served: val(1, 1), level: sc, at: 30 * sec,
		env: 5 * sec, slack: sec, restarts: []oracle.LiveRestart{{Node: 0, At: 25 * sec}},
		horizon: 0, want: none},
}

// simOnly reports whether the simulator's callers can express the row:
// they know no adversity windows and no restart records.
func (c judgeCase) simOnly() bool { return len(c.windows) == 0 && (len(c.restarts) == 0 || c.crashed) }

func (c judgeCase) envelopes() map[consistency.Level]time.Duration {
	if c.level == wc {
		return nil
	}
	return map[consistency.Level]time.Duration{c.level: c.env}
}

// registry builds the rows' ledger as the simulator's ground truth.
func registry(t *testing.T) *data.Registry {
	t.Helper()
	reg, err := data.NewRegistry(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{10 * sec, 20 * sec} {
		if _, err := reg.Commit(1, at); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// wantDivs renders a row's expectation in the oracles' vocabulary.
func (c judgeCase) wantDivs() []string {
	var out []string
	switch c.want {
	case torn:
		out = append(out, oracle.DivTorn)
	case future:
		out = append(out, oracle.DivUncommitted)
	case strong, delta:
		out = append(out, oracle.DivStale)
	}
	if c.monotone {
		out = append(out, oracle.DivMonotone)
	}
	return out
}

func checkDivs(t *testing.T, c judgeCase, divs []oracle.Divergence) {
	t.Helper()
	var got []string
	for _, d := range divs {
		got = append(got, d.Kind)
		if d.MinOK != c.minOK && (d.Kind == oracle.DivStale || d.Kind == oracle.DivMonotone) {
			t.Errorf("%s divergence MinOK = %d, want %d", d.Kind, d.MinOK, c.minOK)
		}
	}
	if !reflect.DeepEqual(got, c.wantDivs()) {
		t.Errorf("divergences = %v, want %v", got, c.wantDivs())
	}
}

// observe feeds answers to a model at their instants, so k.Now() is
// honest; crashAt > 0 puts a crash of node 0 there.
func observe(t *testing.T, model *oracle.Model, answers []oracle.LiveAnswer, crashAt time.Duration) []oracle.Divergence {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(1))
	var end time.Duration
	for _, a := range answers {
		a := a
		if _, err := k.At(a.At, "test.answer", func(kk *sim.Kernel) {
			model.ObserveAnswer(kk, &node.Query{Host: a.Node, Item: a.Item, Level: a.Level}, a.Served)
		}); err != nil {
			t.Fatal(err)
		}
		if a.At > end {
			end = a.At
		}
	}
	if crashAt > 0 {
		if _, err := k.At(crashAt, "test.crash", func(*sim.Kernel) { model.OnCrash(0) }); err != nil {
			t.Fatal(err)
		}
	}
	k.RunUntil(end + time.Millisecond)
	return model.Finish()
}

// TestJudgeTable is the judge's specification: one table, run through
// the rule core itself and through each of its three callers with the
// envelope configured the caller's own way.
func TestJudgeTable(t *testing.T) {
	reg := registry(t)
	master, _ := reg.Master(1)
	commits := []oracle.LiveCommit{{Item: 1, Version: 1, At: 10 * sec}, {Item: 1, Version: 2, At: 20 * sec}}

	for _, c := range judgeCases {
		c := c
		answers := []oracle.LiveAnswer{{Node: 0, Item: 1, Level: c.level, Served: c.served, At: c.at}}
		if c.prior != nil {
			answers = append([]oracle.LiveAnswer{{Node: 0, Item: 1, Level: wc, Served: *c.prior, At: c.priorAt}}, answers...)
		}

		t.Run(c.name+"/Judge", func(t *testing.T) {
			v := consistency.Judge(master, 1, c.level, c.served, c.at, c.horizon, c.slack)
			if v.Kind != c.want || (c.want == strong || c.want == delta) && v.MinOK != c.minOK {
				t.Errorf("Judge = %v minOK %d, want %v minOK %d", v.Kind, v.MinOK, c.want, c.minOK)
			}
			if c.prior == nil {
				return
			}
			var wm consistency.Watermarks
			var epoch int64
			wm.Observe(0, 1, c.prior.Version, epoch)
			if c.crashed {
				epoch++
			}
			floor, regressed := wm.Observe(0, 1, c.served.Version, epoch)
			if regressed != c.monotone || regressed && floor != c.minOK {
				t.Errorf("Observe = (%d, %v), want (%d, %v)", floor, regressed, c.minOK, c.monotone)
			}
		})

		// The auditor knows one bound per level and no watermarks: SC is
		// bounded by its slack alone, DC by delta + slack.
		if c.simOnly() && c.prior == nil {
			t.Run(c.name+"/Auditor", func(t *testing.T) {
				need := c.env + c.slack + c.inflate
				aud, err := consistency.NewAuditor(reg, 0, need)
				if c.level == dc {
					aud, err = consistency.NewAuditor(reg, need, 0)
				}
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := aud.CheckStale(consistency.Answer{Item: 1, Level: c.level, AnsweredAt: c.at, Served: c.served})
				if err != nil || got != c.want {
					t.Errorf("CheckStale = %v (err %v), want %v", got, err, c.want)
				}
			})
		}

		if c.simOnly() {
			t.Run(c.name+"/Model", func(t *testing.T) {
				// The sim judge takes no commit slack: the row's slack only
				// widens the envelope, and every uncommitted row is far
				// enough out not to care.
				model, err := oracle.NewModel(reg, oracle.Spec{Envelopes: c.envelopes(), Slack: c.slack, Inflate: c.inflate})
				if err != nil {
					t.Fatal(err)
				}
				var crashAt time.Duration
				if c.crashed {
					crashAt = c.priorAt + time.Millisecond
				}
				checkDivs(t, c, observe(t, model, answers, crashAt))
			})
		}

		t.Run(c.name+"/JudgeLive", func(t *testing.T) {
			divs, err := oracle.JudgeLive(commits, answers, oracle.LiveSpec{
				Envelopes: c.envelopes(), Slack: c.slack, Inflate: c.inflate,
				Windows: c.windows, Restarts: c.restarts,
			})
			if err != nil {
				t.Fatal(err)
			}
			checkDivs(t, c, divs)
		})
	}
}

// TestModelAndJudgeLiveAreOneFunction feeds the same random ledger and
// answers to the sim oracle and to the live judge (no windows, no
// restarts, no commit slack — the inputs only one of them has) and
// requires identical divergence lists, details included. Times are whole
// milliseconds and the envelopes small, so answers land exactly on a
// bound every few hundred steps.
func TestModelAndJudgeLiveAreOneFunction(t *testing.T) {
	const (
		steps = 2000
		nodes = 3
		items = 3
	)
	rng := rand.New(rand.NewSource(15))
	reg, err := data.NewRegistry(items)
	if err != nil {
		t.Fatal(err)
	}
	envelopes := map[consistency.Level]time.Duration{sc: 40 * time.Millisecond, dc: 150 * time.Millisecond}
	inflate := 10 * time.Millisecond

	var commits []oracle.LiveCommit
	var answers []oracle.LiveAnswer
	var now time.Duration
	for i := 0; i < steps; i++ {
		now += time.Duration(rng.Intn(20)) * time.Millisecond
		item := data.ItemID(rng.Intn(items))
		m, _ := reg.Master(item)
		if rng.Intn(4) == 0 {
			cp, err := reg.Commit(item, now)
			if err != nil {
				t.Fatal(err)
			}
			commits = append(commits, oracle.LiveCommit{Item: item, Version: cp.Version, At: now})
			continue
		}
		// Mostly recent versions, sometimes one not committed yet.
		cur := int(m.Current().Version)
		v := cur + 1 - rng.Intn(4)
		if v < 0 {
			v = 0
		}
		served := val(item, data.Version(v))
		switch rng.Intn(25) {
		case 0:
			served.Value = "garbage"
		case 1:
			served = val((item+1)%items, data.Version(v))
		}
		answers = append(answers, oracle.LiveAnswer{
			Node: rng.Intn(nodes), Item: item, Served: served, At: now,
			Level: []consistency.Level{sc, dc, wc}[rng.Intn(3)],
		})
	}

	model, err := oracle.NewModel(reg, oracle.Spec{Envelopes: envelopes, Inflate: inflate})
	if err != nil {
		t.Fatal(err)
	}
	simDivs := observe(t, model, answers, 0)
	liveDivs, err := oracle.JudgeLive(commits, answers, oracle.LiveSpec{Envelopes: envelopes, Inflate: inflate})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, d := range simDivs {
		kinds[d.Kind]++
	}
	for _, k := range []string{oracle.DivTorn, oracle.DivUncommitted, oracle.DivStale, oracle.DivMonotone} {
		if kinds[k] == 0 {
			t.Errorf("vacuous: no %s divergence among %d answers", k, len(answers))
		}
	}
	if !reflect.DeepEqual(simDivs, liveDivs) {
		t.Fatalf("model found %d divergences, JudgeLive %d; first difference at %d",
			len(simDivs), len(liveDivs), firstDiff(simDivs, liveDivs))
	}
}

func firstDiff(a, b []oracle.Divergence) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
