package consistency

import (
	"strings"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/data"
)

func newAuditorT(t *testing.T) (*Auditor, *data.Registry) {
	t.Helper()
	reg, err := data.NewRegistry(5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAuditor(reg, 4*time.Minute, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return a, reg
}

// check audits ans and returns the violation class alone.
func check(a *Auditor, ans Answer) (Violation, error) {
	v, _, err := a.CheckStale(ans)
	return v, err
}

func committed(t *testing.T, reg *data.Registry, id data.ItemID, v data.Version) data.Copy {
	t.Helper()
	return data.Copy{ID: id, Version: v, Value: data.ValueFor(id, v)}
}

func TestLevelString(t *testing.T) {
	if LevelStrong.String() != "SC" || LevelDelta.String() != "DC" || LevelWeak.String() != "WC" {
		t.Error("level strings wrong")
	}
	if !strings.Contains(LevelInvalid.String(), "0") {
		t.Errorf("invalid level String = %q", LevelInvalid.String())
	}
	if LevelInvalid.Valid() || Level(9).Valid() {
		t.Error("invalid level reported valid")
	}
}

func TestNewAuditorValidation(t *testing.T) {
	reg, _ := data.NewRegistry(1)
	if _, err := NewAuditor(reg, -time.Minute, 0); err == nil {
		t.Error("negative delta accepted")
	}
	if _, err := NewAuditor(reg, time.Minute, -1); err == nil {
		t.Error("negative slack accepted")
	}
}

func TestFreshAnswerPasses(t *testing.T) {
	a, reg := newAuditorT(t)
	ans := Answer{
		Item: 2, Level: LevelStrong,
		AnsweredAt: time.Minute + time.Second,
		Served:     committed(t, reg, 2, 0),
	}
	v, err := check(a, ans)
	if err != nil {
		t.Fatal(err)
	}
	if v != ViolationNone {
		t.Errorf("violation = %v, want none", v)
	}
	if a.Answers() != 1 || a.TotalViolations() != 0 {
		t.Errorf("answers=%d violations=%d", a.Answers(), a.TotalViolations())
	}
}

func TestStrongViolationOnStaleAnswer(t *testing.T) {
	a, reg := newAuditorT(t)
	if _, err := reg.Commit(2, time.Minute); err != nil { // v1 @ 1m
		t.Fatal(err)
	}
	ans := Answer{
		Item: 2, Level: LevelStrong,
		AnsweredAt: 10 * time.Minute,
		Served:     committed(t, reg, 2, 0), // v0: superseded 9 minutes ago
	}
	v, err := check(a, ans)
	if err != nil {
		t.Fatal(err)
	}
	if v != ViolationStrong {
		t.Errorf("violation = %v, want strong-stale", v)
	}
	if a.Violations(ViolationStrong) != 1 {
		t.Error("violation not recorded")
	}
}

func TestStrongSlackForgivesInFlight(t *testing.T) {
	a, reg := newAuditorT(t)
	reg.Commit(2, 10*time.Minute) // v1 commits just before the answer lands
	ans := Answer{
		Item: 2, Level: LevelStrong,
		AnsweredAt: 10*time.Minute + 500*time.Millisecond,
		Served:     committed(t, reg, 2, 0), // superseded 0.5s ago < 1s slack
	}
	v, err := check(a, ans)
	if err != nil {
		t.Fatal(err)
	}
	if v != ViolationNone {
		t.Errorf("violation = %v, want none within slack", v)
	}
}

func TestDeltaBound(t *testing.T) {
	a, reg := newAuditorT(t)
	reg.Commit(1, time.Minute) // v1 @ 1m

	within := Answer{
		Item: 1, Level: LevelDelta,
		AnsweredAt: 4 * time.Minute, // v0 stale by 3m < Δ=4m
		Served:     committed(t, reg, 1, 0),
	}
	if v, _ := check(a, within); v != ViolationNone {
		t.Errorf("staleness 3m with Δ=4m flagged: %v", v)
	}

	beyond := Answer{
		Item: 1, Level: LevelDelta,
		AnsweredAt: 10 * time.Minute, // v0 stale by 9m > Δ=4m
		Served:     committed(t, reg, 1, 0),
	}
	if v, _ := check(a, beyond); v != ViolationDelta {
		t.Errorf("staleness 9m with Δ=4m not flagged: %v", v)
	}
}

func TestWeakAcceptsAnyCommittedVersion(t *testing.T) {
	a, reg := newAuditorT(t)
	reg.Commit(1, time.Minute)
	reg.Commit(1, 2*time.Minute)
	ans := Answer{
		Item: 1, Level: LevelWeak,
		AnsweredAt: time.Hour,
		Served:     committed(t, reg, 1, 0), // ancient but committed
	}
	if v, _ := check(a, ans); v != ViolationNone {
		t.Errorf("weak answer flagged: %v", v)
	}
}

func TestTornValueAlwaysViolates(t *testing.T) {
	a, _ := newAuditorT(t)
	ans := Answer{
		Item: 1, Level: LevelWeak,
		Served: data.Copy{ID: 1, Version: 0, Value: "fabricated"},
	}
	if v, _ := check(a, ans); v != ViolationTorn {
		t.Errorf("torn value = %v, want torn", v)
	}
	wrongItem := Answer{
		Item: 1, Level: LevelWeak,
		Served: data.Copy{ID: 2, Version: 0, Value: data.ValueFor(2, 0)},
	}
	if v, _ := check(a, wrongItem); v != ViolationTorn {
		t.Errorf("cross-item value = %v, want torn", v)
	}
}

func TestFutureVersionViolates(t *testing.T) {
	a, reg := newAuditorT(t)
	ans := Answer{
		Item: 1, Level: LevelWeak,
		AnsweredAt: time.Minute,
		Served:     committed(t, reg, 1, 7), // v7 never committed
	}
	// Note: a future version's payload matches ValueFor, so it passes the
	// torn check but must be caught by the version bound.
	if v, _ := check(a, ans); v != ViolationFuture {
		t.Errorf("future version = %v, want future", v)
	}
}

func TestInvalidLevelRejected(t *testing.T) {
	a, reg := newAuditorT(t)
	ans := Answer{Item: 1, Served: committed(t, reg, 1, 0)}
	if _, err := check(a, ans); err == nil {
		t.Fatal("zero level accepted")
	}
}

func TestUnknownItemRejected(t *testing.T) {
	a, _ := newAuditorT(t)
	ans := Answer{Item: 99, Level: LevelWeak}
	if _, err := check(a, ans); err == nil {
		t.Fatal("unknown item accepted")
	}
}

func TestStalenessComputation(t *testing.T) {
	a, reg := newAuditorT(t)
	reg.Commit(3, 2*time.Minute) // v1 @ 2m
	reg.Commit(3, 5*time.Minute) // v2 @ 5m

	tests := []struct {
		name string
		ans  Answer
		want time.Duration
	}{
		{"current version", Answer{Item: 3, Level: LevelWeak, AnsweredAt: 6 * time.Minute, Served: committed(t, reg, 3, 2)}, 0},
		{"one behind", Answer{Item: 3, Level: LevelWeak, AnsweredAt: 6 * time.Minute, Served: committed(t, reg, 3, 1)}, time.Minute},
		{"two behind", Answer{Item: 3, Level: LevelWeak, AnsweredAt: 6 * time.Minute, Served: committed(t, reg, 3, 0)}, 4 * time.Minute},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, got, err := a.CheckStale(tt.ans)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("Staleness = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMeanAndMaxStaleness(t *testing.T) {
	a, reg := newAuditorT(t)
	reg.Commit(1, time.Minute)
	check(a, Answer{Item: 1, Level: LevelWeak, AnsweredAt: time.Minute, Served: committed(t, reg, 1, 1)})     // 0 stale
	check(a, Answer{Item: 1, Level: LevelWeak, AnsweredAt: 3 * time.Minute, Served: committed(t, reg, 1, 0)}) // 2m stale
	if got := a.MaxStaleness(); got != 2*time.Minute {
		t.Errorf("MaxStaleness = %v", got)
	}
	if got := a.MeanStaleness(); got != time.Minute {
		t.Errorf("MeanStaleness = %v", got)
	}
}

// A judge without a ledger (nil registry: a wire daemon's chassis)
// decides the torn rule only and never invents a staleness sample.
func TestLedgerlessAuditorAbstains(t *testing.T) {
	a, err := NewAuditor(nil, time.Minute, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// v7 of an item no ledger vouches for: future-version to a judge with
	// a ledger, undecidable without one.
	v, stale, err := a.CheckStale(Answer{Item: 1, Level: LevelStrong, AnsweredAt: time.Minute,
		Served: data.Copy{ID: 1, Version: 7, Value: data.ValueFor(1, 7)}})
	if err != nil || v != ViolationNone || stale != Unknown {
		t.Errorf("ledger-less verdict = %v stale %v err %v, want none / Unknown", v, stale, err)
	}
	if v, _ := check(a, Answer{Item: 1, Level: LevelWeak, Served: data.Copy{ID: 1, Value: "fabricated"}}); v != ViolationTorn {
		t.Errorf("ledger-less judge missed a torn copy: %v", v)
	}
	if a.Answers() != 2 || a.TotalViolations() != 1 || a.MeanStaleness() != 0 || a.MaxStaleness() != 0 {
		t.Errorf("answers=%d violations=%d mean=%v max=%v", a.Answers(), a.TotalViolations(), a.MeanStaleness(), a.MaxStaleness())
	}
}

func TestViolationString(t *testing.T) {
	for v, want := range map[Violation]string{
		ViolationNone:   "none",
		ViolationTorn:   "torn-value",
		ViolationFuture: "future-version",
		ViolationStrong: "strong-stale",
		ViolationDelta:  "delta-exceeded",
	} {
		if got := v.String(); got != want {
			t.Errorf("Violation(%d).String = %q, want %q", v, got, want)
		}
	}
}
