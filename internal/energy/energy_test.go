package energy

import (
	"testing"
	"testing/quick"
	"time"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default", DefaultConfig(), true},
		{"zero capacity", Config{TxCost: 1, RxCost: 1}, false},
		{"negative tx", Config{Capacity: 10, TxCost: -1}, false},
		{"negative idle", Config{Capacity: 10, IdleRate: -1}, false},
		{"free radio is fine", Config{Capacity: 10}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestNewBatteryFull(t *testing.T) {
	b, err := NewBattery(Config{Capacity: 100, TxCost: 1, RxCost: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Level(0); got != 100 {
		t.Errorf("Level(0) = %g, want 100", got)
	}
	if got := b.CE(0); got != 1 {
		t.Errorf("CE(0) = %g, want 1", got)
	}
}

// TestNewBatteriesAreIndependent pins the carved batteries: n full,
// separate batteries from one array, in a fixed number of allocations.
func TestNewBatteriesAreIndependent(t *testing.T) {
	cfg := Config{Capacity: 100, TxCost: 1, RxCost: 1}
	bs, err := NewBatteries(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	bs[1].SpendTx(0)
	for i, want := range []float64{100, 99, 100} {
		if got := bs[i].Level(0); got != want {
			t.Errorf("battery %d level %g, want %g", i, got, want)
		}
	}
	if _, err := NewBatteries(Config{}, 3); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewBatteries(cfg, -1); err == nil {
		t.Error("negative count accepted")
	}
	if allocs := testing.AllocsPerRun(5, func() { NewBatteries(cfg, 1000) }); allocs > 2 {
		t.Errorf("NewBatteries(1000) makes %.0f allocations, want <= 2", allocs)
	}
}

func TestSpendTxRx(t *testing.T) {
	b, _ := NewBattery(Config{Capacity: 100, TxCost: 3, RxCost: 2})
	b.SpendTx(0)
	b.SpendRx(0)
	if got := b.Level(0); got != 95 {
		t.Errorf("Level = %g, want 95", got)
	}
	tx, rx := b.Counters()
	if tx != 1 || rx != 1 {
		t.Errorf("Counters = %d,%d, want 1,1", tx, rx)
	}
}

func TestIdleDrain(t *testing.T) {
	b, _ := NewBattery(Config{Capacity: 100, IdleRate: 2})
	if got := b.Level(10 * time.Second); got != 80 {
		t.Errorf("Level(10s) = %g, want 80", got)
	}
	// Idle drain is settled, not recomputed from zero.
	if got := b.Level(20 * time.Second); got != 60 {
		t.Errorf("Level(20s) = %g, want 60", got)
	}
}

func TestLevelNeverNegative(t *testing.T) {
	b, _ := NewBattery(Config{Capacity: 5, TxCost: 10})
	b.SpendTx(0)
	if got := b.Level(0); got != 0 {
		t.Errorf("Level = %g, want clamped 0", got)
	}
	if !b.Depleted(0) {
		t.Error("Depleted = false on empty battery")
	}
	if got := b.CE(0); got != 0 {
		t.Errorf("CE = %g, want 0", got)
	}
}

func TestBackwardTimeQueryIsSafe(t *testing.T) {
	b, _ := NewBattery(Config{Capacity: 100, IdleRate: 1})
	l1 := b.Level(50 * time.Second)
	l2 := b.Level(10 * time.Second) // earlier probe
	if l2 != l1 {
		t.Errorf("backward query changed level: %g -> %g", l1, l2)
	}
}

func TestCEBoundsProperty(t *testing.T) {
	f := func(txs uint8, seconds uint16) bool {
		b, err := NewBattery(DefaultConfig())
		if err != nil {
			return false
		}
		for i := 0; i < int(txs); i++ {
			b.SpendTx(0)
		}
		ce := b.CE(time.Duration(seconds) * time.Second)
		return ce >= 0 && ce <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCEMonotoneNonIncreasingProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		b, err := NewBattery(DefaultConfig())
		if err != nil {
			return false
		}
		prev := b.CE(0)
		now := time.Duration(0)
		for _, s := range steps {
			now += time.Duration(s) * time.Second
			if s%2 == 0 {
				b.SpendTx(now)
			} else {
				b.SpendRx(now)
			}
			ce := b.CE(now)
			if ce > prev {
				return false
			}
			prev = ce
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfigSurvivesFiveHours(t *testing.T) {
	// The Table 1 run lasts 5 simulated hours; a node that answers a
	// query every 20s (one rx + one tx) must not die.
	b, _ := NewBattery(DefaultConfig())
	now := time.Duration(0)
	for now < 5*time.Hour {
		now += 20 * time.Second
		b.SpendRx(now)
		b.SpendTx(now)
	}
	if b.Depleted(now) {
		t.Fatal("default battery depleted before end of a Table 1 run")
	}
}
