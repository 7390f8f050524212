// Package energy models each host's battery. The paper's relay-peer
// selection uses the coefficient of energy CE = PER_t / E_MAX (Eq 4.2.7):
// the current energy level normalised by the maximum. A linear drain
// model — a fixed cost per transmission, per reception, and per second of
// idle listening — is enough to exercise that code path; absolute joule
// figures are irrelevant to the protocol comparison.
package energy

import (
	"fmt"
	"time"
)

// Config parameterises the battery model.
type Config struct {
	Capacity float64 // E_MAX, abstract energy units, > 0
	TxCost   float64 // units per transmitted message, >= 0
	RxCost   float64 // units per received message, >= 0
	IdleRate float64 // units per simulated second, >= 0
}

// DefaultConfig returns a battery model in which a host transmitting
// continuously at the paper's default query rate survives well past the
// five-hour simulation, so energy differentiates relay candidates without
// killing nodes mid-run.
func DefaultConfig() Config {
	return Config{
		Capacity: 1_000_000,
		TxCost:   2,
		RxCost:   1,
		IdleRate: 0.5,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("energy: capacity %g must be > 0", c.Capacity)
	}
	if c.TxCost < 0 || c.RxCost < 0 || c.IdleRate < 0 {
		return fmt.Errorf("energy: negative cost (tx=%g rx=%g idle=%g)", c.TxCost, c.RxCost, c.IdleRate)
	}
	return nil
}

// Battery tracks one host's remaining energy. Idle drain is applied lazily
// on each query/charge using the last-settled timestamp, so no periodic
// events are needed. A Battery has a single owner: the goroutine running
// its host's kernel, which is also where every reader (netsim, the relay
// selection, the end-of-run report) runs. It is not safe for concurrent
// use.
type Battery struct {
	cfg       Config
	remaining float64
	settledAt time.Duration
	tx, rx    uint64
}

// NewBattery returns a full battery settled at t=0.
func NewBattery(cfg Config) (*Battery, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Battery{cfg: cfg, remaining: cfg.Capacity}, nil
}

// NewBatteries returns n full batteries settled at t=0, carved from one
// array: a world's batteries are one allocation, not one per host.
func NewBatteries(cfg Config, n int) ([]*Battery, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("energy: negative battery count %d", n)
	}
	store := make([]Battery, n)
	bs := make([]*Battery, n)
	for i := range store {
		store[i] = Battery{cfg: cfg, remaining: cfg.Capacity}
		bs[i] = &store[i]
	}
	return bs, nil
}

// settle applies idle drain up to now.
func (b *Battery) settle(now time.Duration) {
	if now <= b.settledAt {
		return
	}
	idle := b.cfg.IdleRate * (now - b.settledAt).Seconds()
	b.remaining -= idle
	if b.remaining < 0 {
		b.remaining = 0
	}
	b.settledAt = now
}

// SpendTx charges one transmission at virtual time now.
func (b *Battery) SpendTx(now time.Duration) {
	b.settle(now)
	b.remaining -= b.cfg.TxCost
	if b.remaining < 0 {
		b.remaining = 0
	}
	b.tx++
}

// SpendRx charges one reception at virtual time now.
func (b *Battery) SpendRx(now time.Duration) {
	b.settle(now)
	b.remaining -= b.cfg.RxCost
	if b.remaining < 0 {
		b.remaining = 0
	}
	b.rx++
}

// Level returns the remaining energy at time now, after idle drain.
func (b *Battery) Level(now time.Duration) float64 {
	b.settle(now)
	return b.remaining
}

// CE returns the coefficient of energy at time now: PER_t / E_MAX
// (Eq 4.2.7), always in [0, 1].
func (b *Battery) CE(now time.Duration) float64 {
	return b.Level(now) / b.cfg.Capacity
}

// Depleted reports whether the battery is empty at time now.
func (b *Battery) Depleted(now time.Duration) bool { return b.Level(now) <= 0 }

// Counters returns the lifetime transmit and receive counts.
func (b *Battery) Counters() (tx, rx uint64) {
	return b.tx, b.rx
}
