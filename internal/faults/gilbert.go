package faults

import (
	"fmt"
	"math/rand"
)

// GilbertElliott is the two-state correlated loss model, implementing
// netsim.LossModel. Real MANET links lose packets in bursts — fades,
// collisions, interference episodes — not as independent coin flips; the
// model captures that with a hidden Good/Bad Markov state.
type GilbertElliott struct {
	p   GilbertParams
	rng *rand.Rand
	bad bool
}

// NewGilbertElliott builds the model drawing from rng — give it a
// dedicated kernel stream (the plane uses "faults.gilbert") so enabling
// it perturbs no other stream.
func NewGilbertElliott(p GilbertParams, rng *rand.Rand) (*GilbertElliott, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("faults: gilbert model needs an RNG")
	}
	return &GilbertElliott{p: p, rng: rng}, nil
}

// Lost advances the chain one reception and reports whether the frame
// drops. Exactly two draws happen per call regardless of state, so runs
// differing only in parameters consume the stream identically.
func (g *GilbertElliott) Lost() bool {
	u := g.rng.Float64()
	if g.bad {
		if u < g.p.PBadToGood {
			g.bad = false
		}
	} else {
		if u < g.p.PGoodToBad {
			g.bad = true
		}
	}
	loss := g.p.LossGood
	if g.bad {
		loss = g.p.LossBad
	}
	return g.rng.Float64() < loss
}
