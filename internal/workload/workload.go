// Package workload drives the simulation's demand: each mobile host
// generates an independent stream of updates to its own source data and of
// query requests for other hosts' items, both with exponentially
// distributed intervals (paper §5: I_Update mean 2 minutes, I_Query mean
// 20 seconds). Item popularity for queries is uniform by default with an
// optional Zipf mode for skewed-demand experiments.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/telemetry"
)

// QueryFunc is invoked when a host issues a query for an item.
type QueryFunc func(k *sim.Kernel, host int, item data.ItemID)

// UpdateFunc is invoked when a host updates its own source data.
type UpdateFunc func(k *sim.Kernel, host int)

// Popularity selects which item a host queries.
type Popularity int

// Popularity models. Values start at 1 so the zero value is invalid.
const (
	PopularityInvalid Popularity = iota
	// PopularityUniform picks uniformly among all items except the
	// querying host's own (the paper's setup).
	PopularityUniform
	// PopularityZipf skews demand toward low-numbered items with
	// exponent ~1 (used by the skewed-demand ablation).
	PopularityZipf
	// PopularitySingle directs every query at item 0 — the Fig 9 scenario
	// where one randomly chosen source's item is cached by all peers.
	PopularitySingle
	// PopularityCached picks uniformly among a fixed per-host item set
	// (the host's placed cache contents) supplied via Config.Domain. This
	// matches the paper's model, where placement is an assumed substrate
	// and queries exercise the consistency protocol on cached items.
	PopularityCached
)

// Hotspot is a scheduled popularity spike: during [Start, Start+Duration)
// every query targets Item with probability Weight instead of drawing
// from the base popularity model — the flash-crowd pattern where a data
// item suddenly dominates demand (breaking news, a popular update).
// Outside the window demand is exactly the base model.
type Hotspot struct {
	Start    time.Duration
	Duration time.Duration
	Item     data.ItemID
	// Weight in (0, 1] is the probability an in-window query is
	// redirected to Item.
	Weight float64
}

// Config parameterises the generators.
type Config struct {
	Hosts           int
	MeanQueryEvery  time.Duration // I_Query
	MeanUpdateEvery time.Duration // I_Update
	Popularity      Popularity
	// Domain returns the items host may query; required for (and only
	// consulted by) PopularityCached. Hosts with an empty domain issue no
	// queries.
	Domain func(host int) []data.ItemID
	// Hotspots are scheduled flash-crowd popularity spikes layered over
	// the base popularity model. Empty means none — and, crucially, no
	// extra random draws, so configurations without hotspots reproduce
	// the exact event sequences they always have.
	Hotspots []Hotspot
	// DiurnalPeriod, when positive, modulates query demand sinusoidally
	// with this period (one "day"): each scheduled query survives a
	// thinning draw with probability between DiurnalMin (trough) and 1
	// (peak). Zero disables modulation and adds no draws.
	DiurnalPeriod time.Duration
	// DiurnalMin in [0, 1] is the trough's query-acceptance probability.
	DiurnalMin float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Hosts <= 0 {
		return fmt.Errorf("workload: hosts %d must be > 0", c.Hosts)
	}
	if c.MeanQueryEvery <= 0 {
		return fmt.Errorf("workload: mean query interval %v must be > 0", c.MeanQueryEvery)
	}
	if c.MeanUpdateEvery <= 0 {
		return fmt.Errorf("workload: mean update interval %v must be > 0", c.MeanUpdateEvery)
	}
	switch c.Popularity {
	case PopularityUniform, PopularitySingle:
	case PopularityZipf:
		// With one host the only drawable id is the host's own: the
		// old rejection loop span forever. Two hosts is the minimum
		// for any cross-host demand.
		if c.Hosts < 2 {
			return fmt.Errorf("workload: PopularityZipf requires at least 2 hosts, got %d", c.Hosts)
		}
	case PopularityCached:
		if c.Domain == nil {
			return fmt.Errorf("workload: PopularityCached requires a Domain function")
		}
	default:
		return fmt.Errorf("workload: invalid popularity %d", c.Popularity)
	}
	for i, h := range c.Hotspots {
		if h.Item < 0 {
			return fmt.Errorf("workload: hotspot %d has negative item %v", i, h.Item)
		}
		if h.Start < 0 || h.Duration <= 0 {
			return fmt.Errorf("workload: hotspot %d has bad window [%v, +%v)", i, h.Start, h.Duration)
		}
		if h.Weight <= 0 || h.Weight > 1 {
			return fmt.Errorf("workload: hotspot %d weight %g outside (0, 1]", i, h.Weight)
		}
	}
	if c.DiurnalPeriod < 0 {
		return fmt.Errorf("workload: negative diurnal period %v", c.DiurnalPeriod)
	}
	if c.DiurnalPeriod > 0 && (c.DiurnalMin < 0 || c.DiurnalMin > 1) {
		return fmt.Errorf("workload: diurnal minimum %g outside [0, 1]", c.DiurnalMin)
	}
	return nil
}

// Generator schedules the query and update streams on a kernel.
type Generator struct {
	cfg        Config
	rng        *rand.Rand
	zipf       *rand.Zipf
	onQuery    QueryFunc
	onUpdate   UpdateFunc
	queries    uint64
	updates    uint64
	suppressed uint64 // scheduled ticks whose picked item was the host's own
	thinned    uint64 // scheduled ticks removed by diurnal modulation

	suppressedCtr *telemetry.Counter
}

// NewGenerator builds a generator; Start attaches it to a kernel.
func NewGenerator(cfg Config, onQuery QueryFunc, onUpdate UpdateFunc) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if onQuery == nil || onUpdate == nil {
		return nil, fmt.Errorf("workload: nil callback")
	}
	return &Generator{cfg: cfg, onQuery: onQuery, onUpdate: onUpdate}, nil
}

// AttachTelemetry registers the generator's counters on hub. Call before
// Start; a nil hub is a no-op (the handles tolerate it).
func (g *Generator) AttachTelemetry(hub *telemetry.Hub) {
	g.suppressedCtr = hub.Counter("rpcc_workload_suppressed_total",
		"Scheduled queries suppressed because the picked item was the querying host's own source data.")
}

// Start schedules every host's first events on k. Call once.
func (g *Generator) Start(k *sim.Kernel) {
	g.rng = k.Stream("workload")
	if g.cfg.Popularity == PopularityZipf {
		// s=1.1, v=1 over [0, Hosts-2]: one fewer rank than hosts, so
		// pickItem can remap around the querying host's own id instead
		// of rejection-sampling (which never terminates when the only
		// in-range id IS the host). NewZipf needs s > 1.
		g.zipf = rand.NewZipf(k.Stream("workload.zipf"), 1.1, 1, uint64(g.cfg.Hosts-2))
	}
	// Each host's two streams are records from one array that re-arm
	// themselves, so neither set-up nor a tick allocates per host.
	ticks := make([]hostTicks, g.cfg.Hosts)
	for host := range ticks {
		t := &ticks[host]
		t.query, t.update = queryTimer{g, host}, updateTimer{g, host}
		// Deterministic uniform stagger for the first event of each
		// stream, then exponential gaps.
		k.AfterTimer(g.uniform(g.cfg.MeanQueryEvery), "workload.query", &t.query)
		k.AfterTimer(g.uniform(g.cfg.MeanUpdateEvery), "workload.update", &t.update)
	}
}

// hostTicks is one host's pair of demand stream records.
type hostTicks struct {
	query  queryTimer
	update updateTimer
}

// queryTimer is a host's query stream: it issues the tick's query, then
// re-arms itself an exponential gap later.
type queryTimer struct {
	g    *Generator
	host int
}

func (t *queryTimer) Fire(k *sim.Kernel) {
	t.g.queryTick(k, t.host)
	k.AfterTimer(t.g.exp(t.g.cfg.MeanQueryEvery), "workload.query", t)
}

// updateTimer is a host's update stream, re-arming like queryTimer.
type updateTimer struct {
	g    *Generator
	host int
}

func (t *updateTimer) Fire(k *sim.Kernel) {
	t.g.updates++
	t.g.onUpdate(k, t.host)
	k.AfterTimer(t.g.exp(t.g.cfg.MeanUpdateEvery), "workload.update", t)
}

func (g *Generator) uniform(mean time.Duration) time.Duration {
	return time.Duration(g.rng.Int63n(int64(mean)))
}

func (g *Generator) exp(mean time.Duration) time.Duration {
	d := time.Duration(g.rng.ExpFloat64() * float64(mean))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

func (g *Generator) queryTick(k *sim.Kernel, host int) {
	// Diurnal thinning first: a tick the day's trough removes never
	// picks an item (and consumes exactly one draw, only when the
	// modulation is configured).
	if g.cfg.DiurnalPeriod > 0 && g.rng.Float64() >= g.diurnalLevel(k.Now()) {
		g.thinned++
	} else if item, ok := g.pickItem(k.Now(), host); ok {
		if int(item) == host {
			// A host never queries its own item (it reads the master
			// copy locally; in particular Fig 9's source host issues no
			// queries). The demand was scheduled, though — count it, or
			// Counts() and telemetry silently disagree with the
			// configured query rate.
			g.suppressed++
			g.suppressedCtr.Inc()
		} else {
			g.queries++
			g.onQuery(k, host, item)
		}
	}
}

// diurnalLevel is the query-acceptance probability at now: a sinusoid
// with period DiurnalPeriod oscillating between DiurnalMin and 1,
// starting at the midpoint and rising (peak at a quarter period).
func (g *Generator) diurnalLevel(now time.Duration) float64 {
	phase := float64(now%g.cfg.DiurnalPeriod) / float64(g.cfg.DiurnalPeriod)
	min := g.cfg.DiurnalMin
	return min + (1-min)*0.5*(1+math.Sin(2*math.Pi*phase))
}

// pickItem selects the item host would query at now. It may return the
// host's own item (PopularityCached domains and hotspots can contain it);
// queryTick suppresses — and counts — those picks.
func (g *Generator) pickItem(now time.Duration, host int) (data.ItemID, bool) {
	if item, ok := g.hotspotItem(now); ok {
		return item, true
	}
	switch g.cfg.Popularity {
	case PopularitySingle:
		return 0, true
	case PopularityCached:
		domain := g.cfg.Domain(host)
		if len(domain) == 0 {
			return 0, false
		}
		return domain[g.rng.Intn(len(domain))], true
	case PopularityZipf:
		// Ranks run over [0, Hosts-2]; remap around the host's own id
		// exactly like the uniform path. Bounded — the old rejection
		// loop span forever when the only in-range id equalled host.
		id := int(g.zipf.Uint64())
		if id >= host {
			id++
		}
		return data.ItemID(id), true
	default: // PopularityUniform
		id := g.rng.Intn(g.cfg.Hosts - 1)
		if id >= host {
			id++
		}
		return data.ItemID(id), true
	}
}

// hotspotItem redirects a query into an active flash-crowd window. Each
// active window gets one weighted draw, in declaration order; the first
// success wins. No hotspots (the default) means no draws at all, so the
// base RNG sequence is untouched.
func (g *Generator) hotspotItem(now time.Duration) (data.ItemID, bool) {
	for _, h := range g.cfg.Hotspots {
		if now >= h.Start && now < h.Start+h.Duration && g.rng.Float64() < h.Weight {
			return h.Item, true
		}
	}
	return 0, false
}

// Counts returns the number of queries and updates issued so far.
func (g *Generator) Counts() (queries, updates uint64) { return g.queries, g.updates }

// Suppressed returns how many scheduled queries were dropped because the
// picked item was the querying host's own (also exported as the
// rpcc_workload_suppressed_total counter).
func (g *Generator) Suppressed() uint64 { return g.suppressed }

// Thinned returns how many scheduled queries the diurnal modulation
// removed.
func (g *Generator) Thinned() uint64 { return g.thinned }
