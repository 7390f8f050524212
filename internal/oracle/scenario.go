package oracle

import (
	"fmt"
	"sort"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/pushpull"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
)

// Placement warms one (host, item) pair before the run starts.
type Placement struct {
	Host int `json:"host"`
	Item int `json:"item"`
}

// CommitEvent commits a new version at Host's master at AtMS.
type CommitEvent struct {
	AtMS int64 `json:"at_ms"`
	Host int   `json:"host"`
}

// CrashEvent crashes Host at AtMS (RPCC only: cache and protocol state
// are lost; the oracle resets the host's monotone watermarks).
type CrashEvent struct {
	AtMS int64 `json:"at_ms"`
	Host int   `json:"host"`
}

// QueryEvent issues one query.
type QueryEvent struct {
	AtMS  int64  `json:"at_ms"`
	Host  int    `json:"host"`
	Item  int    `json:"item"`
	Level string `json:"level"` // "SC" | "DC" | "WC"
}

// Poller issues periodic queries: at StartMS, StartMS+PeriodMS, ... up
// to (but excluding) StopMS (0 = the horizon). A compact alternative to
// enumerating hundreds of QueryEvents.
type Poller struct {
	Host     int    `json:"host"`
	Item     int    `json:"item"`
	Level    string `json:"level"`
	StartMS  int64  `json:"start_ms"`
	PeriodMS int64  `json:"period_ms"`
	StopMS   int64  `json:"stop_ms,omitempty"`
}

// Scenario is a fully declarative conformance run: topology, strategy,
// workload, schedule perturbations, oracle tolerances and an optional
// protocol mutant. Being plain data, a scenario serialises into a trace
// and replays byte-for-byte (same seed, same kernel event order).
type Scenario struct {
	Name     string `json:"name"`
	Seed     int64  `json:"seed"`
	Nodes    int    `json:"nodes"`
	Strategy string `json:"strategy"` // rpcc | pull | push
	// HorizonMS is the simulated run length.
	HorizonMS int64 `json:"horizon_ms"`
	// InvTTL overrides the invalidation flood TTL (0 = strategy default).
	InvTTL int `json:"inv_ttl,omitempty"`
	// TTRMS overrides RPCC's TTR (0 = default). Must stay <= TTN.
	TTRMS int64 `json:"ttr_ms,omitempty"`
	// SingleSource silences every source host except 0 (Fig 9 setup).
	SingleSource bool `json:"single_source,omitempty"`
	// Mutant names a core.Mutant to inject ("" = clean run; RPCC only).
	Mutant string `json:"mutant,omitempty"`
	// SlackMS overrides the oracle slack (0 = 2s default).
	SlackMS int64 `json:"slack_ms,omitempty"`
	// InflateMS widens every staleness envelope; the fuzzer sets it to
	// its maximum injected delay so delayed fresh evidence cannot
	// produce a false positive. Scripted gates leave it 0.
	InflateMS int64 `json:"inflate_ms,omitempty"`
	// CheckReach enables the flood-underreach check (sound only without
	// drop rules or crashes).
	CheckReach bool `json:"check_reach,omitempty"`
	// CacheCap overrides the per-node cache capacity (0 = the default
	// 10). Small caps force evictions, exercising the replacement policy
	// and the eviction → relay-CANCEL teardown under the oracle's eye.
	CacheCap int `json:"cache_cap,omitempty"`
	// Policy selects the cache replacement policy ("" = lru; "lfu",
	// "ttl", "utility"). Consistency guarantees must hold under any.
	Policy string `json:"policy,omitempty"`

	Warm    []Placement   `json:"warm,omitempty"`
	Relays  []Placement   `json:"relays,omitempty"`
	Commits []CommitEvent `json:"commits,omitempty"`
	Crashes []CrashEvent  `json:"crashes,omitempty"`
	Queries []QueryEvent  `json:"queries,omitempty"`
	Pollers []Poller      `json:"pollers,omitempty"`
	Rules   []Rule        `json:"rules,omitempty"`
}

// Report is the outcome of one scenario run.
type Report struct {
	Scenario    Scenario
	Divergences []Divergence
	Issued      uint64
	Answered    uint64
	Failed      uint64
}

// strategyRunner is the slice of experiment.Strategy the oracle drives.
type strategyRunner interface {
	Start(k *sim.Kernel) error
	OnQuery(k *sim.Kernel, host int, item data.ItemID, level consistency.Level)
	OnUpdate(k *sim.Kernel, host int)
}

func parseLevel(s string) (consistency.Level, error) {
	switch s {
	case "SC":
		return consistency.LevelStrong, nil
	case "DC":
		return consistency.LevelDelta, nil
	case "WC":
		return consistency.LevelWeak, nil
	}
	return 0, fmt.Errorf("oracle: unknown consistency level %q", s)
}

// mutantByName maps core.Mutant String() names back to values.
var mutantByName = map[string]core.Mutant{
	core.MutantStaleUpdate.String():      core.MutantStaleUpdate,
	core.MutantIgnoreTTR.String():        core.MutantIgnoreTTR,
	core.MutantAckAOffByOne.String():     core.MutantAckAOffByOne,
	core.MutantFloodTTLPlusOne.String():  core.MutantFloodTTLPlusOne,
	core.MutantFloodTTLMinusOne.String(): core.MutantFloodTTLMinusOne,
	core.MutantTTPDouble.String():        core.MutantTTPDouble,
	core.MutantStoreRegression.String():  core.MutantStoreRegression,
}

func parseMutant(s string) (core.Mutant, error) {
	if s == "" {
		return core.MutantNone, nil
	}
	if m, ok := mutantByName[s]; ok {
		return m, nil
	}
	return 0, fmt.Errorf("oracle: unknown mutant %q", s)
}

// Validate rejects malformed scenarios before any state is built.
func (sc Scenario) Validate() error {
	if sc.Nodes < 2 {
		return fmt.Errorf("oracle: scenario needs at least 2 nodes, got %d", sc.Nodes)
	}
	if sc.HorizonMS <= 0 {
		return fmt.Errorf("oracle: non-positive horizon %dms", sc.HorizonMS)
	}
	switch sc.Strategy {
	case "rpcc", "pull", "push":
	default:
		return fmt.Errorf("oracle: unknown strategy %q", sc.Strategy)
	}
	if sc.Mutant != "" && sc.Strategy != "rpcc" {
		return fmt.Errorf("oracle: mutants apply only to rpcc, not %q", sc.Strategy)
	}
	if len(sc.Relays) > 0 && sc.Strategy != "rpcc" {
		return fmt.Errorf("oracle: relay seeding applies only to rpcc")
	}
	if _, err := parseMutant(sc.Mutant); err != nil {
		return err
	}
	if sc.CacheCap < 0 {
		return fmt.Errorf("oracle: negative cache capacity %d", sc.CacheCap)
	}
	if !cache.PolicyKind(sc.Policy).Valid() {
		return fmt.Errorf("oracle: unknown cache policy %q", sc.Policy)
	}
	if _, err := compileRules(sc.Rules); err != nil {
		return err
	}
	for _, p := range sc.Pollers {
		if p.PeriodMS <= 0 {
			return fmt.Errorf("oracle: poller period %dms must be positive", p.PeriodMS)
		}
		if _, err := parseLevel(p.Level); err != nil {
			return err
		}
	}
	for _, q := range sc.Queries {
		if _, err := parseLevel(q.Level); err != nil {
			return err
		}
	}
	for _, lst := range [][]Placement{sc.Warm, sc.Relays} {
		for _, p := range lst {
			if p.Host < 0 || p.Host >= sc.Nodes || p.Item < 0 || p.Item >= sc.Nodes {
				return fmt.Errorf("oracle: placement (host %d, item %d) outside %d nodes", p.Host, p.Item, sc.Nodes)
			}
		}
	}
	return nil
}

// envelopes returns the per-level staleness bounds the strategy
// guarantees; see DESIGN.md §11 for the derivations. Levels absent from
// the map are checked only against the universal committed-value rule.
func envelopes(sc Scenario) map[consistency.Level]time.Duration {
	env := make(map[consistency.Level]time.Duration)
	switch sc.Strategy {
	case "rpcc":
		cc := core.DefaultConfig()
		ttr := cc.TTR
		if sc.TTRMS > 0 {
			ttr = time.Duration(sc.TTRMS) * time.Millisecond
		}
		// SC answers come from an authority validated within TTR; DC
		// additionally tolerates one TTP window of local reuse.
		env[consistency.LevelStrong] = ttr
		env[consistency.LevelDelta] = cc.TTP + ttr
	case "pull":
		// Every answer is validated against the source per query; only
		// flight time (covered by slack) separates it from the master.
		env[consistency.LevelStrong] = 0
		env[consistency.LevelDelta] = 0
	case "push":
		// Answers validate against the latest IR, at most one broadcast
		// interval old.
		ttn := pushpull.DefaultPushConfig().TTN
		env[consistency.LevelStrong] = ttn
		env[consistency.LevelDelta] = ttn
	}
	return env
}

// buildStrategy constructs the requested strategy over the chassis.
func buildStrategy(sc Scenario, ch *node.Chassis) (strategyRunner, error) {
	single := func(host int) bool { return host == 0 }
	switch sc.Strategy {
	case "rpcc":
		cc := core.DefaultConfig()
		m, err := parseMutant(sc.Mutant)
		if err != nil {
			return nil, err
		}
		cc.Mutant = m
		if sc.InvTTL > 0 {
			cc.InvalidationTTL = sc.InvTTL
		}
		if sc.TTRMS > 0 {
			cc.TTR = time.Duration(sc.TTRMS) * time.Millisecond
		}
		if sc.SingleSource {
			cc.ActiveSource = single
		}
		eng, err := core.New(cc, ch, core.Telemetry{})
		if err != nil {
			return nil, err
		}
		return eng, nil
	case "pull":
		p, err := pushpull.NewPull(pushpull.DefaultPullConfig(), ch)
		if err != nil {
			return nil, err
		}
		return p, nil
	case "push":
		pc := pushpull.DefaultPushConfig()
		if sc.SingleSource {
			pc.ActiveSource = single
		}
		p, err := pushpull.NewPush(pc, ch)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	return nil, fmt.Errorf("oracle: unknown strategy %q", sc.Strategy)
}

// lineSource pins nodes on a 200m chain: with the default 250m radio
// range only adjacent nodes hear each other, so hop counts equal node
// distance and TTL scenarios are exact.
type lineSource struct{ pts []geo.Point }

func (s *lineSource) Len() int { return len(s.pts) }
func (s *lineSource) PositionsAt(_ time.Duration, dst []geo.Point) []geo.Point {
	if cap(dst) < len(s.pts) {
		dst = make([]geo.Point, len(s.pts))
	}
	dst = dst[:len(s.pts)]
	copy(dst, s.pts)
	return dst
}

// Run executes the scenario to its horizon and returns the oracle's
// report. Same scenario, same report — byte for byte.
func Run(sc Scenario) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel(sim.WithSeed(sc.Seed))
	pts := make([]geo.Point, sc.Nodes)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * 200}
	}
	net, err := netsim.New(netsim.DefaultConfig(), k, &lineSource{pts: pts}, nil, nil, stats.NewTraffic())
	if err != nil {
		return nil, err
	}
	reg, err := data.NewRegistry(sc.Nodes)
	if err != nil {
		return nil, err
	}
	cap := sc.CacheCap
	if cap == 0 {
		cap = 10
	}
	ccfg := core.DefaultConfig()
	pol, err := cache.NewPolicy(cache.PolicyKind(sc.Policy), cache.PolicyParams{TTL: ccfg.TTP})
	if err != nil {
		return nil, err
	}
	stores, err := cache.NewStores(sc.Nodes, cap, pol)
	if err != nil {
		return nil, err
	}
	// The model below is this run's judge; the chassis gets the
	// ledger-less auditor so no answer is judged twice.
	aud, err := consistency.NewAuditor(nil, 0, 0)
	if err != nil {
		return nil, err
	}
	ch, err := node.NewChassis(node.DefaultConfig(), net, reg, stores, stats.NewLatency(), aud)
	if err != nil {
		return nil, err
	}
	strat, err := buildStrategy(sc, ch)
	if err != nil {
		return nil, err
	}

	slack := 2 * time.Second
	if sc.SlackMS > 0 {
		slack = time.Duration(sc.SlackMS) * time.Millisecond
	}
	specTTL := sc.InvTTL
	if specTTL == 0 && sc.Strategy == "rpcc" {
		specTTL = ccfg.InvalidationTTL
	}
	spec := Spec{
		Envelopes:  envelopes(sc),
		Slack:      slack,
		Inflate:    time.Duration(sc.InflateMS) * time.Millisecond,
		InvTTL:     specTTL,
		CheckReach: sc.CheckReach,
	}
	if sc.CheckReach {
		if !sc.SingleSource {
			return nil, fmt.Errorf("oracle: CheckReach requires SingleSource")
		}
		for nd := 1; nd < sc.Nodes && nd <= specTTL; nd++ {
			spec.ExpectReach = append(spec.ExpectReach, nd)
		}
	}
	model, err := NewModel(reg, spec)
	if err != nil {
		return nil, err
	}
	ch.SetAnswerObserver(model.ObserveAnswer)
	net.SetTracer(model.ObserveDelivery)
	pert, err := perturber(sc.Rules)
	if err != nil {
		return nil, err
	}
	if pert != nil {
		net.SetPerturber(pert)
	}

	// Pre-start placement: warm copies, then seed relays (which require
	// the copy to be present).
	type warmer interface {
		Warm(k *sim.Kernel, host int, c data.Copy)
	}
	for _, p := range sc.Warm {
		m, err := reg.Master(data.ItemID(p.Item))
		if err != nil {
			return nil, err
		}
		if w, ok := strat.(warmer); ok {
			w.Warm(k, p.Host, m.Current())
		} else if err := stores[p.Host].Put(m.Current(), k.Now()); err != nil {
			return nil, err
		}
	}
	eng, isRPCC := strat.(*core.Engine)
	for _, p := range sc.Relays {
		if !isRPCC {
			return nil, fmt.Errorf("oracle: relay seeding requires rpcc")
		}
		if err := eng.SeedRelay(k, p.Host, data.ItemID(p.Item)); err != nil {
			return nil, err
		}
	}

	if err := strat.Start(k); err != nil {
		return nil, err
	}

	// Schedule the workload. Every event goes through k.At so ordering
	// is the kernel's deterministic tie-break, not slice order.
	horizon := time.Duration(sc.HorizonMS) * time.Millisecond
	for _, c := range sc.Commits {
		host := c.Host
		if _, err := k.At(time.Duration(c.AtMS)*time.Millisecond, "oracle.commit", func(kk *sim.Kernel) {
			strat.OnUpdate(kk, host)
		}); err != nil {
			return nil, err
		}
	}
	for _, cr := range sc.Crashes {
		if !isRPCC {
			return nil, fmt.Errorf("oracle: crash events require rpcc")
		}
		host := cr.Host
		if _, err := k.At(time.Duration(cr.AtMS)*time.Millisecond, "oracle.crash", func(kk *sim.Kernel) {
			if err := eng.Crash(kk, host); err == nil {
				model.OnCrash(host)
			}
		}); err != nil {
			return nil, err
		}
	}
	queries := append([]QueryEvent(nil), sc.Queries...)
	for _, p := range sc.Pollers {
		stop := p.StopMS
		if stop <= 0 {
			stop = sc.HorizonMS
		}
		for at := p.StartMS; at < stop; at += p.PeriodMS {
			queries = append(queries, QueryEvent{AtMS: at, Host: p.Host, Item: p.Item, Level: p.Level})
		}
	}
	sort.SliceStable(queries, func(i, j int) bool { return queries[i].AtMS < queries[j].AtMS })
	for _, q := range queries {
		q := q
		lvl, err := parseLevel(q.Level)
		if err != nil {
			return nil, err
		}
		if _, err := k.At(time.Duration(q.AtMS)*time.Millisecond, "oracle.query", func(kk *sim.Kernel) {
			strat.OnQuery(kk, q.Host, data.ItemID(q.Item), lvl)
		}); err != nil {
			return nil, err
		}
	}

	k.RunUntil(horizon)
	return &Report{
		Scenario:    sc,
		Divergences: model.Finish(),
		Issued:      ch.Issued(),
		Answered:    ch.Answered(),
		Failed:      ch.Failed(),
	}, nil
}
