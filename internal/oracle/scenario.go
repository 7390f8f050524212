package oracle

import (
	"fmt"
	"sort"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/experiment"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/pushpull"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/workload"
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
	if len(sc.Crashes) > 0 && sc.Strategy != "rpcc" {
		return fmt.Errorf("oracle: crash events require rpcc")
	}
	if sc.CheckReach && !sc.SingleSource {
		return fmt.Errorf("oracle: CheckReach requires SingleSource")
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
	// Host i owns item i, so hosts and items share the range [0, Nodes).
	outside := func(ids ...int) bool {
		for _, id := range ids {
			if id < 0 || id >= sc.Nodes {
				return true
			}
		}
		return false
	}
	for _, p := range sc.Pollers {
		if p.PeriodMS <= 0 {
			return fmt.Errorf("oracle: poller period %dms must be positive", p.PeriodMS)
		}
		if _, err := parseLevel(p.Level); err != nil {
			return err
		}
		if outside(p.Host, p.Item) {
			return fmt.Errorf("oracle: poller (host %d, item %d) outside %d nodes", p.Host, p.Item, sc.Nodes)
		}
	}
	for _, q := range sc.Queries {
		if _, err := parseLevel(q.Level); err != nil {
			return err
		}
		if outside(q.Host, q.Item) {
			return fmt.Errorf("oracle: query (host %d, item %d) outside %d nodes", q.Host, q.Item, sc.Nodes)
		}
	}
	for _, c := range sc.Commits {
		if outside(c.Host) {
			return fmt.Errorf("oracle: commit host %d outside %d nodes", c.Host, sc.Nodes)
		}
	}
	for _, c := range sc.Crashes {
		if outside(c.Host) {
			return fmt.Errorf("oracle: crash host %d outside %d nodes", c.Host, sc.Nodes)
		}
	}
	for _, lst := range [][]Placement{sc.Warm, sc.Relays} {
		for _, p := range lst {
			if outside(p.Host, p.Item) {
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

// config maps the scenario onto the batch runs' Config: RPCC serves its
// strong queries as rpcc-sc, a single source is the single-item
// popularity, and every knob the scenario leaves at zero keeps Table 1's
// value. The horizon is the run length and churn is off; the nodes sit
// on the line Run pins them to.
func (sc Scenario) config() experiment.Config {
	kind := experiment.StrategyKind(sc.Strategy)
	if sc.Strategy == "rpcc" {
		kind = experiment.StrategyRPCCSC
	}
	cfg := experiment.DefaultConfig(kind, sc.Seed)
	cfg.NPeers = sc.Nodes
	cfg.SimTime = time.Duration(sc.HorizonMS) * time.Millisecond
	cfg.ChurnDisabled = true
	cfg.CachePolicy = cache.PolicyKind(sc.Policy)
	if sc.CacheCap > 0 {
		cfg.CacheNum = sc.CacheCap
	}
	if sc.InvTTL > 0 {
		cfg.InvalidationTTL = sc.InvTTL
	}
	if sc.TTRMS > 0 {
		cfg.TTR = time.Duration(sc.TTRMS) * time.Millisecond
	}
	if sc.SingleSource {
		cfg.Popularity = workload.PopularitySingle
	}
	return cfg
}

// Run executes the scenario to its horizon and returns the oracle's
// report. Same scenario, same report — byte for byte.
//
// The stack is experiment.Build's, over a 200 m chain: with the default
// 250 m radio range only adjacent nodes hear each other, so hop counts
// equal node distance and TTL scenarios are exact. The reference model
// is this run's judge; the chassis gets a ledger-less auditor so no
// answer is judged twice.
func Run(sc Scenario) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	mutant, err := parseMutant(sc.Mutant)
	if err != nil {
		return nil, err
	}
	line := make([]geo.Point, sc.Nodes)
	for i := range line {
		line[i] = geo.Point{X: float64(i) * 200}
	}
	w, err := experiment.Build(sc.config(), experiment.WithLayout(line),
		experiment.WithCoreConfig(func(c *core.Config) { c.Mutant = mutant }))
	if err != nil {
		return nil, err
	}
	w.Chassis.Auditor = new(consistency.Auditor)

	slack := 2 * time.Second
	if sc.SlackMS > 0 {
		slack = time.Duration(sc.SlackMS) * time.Millisecond
	}
	specTTL := sc.InvTTL
	if specTTL == 0 && sc.Strategy == "rpcc" {
		specTTL = core.DefaultConfig().InvalidationTTL
	}
	spec := Spec{
		Envelopes:  envelopes(sc),
		Slack:      slack,
		Inflate:    time.Duration(sc.InflateMS) * time.Millisecond,
		InvTTL:     specTTL,
		CheckReach: sc.CheckReach,
	}
	if sc.CheckReach {
		for nd := 1; nd < sc.Nodes && nd <= specTTL; nd++ {
			spec.ExpectReach = append(spec.ExpectReach, nd)
		}
	}
	model, err := NewModel(w.Reg, spec)
	if err != nil {
		return nil, err
	}
	w.Chassis.SetAnswerObserver(model.ObserveAnswer)
	w.Net.SetTracer(model.ObserveDelivery)
	pert, err := perturber(sc.Rules)
	if err != nil {
		return nil, err
	}
	if pert != nil {
		w.Net.SetPerturber(pert)
	}

	// Pre-start placement: warm copies, then seed relays (which require
	// the copy to be present).
	for _, p := range sc.Warm {
		if err := w.Warm(p.Host, data.ItemID(p.Item)); err != nil {
			return nil, err
		}
	}
	for _, p := range sc.Relays {
		if err := w.Engine.SeedRelay(w.K, p.Host, data.ItemID(p.Item)); err != nil {
			return nil, err
		}
	}
	if err := w.Start(); err != nil {
		return nil, err
	}

	// Schedule the workload. Every event goes through k.At so ordering
	// is the kernel's deterministic tie-break, not slice order.
	k, strat := w.K, w.Strategy
	for _, c := range sc.Commits {
		host := c.Host
		if _, err := k.At(time.Duration(c.AtMS)*time.Millisecond, "oracle.commit", func(kk *sim.Kernel) {
			strat.OnUpdate(kk, host)
		}); err != nil {
			return nil, err
		}
	}
	for _, cr := range sc.Crashes {
		host := cr.Host
		if _, err := k.At(time.Duration(cr.AtMS)*time.Millisecond, "oracle.crash", func(kk *sim.Kernel) {
			if err := w.Engine.Crash(kk, host); err == nil {
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

	w.RunUntil(w.Config.SimTime)
	ch := w.Chassis
	return &Report{
		Scenario:    sc,
		Divergences: model.Finish(),
		Issued:      ch.Issued(),
		Answered:    ch.Answered(),
		Failed:      ch.Failed(),
	}, nil
}
