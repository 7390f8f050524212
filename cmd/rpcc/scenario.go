package main

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/experiment"
	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/workload"
)

// scenarioFlags registers the named scenario flags — Table 1, the
// workload and the fault campaign; every one when names is empty — on
// fs, each bound to its experiment.Config field with base's value as
// its default. The returned function, called after fs.Parse, yields the
// scenario. A subcommand states its own defaults once, in base.
func scenarioFlags(fs *flag.FlagSet, base experiment.Config, names ...string) func() (experiment.Config, error) {
	cfg := base
	area := base.AreaWidth
	var campaign string
	all := flag.NewFlagSet("scenario", flag.ContinueOnError)
	strategy := (*string)(&cfg.Strategy)
	all.StringVar(strategy, "strategy", *strategy, "pull | push | rpcc-sc | rpcc-dc | rpcc-wc | rpcc-hy")
	all.Int64Var(&cfg.Seed, "seed", cfg.Seed, "root random seed")
	all.IntVar(&cfg.NPeers, "peers", cfg.NPeers, "number of mobile peers (N_Peers)")
	all.Float64Var(&area, "area", area, "square terrain side in metres (T_Area)")
	all.IntVar(&cfg.CacheNum, "cachenum", cfg.CacheNum, "cache entries per host (C_Num)")
	all.Float64Var(&cfg.CommRange, "range", cfg.CommRange, "radio range in metres (C_Range)")
	all.DurationVar(&cfg.SimTime, "simtime", cfg.SimTime, "simulated duration (T_Sim)")
	all.DurationVar(&cfg.UpdateInterval, "update", cfg.UpdateInterval, "mean update interval (I_Update)")
	all.DurationVar(&cfg.QueryInterval, "query", cfg.QueryInterval, "mean query interval (I_Query)")
	all.IntVar(&cfg.BroadcastTTL, "brttl", cfg.BroadcastTTL, "broadcast TTL for push/pull and fallbacks (TTL_BR)")
	all.IntVar(&cfg.InvalidationTTL, "invttl", cfg.InvalidationTTL, "RPCC invalidation TTL")
	all.DurationVar(&cfg.TTN, "ttn", cfg.TTN, "source broadcast interval (TTN_OP)")
	all.DurationVar(&cfg.TTR, "ttr", cfg.TTR, "relay freshness window (TTR_RP)")
	all.DurationVar(&cfg.TTP, "ttp", cfg.TTP, "cache Δ window (TTP_CP)")
	all.DurationVar(&cfg.SwitchInterval, "switch", cfg.SwitchInterval, "mean connected dwell (I_Switch)")
	all.BoolVar(&cfg.ChurnDisabled, "nochurn", cfg.ChurnDisabled, "disable disconnection/reconnection churn")
	all.BoolVar(&cfg.UseDSRRouting, "dsr", cfg.UseDSRRouting, "route unicasts with DSR-style discovery instead of the oracle")
	all.Float64Var(&cfg.LossRate, "loss", cfg.LossRate, "per-reception link loss probability [0,1)")
	policy := (*string)(&cfg.CachePolicy)
	all.StringVar(policy, "policy", *policy, "cache replacement policy: lru | lfu | ttl | utility (empty = lru)")
	popularity := func(p workload.Popularity) func(string) error {
		return func(s string) error {
			on, err := strconv.ParseBool(s)
			if on {
				cfg.Popularity = p
			}
			return err
		}
	}
	all.BoolFunc("single", "Fig 9 scenario: one source, its item cached by all peers", popularity(workload.PopularitySingle))
	all.BoolFunc("zipf", "Zipf-skewed item popularity instead of the cached-domain mix", popularity(workload.PopularityZipf))
	all.Func("hotspot", "flash-crowd hotspot start,duration,item,weight", func(s string) error {
		hs, err := parseHotspot(s)
		cfg.Hotspots = []workload.Hotspot{hs}
		return err
	})
	all.Func("diurnal", "diurnal load modulation period,min-level", func(s string) (err error) {
		cfg.DiurnalPeriod, cfg.DiurnalMin, err = parseDiurnal(s)
		return err
	})
	all.StringVar(&campaign, "faults", "", "fault campaign: a JSON file (the schema wire and rpccd read), or demo for the demonstration campaign at -peers")

	all.VisitAll(func(f *flag.Flag) {
		if len(names) == 0 || slices.Contains(names, f.Name) {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
	return func() (experiment.Config, error) {
		cfg.AreaWidth, cfg.AreaHeight = area, area
		switch campaign {
		case "":
		case "demo":
			cfg.Faults = faults.Demo(cfg.NPeers)
		default:
			fc, err := faults.LoadScript(campaign)
			if err != nil {
				return cfg, err
			}
			if fc.IsZero() {
				return cfg, fmt.Errorf("campaign %s injects and audits nothing", campaign)
			}
			cfg.Faults = *fc
		}
		return cfg, nil
	}
}

// parseHotspot reads a "start,duration,item,weight" flash-crowd window.
func parseHotspot(s string) (workload.Hotspot, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return workload.Hotspot{}, fmt.Errorf("want start,duration,item,weight, got %q", s)
	}
	start, err := time.ParseDuration(strings.TrimSpace(parts[0]))
	if err != nil {
		return workload.Hotspot{}, err
	}
	dur, err := time.ParseDuration(strings.TrimSpace(parts[1]))
	if err != nil {
		return workload.Hotspot{}, err
	}
	item, err := strconv.Atoi(strings.TrimSpace(parts[2]))
	if err != nil {
		return workload.Hotspot{}, err
	}
	weight, err := strconv.ParseFloat(strings.TrimSpace(parts[3]), 64)
	if err != nil {
		return workload.Hotspot{}, err
	}
	return workload.Hotspot{Start: start, Duration: dur, Item: data.ItemID(item), Weight: weight}, nil
}

// parseDiurnal reads a "period,min-level" load modulation pair.
func parseDiurnal(s string) (time.Duration, float64, error) {
	period, min, ok := strings.Cut(s, ",")
	if !ok {
		return 0, 0, fmt.Errorf("want period,min-level, got %q", s)
	}
	p, err := time.ParseDuration(strings.TrimSpace(period))
	if err != nil {
		return 0, 0, err
	}
	m, err := strconv.ParseFloat(strings.TrimSpace(min), 64)
	return p, m, err
}
