package experiment

import (
	"slices"
	"testing"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/workload"
)

// warmPerItem is the placement warmCaches batches: the same draws, each
// item placed on its own as soon as it is drawn.
func warmPerItem(t *testing.T, w *World) [][]data.ItemID {
	cfg := w.Config
	rng := w.K.Stream("experiment.warm")
	domains := make([][]data.ItemID, cfg.NPeers)
	place := func(host int, item data.ItemID) {
		if err := w.Warm(host, item); err != nil {
			t.Fatal(err)
		}
		domains[host] = append(domains[host], item)
	}
	if cfg.Popularity == workload.PopularitySingle {
		for host := 1; host < cfg.NPeers; host++ {
			place(host, 0)
		}
		return domains
	}
	drawn := make([]int32, cfg.NPeers)
	for host := 0; host < cfg.NPeers; host++ {
		drawn[host] = int32(host + 1)
		for seen := 1; seen <= cfg.CacheNum && seen < cfg.NPeers; {
			item := rng.Intn(cfg.NPeers)
			if drawn[item] == int32(host+1) {
				continue
			}
			drawn[item] = int32(host + 1)
			seen++
			place(host, data.ItemID(item))
		}
	}
	return domains
}

// TestWarmCachesMatchesPerItemPlacement: the batched warm placement
// leaves every world exactly as placing each drawn item on its own does —
// same domains, same store contents and fetch times, same roles, same
// stream state — for RPCC under every cache policy, for the baselines,
// and in single-item mode.
func TestWarmCachesMatchesPerItemPlacement(t *testing.T) {
	type variant struct {
		name  string
		tweak func(*Config)
	}
	var variants []variant
	for _, kind := range cache.AllPolicyKinds() {
		variants = append(variants, variant{"rpcc-sc/" + string(kind), func(c *Config) { c.CachePolicy = kind }})
	}
	variants = append(variants,
		variant{"push", func(c *Config) { c.Strategy = StrategyPush }},
		variant{"pull/cache3", func(c *Config) { c.Strategy = StrategyPull; c.CacheNum = 3 }},
		variant{"rpcc-sc/single", func(c *Config) { c.Popularity = workload.PopularitySingle }})
	for _, v := range variants {
		cfg := shortConfig(StrategyRPCCSC)
		cfg.NPeers = 40
		v.tweak(&cfg)
		batch, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := batch.warmCaches()
		if err != nil {
			t.Fatal(err)
		}
		want := warmPerItem(t, ref)
		for host := range want {
			if !slices.Equal(got[host], want[host]) {
				t.Fatalf("%s: host %d domain %v, per-item %v", v.name, host, got[host], want[host])
			}
			sb, sr := batch.Stores[host], ref.Stores[host]
			if !slices.Equal(sb.Items(), sr.Items()) {
				t.Fatalf("%s: host %d stores %v, per-item %v", v.name, host, sb.Items(), sr.Items())
			}
			for _, id := range sr.Items() {
				cb, _ := sb.Peek(id)
				cr, _ := sr.Peek(id)
				tb, _ := sb.StoredAt(id)
				tr, _ := sr.StoredAt(id)
				if cb != cr || tb != tr {
					t.Fatalf("%s: host %d item %v: %+v at %v, per-item %+v at %v", v.name, host, id, cb, tb, cr, tr)
				}
				if batch.Engine != nil && batch.Engine.Role(host, id) != core.RoleCache {
					t.Fatalf("%s: host %d item %v: role %v", v.name, host, id, batch.Engine.Role(host, id))
				}
			}
		}
		if a, b := batch.K.Stream("experiment.warm").Int63(), ref.K.Stream("experiment.warm").Int63(); a != b {
			t.Fatalf("%s: warm stream left at another state", v.name)
		}
	}
}
