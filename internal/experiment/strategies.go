package experiment

import (
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/pushpull"
	"github.com/manetlab/rpcc/internal/workload"
)

// pushConfigFrom maps a scenario onto the simple push baseline's knobs.
func pushConfigFrom(cfg Config) pushpull.PushConfig {
	c := pushpull.DefaultPushConfig()
	c.TTN = cfg.TTN
	c.BroadcastTTL = cfg.BroadcastTTL
	if cfg.Popularity == workload.PopularitySingle {
		c.ActiveSource = func(host int) bool { return host == 0 }
	}
	if c.QueryPatience < 3*cfg.TTN {
		c.QueryPatience = 3 * cfg.TTN
	}
	return c
}

// pullConfigFrom maps a scenario onto the simple pull baseline's knobs.
func pullConfigFrom(cfg Config) pushpull.PullConfig {
	c := pushpull.DefaultPullConfig()
	c.BroadcastTTL = cfg.BroadcastTTL
	return c
}

func newPush(cfg pushpull.PushConfig, ch *node.Chassis) (Strategy, error) {
	return pushpull.NewPush(cfg, ch)
}

func newPull(cfg pushpull.PullConfig, ch *node.Chassis) (Strategy, error) {
	return pushpull.NewPull(cfg, ch)
}
