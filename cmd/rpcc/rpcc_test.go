package main

import (
	"bytes"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/manetlab/rpcc/internal/experiment"
	"github.com/manetlab/rpcc/internal/faults"
)

// parseScenario parses args against the full scenario flag set on the
// Table 1 defaults.
func parseScenario(t *testing.T, args ...string) experiment.Config {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	scenario := scenarioFlags(fs, experiment.DefaultConfig(experiment.StrategyRPCCSC, 1))
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, err := scenario()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestScenarioFlagDefaultsAreTable1: with no flags the scenario is the
// Table 1 configuration itself — no flag default drifts from
// experiment.DefaultConfig.
func TestScenarioFlagDefaultsAreTable1(t *testing.T) {
	if got, want := parseScenario(t), experiment.DefaultConfig(experiment.StrategyRPCCSC, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("flagless scenario\n got %+v\nwant %+v", got, want)
	}
}

// TestScenarioFaultsDemo: -faults demo is the demonstration campaign at
// -peers, and the checked-in demo.json is the same campaign at 50 peers.
func TestScenarioFaultsDemo(t *testing.T) {
	if got := parseScenario(t, "-faults", "demo", "-peers", "30").Faults; !reflect.DeepEqual(got, faults.Demo(30)) {
		t.Errorf("-faults demo -peers 30 = %+v, want faults.Demo(30)", got)
	}
	file := parseScenario(t, "-faults", "../../internal/faults/testdata/demo.json")
	if demo := parseScenario(t, "-faults", "demo"); !reflect.DeepEqual(file, demo) {
		t.Errorf("-faults demo.json\n got %+v\nwant %+v", file, demo)
	}
}

// TestUnknownSubcommand: an unknown subcommand is a usage error (exit 2)
// whose message lists all seven subcommands.
func TestUnknownSubcommand(t *testing.T) {
	var stderr bytes.Buffer
	if code := dispatch([]string{"chaos"}, &stderr); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	for _, name := range []string{"run", "scale", "figures", "conform", "wire", "view", "lint"} {
		if !strings.Contains(stderr.String(), "\n  "+name+" ") {
			t.Errorf("usage does not list %q:\n%s", name, stderr.String())
		}
	}
}
