package experiment

import (
	"reflect"
	"testing"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/faults"
)

// TestExperimentCannotReachMutants pins the containment property the
// conformance mutants rely on: no experiment Config field maps onto
// core.Config.Mutant, so every experiment-driven engine runs the clean
// protocol. Only the oracle's gate (which builds core.Config directly)
// may inject a mutant.
//
// Every exported Config field is turned away from its zero value by
// reflection — bools true, numbers and durations non-zero, slices
// non-empty, a valid cache policy — so a knob added later is exercised
// without anyone remembering to list it here. A field of a kind this
// test cannot set fails the test until it is taught how.
func TestExperimentCannotReachMutants(t *testing.T) {
	for _, s := range []StrategyKind{StrategyRPCCSC, StrategyRPCCDC, StrategyRPCCWC, StrategyRPCCHY} {
		cfg := DefaultConfig(s, 1)
		v := reflect.ValueOf(&cfg).Elem()
		for i := 0; i < v.NumField(); i++ {
			f, field := v.Field(i), v.Type().Field(i)
			if !field.IsExported() {
				continue
			}
			switch {
			case field.Name == "Strategy":
				// The loop variable: one of the RPCC kinds.
			case f.Type() == reflect.TypeOf(cache.PolicyKind("")):
				f.Set(reflect.ValueOf(cache.PolicyLFU))
			case f.Type() == reflect.TypeOf(faults.Config{}):
				f.Set(reflect.ValueOf(faults.Demo(cfg.NPeers)))
			case f.Kind() == reflect.Bool:
				f.SetBool(true)
			case f.CanInt():
				f.SetInt(f.Int() + 1)
			case f.Kind() == reflect.Float32 || f.Kind() == reflect.Float64:
				f.SetFloat(f.Float() + 0.25)
			case f.Kind() == reflect.Slice:
				f.Set(reflect.MakeSlice(f.Type(), 1, 1))
			default:
				t.Fatalf("Config.%s has kind %s; teach this test to set it", field.Name, f.Kind())
			}
			if f.IsZero() {
				t.Fatalf("Config.%s is still zero after setting it", field.Name)
			}
		}
		cc := coreConfigFrom(cfg)
		if cc.Mutant != core.MutantNone {
			t.Fatalf("strategy %s: experiment config produced mutant %v", s, cc.Mutant)
		}
	}
}
