package telemetry

import (
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestHubKeepsNoProtocolCount keeps every count with one owner. The hub
// exports only the registry getters the layers register their
// instruments with, the network hook, the traffic attachment, Finish and
// Snapshot: a per-event method (QueryIssued, RoleTransition, ...) would
// be a second copy of a count a layer keeps, or a count the hub owns on a
// layer's behalf. The package must not import internal/consistency
// either, so the protocol's vocabulary (levels, violation classes) stays
// with the layers that count in it.
func TestHubKeepsNoProtocolCount(t *testing.T) {
	want := []string{"AttachTraffic", "Counter", "Finish", "Histogram", "Snapshot", "Tracer"}
	var got []string
	typ := reflect.TypeOf((*Hub)(nil))
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("*Hub exports %v, want exactly %v: a layer's count is published by that layer (Finish) or registered by it (Counter, Histogram)", got, want)
	}

	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	const banned = "github.com/manetlab/rpcc/internal/consistency"
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == banned {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), banned)
			}
		}
	}
}
