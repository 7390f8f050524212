package main

import (
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/manetlab/rpcc/internal/data"
)

// TestPeerTableForms: the inline list and the file give the same table;
// the file skips blank lines and # comments, and both trim spaces around
// ids and addresses.
func TestPeerTableForms(t *testing.T) {
	want := map[int]string{0: "127.0.0.1:9000", 1: "127.0.0.1:9001", 2: "10.0.0.3:9000"}
	inline, err := peerTable("0=127.0.0.1:9000, 1 = 127.0.0.1:9001,2=10.0.0.3:9000", "")
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(inline, want) {
		t.Errorf("inline table = %v, want %v", inline, want)
	}
	file := filepath.Join(t.TempDir(), "peers.txt")
	body := "# cluster of three\n0=127.0.0.1:9000\n\n  # node 1 below\n 1 = 127.0.0.1:9001 \n2=10.0.0.3:9000\n"
	if err := os.WriteFile(file, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := peerTable("", file)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(fromFile, want) {
		t.Errorf("file table = %v, want %v", fromFile, want)
	}
}

// TestPeerTableRejects: every malformed table is refused with an error
// naming what is wrong.
func TestPeerTableRejects(t *testing.T) {
	file := filepath.Join(t.TempDir(), "peers.txt")
	if err := os.WriteFile(file, []byte("0=127.0.0.1:9000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, inline, file, want string
	}{
		{"neither source", "", "", "exactly one of -peers or -peers-file"},
		{"both sources", "0=127.0.0.1:9000", file, "exactly one of -peers or -peers-file"},
		{"missing =", "0=127.0.0.1:9000,127.0.0.1:9001", "", "want id=host:port"},
		{"bad id", "0=127.0.0.1:9000,one=127.0.0.1:9001", "", "bad id"},
		{"duplicate id", "0=127.0.0.1:9000,0=127.0.0.1:9001", "", "duplicate id 0"},
		{"missing file", "", filepath.Join(t.TempDir(), "absent.txt"), "no such file"},
	} {
		table, err := peerTable(tc.inline, tc.file)
		if err == nil {
			t.Errorf("%s: accepted as %v", tc.name, table)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestParsePlacement: no -items falls back to the cyclic placement; an
// explicit list is taken as given, spaces trimmed; a non-numeric item is
// refused.
func TestParsePlacement(t *testing.T) {
	got, err := parsePlacement("", 3, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []data.ItemID{4, 0}; !slices.Equal(got, want) {
		t.Errorf("cyclic placement = %v, want %v", got, want)
	}
	got, err = parsePlacement("2, 0,4", 1, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []data.ItemID{2, 0, 4}; !slices.Equal(got, want) {
		t.Errorf("explicit placement = %v, want %v", got, want)
	}
	if got, err := parsePlacement("2,x", 1, 5, 2); err == nil {
		t.Errorf("bad item accepted as %v", got)
	} else if !strings.Contains(err.Error(), `placement item "x"`) {
		t.Errorf("error %q does not name the bad item", err)
	}
}
