package protocol

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/manetlab/rpcc/internal/data"
)

func TestMarshalRoundTripAllKinds(t *testing.T) {
	for k := Kind(1); int(k) < NumKinds; k++ {
		m := Message{
			Kind:    k,
			Item:    7,
			Origin:  13,
			Version: 42,
			Seq:     99,
		}
		if k.carriesContent() {
			m.Copy = data.Copy{ID: 7, Version: 42, Value: data.ValueFor(7, 42), WrittenAt: 3 * time.Minute}
		}
		buf, err := Marshal(m)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got.Kind != m.Kind || got.Item != m.Item || got.Origin != m.Origin ||
			got.Version != m.Version || got.Seq != m.Seq || got.Copy != m.Copy {
			t.Fatalf("%v round trip: %+v != %+v", k, got, m)
		}
	}
}

func TestMarshalRoundTripFullFields(t *testing.T) {
	m := Message{
		Kind:    KindDataReply,
		Item:    3,
		Origin:  21,
		Version: 5,
		Seq:     77,
		Miss:    true,
		Path:    []int{0, 4, 9, 21},
		Copy:    data.Copy{ID: 3, Version: 5, Value: data.ValueFor(3, 5), WrittenAt: time.Hour},
	}
	buf, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Miss != m.Miss {
		t.Errorf("flags: %+v", got)
	}
	if len(got.Path) != len(m.Path) {
		t.Fatalf("path: %v", got.Path)
	}
	for i := range m.Path {
		if got.Path[i] != m.Path[i] {
			t.Fatalf("path[%d] = %d", i, got.Path[i])
		}
	}
	if got.Copy != m.Copy {
		t.Errorf("copy: %+v != %+v", got.Copy, m.Copy)
	}
}

func TestMarshalRejectsInvalidKind(t *testing.T) {
	if _, err := Marshal(Message{}); err == nil {
		t.Fatal("zero-kind message marshalled")
	}
}

// retiredPosMessage encodes a POLL the way the retired position flag
// (bit 0x01) once laid it out: the flag set and two little-endian
// float64 coordinates after the path.
func retiredPosMessage(t testing.TB) []byte {
	t.Helper()
	buf, err := Marshal(Message{Kind: KindPoll, Item: 1, Origin: 2, Version: 3, Seq: 4})
	if err != nil {
		t.Fatal(err)
	}
	buf[3] |= 1 << 0
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(120.5))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(-3.25))
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x00},                                   // wrong magic
		{wireMagic, 99},                          // wrong version
		{wireMagic},                              // truncated
		{wireMagic, wireVersion, byte(KindPoll)}, // truncated after kind
		retiredPosMessage(t),                     // reserved flag bit 0x01
	}
	for i, buf := range cases {
		if _, err := Unmarshal(buf); err == nil {
			t.Errorf("case %d: garbage decoded", i)
		}
	}
}

// TestUnmarshalRejectsRetiredPosFlag: a message with the retired position
// flag is refused as an unknown flag, not decoded with its 16 coordinate
// bytes silently dropped; the same bytes with the flag cleared are a
// plain POLL plus trailing garbage.
func TestUnmarshalRejectsRetiredPosFlag(t *testing.T) {
	buf := retiredPosMessage(t)
	_, err := Unmarshal(buf)
	if err == nil || !strings.Contains(err.Error(), "unknown flag bits 0x1") {
		t.Fatalf("retired pos flag: err = %v, want an unknown-flag error", err)
	}
	buf[3] &^= 1 << 0
	if _, err := Unmarshal(buf); err == nil || !strings.Contains(err.Error(), "16 trailing bytes") {
		t.Fatalf("flag cleared: err = %v, want 16 trailing bytes", err)
	}
	// A valid v1 unicast header (no flags, from 1, to 2, ttl 0, seq 0 as
	// zigzag varints) in front of the same payload.
	header := []byte{frameMagic, frameVersion, 0, 2, 4, 0, 0}
	if _, err := UnmarshalFrame(append(header, retiredPosMessage(t)...)); err == nil {
		t.Fatal("frame carrying the retired pos flag accepted")
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	buf, err := Marshal(Message{Kind: KindPoll, Item: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(append(buf, 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestUnmarshalCapsHostileLengths(t *testing.T) {
	// A legitimate prefix with an absurd path length must not allocate.
	m := Message{Kind: KindRREQ, Item: 1, Origin: 0}
	buf, _ := Marshal(m)
	// Rebuild with a forged path length: simplest is to marshal a valid
	// long path and check the cap directly instead.
	long := Message{Kind: KindRREQ, Item: 1, Path: make([]int, maxWirePath+1)}
	lbuf, err := Marshal(long)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(lbuf); err == nil {
		t.Fatal("over-cap path accepted")
	}
	_ = buf
}

func TestRoundTripProperty(t *testing.T) {
	f := func(kind uint8, item uint8, origin uint8, version uint16, seq uint32, miss bool, hops []uint8) bool {
		k := Kind(int(kind)%(NumKinds-1)) + 1
		m := Message{
			Kind:    k,
			Item:    data.ItemID(item),
			Origin:  int(origin),
			Version: data.Version(version),
			Seq:     uint64(seq),
			Miss:    miss,
		}
		if len(hops) > maxWirePath {
			hops = hops[:maxWirePath]
		}
		for _, h := range hops {
			m.Path = append(m.Path, int(h))
		}
		if k.carriesContent() {
			m.Copy = data.Copy{ID: m.Item, Version: m.Version, Value: data.ValueFor(m.Item, m.Version)}
		}
		buf, err := Marshal(m)
		if err != nil {
			return false
		}
		got, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		if got.Kind != m.Kind || got.Item != m.Item || got.Origin != m.Origin ||
			got.Version != m.Version || got.Seq != m.Seq || got.Miss != m.Miss ||
			got.Copy != m.Copy || len(got.Path) != len(m.Path) {
			return false
		}
		// The re-encode is byte-identical: the encoding is canonical.
		buf2, err := Marshal(got)
		if err != nil {
			return false
		}
		if len(buf2) != len(buf) {
			return false
		}
		for i := range buf {
			if buf[i] != buf2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
