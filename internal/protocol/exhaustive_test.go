package protocol

import (
	"bytes"
	"strings"
	"testing"

	"github.com/manetlab/rpcc/internal/data"
)

// TestEveryKindOnTheWire is the exhaustiveness guard for the codec side:
// adding a Kind without wiring it through naming, sizing, the message
// codec, and the frame envelope must fail here, not silently fall off
// the wire. (The stats.Traffic accounting side of the guard lives in
// internal/stats, which owns the per-kind arrays.)
func TestEveryKindOnTheWire(t *testing.T) {
	if NumKinds != len(kindNames) {
		t.Fatalf("NumKinds=%d but kindNames has %d entries — name the new kind", NumKinds, len(kindNames))
	}
	for k := Kind(1); int(k) < NumKinds; k++ {
		if !k.Valid() {
			t.Fatalf("kind %d invalid inside the declared range", k)
		}
		if name := k.String(); name == "" || strings.HasPrefix(name, "Kind(") {
			t.Errorf("kind %d has no wire name", k)
		}

		msg := Message{Kind: k, Item: 2, Origin: 5, Version: 6, Seq: 8}
		if k.carriesContent() {
			msg.Copy = data.Copy{ID: 2, Version: 6, Value: data.ValueFor(2, 6), WrittenAt: 1}
		}
		if msg.Size() <= 0 {
			t.Errorf("%v: non-positive nominal size", k)
		}
		if err := msg.Validate(); err != nil {
			t.Errorf("%v: canonical message invalid: %v", k, err)
		}

		// Message codec entry.
		buf, err := Marshal(msg)
		if err != nil {
			t.Errorf("%v: no codec encode entry: %v", k, err)
			continue
		}
		got, err := Unmarshal(buf)
		if err != nil {
			t.Errorf("%v: no codec decode entry: %v", k, err)
			continue
		}
		if got.Kind != k {
			t.Errorf("%v: decoded as %v", k, got.Kind)
		}

		// Frame envelope entry (the real-transport path).
		fbuf, err := MarshalFrame(Frame{From: 5, To: 2, Seq: 1, Msg: msg})
		if err != nil {
			t.Errorf("%v: no frame encode entry: %v", k, err)
			continue
		}
		if fr, err := UnmarshalFrame(fbuf); err != nil {
			t.Errorf("%v: no frame decode entry: %v", k, err)
		} else if fr.Msg.Kind != k {
			t.Errorf("%v: frame decoded payload as %v", k, fr.Msg.Kind)
		}
	}

	// The sentinel itself must stay outside the wire.
	if kindMax.Valid() {
		t.Error("sentinel kindMax reports valid")
	}
	if _, err := Marshal(Message{Kind: kindMax}); err == nil {
		t.Error("sentinel kindMax marshalled")
	}
}

// TestAppendIntoReusedBufferMatchesMarshal: encoding every kind, traced
// and untraced, unicast and flood, into one dirty buffer reused across
// all of them yields exactly MarshalFrame's (and Marshal's) bytes, and a
// prefix already in the buffer survives.
func TestAppendIntoReusedBufferMatchesMarshal(t *testing.T) {
	dirty := bytes.Repeat([]byte{0xEE}, 512)
	buf := dirty[:0]
	for k := Kind(1); int(k) < NumKinds; k++ {
		msg := Message{Kind: k, Item: 2, Origin: 5, Version: 6, Seq: 8, Path: []int{5, 300, 2}}
		if k.carriesContent() {
			msg.Copy = data.Copy{ID: 2, Version: 6, Value: data.ValueFor(2, 6), WrittenAt: 1}
		}
		for _, tc := range []TraceContext{{}, {TraceID: 1 << 40, SpanID: 3, ParentID: 1 << 40}} {
			msg.Trace = tc
			for _, f := range []Frame{
				{From: 5, To: 2, Seq: 1 << 20, Msg: msg},
				{From: 5, To: -1, TTL: 8, Flood: true, Seq: 3, Msg: msg},
			} {
				want, err := MarshalFrame(f)
				if err != nil {
					t.Fatalf("%v: %v", k, err)
				}
				buf, err = AppendFrame(buf[:0], f)
				if err != nil {
					t.Fatalf("%v: %v", k, err)
				}
				if !bytes.Equal(buf, want) {
					t.Errorf("%v trace=%v flood=%v: AppendFrame into a reused buffer\n got %x\nwant %x", k, tc, f.Flood, buf, want)
				}
				withPrefix, err := AppendFrame([]byte("hdr"), f)
				if err != nil || string(withPrefix[:3]) != "hdr" || !bytes.Equal(withPrefix[3:], want) {
					t.Errorf("%v: AppendFrame after a prefix = %x, %v", k, withPrefix, err)
				}
			}
			wantMsg, err := Marshal(msg)
			if err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			if buf, err = AppendMessage(buf[:0], msg); err != nil || !bytes.Equal(buf, wantMsg) {
				t.Errorf("%v: AppendMessage into a reused buffer = %x, %v; want %x", k, buf, err, wantMsg)
			}
		}
	}
	if &buf[:1][0] != &dirty[0] {
		t.Error("a 512-byte buffer was outgrown: AppendFrame did not encode in place")
	}
	good := []byte("keep")
	if out, err := AppendFrame(good, Frame{From: 1, To: 2, Msg: Message{}}); err == nil || string(out) != "keep" {
		t.Errorf("AppendFrame of an invalid message = %q, %v; want the buffer unchanged and an error", out, err)
	}
}
