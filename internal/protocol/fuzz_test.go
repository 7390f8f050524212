package protocol

import (
	"testing"

	"github.com/manetlab/rpcc/internal/data"
)

// FuzzUnmarshal throws arbitrary bytes at the wire decoder: it must never
// panic, and every message it accepts must survive a re-encode/re-decode
// round trip unchanged (value stability; byte canonicality is not
// required because varints admit redundant encodings).
func FuzzUnmarshal(f *testing.F) {
	seed := []Message{
		{Kind: KindPoll, Item: 1, Origin: 2, Version: 3, Seq: 4},
		{Kind: KindUpdate, Item: 5, Origin: 6, Version: 7,
			Copy: data.Copy{ID: 5, Version: 7, Value: data.ValueFor(5, 7)}},
		{Kind: KindRREQ, Item: 0, Path: []int{0, 1, 2}},
	}
	for _, m := range seed {
		buf, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add(retiredPosMessage(f))
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := Unmarshal(buf)
		if err != nil {
			return // rejection is fine; panics are not
		}
		re, err := Marshal(m)
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		m2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		if m2.Kind != m.Kind || m2.Item != m.Item || m2.Origin != m.Origin ||
			m2.Version != m.Version || m2.Seq != m.Seq || m2.Miss != m.Miss ||
			m2.Copy != m.Copy || len(m2.Path) != len(m.Path) {
			t.Fatalf("round trip drifted:\n first: %+v\nsecond: %+v", m, m2)
		}
	})
}

// FuzzUnmarshalFrame throws arbitrary datagrams at the transport frame
// decoder: never a panic, and every accepted frame must survive a
// re-encode/re-decode round trip with a stable header and payload.
func FuzzUnmarshalFrame(f *testing.F) {
	seeds := []Frame{
		{From: 0, To: 1, Seq: 7, Msg: Message{Kind: KindPoll, Item: 1, Origin: 0, Seq: 3}},
		{From: 2, TTL: 8, Flood: true, Seq: 9, Msg: Message{Kind: KindInvalidation, Item: 2, Origin: 2, Version: 4}},
		{From: 1, To: 0, Msg: Message{Kind: KindDataReply, Item: 3, Origin: 1, Version: 5,
			Copy: data.Copy{ID: 3, Version: 5, Value: data.ValueFor(3, 5)}}},
		// Version-2 frames with the trace extension, so the fuzzer mutates
		// extension bytes too: a small triple, multi-byte uvarint ids, and
		// a traced flood.
		{From: 0, To: 1, Seq: 7, Msg: Message{Kind: KindPoll, Item: 1, Origin: 0, Seq: 3,
			Trace: TraceContext{TraceID: 1, SpanID: 2, ParentID: 1}}},
		{From: 3, To: 4, Seq: 8, Msg: Message{Kind: KindPollAckA, Item: 1, Origin: 3, Version: 6,
			Trace: TraceContext{TraceID: 1 << 41, SpanID: 1<<41 | 9, ParentID: 1 << 13}}},
		{From: 2, TTL: 8, Flood: true, Seq: 9, Msg: Message{Kind: KindInvalidation, Item: 2, Origin: 2, Version: 4,
			Trace: TraceContext{TraceID: 500, SpanID: 501, ParentID: 500}}},
	}
	for _, fr := range seeds {
		buf, err := MarshalFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		fr, err := UnmarshalFrame(buf)
		if err != nil {
			return
		}
		re, err := MarshalFrame(fr)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		fr2, err := UnmarshalFrame(re)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if fr2.From != fr.From || fr2.To != fr.To || fr2.TTL != fr.TTL ||
			fr2.Flood != fr.Flood || fr2.Seq != fr.Seq || fr2.Msg.Kind != fr.Msg.Kind ||
			fr2.Msg.Copy != fr.Msg.Copy || fr2.Msg.Trace != fr.Msg.Trace {
			t.Fatalf("frame round trip drifted:\n first: %+v\nsecond: %+v", fr, fr2)
		}
	})
}
