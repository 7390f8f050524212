package protocol

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Frame is the transport envelope that wraps a Message when it crosses a
// real network. The simulator needs no envelope (addressing lives in the
// event, not the bytes), but a UDP datagram must carry its own routing
// header: who sent it, who it is for, and — for floods — how many hops
// of life it has left so a multi-segment deployment can re-propagate.
//
// Wire layout, integers varint/uvarint-encoded unless noted:
//
//	magic byte 0xAF | version byte | flags byte |
//	from | to | ttl | seq | [trace ext] | payload = Marshal(Msg)
//
// Flags: bit 0 = flood (To is meaningless; every receiver delivers),
// bit 1 = trace extension present (version 2 only).
//
// Version 1 is the original header with no extension. Version 2 adds an
// optional causal-tracing extension — three uvarints (TraceID, SpanID,
// ParentSpanID) after seq, announced by the trace flag — and is emitted
// only when the carried message actually has a trace context, so
// untraced traffic stays byte-identical to version 1. Decoders accept
// both versions; a version-1 frame carrying the trace flag is malformed.
type Frame struct {
	// From is the sending node id.
	From int
	// To is the destination node id for unicast frames; ignored when
	// Flood is set.
	To int
	// TTL is the remaining hop budget of a flood (0 for unicasts).
	TTL int
	// Flood marks a broadcast frame: every node on the segment delivers
	// it except the origin.
	Flood bool
	// Seq is a sender-local sequence number used for flood suppression
	// and tracing; it is independent of Msg.Seq.
	Seq uint64
	// Msg is the protocol message being carried.
	Msg Message
}

const (
	frameMagic    = 0xAF
	frameVersion  = 1 // plain header, no extensions
	frameVersion2 = 2 // adds the optional trace extension

	frameFlagFlood = 1 << 0
	frameFlagTrace = 1 << 1 // version 2 only: trace triple follows seq

	// maxFrameTTL bounds decoded hop budgets; no MANET flood is deeper,
	// and the cap keeps a hostile TTL from looking like a sane one.
	maxFrameTTL = 1024
)

// maxFrameHeaderLen bounds the envelope ahead of the payload: three fixed
// bytes, four header varints and the three-uvarint trace extension.
const maxFrameHeaderLen = 3 + 7*binary.MaxVarintLen64

// MarshalFrame encodes f, including its embedded message, into a single
// datagram-sized buffer.
func MarshalFrame(f Frame) ([]byte, error) { return AppendFrame(nil, f) }

// AppendFrame appends the datagram encoding of f — header and message in
// one pass — to buf and returns the extended buffer. It grows buf at most
// once, so a reused send buffer of sufficient capacity encodes without
// allocating. On error buf is returned unchanged.
func AppendFrame(buf []byte, f Frame) ([]byte, error) {
	if f.From < 0 {
		return buf, fmt.Errorf("protocol: frame from %d must be >= 0", f.From)
	}
	if !f.Flood && f.To < 0 {
		return buf, fmt.Errorf("protocol: unicast frame to %d must be >= 0", f.To)
	}
	if f.TTL < 0 || f.TTL > maxFrameTTL {
		return buf, fmt.Errorf("protocol: frame ttl %d out of range [0,%d]", f.TTL, maxFrameTTL)
	}
	if !f.Msg.Kind.Valid() {
		return buf, fmt.Errorf("protocol: marshal of invalid kind %v", f.Msg.Kind)
	}
	traced := !f.Msg.Trace.Zero()
	buf = slices.Grow(buf, maxFrameHeaderLen+maxMessageLen(f.Msg))
	version := byte(frameVersion)
	if traced {
		version = frameVersion2
	}
	buf = append(buf, frameMagic, version)
	var flags byte
	if f.Flood {
		flags |= frameFlagFlood
	}
	if traced {
		flags |= frameFlagTrace
	}
	buf = append(buf, flags)
	buf = binary.AppendVarint(buf, int64(f.From))
	buf = binary.AppendVarint(buf, int64(f.To))
	buf = binary.AppendVarint(buf, int64(f.TTL))
	buf = binary.AppendUvarint(buf, f.Seq)
	if traced {
		buf = binary.AppendUvarint(buf, f.Msg.Trace.TraceID)
		buf = binary.AppendUvarint(buf, f.Msg.Trace.SpanID)
		buf = binary.AppendUvarint(buf, f.Msg.Trace.ParentID)
	}
	return appendMessage(buf, f.Msg), nil
}

// UnmarshalFrame decodes a datagram back into a Frame. Like Unmarshal it
// is bounded and total: arbitrary input returns an error, never panics,
// and never allocates more than the datagram itself justifies.
func UnmarshalFrame(buf []byte) (Frame, error) {
	d := &decoder{buf: buf}
	if d.byte() != frameMagic {
		return Frame{}, fmt.Errorf("protocol: bad frame magic")
	}
	version := d.byte()
	if version != frameVersion && version != frameVersion2 && d.err == nil {
		return Frame{}, fmt.Errorf("protocol: unsupported frame version %d", version)
	}
	known := byte(frameFlagFlood)
	if version == frameVersion2 {
		known |= frameFlagTrace
	}
	flags := d.byte()
	if flags&^known != 0 && d.err == nil {
		return Frame{}, fmt.Errorf("protocol: unknown frame flag bits %#x for version %d", flags, version)
	}
	var f Frame
	f.Flood = flags&frameFlagFlood != 0
	f.From = int(d.varint())
	f.To = int(d.varint())
	f.TTL = int(d.varint())
	f.Seq = d.uvarint()
	var tc TraceContext
	if flags&frameFlagTrace != 0 {
		tc.TraceID = d.uvarint()
		tc.SpanID = d.uvarint()
		tc.ParentID = d.uvarint()
		if tc.TraceID == 0 && d.err == nil {
			return Frame{}, fmt.Errorf("protocol: frame trace extension with reserved trace id 0")
		}
	}
	if d.err != nil {
		return Frame{}, d.err
	}
	if f.From < 0 {
		return Frame{}, fmt.Errorf("protocol: frame from %d must be >= 0", f.From)
	}
	if !f.Flood && f.To < 0 {
		return Frame{}, fmt.Errorf("protocol: unicast frame to %d must be >= 0", f.To)
	}
	if f.TTL < 0 || f.TTL > maxFrameTTL {
		return Frame{}, fmt.Errorf("protocol: frame ttl %d out of range [0,%d]", f.TTL, maxFrameTTL)
	}
	msg, err := Unmarshal(buf[d.off:])
	if err != nil {
		return Frame{}, err
	}
	f.Msg = msg
	f.Msg.Trace = tc
	return f, nil
}
