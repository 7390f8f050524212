package protocol

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"github.com/manetlab/rpcc/internal/data"
)

// timeDuration converts the wire integer back to the virtual timestamp.
func timeDuration(v int64) time.Duration { return time.Duration(v) }

// Wire format. The simulator itself passes Message values in memory; this
// codec exists so the protocol can cross a real transport (UDP broadcast,
// Bluetooth L2CAP) unchanged, and so tests can assert that every field
// survives a round trip. Layout, all integers varint-encoded unless
// noted:
//
//	magic byte 0xRC | version byte | kind | flags | item | origin |
//	version | seq | path(len + entries) |
//	[copy: id, version, writtenAt, value(len + bytes), if flagCopy]
//
// Flag bit 0 is reserved (it once announced a position field): a message
// that sets it is rejected like any other unknown flag.
const (
	wireMagic   = 0xAC
	wireVersion = 1

	flagMiss = 1 << 1
	flagCopy = 1 << 2
)

// Marshal encodes m into the binary wire format.
func Marshal(m Message) ([]byte, error) { return AppendMessage(nil, m) }

// maxMessageLen bounds the encoded length of m: four fixed bytes, five
// header varints, the path, and the copy's three varints plus its
// length-prefixed value.
func maxMessageLen(m Message) int {
	return 4 + (9+len(m.Path))*binary.MaxVarintLen64 + len(m.Copy.Value)
}

// AppendMessage appends the wire encoding of m to buf and returns the
// extended buffer. It grows buf at most once, so a reused buffer of
// sufficient capacity encodes without allocating. On error buf is
// returned unchanged.
func AppendMessage(buf []byte, m Message) ([]byte, error) {
	if !m.Kind.Valid() {
		return buf, fmt.Errorf("protocol: marshal of invalid kind %v", m.Kind)
	}
	return appendMessage(slices.Grow(buf, maxMessageLen(m)), m), nil
}

// appendMessage is AppendMessage past validation; the caller has grown
// buf.
func appendMessage(buf []byte, m Message) []byte {
	buf = append(buf, wireMagic, wireVersion, byte(m.Kind))

	var flags byte
	if m.Miss {
		flags |= flagMiss
	}
	hasCopy := m.Copy != (data.Copy{})
	if hasCopy {
		flags |= flagCopy
	}
	buf = append(buf, flags)

	buf = binary.AppendVarint(buf, int64(m.Item))
	buf = binary.AppendVarint(buf, int64(m.Origin))
	buf = binary.AppendUvarint(buf, uint64(m.Version))
	buf = binary.AppendUvarint(buf, m.Seq)

	buf = binary.AppendUvarint(buf, uint64(len(m.Path)))
	for _, hop := range m.Path {
		buf = binary.AppendVarint(buf, int64(hop))
	}
	if hasCopy {
		buf = binary.AppendVarint(buf, int64(m.Copy.ID))
		buf = binary.AppendUvarint(buf, uint64(m.Copy.Version))
		buf = binary.AppendVarint(buf, int64(m.Copy.WrittenAt))
		buf = binary.AppendUvarint(buf, uint64(len(m.Copy.Value)))
		buf = append(buf, m.Copy.Value...)
	}
	return buf
}

// decoder walks a wire buffer with error-latching reads.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.err = fmt.Errorf("protocol: truncated message at byte %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("protocol: bad varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("protocol: bad uvarint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(d.off)+n > uint64(len(d.buf)) {
		d.err = fmt.Errorf("protocol: truncated bytes at byte %d", d.off)
		return nil
	}
	out := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return out
}

// maxWirePath bounds decoded path lengths; no MANET source route is
// longer, and the cap stops a hostile length prefix from allocating
// gigabytes.
const maxWirePath = 256

// maxWireValue bounds decoded payload lengths (1 MiB).
const maxWireValue = 1 << 20

// Unmarshal decodes a wire buffer back into a Message.
func Unmarshal(buf []byte) (Message, error) {
	d := &decoder{buf: buf}
	if d.byte() != wireMagic {
		return Message{}, fmt.Errorf("protocol: bad magic")
	}
	if v := d.byte(); v != wireVersion && d.err == nil {
		return Message{}, fmt.Errorf("protocol: unsupported wire version %d", v)
	}
	var m Message
	m.Kind = Kind(d.byte())
	flags := d.byte()
	if flags&^(byte(flagMiss|flagCopy)) != 0 && d.err == nil {
		return Message{}, fmt.Errorf("protocol: unknown flag bits %#x", flags)
	}
	m.Item = data.ItemID(d.varint())
	m.Origin = int(d.varint())
	m.Version = data.Version(d.uvarint())
	m.Seq = d.uvarint()

	pathLen := d.uvarint()
	if d.err == nil && pathLen > maxWirePath {
		return Message{}, fmt.Errorf("protocol: path length %d exceeds cap", pathLen)
	}
	if pathLen > 0 && d.err == nil {
		m.Path = make([]int, pathLen)
		for i := range m.Path {
			m.Path[i] = int(d.varint())
		}
	}
	m.Miss = flags&flagMiss != 0
	if flags&flagCopy != 0 {
		m.Copy.ID = data.ItemID(d.varint())
		m.Copy.Version = data.Version(d.uvarint())
		m.Copy.WrittenAt = timeDuration(d.varint())
		n := d.uvarint()
		if d.err == nil && n > maxWireValue {
			return Message{}, fmt.Errorf("protocol: value length %d exceeds cap", n)
		}
		m.Copy.Value = string(d.bytes(n))
	}
	if d.err != nil {
		return Message{}, d.err
	}
	if d.off != len(buf) {
		return Message{}, fmt.Errorf("protocol: %d trailing bytes", len(buf)-d.off)
	}
	if !m.Kind.Valid() {
		return Message{}, fmt.Errorf("protocol: decoded invalid kind %d", m.Kind)
	}
	return m, nil
}
