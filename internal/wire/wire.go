// Package wire is permchain's shared zero-copy binary codec: one
// deterministic, length-prefixed frame format used by both the durable
// store (block and snapshot records, internal/store) and the network
// transport, which serializes every message. Growing both out of one
// codec means a block on disk and a consensus message in flight spell
// their fields the same way, and the cost of marshalling is paid and
// measured in one place.
//
// # Frame layout
//
//	[u8 version][u16 type tag][payload bytes...]
//
// The payload encoding is per-type (registered via Register) but built
// exclusively from this package's primitives: big-endian fixed-width
// integers, and length-prefixed (u32) byte strings. Nested dynamic
// values (`any` fields such as consensus proposals' Value) recurse as
// [u16 tag][payload]; tag 0 is nil. Maps are serialized in sorted key
// order, so identical logical content always produces identical bytes.
//
// # Type-tag registry
//
// Every payload type that crosses the wire registers a codec under a
// stable uint16 tag. Tags are assigned in blocks, one per owning
// package, and must never be reused or renumbered once released:
//
//	  1– 15  wire builtins (string, []byte, bool, int, int64, uint64, Hash)
//	 16– 31  internal/types (Transaction)
//	 32– 47  internal/quorumcert (Partial, QuorumCert)
//	 48– 63  internal/network (VoteBatch)
//	 64– 79  internal/consensus/pbft
//	 80– 95  internal/consensus/hotstuff
//	 96–111  internal/consensus/ibft (96–98 retired, now height's)
//	112–127  internal/consensus/tendermint (114–116 retired, now height's)
//	128–143  internal/consensus/paxos
//	144–159  internal/consensus/raft
//	160–175  internal/core (batch proposals)
//	176–191  internal/store (2PC decision records)
//	192–207  internal/confidential/channels (envelope)
//	208–223  internal/consensus/height (request, syncReq, syncRep)
//
// Registration happens in the owning package's init (the types are
// usually unexported there); duplicate tags panic at init time.
//
// # Pooling and zero-copy rules
//
// Encoders are pooled (GetEncoder/PutEncoder) so steady-state encoding
// is allocation-free: the frame buffer is reused across messages and
// only grows. A pooled frame's bytes are owned by the encoder — they
// are valid until PutEncoder, after which the buffer may be reused, so
// anything that outlives the frame must be copied out.
//
// Decoding offers both copying and zero-copy reads. Bytes/Str copy and
// are always safe. View returns a sub-slice of the frame itself and
// AppendBytes reuses the caller's buffer: use these only when the
// decoded value either (a) does not outlive the frame, (b) is copied by
// the consumer (big.Int.SetBytes, map-key lookup), or (c) decodes into
// a frame that is never recycled. StrShared consults the intern table
// (Intern) so well-known protocol constants decode without allocating.
// The network's decode path uses only the safe forms — decoded payloads
// never reference the pooled frame.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sync"

	"permchain/internal/types"
)

// FrameVersion is the first byte of every frame.
const FrameVersion = 1

// ErrCorrupt is the root of every decode failure: truncated frames,
// damaged counts, unknown tags, trailing bytes. Callers test with
// errors.Is; the decoder never panics on hostile input.
var ErrCorrupt = errors.New("wire: corrupt frame")

// ErrUnregistered reports an encode of a Go type no codec was
// registered for — a configuration bug, not a data error.
var ErrUnregistered = errors.New("wire: unregistered payload type")

var errShort = fmt.Errorf("%w: record truncated", ErrCorrupt)

// Encoder appends a frame into a reusable buffer. The zero value is
// ready to use; pooled instances come from GetEncoder.
type Encoder struct {
	buf []byte
	err error
}

// Reset truncates the buffer, keeping its capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0]; e.err = nil }

// Frame returns the encoded bytes so far. The slice aliases the
// encoder's buffer: it is valid until the next Reset/PutEncoder.
func (e *Encoder) Frame() []byte { return e.buf }

// Len returns the encoded size so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Err returns the first encode error (an unregistered Any payload).
func (e *Encoder) Err() error { return e.err }

func (e *Encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// U8 appends one byte.
func (e *Encoder) U8(v byte) { e.buf = append(e.buf, v) }

// U16 appends a big-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

// I64 appends an int64 as its two's-complement uint64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Hash appends a fixed-width 32-byte digest.
func (e *Encoder) Hash(h types.Hash) { e.buf = append(e.buf, h[:]...) }

// Bytes appends a u32 length prefix followed by b.
func (e *Encoder) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Str appends a string like Bytes.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// BigInt appends a nil-able non-negative big integer: a presence byte,
// then the absolute-value bytes. Quorum-certificate scalars are group
// elements and never negative.
func (e *Encoder) BigInt(v *big.Int) {
	if v == nil {
		e.U8(0)
		return
	}
	e.U8(1)
	n := (v.BitLen() + 7) / 8
	e.U32(uint32(n))
	start := len(e.buf)
	if cap(e.buf)-start >= n {
		// Reslice instead of append(make(...)): a warmed buffer must
		// stay allocation-free even in -race builds, where the
		// append+make in-place-growth optimization is disabled.
		e.buf = e.buf[:start+n] // FillBytes overwrites every byte below
	} else {
		e.buf = append(e.buf, make([]byte, n)...)
	}
	v.FillBytes(e.buf[start:])
}

// Decoder reads a frame. The error is sticky: after the first failure
// every read returns a zero value, so codecs can decode straight-line
// and check Err once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps buf for decoding.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset re-arms the decoder over a new buffer.
func (d *Decoder) Reset(buf []byte) { d.buf = buf; d.off = 0; d.err = nil }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Done verifies the frame was consumed exactly.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail() { d.err = errShort }

// U8 reads one byte.
func (d *Decoder) U8() byte {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// U16 reads a big-endian uint16.
func (d *Decoder) U16() uint16 {
	if d.err != nil || d.off+2 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() == 1 }

// Hash reads a fixed-width 32-byte digest.
func (d *Decoder) Hash() types.Hash {
	var h types.Hash
	if d.err != nil || d.off+len(h) > len(d.buf) {
		d.fail()
		return h
	}
	copy(h[:], d.buf[d.off:])
	d.off += len(h)
	return h
}

// View returns the next length-prefixed byte string as a sub-slice of
// the frame — zero-copy; see the package doc for when that is safe.
// A nil return with a nil Err means an empty string.
func (d *Decoder) View() []byte {
	n := d.U32()
	if d.err != nil || d.off+int(n) > len(d.buf) {
		d.fail()
		return nil
	}
	v := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return v
}

// Bytes reads a length-prefixed byte string into a fresh copy. An
// encoded empty string decodes as nil, matching the store codec.
func (d *Decoder) Bytes() []byte {
	v := d.View()
	if len(v) == 0 {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// AppendBytes reads a length-prefixed byte string into dst (usually
// field[:0] of a reused struct), growing it only when capacity is
// insufficient — the allocation-free decode path.
func (d *Decoder) AppendBytes(dst []byte) []byte {
	v := d.View()
	if len(v) == 0 {
		return dst[:0]
	}
	return append(dst[:0], v...)
}

// Str reads a length-prefixed string (copying).
func (d *Decoder) Str() string { return string(d.View()) }

// StrShared reads a length-prefixed string, returning the interned
// instance when the value was registered with Intern — protocol
// constants (message types, statement domains) then decode without
// allocating.
func (d *Decoder) StrShared() string {
	v := d.View()
	if len(v) == 0 {
		return ""
	}
	if s, ok := internTable()[string(v)]; ok {
		return s
	}
	return string(v)
}

// BigInt reads a nil-able big integer, reusing dst when non-nil (the
// scratch-reuse decode path: big.Int.SetBytes recycles its word
// storage when capacity allows).
func (d *Decoder) BigInt(dst *big.Int) *big.Int {
	if d.U8() == 0 {
		return nil
	}
	v := d.View()
	if d.err != nil {
		return nil
	}
	if dst == nil {
		dst = new(big.Int)
	}
	return dst.SetBytes(v)
}

// Count reads a u32 element count and sanity-bounds it against the
// bytes remaining (each element needs at least minElemBytes), so a
// damaged count cannot drive a giant allocation.
func (d *Decoder) Count(minElemBytes int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n < 0 || n > (len(d.buf)-d.off)/minElemBytes+1 {
		d.fail()
		return 0
	}
	return n
}

// maxPooledBuf bounds the capacity PutEncoder retains: a one-off giant
// frame (a snapshot, a huge batch) must not pin its buffer forever.
const maxPooledBuf = 1 << 20

var encPool = sync.Pool{New: func() any { return &Encoder{buf: make([]byte, 0, 512)} }}

// GetEncoder returns a pooled, reset encoder.
func GetEncoder() *Encoder {
	e := encPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns an encoder (and its frame buffer) to the pool.
// The frame bytes handed out by Frame become invalid.
func PutEncoder(e *Encoder) {
	if e == nil || cap(e.buf) > maxPooledBuf {
		return
	}
	encPool.Put(e)
}
