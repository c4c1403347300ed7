package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// TestRoundTrip writes one of every primitive and reads it back.
func TestRoundTrip(t *testing.T) {
	var e Enc
	e.U8(0xab)
	e.U16(0xbeef)
	e.U32(0xdeadbeef)
	e.U64(math.MaxUint64 - 1)
	e.I64(-42)
	e.F64(math.Inf(-1))
	e.Bool(true)
	e.Bool(false)
	e.U32(3)
	e.Raw([]byte{1, 2, 3})
	e.String("xyz")
	if got, want := e.Len(), 1+2+4+8+8+8+1+1+4+3+3; got != want {
		t.Fatalf("encoded %d bytes, want %d", got, want)
	}

	d := NewDec(e.Bytes(), "test")
	if v := d.U8(); v != 0xab {
		t.Fatalf("U8 = %#x", v)
	}
	if v := d.Bytes(2); binary.LittleEndian.Uint16(v) != 0xbeef {
		t.Fatalf("U16 wrote % x", v)
	}
	if v := d.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %#x", v)
	}
	if v := d.U64(); v != math.MaxUint64-1 {
		t.Fatalf("U64 = %#x", v)
	}
	if v := d.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := d.F64(); !math.IsInf(v, -1) {
		t.Fatalf("F64 = %v", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool did not round-trip")
	}
	if b := d.Bytes(d.Count(1)); !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", b)
	}
	if b := d.Bytes(3); string(b) != "xyz" {
		t.Fatalf("String read back as %q", b)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncationLatches: the first short read latches an error naming
// the format and the offset, and every later read returns zero.
func TestTruncationLatches(t *testing.T) {
	d := NewDec([]byte{1, 0, 0}, "widget")
	if v := d.U32(); v != 0 {
		t.Fatalf("short U32 = %d, want 0", v)
	}
	if v := d.U8(); v != 0 {
		t.Fatalf("U8 after a failure = %d, want 0", v)
	}
	if err := d.Err(); err == nil || err.Error() != "widget truncated at byte 0" {
		t.Fatalf("Err = %v", err)
	}
	if err := d.Done(); err != d.Err() {
		t.Fatalf("Done = %v, want the latched error", err)
	}
}

// TestCountBound: a count is accepted exactly when count × minSize fits
// in the bytes left, and a refused count reads as zero.
func TestCountBound(t *testing.T) {
	payload := func(n uint32, body int) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, n), make([]byte, body)...)
	}
	for _, tc := range []struct {
		n       uint32
		minSize int
		body    int
		ok      bool
	}{
		{0, 8, 0, true},
		{2, 8, 16, true},
		{2, 8, 15, false},
		{math.MaxUint32, 1, 64, false},
		{math.MaxUint32, 61, 1 << 10, false},
	} {
		d := NewDec(payload(tc.n, tc.body), "test")
		got := d.Count(tc.minSize)
		if tc.ok {
			if got != int(tc.n) || d.Err() != nil {
				t.Errorf("Count(%d) of %d in %d bytes = %d, %v; want accepted", tc.minSize, tc.n, tc.body, got, d.Err())
			}
			continue
		}
		if got != 0 || d.Err() == nil || !strings.Contains(d.Err().Error(), "claims") {
			t.Errorf("Count(%d) of %d in %d bytes = %d, %v; want refused", tc.minSize, tc.n, tc.body, got, d.Err())
		}
		if d.U8() != 0 {
			t.Error("read after a refused count returned data")
		}
	}
}

// TestDoneRejectsTrailingBytes: unread input is an error.
func TestDoneRejectsTrailingBytes(t *testing.T) {
	d := NewDec([]byte{1, 2}, "test")
	d.U8()
	if err := d.Done(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("Done = %v, want a trailing-bytes error", err)
	}
}

// TestSealedRoundTrip pins the container layout and its round trip.
func TestSealedRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("payload bytes")
	if err := WriteSealed(&buf, "TESTMAG1", 3, payload); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	if got, want := len(blob), 8+2+8+len(payload)+4; got != want {
		t.Fatalf("sealed %d bytes, want %d", got, want)
	}
	if string(blob[:8]) != "TESTMAG1" || binary.LittleEndian.Uint16(blob[8:]) != 3 ||
		binary.LittleEndian.Uint64(blob[10:]) != uint64(len(payload)) {
		t.Fatalf("bad header % x", blob[:18])
	}
	r := bytes.NewReader(blob)
	got, err := ReadSealed(r, "TESTMAG1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) || r.Len() != 0 {
		t.Fatalf("read back %q with %d bytes left", got, r.Len())
	}
}

// TestSealedRejects covers every refusal: bad magic, foreign version,
// a payload length past the limit or past the input, truncation at
// each section, and a CRC mismatch.
func TestSealedRejects(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSealed(&buf, "TESTMAG1", 1, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	for _, tc := range []struct {
		name string
		blob []byte
		want string
	}{
		{"magic", mutate(func(b []byte) { b[0] = 'X' }), "magic"},
		{"version", mutate(func(b []byte) { b[8] = 2 }), "version"},
		{"length-implausible", mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[10:], 1<<40) }), "implausible"},
		{"length-past-input", mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[10:], 1<<20) }), "payload"},
		{"length-short", mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[10:], 4) }), "checksum"},
		{"crc", mutate(func(b []byte) { b[len(b)-1] ^= 1 }), "checksum mismatch"},
		{"payload-bit", mutate(func(b []byte) { b[20] ^= 0x40 }), "checksum mismatch"},
		{"header-cut", good[:10], "header"},
		{"payload-cut", good[:20], "payload"},
		{"crc-cut", good[:len(good)-2], "checksum"},
	} {
		_, err := ReadSealed(bytes.NewReader(tc.blob), "TESTMAG1", 1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	if _, err := ReadSealed(bytes.NewReader(good[:10]), "TESTMAG1", 1); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("cut header: err = %v, want ErrUnexpectedEOF", err)
	}
}
