package victim

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"accturbo/internal/codec"
)

// allocatedBy reports how many heap bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// smallConfig keeps snapshots short enough to fuzz.
func smallConfig() Config {
	return Config{TopK: 4, SketchRows: 2, SketchCols: 16, ActivateShare: 0.2, ReleaseShare: 0.1, Seed: 3}
}

// warmDetector returns a detector of cfg with a closed window, listed
// victims and an open window behind it.
func warmDetector(t testing.TB, cfg Config) *Detector {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	feedWindow(d, r, map[uint64]uint64{42: 500_000, 43: 300_000}, 200_000)
	d.Advance()
	feedWindow(d, r, map[uint64]uint64{42: 400_000}, 300_000)
	return d
}

func marshal(t testing.TB, d *Detector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Marshal(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func seal(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := codec.WriteSealed(&buf, snapMagic, snapVersion, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostileSnapshot seals an ACCVICT1 payload for cfg that is well formed
// up to the count named at, which claims 0x7fffffff elements and ends
// the payload.
func hostileSnapshot(t *testing.T, cfg Config, at string) []byte {
	t.Helper()
	var e codec.Enc
	count := func(name string) bool {
		if name == at {
			e.U32(0x7fffffff)
			return true
		}
		e.U32(0)
		return false
	}
	e.U32(uint32(cfg.TopK))
	e.U32(uint32(cfg.SketchRows))
	e.U32(uint32(cfg.SketchCols))
	e.U64(1) // windows
	e.U64(2) // windowBytes
	if count("words") {
		return seal(t, e.Bytes())
	}
	e.U64(0) // updates
	if count("entries") {
		return seal(t, e.Bytes())
	}
	e.U64(0) // rng
	if count("listed") || count("current") {
		return seal(t, e.Bytes())
	}
	t.Fatalf("no count named %q", at)
	return nil
}

// TestUnmarshalRejectsHostileCounts: each count is checked against the
// bytes left before anything is allocated from it, and the detector is
// left as it was.
func TestUnmarshalRejectsHostileCounts(t *testing.T) {
	cfg := smallConfig()
	for _, at := range []string{"words", "entries", "listed", "current"} {
		t.Run(at, func(t *testing.T) {
			d := warmDetector(t, cfg)
			before := marshal(t, d)
			blob := hostileSnapshot(t, cfg, at)
			var err error
			if n := allocatedBy(func() { err = d.Unmarshal(bytes.NewReader(blob)) }); n > 1<<20 {
				t.Fatalf("unmarshal allocated %d bytes for a %d-byte snapshot", n, len(blob))
			}
			if err == nil || !strings.Contains(err.Error(), "claims 2147483647 elements") {
				t.Fatalf("err = %v, want a refused count", err)
			}
			if !bytes.Equal(marshal(t, d), before) {
				t.Fatal("a refused snapshot changed the detector")
			}
		})
	}
}

// TestUnmarshalMisSizedWordsChangesNothing: a snapshot whose sketch
// word vector has the wrong length decodes cleanly but must be refused
// before any field — window counters included — is assigned.
func TestUnmarshalMisSizedWordsChangesNothing(t *testing.T) {
	cfg := smallConfig()
	d := warmDetector(t, cfg)
	before := marshal(t, d)

	var e codec.Enc
	e.U32(uint32(cfg.TopK))
	e.U32(uint32(cfg.SketchRows))
	e.U32(uint32(cfg.SketchCols))
	e.U64(999_999) // windows
	e.U64(888_888) // windowBytes
	e.U32(1)       // one word, whatever the geometry needs
	e.U64(7)
	e.U64(0) // updates
	e.U32(0) // entries
	e.U64(0) // rng
	e.U32(0) // listed
	e.U32(0) // current
	err := d.Unmarshal(bytes.NewReader(seal(t, e.Bytes())))
	if err == nil || !strings.Contains(err.Error(), "words") {
		t.Fatalf("err = %v, want a word-count mismatch", err)
	}
	if !bytes.Equal(marshal(t, d), before) {
		t.Fatal("a refused snapshot changed the detector")
	}
}

// FuzzDetectorUnmarshal feeds arbitrary ACCVICT1 payloads to
// Detector.Unmarshal. The harness seals each input in a valid
// container so the fuzzer reaches the payload decoder; the container's
// own refusals are covered by the codec tests. Unmarshal must not
// panic, must not allocate more than a fixed budget plus a small
// multiple of the input, and must either fail leaving the warmed
// target's re-save byte-identical, or succeed with a state whose
// save → restore → save is byte-identical. The seeds are real
// snapshots' payloads, which must restore to exactly their own bytes.
func FuzzDetectorUnmarshal(f *testing.F) {
	cfg := smallConfig()
	fresh, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	target := marshal(f, warmDetector(f, cfg))
	for _, snap := range [][]byte{marshal(f, fresh), target} {
		d, _ := New(cfg)
		if err := d.Unmarshal(bytes.NewReader(snap)); err != nil {
			f.Fatalf("seed does not restore: %v", err)
		}
		if !bytes.Equal(marshal(f, d), snap) {
			f.Fatal("seed does not re-save to its own bytes")
		}
		f.Add(snap[18 : len(snap)-4])
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		snap := seal(t, payload)
		d, _ := New(cfg)
		if err := d.Unmarshal(bytes.NewReader(target)); err != nil {
			t.Fatal(err)
		}
		var err error
		if n := allocatedBy(func() { err = d.Unmarshal(bytes.NewReader(snap)) }); n > 1<<20+64*uint64(len(snap)) {
			t.Fatalf("unmarshal of %d bytes allocated %d bytes", len(snap), n)
		}
		if err != nil {
			if !bytes.Equal(marshal(t, d), target) {
				t.Fatal("failed unmarshal changed the detector")
			}
			return
		}
		once := marshal(t, d)
		d2, _ := New(cfg)
		if err := d2.Unmarshal(bytes.NewReader(once)); err != nil {
			t.Fatalf("re-saved snapshot does not restore: %v", err)
		}
		if !bytes.Equal(marshal(t, d2), once) {
			t.Fatal("save → restore → save is not byte-identical")
		}
	})
}
