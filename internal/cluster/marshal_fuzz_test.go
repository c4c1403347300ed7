package cluster

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"accturbo/internal/codec"
	"accturbo/internal/packet"
)

// allocatedBy reports how many heap bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fuzzConfigs are small clusterers covering each blob shape: exact
// sets, Bloom filters, and the Euclidean centers plus exhaustive-search
// merge cache.
func fuzzConfigs() []Config {
	exact := DefaultConfig(3, packet.HardwareFeatures())
	bloom := exact
	bloom.UseBloom, bloom.BloomBits, bloom.BloomHashes = true, 128, 2
	euclid := exact
	euclid.Distance, euclid.Search = Euclidean, Exhaustive
	return []Config{exact, bloom, euclid}
}

// hostileBlob is a clusterer blob for cfg holding one cluster whose
// first nominal feature's value set claims 0x7fffffff elements (Bloom
// words, or exact-set values) and ends the blob.
func hostileBlob(cfg Config) []byte {
	o := NewOnline(cfg)
	var e codec.Enc
	o.encodeFingerprint(&e)
	e.U64(1) // nextUID
	e.U64(0) // Observed
	e.U32(1) // clusters
	e.U64(0) // uid
	for f := 0; f < o.nf; f++ {
		e.U32(0)
		e.U32(0)
	}
	if o.center != nil {
		for f := 0; f < o.nf; f++ {
			e.F64(0)
		}
	}
	for i := 0; i < 6; i++ {
		e.U64(0)
	}
	for f := 0; f < o.nf; f++ {
		if !o.nominal[f] {
			continue
		}
		e.U32(0) // setCard
		if cfg.UseBloom {
			e.U64(0) // inserted
		}
		e.U32(0x7fffffff)
		return e.Bytes()
	}
	panic("config has no nominal feature")
}

// TestUnmarshalRejectsHostileCounts: a Bloom word count or an exact-set
// value count the blob cannot hold is refused before allocating or
// inserting anything, and leaves the receiver as it was.
func TestUnmarshalRejectsHostileCounts(t *testing.T) {
	for _, cfg := range fuzzConfigs()[:2] {
		t.Run(comboName(cfg), func(t *testing.T) {
			o := NewOnline(cfg)
			for _, p := range equivTrace(200, 17) {
				o.Observe(p)
			}
			before := o.Marshal()
			blob := hostileBlob(cfg)
			var err error
			if n := allocatedBy(func() { err = o.Unmarshal(blob) }); n > 1<<20 {
				t.Fatalf("unmarshal allocated %d bytes for a %d-byte blob", n, len(blob))
			}
			if err == nil || !strings.Contains(err.Error(), "claims 2147483647 elements") {
				t.Fatalf("err = %v, want a refused count", err)
			}
			if !bytes.Equal(o.Marshal(), before) {
				t.Fatal("a refused blob changed the clusterer")
			}
		})
	}
}

// FuzzOnlineUnmarshal feeds arbitrary clusterer blobs to
// Online.Unmarshal under each of fuzzConfigs. The harness prepends the
// configuration's fingerprint so the fuzzer reaches the state decoder.
// Unmarshal must not panic, must not allocate more than a fixed budget
// plus a small multiple of the input, and must either fail leaving the
// warmed target's re-marshal byte-identical, or succeed with a state
// whose marshal → unmarshal → marshal is byte-identical. The seeds are
// real blobs, which must restore to exactly their own bytes.
func FuzzOnlineUnmarshal(f *testing.F) {
	cfgs := fuzzConfigs()
	targets := make([][]byte, len(cfgs))
	fingerprints := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		o := NewOnline(cfg)
		var fp codec.Enc
		o.encodeFingerprint(&fp)
		fingerprints[i] = fp.Bytes()
		empty := o.Marshal()
		for _, p := range equivTrace(300, int64(i)) {
			o.Observe(p)
		}
		targets[i] = o.Marshal()
		for _, blob := range [][]byte{empty, targets[i]} {
			r := NewOnline(cfg)
			if err := r.Unmarshal(blob); err != nil {
				f.Fatalf("seed does not restore: %v", err)
			}
			if !bytes.Equal(r.Marshal(), blob) {
				f.Fatal("seed does not re-marshal to its own bytes")
			}
			f.Add(uint8(i), blob[len(fingerprints[i]):])
		}
	}

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		i := int(which) % len(cfgs)
		blob := append(append([]byte(nil), fingerprints[i]...), body...)
		o := NewOnline(cfgs[i])
		if err := o.Unmarshal(targets[i]); err != nil {
			t.Fatal(err)
		}
		var err error
		if n := allocatedBy(func() { err = o.Unmarshal(blob) }); n > 1<<20+64*uint64(len(blob)) {
			t.Fatalf("unmarshal of %d bytes allocated %d bytes", len(blob), n)
		}
		if err != nil {
			if !bytes.Equal(o.Marshal(), targets[i]) {
				t.Fatal("failed unmarshal changed the clusterer")
			}
			return
		}
		once := o.Marshal()
		r := NewOnline(cfgs[i])
		if err := r.Unmarshal(once); err != nil {
			t.Fatalf("re-marshaled blob does not restore: %v", err)
		}
		if !bytes.Equal(r.Marshal(), once) {
			t.Fatal("marshal → unmarshal → marshal is not byte-identical")
		}
	})
}
