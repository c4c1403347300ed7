package core

import (
	"bytes"
	"runtime"
	"testing"

	"accturbo/internal/cluster"
	"accturbo/internal/codec"
	"accturbo/internal/eventsim"
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

// FuzzRestoreState feeds arbitrary ACCSNAP1 payloads to RestoreState,
// the decoder behind -restore and POST /snapshot. The harness seals
// each input in a valid container so the fuzzer reaches the payload
// decoder instead of stopping at the CRC; the container's own refusals
// are covered by the codec tests. For every input RestoreState must not
// panic, must not allocate more than a fixed budget plus a small
// multiple of the input, and must either
//   - fail, leaving the fresh target's saved state byte-identical to
//     before and its config generation unchanged, or
//   - succeed, after which save → restore → save is byte-identical.
//
// The seeds are the payloads of real snapshots, which must restore and
// re-save to exactly their own bytes. A small clusterer keeps them
// short, so the fuzzer's input minimization stays cheap.
func FuzzRestoreState(f *testing.F) {
	cfg := DefaultConfig()
	cfg.Clustering = cluster.DefaultConfig(3, packet.HardwareFeatures())
	cfg.PollInterval = 100 * eventsim.Millisecond
	cfg.DeployDelay = 10 * eventsim.Millisecond

	fresh := func() (*Dataplane, *ControlPlane) {
		dp := NewDataplane(cfg, false)
		return dp, NewControlPlane(dp, &fakeClock{}, cfg)
	}
	save := func(t testing.TB, dp *Dataplane, cp *ControlPlane) []byte {
		var buf bytes.Buffer
		if err := SaveState(&buf, dp, cp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seal := func(t testing.TB, payload []byte) []byte {
		var buf bytes.Buffer
		if err := codec.WriteSealed(&buf, snapMagic, snapVersion, payload); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	dp, cp := fresh()
	empty := save(f, dp, cp)
	dp, cp, _ = warmPipeline(f, cfg, false)
	for _, snap := range [][]byte{empty, save(f, dp, cp)} {
		dp, cp := fresh()
		if err := RestoreState(bytes.NewReader(snap), dp, cp); err != nil {
			f.Fatalf("seed does not restore: %v", err)
		}
		if !bytes.Equal(save(f, dp, cp), snap) {
			f.Fatal("seed does not re-save to its own bytes")
		}
		f.Add(snap[18 : len(snap)-4])
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		snap := seal(t, payload)
		dp, cp := fresh()
		var err error
		if n := allocatedBy(func() { err = RestoreState(bytes.NewReader(snap), dp, cp) }); n > 1<<20+64*uint64(len(snap)) {
			t.Fatalf("restore of %d bytes allocated %d bytes", len(snap), n)
		}
		if err != nil {
			if cp.ConfigGeneration() != 1 {
				t.Fatalf("failed restore bumped the config generation to %d", cp.ConfigGeneration())
			}
			if !bytes.Equal(save(t, dp, cp), empty) {
				t.Fatal("failed restore changed the target's state")
			}
			return
		}
		once := save(t, dp, cp)
		dp2, cp2 := fresh()
		if err := RestoreState(bytes.NewReader(once), dp2, cp2); err != nil {
			t.Fatalf("re-saved snapshot does not restore: %v", err)
		}
		if !bytes.Equal(save(t, dp2, cp2), once) {
			t.Fatal("save → restore → save is not byte-identical")
		}
	})
}
