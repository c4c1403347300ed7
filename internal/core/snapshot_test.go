package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"accturbo/internal/codec"
	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// warmPipeline builds a dataplane/control plane pair on a fakeClock,
// runs traffic and a few control-loop cycles, and returns everything a
// snapshot test needs.
func warmPipeline(t testing.TB, cfg Config, concurrent bool) (*Dataplane, *ControlPlane, *fakeClock) {
	t.Helper()
	dp := NewDataplane(cfg, concurrent)
	clk := &fakeClock{}
	cp := NewControlPlane(dp, clk, cfg)
	cp.Start()
	t.Cleanup(cp.Stop)
	for round := 0; round < 3; round++ {
		for i := 0; i < 50; i++ {
			dp.Classify(mkPkt(i % 17))
		}
		clk.advance(cfg.PollInterval + cfg.DeployDelay)
	}
	return dp, cp, clk
}

// TestSnapshotRoundTrip saves a warmed-up pipeline and restores it into
// a fresh one: the re-saved snapshot must be byte-identical, the
// restored process must report the same deployed decision and queue
// map without any re-convergence, and subsequent identical traffic must
// classify identically on both sides.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name       string
		concurrent bool
	}{
		{"single", false},
		{"concurrent", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PollInterval = 100 * eventsim.Millisecond
			cfg.DeployDelay = 10 * eventsim.Millisecond
			dp, cp, _ := warmPipeline(t, cfg, tc.concurrent)

			var buf bytes.Buffer
			if err := SaveState(&buf, dp, cp); err != nil {
				t.Fatalf("SaveState: %v", err)
			}
			blob := append([]byte{}, buf.Bytes()...)

			dp2 := NewDataplane(cfg, tc.concurrent)
			clk2 := &fakeClock{}
			cp2 := NewControlPlane(dp2, clk2, cfg)
			cp2.Start()
			defer cp2.Stop()
			if err := RestoreState(bytes.NewReader(blob), dp2, cp2); err != nil {
				t.Fatalf("RestoreState: %v", err)
			}

			var buf2 bytes.Buffer
			if err := SaveState(&buf2, dp2, cp2); err != nil {
				t.Fatalf("re-SaveState: %v", err)
			}
			if !bytes.Equal(blob, buf2.Bytes()) {
				t.Fatalf("save→restore→save not byte-identical: %d vs %d bytes", len(blob), buf2.Len())
			}

			if !reflect.DeepEqual(dp2.QueueMap(), dp.QueueMap()) {
				t.Fatal("restored queue map differs")
			}
			if !reflect.DeepEqual(cp2.LastDecision(), cp.LastDecision()) {
				t.Fatal("restored decision differs")
			}
			if got, want := cp2.Deployments(), cp.Deployments(); got != want {
				t.Fatalf("restored deployments = %d, want %d", got, want)
			}
			if got, want := dp2.Observed(), dp.Observed(); got != want {
				t.Fatalf("restored observed = %d, want %d", got, want)
			}
			if !reflect.DeepEqual(dp2.Snapshot(), dp.Snapshot()) {
				t.Fatal("restored cluster snapshots differ")
			}

			// Identical post-restore traffic classifies identically —
			// the restored clusterers are behaviorally the originals.
			for i := 0; i < 200; i++ {
				p1, p2 := mkPkt(i%23), mkPkt(i%23)
				a1, q1 := dp.Classify(p1)
				a2, q2 := dp2.Classify(p2)
				if a1 != a2 || q1 != q2 {
					t.Fatalf("packet %d diverges: (%+v,%d) vs (%+v,%d)", i, a1, q1, a2, q2)
				}
			}
		})
	}
}

// TestSnapshotRestoresRuntimeConfig reconfigures before saving and
// checks the restored control plane runs under the patched runtime
// config, not the constructor's.
func TestSnapshotRestoresRuntimeConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 100 * eventsim.Millisecond
	cfg.DeployDelay = 10 * eventsim.Millisecond
	dp, cp, _ := warmPipeline(t, cfg, false)

	quick := 25 * eventsim.Millisecond
	byRate := ByPacketRate
	if _, err := cp.Reconfigure(RuntimePatch{PollInterval: &quick, Ranking: &byRate}); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}

	var buf bytes.Buffer
	if err := SaveState(&buf, dp, cp); err != nil {
		t.Fatalf("SaveState: %v", err)
	}

	dp2 := NewDataplane(cfg, false)
	clk2 := &fakeClock{}
	cp2 := NewControlPlane(dp2, clk2, cfg)
	cp2.Start()
	defer cp2.Stop()
	if err := RestoreState(&buf, dp2, cp2); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	rt := cp2.Runtime()
	if rt.PollInterval != quick || rt.Ranking != byRate {
		t.Fatalf("restored runtime = %+v, want poll %v ranking %v", rt, quick, byRate)
	}
	// The restored cadence is actually scheduled, not just reported.
	feedSteady(dp2)
	deploysBefore := cp2.Deployments()
	clk2.advance(100 * eventsim.Millisecond)
	if got := cp2.Deployments() - deploysBefore; got != 3 {
		t.Fatalf("restored loop deployed %d times in 100ms, want 3 at a 25ms cadence", got)
	}
}

// TestSnapshotRejects covers the container's refusal paths: corruption
// (checksum), truncation, bad magic, version skew, structural mismatch,
// and restoring over a pipeline that already has history.
func TestSnapshotRejects(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 100 * eventsim.Millisecond
	cfg.DeployDelay = 10 * eventsim.Millisecond
	dp, cp, _ := warmPipeline(t, cfg, false)
	var buf bytes.Buffer
	if err := SaveState(&buf, dp, cp); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	blob := buf.Bytes()

	fresh := func(c Config) (*Dataplane, *ControlPlane) {
		d := NewDataplane(c, false)
		return d, NewControlPlane(d, &fakeClock{}, c)
	}

	t.Run("checksum", func(t *testing.T) {
		bad := append([]byte{}, blob...)
		bad[len(bad)/2] ^= 0x40
		d, c := fresh(cfg)
		if err := RestoreState(bytes.NewReader(bad), d, c); err == nil {
			t.Fatal("accepted a corrupt snapshot")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		d, c := fresh(cfg)
		if err := RestoreState(bytes.NewReader(blob[:len(blob)-7]), d, c); err == nil {
			t.Fatal("accepted a truncated snapshot")
		}
	})
	t.Run("magic", func(t *testing.T) {
		bad := append([]byte{}, blob...)
		bad[0] = 'X'
		d, c := fresh(cfg)
		if err := RestoreState(bytes.NewReader(bad), d, c); err == nil {
			t.Fatal("accepted bad magic")
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte{}, blob...)
		bad[8] = 0xFF
		d, c := fresh(cfg)
		if err := RestoreState(bytes.NewReader(bad), d, c); err == nil {
			t.Fatal("accepted an unknown version")
		}
	})
	t.Run("structural-mismatch", func(t *testing.T) {
		// A well-sealed snapshot claiming two clustering pipelines is
		// refused before anything changes.
		payload, err := codec.ReadSealed(bytes.NewReader(blob), snapMagic, snapVersion)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(payload, 2)
		var two bytes.Buffer
		if err := codec.WriteSealed(&two, snapMagic, snapVersion, payload); err != nil {
			t.Fatal(err)
		}
		d, c := fresh(cfg)
		var before, after bytes.Buffer
		if err := SaveState(&before, d, c); err != nil {
			t.Fatal(err)
		}
		if err := RestoreState(&two, d, c); err == nil || !strings.Contains(err.Error(), "2 clustering pipelines") {
			t.Fatalf("err = %v, want a refused pipeline count", err)
		}
		if err := SaveState(&after, d, c); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatal("a refused restore changed the pipeline's saved state")
		}
	})
	t.Run("not-fresh", func(t *testing.T) {
		d, c := fresh(cfg)
		d.Assign(mkPkt(1))
		if err := RestoreState(bytes.NewReader(blob), d, c); err == nil {
			t.Fatal("accepted a restore over a pipeline with history")
		}
	})
}

// hostileSnapshot seals an ACCSNAP1 payload for a fresh pipeline of cfg
// that is well formed up to the count named at, which claims 0x7fffffff
// elements and ends the payload (a count inside the decision's one
// cluster is followed by enough zero bytes for the enclosing cluster
// count to pass). Every other list is empty or holds
// one element, and the clusterer blob is empty (it is only interpreted
// once the whole payload has decoded).
func hostileSnapshot(t *testing.T, cfg Config, at string) []byte {
	t.Helper()
	cfg = cfg.withDefaults()
	var e codec.Enc
	seal := func() []byte {
		var buf bytes.Buffer
		if err := codec.WriteSealed(&buf, snapMagic, snapVersion, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	count := func(name string, n uint32) bool {
		if name == at {
			e.U32(0x7fffffff)
			return true
		}
		e.U32(n)
		return false
	}
	e.U32(1)
	e.U32(uint32(cfg.NumQueues))
	e.U32(uint32(cfg.Clustering.MaxClusters))
	e.U8(uint8(cfg.Ranking))
	for _, v := range []eventsim.Time{cfg.PollInterval, cfg.DeployDelay, 0, 0, 0} {
		e.I64(int64(v))
	}
	if count("queue map", 0) {
		return seal()
	}
	e.U32(0) // the clusterer blob's length
	e.Bool(true)
	e.I64(1)
	e.I64(2)
	if count("decision clusters", 1) {
		return seal()
	}
	e.U32(0)
	e.Bool(true)
	if count("decision ranges", 0) || count("decision cardinalities", 0) {
		e.Raw(make([]byte, 64))
		return seal()
	}
	for i := 0; i < 6; i++ {
		e.U64(0)
	}
	if count("decision ranks", 0) || count("decision queues", 0) {
		return seal()
	}
	e.Bool(false)
	e.U32(0)
	for i := 0; i < 4; i++ {
		e.U64(0)
	}
	if count("assigned counters", 0) || count("routed counters", 0) {
		return seal()
	}
	t.Fatalf("no count named %q", at)
	return nil
}

// TestRestoreStateRejectsHostileCounts: every count in the payload is
// checked against the bytes left before anything is allocated from it.
// The queue-map case is a 79-byte file that used to exhaust memory.
func TestRestoreStateRejectsHostileCounts(t *testing.T) {
	cfg := DefaultConfig()
	for _, at := range []string{
		"queue map", "decision clusters", "decision ranges", "decision cardinalities",
		"decision ranks", "decision queues", "assigned counters", "routed counters",
	} {
		t.Run(strings.ReplaceAll(at, " ", "-"), func(t *testing.T) {
			blob := hostileSnapshot(t, cfg, at)
			if at == "queue map" && len(blob) != 79 {
				t.Fatalf("queue-map case is %d bytes, want the 79-byte reproducer", len(blob))
			}
			dp := NewDataplane(cfg, false)
			cp := NewControlPlane(dp, &fakeClock{}, cfg)
			var err error
			if n := allocatedBy(func() { err = RestoreState(bytes.NewReader(blob), dp, cp) }); n > 1<<20 {
				t.Fatalf("restore allocated %d bytes for a %d-byte snapshot", n, len(blob))
			}
			if err == nil || !strings.Contains(err.Error(), "claims 2147483647 elements") {
				t.Fatalf("err = %v, want a refused count", err)
			}
		})
	}
}

// TestRestoreStateFailureChangesNothing: a snapshot that passes the
// structural checks but fails on the clusterer fingerprint must leave
// the target exactly as it was — runtime config, generation, clusterer
// state and all — so re-saving it gives the pre-restore bytes.
func TestRestoreStateFailureChangesNothing(t *testing.T) {
	cfg := DefaultConfig()
	dp, cp, _ := warmPipeline(t, cfg, false)
	slow := 700 * eventsim.Millisecond
	if _, err := cp.Reconfigure(RuntimePatch{PollInterval: &slow}); err != nil {
		t.Fatal(err)
	}
	var src bytes.Buffer
	if err := SaveState(&src, dp, cp); err != nil {
		t.Fatal(err)
	}

	hw := cfg
	hw.Clustering.Features = packet.HardwareFeatures()
	dp2 := NewDataplane(hw, false)
	cp2 := NewControlPlane(dp2, &fakeClock{}, hw)
	var before bytes.Buffer
	if err := SaveState(&before, dp2, cp2); err != nil {
		t.Fatal(err)
	}
	err := RestoreState(bytes.NewReader(src.Bytes()), dp2, cp2)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("err = %v, want a clusterer fingerprint mismatch", err)
	}
	if g := cp2.ConfigGeneration(); g != 1 {
		t.Fatalf("ConfigGeneration = %d after a failed restore, want 1", g)
	}
	if p := cp2.Runtime().PollInterval; p != cfg.PollInterval {
		t.Fatalf("poll interval = %v after a failed restore, want %v", p, cfg.PollInterval)
	}
	var after bytes.Buffer
	if err := SaveState(&after, dp2, cp2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("a failed restore changed the pipeline's saved state")
	}
}
