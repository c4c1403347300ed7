package core

import (
	"reflect"
	"testing"

	"accturbo/internal/packet"
)

// mkFrames marshals n mkPkt packets to wire frames and parses them into
// views, returning both representations of the same stream.
func mkFrames(t testing.TB, n int) ([]*packet.Packet, []packet.FrameView) {
	t.Helper()
	pkts := make([]*packet.Packet, n)
	views := make([]packet.FrameView, n)
	for i := range pkts {
		wire, err := mkPkt(i).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		// Re-unmarshal so the packet side carries exactly what the wire
		// carries (labels and sim-only fields do not survive a frame).
		p, err := packet.Unmarshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		v, err := packet.ParseFrame(wire)
		if err != nil {
			t.Fatal(err)
		}
		pkts[i], views[i] = p, v
	}
	return pkts, views
}

// toFeatures reduces parsed views to the FrameFeatures records the
// ingest producer hands the ring consumer.
func toFeatures(cfg Config, views []packet.FrameView) []FrameFeatures {
	fs := cfg.Clustering.Features
	out := make([]FrameFeatures, len(views))
	for i := range views {
		v := &views[i]
		out[i].Size = uint32(v.Length())
		v.Features(fs, out[i].Vals[:len(fs)])
	}
	return out
}

// TestObserveShardFramesMatchesObserveBatch drives the same wire stream
// through ObserveBatch (struct path) and through ObserveShardFrames
// (fused frame path, in the uneven chunks a ring consumer sees) and
// requires identical queue decisions, counters, and cluster state.
func TestObserveShardFramesMatchesObserveBatch(t *testing.T) {
	cfg := DefaultConfig()
	structSide := NewDataplane(cfg, false)
	frameSide := NewDataplane(cfg, false)

	const n = 4096
	pkts, views := mkFrames(t, n)
	wantQ := make([]int, n)
	structSide.ObserveBatch(pkts, wantQ)

	ffs := toFeatures(cfg, views)
	gotQ := make([]int, n)
	for lo := 0; lo < n; {
		hi := lo + 1 + (lo % 61)
		if hi > n {
			hi = n
		}
		frameSide.ObserveShardFrames(0, ffs[lo:hi], gotQ[lo:hi])
		lo = hi
	}

	for i := range wantQ {
		if gotQ[i] != wantQ[i] {
			t.Fatalf("packet %d queued %d via frames, %d via structs", i, gotQ[i], wantQ[i])
		}
	}
	if a, b := structSide.Observed(), frameSide.Observed(); a != b {
		t.Fatalf("observed %d via frames, %d via structs", b, a)
	}
	if a, b := structSide.AssignedCounts(), frameSide.AssignedCounts(); !reflect.DeepEqual(a, b) {
		t.Fatalf("assigned %v via frames, %v via structs", b, a)
	}
	if a, b := structSide.RoutedCounts(), frameSide.RoutedCounts(); !reflect.DeepEqual(a, b) {
		t.Fatalf("routed %v via frames, %v via structs", b, a)
	}
	a, b := structSide.Snapshot(), frameSide.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("%d clusters via frames, %d via structs", len(b), len(a))
	}
	for i := range a {
		if a[i].Packets != b[i].Packets || a[i].Bytes != b[i].Bytes || a[i].Size != b[i].Size {
			t.Fatalf("cluster %d diverged: %+v vs %+v", i, b[i], a[i])
		}
		if !reflect.DeepEqual(a[i].Ranges, b[i].Ranges) {
			t.Fatalf("cluster %d ranges diverged", i)
		}
	}
}

// TestObserveShardFramesRejectsOtherPipelines: the data plane runs one
// pipeline, so any index but 0 is a caller bug and must fail loudly.
func TestObserveShardFramesRejectsOtherPipelines(t *testing.T) {
	cfg := DefaultConfig()
	dp := NewDataplane(cfg, false)
	_, views := mkFrames(t, 4)
	ffs := toFeatures(cfg, views)
	defer func() {
		if recover() == nil {
			t.Fatal("ObserveShardFrames(1, ...) did not panic")
		}
		if dp.Observed() != 0 {
			t.Fatalf("observed %d packets before panicking", dp.Observed())
		}
	}()
	dp.ObserveShardFrames(1, ffs, nil)
}

// TestObserveShardFramesZeroAlloc gates the frame consumer hot path:
// once the clusterer is warm, classifying a frame batch allocates
// nothing.
func TestObserveShardFramesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := DefaultConfig()
	dp := NewDataplane(cfg, true)
	_, views := mkFrames(t, 256)
	ffs := toFeatures(cfg, views)
	queues := make([]int, len(ffs))
	dp.ObserveShardFrames(0, ffs, queues)
	allocs := testing.AllocsPerRun(100, func() {
		dp.ObserveShardFrames(0, ffs, queues)
	})
	if allocs != 0 {
		t.Fatalf("ObserveShardFrames allocates %v per batch, want 0", allocs)
	}
}
