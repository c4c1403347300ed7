package core

import (
	"reflect"
	"testing"

	"accturbo/internal/packet"
)

// TestObserveBatchMatchesClassify: driving the same packet sequence
// through ObserveBatch (in chunks) and through per-packet Classify must
// produce identical queue choices, clusterer state, and aggregate
// counters. The clusterer sees the packets in the same order on both
// paths, so they are the same computation.
func TestObserveBatchMatchesClassify(t *testing.T) {
	cfg := DefaultConfig()
	perPkt := NewDataplane(cfg, false)
	batched := NewDataplane(cfg, false)

	const n = 4096
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		pkts[i] = mkPkt(i)
	}
	wantQ := make([]int, n)
	for i, p := range pkts {
		_, wantQ[i] = perPkt.Classify(p)
	}
	gotQ := make([]int, n)
	// Uneven chunk sizes exercise the batch seams.
	for lo := 0; lo < n; {
		hi := lo + 1 + (lo % 97)
		if hi > n {
			hi = n
		}
		batched.ObserveBatch(pkts[lo:hi], gotQ[lo:hi])
		lo = hi
	}

	for i := range wantQ {
		if gotQ[i] != wantQ[i] {
			t.Fatalf("packet %d routed to queue %d via batch, %d via Classify", i, gotQ[i], wantQ[i])
		}
	}
	if a, b := perPkt.Observed(), batched.Observed(); a != b {
		t.Fatalf("observed %d vs %d", b, a)
	}
	if a, b := perPkt.AssignedCounts(), batched.AssignedCounts(); !reflect.DeepEqual(a, b) {
		t.Fatalf("assigned %v via batch, %v via Classify", b, a)
	}
	if a, b := perPkt.RoutedCounts(), batched.RoutedCounts(); !reflect.DeepEqual(a, b) {
		t.Fatalf("routed %v via batch, %v via Classify", b, a)
	}
	if a, b := perPkt.Snapshot(), batched.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatal("cluster state diverged between batch and Classify")
	}
}

// TestObserveBatchNilQueues: passing nil queues only skips the
// per-packet queue report; counters still advance.
func TestObserveBatchNilQueues(t *testing.T) {
	cfg := DefaultConfig()
	dp := NewDataplane(cfg, false)
	pkts := make([]*packet.Packet, 100)
	for i := range pkts {
		pkts[i] = mkPkt(i)
	}
	dp.ObserveBatch(pkts, nil)
	if dp.Observed() != 100 {
		t.Fatalf("observed %d, want 100", dp.Observed())
	}
	var routed uint64
	for _, c := range dp.RoutedCounts() {
		routed += c
	}
	if routed != 100 {
		t.Fatalf("routed total %d, want 100", routed)
	}
}

// TestObserveBatchShortQueuesPanics: a too-short queues slice is a
// caller bug and must fail loudly, not write out of bounds.
func TestObserveBatchShortQueuesPanics(t *testing.T) {
	dp := NewDataplane(DefaultConfig(), false)
	pkts := []*packet.Packet{mkPkt(1), mkPkt(2)}
	defer func() {
		if recover() == nil {
			t.Fatal("short queues slice did not panic")
		}
	}()
	dp.ObserveBatch(pkts, make([]int, 1))
}

// TestObserveBatchZeroAlloc is the unit gate on the batched per-packet
// path: once the clusterer is warm, classifying a batch allocates
// nothing.
func TestObserveBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	dp := NewDataplane(DefaultConfig(), false)
	pkts := make([]*packet.Packet, 256)
	for i := range pkts {
		pkts[i] = mkPkt(i)
	}
	queues := make([]int, len(pkts))
	dp.ObserveBatch(pkts, queues) // warm the clusterer
	allocs := testing.AllocsPerRun(100, func() {
		dp.ObserveBatch(pkts, queues)
	})
	if allocs != 0 {
		t.Fatalf("ObserveBatch allocates %v per batch, want 0", allocs)
	}
}

func BenchmarkDataplaneObserveBatch(b *testing.B) {
	dp := NewDataplane(DefaultConfig(), false)
	pkts := make([]*packet.Packet, 256)
	for i := range pkts {
		pkts[i] = mkPkt(i)
	}
	queues := make([]int, len(pkts))
	dp.ObserveBatch(pkts, queues)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp.ObserveBatch(pkts, queues)
	}
}
