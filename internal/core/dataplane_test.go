package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"accturbo/internal/cluster"
	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

func mkPkt(i int) *packet.Packet {
	return &packet.Packet{
		SrcIP:    packet.V4(byte(i*37), byte(i*11), byte(i*53), byte(i*91)),
		DstIP:    packet.V4(198, 18, byte(i*7), byte(i*13)),
		Protocol: packet.ProtoUDP, SrcPort: uint16(1024 + i*71), DstPort: 443,
		TTL: uint8(40 + i%100), Length: uint16(100 + (i*131)%1400),
	}
}

// TestAssignConservation: every packet assigned from concurrent
// goroutines lands in exactly one valid slot, and the snapshot accounts
// for all of them.
func TestAssignConservation(t *testing.T) {
	cfg := DefaultConfig()
	dp := NewDataplane(cfg, true)
	const workers, perWorker = 4, 1250
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if a := dp.Assign(mkPkt(w*perWorker + i)); a.Cluster < 0 || a.Cluster >= cfg.Clustering.MaxClusters {
					errs <- fmt.Sprintf("assignment out of range: %+v", a)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	const n = workers * perWorker
	if got := dp.Observed(); got != n {
		t.Fatalf("observed %d packets, fed %d", got, n)
	}
	var snapTotal, assigned uint64
	for _, info := range dp.Snapshot() {
		snapTotal += info.TotalPackets
	}
	for _, c := range dp.AssignedCounts() {
		assigned += c
	}
	if snapTotal != n || assigned != n {
		t.Fatalf("snapshot accounts %d and counters %d packets, fed %d", snapTotal, assigned, n)
	}
}

// TestAssignDeterministic runs the same packet sequence twice through
// the simulator pipeline and requires identical verdicts.
func TestAssignDeterministic(t *testing.T) {
	run := func() []int {
		eng := eventsim.New()
		turbo := New(eng, DefaultConfig())
		out := make([]int, 0, 2000)
		for i := 0; i < 2000; i++ {
			eng.RunUntil(eventsim.Time(i) * eventsim.Millisecond / 4)
			a := turbo.Dataplane().Assign(mkPkt(i % 300))
			out = append(out, a.Cluster, turbo.QueueOf(a.Cluster))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestControlLoopDemotesFlood drives the pipeline under the eventsim
// clock and checks the control plane ranks the polled view and deploys
// a mapping that deprioritizes the flood.
func TestControlLoopDemotesFlood(t *testing.T) {
	cfg := fourClusterConfig()
	eng := eventsim.New()
	turbo := New(eng, cfg)
	flood := &packet.Packet{
		SrcIP: packet.V4(99, 9, 9, 9), DstIP: packet.V4(10, 0, 99, 1),
		Protocol: packet.ProtoUDP, SrcPort: 123, DstPort: 80, Length: 1000,
		Label: packet.Malicious,
	}
	for ms := 0; ms < 1000; ms++ {
		eng.RunUntil(eventsim.Time(ms) * eventsim.Millisecond)
		turbo.Dataplane().Assign(mkPkt(ms % 50))
		for i := 0; i < 9; i++ {
			turbo.Dataplane().Assign(flood)
		}
	}
	eng.RunUntil(eventsim.Time(1100) * eventsim.Millisecond)
	if turbo.Deployments == 0 {
		t.Fatal("control loop never deployed")
	}
	dec := turbo.LastDecision
	if dec == nil {
		t.Fatal("no decision")
	}
	var total uint64
	for _, info := range dec.Clusters {
		total += info.TotalPackets
	}
	if total == 0 {
		t.Fatal("decision snapshot empty")
	}
	floodA := turbo.Dataplane().Assign(flood)
	benignA := turbo.Dataplane().Assign(mkPkt(3))
	if turbo.QueueOf(floodA.Cluster) <= turbo.QueueOf(benignA.Cluster) {
		t.Fatalf("flood queue %d not below benign queue %d",
			turbo.QueueOf(floodA.Cluster), turbo.QueueOf(benignA.Cluster))
	}
}

func TestWallClock(t *testing.T) {
	c := NewWallClock()
	if now := c.Now(); now < 0 {
		t.Fatalf("negative wall time %v", now)
	}
	fired := make(chan eventsim.Time, 1)
	c.After(eventsim.Millisecond, func(now eventsim.Time) { fired <- now })
	select {
	case now := <-fired:
		if now <= 0 {
			t.Fatalf("After fired at %v", now)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("After never fired")
	}

	ticks := make(chan struct{}, 16)
	stop := c.Every(eventsim.Millisecond, func(eventsim.Time) {
		select {
		case ticks <- struct{}{}:
		default:
		}
	})
	select {
	case <-ticks:
	case <-time.After(2 * time.Second):
		t.Fatal("Every never ticked")
	}
	stop()
	stop() // idempotent

	// A cancelled one-shot must not fire.
	cancel := c.After(50*eventsim.Millisecond, func(eventsim.Time) {
		t.Error("cancelled callback fired")
	})
	cancel()
	c.Close()
	time.Sleep(80 * time.Millisecond)
}

func TestControlPlaneOnWallClock(t *testing.T) {
	// The same poll→rank→map→deploy loop must run on the real-time
	// driver: feed a flood and a trickle, step via the wall clock, and
	// expect a deployment that separates them.
	cfg := fourClusterConfig()
	cfg.PollInterval = 5 * eventsim.Millisecond
	cfg.DeployDelay = eventsim.Millisecond
	cfg = cfg.withDefaults()
	dp := NewDataplane(cfg, true)
	clock := NewWallClock()
	defer clock.Close()
	cp := NewControlPlane(dp, clock, cfg)
	cp.Start()
	defer cp.Stop()

	flood := &packet.Packet{
		SrcIP: packet.V4(99, 9, 9, 9), DstIP: packet.V4(10, 0, 99, 1),
		Protocol: packet.ProtoUDP, SrcPort: 123, DstPort: 80, Length: 1000,
	}
	// Feed until a deployment lands that demotes the flood out of the
	// top queue (the very first deployment may predate the benign
	// cluster and legitimately map the lone flood cluster to queue 0).
	deadline := time.Now().Add(5 * time.Second)
	demoted := false
	for time.Now().Before(deadline) {
		var fa cluster.Assignment
		for i := 0; i < 9; i++ {
			fa = dp.Assign(flood)
		}
		dp.Assign(mkPkt(1))
		if cp.Deployments() > 0 && dp.QueueFor(fa.Cluster) > 0 {
			demoted = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if cp.Deployments() == 0 {
		t.Fatal("control plane never deployed on the wall clock")
	}
	if cp.LastDecision() == nil {
		t.Fatal("no decision recorded")
	}
	if !demoted {
		t.Fatal("flood never demoted out of the highest-priority queue")
	}
}

func TestMergeSnapshots(t *testing.T) {
	mk := func(seed byte) []cluster.Info {
		cfg := cluster.DefaultConfig(4, packet.FeatureSet{
			packet.FDstIPByte2, packet.FDstIPByte3, packet.FSrcPort, packet.FDstPort,
		})
		o := cluster.NewOnline(cfg)
		for i := 0; i < 100; i++ {
			p := mkPkt(i)
			p.DstIP = packet.V4(10, 0, seed, byte(i))
			o.Observe(p)
		}
		return o.Snapshot()
	}
	a, b := mk(1), mk(200)
	merged := cluster.MergeSnapshots(cluster.Manhattan, a, b)
	if len(merged) == 0 {
		t.Fatal("empty merge")
	}
	var wantPkts, gotPkts uint64
	for _, s := range [][]cluster.Info{a, b} {
		for _, info := range s {
			wantPkts += info.TotalPackets
		}
	}
	for _, info := range merged {
		gotPkts += info.TotalPackets
		src := a[info.ID]
		other := b[info.ID]
		for f, r := range info.Ranges {
			if r.Min > src.Ranges[f].Min || r.Min > other.Ranges[f].Min ||
				r.Max < src.Ranges[f].Max || r.Max < other.Ranges[f].Max {
				t.Fatalf("slot %d feature %d: merged range %+v does not enclose inputs", info.ID, f, r)
			}
		}
	}
	if gotPkts != wantPkts {
		t.Fatalf("merged packets %d, want %d", gotPkts, wantPkts)
	}
	// Single snapshot merges to itself (counters and ranges).
	self := cluster.MergeSnapshots(cluster.Manhattan, a)
	if len(self) != len(a) {
		t.Fatalf("self-merge length %d != %d", len(self), len(a))
	}
	for i := range self {
		if self[i].TotalPackets != a[i].TotalPackets {
			t.Fatalf("self-merge counters differ at %d", i)
		}
	}
}
