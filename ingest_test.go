package accturbo

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func realtimeCfg() Config {
	cfg := DefaultConfig()
	cfg.PollInterval = FromDuration(5 * time.Millisecond)
	cfg.DeployDelay = FromDuration(time.Millisecond)
	return cfg
}

// TestIngestConservation: every Offer outcome is accounted — accepted
// packets are all classified by Close, shed ones are all counted —
// across multiple producer goroutines on the ring-based stage.
func TestIngestConservation(t *testing.T) {
	d := NewRealTimeDefense(realtimeCfg())
	if err := d.EnableIngest(1024, 2); err != nil {
		t.Fatal(err)
	}
	const producers = 4
	const perProducer = 20000
	var accepted atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if d.Offer(benignPacket(w*perProducer + i)) {
					accepted.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	d.Close()
	total := d.PacketsObserved() + d.IngestShed()
	if total != producers*perProducer {
		t.Fatalf("observed %d + shed %d = %d, want %d offers",
			d.PacketsObserved(), d.IngestShed(), total, producers*perProducer)
	}
	if d.PacketsObserved() != accepted.Load() {
		t.Fatalf("observed %d packets, but %d offers were accepted",
			d.PacketsObserved(), accepted.Load())
	}
}

// TestIngestCloseWhileOffering races Close against active producers:
// whatever interleaving the scheduler picks, accepted + shed must equal
// attempted and every accepted packet must be classified. This is the
// -race gate on the atomic closed flag and the ring close protocol.
func TestIngestCloseWhileOffering(t *testing.T) {
	for iter := 0; iter < 8; iter++ {
		d := NewRealTimeDefense(realtimeCfg())
		if err := d.EnableIngest(256, 2); err != nil {
			t.Fatal(err)
		}
		const producers = 3
		const perProducer = 5000
		var accepted atomic.Uint64
		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					if d.Offer(benignPacket(w*perProducer + i)) {
						accepted.Add(1)
					}
					if i%64 == 0 {
						runtime.Gosched()
					}
				}
			}(w)
		}
		// Close mid-stream; remaining offers must shed cleanly.
		time.Sleep(time.Duration(iter) * 200 * time.Microsecond)
		d.Close()
		wg.Wait()
		if got := d.PacketsObserved() + d.IngestShed(); got != producers*perProducer {
			t.Fatalf("iter %d: observed %d + shed %d = %d, want %d",
				iter, d.PacketsObserved(), d.IngestShed(), got, producers*perProducer)
		}
		if d.PacketsObserved() != accepted.Load() {
			t.Fatalf("iter %d: observed %d, accepted %d", iter, d.PacketsObserved(), accepted.Load())
		}
	}
}

// frameCorpus marshals benign packets to wire frames for the lane path.
func frameCorpus(t testing.TB, n int) [][]byte {
	t.Helper()
	frames := make([][]byte, n)
	for i := range frames {
		wire, err := benignPacket(i).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = wire
	}
	return frames
}

// TestIngestLaneFrames drives the wire-speed frame path end to end:
// frames offered on an exclusive lane (batched publish plus a final
// Flush) are all classified, malformed bytes are rejected and counted,
// and Offer keeps working on the unclaimed lane alongside.
func TestIngestLaneFrames(t *testing.T) {
	d := NewRealTimeDefense(realtimeCfg())
	if err := d.EnableIngest(4096, 2); err != nil {
		t.Fatal(err)
	}
	lane := d.Lane(1)
	frames := frameCorpus(t, 3000)
	var laneAccepted, legacyAccepted uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			if d.Offer(benignPacket(100000 + i)) {
				legacyAccepted++
			}
		}
	}()
	junk := []byte{0x60, 0x00, 0x00}
	for i, f := range frames {
		for {
			res := lane.OfferFrame(f)
			if res == OfferAccepted {
				laneAccepted++
				break
			}
			if res != OfferFull {
				t.Fatalf("frame %d: unexpected result %d", i, res)
			}
			lane.Flush()
			runtime.Gosched()
		}
		if i%500 == 0 {
			if res := lane.OfferFrame(junk); res != OfferRejected {
				t.Fatalf("junk frame returned %d, want OfferRejected", res)
			}
		}
	}
	lane.Flush()
	wg.Wait()
	d.Close()
	if got := d.IngestRejected(); got != 6 {
		t.Fatalf("IngestRejected = %d, want 6", got)
	}
	want := laneAccepted + legacyAccepted
	if d.PacketsObserved() != want {
		t.Fatalf("observed %d, want %d (lane %d + legacy %d; shed %d)",
			d.PacketsObserved(), want, laneAccepted, legacyAccepted, d.IngestShed())
	}
}

// TestOfferMatchesOfferFrame: Offer extracts features on the producer
// side into the same ring records OfferFrame decodes from the wire, so
// one unlabeled stream fed through either producer API must leave the
// clusterer in exactly the same state.
func TestOfferMatchesOfferFrame(t *testing.T) {
	const n = 3000
	cfg := realtimeCfg()
	cfg.ReseedInterval = 0
	cfg.PollInterval = FromDuration(time.Hour) // no poll resets the window counters
	viaOffer := NewRealTimeDefense(cfg)
	viaFrame := NewRealTimeDefense(cfg)
	for _, d := range []*Defense{viaOffer, viaFrame} {
		if err := d.EnableIngest(n, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if !viaOffer.Offer(benignPacket(i)) {
			t.Fatalf("Offer %d shed", i)
		}
	}
	lane := viaFrame.Lane(0)
	for i, f := range frameCorpus(t, n) {
		if res := lane.OfferFrame(f); res != OfferAccepted {
			t.Fatalf("OfferFrame %d returned %d", i, res)
		}
	}
	lane.Flush()
	viaOffer.Close()
	viaFrame.Close()
	if a, b := viaOffer.PacketsObserved(), viaFrame.PacketsObserved(); a != n || b != n {
		t.Fatalf("observed %d via Offer, %d via OfferFrame, want %d", a, b, n)
	}
	if a, b := viaOffer.Clusters(), viaFrame.Clusters(); !reflect.DeepEqual(a, b) {
		t.Fatalf("clusters diverged:\nOffer:      %+v\nOfferFrame: %+v", a, b)
	}
}

// TestIngestLaneClaimExcludesOffer: once every lane is claimed for wire
// use, Offer has nowhere to queue and must shed, not race a
// lock-free producer.
func TestIngestLaneClaimExcludesOffer(t *testing.T) {
	d := NewRealTimeDefense(realtimeCfg())
	if err := d.EnableIngest(64, 1); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Lane(0)
	if d.Offer(benignPacket(1)) {
		t.Fatal("Offer succeeded with every lane claimed")
	}
	if d.IngestShed() != 1 {
		t.Fatalf("shed = %d, want 1", d.IngestShed())
	}
}

// TestIngestHealthDepth: Health reports the ring matrix's capacity and
// current depth.
func TestIngestHealthDepth(t *testing.T) {
	d := NewRealTimeDefense(realtimeCfg())
	if err := d.EnableIngest(512, 2); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	h := d.Health()
	if h.IngestCapacity < 512 {
		t.Fatalf("IngestCapacity = %d, want >= 512", h.IngestCapacity)
	}
	if h.IngestDepth < 0 || h.IngestDepth > h.IngestCapacity {
		t.Fatalf("IngestDepth = %d out of [0,%d]", h.IngestDepth, h.IngestCapacity)
	}
}

// TestOfferFrameZeroAlloc gates the wire-speed producer hot path:
// parse, feature decode, push, and batched publish allocate nothing.
func TestOfferFrameZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d := NewRealTimeDefense(realtimeCfg())
	if err := d.EnableIngest(1<<16, 1); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	lane := d.Lane(0)
	frames := frameCorpus(t, 64)
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range frames {
			for lane.OfferFrame(f) == OfferFull {
				lane.Flush()
				runtime.Gosched()
			}
		}
		lane.Flush()
	})
	if allocs != 0 {
		t.Fatalf("OfferFrame hot path allocates %v per run, want 0", allocs)
	}
}
