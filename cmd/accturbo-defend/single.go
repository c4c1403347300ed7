package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"accturbo"
	"accturbo/internal/packet"
	"accturbo/internal/pcap"
)

// runSingle is the single-node path: one Defense over the capture —
// deterministic, batched, real-time or wire-speed replay — followed by
// the operator report.
func runSingle(o *options, cfg accturbo.Config, src *captureStream, mapped *pcap.MappedReader) {
	newDefense := accturbo.NewDefenseE
	if o.realtime {
		newDefense = accturbo.NewRealTimeDefenseE
	}
	d, err := newDefense(cfg)
	if err != nil {
		fatal(2, err)
	}
	defer d.Close()

	// Restore must land before any traffic: the snapshot format refuses a
	// pipeline that already has history, so a restored process resumes
	// with the pre-save deployed decision instead of re-converging.
	if o.restorePath != "" {
		sf, err := os.Open(o.restorePath)
		if err != nil {
			fatal(1, err)
		}
		if err := d.RestoreState(sf); err != nil {
			sf.Close()
			fatal(1, "restore:", err)
		}
		sf.Close()
		fmt.Printf("restored state from %s: %d packets observed, %d deployments, runtime config %s/%v poll\n",
			o.restorePath, d.PacketsObserved(), d.Deployments(), d.Runtime().Ranking, d.Runtime().PollInterval.Duration())
	}

	var vt *victimTracker
	var vd *accturbo.VictimDetector
	if o.victimsK > 0 {
		vcfg := accturbo.DefaultVictimConfig()
		vcfg.TopK = o.victimsK
		if vd, err = accturbo.NewVictimDetector(vcfg); err != nil {
			fatal(2, err)
		}
		window := time.Duration(o.victimWindowMs) * time.Millisecond
		vt = &victimTracker{vd: vd, window: window, nextAt: window, peaks: map[uint64]accturbo.Victim{}}
		src.tap = vt.observe
	}
	stop := serveAdmin(o.metricsAddr,
		"serving metrics on http://%s/metrics, health on /health, config on /config, snapshots on /snapshot",
		singleRoutes(d, vd))
	defer stop()

	var vf *os.File
	if o.verdictsOut != "" {
		vf, err = os.Create(o.verdictsOut)
		if err != nil {
			fatal(1, err)
		}
		defer vf.Close()
		fmt.Fprintln(vf, "time_us,src,dst,proto,sport,dport,len,cluster,queue,distance")
	}
	// queueCounts[q] accumulates packets scheduled into queue q.
	queueCounts := make([]atomic.Uint64, o.clusters)
	var vfMu sync.Mutex
	processOne := func(c capturedPacket) {
		v := d.Process(c.at, c.pkt)
		if v.Queue >= 0 && v.Queue < len(queueCounts) {
			queueCounts[v.Queue].Add(1)
		}
		if vf != nil {
			vfMu.Lock()
			fmt.Fprintf(vf, "%d,%s,%s,%d,%d,%d,%d,%d,%d,%.0f\n",
				c.at.Microseconds(), c.pkt.SrcIP, c.pkt.DstIP, uint8(c.pkt.Protocol),
				c.pkt.SrcPort, c.pkt.DstPort, c.pkt.Length, v.Cluster, v.Queue, v.Distance)
			vfMu.Unlock()
		}
	}

	if o.cpuProfile != "" {
		pf, err := os.Create(o.cpuProfile)
		if err != nil {
			fatal(1, err)
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			fatal(1, err)
		}
		defer pprof.StopCPUProfile()
	}

	n := 0
	start := time.Now()
	// Every path except per-packet Process skips per-packet verdicts;
	// the scheduling distribution is recovered from the data plane's
	// routed counters afterwards.
	fromRouted := true
	var replayRetries, replayRejected uint64
	switch {
	case o.replay:
		n, replayRetries, replayRejected = replayFrames(d, mapped, o.ingestQueue, o.replayLoops)
	case o.batchSize > 1:
		// Batched ingest: the deterministic pipeline's clock advances to
		// each batch's first timestamp, so control-loop ticks quantize to
		// batch boundaries (the amortization trade-off); in real time
		// whole batches fan out to the workers, each amortizing the
		// clusterer lock and counter flushes over the batch.
		observe := func(at time.Duration, b []*packet.Packet) { d.ObserveBatch(at, b, nil) }
		finish := func() {}
		if o.realtime {
			// Four queued batches per worker let the capture reader run
			// ahead of the workers without buffering the capture.
			var send func([]*packet.Packet)
			send, finish = workerPool(o.ingest, 4*max(o.ingest, 1), func(b []*packet.Packet) { d.ObserveBatch(0, b, nil) })
			observe = func(_ time.Duration, b []*packet.Packet) { send(append([]*packet.Packet(nil), b...)) }
		}
		buf := make([]*packet.Packet, 0, o.batchSize)
		var batchAt time.Duration
		for c, ok := src.next(); ok; c, ok = src.next() {
			if len(buf) == 0 {
				batchAt = c.at
			}
			buf = append(buf, c.pkt)
			n++
			if len(buf) == o.batchSize {
				observe(batchAt, buf)
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			observe(batchAt, buf)
		}
		finish()
	case o.realtime && o.verdictsOut == "":
		// Per-packet real-time ingest through the pipeline's bounded
		// stage: overflow is shed (counted, reported below) instead of
		// buffering without bound when the capture outruns the pipeline.
		if err := d.EnableIngest(o.ingestQueue, max(o.ingest, 1)); err != nil {
			fatal(2, err)
		}
		for c, ok := src.next(); ok; c, ok = src.next() {
			d.Offer(c.pkt)
			n++
		}
	default:
		// Per-packet verdicts. In real time the CSV needs every packet's
		// verdict, so the workers block on a bounded queue instead of
		// shedding.
		fromRouted = false
		process, finish := processOne, func() {}
		if o.realtime {
			// 1024 queued packets decouple the reader from the workers'
			// CSV writes while still bounding memory.
			process, finish = workerPool(o.ingest, 1024, processOne)
		}
		for c, ok := src.next(); ok; c, ok = src.next() {
			process(c)
			n++
		}
		finish()
	}
	// Close drains the bounded ingest stage (if enabled) so routed
	// counters below are complete; the deferred Close becomes a no-op.
	d.Close()
	elapsed := time.Since(start)
	if o.snapshotOut != "" {
		sf, err := os.Create(o.snapshotOut)
		if err != nil {
			fatal(1, err)
		}
		if err := d.SaveState(sf); err != nil {
			fatal(1, "snapshot:", err)
		}
		if err := sf.Close(); err != nil {
			fatal(1, err)
		}
		fmt.Printf("state snapshot written to %s\n", o.snapshotOut)
	}
	if fromRouted {
		for q, c := range d.Metrics().RoutedPkts {
			if q < len(queueCounts) {
				queueCounts[q].Store(c)
			}
		}
	}

	fmt.Printf("processed %d packets from %s\n", n, o.in)
	rate := float64(n) / elapsed.Seconds()
	if o.replay {
		fmt.Printf("replay mode: %d frames over %d pass(es) in %.2fs — %.2f Mpps (%d malformed rejected, %d backpressure retries)\n",
			n, o.replayLoops, elapsed.Seconds(), rate/1e6, replayRejected, replayRetries)
	}
	if o.realtime {
		fmt.Printf("real-time mode: %d ingest goroutines, %.0f pkts/s wall, %d deployments, %d observed, %d shed\n",
			o.ingest, rate, d.Deployments(), d.PacketsObserved(), d.IngestShed())
	}
	src.printChaos(true)
	if h := d.Health(); cfg.FailOpenAfter > 0 && (h.Control.FailOpenEngagements > 0 || h.Control.PanicsRecovered > 0) {
		fmt.Printf("resilience: %d fail-open engagements, %d watchdog trips, %d panics recovered\n",
			h.Control.FailOpenEngagements, h.Control.WatchdogTrips, h.Control.PanicsRecovered)
	}
	if vt != nil {
		vt.report()
	}
	fmt.Println("\nfinal aggregates (operator view):")
	for _, info := range d.Clusters() {
		fmt.Printf("  cluster %d -> queue %d: %8d pkts total, size %.0f\n",
			info.ID, d.QueueOf(info.ID), info.TotalPackets, info.Size)
	}
	fmt.Println("\nscheduling distribution:")
	for q := range queueCounts {
		c := queueCounts[q].Load()
		pct := 0.0
		if n > 0 {
			pct = 100 * float64(c) / float64(n)
		}
		fmt.Printf("  queue %d (priority %d): %8d pkts (%5.1f%%)\n", q, q, c, pct)
	}
	if vf != nil {
		fmt.Printf("\nper-packet verdicts written to %s\n", o.verdictsOut)
	}
}

// workerPool starts max(workers, 1) goroutines running work over
// everything send hands them through a bounded queue; send blocks while
// the queue is full. finish returns once all sent items are processed.
func workerPool[T any](workers, queue int, work func(T)) (send func(T), finish func()) {
	feed := make(chan T, queue)
	var wg sync.WaitGroup
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for x := range feed {
				work(x)
			}
		}()
	}
	return func(x T) { feed <- x }, func() { close(feed); wg.Wait() }
}

// replayFrames is the wire-speed frame replay: raw frames stream
// zero-copy out of the mapped capture into an exclusive SPSC lane, with
// batched publish and the fused feature decode at the producer. A full
// ring flushes and yields (the consumer needs the core) rather than
// shedding, so the measured rate is lossless.
func replayFrames(d *accturbo.Defense, mapped *pcap.MappedReader, capacity, loops int) (n int, retries, rejected uint64) {
	if err := d.EnableIngest(capacity, 1); err != nil {
		fatal(2, err)
	}
	lane := d.Lane(0)
	for loop := 0; loop < loops; loop++ {
		mapped.Reset()
		for {
			_, frame, err := mapped.NextFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				fatal(1, err)
			}
		offer:
			for {
				switch lane.OfferFrame(frame) {
				case accturbo.OfferAccepted:
					n++
					break offer
				case accturbo.OfferRejected:
					rejected++
					break offer
				case accturbo.OfferFull:
					retries++
					lane.Flush()
					runtime.Gosched()
				default: // OfferClosed: nothing more will be accepted
					fatal(1, "ingest closed mid-replay")
				}
			}
		}
	}
	lane.Flush()
	return n, retries, rejected
}

// victimTracker rides the capture chokepoint: every packet's
// destination key and size feed the heavy-keeper, and windows close on
// capture time, so the victim list is deterministic per capture. peaks
// remembers every destination ever listed and its worst window, so the
// end-of-run report survives an attack that ends before the capture
// does.
type victimTracker struct {
	vd             *accturbo.VictimDetector
	window, nextAt time.Duration
	peaks          map[uint64]accturbo.Victim
}

func (t *victimTracker) observe(c capturedPacket) {
	for t.nextAt <= c.at {
		t.advance()
		t.nextAt += t.window
	}
	t.vd.Observe(accturbo.DstKey(c.pkt), uint64(c.pkt.Length))
}

// advance closes the detector's window and folds its list into peaks.
func (t *victimTracker) advance() {
	for _, v := range t.vd.Advance() {
		if p, ok := t.peaks[v.Key]; !ok || v.Share > p.Share {
			old := t.peaks[v.Key]
			if v.Windows < old.Windows {
				v.Windows = old.Windows
			}
			t.peaks[v.Key] = v
		} else if v.Windows > p.Windows {
			p.Windows = v.Windows
			t.peaks[v.Key] = p
		}
	}
}

func (t *victimTracker) report() {
	t.advance() // close the trailing partial window
	fmt.Printf("\nvictim aggregates (heavy-keeper, %d windows of %v):\n", t.vd.Windows(), t.window)
	if len(t.peaks) == 0 {
		fmt.Println("  none listed")
	}
	keys := make([]uint64, 0, len(t.peaks))
	for k := range t.peaks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return t.peaks[keys[i]].Share > t.peaks[keys[j]].Share
	})
	for _, k := range keys {
		v := t.peaks[k]
		fmt.Printf("  dst %s: peak %8d bytes/window (%5.1f%% share), listed %d window(s)\n",
			accturbo.V4(byte(k>>24), byte(k>>16), byte(k>>8), byte(k)),
			v.Bytes, 100*v.Share, v.Windows)
	}
}
