// Realtime: run the concurrent ACC-Turbo pipeline on the wall clock —
// the software-router deployment shape. Several goroutines feed packets
// simultaneously (flood + benign mix), the control loop polls real
// time, and the flood's aggregate is demoted while ingest is still
// running.
//
//	go run ./examples/realtime
package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"accturbo"
)

func main() {
	// Four clusters over the hardware feature set. The real-time
	// pipeline is goroutine-safe: every goroutine feeds the one
	// clusterer and the controller ranks it every PollInterval of wall
	// time.
	cfg := accturbo.HardwareConfig()
	cfg.Clustering.SliceInit = true
	cfg.PollInterval = accturbo.FromDuration(20 * time.Millisecond)
	cfg.DeployDelay = accturbo.FromDuration(2 * time.Millisecond)
	d := accturbo.NewRealTimeDefense(cfg)
	defer d.Close()

	workers := runtime.GOMAXPROCS(0)
	var sent atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			flood := &accturbo.Packet{
				SrcIP: accturbo.V4(203, 0, 113, 9), DstIP: accturbo.V4(198, 18, 7, 1),
				Protocol: 17, SrcPort: 123, DstPort: 7777, TTL: 58, Length: 1000,
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Nine flood packets per benign packet, like the paper's
				// pulse experiments.
				for i := 0; i < 9; i++ {
					d.Process(0, flood.Clone())
				}
				d.Process(0, &accturbo.Packet{
					SrcIP:    accturbo.V4(byte(rng.Intn(224)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))),
					DstIP:    accturbo.V4(198, 18, byte(rng.Intn(256)), byte(rng.Intn(256))),
					Protocol: 6, SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: 443,
					TTL: uint8(32 + rng.Intn(200)), Length: uint16(40 + rng.Intn(1400)),
				})
				sent.Add(10)
			}
		}(w)
	}

	start := time.Now()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	flood := &accturbo.Packet{
		SrcIP: accturbo.V4(203, 0, 113, 9), DstIP: accturbo.V4(198, 18, 7, 1),
		Protocol: 17, SrcPort: 123, DstPort: 7777, TTL: 58, Length: 1000,
	}
	fv := d.Process(0, flood)

	fmt.Printf("== %d ingest goroutines, %.0f pkts/s ==\n",
		workers, float64(d.PacketsObserved())/elapsed.Seconds())
	fmt.Printf("packets fed %d, observed %d (conservation), %d deployments\n",
		sent.Load()+1, d.PacketsObserved(), d.Deployments())

	fmt.Println("\ncluster state (the operator view, §10):")
	for _, info := range d.Clusters() {
		fmt.Printf("cluster %d -> queue %d: %8d pkts since start, size %.0f\n",
			info.ID, d.QueueOf(info.ID), info.TotalPackets, info.Size)
	}
	fmt.Printf("\nflood rides queue %d (0 = best, %d = worst)\n", fv.Queue, d.NumQueues()-1)
	if fv.Queue > 0 {
		fmt.Println("=> demoted on the wall clock, while ingest was running concurrently")
	}

	// The telemetry snapshot: per-queue routing counts show how much
	// traffic each priority level absorbed, and the latency histogram
	// shows the controller's real poll→deploy jitter.
	m := d.Metrics()
	fmt.Println("\ntelemetry snapshot:")
	fmt.Printf("observed %d pkts, %d deployments\n", m.PacketsObserved, m.Deployments)
	for q, n := range m.RoutedPkts {
		fmt.Printf("queue %d routed %8d pkts\n", q, n)
	}
	if m.DeployLatencyNs.Count > 0 {
		fmt.Printf("poll->deploy latency: mean %.2f ms, max %.2f ms over %d deployments\n",
			m.DeployLatencyNs.Mean()/1e6, float64(m.DeployLatencyNs.Max)/1e6, m.DeployLatencyNs.Count)
	}
}
