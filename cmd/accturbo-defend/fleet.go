package main

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"time"

	"accturbo"
	"accturbo/internal/fleet"
	"accturbo/internal/packet"
)

// nodeOf partitions the capture across an in-process fleet by an
// FNV-1a hash of the source IP. The modulus is taken in uint32, so the
// index is never negative where int is 32 bits wide.
func nodeOf(p *packet.Packet, nodes int) int {
	h := fnv.New32a()
	a := p.SrcIP.As4()
	h.Write(a[:])
	return int(h.Sum32() % uint32(nodes))
}

// replayPolled feeds the capture to process, driving the control loops
// through poll at a data-driven cadence: a capture drains far faster
// than wall-clock poll intervals, so without this a short replay would
// finish before the first poll. It returns the packet count.
func replayPolled(src *captureStream, process func(capturedPacket), poll func()) int {
	total := 0
	for c, ok := src.next(); ok; c, ok = src.next() {
		process(c)
		total++
		if total%5000 == 0 {
			poll()
			time.Sleep(2 * time.Millisecond)
		}
	}
	return total
}

// settle runs three final polls, long enough apart for the last window
// to rank and the coordinator's broadcast to land.
func settle(poll func()) {
	for round := 0; round < 3; round++ {
		poll()
		time.Sleep(20 * time.Millisecond)
	}
}

// runFleet is the -fleet-nodes path: N full pipelines over one
// in-process coordinator, the capture partitioned across them by source
// IP hash — each node sees only its ingress slice of the traffic, the
// way a distributed-source attack spreads over real vantage points.
// With -coordinator=false the fleet starts partitioned: every node
// rides its sticky local fallback ranking, which is the degraded mode
// an operator would see during a real coordinator outage.
func runFleet(cfg accturbo.Config, nodes int, coordinatorUp bool, metricsAddr string, src *captureStream) {
	f, err := accturbo.NewFleetE(accturbo.FleetConfig{Nodes: nodes, Node: cfg})
	if err != nil {
		fatal(2, err)
	}
	defer f.Close()
	if !coordinatorUp {
		f.SetLink(false)
	}
	stop := serveAdmin(metricsAddr, "serving fleet health on http://%s/health",
		map[string]http.HandlerFunc{"/health": fleetHealthHandler(f)})
	defer stop()

	perNode := make([]int, nodes)
	pollAll := func() {
		for n := 0; n < f.Nodes(); n++ {
			f.Node(n).Poll()
		}
	}
	total := replayPolled(src, func(c capturedPacket) {
		n := nodeOf(c.pkt, nodes)
		f.Node(n).Process(c.at, c.pkt)
		perNode[n]++
	}, pollAll)
	settle(pollAll)

	fmt.Printf("fleet mode: %d nodes, %d packets partitioned by source IP\n", nodes, total)
	src.printChaos(false)
	for n := 0; n < f.Nodes(); n++ {
		h := f.Node(n).Health()
		st := f.NodeStats(n)
		fmt.Printf("  node %d: %8d pkts, ranking source %-20s degraded=%-5v fleet/local polls %d/%d\n",
			n, perNode[n], h.Control.RankSource, h.Degraded, st.FleetPolls, st.LocalPolls)
	}
	cs := f.CoordinatorStats()
	fmt.Printf("coordinator: %d nodes reporting, epoch %d, %d merges, %d rejected frames\n",
		cs.Nodes, cs.Epoch, cs.Merges, cs.Rejected)

	fmt.Println("\nfleet-merged aggregates (global operator view):")
	merged := f.MergedClusters()
	var queueOf []int
	if dec := f.LastGlobalDecision(); dec != nil {
		queueOf = dec.QueueOf
	}
	for _, info := range merged {
		q := "-"
		if info.ID < len(queueOf) {
			q = fmt.Sprint(queueOf[info.ID])
		}
		fmt.Printf("  slot %d -> queue %s: %8d pkts this window, size %.0f\n",
			info.ID, q, info.Packets, info.Size)
	}
	if len(merged) == 0 {
		fmt.Println("  (no merged view: no node reached the coordinator)")
	}
}

// fleetHealthHandler is the in-process fleet's /health: every node's
// snapshot plus the coordinator's counters in one document; 503 while
// any node is degraded.
func fleetHealthHandler(f *accturbo.Fleet) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		type nodeHealth struct {
			Node   int             `json:"node"`
			Health accturbo.Health `json:"health"`
		}
		var out struct {
			Nodes       []nodeHealth                   `json:"nodes"`
			Coordinator accturbo.FleetCoordinatorStats `json:"coordinator"`
		}
		degraded := false
		for n := 0; n < f.Nodes(); n++ {
			h := f.Node(n).Health()
			degraded = degraded || h.Degraded
			out.Nodes = append(out.Nodes, nodeHealth{Node: n, Health: h})
		}
		out.Coordinator = f.CoordinatorStats()
		writeJSON(w, degraded, out)
	}
}

// waitRunFor blocks for runFor, or forever when runFor is zero (the
// process is expected to be killed — the smoke-test shape).
func waitRunFor(runFor time.Duration) {
	if runFor > 0 {
		time.Sleep(runFor)
		return
	}
	select {}
}

// runTCPCoordinator is the -coordinator-listen path: the standalone
// ranking coordinator of a multi-process fleet.
func runTCPCoordinator(cfg accturbo.Config, listen, metricsAddr string, runFor time.Duration) {
	c, err := accturbo.NewFleetTCPCoordinator(accturbo.FleetTCPCoordinatorConfig{
		ListenAddr: listen,
		Node:       cfg,
	})
	if err != nil {
		fatal(1, err)
	}
	defer c.Close()
	fmt.Printf("fleet coordinator listening on %s\n", c.Addr())
	stop := serveAdmin(metricsAddr, "serving coordinator health on http://%s/health",
		map[string]http.HandlerFunc{"/health": coordinatorHealthHandler(c)})
	defer stop()

	waitRunFor(runFor)
	cs, ts := c.Stats(), c.TransportStats()
	fmt.Printf("coordinator: %d nodes reporting, epoch %d, %d merges, %d rejected frames\n",
		cs.Nodes, cs.Epoch, cs.Merges, cs.Rejected)
	fmt.Printf("transport: %d accepted, %d frames in, %d out, %d CRC resets, %d shed, %d drops (no peer %d, queue full %d)\n",
		ts.Accepted, ts.FramesIn, ts.FramesOut, ts.CRCResets, ts.PeersShed,
		ts.DropsNoPeer+ts.DropsQueueFull, ts.DropsNoPeer, ts.DropsQueueFull)
}

// coordinatorHealthHandler is the TCP coordinator's /health: the merge
// counters plus each connected node's last-seen age, so an operator can
// spot a silent vantage point before its snapshots stop mattering.
func coordinatorHealthHandler(c *accturbo.FleetTCPCoordinator) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		type nodeAge struct {
			Node       uint32  `json:"node"`
			LastSeenMs float64 `json:"last_seen_ms"`
		}
		ages := c.NodeAges()
		nodes := make([]nodeAge, 0, len(ages))
		for id, age := range ages {
			nodes = append(nodes, nodeAge{Node: id, LastSeenMs: float64(age) / float64(time.Millisecond)})
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].Node < nodes[j].Node })
		writeJSON(w, false, map[string]any{
			"nodes":       nodes,
			"coordinator": c.Stats(),
			"transport":   c.TransportStats(),
		})
	}
}

// runTCPNode is the -coordinator-addr path: one vantage-point node of a
// multi-process fleet. The capture (when given) replays through the
// node's own pipeline at the same data-driven poll cadence as
// -fleet-nodes; afterwards the node keeps polling for -run-for, so its
// snapshots, heartbeats, and fallback/recovery transitions stay
// observable on /health while a smoke test kills and restarts the
// coordinator around it.
func runTCPNode(cfg accturbo.Config, addr string, id uint32, metricsAddr string, src *captureStream, runFor time.Duration) {
	n, err := accturbo.NewFleetTCP(accturbo.FleetTCPConfig{
		CoordinatorAddr: addr,
		NodeID:          id,
		Node:            cfg,
	})
	if err != nil {
		fatal(1, err)
	}
	defer n.Close()
	d := n.Defense()
	fmt.Printf("fleet node %d dialing coordinator at %s\n", id, addr)
	stop := serveAdmin(metricsAddr, "serving node health on http://%s/health", nodeRoutes(n, id))
	defer stop()

	total := replayPolled(src, func(c capturedPacket) { d.Process(c.at, c.pkt) }, d.Poll)

	// Keep the control loop visibly alive: each tick publishes a
	// snapshot (and applies or ages out fleet deployments), which is
	// what lets /health show fallback and recovery in real time.
	deadline := time.Now().Add(runFor)
	for runFor > 0 && time.Now().Before(deadline) {
		d.Poll()
		time.Sleep(20 * time.Millisecond)
	}
	settle(d.Poll)

	h := d.Health()
	st := n.Stats()
	ts := n.TransportStats()
	fmt.Printf("node %d: %d pkts, ranking source %s, degraded=%v, fleet/local polls %d/%d\n",
		id, total, h.Control.RankSource, h.Degraded, st.FleetPolls, st.LocalPolls)
	fmt.Printf("transport: %d dials, %d connects, %d frames out, %d in, %d CRC resets, %d drops (disconnected %d, queue full %d)\n",
		ts.Dials, ts.Connects, ts.FramesOut, ts.FramesIn, ts.CRCResets,
		ts.DropsDisconnected+ts.DropsQueueFull, ts.DropsDisconnected, ts.DropsQueueFull)
}

// nodeRoutes are a TCP fleet node's admin routes: its Defense's metrics
// and a /health document that adds the link and ranker state.
func nodeRoutes(n *accturbo.FleetTCPNode, id uint32) map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"/metrics": metricsHandler(n.Defense()),
		"/health": healthHandler(n.Defense(), func(h accturbo.Health) any {
			return map[string]any{
				"node":      id,
				"connected": n.Connected(),
				"health":    h,
				"ranker":    n.Stats(),
				"transport": n.TransportStats(),
			}
		}),
	}
}

// runChaosProxy is the -chaos-proxy path: a deterministic socket-level
// fault injector relaying node connections to the coordinator.
func runChaosProxy(listen, target string, spec fleet.ChaosSpec, runFor time.Duration) {
	p, err := fleet.NewChaosProxy(listen, target, spec)
	if err != nil {
		fatal(1, err)
	}
	defer p.Close()
	fmt.Printf("chaos proxy on %s -> %s (seed %d, corrupt-every %d, reset-every %d, delay-every %d for %s)\n",
		p.Addr(), target, spec.Seed, spec.CorruptEvery, spec.ResetEvery, spec.DelayEvery, spec.DelayFor)
	waitRunFor(runFor)
	st := p.Stats()
	fmt.Printf("chaos proxy: %d connections, %d bytes forwarded, %d corrupted, %d resets, %d delays, %d refused while partitioned\n",
		st.Connections, st.BytesForwarded, st.BytesCorrupted, st.ResetsInjected, st.DelaysInjected, st.PartitionRefused)
}
