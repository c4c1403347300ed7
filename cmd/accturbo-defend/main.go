// Command accturbo-defend runs the public Defense pipeline over a pcap
// capture and reports, per packet or per aggregate, how ACC-Turbo
// would schedule the traffic — the operator-facing view (§10) of the
// library. Use cmd/trafficgen to produce input captures, or feed any
// raw-IP pcap.
//
// Single-node modes:
//
//   - Replay (default): the deterministic single pipeline. The control
//     loop runs in the capture's own timeline, so identical inputs
//     yield identical verdicts.
//   - Real time (-realtime): the concurrent pipeline on the wall-clock
//     driver. Capture timestamps are ignored; each packet is reduced to
//     its header features and offered to the bounded ingest stage as
//     fast as the pipeline absorbs them, and the control loop polls on
//     real time — the software-router deployment shape, reported with
//     ingest throughput.
//   - Wire-speed replay (-replay, implies -realtime): the capture is
//     memory-mapped and raw frames stream through an exclusive
//     lock-free ingest lane — fused feature decode, no Packet structs,
//     no copies — the fastest path through the pipeline, reported in
//     Mpps. -replay-loops repeats the capture to lengthen the
//     measurement. Lossless: backpressure retries instead of shedding.
//
// Chaos testing: -chaos-seed and -fault-spec inject deterministic
// faults (packet drop/duplicate/corrupt at the capture stream,
// control-plane stalls via the clock wrapper; see internal/faults),
// and -fail-open-after arms the control-plane watchdog that reverts to
// uniform priority when decisions go stale. -metrics-addr additionally
// serves /health (JSON degradation snapshot; 503 while degraded) next
// to /metrics.
//
// Live operations: -metrics-addr also exposes GET/PUT /config (inspect
// and hot-patch the runtime config — ranking, poll interval, deploy
// delay, fail-open bound — without dropping a packet) and
// POST /snapshot (stream a full defense state snapshot). -snapshot-out
// writes the same snapshot to a file after the capture drains, and
// -restore loads one before processing so a restarted process resumes
// with the pre-save deployed decision instead of re-converging; with
// -restore, -in is optional.
//
// Victim identification: -victims K tracks the top-K destination
// aggregates through the heavy-keeper detector (internal/victim),
// windowed on capture time (-victim-window ms). The hysteresis-stable
// victim list prints after the capture drains and is served live as
// JSON on GET /victims when -metrics-addr is set.
//
// In-process fleet: -fleet-nodes N (N >= 1) runs N pipelines under one
// global ranking coordinator, the capture partitioned across them by
// source IP hash; -coordinator=false starts the fleet partitioned.
//
// Multi-process fleet (real TCP): -coordinator-listen runs the
// standalone ranking coordinator; -coordinator-addr (with -node-id)
// runs one vantage-point node that dials it over the ACCFLEET wire
// protocol with heartbeats and seeded-backoff reconnect. A node that
// loses the coordinator degrades to fleet-fallback:local ranking —
// never undefended FIFO — and recovers automatically when the link
// returns; watch it live on each process's -metrics-addr /health
// (the coordinator's reports per-node last-seen ages). -run-for keeps
// a node polling after its capture drains so liveness demos and smoke
// tests can kill and restart the coordinator mid-run.
//
// Socket-level chaos: -chaos-proxy/-chaos-proxy-target relays node
// connections through a deterministic fault injector (byte corruption
// every -chaos-corrupt-every bytes, mid-frame RSTs every
// -chaos-reset-every, stalls every -chaos-delay-every for
// -chaos-delay-for), all seeded by -chaos-seed. -chaos-plan renders
// the exact per-connection fault schedule without opening a socket —
// CI diffs two renders as the determinism gate.
//
// Usage:
//
//	accturbo-defend -in day.pcap                    # aggregate report
//	accturbo-defend -in day.pcap -verdicts out.csv  # per-packet verdicts
//	accturbo-defend -in day.pcap -realtime
//	accturbo-defend -in day.pcap -replay -replay-loops 4
//	accturbo-defend -in day.pcap -realtime -metrics-addr :9100
//	accturbo-defend -in day.pcap -chaos-seed 7 -fault-spec 'drop:p=0.01;stall:at=5s,for=2s' -fail-open-after 3s
//	accturbo-defend -in day.pcap -snapshot-out day.snap
//	accturbo-defend -restore day.snap -in next.pcap
//	accturbo-defend -in day.pcap -victims 8 -victim-window 500
//	accturbo-defend -in day.pcap -fleet-nodes 3 -coordinator=false
//	accturbo-defend -coordinator-listen :7100 -metrics-addr :9100
//	accturbo-defend -in day.pcap -coordinator-addr :7100 -node-id 1 -metrics-addr :9101 -run-for 30s
//	accturbo-defend -chaos-proxy :7200 -chaos-proxy-target :7100 -chaos-seed 7 -chaos-corrupt-every 4096
//	accturbo-defend -chaos-plan 3 -chaos-seed 7 -chaos-corrupt-every 4096 -chaos-reset-every 32768
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"accturbo"
	"accturbo/internal/faults"
	"accturbo/internal/fleet"
	"accturbo/internal/packet"
	"accturbo/internal/pcap"
)

func fatal(code int, v ...any) {
	fmt.Fprintln(os.Stderr, v...)
	os.Exit(code)
}

// options holds every command-line flag.
type options struct {
	in, verdictsOut, metricsAddr, faultSpec, cpuProfile, restorePath, snapshotOut string
	coordListen, coordAddr, chaosProxyAddr, chaosProxyTarget                      string

	clusters, pollMs, reseedMs, replayLoops, ingest, ingestQueue, batchSize int
	victimsK, victimWindowMs, fleetNodes, chaosPlan                         int

	realtime, replay, coordinator bool
	failOpenAfter, runFor         time.Duration
	nodeID                        uint
	chaosPlanHorizon              uint64
	chaos                         fleet.ChaosSpec // -chaos-seed also seeds -fault-spec
}

// parseFlags parses the command line (without the program name); a
// malformed one exits 2 with the usage text, as the flag package does.
func parseFlags(args []string) *options {
	o := &options{}
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.StringVar(&o.in, "in", "", "input pcap (raw-IP linktype)")
	fs.StringVar(&o.verdictsOut, "verdicts", "", "optional CSV of per-packet verdicts")
	fs.IntVar(&o.clusters, "clusters", 4, "number of clusters / priority queues")
	fs.IntVar(&o.pollMs, "poll", 250, "controller poll interval (ms)")
	fs.IntVar(&o.reseedMs, "reseed", 1000, "cluster re-initialization period (ms, 0 = never)")
	fs.BoolVar(&o.realtime, "realtime", false, "run the wall-clock pipeline instead of deterministic replay")
	fs.BoolVar(&o.replay, "replay", false, "wire-speed frame replay: memory-map the capture and stream raw frames through a lock-free ingest lane (implies -realtime; lossless, retries under backpressure)")
	fs.IntVar(&o.replayLoops, "replay-loops", 1, "passes over the capture in -replay mode")
	fs.IntVar(&o.ingest, "ingest", runtime.GOMAXPROCS(0), "ingest goroutines in real-time mode")
	fs.IntVar(&o.ingestQueue, "ingest-queue", 8192, "bounded ingest queue capacity in real-time mode (overflow is shed, not buffered)")
	fs.IntVar(&o.batchSize, "batch", 0, "feed packets through ObserveBatch in batches of this size (0 = per-packet; incompatible with -verdicts)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics and /health on this address (e.g. :9100) while processing")
	fs.Uint64Var(&o.chaos.Seed, "chaos-seed", 0, "seed for deterministic fault injection (used with -fault-spec)")
	fs.StringVar(&o.faultSpec, "fault-spec", "", "fault plan, e.g. 'drop:p=0.01;dup:p=0.005;stall:at=5s,for=2s' (see internal/faults)")
	fs.DurationVar(&o.failOpenAfter, "fail-open-after", 0, "watchdog staleness bound: revert to uniform priority when no decision deploys for this long (0 = disabled)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the processing loop to this file")
	fs.StringVar(&o.restorePath, "restore", "", "restore defense state from this snapshot file before processing (see -snapshot-out)")
	fs.StringVar(&o.snapshotOut, "snapshot-out", "", "write a defense state snapshot to this file after the capture drains")
	fs.IntVar(&o.victimsK, "victims", 0, "track the top-K victim destination aggregates per window through the heavy-keeper detector (0 = off; adds GET /victims to -metrics-addr)")
	fs.IntVar(&o.victimWindowMs, "victim-window", 1000, "victim-detection window length (ms of capture time; used with -victims)")
	fs.IntVar(&o.fleetNodes, "fleet-nodes", 0, "run this many in-process fleet nodes under one global ranking coordinator (0 = single-node mode); capture traffic is partitioned across nodes by source IP hash")
	fs.BoolVar(&o.coordinator, "coordinator", true, "with -fleet-nodes: keep the ranking coordinator reachable; false starts the fleet partitioned, so every node runs on its sticky local fallback ranking")
	fs.StringVar(&o.coordListen, "coordinator-listen", "", "run the standalone fleet ranking coordinator on this TCP address (multi-process fleet mode; no capture needed)")
	fs.StringVar(&o.coordAddr, "coordinator-addr", "", "run as one fleet node dialing the coordinator at this TCP address (multi-process fleet mode; use with -node-id)")
	fs.UintVar(&o.nodeID, "node-id", 1, "this node's fleet id (>= 1, unique per fleet; used with -coordinator-addr)")
	fs.DurationVar(&o.runFor, "run-for", 0, "multi-process fleet modes: keep running (and polling) this long after the capture drains (0 = forever for -coordinator-listen/-chaos-proxy, exit after drain for nodes)")
	fs.StringVar(&o.chaosProxyAddr, "chaos-proxy", "", "run a socket-level chaos relay on this TCP address (use with -chaos-proxy-target and the -chaos-* schedule flags)")
	fs.StringVar(&o.chaosProxyTarget, "chaos-proxy-target", "", "the address the chaos relay forwards to (usually the coordinator)")
	fs.IntVar(&o.chaos.CorruptEvery, "chaos-corrupt-every", 0, "chaos relay: XOR one byte roughly every N relayed bytes (0 = off)")
	fs.IntVar(&o.chaos.ResetEvery, "chaos-reset-every", 0, "chaos relay: hard-reset the connection (RST) roughly every N relayed bytes (0 = off)")
	fs.IntVar(&o.chaos.DelayEvery, "chaos-delay-every", 0, "chaos relay: stall the relay roughly every N relayed bytes (0 = off)")
	fs.DurationVar(&o.chaos.DelayFor, "chaos-delay-for", 50*time.Millisecond, "chaos relay: stall duration for -chaos-delay-every")
	fs.IntVar(&o.chaosPlan, "chaos-plan", 0, "print the deterministic chaos-relay fault schedule for this many connections and exit (determinism gate; uses the -chaos-* flags)")
	fs.Uint64Var(&o.chaosPlanHorizon, "chaos-plan-horizon", 1<<16, "bytes of each connection direction the -chaos-plan render covers")
	fs.Parse(args)
	return o
}

// mode names the run function the flags select once the chaos-relay
// modes, which need no pipeline, are ruled out.
func (o *options) mode() string {
	switch {
	case o.coordListen != "":
		return "coordinator"
	case o.coordAddr != "":
		return "node"
	case o.fleetNodes >= 1:
		return "fleet"
	}
	return "single"
}

// validate normalizes the implied flag (-replay implies -realtime) and
// rejects flag combinations no mode accepts; every error is a usage
// error.
func (o *options) validate() error {
	tcpFleet := o.coordListen != "" || o.coordAddr != ""
	if o.replay {
		o.realtime = true
	}
	switch {
	case o.in == "" && o.restorePath == "" && !tcpFleet:
		return errors.New("missing -in capture (or -restore snapshot)")
	case o.replay && o.in == "":
		return errors.New("-replay needs an -in capture")
	case o.replay && (o.verdictsOut != "" || o.batchSize > 1 || o.faultSpec != "" || o.victimsK > 0):
		return errors.New("-replay streams raw frames and cannot be combined with -verdicts, -batch, -fault-spec, or -victims")
	case o.replay && o.replayLoops < 1:
		return errors.New("-replay-loops must be at least 1")
	case o.batchSize > 1 && o.verdictsOut != "":
		return errors.New("-batch cannot be combined with -verdicts: the batch path reports queue counts, not per-packet distances")
	case o.fleetNodes < 0:
		return errors.New("-fleet-nodes must not be negative")
	case o.coordListen != "" && o.coordAddr != "":
		return errors.New("-coordinator-listen and -coordinator-addr are different processes; pick one")
	case tcpFleet && (o.fleetNodes > 0 || o.singleNodeOnly()):
		return errors.New("multi-process fleet modes cannot be combined with -fleet-nodes, -replay, -verdicts, -batch, -restore, -snapshot-out, or -victims")
	case o.fleetNodes > 0 && o.singleNodeOnly():
		return errors.New("-fleet-nodes cannot be combined with -replay, -verdicts, -batch, -restore, -snapshot-out, or -victims")
	case o.victimsK > 0 && o.victimWindowMs <= 0:
		return errors.New("-victim-window must be positive")
	}
	return nil
}

// singleNodeOnly reports whether a flag only the single-node pipeline
// supports is set.
func (o *options) singleNodeOnly() bool {
	return o.replay || o.verdictsOut != "" || o.batchSize > 1 || o.restorePath != "" ||
		o.snapshotOut != "" || o.victimsK > 0
}

// config builds the per-node pipeline configuration.
func (o *options) config(injector *faults.Injector) accturbo.Config {
	cfg := accturbo.HardwareConfig()
	cfg.Clustering.MaxClusters = o.clusters
	cfg.Clustering.SliceInit = true
	cfg.NumQueues = o.clusters
	cfg.PollInterval = accturbo.FromDuration(time.Duration(o.pollMs) * time.Millisecond)
	cfg.DeployDelay = cfg.PollInterval / 5
	if o.reseedMs > 0 {
		cfg.ReseedInterval = accturbo.FromDuration(time.Duration(o.reseedMs) * time.Millisecond)
	}
	cfg.FailOpenAfter = accturbo.FromDuration(o.failOpenAfter)
	if injector != nil {
		// Stall windows wrap the control loop's clock: the capture
		// timeline in replay mode, wall time since startup in real-time
		// mode. The watchdog stays on the unwrapped clock either way.
		cfg.WrapClock = injector.ClockWrapper()
	}
	return cfg
}

func main() {
	o := parseFlags(os.Args[1:])
	if o.chaosPlan > 0 {
		fmt.Print(o.chaos.Plan(o.chaosPlan, o.chaosPlanHorizon))
		return
	}
	if o.chaosProxyAddr != "" {
		if o.chaosProxyTarget == "" {
			fatal(2, "-chaos-proxy needs -chaos-proxy-target")
		}
		runChaosProxy(o.chaosProxyAddr, o.chaosProxyTarget, o.chaos, o.runFor)
		return
	}
	if err := o.validate(); err != nil {
		fatal(2, err)
	}
	spec, err := faults.ParseSpec(o.faultSpec)
	if err != nil {
		fatal(2, err)
	}
	src := &captureStream{seed: o.chaos.Seed, spec: spec}
	if !spec.Empty() {
		src.injector = faults.New(o.chaos.Seed, spec)
	}

	// The replay path maps the capture instead of streaming it; frames
	// stay valid until the mapping closes, which the deferred Close runs
	// after the pipeline has drained.
	var mapped *pcap.MappedReader
	switch {
	case o.replay:
		if mapped, err = pcap.OpenMapped(o.in); err != nil {
			fatal(1, err)
		}
		defer mapped.Close()
	case o.in != "":
		f, err := os.Open(o.in)
		if err != nil {
			fatal(1, err)
		}
		defer f.Close()
		if src.r, err = pcap.NewReader(f); err != nil {
			fatal(1, err)
		}
	}

	cfg := o.config(src.injector)
	switch o.mode() {
	case "coordinator":
		runTCPCoordinator(cfg, o.coordListen, o.metricsAddr, o.runFor)
	case "node":
		runTCPNode(cfg, o.coordAddr, uint32(o.nodeID), o.metricsAddr, src, o.runFor)
	case "fleet":
		runFleet(cfg, o.fleetNodes, o.coordinator, o.metricsAddr, src)
	default:
		runSingle(o, cfg, src, mapped)
	}
}

// capturedPacket is one packet of the capture stream with its capture
// timestamp.
type capturedPacket struct {
	at  time.Duration
	pkt *packet.Packet
}

// captureStream yields the capture with packet-level faults applied:
// injected drops vanish, duplicates follow their original back to back,
// and corruption mutates headers in place — all deterministic under
// -chaos-seed. tap, when set, sees every packet the stream yields. A
// nil reader yields nothing (-restore without -in).
type captureStream struct {
	r        *pcap.Reader
	injector *faults.Injector // nil without -fault-spec
	seed     uint64
	spec     faults.Spec
	tap      func(capturedPacket)
	dup      *capturedPacket // duplicate owed before the next read
}

func (s *captureStream) next() (capturedPacket, bool) {
	c, ok := s.read()
	if ok && s.tap != nil {
		s.tap(c)
	}
	return c, ok
}

func (s *captureStream) read() (capturedPacket, bool) {
	if c := s.dup; c != nil {
		s.dup = nil
		return *c, true
	}
	for s.r != nil {
		at, p, err := s.r.Next()
		if err != nil {
			break
		}
		c := capturedPacket{at: at.Duration(), pkt: p}
		if s.injector != nil {
			drop, dup := s.injector.Mangle(p)
			if drop {
				continue
			}
			if dup {
				cp := *p
				s.dup = &capturedPacket{at: c.at, pkt: &cp}
			}
		}
		return c, true
	}
	return capturedPacket{}, false
}

// printChaos reports the fault counters (nothing without -fault-spec);
// control adds the control-plane stall counters.
func (s *captureStream) printChaos(control bool) {
	inj := s.injector
	if inj == nil {
		return
	}
	fmt.Printf("chaos (seed %d, spec %q): %d dropped, %d duplicated, %d corrupted",
		s.seed, s.spec.String(), inj.PacketsDropped.Value(), inj.PacketsDuplicated.Value(), inj.PacketsCorrupted.Value())
	if control {
		fmt.Printf(", %d polls suppressed, %d callbacks delayed", inj.PollsSuppressed.Value(), inj.CallbacksDelayed.Value())
	}
	fmt.Println()
}

// serveAdmin is the one -metrics-addr HTTP server every mode shares: it
// listens on addr, serves routes, prints banner (a format string taking
// the bound address) and returns the function that stops the server.
// An empty addr serves nothing.
func serveAdmin(addr, banner string, routes map[string]http.HandlerFunc) (stop func()) {
	if addr == "" {
		return func() {}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(1, err)
	}
	srv := &http.Server{Handler: adminMux(routes)}
	go srv.Serve(ln)
	fmt.Printf(banner+"\n", ln.Addr())
	return func() { srv.Close() }
}

func adminMux(routes map[string]http.HandlerFunc) *http.ServeMux {
	mux := http.NewServeMux()
	for path, h := range routes {
		mux.HandleFunc(path, h)
	}
	return mux
}

// writeJSON answers with v as a JSON document. Degraded answers 503
// first: load balancers read the status line, and degraded means "stop
// sending me traffic", even though the data plane is still forwarding
// fail-open.
func writeJSON(w http.ResponseWriter, degraded bool, v any) {
	w.Header().Set("Content-Type", "application/json")
	if degraded {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// metricsHandler serves the Defense's telemetry registry in the
// Prometheus text format.
func metricsHandler(d *accturbo.Defense) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := d.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// healthHandler serves the Defense's Health snapshot, 503 while
// degraded. wrap, when non-nil, embeds the snapshot in a mode-specific
// document.
func healthHandler(d *accturbo.Defense, wrap func(accturbo.Health) any) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		h := d.Health()
		var doc any = h
		if wrap != nil {
			doc = wrap(h)
		}
		writeJSON(w, h.Degraded, doc)
	}
}

// singleRoutes are the single-node admin routes: metrics, health, the
// live config, state snapshots and, with a victim detector, the victim
// list.
func singleRoutes(d *accturbo.Defense, vd *accturbo.VictimDetector) map[string]http.HandlerFunc {
	routes := map[string]http.HandlerFunc{
		"/metrics": metricsHandler(d),
		"/health":  healthHandler(d, nil),
		"/config": func(w http.ResponseWriter, req *http.Request) {
			switch req.Method {
			case http.MethodGet:
				writeConfig(w, d)
			case http.MethodPut:
				var cp configPatch
				if err := json.NewDecoder(req.Body).Decode(&cp); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				patch, err := cp.toRuntimePatch()
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				if _, err := d.Reconfigure(patch); err != nil {
					http.Error(w, err.Error(), http.StatusUnprocessableEntity)
					return
				}
				writeConfig(w, d)
			default:
				http.Error(w, "GET or PUT", http.StatusMethodNotAllowed)
			}
		},
		"/snapshot": func(w http.ResponseWriter, req *http.Request) {
			if req.Method != http.MethodPost {
				http.Error(w, "POST", http.StatusMethodNotAllowed)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Disposition", `attachment; filename="defense.snap"`)
			if err := d.SaveState(w); err != nil {
				// Headers are gone; the truncated body fails the snapshot's
				// own checksum on restore, so the client still can't load it.
				fmt.Fprintln(os.Stderr, "snapshot:", err)
			}
		},
	}
	if vd != nil {
		routes["/victims"] = func(w http.ResponseWriter, _ *http.Request) {
			vs := vd.Victims()
			if vs == nil {
				vs = []accturbo.Victim{}
			}
			writeJSON(w, false, struct {
				Windows uint64            `json:"windows"`
				Victims []accturbo.Victim `json:"victims"`
			}{vd.Windows(), vs})
		}
	}
	return routes
}

// configPatch is the admin wire format for PUT /config: ranking by
// name (as printed in the paper — "Th.", "N.P.", …) and durations in
// milliseconds, friendlier for curl than the library's nanosecond
// virtual-time fields. Absent fields keep their current value.
type configPatch struct {
	Ranking    *string  `json:"ranking,omitempty"`
	PollMs     *float64 `json:"poll_interval_ms,omitempty"`
	DeployMs   *float64 `json:"deploy_delay_ms,omitempty"`
	ReseedMs   *float64 `json:"reseed_interval_ms,omitempty"`
	FailOpenMs *float64 `json:"fail_open_after_ms,omitempty"`
	WatchdogMs *float64 `json:"watchdog_interval_ms,omitempty"`
}

func (c configPatch) toRuntimePatch() (accturbo.RuntimePatch, error) {
	var p accturbo.RuntimePatch
	if c.Ranking != nil {
		r, err := accturbo.ParseRanking(*c.Ranking)
		if err != nil {
			return p, err
		}
		p.Ranking = &r
	}
	var err error
	ms := func(name string, v *float64) *accturbo.VirtualTime {
		if v == nil {
			return nil
		}
		// Converting a float outside int64 to an integer is
		// implementation-defined in Go, so range-check first.
		ns := *v * float64(time.Millisecond)
		if !(ns >= math.MinInt64 && ns < math.MaxInt64) {
			err = fmt.Errorf("%s: %g ms is out of range for a duration", name, *v)
			return nil
		}
		t := accturbo.FromDuration(time.Duration(ns))
		return &t
	}
	p.PollInterval = ms("poll_interval_ms", c.PollMs)
	p.DeployDelay = ms("deploy_delay_ms", c.DeployMs)
	p.ReseedInterval = ms("reseed_interval_ms", c.ReseedMs)
	p.FailOpenAfter = ms("fail_open_after_ms", c.FailOpenMs)
	p.WatchdogInterval = ms("watchdog_interval_ms", c.WatchdogMs)
	return p, err
}

func writeConfig(w http.ResponseWriter, d *accturbo.Defense) {
	rt := d.Runtime()
	msOf := func(t accturbo.VirtualTime) float64 {
		return float64(t.Duration()) / float64(time.Millisecond)
	}
	writeJSON(w, false, map[string]any{
		"generation":           d.ConfigGeneration(),
		"ranking":              rt.Ranking.String(),
		"poll_interval_ms":     msOf(rt.PollInterval),
		"deploy_delay_ms":      msOf(rt.DeployDelay),
		"reseed_interval_ms":   msOf(rt.ReseedInterval),
		"fail_open_after_ms":   msOf(rt.FailOpenAfter),
		"watchdog_interval_ms": msOf(rt.WatchdogInterval),
	})
}
