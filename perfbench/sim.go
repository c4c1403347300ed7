package main

import (
	"errors"
	"fmt"
	"time"

	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/jaqen"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

// The sim-pulsewave workload is the §7.1 pulse-wave scenario of the
// fig6 experiment scaled 1:100 instead of 1:1000: a 100 Mbps
// bottleneck, CAIDA-like background at 60% of it, and four 10 s UDP
// pulses at 4x the link, 100 s simulated. One pass simulates it twice:
// behind an ACC-Turbo strict-priority port and behind a Jaqen-protected
// FIFO.
const (
	simLink     = 100e6
	simDuration = 100 * eventsim.Second
)

// simSampleEvery is the root sampling period of a traced pass.
const simSampleEvery = 128

// pulseWave mirrors fig6's hwPulseWave for a bottleneck of link bits/s
// (background at 60% of it, pulses at 4x); scale shrinks the timeline
// (tests use a short one).
func pulseWave(seed int64, scale, link float64) (traffic.Source, eventsim.Time) {
	at := func(s float64) eventsim.Time { return eventsim.FromSeconds(s * scale) }
	end := at(simDuration.Seconds())
	srcs := []traffic.Source{traffic.NewBackground(traffic.BackgroundConfig{
		Rate: 0.6 * link, Start: 0, End: end, Seed: seed,
	})}
	for i := 0; i < 4; i++ {
		spec := traffic.FlowSpec{
			SrcIP:    packet.V4Addr{203, 0, 113, byte(10 + i)},
			DstIP:    packet.V4Addr{198, 18, 7, byte(1 + i)},
			Protocol: packet.ProtoUDP,
			SrcPort:  uint16(10_000 + i),
			DstPort:  uint16(7000 + i),
			TTL:      58,
			Size:     1000,
			Label:    packet.Malicious,
			Vector:   "UDP-pulse",
			FlowID:   traffic.AggAttack,
		}
		start := at(float64(10 + 20*i))
		srcs = append(srcs, traffic.NewCBR(start, start+at(10), 4*link, spec.Factory(seed+int64(i))))
	}
	return traffic.Merge(srcs...), end
}

// turboConfig is fig6's hwTurboConfig: the §7.1 hardware setup with a
// 250 ms loop, 250 ms deployment and a 1 s reseed.
func turboConfig() core.Config {
	cfg := core.HardwareConfig()
	cfg.PollInterval = 250 * eventsim.Millisecond
	cfg.DeployDelay = 250 * eventsim.Millisecond
	cfg.ReseedInterval = eventsim.Second
	return cfg
}

// jaqenConfig detects a pulse within its two 5 s windows: the
// threshold is half a pulse's packets per window.
func jaqenConfig() jaqen.Config {
	cfg := jaqen.DefaultConfig()
	pulsePkts := 4 * simLink / 8 / 1000 * cfg.Window.Seconds()
	cfg.Threshold = uint64(pulsePkts / 2)
	return cfg
}

// simSide is one defended bottleneck, built and ready to run.
type simSide struct {
	eng   *eventsim.Engine
	rec   *netsim.Recorder
	port  *netsim.Port
	qdisc queue.Qdisc
	src   traffic.Source
	end   eventsim.Time
	cp    *core.ControlPlane // ACC-Turbo side only
	feed  *feeder            // traced passes only
}

// simPair is one pass's two sides.
type simPair struct{ turbo, jaqen *simSide }

// buildPair constructs the engines, both defenses and the sources. With
// a non-nil track every layer boundary is wrapped for tracing and
// steps records the ACC-Turbo control loop.
func buildPair(seed int64, scale float64, t *track, steps *stepClock) (*simPair, error) {
	ts, err := buildTurbo(seed, scale, t, steps)
	if err != nil {
		return nil, err
	}
	js, err := buildJaqen(seed, scale, t)
	if err != nil {
		return nil, err
	}
	return &simPair{turbo: ts, jaqen: js}, nil
}

// buildTurbo wires an ACC-Turbo port the way core.Attach does, with the
// classifier built around core.Dataplane.Classify so it can be timed.
func buildTurbo(seed int64, scale float64, t *track, steps *stepClock) (*simSide, error) {
	cfg := turboConfig()
	if steps != nil {
		cfg.WrapClock = steps.wrap
	}
	eng := eventsim.New()
	dp := core.NewDataplane(cfg, false)
	cp, err := core.NewControlPlaneE(dp, core.SimClock{Eng: eng}, cfg)
	if err != nil {
		return nil, err
	}
	classify := func(_ eventsim.Time, p *packet.Packet) int {
		_, q := dp.Classify(p)
		return q
	}
	if t != nil {
		classify = func(_ eventsim.Time, p *packet.Packet) int {
			sp := t.Begin(stClassify)
			_, q := dp.Classify(p)
			t.End(sp)
			return q
		}
	}
	dcfg := dp.Config()
	prio := queue.NewPriority(dcfg.NumQueues, dcfg.QueueBytes, classify)
	s := newSide(eng, prio, seed, scale, t, stNetsimInject)
	s.cp = cp
	cp.Start()
	return s, nil
}

// buildJaqen wires a FIFO port with Jaqen on its ingress.
func buildJaqen(seed int64, scale float64, t *track) (*simSide, error) {
	eng := eventsim.New()
	s := newSide(eng, queue.NewFIFO(int(simLink/8/10)), seed, scale, t, stJaqenInject)
	if _, err := jaqen.AttachE(eng, s.port, jaqenConfig()); err != nil {
		return nil, err
	}
	return s, nil
}

func newSide(eng *eventsim.Engine, q instrumentedQdisc, seed int64, scale float64, t *track, inject stage) *simSide {
	rec := netsim.NewRecorder(eventsim.Second)
	var qd queue.Qdisc = q
	if t != nil {
		qd = &timedQdisc{instrumentedQdisc: q, t: t}
	}
	port := netsim.NewPort(eng, qd, simLink, rec)
	src, end := pulseWave(seed, scale, simLink)
	pool := packet.NewPool()
	traffic.AttachPool(src, pool)
	port.SetPool(pool)
	s := &simSide{eng: eng, rec: rec, port: port, qdisc: qd, src: src, end: end}
	if t != nil {
		s.feed = &feeder{eng: eng, src: src, port: port, t: t, inject: inject}
	}
	return s
}

// run simulates the side to its end and returns the wall time taken.
func (s *simSide) run() time.Duration {
	start := time.Now()
	if s.feed != nil {
		s.feed.start()
	} else {
		netsim.Replay(s.eng, s.src, s.port)
	}
	s.eng.RunUntil(s.end)
	return time.Since(start)
}

func (s *simSide) arrivals() uint64 { return s.rec.ArrivedBenign() + s.rec.ArrivedMalicious() }

// drops returns the side's benign and malicious drop counts.
func (s *simSide) drops() [2]uint64 {
	return [2]uint64{s.rec.DroppedBenign(), s.rec.DroppedMalicious()}
}

// conservation checks that every arrival was delivered, dropped, is
// still queued, or is the one packet on the wire.
func (s *simSide) conservation(name string) error {
	done := s.rec.DeliveredBenignPkts() + s.rec.DeliveredMaliciousPkts() +
		s.rec.DroppedBenign() + s.rec.DroppedMalicious() + uint64(s.qdisc.Len())
	if a := s.arrivals(); done != a && done+1 != a {
		return fmt.Errorf("%s: %d arrivals but %d delivered, dropped or queued", name, a, done)
	}
	return nil
}

// feeder is netsim.Replay with its two calls timed: each arrival event
// injects the pending packet into the port, then pulls the next one
// from the source, exactly as Replay does.
type feeder struct {
	eng     *eventsim.Engine
	src     traffic.Source
	port    *netsim.Port
	t       *track
	inject  stage
	pending traffic.TimedPacket
}

func (f *feeder) start() {
	if first, ok := f.src.Next(); ok {
		f.schedule(first)
	}
}

func (f *feeder) schedule(tp traffic.TimedPacket) {
	at := tp.At
	if at < f.eng.Now() {
		at = f.eng.Now()
	}
	f.pending = tp
	f.eng.ScheduleArg(at, feedStep, f)
}

func feedStep(now eventsim.Time, arg any) {
	f := arg.(*feeder)
	t := f.t
	root := t.Begin(stEvent)
	sp := t.Begin(f.inject)
	f.port.Inject(now, f.pending.Pkt)
	t.End(sp)
	sp = t.Begin(stTrafficNext)
	next, ok := f.src.Next()
	t.End(sp)
	t.End(root)
	if ok {
		f.schedule(next)
	}
}

// instrumentedQdisc is what netsim.NewPort looks for in a discipline:
// the wrapper must keep drop notification and telemetry wired.
type instrumentedQdisc interface {
	queue.Qdisc
	queue.DropNotifier
	queue.Instrumented
}

// timedQdisc times Enqueue and Dequeue and forwards everything else.
type timedQdisc struct {
	instrumentedQdisc
	t *track
}

func (q *timedQdisc) Enqueue(now eventsim.Time, p *packet.Packet) queue.DropReason {
	sp := q.t.Begin(stEnqueue)
	r := q.instrumentedQdisc.Enqueue(now, p)
	q.t.End(sp)
	return r
}

func (q *timedQdisc) Dequeue(now eventsim.Time) *packet.Packet {
	sp := q.t.Begin(stDequeue)
	p := q.instrumentedQdisc.Dequeue(now)
	q.t.End(sp)
	return p
}

// simPassResult is what one pass reports.
type simPassResult struct {
	arrivals uint64
	wall     time.Duration
	drops    [2][2]uint64 // [turbo, jaqen][benign, malicious]
	deploys  uint64
	mallocs  uint64
}

// runPair simulates both sides and checks each one's conservation.
func runPair(p *simPair) (simPassResult, error) {
	var r simPassResult
	before := mallocs()
	r.wall = p.turbo.run() + p.jaqen.run()
	r.mallocs = mallocs() - before
	r.arrivals = p.turbo.arrivals() + p.jaqen.arrivals()
	r.drops = [2][2]uint64{p.turbo.drops(), p.jaqen.drops()}
	r.deploys = p.turbo.cp.Deployments()
	err := errors.Join(p.turbo.conservation("acc-turbo"), p.jaqen.conservation("jaqen"))
	if r.deploys == 0 {
		err = errors.Join(err, errors.New("acc-turbo: no deployment"))
	}
	return r, err
}
