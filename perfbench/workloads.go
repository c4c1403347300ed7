package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"accturbo"
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/traffic"
)

// replaySetups and simSetups are how many times a run sets up; setup_s
// is the median. A simulation set-up takes well under a millisecond, so
// it is repeated more often.
const (
	replaySetups = 5
	simSetups    = 21
)

// replaySpec describes one replay workload.
type replaySpec struct {
	name   string
	procs  int // GOMAXPROCS
	frames int // at scale 1
	source func(seed int64, n int) traffic.Source
	// avgFrame sizes the image buffer up front (bytes per record).
	avgFrame int
	// consumerOnly: the blocking path is the consumer alone (the
	// producer runs on its own core); otherwise it is every stage.
	consumerOnly bool
}

var (
	replayBenign = replaySpec{
		name: "replay-benign", procs: 2, frames: 200_000,
		source: benignSource, avgFrame: 770, consumerOnly: true,
	}
	replaySynFlood = replaySpec{
		name: "replay-synflood", procs: 1, frames: 200_000,
		source: synFloodSource, avgFrame: 64,
	}
)

// runReplay sets up the pipeline replaySetups times (each a fresh
// Defense plus one warm-up pass over the capture), then replays the
// capture repeatedly on the last one.
func runReplay(c runConfig, spec replaySpec) (*result, error) {
	runtime.GOMAXPROCS(spec.procs)
	res := newResult()
	n := max(1, int(float64(spec.frames)*c.scale))
	img, err := renderImage(spec.source(c.seed, n), n*spec.avgFrame)
	if err != nil {
		return nil, err
	}
	res.printf("input %s seed=%d frames=%d bytes=%d sha256=%s", spec.name, c.seed, img.frames, len(img.data), img.sha256)
	res.printf("gomaxprocs %d", spec.procs)
	if !c.trace {
		drop, err := replayQuality(spec, c.seed, n)
		if err != nil {
			return nil, err
		}
		res.metrics["benign_drop_pct"] = drop
	}
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}

	// Every Defense built is checked and counted; the last one is timed.
	var total replayCounts
	var misses uint64
	finish := func(r *replayer, name string) error {
		if err := r.close(); err != nil {
			return err
		}
		m, err := r.conservation()
		res.check(name, err)
		misses += m
		total = total.plus(r.counts)
		return nil
	}
	var setups []float64
	var r *replayer
	for i := 0; i < replaySetups; i++ {
		start := time.Now()
		if r, err = newReplayer(img, tr); err != nil {
			return nil, err
		}
		if err := r.pass(); err != nil {
			r.d.Close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < replaySetups-1 {
			if err := finish(r, fmt.Sprintf("conservation (setup %d)", i+1)); err != nil {
				return nil, err
			}
		}
	}
	res.metrics["setup_s"] = median(setups)

	// A traced run spends 40% of its time untraced, 40% traced and the
	// rest in the consumer replica.
	budget := c.seconds
	if c.trace {
		budget = 0.4 * c.seconds
	}
	before := mallocs()
	mpps, rates, frames, err := replayPasses(r, nil, budget, nil)
	if err != nil {
		r.d.Close()
		return nil, err
	}
	res.metrics["allocs_per_pkt"] = float64(mallocs()-before) / float64(frames)
	res.metrics["mpps"] = mpps
	res.printf("timed %d passes, %d frames, Mpps per pass: %s", len(rates), frames, quartiles(rates))

	var tl *replayTrace
	if c.trace {
		tl, err = traceReplay(r, tr, budget)
		if err != nil {
			r.d.Close()
			return nil, err
		}
	}
	if err := finish(r, "conservation"); err != nil {
		return nil, err
	}
	res.attempted = total.offered
	res.failed = total.offered - total.accepted + misses
	if !c.trace {
		return res, nil
	}
	if err := tl.layers(res, r, img, spec, mpps, 0.2*c.seconds); err != nil {
		return nil, err
	}
	return res, writeTrace(c, tr, res)
}

// replayTrace is the traced part of a replay run.
type replayTrace struct {
	tr       *tracer
	producer *track
	mpps     float64      // traced passes' rate
	counts   replayCounts // traced passes' frames
	pollWall []float64    // Health().Control.LastPollWallNs between passes
}

// traceReplay replays the capture with producer spans for budget
// seconds.
func traceReplay(r *replayer, tr *tracer, budget float64) (*replayTrace, error) {
	tl := &replayTrace{tr: tr, producer: tr.track("producer", 1<<20, 1)}
	before := r.counts
	var err error
	tl.mpps, _, _, err = replayPasses(r, tl.producer, budget, func() {
		tl.pollWall = append(tl.pollWall, float64(r.d.Health().Control.LastPollWallNs))
	})
	tl.counts = r.counts.minus(before)
	return tl, err
}

// layers runs the consumer replica for replicaBudget seconds and fills
// the per-layer metrics and the ledger of a closed replayer.
func (tl *replayTrace) layers(res *result, r *replayer, img *image, spec replaySpec, mpps, replicaBudget float64) error {
	met := r.d.Metrics()
	m := res.metrics
	m["core.deploys"] = float64(met.Deployments)
	m["core.deploy_latency_ms_p50"] = histQuantile(met.DeployLatencyNs, 0.50) / 1e6
	m["core.deploy_latency_ms_p99"] = histQuantile(met.DeployLatencyNs, 0.99) / 1e6
	m["core.poll_wall_us"] = median(tl.pollWall) / 1e3
	m["core.step_us"] = r.steps.stats().MeanSelf() / 1e3

	reseedEvery := uint64(mpps * 1e6 * replayReseed.Seconds())
	consumer, consumed, err := consumerPasses(img, tl.tr, replicaBudget, reseedEvery)
	if err != nil {
		return err
	}
	st := summarize(tl.producer, consumer)
	offered := float64(tl.counts.offered)
	m["pcap.next_ns"] = st[stPcapNext].TotalSelf() / offered
	m["ingest.offer_ns"] = st[stOffer].TotalSelf() / offered
	m["ingest.wait_ns"] = st[stWait].TotalSelf() / offered
	m["ingest.retries_per_pkt"] = float64(tl.counts.retries) / offered
	m["packet.decode_ns"] = st[stDecode].TotalSelf() / float64(consumed)
	m["cluster.observe_ns"] = st[stClusterObserve].TotalSelf() / float64(consumed)
	m["core.observe_frames_ns"] = st[stObserveFrames].TotalSelf() / float64(consumed)

	l := &ledger{workload: spec.name, e2eNs: 1e3 / mpps, untraced: mpps, traced: tl.mpps}
	if !spec.consumerOnly {
		l.path = fmt.Sprintf("every stage; GOMAXPROCS=%d", spec.procs)
		l.add("pcap.next", m["pcap.next_ns"])
		l.add("ingest.offer", m["ingest.offer_ns"])
	} else {
		l.path = fmt.Sprintf("the consumer; GOMAXPROCS=%d", spec.procs)
	}
	l.add("core.observe_frames (self)", m["core.observe_frames_ns"]-m["cluster.observe_ns"])
	l.add("cluster.observe", m["cluster.observe_ns"])
	l.fill(m)
	res.ledger = l
	if refused := tl.producer.refused + consumer.refused; refused > 0 {
		res.printf("trace: %d spans not recorded (span buffer full)", refused)
	}
	return nil
}

// replayPasses replays the capture until budget seconds have passed
// (at least three passes), traced when t is set. It returns the frames
// classified per wall second over all passes, in Mpps, each pass's own
// rate, and the frames accepted. after, when set, runs between passes,
// untimed.
func replayPasses(r *replayer, t *track, budget float64, after func()) (float64, []float64, uint64, error) {
	var rates []float64
	var frames uint64
	var busy time.Duration
	start := time.Now()
	for len(rates) < 3 || time.Since(start).Seconds() < budget {
		a0 := r.counts.accepted
		t0 := time.Now()
		var err error
		if t != nil {
			err = r.tracedPass(t)
		} else {
			err = r.pass()
		}
		if err != nil {
			return 0, nil, 0, err
		}
		el := time.Since(t0)
		n := r.counts.accepted - a0
		rates = append(rates, float64(n)/el.Seconds()/1e6)
		frames += n
		busy += el
		if after != nil {
			after()
		}
	}
	return float64(frames) / busy.Seconds() / 1e6, rates, frames, nil
}

// consumerPasses runs the consumer replica: one untimed warm-up pass,
// then timed passes for budget seconds (at least one). It returns the
// replica's track and the number of frames fed in the timed passes.
func consumerPasses(img *image, tr *tracer, budget float64, reseedEvery uint64) (*track, uint64, error) {
	rep, err := newConsumerReplica(reseedEvery)
	if err != nil {
		return nil, 0, err
	}
	defer rep.close()
	if err := rep.pass(img, nil); err != nil {
		return nil, 0, err
	}
	t := tr.track("consumer", 1<<17, 1)
	var frames uint64
	start := time.Now()
	for frames == 0 || time.Since(start).Seconds() < budget {
		if err := rep.pass(img, t); err != nil {
			return nil, 0, err
		}
		frames += uint64(img.frames)
	}
	return t, frames, nil
}

// histQuantile returns the upper bound of the bucket holding quantile
// q (the maximum for the overflow bucket).
func histQuantile(h accturbo.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(q*float64(h.Count-1)) + 1
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			if i < len(h.Bounds) {
				return float64(min(h.Bounds[i], h.Max))
			}
			return float64(h.Max)
		}
	}
	return float64(h.Max)
}

// replayQuality is the replay workloads' defense-quality guard: the
// workload's own traffic (labels intact) is simulated, untimed, through
// an ACC-Turbo port (built by core.AttachE with the replay Defense's
// config) whose link carries half the traffic's mean rate. It returns the benign drop
// share averaged over replayProbes inputs from seeds derived from seed:
// one input's share can sit far from the others.
func replayQuality(spec replaySpec, seed int64, n int) (float64, error) {
	sum := 0.0
	for k := int64(0); k < replayProbes; k++ {
		sub := seed*replayProbes + k
		bits, last, span := sourceRate(spec.source(sub, n))
		if span <= 0 {
			return 0, errors.New("quality input spans no time")
		}
		link := float64(bits) / span.Seconds() / 2
		eng := eventsim.New()
		rec := netsim.NewRecorder(eventsim.Second)
		cfg := core.DefaultConfig()
		cfg.ReseedInterval = replayReseed
		port, _, err := core.AttachE(eng, link, rec, cfg)
		if err != nil {
			return 0, err
		}
		src := spec.source(sub, n)
		pool := packet.NewPool()
		traffic.AttachPool(src, pool)
		port.SetPool(pool)
		netsim.Replay(eng, src, port)
		eng.RunUntil(last + eventsim.Second)
		if rec.ArrivedBenign() == 0 {
			return 0, errors.New("quality probe saw no benign packet")
		}
		sum += rec.BenignDropPercent()
	}
	return sum / replayProbes, nil
}

// runSim sets up simSetups times (engines, both defenses and the
// sources), then simulates pass after pass, each pass built afresh.
func runSim(c runConfig) (*result, error) {
	runtime.GOMAXPROCS(1)
	res := newResult()
	src, _ := pulseWave(c.seed, c.scale, simLink)
	sum, pkts := sourceDigest(src)
	res.printf("input sim-pulsewave seed=%d packets=%d sha256=%s", c.seed, pkts, sum)
	res.printf("gomaxprocs 1")

	var setups []float64
	for i := 0; i < simSetups; i++ {
		start := time.Now()
		if _, err := buildPair(c.seed, c.scale, nil, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.metrics["setup_s"] = median(setups)

	// A traced run spends half its time untraced, half traced.
	budget := c.seconds
	if c.trace {
		budget = 0.5 * c.seconds
	}
	untraced, err := simPasses(c, res, budget, "", nil, nil, nil)
	if err != nil {
		return nil, err
	}
	ref := untraced.first
	mpps := untraced.mpps()
	res.attempted = untraced.arrivals
	res.metrics["mpps"] = mpps
	res.metrics["allocs_per_pkt"] = float64(untraced.mallocs) / float64(untraced.arrivals)
	res.printf("timed %d passes, %d arrivals, Mpps per pass: %s", len(untraced.rates), untraced.arrivals, quartiles(untraced.rates))
	res.printf("drops acc-turbo benign=%d malicious=%d, jaqen benign=%d malicious=%d; acc-turbo deployments %d",
		ref.drops[0][0], ref.drops[0][1], ref.drops[1][0], ref.drops[1][1], ref.deploys)
	if !c.trace {
		drop, err := simQuality(c.seed, c.scale)
		if err != nil {
			return nil, err
		}
		res.metrics["benign_drop_pct"] = drop
		return res, nil
	}

	tr := newTracer()
	t := tr.track("sim", 1<<20, simSampleEvery)
	steps := &stepClock{t: tr.track("control", 1<<14, 1)}
	traced, err := simPasses(c, res, budget, "traced ", t, steps, &ref)
	if err != nil {
		return nil, err
	}
	res.attempted += traced.arrivals

	st := summarize(t)
	step := steps.stats()
	perPkt := func(total float64) float64 { return total / float64(traced.arrivals) }
	l := &ledger{workload: "sim-pulsewave", path: "every stage; one thread",
		e2eNs: 1e3 / mpps, untraced: mpps, traced: traced.mpps()}
	timed := step.TotalSelf()
	for _, ly := range []struct {
		metric string
		s      stage
	}{
		{"traffic.next_ns", stTrafficNext},
		{"netsim.inject_ns", stNetsimInject},
		{"jaqen.inject_ns", stJaqenInject},
		{"queue.enqueue_ns", stEnqueue},
		{"queue.dequeue_ns", stDequeue},
		{"core.classify_ns", stClassify},
	} {
		res.metrics[ly.metric] = st[ly.s].MeanSelf()
		l.add(ly.s.String(), perPkt(st[ly.s].TotalSelf()))
		timed += st[ly.s].TotalSelf()
	}
	res.metrics["core.step_us"] = step.MeanSelf() / 1e3
	l.add("core.step", perPkt(step.TotalSelf()))
	res.metrics["eventsim.self_ns"] = perPkt(float64(traced.wall.Nanoseconds()) - timed)
	l.add("eventsim (self)", res.metrics["eventsim.self_ns"])
	l.fill(res.metrics)
	res.ledger = l
	if refused := t.refused + steps.t.refused; refused > 0 {
		res.printf("trace: %d spans not recorded (span buffer full)", refused)
	}
	return res, writeTrace(c, tr, res)
}

// simSeries is a series of passes.
type simSeries struct {
	first             simPassResult
	rates             []float64 // each pass's Mpps
	arrivals, mallocs uint64
	wall              time.Duration
}

// mpps is the series' simulated arrivals per wall second, in millions.
func (s simSeries) mpps() float64 { return float64(s.arrivals) / s.wall.Seconds() / 1e6 }

// simPasses runs passes, traced when t is set, for budget seconds and at
// least one pass. Every pass must conserve packets and drop exactly what
// ref dropped (what the series' first pass dropped when ref is nil).
func simPasses(c runConfig, res *result, budget float64, label string, t *track, steps *stepClock, ref *simPassResult) (simSeries, error) {
	var s simSeries
	start := time.Now()
	for len(s.rates) == 0 || time.Since(start).Seconds() < budget {
		p, err := buildPair(c.seed, c.scale, t, steps)
		if err != nil {
			return s, err
		}
		r, err := runPair(p)
		n := len(s.rates) + 1
		res.check(fmt.Sprintf("conservation (%spass %d)", label, n), err)
		if n == 1 {
			s.first = r
		}
		if ref == nil {
			ref = &s.first
		} else {
			res.check(fmt.Sprintf("drops equal the first untraced pass (%spass %d)", label, n), sameDrops(*ref, r))
		}
		s.rates = append(s.rates, float64(r.arrivals)/r.wall.Seconds()/1e6)
		s.arrivals += r.arrivals
		s.mallocs += r.mallocs
		s.wall += r.wall
	}
	return s, nil
}

// qualitySeeds is how many background seeds the sim-pulsewave quality
// guard averages over (one seed's benign drop share varies by a third
// between seeds); replayProbes is how many inputs a replay workload's
// guard averages over.
const (
	qualitySeeds = 32
	replayProbes = 4
)

// simQuality is sim-pulsewave's defense-quality guard: ACC-Turbo's
// benign drop share on fig6's own 1:1000 scenario (a tenth of the
// timed scenario's rates, built by core.AttachE exactly as fig6 does),
// averaged over qualitySeeds background seeds derived from seed.
func simQuality(seed int64, scale float64) (float64, error) {
	const link = simLink / 10
	sum := 0.0
	for k := int64(0); k < qualitySeeds; k++ {
		src, end := pulseWave(seed*qualitySeeds+k, scale, link)
		eng := eventsim.New()
		rec := netsim.NewRecorder(eventsim.Second)
		port, _, err := core.AttachE(eng, link, rec, turboConfig())
		if err != nil {
			return 0, err
		}
		pool := packet.NewPool()
		traffic.AttachPool(src, pool)
		port.SetPool(pool)
		netsim.Replay(eng, src, port)
		eng.RunUntil(end)
		sum += rec.BenignDropPercent()
	}
	return sum / qualitySeeds, nil
}

// sameDrops checks that two passes dropped exactly the same packets per
// defense and class.
func sameDrops(a, b simPassResult) error {
	if a.drops != b.drops {
		return fmt.Errorf("per-class drops %v, then %v", a.drops, b.drops)
	}
	return nil
}
