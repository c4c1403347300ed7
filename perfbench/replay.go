package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"accturbo"
	"accturbo/internal/cluster"
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/pcap"
)

// Replay workloads stream a generated capture losslessly through
// pcap.MappedReader → one claimed accturbo.IngestLane → a real-time
// Defense (DefaultConfig, one shard, live wall-clock control loop),
// the same pipeline as `accturbo-defend -replay`.

// ingestCapacity matches accturbo-defend's -ingest-queue default.
const ingestCapacity = 8192

// replayReseed re-forms the Defense's clusters this often (DefaultConfig
// never does). The clusterer's per-packet cost depends on the geometry
// its first packets happen to seed, up to fivefold between captures of
// the same traffic mix; re-forming it every 30 ms averages hundreds of
// geometries into one run. See NOTES.md.
const replayReseed = 30 * eventsim.Millisecond

// replayGroup is how many frames a traced pass times as one group: the
// lane's publish batch.
const replayGroup = 64

// replayFrameBatch is the consumer replica's batch size: the drain
// goroutine's ingest batch.
const replayFrameBatch = 256

// replayCounts is the lossless replay loop's bookkeeping.
type replayCounts struct {
	offered, accepted, rejected, retries uint64
}

func (a replayCounts) plus(b replayCounts) replayCounts {
	return replayCounts{a.offered + b.offered, a.accepted + b.accepted, a.rejected + b.rejected, a.retries + b.retries}
}

func (a replayCounts) minus(b replayCounts) replayCounts {
	return replayCounts{a.offered - b.offered, a.accepted - b.accepted, a.rejected - b.rejected, a.retries - b.retries}
}

// replayer drives one Defense's lane from the mapped capture.
type replayer struct {
	d      *accturbo.Defense
	lane   *accturbo.IngestLane
	m      *pcap.MappedReader
	counts replayCounts
	steps  *stepClock
	group  [][]byte // tracedPass's frame group
}

func newReplayer(img *image, tr *tracer) (*replayer, error) {
	cfg := accturbo.DefaultConfig()
	cfg.Shards = 1
	cfg.ReseedInterval = replayReseed
	var steps *stepClock
	if tr != nil {
		steps = &stepClock{t: tr.track("control", 1<<14, 1)}
		cfg.WrapClock = steps.wrap
	}
	d, err := accturbo.NewRealTimeDefenseE(cfg)
	if err != nil {
		return nil, err
	}
	if err := d.EnableIngest(ingestCapacity, 1); err != nil {
		d.Close()
		return nil, err
	}
	m, err := pcap.NewMappedReader(img.data)
	if err != nil {
		d.Close()
		return nil, err
	}
	return &replayer{d: d, lane: d.Lane(0), m: m, steps: steps, group: make([][]byte, 0, replayGroup)}, nil
}

// pass replays the whole capture once, frame by frame.
func (r *replayer) pass() error {
	r.m.Reset()
	for {
		_, frame, err := r.m.NextFrame()
		if err == io.EOF {
			r.lane.Flush()
			return nil
		}
		if err != nil {
			return err
		}
		if err := r.offer(frame, nil); err != nil {
			return err
		}
	}
}

// tracedPass replays the capture once in groups of replayGroup frames:
// one pcap.next span around the group's NextFrame calls, then one
// ingest.offer span around its OfferFrame calls, with each backpressure
// loop an ingest.wait child. Timing groups rather than calls keeps the
// clock reads (tens of ns each) from swamping calls that cost as much.
func (r *replayer) tracedPass(t *track) error {
	r.m.Reset()
	for {
		group := r.group[:0]
		var err error
		sp := t.BeginRoot(stPcapNext)
		for len(group) < replayGroup {
			var frame []byte
			if _, frame, err = r.m.NextFrame(); err != nil {
				break
			}
			group = append(group, frame)
		}
		t.End(sp)
		if err != nil && err != io.EOF {
			return err
		}
		sp = t.BeginRoot(stOffer)
		for _, frame := range group {
			if oerr := r.offer(frame, t); oerr != nil {
				t.End(sp)
				return oerr
			}
		}
		t.End(sp)
		if err == io.EOF {
			r.lane.Flush()
			return nil
		}
	}
}

// offer hands one frame to the lane, retrying under backpressure until
// it is accepted (or rejected as malformed). With a track, each retry
// loop is recorded as an ingest.wait span, from the first refusal to
// the accepted call.
func (r *replayer) offer(frame []byte, t *track) error {
	r.counts.offered++
	waitStart := int64(-1)
	for {
		switch r.lane.OfferFrame(frame) {
		case accturbo.OfferAccepted:
			if waitStart >= 0 {
				t.Add(stWait, waitStart, t.now())
			}
			r.counts.accepted++
			return nil
		case accturbo.OfferRejected:
			r.counts.rejected++
			return nil
		case accturbo.OfferFull:
			if t != nil && waitStart < 0 {
				waitStart = t.now()
			}
			r.counts.retries++
			r.lane.Flush()
			runtime.Gosched()
		default:
			return errors.New("ingest closed mid-replay")
		}
	}
}

// close flushes the lane and shuts the Defense down, draining the
// ingest stage. A Defense that has not deployed yet keeps receiving
// passes, for at most two seconds, until its control loop deploys: a
// short-lived set-up Defense can otherwise finish its traffic before
// the first poll, and a reseed can empty its clusters before one.
func (r *replayer) close() error {
	deadline := time.Now().Add(2 * time.Second)
	for r.d.Deployments() == 0 && time.Now().Before(deadline) {
		if err := r.pass(); err != nil {
			r.d.Close()
			return err
		}
	}
	r.lane.Flush()
	r.d.Close()
	return nil
}

// conservation checks a closed replayer: every accepted frame was
// classified, nothing was rejected or given up on, every shed count is
// a retried offer, and the control loop deployed at least once.
func (r *replayer) conservation() (misses uint64, err error) {
	obs := r.d.PacketsObserved()
	c := r.counts
	if obs != c.accepted {
		if c.accepted > obs {
			misses = c.accepted - obs
		}
		err = errors.Join(err, fmt.Errorf("classified %d frames, accepted %d", obs, c.accepted))
	}
	if c.rejected != 0 || r.d.IngestRejected() != 0 {
		err = errors.Join(err, fmt.Errorf("%d frames rejected (ingest counted %d)", c.rejected, r.d.IngestRejected()))
	}
	if c.offered != c.accepted+c.rejected {
		err = errors.Join(err, fmt.Errorf("offered %d frames, accepted %d", c.offered, c.accepted))
	}
	if shed := r.d.IngestShed(); shed != c.retries {
		err = errors.Join(err, fmt.Errorf("ingest shed %d offers, producer retried %d", shed, c.retries))
	}
	if r.d.Deployments() == 0 {
		err = errors.Join(err, errors.New("no deployment by the end"))
	}
	return misses, err
}

// stepClock is the core.Config.WrapClock hook: it times every
// control-loop callback (poll, deploy, reseed) as a core.step span on
// its own track. The wall clock runs callbacks on timer goroutines, so
// the track is only touched under mu.
type stepClock struct {
	mu sync.Mutex
	t  *track
}

func (s *stepClock) wrap(c core.Clock) core.Clock { return timedClock{Clock: c, s: s} }

// stats folds the recorded steps.
func (s *stepClock) stats() stageStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return summarize(s.t)[stStep]
}

type timedClock struct {
	core.Clock
	s *stepClock
}

func (c timedClock) timed(fn func(now eventsim.Time)) func(now eventsim.Time) {
	return func(now eventsim.Time) {
		start := c.s.t.now()
		fn(now)
		end := c.s.t.now()
		c.s.mu.Lock()
		c.s.t.AddRoot(stStep, start, end)
		c.s.mu.Unlock()
	}
}

func (c timedClock) After(delay eventsim.Time, fn func(now eventsim.Time)) (cancel func()) {
	return c.Clock.After(delay, c.timed(fn))
}

func (c timedClock) Every(interval eventsim.Time, fn func(now eventsim.Time)) (stop func()) {
	return c.Clock.Every(interval, c.timed(fn))
}

// consumerReplica measures the stages that run on the Defense's own
// drain goroutine, which cannot be wrapped from outside, and the fused
// decode that OfferFrame runs inline. It replays the capture in chunks
// of one ring's capacity: a chunk's frames are decoded with
// packet.ParseFrame/FrameView.Features into a feature buffer the size
// of the ingest ring, then the buffer is fed in drain-sized batches to
// a core.Dataplane built from the same config (with a live control
// loop), then to a standalone cluster.Online; each of the three phases
// is one span per chunk. Both clusterers re-form together every
// reseedEvery frames, the replay's reseed period at its measured rate,
// so they keep one geometry.
type consumerReplica struct {
	dp          *core.Dataplane
	cp          *core.ControlPlane
	clock       *core.WallClock
	cl          *cluster.Online
	feats       packet.FeatureSet
	frames      [][]byte
	batch       []core.FrameFeatures
	reseedEvery uint64
	sinceReseed uint64
}

func newConsumerReplica(reseedEvery uint64) (*consumerReplica, error) {
	cfg := accturbo.DefaultConfig()
	cfg.Shards = 1
	dp := core.NewDataplane(cfg, true)
	clock := core.NewWallClock()
	cp, err := core.NewControlPlaneE(dp, clock, cfg)
	if err != nil {
		clock.Close()
		return nil, err
	}
	cp.Start()
	return &consumerReplica{
		dp: dp, cp: cp, clock: clock,
		cl:     cluster.NewOnline(cfg.Clustering),
		feats:  cfg.Clustering.Features,
		frames: make([][]byte, 0, ingestCapacity),
		batch:  make([]core.FrameFeatures, ingestCapacity),

		reseedEvery: reseedEvery,
	}, nil
}

// pass feeds the whole capture once; t may be nil for a warm-up.
func (c *consumerReplica) pass(img *image, t *track) error {
	m, err := pcap.NewMappedReader(img.data)
	if err != nil {
		return err
	}
	for {
		_, frame, err := m.NextFrame()
		if err != nil && err != io.EOF {
			return err
		}
		if err == nil {
			c.frames = append(c.frames, frame)
		}
		if len(c.frames) == cap(c.frames) || (err == io.EOF && len(c.frames) > 0) {
			if derr := c.observe(t); derr != nil {
				return derr
			}
		}
		if err == io.EOF {
			return nil
		}
	}
}

func (c *consumerReplica) observe(t *track) error {
	n, nf := len(c.frames), len(c.feats)
	batch := c.batch[:n]
	sp := c.begin(t, stDecode)
	for i, frame := range c.frames {
		v, err := packet.ParseFrame(frame)
		if err != nil {
			c.end(t, sp)
			return err
		}
		batch[i].Size = uint32(v.Length())
		v.Features(c.feats, batch[i].Vals[:nf])
	}
	c.end(t, sp)
	sp = c.begin(t, stObserveFrames)
	for i := 0; i < n; i += replayFrameBatch {
		c.dp.ObserveShardFrames(0, batch[i:min(i+replayFrameBatch, n)], nil)
	}
	c.end(t, sp)
	sp = c.begin(t, stClusterObserve)
	for i := range batch {
		c.cl.ObserveFeatures(batch[i].Vals[:nf], uint64(batch[i].Size), false)
	}
	c.end(t, sp)
	c.frames = c.frames[:0]
	c.sinceReseed += uint64(n)
	if c.reseedEvery > 0 && c.sinceReseed >= c.reseedEvery {
		c.dp.Reseed()
		c.cl.Reseed()
		c.sinceReseed = 0
	}
	return nil
}

func (c *consumerReplica) begin(t *track, s stage) int32 {
	if t == nil {
		return -1
	}
	return t.BeginRoot(s)
}

func (c *consumerReplica) end(t *track, sp int32) {
	if t != nil {
		t.End(sp)
	}
}

func (c *consumerReplica) close() {
	c.cp.Stop()
	c.clock.Close()
}
