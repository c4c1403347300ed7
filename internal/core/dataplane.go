package core

import (
	"sync"

	"accturbo/internal/cluster"
	"accturbo/internal/packet"
	"accturbo/internal/telemetry"
)

// Dataplane is the per-packet half of ACC-Turbo: feature extraction →
// cluster assignment → queue classification. It owns no timers and has
// no dependency on any clock or engine — state changes only when a
// packet is offered (Assign/Classify) or when the control plane pushes
// a decision in (Deploy, ResetStats, Reseed).
//
// It runs one online clusterer (§4), the one pipeline the control plane
// polls and re-ranks (§5).
//
// Concurrency contract: with concurrent=false (the deterministic
// simulator path) the Dataplane must be driven from a single goroutine
// and the hot path takes no locks. With concurrent=true one mutex
// guards the clusterer and the batch counters, the queue mapping is
// swapped atomically, and every method is safe from any number of
// goroutines.
type Dataplane struct {
	cfg        Config
	concurrent bool

	// mu guards clusterer and batch; it is only taken in concurrent
	// mode.
	mu        sync.Mutex
	clusterer *cluster.Online
	// batch accumulates per-slot and per-queue counts over one
	// ObserveBatch/ObserveShardFrames call, flushed to the telemetry
	// stripes once per batch instead of twice per packet.
	batch struct {
		assigned []uint64
		routed   []uint64
	}

	// queueMap is the live cluster-slot→queue mapping installed by the
	// control plane. Readers load it atomically; Deploy swaps it whole,
	// so a packet sees either the old or the new mapping, never a mix.
	// The Hot generation counts deployments since construction.
	queueMap Hot[[]int]

	// assigned counts packets per cluster slot, routed counts packets
	// per priority queue. Both are striped across countStripes
	// cache-line-padded stripes, and a packet picks one by a cheap
	// header hint, so concurrent callers of Classify rarely share a
	// counter line. Reads aggregate across all stripes lock-free.
	assigned *telemetry.VecCounter
	routed   *telemetry.VecCounter
}

// countStripes is the number of counter stripes. Power of two; the
// stripe hint masks against it.
const countStripes = 8

// stripeOf picks the counter stripe for a packet by the source port's
// low bits. Any value is correct — stripes only partition the same
// aggregated total.
func stripeOf(p *packet.Packet) int {
	return int(p.SrcPort) & (countStripes - 1)
}

// NewDataplane builds the per-packet pipeline. concurrent selects the
// locking mode documented on Dataplane. It panics on an invalid
// configuration, like the other constructors in this package.
func NewDataplane(cfg Config, concurrent bool) *Dataplane {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	d := &Dataplane{
		cfg:        cfg,
		concurrent: concurrent,
		clusterer:  cluster.NewOnline(cfg.Clustering),
		assigned:   telemetry.NewVecCounter(cfg.Clustering.MaxClusters, countStripes),
		routed:     telemetry.NewVecCounter(cfg.NumQueues, countStripes),
	}
	d.batch.assigned = make([]uint64, cfg.Clustering.MaxClusters)
	d.batch.routed = make([]uint64, cfg.NumQueues)
	qm := make([]int, cfg.Clustering.MaxClusters)
	d.queueMap.Store(&qm)
	return d
}

// lock and unlock guard the clusterer in concurrent mode and are no-ops
// in deterministic mode.
func (d *Dataplane) lock() {
	if d.concurrent {
		d.mu.Lock()
	}
}

func (d *Dataplane) unlock() {
	if d.concurrent {
		d.mu.Unlock()
	}
}

// Config returns the (defaulted) configuration.
func (d *Dataplane) Config() Config { return d.cfg }

// Clusterer exposes the online clusterer for read-only inspection. In
// concurrent mode the caller must not touch it while packets are in
// flight.
func (d *Dataplane) Clusterer() *cluster.Online { return d.clusterer }

// Assign runs the clustering stage for one packet and returns the
// explicit assignment — the value the caller threads to QueueFor (or
// Classify does both). There is no implicit carry-over between calls.
func (d *Dataplane) Assign(p *packet.Packet) cluster.Assignment {
	d.lock()
	a := d.clusterer.Observe(p)
	d.unlock()
	d.assigned.Add(stripeOf(p), a.Cluster, 1)
	return a
}

// QueueFor maps an assigned cluster slot to its live priority queue.
// Unknown or out-of-range slots (a packet observed against a clusterer
// generation the controller has not seen yet, or a corrupted ID) route
// to the lowest-priority queue — never to queue 0, which would hand an
// attacker the highest priority by default.
func (d *Dataplane) QueueFor(clusterID int) int {
	return d.queueIn(*d.queueMap.Load(), clusterID)
}

// queueIn is QueueFor against an already-loaded mapping, so batch
// processing loads the atomic pointer once per batch instead of once
// per packet.
func (d *Dataplane) queueIn(qm []int, clusterID int) int {
	if clusterID < 0 || clusterID >= len(qm) {
		return d.cfg.NumQueues - 1
	}
	return qm[clusterID]
}

// Classify is the full per-packet data-plane step: assign, then look up
// the queue under the live mapping. The queue choice is counted in
// RoutedCounts.
func (d *Dataplane) Classify(p *packet.Packet) (cluster.Assignment, int) {
	a := d.Assign(p)
	q := d.QueueFor(a.Cluster)
	d.routed.Add(stripeOf(p), q, 1)
	return a, q
}

// ObserveBatch runs the full per-packet step (assign → queue lookup →
// count) over a batch, amortizing what Classify pays per packet: the
// queue mapping is loaded once, the lock (concurrent mode) is taken
// once, and the telemetry stripes receive one flush per batch instead
// of two atomic adds per packet. The clusterer sees the packets in
// batch order — the same order the per-packet path would deliver.
//
// When queues is non-nil it must be at least len(pkts) long; entry i
// receives packet i's priority queue. The aggregate counters
// (AssignedCounts, RoutedCounts, Observed) advance exactly as if every
// packet had gone through Classify.
func (d *Dataplane) ObserveBatch(pkts []*packet.Packet, queues []int) {
	if len(pkts) == 0 {
		return
	}
	if queues != nil && len(queues) < len(pkts) {
		panic("core: ObserveBatch queues shorter than pkts")
	}
	qm := *d.queueMap.Load()
	d.lock()
	for i, p := range pkts {
		a := d.clusterer.Observe(p)
		d.batch.assigned[a.Cluster]++
		q := d.queueIn(qm, a.Cluster)
		d.batch.routed[q]++
		if queues != nil {
			queues[i] = q
		}
	}
	d.flushBatch(stripeOf(pkts[0]))
	d.unlock()
}

// flushBatch drains the batch count accumulators onto one telemetry
// stripe, zeroing them for the next batch. The caller holds the lock.
func (d *Dataplane) flushBatch(stripe int) {
	for c, cnt := range d.batch.assigned {
		if cnt != 0 {
			d.assigned.Add(stripe, c, cnt)
			d.batch.assigned[c] = 0
		}
	}
	for q, cnt := range d.batch.routed {
		if cnt != 0 {
			d.routed.Add(stripe, q, cnt)
			d.batch.routed[q] = 0
		}
	}
}

// FrameFeatures is one packet reduced to exactly what the clustering
// stage consumes: its feature values (the first NF entries, where NF is
// the configured feature-set length) and its IP total length. The
// ingest producer fills one per packet — from a raw frame with
// packet.FrameView.Features while the header bytes are still hot in
// cache, or from a decoded packet with FeatureSet.Extract — so the
// classifying consumer never touches packet or frame memory at all.
type FrameFeatures struct {
	Vals [packet.NumFeatures]uint32
	Size uint32
}

// ObserveShardFrames runs the full per-packet step over a batch of
// packets already reduced to their feature values — the ingest
// consumer path. Each entry feeds the clusterer through the fused
// ObserveFeatures path, so no Packet struct is ever materialized.
// Entries carry no ground-truth label, so all traffic counts as benign
// in the label telemetry — exactly what a hardware deployment sees.
// queues follows the ObserveBatch contract. si is the pipeline index,
// kept in the signature for existing callers: there is one pipeline, so
// it must be 0, and anything else panics.
func (d *Dataplane) ObserveShardFrames(si int, frames []FrameFeatures, queues []int) {
	if si != 0 {
		panic("core: ObserveShardFrames on pipeline other than 0")
	}
	if len(frames) == 0 {
		return
	}
	if queues != nil && len(queues) < len(frames) {
		panic("core: ObserveShardFrames queues shorter than frames")
	}
	qm := *d.queueMap.Load()
	nf := len(d.cfg.Clustering.Features)
	d.lock()
	for i := range frames {
		f := &frames[i]
		a := d.clusterer.ObserveFeatures(f.Vals[:nf], uint64(f.Size), false)
		d.batch.assigned[a.Cluster]++
		q := d.queueIn(qm, a.Cluster)
		d.batch.routed[q]++
		if queues != nil {
			queues[i] = q
		}
	}
	d.flushBatch(0)
	d.unlock()
}

// AssignedCounts returns the per-cluster-slot assignment totals since
// construction. Safe to call concurrently with packet processing
// (values may trail in-flight packets).
func (d *Dataplane) AssignedCounts() []uint64 { return d.assigned.Values() }

// RoutedCounts returns the per-priority-queue routing totals.
func (d *Dataplane) RoutedCounts() []uint64 { return d.routed.Values() }

// Describe registers the data plane's per-slot and per-queue counters
// on a telemetry registry under the given name prefix.
func (d *Dataplane) Describe(reg *telemetry.Registry, prefix string) {
	reg.Vec(prefix+"_assigned_pkts", d.assigned)
	reg.Vec(prefix+"_routed_pkts", d.routed)
}

// Observed returns the total number of packets observed. In concurrent
// mode it takes the lock, so the value is exact once ingest has
// quiesced.
func (d *Dataplane) Observed() uint64 {
	d.lock()
	defer d.unlock()
	return d.clusterer.Observed
}

// Snapshot returns the interpretable cluster view the control plane
// ranks. The returned Infos are deep copies owned by the caller; the
// data plane never mutates them afterwards.
func (d *Dataplane) Snapshot() []cluster.Info {
	d.lock()
	defer d.unlock()
	return d.clusterer.Snapshot()
}

// ResetStats zeroes the per-window counters (the controller calls this
// after each poll).
func (d *Dataplane) ResetStats() {
	d.lock()
	d.clusterer.ResetStats()
	d.unlock()
}

// Reseed discards all clusters.
func (d *Dataplane) Reseed() {
	d.lock()
	d.clusterer.Reseed()
	d.unlock()
}

// Deploy installs a new cluster→queue mapping. The slice is copied, so
// the caller may reuse it; readers switch atomically.
func (d *Dataplane) Deploy(queueOf []int) {
	qm := make([]int, len(queueOf))
	copy(qm, queueOf)
	d.queueMap.Store(&qm)
}

// QueueMap returns a copy of the live cluster→queue mapping.
func (d *Dataplane) QueueMap() []int {
	qm := *d.queueMap.Load()
	out := make([]int, len(qm))
	copy(out, qm)
	return out
}

// QueueOf returns the live queue of cluster slot id (the lowest
// priority for out-of-range ids, mirroring QueueFor).
func (d *Dataplane) QueueOf(id int) int { return d.QueueFor(id) }
