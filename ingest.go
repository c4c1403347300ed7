package accturbo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accturbo/internal/core"
	"accturbo/internal/packet"
	"accturbo/internal/ring"
	"accturbo/internal/telemetry"
)

// The ingest stage is the bounded hand-off between capture threads and
// the data plane, built on lock-free SPSC rings (internal/ring): one
// ring of compact feature records per lane, where every ring has
// exactly one producer (a lane) and one consumer (the drain
// goroutine). Packets are reduced to their clustering features at
// offer time, so the consumer feeds the clusterer directly with
// ObserveShardFrames — no shared queue, and no lock on the wire-speed
// producer path.
//
// Two producer APIs share the rings:
//
//   - Offer (any goroutine): extracts a decoded packet's features and
//     round-robins over lanes under a per-lane mutex. The mutex only
//     serializes co-producers on one lane — consumers never touch it —
//     and each record is published individually, so Offer keeps its
//     "accepted means it will be classified" contract.
//   - Lane/OfferFrame (wire speed, one goroutine per lane): claims a
//     lane exclusively, decodes each frame's features while its header
//     is cache-hot, and pushes the records with batched publish — the
//     path the -replay pipeline and any packet-capture loop use.
//
// Like the hardware pipeline, ingest carries header feature values
// only: no packet struct and no ground-truth label crosses the rings,
// so all ingested traffic counts as benign in the label telemetry.
//
// When a ring is full the offer sheds (counted, never blocking), so
// overload degrades visibly.
type ingestStage struct {
	d     *Defense
	rings []*ring.SPSC[core.FrameFeatures] // one per lane
	lanes []ingestLaneState
	wake  chan struct{} // the consumer's doorbell
	wg    sync.WaitGroup

	capacity int // sum of ring capacities, reported by Health
	feats    FeatureSet
	shed     telemetry.Counter
	rejected telemetry.Counter

	// closed fails new offers before the rings are torn down. An atomic
	// instead of a RWMutex: Offer's hot path pays one load, not a reader
	// lock shared with every other capture goroutine.
	closed atomic.Bool
	next   atomic.Uint64 // Offer's round-robin lane cursor
}

// ingestLaneState is the per-lane producer bookkeeping. mu serializes
// Offer's co-producers on the lane; wired marks the lane claimed by an
// exclusive wire-speed producer (a one-way transition made under mu, so
// Offer never races a wire producer on the same ring).
type ingestLaneState struct {
	mu    sync.Mutex
	wired bool
	_     [40]byte // keep neighbouring lanes off one cache line
}

// ingestBatch is the consumer's drain granularity. It bounds the
// consumer's buffer footprint and keeps the batch cache-resident.
const ingestBatch = 256

// laneFlushEvery is the wire path's auto-publish threshold: OfferFrame
// publishes a lane's pending pushes once this many stack up,
// amortizing the cross-core store without letting frames linger.
const laneFlushEvery = 64

// EnableIngest starts the bounded ingest stage on a real-time pipeline:
// `lanes` producer lanes feed one drain goroutine through
// single-producer/single-consumer rings, with the given total buffer
// capacity split evenly across the lanes' rings (each ring rounds up to
// a power of two, so the effective total — reported by Health — may
// exceed the request). After this, feed packets with Offer or claim a
// lane for raw frames with Lane. Close drains the stage before stopping
// the control loop. It errors in deterministic mode (whose
// single-threaded Process needs no queue) and when called twice. More
// lanes mean less co-producer serialization on Offer.
func (d *Defense) EnableIngest(capacity, lanes int) error {
	if d.clock == nil {
		return fmt.Errorf("accturbo: EnableIngest requires the real-time pipeline")
	}
	if capacity <= 0 || lanes <= 0 {
		return fmt.Errorf("accturbo: EnableIngest(%d, %d): capacity and lanes must be positive", capacity, lanes)
	}
	perRing := capacity / lanes
	if perRing < 2 {
		perRing = 2
	}
	in := &ingestStage{
		d:     d,
		rings: make([]*ring.SPSC[core.FrameFeatures], lanes),
		lanes: make([]ingestLaneState, lanes),
		wake:  make(chan struct{}, 1),
		feats: d.dp.Config().Clustering.Features,
	}
	for l := range in.rings {
		in.rings[l] = ring.New[core.FrameFeatures](perRing)
		in.capacity += in.rings[l].Cap()
	}
	if !d.ingest.CompareAndSwap(nil, in) {
		return fmt.Errorf("accturbo: ingest already enabled")
	}
	in.wg.Add(1)
	go in.drain()
	return nil
}

// Offer hands a packet's clustering features to the bounded ingest
// stage without blocking: it returns false — and counts the packet as
// shed — when every unclaimed lane's ring is full (backpressure) or the
// stage is already closed. The packet is not retained, and its Label is
// not carried: ingested traffic counts as benign, as on hardware. Safe
// from any goroutine. Callers that must not lose packets should treat
// false as "slow down", not "retry immediately".
func (d *Defense) Offer(p *Packet) bool {
	in := d.ingest.Load()
	if in == nil {
		panic("accturbo: Offer before EnableIngest")
	}
	if in.closed.Load() {
		in.shed.Inc()
		return false
	}
	ff := core.FrameFeatures{Size: uint32(p.Length)}
	in.feats.Extract(p, ff.Vals[:len(in.feats)])
	lanes := uint64(len(in.lanes))
	start := in.next.Add(1)
	for i := uint64(0); i < lanes; i++ {
		l := int((start + i) % lanes)
		lane := &in.lanes[l]
		lane.mu.Lock()
		if lane.wired {
			lane.mu.Unlock()
			continue
		}
		ok := in.rings[l].TryPush(ff)
		lane.mu.Unlock()
		if ok {
			in.signal()
			return true
		}
		// This lane's ring is full; another lane may have room (its
		// ring is a distinct buffer).
	}
	in.shed.Inc()
	return false
}

// OfferResult reports the fate of one frame handed to a wire-speed
// lane.
type OfferResult uint8

const (
	// OfferAccepted: the frame is queued and will be classified (after
	// the lane's next flush, for batched pushes).
	OfferAccepted OfferResult = iota
	// OfferFull: the lane's ring had no room; the frame was shed
	// under backpressure and counted in IngestShed.
	OfferFull
	// OfferRejected: the bytes are not a classifiable IPv4 frame
	// (truncated or malformed); counted separately from shed.
	OfferRejected
	// OfferClosed: the stage is closed; counted as shed.
	OfferClosed
)

// IngestLane is an exclusively claimed producer lane for the wire-speed
// frame path. All methods must be called from one goroutine; distinct
// lanes are fully independent. Before the Defense is closed the owner
// must stop offering and call Flush, so every accepted frame is
// published to its consumer.
type IngestLane struct {
	in      *ingestStage
	ring    *ring.SPSC[core.FrameFeatures]
	pending int // unpublished pushes
}

// Lane claims producer lane l (0 <= l < the lane count given to
// EnableIngest) for exclusive wire-speed use. From then on Offer
// skips that lane; claiming every lane leaves Offer nowhere to queue,
// so mixed deployments should reserve at least one unclaimed lane.
// Claiming the same lane twice returns the same ring — the caller
// owns the "one producer goroutine" contract.
func (d *Defense) Lane(l int) *IngestLane {
	in := d.ingest.Load()
	if in == nil {
		panic("accturbo: Lane before EnableIngest")
	}
	if l < 0 || l >= len(in.lanes) {
		panic(fmt.Sprintf("accturbo: Lane(%d) out of range [0,%d)", l, len(in.lanes)))
	}
	lane := &in.lanes[l]
	lane.mu.Lock()
	lane.wired = true
	lane.mu.Unlock()
	return &IngestLane{in: in, ring: in.rings[l]}
}

// OfferFrame validates one raw IPv4 frame, decodes its clustering
// features in place (the fused packet.FrameView path — the header bytes
// are only read during this call, never retained), and queues them on
// the lane's ring. Pushes publish in batches of laneFlushEvery; call
// Flush to publish a tail immediately. Not safe for concurrent use —
// one goroutine per lane.
func (l *IngestLane) OfferFrame(frame []byte) OfferResult {
	v, err := packet.ParseFrame(frame)
	if err != nil {
		l.in.rejected.Inc()
		return OfferRejected
	}
	if l.in.closed.Load() {
		l.in.shed.Inc()
		return OfferClosed
	}
	var ff core.FrameFeatures
	ff.Size = uint32(v.Length())
	v.Features(l.in.feats, ff.Vals[:len(l.in.feats)])
	if !l.ring.Push(ff) {
		l.in.shed.Inc()
		return OfferFull
	}
	l.pending++
	if l.pending >= laneFlushEvery {
		l.Flush()
	}
	return OfferAccepted
}

// Flush publishes every pending push on the lane and wakes the
// consumer. Call it when the capture loop goes idle and before Close.
func (l *IngestLane) Flush() {
	if l.pending > 0 {
		l.ring.Publish()
		l.pending = 0
		l.in.signal()
	}
}

// signal rings the consumer's doorbell without blocking; a full
// doorbell means a wake-up is already pending.
func (in *ingestStage) signal() {
	select {
	case in.wake <- struct{}{}:
	default:
	}
}

// drain is the consumer: it sweeps every lane's ring, popping straight
// into one batch buffer that feeds the clusterer through
// ObserveShardFrames. It parks on the doorbell when all rings are empty
// (with a timer backstop for publishes that raced the park) and exits
// once every ring is closed and drained.
func (in *ingestStage) drain() {
	defer in.wg.Done()
	batch := make([]core.FrameFeatures, ingestBatch)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		// Read closure before sweeping: a positive closed check followed
		// by an empty sweep proves no published item can remain (rings
		// close only after their final publish).
		allClosed := true
		swept := 0
		for _, r := range in.rings {
			if !r.Closed() {
				allClosed = false
			}
			for n := r.PopBatch(batch); n > 0; n = r.PopBatch(batch) {
				swept += n
				in.d.dp.ObserveShardFrames(0, batch[:n], nil)
			}
		}
		if swept > 0 {
			continue
		}
		if allClosed {
			return
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(time.Millisecond)
		select {
		case <-in.wake:
		case <-timer.C:
		}
	}
}

// depth reports the number of queued, unconsumed records across the
// rings (a point-in-time estimate).
func (in *ingestStage) depth() int {
	n := 0
	for _, r := range in.rings {
		n += r.Len()
	}
	return n
}

// close tears the stage down: fail new offers, publish any pending
// pushes (each lane's mutex fences in-flight Offer calls; wire lanes
// must already have stopped per the IngestLane contract, and the
// publish rescues a wire lane's un-Flushed tail), close every ring, and
// wait for the consumers to drain. Idempotent.
func (in *ingestStage) close() {
	if in.closed.Swap(true) {
		return
	}
	for l, r := range in.rings {
		in.lanes[l].mu.Lock()
		r.Publish()
		r.Close()
		in.lanes[l].mu.Unlock()
	}
	in.signal()
	in.wg.Wait()
}

// IngestShed returns the number of packets and frames the ingest stage
// shed under backpressure or closure. Zero until EnableIngest.
func (d *Defense) IngestShed() uint64 {
	if in := d.ingest.Load(); in != nil {
		return in.shed.Value()
	}
	return 0
}

// IngestRejected returns the number of malformed frames OfferFrame
// refused to queue. Zero until EnableIngest.
func (d *Defense) IngestRejected() uint64 {
	if in := d.ingest.Load(); in != nil {
		return in.rejected.Value()
	}
	return 0
}
