package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// stage names one layer boundary the benchmark times. Spans carry the
// stage as a small integer; stageNames gives the printed name.
type stage uint8

const (
	stCalib          stage = iota // the tracer's own calibration spans
	stPcapNext                    // pcap.MappedReader.NextFrame, one group of frames
	stOffer                       // accturbo.IngestLane.OfferFrame, one group of frames
	stWait                        // one backpressure loop inside an offer group
	stDecode                      // packet.ParseFrame + FrameView.Features
	stObserveFrames               // core.Dataplane.ObserveShardFrames, one batch
	stClusterObserve              // cluster.Online.ObserveFeatures, one batch
	stStep                        // a control-loop callback behind core.Config.WrapClock
	stEvent                       // one arrival event of the simulation (root)
	stTrafficNext                 // traffic.Source.Next
	stNetsimInject                // netsim.Port.Inject on the ACC-Turbo port
	stJaqenInject                 // netsim.Port.Inject on the Jaqen port (ingress admit included)
	stEnqueue                     // queue.Qdisc.Enqueue
	stDequeue                     // queue.Qdisc.Dequeue
	stClassify                    // core.Dataplane.Classify
	numStages
)

var stageNames = [numStages]string{
	stCalib:          "trace.calibration",
	stPcapNext:       "pcap.next",
	stOffer:          "ingest.offer",
	stWait:           "ingest.wait",
	stDecode:         "packet.decode",
	stObserveFrames:  "core.observe_frames",
	stClusterObserve: "cluster.observe",
	stStep:           "core.step",
	stEvent:          "sim.event",
	stTrafficNext:    "traffic.next",
	stNetsimInject:   "netsim.inject",
	stJaqenInject:    "jaqen.inject",
	stEnqueue:        "queue.enqueue",
	stDequeue:        "queue.dequeue",
	stClassify:       "core.classify",
}

func (s stage) String() string { return stageNames[s] }

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent indexes the enclosing
// span on the same track (-1 for a root).
type span struct {
	Start, End int64
	Parent     int32
	Stage      stage
}

// tracer owns the tracks of one traced run and their shared clock
// origin. Spans stay in memory until writeCSV dumps them.
type tracer struct {
	epoch time.Time
	// spanNs is what an empty span measures and childNs what an empty
	// child adds to its parent's self time: the clock reads and
	// bookkeeping that tracing itself puts into every recorded span.
	// summarize takes both back out.
	spanNs, childNs int64
	mu              sync.Mutex
	tracks          []*track
}

func newTracer() *tracer {
	tr := &tracer{epoch: time.Now()}
	tr.calibrate()
	return tr
}

// calibrate measures spanNs and childNs on a throwaway track.
func (tr *tracer) calibrate() {
	const n = 2001
	t := &track{epoch: tr.epoch, spans: make([]span, 0, 2*n+rootReserve), stack: make([]int32, 0, 4)}
	empty := make([]int64, n)
	for i := range empty {
		t.End(t.BeginRoot(stCalib))
		empty[i] = t.spans[i].End - t.spans[i].Start
	}
	t.spans = t.spans[:0]
	withChild := make([]int64, n)
	for i := range withChild {
		p := t.BeginRoot(stCalib)
		t.End(t.Begin(stCalib))
		t.End(p)
		ps, cs := t.spans[2*i], t.spans[2*i+1]
		withChild[i] = (ps.End - ps.Start) - (cs.End - cs.Start)
	}
	tr.spanNs = medianInt(empty)
	tr.childNs = max(0, medianInt(withChild)-tr.spanNs)
}

func medianInt(xs []int64) int64 {
	sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
	return xs[len(xs)/2]
}

// track returns a new span buffer for one goroutine. capacity bounds
// its memory; sampleEvery (a power of two) sets how often a root span
// of each stage is recorded.
func (tr *tracer) track(name string, capacity, sampleEvery int) *track {
	if sampleEvery < 1 || sampleEvery&(sampleEvery-1) != 0 {
		panic(fmt.Sprintf("perfbench: sample period %d is not a power of two", sampleEvery))
	}
	t := &track{
		name:    name,
		epoch:   tr.epoch,
		spanNs:  tr.spanNs,
		childNs: tr.childNs,
		spans:   make([]span, 0, capacity),
		stack:   make([]int32, 0, 16),
		mask:    uint64(sampleEvery - 1),
	}
	tr.mu.Lock()
	tr.tracks = append(tr.tracks, t)
	tr.mu.Unlock()
	return t
}

// track is a single goroutine's span recorder. Every Begin counts a
// call of its stage; whether the call is also recorded as a span is
// decided once per root: a root is sampled every sampleEvery calls of
// its stage, and descendants follow their root.
type track struct {
	name  string
	epoch time.Time
	// spanNs and childNs are the tracer's calibration.
	spanNs, childNs int64
	spans           []span
	stack           []int32 // open spans, innermost last; -1 marks an unrecorded call
	mask            uint64
	// calls counts every call per stage, recorded or not, so sampled
	// means can be scaled to the whole run.
	calls [numStages]uint64
	// refused counts calls not recorded because the buffer was full.
	refused uint64
}

// rootReserve keeps room for a sampled root's descendants, so a tree
// is either recorded whole or not at all.
const rootReserve = 16

func (t *track) now() int64 { return int64(time.Since(t.epoch)) }

// Begin opens a call of stage s and returns its span index, or -1 when
// the call is not recorded. Every Begin must be matched by End.
func (t *track) Begin(s stage) int32 {
	t.calls[s]++
	if len(t.stack) == 0 {
		return t.open(s, t.calls[s]&t.mask == 0)
	}
	return t.open(s, t.stack[len(t.stack)-1] >= 0)
}

// BeginRoot opens a root call that is recorded whenever there is room;
// the caller has already sampled it.
func (t *track) BeginRoot(s stage) int32 {
	t.calls[s]++
	return t.open(s, true)
}

func (t *track) open(s stage, record bool) int32 {
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	} else if record && len(t.spans)+rootReserve > cap(t.spans) {
		t.refused++
		record = false
	}
	if !record {
		t.stack = append(t.stack, -1)
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Start: t.now(), Parent: parent, Stage: s})
	t.stack = append(t.stack, i)
	return i
}

// recording reports whether the innermost open call is recorded.
func (t *track) recording() bool { return len(t.stack) > 0 && t.stack[len(t.stack)-1] >= 0 }

// Add counts a completed call of stage s made inside the innermost open
// call and, when that call is recorded, records it as its child.
func (t *track) Add(s stage, start, end int64) {
	t.calls[s]++
	if !t.recording() {
		return
	}
	if len(t.spans) == cap(t.spans) {
		t.refused++
		return
	}
	t.spans = append(t.spans, span{Start: start, End: end, Parent: t.stack[len(t.stack)-1], Stage: s})
}

// AddRoot counts a completed root call and records it when there is
// room.
func (t *track) AddRoot(s stage, start, end int64) {
	t.calls[s]++
	if len(t.spans)+rootReserve > cap(t.spans) {
		t.refused++
		return
	}
	t.spans = append(t.spans, span{Start: start, End: end, Parent: -1, Stage: s})
}

// End closes the innermost open call; i is what its Begin returned.
func (t *track) End(i int32) {
	if i >= 0 {
		t.spans[i].End = t.now()
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// interval is a half-open [Start, End) stretch of a track's timeline.
type interval struct{ Start, End int64 }

// selfTime returns the parent's duration minus the part of it covered
// by at least one child. Children may nest inside each other, overlap,
// or reach past the parent; only their union clipped to the parent
// counts, so the result lies in [0, parent duration]. kids is sorted
// in place.
func selfTime(parent interval, kids []interval) int64 {
	total := parent.End - parent.Start
	if total <= 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	covered := int64(0)
	curS, curE := int64(0), int64(0)
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			covered += curE - curS
			curS, curE = s, e
		}
	}
	if open {
		covered += curE - curS
	}
	return total - covered
}

// stageStats aggregates one stage over a run. Calls are exact; the
// time sums cover only the Sampled calls that were recorded.
type stageStats struct {
	Calls, Sampled uint64
	SelfNs         int64
}

// MeanSelf is the sampled self time per call, in nanoseconds.
func (s stageStats) MeanSelf() float64 {
	if s.Sampled == 0 {
		return 0
	}
	return float64(s.SelfNs) / float64(s.Sampled)
}

// TotalSelf scales the sampled self time to every call of the stage.
func (s stageStats) TotalSelf() float64 { return s.MeanSelf() * float64(s.Calls) }

// summarize folds every recorded span of the tracks into per-stage
// statistics, computing each span's self time from its direct
// children, less the tracing cost the span and its children added
// (see tracer.spanNs).
func summarize(tracks ...*track) [numStages]stageStats {
	var out [numStages]stageStats
	for _, t := range tracks {
		if t == nil {
			continue
		}
		for s := range out {
			out[s].Calls += t.calls[s]
		}
		kids := make([][]interval, len(t.spans))
		for _, sp := range t.spans {
			if sp.Parent >= 0 {
				kids[sp.Parent] = append(kids[sp.Parent], interval{sp.Start, sp.End})
			}
		}
		for i, sp := range t.spans {
			st := &out[sp.Stage]
			st.Sampled++
			st.SelfNs += selfTime(interval{sp.Start, sp.End}, kids[i]) - t.spanNs - t.childNs*int64(len(kids[i]))
		}
	}
	return out
}

// writeCSV dumps every recorded span, one line each, to path.
func (tr *tracer) writeCSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "track,span,parent,stage,start_ns,end_ns")
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, t := range tr.tracks {
		for i, sp := range t.spans {
			fmt.Fprintf(w, "%s,%d,%d,%s,%d,%d\n", t.name, i, sp.Parent, sp.Stage, sp.Start, sp.End)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing trace file: %w", err)
	}
	return f.Close()
}
