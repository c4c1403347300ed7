// Package telemetry is the shared instrumentation substrate of the
// defense: allocation-free counters, gauges, windowed rate meters and
// fixed-bucket histograms with copy-on-read Snapshot semantics.
//
// Every layer of the pipeline reports through these instruments — the
// queueing disciplines (via Sink), the network simulator's per-port
// accounting, the data-plane assignment/routing counters, and the
// control plane's deployment-latency histogram — so the simulator and
// the real-time deployment path export one monitoring signal instead of
// three parallel ad-hoc accounting systems.
//
// Timestamps flow through the Clock interface, a strict subset of
// core.Clock: under a SimClock instruments observe deterministic
// virtual nanoseconds (runs stay bit-identical), under a WallClock they
// observe real time. Instruments never read a clock themselves on the
// hot path; callers pass `now`, so a counter update is one atomic add.
//
// Concurrency: all instruments are safe for concurrent use. Concurrent
// writers on the real-time pipeline use VecCounter, whose per-stripe
// slots are padded onto distinct cache lines and aggregated lock-free
// at read time, so writers on different stripes never contend on a
// counter line.
package telemetry

import (
	"sync/atomic"

	"accturbo/internal/eventsim"
)

// Clock supplies timestamps for snapshot headers and rate windows. It
// is the read-only subset of core.Clock, so the same instrument runs in
// virtual time (deterministic) and wall time unchanged.
type Clock interface {
	Now() eventsim.Time
}

// cacheLine is the assumed cache-line size in bytes for slot padding.
const cacheLine = 64

// Counter is a monotonically increasing event count. The zero value is
// ready to use. Add is one uncontended atomic; heavily shared hot paths
// that would contend on it should use a VecCounter instead.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, active rules). The zero
// value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores the level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the level by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// VecCounter is a vector of n counters, each striped across `stripes`
// writer slots. The layout is stripe-major with each stripe padded to a
// whole number of cache lines, so writers on different stripes never
// share a line: slot(stripe, i) = stripe*stride + i. Reads aggregate
// the stripes lock-free.
type VecCounter struct {
	n      int
	stride int
	slots  []atomic.Uint64
}

// NewVecCounter builds a vector of n counters striped across `stripes`
// writer slots (minimum 1 each).
func NewVecCounter(n, stripes int) *VecCounter {
	if n < 1 {
		n = 1
	}
	if stripes < 1 {
		stripes = 1
	}
	perLine := cacheLine / 8
	stride := (n + perLine - 1) / perLine * perLine
	return &VecCounter{n: n, stride: stride, slots: make([]atomic.Uint64, stride*stripes)}
}

// Len returns the number of counters in the vector.
func (v *VecCounter) Len() int { return v.n }

// Add increments counter i on the given stripe by delta. Out-of-range
// indexes are clamped to the last counter; out-of-range stripes fold
// onto stripe 0 (still correct, possibly contended).
func (v *VecCounter) Add(stripe, i int, delta uint64) {
	if i < 0 || i >= v.n {
		i = v.n - 1
	}
	if stripe < 0 || stripe*v.stride >= len(v.slots) {
		stripe = 0
	}
	v.slots[stripe*v.stride+i].Add(delta)
}

// Value returns counter i aggregated across all stripes.
func (v *VecCounter) Value(i int) uint64 {
	if i < 0 || i >= v.n {
		return 0
	}
	var sum uint64
	for off := i; off < len(v.slots); off += v.stride {
		sum += v.slots[off].Load()
	}
	return sum
}

// Values returns a copy of all counters aggregated across stripes.
func (v *VecCounter) Values() []uint64 {
	out := make([]uint64, v.n)
	for i := range out {
		out[i] = v.Value(i)
	}
	return out
}

// Total returns the sum over the whole vector.
func (v *VecCounter) Total() uint64 {
	var sum uint64
	for i := 0; i < v.n; i++ {
		sum += v.Value(i)
	}
	return sum
}
