package cluster

import (
	"fmt"
	"math"

	"accturbo/internal/packet"
	"accturbo/internal/sketch"
)

// Online is the online clusterer of Appendix B: it maintains at most
// |C| clusters and assigns every packet to exactly one of them,
// extending that cluster's ranges/sets when the packet falls outside.
//
// The per-packet path is built for line rate, mirroring the constraints
// that drove the paper's hardware design (§4):
//
//   - Cluster ranges live in two contiguous structure-of-arrays slices
//     (min/max, indexed cluster*numFeats+feature) instead of
//     per-cluster allocations, so a closest-cluster scan walks flat
//     memory. Euclidean centers are flattened the same way.
//   - The distance function is selected once at construction (a kernel
//     function value), not switched on per packet.
//   - Nominal value sets are sorted small slices with an exact-bitmap
//     spill (see nominalSet), not Go maps.
//   - Exhaustive search keeps a pairwise merge-cost matrix that is
//     invalidated only for clusters whose geometry changed, instead of
//     recomputing all |C|^2 pairs on every packet.
//
// The steady-state Observe path performs no allocations. Reference in
// reference_test.go retains the naive implementation; equivalence tests
// assert both produce identical assignments.
//
// Online is not safe for concurrent use; the simulator is
// single-threaded by design.
type Online struct {
	cfg     Config
	feats   packet.FeatureSet
	nf      int       // len(feats)
	nominal []bool    // per feature position
	scale   []float64 // per-feature distance scaling (1 when !Normalize)

	// Flattened cluster geometry: cluster c covers feature f in
	// [min[c*nf+f], max[c*nf+f]]. center is the Euclidean
	// representation, laid out the same way (nil otherwise). Slots are
	// preallocated for `stride` clusters so steady state never grows.
	min, max []uint32
	center   []float64
	stride   int // cluster slot capacity (>= cfg.MaxClusters)

	clusters []*clusterState

	dist  pointKernel
	merge mergeKernel
	// rawManhattan marks the deployable fast configuration (Manhattan,
	// unnormalized): closest then runs a fused scan with the kernel
	// inlined instead of an indirect call per cluster.
	rawManhattan bool

	// Exhaustive-search cache: pairCost[i*stride+j] is the merge cost
	// of clusters i and j; rowDirty[i] marks clusters whose geometry
	// (or, for Euclidean, weight) changed since row i was computed.
	// Both are nil under fast search.
	pairCost []float64
	rowDirty []bool

	valbuf  []uint32 // scratch: feature values of the current packet
	nextUID uint64
	// Observed counts packets seen since construction.
	Observed uint64
}

// clusterState holds the per-cluster state that is not part of the
// flattened geometry: nominal value sets and traffic statistics.
type clusterState struct {
	uid     uint64
	sets    []nominalSet    // nominal positions (exact mode)
	blooms  []*sketch.Bloom // nominal positions (bloom mode)
	setCard []int           // admitted-value count per nominal position

	count uint64 // packets since seed (for center merging)

	packets, bytes    uint64 // since last ResetStats
	totalPackets      uint64
	benign, malicious uint64
}

// NewOnline builds an online clusterer. It panics on an invalid
// configuration (configs are produced by code, not user input).
func NewOnline(cfg Config) *Online {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	nf := len(cfg.Features)
	o := &Online{
		cfg:     cfg,
		feats:   cfg.Features,
		nf:      nf,
		nominal: make([]bool, nf),
		valbuf:  make([]uint32, nf),
	}
	o.scale = make([]float64, nf)
	for i, f := range cfg.Features {
		o.nominal[i] = f.Nominal()
		o.scale[i] = 1
		if cfg.Normalize && !o.nominal[i] {
			o.scale[i] = 1 / (float64(f.MaxValue()) + 1)
		}
	}
	o.grow(cfg.MaxClusters)
	o.selectKernels()
	if cfg.SliceInit {
		o.sliceInit()
	}
	return o
}

// grow (re)allocates the flattened geometry for at least `slots`
// cluster slots. Existing geometry is preserved row by row.
func (o *Online) grow(slots int) {
	if slots <= o.stride {
		return
	}
	min := make([]uint32, slots*o.nf)
	max := make([]uint32, slots*o.nf)
	copy(min, o.min)
	copy(max, o.max)
	o.min, o.max = min, max
	if o.cfg.Distance == Euclidean {
		center := make([]float64, slots*o.nf)
		copy(center, o.center)
		o.center = center
	}
	if o.cfg.Search == Exhaustive {
		cost := make([]float64, slots*slots)
		for i := 0; i < o.stride; i++ {
			copy(cost[i*slots:i*slots+o.stride], o.pairCost[i*o.stride:(i+1)*o.stride])
		}
		o.pairCost = cost
		dirty := make([]bool, slots)
		copy(dirty, o.rowDirty)
		o.rowDirty = dirty
	}
	o.stride = slots
}

// markDirty flags cluster ci's merge-cost row for recomputation.
func (o *Online) markDirty(ci int) {
	if o.rowDirty != nil {
		o.rowDirty[ci] = true
	}
}

// sliceInit pre-creates MaxClusters clusters that partition the value
// space of the *first ordinal feature* into even slices, with every
// other ordinal feature starting at its full range. This mirrors the
// hardware prototype's controller, which tiles the destination-address
// space so the initial assignment is order-independent. Nominal sets
// start empty.
func (o *Online) sliceInit() {
	k := o.cfg.MaxClusters
	lead := -1
	for f := range o.feats {
		if !o.nominal[f] {
			lead = f
			break
		}
	}
	for i := 0; i < k; i++ {
		o.nextUID++
		c := o.blankState()
		c.uid = o.nextUID
		base := i * o.nf
		for f, feat := range o.feats {
			if o.nominal[f] {
				// Slices carry no nominal admissions until traffic
				// arrives.
				o.min[base+f], o.max[base+f] = 0, 0
				if o.center != nil {
					o.center[base+f] = 0
				}
				continue
			}
			max := uint64(feat.MaxValue()) + 1
			lo, hi := uint32(0), uint32(max-1)
			if f == lead {
				lo = uint32(max * uint64(i) / uint64(k))
				hi = uint32(max*uint64(i+1)/uint64(k) - 1)
			}
			o.min[base+f], o.max[base+f] = lo, hi
			if o.center != nil {
				o.center[base+f] = (float64(lo) + float64(hi)) / 2
			}
		}
		c.count = 0
		o.clusters = append(o.clusters, c)
		o.markDirty(i)
	}
}

// blankState allocates a clusterState with empty nominal sets.
func (o *Online) blankState() *clusterState {
	c := &clusterState{setCard: make([]int, o.nf)}
	if o.cfg.UseBloom {
		c.blooms = make([]*sketch.Bloom, o.nf)
	} else {
		c.sets = make([]nominalSet, o.nf)
	}
	for i, f := range o.feats {
		if !o.nominal[i] {
			continue
		}
		if o.cfg.UseBloom {
			c.blooms[i] = sketch.NewBloom(o.cfg.BloomBits, o.cfg.BloomHashes)
		} else {
			c.sets[i].init(f.MaxValue() + 1)
		}
	}
	return c
}

// Config returns the clusterer's configuration.
func (o *Online) Config() Config { return o.cfg }

// NumClusters returns the number of seeded clusters.
func (o *Online) NumClusters() int { return len(o.clusters) }

// newClusterAt seeds a cluster at slot with the given feature values,
// writing its geometry into the flattened arrays.
func (o *Online) newClusterAt(slot int, vals []uint32) *clusterState {
	o.nextUID++
	c := o.blankState()
	c.uid = o.nextUID
	base := slot * o.nf
	for i, v := range vals {
		o.min[base+i], o.max[base+i] = v, v
		if o.nominal[i] {
			if o.cfg.UseBloom {
				c.blooms[i].Insert(uint64(v))
			} else {
				c.sets[i].insert(v)
			}
			c.setCard[i] = 1
		}
		if o.center != nil {
			o.center[base+i] = float64(v)
		}
	}
	c.count = 1
	o.markDirty(slot)
	return c
}

// admits reports whether cluster ci admits value v at feature f.
func (o *Online) admits(c *clusterState, ci, f int, v uint32) bool {
	if o.nominal[f] {
		return nomContains(c, f, v)
	}
	base := ci * o.nf
	return v >= o.min[base+f] && v <= o.max[base+f]
}

// nomContains reports whether the cluster's nominal set at feature f
// admits v.
func nomContains(c *clusterState, f int, v uint32) bool {
	if c.blooms != nil {
		return c.blooms[f].Contains(uint64(v))
	}
	return c.sets[f].contains(v)
}

// absorb extends cluster ci to cover vals.
func (o *Online) absorb(ci int, vals []uint32) {
	c := o.clusters[ci]
	base := ci * o.nf
	for i, v := range vals {
		if o.nominal[i] {
			if o.cfg.UseBloom {
				if !c.blooms[i].Contains(uint64(v)) {
					c.blooms[i].Insert(uint64(v))
					c.setCard[i]++
				}
			} else if c.sets[i].insert(v) {
				c.setCard[i]++
			}
			continue
		}
		if v < o.min[base+i] {
			o.min[base+i] = v
		}
		if v > o.max[base+i] {
			o.max[base+i] = v
		}
	}
	if o.center != nil {
		lr := o.cfg.LearningRate
		ctr := o.center[base : base+o.nf]
		for i, v := range vals {
			ctr[i] += lr * (float64(v) - ctr[i])
		}
	}
	o.markDirty(ci)
}

// mergeClusters absorbs the whole of cluster si into cluster di
// (exhaustive search).
func (o *Online) mergeClusters(di, si int) {
	d, s := o.clusters[di], o.clusters[si]
	db, sb := di*o.nf, si*o.nf
	for i := 0; i < o.nf; i++ {
		if o.nominal[i] {
			if o.cfg.UseBloom {
				// Bloom filters cannot be unioned value-exactly here;
				// exact mode is the simulation default, and
				// exhaustive+bloom is rejected by Config.Validate.
				panic("cluster: exhaustive search with Bloom sets is not supported")
			}
			added := 0
			s.sets[i].each(func(v uint32) {
				if d.sets[i].insert(v) {
					added++
				}
			})
			d.setCard[i] += added
			continue
		}
		if o.min[sb+i] < o.min[db+i] {
			o.min[db+i] = o.min[sb+i]
		}
		if o.max[sb+i] > o.max[db+i] {
			o.max[db+i] = o.max[sb+i]
		}
	}
	if o.center != nil {
		// Weighted centroid of the two clusters. Two empty clusters
		// (count 0, e.g. untouched slice-init tiles) take the plain
		// midpoint — the weighted form would divide by zero.
		tot := float64(d.count + s.count)
		for i := 0; i < o.nf; i++ {
			if tot == 0 {
				o.center[db+i] = (o.center[db+i] + o.center[sb+i]) / 2
			} else {
				o.center[db+i] = (o.center[db+i]*float64(d.count) + o.center[sb+i]*float64(s.count)) / tot
			}
		}
	}
	d.count += s.count
	d.packets += s.packets
	d.bytes += s.bytes
	d.totalPackets += s.totalPackets
	d.benign += s.benign
	d.malicious += s.malicious
	o.markDirty(di)
}

// account records one packet's traffic statistics against the cluster.
func (c *clusterState) account(size uint64, malicious bool) {
	c.count++
	c.packets++
	c.totalPackets++
	c.bytes += size
	if malicious {
		c.malicious++
	} else {
		c.benign++
	}
}

// Observe runs one step of Algorithm 1 for packet p: find the closest
// cluster (seeding or merging per the search strategy) and extend it to
// cover p.
func (o *Online) Observe(p *packet.Packet) Assignment {
	vals := o.feats.Extract(p, o.valbuf)
	return o.observe(vals, uint64(p.Size()), p.Label == packet.Malicious)
}

// ObserveFeatures is Observe for a packet already reduced to its
// feature values — the wire-speed ingest entry point, fed by the fused
// frame decoder (packet.DecodeFeatures) so no Packet is ever
// materialized. vals must hold exactly the configured feature set's
// values in set order; size is the wire length in bytes. Both paths
// share one implementation, so assignments are bit-identical to
// Observe on the equivalent packet. vals is only read.
func (o *Online) ObserveFeatures(vals []uint32, size uint64, malicious bool) Assignment {
	if len(vals) != o.nf {
		panic("cluster: ObserveFeatures values do not match the configured feature set")
	}
	return o.observe(vals, size, malicious)
}

// observe is the shared step behind Observe and ObserveFeatures.
func (o *Online) observe(vals []uint32, size uint64, malicious bool) Assignment {
	o.Observed++

	// Seed phase: the first |C| distinct arrivals each start a cluster
	// (unless an existing cluster already covers the packet exactly).
	if len(o.clusters) < o.cfg.MaxClusters {
		if id, d := o.closest(vals); id >= 0 && d == 0 {
			o.clusters[id].account(size, malicious)
			// Euclidean merge costs depend on cluster weights, which
			// account just changed.
			o.markDirty(id)
			return Assignment{Cluster: id, UID: o.clusters[id].uid, Distance: 0}
		}
		slot := len(o.clusters)
		c := o.newClusterAt(slot, vals)
		c.account(size, malicious)
		c.count-- // account() bumped it; seed already counted once
		o.clusters = append(o.clusters, c)
		return Assignment{Cluster: slot, UID: c.uid, Created: true}
	}

	id, d := o.closest(vals)

	if o.cfg.Search == Exhaustive && d > 0 {
		// Consider merging the two closest clusters and starting a new
		// cluster at p. Worth it iff the cost increase of the
		// cluster-cluster merge is below the cost increase of
		// absorbing p into its nearest cluster.
		mi, mj, md := o.closestPair()
		if mi >= 0 && md < d {
			o.mergeClusters(mi, mj)
			c := o.newClusterAt(mj, vals)
			c.account(size, malicious)
			c.count--
			o.clusters[mj] = c
			return Assignment{Cluster: mj, UID: c.uid, Distance: 0, Created: true}
		}
	}

	c := o.clusters[id]
	if d > 0 || o.center != nil {
		// Center representations update even for covered packets.
		o.absorb(id, vals)
	}
	c.account(size, malicious)
	return Assignment{Cluster: id, UID: c.uid, Distance: d}
}

// closest returns the index and distance of the cluster nearest to
// vals, or (-1, +inf) when no clusters exist. Ties break toward the
// lowest index, matching the hardware's deterministic comparison tree.
// The running best distance is passed to the kernel as a bound so
// monotone metrics can bail out of losing clusters early.
func (o *Online) closest(vals []uint32) (int, float64) {
	if o.rawManhattan {
		return o.closestManhattanRaw(vals)
	}
	best, bestD := -1, math.Inf(1)
	for i := range o.clusters {
		d := o.dist(o, vals, i, bestD)
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// closestManhattanRaw is closest with manhattanPointRaw fused into the
// scan: no indirect kernel call per cluster, no per-call slice
// re-derivation. Accumulation order and comparisons are identical to
// the generic path, so it returns bit-identical results (asserted by
// the fast-path equivalence tests).
func (o *Online) closestManhattanRaw(vals []uint32) (int, float64) {
	best, bestD := -1, math.Inf(1)
	nf := o.nf
	for ci := range o.clusters {
		base := ci * nf
		c := o.clusters[ci]
		var d float64
		for i, v := range vals {
			if o.nominal[i] {
				if !nomContains(c, i, v) {
					d++
				}
			} else if mn := o.min[base+i]; v < mn {
				d += float64(mn - v)
			} else if mx := o.max[base+i]; v > mx {
				d += float64(v - mx)
			}
			if d >= bestD {
				break
			}
		}
		if d < bestD {
			best, bestD = ci, d
		}
	}
	return best, bestD
}

// closestPair returns the pair of clusters with the lowest merge cost,
// refreshing only the cached rows whose clusters changed since the last
// call.
func (o *Online) closestPair() (int, int, float64) {
	k := len(o.clusters)
	for i := 0; i < k; i++ {
		if !o.rowDirty[i] {
			continue
		}
		row := o.pairCost[i*o.stride:]
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			// Always evaluate with the lower index first: merge kernels
			// are semantically symmetric but not bit-symmetric (float
			// subtraction order), and the matrix must stay canonical.
			var c float64
			if i < j {
				c = o.merge(o, i, j)
			} else {
				c = o.merge(o, j, i)
			}
			row[j] = c
			o.pairCost[j*o.stride+i] = c
		}
		o.rowDirty[i] = false
	}
	bi, bj, bd := -1, -1, 0.0
	for i := 0; i < k; i++ {
		row := o.pairCost[i*o.stride:]
		for j := i + 1; j < k; j++ {
			if d := row[j]; bi < 0 || d < bd {
				bi, bj, bd = i, j, d
			}
		}
	}
	return bi, bj, bd
}

// Snapshot returns the interpretable view of all clusters. The returned
// slices are copies; mutating them does not affect the clusterer.
func (o *Online) Snapshot() []Info {
	out := make([]Info, len(o.clusters))
	for i, c := range o.clusters {
		info := Info{
			ID:                 i,
			Active:             true,
			Ranges:             make([]Range, o.nf),
			NominalCardinality: make([]int, o.nf),
			Packets:            c.packets,
			Bytes:              c.bytes,
			TotalPackets:       c.totalPackets,
			Benign:             c.benign,
			Malicious:          c.malicious,
			Size:               o.clusterCost(i),
		}
		base := i * o.nf
		for f := range o.feats {
			if o.nominal[f] {
				info.NominalCardinality[f] = c.setCard[f]
			} else {
				info.Ranges[f] = Range{Min: o.min[base+f], Max: o.max[base+f]}
			}
		}
		out[i] = info
	}
	return out
}

// ResetStats zeroes the per-window counters (packets, bytes, labels) on
// every cluster. The ACC-Turbo controller calls this after each poll.
func (o *Online) ResetStats() {
	for _, c := range o.clusters {
		c.packets, c.bytes, c.benign, c.malicious = 0, 0, 0, 0
	}
}

// Reseed discards all clusters (restoring the slice tiling when
// SliceInit is configured). The controller uses this to let the
// clustering re-form when aggregates go stale (e.g. between attack
// pulses).
func (o *Online) Reseed() {
	o.clusters = o.clusters[:0]
	if o.rowDirty != nil {
		for i := range o.rowDirty {
			o.rowDirty[i] = true
		}
	}
	if o.cfg.SliceInit {
		o.sliceInit()
	}
}

// SeedCenters force-seeds Euclidean clusters at the given centers,
// used by the hybrid offline/online strategy. It panics unless the
// clusterer is center-based.
func (o *Online) SeedCenters(centers [][]float64) {
	if o.cfg.Distance != Euclidean {
		panic(fmt.Sprintf("cluster: SeedCenters on %v clusterer", o.cfg.Distance))
	}
	o.grow(len(centers))
	o.clusters = o.clusters[:0]
	for ci, ctr := range centers {
		if len(ctr) != o.nf {
			panic(fmt.Sprintf("cluster: center has %d dims, want %d", len(ctr), o.nf))
		}
		for i, v := range ctr {
			if v < 0 {
				v = 0
			}
			o.valbuf[i] = uint32(v)
		}
		c := o.newClusterAt(ci, o.valbuf)
		copy(o.center[ci*o.nf:(ci+1)*o.nf], ctr)
		c.count = 0
		o.clusters = append(o.clusters, c)
	}
}
