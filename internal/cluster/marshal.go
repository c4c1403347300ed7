package cluster

import (
	"bytes"
	"fmt"

	"accturbo/internal/codec"
)

// Marshal serializes the clusterer's complete learned state — flattened
// geometry, nominal value sets (exact or Bloom), per-cluster counters,
// UID allocator and packet count — into a deterministic little-endian
// byte stream. The stream opens with a configuration fingerprint so
// Unmarshal can refuse a snapshot taken under different cluster
// geometry. Two clusterers with equal observable state produce
// identical bytes (the exhaustive-search merge-cost cache and the
// nominal-set membership memos are derived state and excluded), which
// is what makes save → restore → save byte-identical.
//
// Checksums and format versioning live one layer up, in the core
// snapshot container: a cluster blob never travels alone.
func (o *Online) Marshal() []byte {
	var e codec.Enc
	o.encodeFingerprint(&e)
	e.U64(o.nextUID)
	e.U64(o.Observed)
	e.U32(uint32(len(o.clusters)))
	for ci, c := range o.clusters {
		e.U64(c.uid)
		base := ci * o.nf
		for f := 0; f < o.nf; f++ {
			e.U32(o.min[base+f])
			e.U32(o.max[base+f])
		}
		if o.center != nil {
			for f := 0; f < o.nf; f++ {
				e.F64(o.center[base+f])
			}
		}
		e.U64(c.count)
		e.U64(c.packets)
		e.U64(c.bytes)
		e.U64(c.totalPackets)
		e.U64(c.benign)
		e.U64(c.malicious)
		for f := 0; f < o.nf; f++ {
			if !o.nominal[f] {
				continue
			}
			e.U32(uint32(c.setCard[f]))
			if o.cfg.UseBloom {
				b := c.blooms[f]
				e.U64(b.Inserted)
				words := b.Words()
				e.U32(uint32(len(words)))
				for _, w := range words {
					e.U64(w)
				}
			} else {
				s := &c.sets[f]
				e.U32(uint32(s.card()))
				s.each(func(v uint32) { e.U32(v) })
			}
		}
	}
	return e.Bytes()
}

// Unmarshal replaces the clusterer's state with a Marshal snapshot. The
// receiver must have been constructed with the same configuration the
// snapshot was taken under (checked via the embedded fingerprint);
// restoring re-inserts nominal values in ascending order, which
// reproduces the exact set representation including the small→bitmap
// spill point, so subsequent observations are bit-identical to the
// original clusterer's. The merge-cost cache is marked fully dirty and
// recomputes lazily from the restored geometry.
func (o *Online) Unmarshal(data []byte) error {
	var fp codec.Enc
	o.encodeFingerprint(&fp)
	if !bytes.HasPrefix(data, fp.Bytes()) {
		return fmt.Errorf("cluster: snapshot fingerprint does not match this clusterer's configuration")
	}
	d := codec.NewDec(data[fp.Len():], "cluster: snapshot")

	nextUID := d.U64()
	observed := d.U64()
	k := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	if k > o.cfg.MaxClusters {
		return fmt.Errorf("cluster: snapshot has %d clusters, config allows %d", k, o.cfg.MaxClusters)
	}

	// Geometry decodes into scratch first: a truncated or corrupt
	// stream must leave the receiver untouched.
	min := make([]uint32, k*o.nf)
	max := make([]uint32, k*o.nf)
	var center []float64
	if o.center != nil {
		center = make([]float64, k*o.nf)
	}
	clusters := make([]*clusterState, 0, k)
	for ci := 0; ci < k; ci++ {
		c := o.blankState()
		c.uid = d.U64()
		base := ci * o.nf
		for f := 0; f < o.nf; f++ {
			min[base+f] = d.U32()
			max[base+f] = d.U32()
		}
		if center != nil {
			for f := 0; f < o.nf; f++ {
				center[base+f] = d.F64()
			}
		}
		c.count = d.U64()
		c.packets = d.U64()
		c.bytes = d.U64()
		c.totalPackets = d.U64()
		c.benign = d.U64()
		c.malicious = d.U64()
		for f := 0; f < o.nf; f++ {
			if !o.nominal[f] {
				continue
			}
			c.setCard[f] = int(d.U32())
			if o.cfg.UseBloom {
				inserted := d.U64()
				words := make([]uint64, d.Count(8))
				for i := range words {
					words[i] = d.U64()
				}
				if d.Err() != nil {
					return d.Err()
				}
				if err := c.blooms[f].SetWords(words, inserted); err != nil {
					return err
				}
			} else {
				for i, n := 0, d.Count(4); i < n; i++ {
					v := d.U32()
					if v > o.feats[f].MaxValue() {
						return fmt.Errorf("cluster: snapshot value %d outside feature %v", v, o.feats[f])
					}
					c.sets[f].insert(v)
				}
			}
		}
		if d.Err() != nil {
			return d.Err()
		}
		clusters = append(clusters, c)
	}
	if err := d.Done(); err != nil {
		return err
	}

	// Commit only after the whole stream decoded cleanly.
	o.grow(k)
	copy(o.min, min)
	copy(o.max, max)
	if o.center != nil {
		copy(o.center, center)
	}
	o.clusters = clusters
	o.nextUID = nextUID
	o.Observed = observed
	if o.rowDirty != nil {
		for i := range o.rowDirty {
			o.rowDirty[i] = true
		}
	}
	return nil
}

// encodeFingerprint appends the configuration facts the snapshot layout
// depends on. Any mismatch means the byte stream cannot be interpreted
// against the receiver (different feature count, value spaces, set
// representation) or would silently change behavior (distance, search,
// learning rate).
func (o *Online) encodeFingerprint(e *codec.Enc) {
	e.U32(uint32(o.cfg.MaxClusters))
	e.U8(uint8(len(o.feats)))
	for _, f := range o.feats {
		e.U8(uint8(f))
	}
	e.U8(uint8(o.cfg.Distance))
	e.U8(uint8(o.cfg.Search))
	e.F64(o.cfg.LearningRate)
	e.Bool(o.cfg.UseBloom)
	e.U64(o.cfg.BloomBits)
	e.U32(uint32(o.cfg.BloomHashes))
	e.Bool(o.cfg.Normalize)
	e.Bool(o.cfg.SliceInit)
}
