package cluster

// MergeSnapshots folds per-pipeline cluster snapshots into one global
// view, slot by slot: the controller of a multi-pipe deployment (each
// pipe clustering its share of the traffic independently) ranks this
// merged view and deploys a single cluster→queue mapping back to every
// pipe.
//
// Slot i of the result covers the union of slot i across all snapshots
// that have seeded it: per-feature ranges take the enclosing interval,
// traffic counters sum, and the nominal cardinality takes the
// per-snapshot maximum (a lower bound on the true union — snapshots carry
// cardinalities, not value sets, exactly like the hardware's per-pipe
// registers). Size is recomputed from the merged widths under the given
// distance: sum of (width−1) contributions for the range-based metrics
// (Manhattan, and Euclidean's bounding-box size), product of widths for
// Anime. Distance normalization is not reapplied; merged views rank raw
// sizes.
//
// Mismatched slot counts merge best-effort by design, not error: the
// result has max-over-snapshots slots, and a snapshot that is shorter
// than a slot index simply contributes nothing there (same as an
// inactive slot). The alternative — rejecting the merge — would let one
// mis-sized participant (a fleet node mid-rolling-reconfigure, a
// truncated snapshot) veto the global ranking for everyone; slot-wise
// union degrades gracefully instead, and the tail slots still rank
// correctly from the participants that have them. Callers that require
// strict alignment (the fleet coordinator does, since slot identity is
// the slice tiling) must validate lengths before merging.
//
// An empty call (no snapshots, or all slots inactive) returns an empty
// non-nil slice.
//
// The result is freshly allocated and shares no memory with the input
// snapshots.
func MergeSnapshots(d Distance, snaps ...[]Info) []Info {
	slots := 0
	for _, s := range snaps {
		if len(s) > slots {
			slots = len(s)
		}
	}
	out := make([]Info, 0, slots)
	for id := 0; id < slots; id++ {
		var m Info
		m.ID = id
		first := true
		for _, s := range snaps {
			if id >= len(s) || !s[id].Active {
				continue
			}
			in := s[id]
			if first {
				first = false
				m.Active = true
				m.Ranges = append([]Range(nil), in.Ranges...)
				m.NominalCardinality = append([]int(nil), in.NominalCardinality...)
			} else {
				for f, r := range in.Ranges {
					// Nominal positions hold zero Ranges on both sides,
					// so the union is a no-op there.
					if r.Min < m.Ranges[f].Min {
						m.Ranges[f].Min = r.Min
					}
					if r.Max > m.Ranges[f].Max {
						m.Ranges[f].Max = r.Max
					}
				}
				for f, card := range in.NominalCardinality {
					if card > m.NominalCardinality[f] {
						m.NominalCardinality[f] = card
					}
				}
			}
			m.Packets += in.Packets
			m.Bytes += in.Bytes
			m.TotalPackets += in.TotalPackets
			m.Benign += in.Benign
			m.Malicious += in.Malicious
		}
		if !m.Active {
			continue
		}
		m.Size = mergedSize(d, &m)
		out = append(out, m)
	}
	return out
}

// mergedSize recomputes Info.Size from merged ranges and cardinalities,
// mirroring Online.clusterCost over the union geometry.
func mergedSize(d Distance, m *Info) float64 {
	width := func(f int) float64 {
		if m.NominalCardinality[f] > 0 {
			return float64(m.NominalCardinality[f])
		}
		return float64(m.Ranges[f].Width()) + 1
	}
	if d == Anime {
		prod := 1.0
		for f := range m.Ranges {
			prod *= width(f)
		}
		return prod
	}
	sum := 0.0
	for f := range m.Ranges {
		sum += width(f) - 1
	}
	return sum
}
