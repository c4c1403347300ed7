package cluster

import "accturbo/internal/codec"

// AppendInfos encodes a cluster snapshot — the []Info returned by
// Online.Snapshot, Dataplane.Snapshot or MergeSnapshots — onto e. This
// is the one Info layout: the fleet protocol ships it between nodes and
// the coordinator, and the core snapshot stores the last deployed
// decision's clusters in it. Unlike Online.Marshal (which captures the
// clusterer's full learned state for restore), an Info snapshot is the
// *observable* view — geometry, cardinalities and window counters —
// which is all slot-wise merging needs, and it carries no configuration
// fingerprint so nodes with identical slot tiling but independent
// clusterers interoperate.
//
// Inactive slots are encoded too (one bool), so slot positions survive
// the trip and MergeSnapshots on the far side sees the same tiling the
// sender saw. Framing, versioning and checksums belong to the enclosing
// format: an Info list never travels alone.
func AppendInfos(e *codec.Enc, infos []Info) {
	e.U32(uint32(len(infos)))
	for i := range infos {
		in := &infos[i]
		e.U32(uint32(in.ID))
		e.Bool(in.Active)
		e.U32(uint32(len(in.Ranges)))
		for _, r := range in.Ranges {
			e.U32(r.Min)
			e.U32(r.Max)
		}
		e.U32(uint32(len(in.NominalCardinality)))
		for _, c := range in.NominalCardinality {
			e.U32(uint32(c))
		}
		e.U64(in.Packets)
		e.U64(in.Bytes)
		e.U64(in.TotalPackets)
		e.U64(in.Benign)
		e.U64(in.Malicious)
		e.F64(in.Size)
	}
}

// infoMinSize is the encoded size of an Info with no ranges and no
// cardinalities: ID, Active, two counts, five counters and Size.
const infoMinSize = 4 + 1 + 4 + 4 + 5*8 + 8

// ReadInfos decodes what AppendInfos wrote. The result is freshly
// allocated and shares no memory with the input; on a decode error it
// is nil and the error is latched in d.
func ReadInfos(d *codec.Dec) []Info {
	out := make([]Info, d.Count(infoMinSize))
	for i := range out {
		in := &out[i]
		in.ID = int(d.U32())
		in.Active = d.Bool()
		if nr := d.Count(8); nr > 0 {
			in.Ranges = make([]Range, nr)
			for f := range in.Ranges {
				in.Ranges[f].Min = d.U32()
				in.Ranges[f].Max = d.U32()
			}
		}
		if nc := d.Count(4); nc > 0 {
			in.NominalCardinality = make([]int, nc)
			for f := range in.NominalCardinality {
				in.NominalCardinality[f] = int(d.U32())
			}
		}
		in.Packets = d.U64()
		in.Bytes = d.U64()
		in.TotalPackets = d.U64()
		in.Benign = d.U64()
		in.Malicious = d.U64()
		in.Size = d.F64()
	}
	if d.Err() != nil {
		return nil
	}
	return out
}
