package core

import (
	"fmt"
	"io"

	"accturbo/internal/cluster"
	"accturbo/internal/codec"
	"accturbo/internal/eventsim"
)

// Snapshot format. The payload travels in codec's sealed container —
// magic, format version, explicit length and CRC-32 (IEEE) trailer — so
// a restore can reject truncation, bit rot, and version skew before
// touching any live state:
//
//	"ACCSNAP1" | version u16 | payloadLen u64 | payload | crc32 u32
//
// All integers are little-endian. The payload captures everything a
// fresh process needs to resume defending without a re-convergence
// window: the live runtime config (not its generation — that counts
// Reconfigure calls in one process's lifetime), the deployed queue map,
// the learned clusterer state, the last deployed decision,
// fail-open status, and the lifetime telemetry counters. Save → restore
// → save is byte-identical, which is what the CI determinism gate
// checks.
const (
	snapMagic   = "ACCSNAP1"
	snapVersion = 1
)

// SaveState serializes the full defense state of the dataplane/control
// plane pair into w. It is safe to call on a live concurrent pipeline:
// the clusterer is locked while marshaled.
func SaveState(w io.Writer, dp *Dataplane, cp *ControlPlane) error {
	var e codec.Enc

	// Structural fingerprint: a snapshot only restores into a pipeline
	// with identical shape. The leading pipeline count is always 1.
	// Feature-set and clustering details are checked by
	// cluster.Unmarshal's own fingerprint.
	e.U32(1)
	e.U32(uint32(dp.cfg.NumQueues))
	e.U32(uint32(dp.cfg.Clustering.MaxClusters))

	rt := *cp.rt.Load()
	e.U8(uint8(rt.Ranking))
	e.I64(int64(rt.PollInterval))
	e.I64(int64(rt.DeployDelay))
	e.I64(int64(rt.ReseedInterval))
	e.I64(int64(rt.FailOpenAfter))
	e.I64(int64(rt.WatchdogInterval))

	qm := dp.QueueMap()
	e.U32(uint32(len(qm)))
	for _, q := range qm {
		e.U32(uint32(q))
	}

	dp.lock()
	blob := dp.clusterer.Marshal()
	dp.unlock()
	e.U32(uint32(len(blob)))
	e.Raw(blob)

	encodeDecision(&e, cp.lastDec.Load())

	e.Bool(cp.failOpen.Load())
	e.U32(cp.consecStale.Load())

	e.U64(cp.deployments.Value())
	e.U64(cp.panicsRecovered.Value())
	e.U64(cp.watchdogTrips.Value())
	e.U64(cp.failOpens.Value())

	for _, vec := range [][]uint64{dp.assigned.Values(), dp.routed.Values()} {
		e.U32(uint32(len(vec)))
		for _, v := range vec {
			e.U64(v)
		}
	}
	return codec.WriteSealed(w, snapMagic, snapVersion, e.Bytes())
}

// RestoreState loads a SaveState snapshot into a freshly constructed
// pipeline: the dataplane must not have observed any packet and the
// control plane must not have deployed anything, so a restore can never
// silently merge two histories. The runtime config travels through the
// normal Reconfigure path (validated, tickers rescheduled under a new
// generation); the restored decision becomes LastDecision and its queue
// map is live immediately, so the first control-loop tick ranks
// already-learned clusters instead of re-converging. Nothing changes
// until every part of the snapshot has decoded and validated: a failed
// restore leaves the pipeline exactly as it was.
func RestoreState(r io.Reader, dp *Dataplane, cp *ControlPlane) error {
	if dp.Observed() != 0 || cp.deployments.Value() != 0 {
		return fmt.Errorf("core: RestoreState needs a fresh pipeline (observed=%d deployments=%d)",
			dp.Observed(), cp.deployments.Value())
	}
	payload, err := codec.ReadSealed(r, snapMagic, snapVersion)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}

	d := codec.NewDec(payload, "core: snapshot")
	if got := d.U32(); got != 1 {
		return fmt.Errorf("core: snapshot has %d clustering pipelines, want 1", got)
	}
	if got, want := int(d.U32()), dp.cfg.NumQueues; got != want {
		return fmt.Errorf("core: snapshot has %d queues, pipeline has %d", got, want)
	}
	if got, want := int(d.U32()), dp.cfg.Clustering.MaxClusters; got != want {
		return fmt.Errorf("core: snapshot has %d cluster slots, pipeline has %d", got, want)
	}

	rt := RuntimeConfig{
		Ranking:          Ranking(d.U8()),
		PollInterval:     eventsim.Time(d.I64()),
		DeployDelay:      eventsim.Time(d.I64()),
		ReseedInterval:   eventsim.Time(d.I64()),
		FailOpenAfter:    eventsim.Time(d.I64()),
		WatchdogInterval: eventsim.Time(d.I64()),
	}

	qm := make([]int, d.Count(4))
	for i := range qm {
		qm[i] = int(d.U32())
	}

	blob := d.Bytes(d.Count(1))

	dec := decodeDecision(&d)

	failOpen := d.Bool()
	consecStale := d.U32()

	deployments := d.U64()
	panics := d.U64()
	trips := d.U64()
	engagements := d.U64()

	assigned := make([]uint64, d.Count(8))
	for i := range assigned {
		assigned[i] = d.U64()
	}
	routed := make([]uint64, d.Count(8))
	for i := range routed {
		routed[i] = d.U64()
	}
	if err := d.Done(); err != nil {
		return err
	}
	if len(assigned) != dp.assigned.Len() || len(routed) != dp.routed.Len() {
		return fmt.Errorf("core: snapshot counter widths %d/%d do not match pipeline %d/%d",
			len(assigned), len(routed), dp.assigned.Len(), dp.routed.Len())
	}
	for _, q := range qm {
		if q < 0 || q >= dp.cfg.NumQueues {
			return fmt.Errorf("core: snapshot maps a cluster to queue %d of %d", q, dp.cfg.NumQueues)
		}
	}
	if err := rt.Validate(); err != nil {
		return fmt.Errorf("core: snapshot runtime config: %w", err)
	}
	// The clusterer state decodes into a scratch clusterer, so a blob
	// that fails leaves the live one untouched.
	restored := cluster.NewOnline(dp.cfg.Clustering)
	if err := restored.Unmarshal(blob); err != nil {
		return fmt.Errorf("core: clusterer: %w", err)
	}

	// Everything decoded and validated — commit. The runtime config goes
	// through Reconfigure so the tickers land on the restored cadence
	// under a fresh generation.
	if _, err := cp.Reconfigure(rt.patch()); err != nil {
		return fmt.Errorf("core: snapshot runtime config: %w", err)
	}
	dp.lock()
	dp.clusterer = restored
	dp.unlock()
	dp.Deploy(qm)
	if dec != nil {
		cp.lastDec.Store(dec)
	}
	cp.failOpen.Store(failOpen)
	cp.consecStale.Store(consecStale)
	// The restored decision counts as fresh from this process's start:
	// staleness is measured against local clock time, which has no
	// relation to the saving process's timeline.
	cp.lastDeployAt.Store(int64(cp.rawClock.Now()))
	cp.deployments.Add(deployments)
	cp.panicsRecovered.Add(panics)
	cp.watchdogTrips.Add(trips)
	cp.failOpens.Add(engagements)
	for i, v := range assigned {
		if v != 0 {
			dp.assigned.Add(0, i, v)
		}
	}
	for i, v := range routed {
		if v != 0 {
			dp.routed.Add(0, i, v)
		}
	}
	return nil
}

// patch converts a full RuntimeConfig into the all-fields patch that
// replays it through Reconfigure.
func (r RuntimeConfig) patch() RuntimePatch {
	return RuntimePatch{
		Ranking:          &r.Ranking,
		PollInterval:     &r.PollInterval,
		DeployDelay:      &r.DeployDelay,
		ReseedInterval:   &r.ReseedInterval,
		FailOpenAfter:    &r.FailOpenAfter,
		WatchdogInterval: &r.WatchdogInterval,
	}
}

// encodeDecision appends the optional last deployed decision.
func encodeDecision(e *codec.Enc, dec *Decision) {
	e.Bool(dec != nil)
	if dec == nil {
		return
	}
	e.I64(int64(dec.At))
	e.I64(int64(dec.DeployedAt))
	cluster.AppendInfos(e, dec.Clusters)
	e.U32(uint32(len(dec.Rank)))
	for _, r := range dec.Rank {
		e.F64(r)
	}
	e.U32(uint32(len(dec.QueueOf)))
	for _, q := range dec.QueueOf {
		e.U32(uint32(q))
	}
}

// decodeDecision reads what encodeDecision wrote; errors latch in d.
func decodeDecision(d *codec.Dec) *Decision {
	if !d.Bool() {
		return nil
	}
	out := &Decision{
		At:         eventsim.Time(d.I64()),
		DeployedAt: eventsim.Time(d.I64()),
		Clusters:   cluster.ReadInfos(d),
	}
	out.Rank = make([]float64, d.Count(8))
	for i := range out.Rank {
		out.Rank[i] = d.F64()
	}
	out.QueueOf = make([]int, d.Count(4))
	for i := range out.QueueOf {
		out.QueueOf[i] = int(d.U32())
	}
	return out
}
