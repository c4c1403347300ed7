package victim

import (
	"fmt"
	"io"
	"sort"

	"accturbo/internal/codec"
	"accturbo/internal/sketch"
)

// Snapshot format. The payload travels in codec's sealed container,
// the same framing as the ACCSNAP1 defense snapshot, so victim state
// rides the same save/restore discipline as the defense core:
//
//	"ACCVICT1" | version u16 | payloadLen u64 | payload | crc32 u32
//
// All integers little-endian. The payload holds the geometry
// fingerprint, window counters, the heavy-keeper (sketch words via
// Words/SetWords, heap entries, decay RNG), and the hysteresis state,
// so save → restore → save is byte-identical.
const (
	snapMagic   = "ACCVICT1"
	snapVersion = 1
)

// Marshal serializes the detector's full state into w.
func (d *Detector) Marshal(w io.Writer) error {
	d.mu.Lock()
	var e codec.Enc
	e.U32(uint32(d.cfg.TopK))
	e.U32(uint32(d.tk.Sketch().Rows()))
	e.U32(uint32(d.tk.Sketch().Cols()))

	e.U64(d.windows)
	e.U64(d.windowBytes)

	words := d.tk.Sketch().Words()
	e.U32(uint32(len(words)))
	for _, wd := range words {
		e.U64(wd)
	}
	e.U64(d.tk.Sketch().Updates)

	entries := d.tk.Entries()
	e.U32(uint32(len(entries)))
	for _, en := range entries {
		e.U64(en.Key)
		e.U64(en.Count)
	}
	e.U64(d.tk.RNG())

	keys := make([]uint64, 0, len(d.listed))
	for k := range d.listed {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.U64(k)
		e.U32(uint32(d.listed[k]))
	}

	e.U32(uint32(len(d.current)))
	for _, v := range d.current {
		e.U64(v.Key)
		e.U64(v.Bytes)
		e.F64(v.Share)
		e.U32(uint32(v.Windows))
	}
	d.mu.Unlock()
	return codec.WriteSealed(w, snapMagic, snapVersion, e.Bytes())
}

// Unmarshal restores a Marshal snapshot into the detector. The
// detector's geometry must match the snapshot's; its previous state is
// replaced wholesale on success and untouched on error.
func (d *Detector) Unmarshal(r io.Reader) error {
	payload, err := codec.ReadSealed(r, snapMagic, snapVersion)
	if err != nil {
		return fmt.Errorf("victim: %w", err)
	}

	dd := codec.NewDec(payload, "victim: snapshot")
	k := int(dd.U32())
	rows := int(dd.U32())
	cols := int(dd.U32())

	d.mu.Lock()
	defer d.mu.Unlock()
	if k != d.cfg.TopK || rows != d.tk.Sketch().Rows() || cols != d.tk.Sketch().Cols() {
		return fmt.Errorf("victim: snapshot geometry k=%d %dx%d, detector has k=%d %dx%d",
			k, rows, cols, d.cfg.TopK, d.tk.Sketch().Rows(), d.tk.Sketch().Cols())
	}

	windows := dd.U64()
	windowBytes := dd.U64()

	words := make([]uint64, dd.Count(8))
	for i := range words {
		words[i] = dd.U64()
	}
	updates := dd.U64()

	entries := make([]sketch.Element, dd.Count(16))
	for i := range entries {
		entries[i].Key = dd.U64()
		entries[i].Count = dd.U64()
	}
	rng := dd.U64()

	listed := make(map[uint64]int, d.cfg.TopK)
	for i, m := 0, dd.Count(12); i < m; i++ {
		key := dd.U64()
		listed[key] = int(dd.U32())
	}

	current := make([]Victim, dd.Count(28))
	for i := range current {
		current[i].Key = dd.U64()
		current[i].Bytes = dd.U64()
		current[i].Share = dd.F64()
		current[i].Windows = int(dd.U32())
	}
	if err := dd.Done(); err != nil {
		return err
	}

	// SetWords is the one step that can still refuse (a mis-sized word
	// vector), and it changes nothing when it does: run it before
	// anything else commits.
	if err := d.tk.Sketch().SetWords(words, updates); err != nil {
		return err
	}
	d.windows = windows
	d.windowBytes = windowBytes
	d.tk.Restore(entries, rng)
	d.listed = listed
	d.current = current
	return nil
}
