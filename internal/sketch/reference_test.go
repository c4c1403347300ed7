package sketch

import "math"

// ReferenceCountMin is the seed-era count-min: a [][]uint64 counter
// matrix updated with the same seeded FNV-1a row hashes and `%` column
// indexing as CountMin. It is retained verbatim (plus the saturation
// guard) as the behavioral oracle: differential tests pin CountMin
// bit-identical to it and bound TurboCountMin against it, and the
// benchmark suite measures the flattened and turbo layouts against its
// pointer-chasing one. It lives in a test file, so no production path
// can reach it.
type ReferenceCountMin struct {
	rows, cols int
	counts     [][]uint64
	// Updates counts Add calls since the last Reset.
	Updates uint64
}

// NewReferenceCountMin builds a reference sketch with the given
// geometry.
func NewReferenceCountMin(rows, cols int) *ReferenceCountMin {
	if rows <= 0 || cols <= 0 {
		panic("sketch: invalid reference count-min geometry")
	}
	cm := &ReferenceCountMin{rows: rows, cols: cols, counts: make([][]uint64, rows)}
	for i := range cm.counts {
		cm.counts[i] = make([]uint64, cols)
	}
	return cm
}

// Add increments key's count by delta and returns the new estimate.
func (cm *ReferenceCountMin) Add(key uint64, delta uint64) uint64 {
	cm.Updates++
	est := uint64(math.MaxUint64)
	for r := 0; r < cm.rows; r++ {
		c := hash64(uint64(r)+1, key) % uint64(cm.cols)
		v := cm.counts[r][c] + delta
		if v < cm.counts[r][c] {
			v = math.MaxUint64
		}
		cm.counts[r][c] = v
		if v < est {
			est = v
		}
	}
	return est
}

// Estimate returns the (over-)estimated count of key.
func (cm *ReferenceCountMin) Estimate(key uint64) uint64 {
	est := uint64(math.MaxUint64)
	for r := 0; r < cm.rows; r++ {
		c := hash64(uint64(r)+1, key) % uint64(cm.cols)
		if cm.counts[r][c] < est {
			est = cm.counts[r][c]
		}
	}
	return est
}

// Reset zeroes all counters.
func (cm *ReferenceCountMin) Reset() {
	for r := range cm.counts {
		clear(cm.counts[r])
	}
	cm.Updates = 0
}
