package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/pcap"
	"accturbo/internal/traffic"
)

// benignSource is the replay-benign input: CAIDA-like background only,
// n frames. The rate only sets timestamps: replay ignores them, the
// quality guard sizes its link from them.
func benignSource(seed int64, n int) traffic.Source {
	bg := traffic.NewBackground(traffic.BackgroundConfig{
		Rate: 1e9, Start: 0, End: 3600 * eventsim.Second, Seed: seed,
	})
	return traffic.Limit(bg, n)
}

// synFloodSource is the replay-synflood input: one SYN flood (40-byte
// frames, spoofed /24 sources, random source ports) over a background
// carrying a fifth of the flood's bits (about 1% of the frames), n
// frames in all.
func synFloodSource(seed int64, n int) traffic.Source {
	const floodBits = 100e6
	end := 3600 * eventsim.Second
	flood := traffic.SYNFlood().Flood(0, end, floodBits, packet.V4Addr{198, 51, 100, 7}, 80, seed)
	bg := traffic.NewBackground(traffic.BackgroundConfig{
		Rate: floodBits / 5, Start: 0, End: end, Seed: seed + 1,
	})
	return traffic.Limit(traffic.Merge(flood, bg), n)
}

// image is one workload input rendered as a nanosecond pcap capture
// held in memory.
type image struct {
	data   []byte
	frames int
	sha256 string
}

// renderImage writes every packet of src into an in-memory capture.
func renderImage(src traffic.Source, sizeHint int) (*image, error) {
	var buf bytes.Buffer
	buf.Grow(sizeHint)
	w, err := pcap.NewNanoWriter(&buf)
	if err != nil {
		return nil, err
	}
	img := &image{}
	for {
		tp, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Write(tp.At, tp.Pkt); err != nil {
			return nil, err
		}
		img.frames++
	}
	if err := w.Flush(); err != nil {
		return nil, fmt.Errorf("flushing capture image: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	img.data, img.sha256 = buf.Bytes(), hex.EncodeToString(sum[:])
	return img, nil
}

// sourceRate drains src and returns the IP bits it carries, its last
// arrival time and the time from its first arrival to its last.
func sourceRate(src traffic.Source) (bits uint64, last, span eventsim.Time) {
	pool := packet.NewPool()
	traffic.AttachPool(src, pool)
	first := eventsim.Time(-1)
	for {
		tp, ok := src.Next()
		if !ok {
			return bits, last, last - first
		}
		if first < 0 {
			first = tp.At
		}
		last = tp.At
		bits += 8 * uint64(tp.Pkt.WireLen())
		pool.Put(tp.Pkt)
	}
}

// sourceDigest drains src and returns the sha256 of its packets'
// arrival times and header fields, and the packet count: the
// simulation's input, fingerprinted without rendering payloads.
func sourceDigest(src traffic.Source) (string, uint64) {
	pool := packet.NewPool()
	traffic.AttachPool(src, pool)
	h := sha256.New()
	var rec [32]byte
	var n uint64
	for {
		tp, ok := src.Next()
		if !ok {
			break
		}
		p := tp.Pkt
		binary.LittleEndian.PutUint64(rec[0:8], uint64(tp.At))
		binary.LittleEndian.PutUint32(rec[8:12], p.Value(packet.FSrcIP))
		binary.LittleEndian.PutUint32(rec[12:16], p.Value(packet.FDstIP))
		binary.LittleEndian.PutUint16(rec[16:18], p.SrcPort)
		binary.LittleEndian.PutUint16(rec[18:20], p.DstPort)
		binary.LittleEndian.PutUint16(rec[20:22], p.Length)
		binary.LittleEndian.PutUint16(rec[22:24], p.ID)
		binary.LittleEndian.PutUint32(rec[24:28], p.FlowID)
		rec[28], rec[29], rec[30], rec[31] = byte(p.Protocol), p.TTL, byte(p.Flags), byte(p.Label)
		h.Write(rec[:])
		pool.Put(p)
		n++
	}
	return hex.EncodeToString(h.Sum(nil)), n
}
