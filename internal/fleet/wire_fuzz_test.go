package fleet

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"accturbo/internal/codec"
)

// FuzzReadFrame is the stream-reader hardening gate: for arbitrary
// bytes, ReadFrame must either error or return a self-consistent frame
// — never panic, and never allocate past the frame-size limit no
// matter what the length prefix claims. Frames that additionally pass
// VerifyFrame must round-trip bit-identically through
// WriteFrame/ReadFrame, which pins the framing as self-delimiting.
func FuzzReadFrame(f *testing.F) {
	f.Add(EncodeHello(1))
	f.Add(EncodeHeartbeat(0))
	f.Add(EncodeSnapshot(&Snapshot{Node: 3, Seq: 9, Infos: slotInfos(100, 200)}))
	f.Add(EncodeDeploy(&Deploy{Epoch: 4, QueueOf: []int{1, 0}, Rank: []float64{2, 8}}))
	damaged := EncodeHello(2)
	damaged[len(damaged)-1] ^= 0x01
	f.Add(damaged)
	truncated := EncodeHeartbeat(5)
	f.Add(truncated[:len(truncated)-3])
	hostile := make([]byte, 0, frameOverhead-4)
	hostile = append(hostile, wireMagic...)
	hostile = binary.LittleEndian.AppendUint16(hostile, wireVersion)
	hostile = append(hostile, MsgSnapshot)
	hostile = binary.LittleEndian.AppendUint32(hostile, 0xffffffff)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		frame, err := ReadFrame(r)
		if err != nil {
			return // rejected: the only other acceptable outcome
		}
		if len(frame) > frameOverhead+maxFramePayload {
			t.Fatalf("ReadFrame returned %d bytes, above the %d frame limit", len(frame), frameOverhead+maxFramePayload)
		}
		if consumed := len(data) - r.Len(); consumed != len(frame) {
			t.Fatalf("ReadFrame consumed %d bytes but returned %d: the framing is not self-delimiting", consumed, len(frame))
		}
		// VerifyFrame on the result must not panic; when the CRC holds,
		// the frame is byte-stable through a write/read cycle.
		if _, err := VerifyFrame(frame); err == nil {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, frame); err != nil {
				t.Fatalf("WriteFrame of a verified frame: %v", err)
			}
			again, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("verified frame did not re-read: %v", err)
			}
			if !bytes.Equal(again, frame) {
				t.Fatal("verified frame did not round-trip bit-identically")
			}
		}
	})
}

// allocatedBy reports how many heap bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// frameOf wraps payload in a valid envelope of msgType.
func frameOf(msgType uint8, payload []byte) []byte {
	e := newFrame(msgType, len(payload))
	e.Raw(payload)
	return seal(e)
}

// reencode decodes a frame with the decoder its type names and encodes
// the result again; ok is false when the decoder refuses the frame.
func reencode(frame []byte) (out []byte, ok bool) {
	if s, err := DecodeSnapshot(frame); err == nil {
		return EncodeSnapshot(s), true
	}
	if dp, err := DecodeDeploy(frame); err == nil {
		return EncodeDeploy(dp), true
	}
	if node, err := DecodeHello(frame); err == nil {
		return EncodeHello(node), true
	}
	if node, err := DecodeHeartbeat(frame); err == nil {
		return EncodeHeartbeat(node), true
	}
	return nil, false
}

// TestDecodeRejectsHostileCounts: every count in a snapshot or deploy
// payload is checked against the bytes left before anything is
// allocated from it.
func TestDecodeRejectsHostileCounts(t *testing.T) {
	const hostile = 0x7fffffff
	var snapInfos, snapRanges, deployQueues, deployRanks codec.Enc
	for _, e := range []*codec.Enc{&snapInfos, &snapRanges} {
		e.U32(1) // node
		e.U64(2) // seq
		e.U64(3) // at
	}
	snapInfos.U32(hostile)
	snapRanges.U32(1) // one Info
	snapRanges.U32(0) // its ID
	snapRanges.Bool(true)
	snapRanges.U32(hostile)
	snapRanges.Raw(make([]byte, 64)) // enough for the Info count to pass
	for _, e := range []*codec.Enc{&deployQueues, &deployRanks} {
		e.U64(1) // epoch
		e.U64(2) // at
	}
	deployQueues.U32(hostile)
	deployRanks.U32(0)
	deployRanks.U32(hostile)

	for _, tc := range []struct {
		name    string
		msgType uint8
		payload []byte
	}{
		{"snapshot infos", MsgSnapshot, snapInfos.Bytes()},
		{"snapshot ranges", MsgSnapshot, snapRanges.Bytes()},
		{"deploy queues", MsgDeploy, deployQueues.Bytes()},
		{"deploy ranks", MsgDeploy, deployRanks.Bytes()},
	} {
		frame := frameOf(tc.msgType, tc.payload)
		var ok bool
		if n := allocatedBy(func() { _, ok = reencode(frame) }); n > 1<<20 {
			t.Errorf("%s: decode allocated %d bytes for a %d-byte frame", tc.name, n, len(frame))
		}
		if ok {
			t.Errorf("%s: hostile count accepted", tc.name)
		}
		var err error
		if tc.msgType == MsgSnapshot {
			_, err = DecodeSnapshot(frame)
		} else {
			_, err = DecodeDeploy(frame)
		}
		if err == nil || !strings.Contains(err.Error(), "claims 2147483647 elements") {
			t.Errorf("%s: err = %v, want a refused count", tc.name, err)
		}
	}
}

// FuzzDecodeFrames feeds arbitrary payloads of every message type to
// DecodeSnapshot, DecodeDeploy, DecodeHello and DecodeHeartbeat. The
// harness wraps each payload in a valid envelope so the fuzzer reaches
// the payload decoders; FuzzReadFrame covers the envelope itself.
// Decoding must not panic and must not allocate more than a fixed
// budget plus a small multiple of the input. A frame that decodes must
// re-encode to a frame that decodes and re-encodes to the same bytes;
// every seed, built by a real encoder, must re-encode to itself.
func FuzzDecodeFrames(f *testing.F) {
	for _, frame := range [][]byte{
		EncodeSnapshot(&Snapshot{Node: 3, Seq: 9, At: 11, Infos: slotInfos(100, 200)}),
		EncodeSnapshot(&Snapshot{Node: 1}),
		EncodeDeploy(&Deploy{Epoch: 4, At: 5, QueueOf: []int{1, 0}, Rank: []float64{2, 8}}),
		EncodeHello(7),
		EncodeHeartbeat(0),
	} {
		if out, ok := reencode(frame); !ok || !bytes.Equal(out, frame) {
			f.Fatalf("seed frame of type %d does not re-encode to itself", frame[len(wireMagic)+2])
		}
		f.Add(frame[len(wireMagic)+2], frame[frameHeader:len(frame)-4])
	}

	f.Fuzz(func(t *testing.T, msgType uint8, payload []byte) {
		frame := frameOf(msgType, payload)
		var once []byte
		var ok bool
		if n := allocatedBy(func() { once, ok = reencode(frame) }); n > 64<<10+16*uint64(len(frame)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(frame), n)
		}
		if !ok {
			return
		}
		twice, ok := reencode(once)
		if !ok {
			t.Fatal("re-encoded frame does not decode")
		}
		if !bytes.Equal(twice, once) {
			t.Fatal("decode → encode is not stable")
		}
	})
}
