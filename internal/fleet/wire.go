// Package fleet runs ACC-Turbo at many vantage points with one global
// ranking (ROADMAP item 1). Each node's control loop — unchanged except
// for the core.Ranker seam — publishes its per-window cluster snapshot
// to a coordinator; the coordinator merges the snapshots slot-wise
// (cluster.MergeSnapshots) and broadcasts one cluster→queue mapping
// back, so an aggregate whose sources are spread across nodes is ranked
// by its *fleet-wide* rate, which is the case single-node clustering
// provably misranks. A node cut off from the coordinator falls back to
// ranking its own snapshot locally (never to undefended FIFO) and
// reports the degradation through Health until fleet deploys resume.
//
// The layers, bottom up:
//
//   - wire.go: the framed message codec. Length-prefixed, CRC-checked,
//     versioned — TCP-shaped, so the in-process transports used for
//     deterministic simulation can be swapped for a socket later
//     without touching the codec.
//   - transport.go: the Transport seam with two backends — SimTransport
//     (eventsim-scheduled, deterministic, partitionable) and
//     ChanTransport (goroutine dispatcher for real-time fleets).
//   - coordinator.go: merges the latest snapshot from every node and
//     broadcasts the global ranking, epoch-stamped.
//   - node.go: the core.Ranker that publishes snapshots, applies fleet
//     deployments, and degrades to local ranking past a staleness
//     bound — PR 5's fail-open machinery generalized to "coordinator
//     unreachable".
package fleet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"accturbo/internal/cluster"
	"accturbo/internal/codec"
	"accturbo/internal/eventsim"
)

// Frame layout, little-endian throughout:
//
//	"ACCFLEET" | version u16 | type u8 | payloadLen u32 | payload | crc32 u32
//
// The CRC (IEEE) covers magic through payload, so a flipped type or
// length byte is caught, not just payload corruption. payloadLen makes
// the format self-delimiting on a byte stream: ReadFrame/WriteFrame
// speak it over any io.Reader/Writer, which is what keeps the framing
// TCP-shaped while the current backends move whole frames in process.
// The envelope is fleet's own; the payloads are written with the
// shared internal/codec primitives, and a snapshot's cluster list is
// cluster's one Info layout (cluster.AppendInfos).
const (
	wireMagic   = "ACCFLEET"
	wireVersion = 1

	// frameHeader is every envelope byte before the payload.
	frameHeader = len(wireMagic) + 2 + 1 + 4
	// frameOverhead is every byte that isn't payload.
	frameOverhead = frameHeader + 4

	// maxFramePayload bounds what ReadFrame will buffer: generous for
	// any real snapshot (a 4096-slot snapshot with 16 features is under
	// 1 MiB) while refusing a corrupt length prefix asking for 4 GiB.
	maxFramePayload = 16 << 20
)

// Message types.
const (
	// MsgSnapshot is a node→coordinator cluster snapshot.
	MsgSnapshot uint8 = 1
	// MsgDeploy is a coordinator→node global ranking deployment.
	MsgDeploy uint8 = 2
	// MsgHello is the first frame on a node→coordinator TCP connection:
	// it names the node id the connection speaks for (the handshake the
	// in-process transports get implicitly from their registration maps).
	MsgHello uint8 = 3
	// MsgHeartbeat is the idle-link liveness frame, sent in both
	// directions by the TCP transport; it carries the sender's node id
	// (0 for the coordinator) and feeds the receiver's last-seen clock.
	MsgHeartbeat uint8 = 4
)

// Snapshot is one node's per-window cluster view, as published to the
// coordinator each poll.
type Snapshot struct {
	// Node identifies the publishing vantage point.
	Node uint32
	// Seq increases by one per publish from this node; the coordinator
	// drops reordered duplicates.
	Seq uint64
	// At is the node-local poll time the snapshot was taken.
	At eventsim.Time
	// Infos is the polled (and reset) window snapshot — slot-aligned
	// across nodes when every node runs the same SliceInit tiling.
	Infos []cluster.Info
}

// Deploy is the coordinator's broadcast: one global cluster→queue
// mapping for every node.
type Deploy struct {
	// Epoch increases by one per broadcast; nodes apply only newer
	// epochs, so a delayed duplicate cannot roll a mapping back.
	Epoch uint64
	// At is the coordinator-local time the ranking was computed.
	At eventsim.Time
	// QueueOf maps cluster slot → priority queue, len = the fleet's
	// slot count.
	QueueOf []int
	// Rank is the merged rank metric per slot that produced QueueOf,
	// carried for node-side interpretability (Decision.Rank).
	Rank []float64
}

// msgNames names each message type in decode errors.
var msgNames = [...]string{MsgSnapshot: "snapshot", MsgDeploy: "deploy", MsgHello: "hello", MsgHeartbeat: "heartbeat"}

// newFrame starts a frame of the given type with room for a payload of
// about payloadHint bytes; the caller appends the payload and seals it.
func newFrame(msgType uint8, payloadHint int) *codec.Enc {
	e := codec.NewEnc(frameOverhead + payloadHint)
	e.String(wireMagic)
	e.U16(wireVersion)
	e.U8(msgType)
	e.U32(0) // payload length, patched by seal
	return e
}

// seal patches the payload length into a newFrame envelope and appends
// the CRC over everything before it.
func seal(e *codec.Enc) []byte {
	b := e.Bytes()
	binary.LittleEndian.PutUint32(b[frameHeader-4:], uint32(len(b)-frameHeader))
	e.U32(crc32.ChecksumIEEE(b))
	return e.Bytes()
}

// unframe validates the container and returns (type, payload). The
// payload aliases data; decode before the buffer is reused.
func unframe(data []byte) (uint8, []byte, error) {
	if len(data) < frameOverhead {
		return 0, nil, fmt.Errorf("fleet: frame of %d bytes is shorter than the %d-byte envelope", len(data), frameOverhead)
	}
	if string(data[:len(wireMagic)]) != wireMagic {
		return 0, nil, fmt.Errorf("fleet: bad magic %q", data[:len(wireMagic)])
	}
	body := data[:len(data)-4]
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return 0, nil, fmt.Errorf("fleet: frame checksum %08x != stored %08x", got, sum)
	}
	if v := binary.LittleEndian.Uint16(body[len(wireMagic):]); v != wireVersion {
		return 0, nil, fmt.Errorf("fleet: frame version %d, this build speaks %d", v, wireVersion)
	}
	msgType := body[len(wireMagic)+2]
	plen := int(binary.LittleEndian.Uint32(body[frameHeader-4:]))
	if plen != len(body)-frameHeader {
		return 0, nil, fmt.Errorf("fleet: payload length %d != %d remaining bytes", plen, len(body)-frameHeader)
	}
	return msgType, body[frameHeader:], nil
}

// open unframes data, checks that it carries a want message, and
// returns a decoder over the payload.
func open(data []byte, want uint8) (codec.Dec, error) {
	msgType, payload, err := unframe(data)
	if err != nil {
		return codec.Dec{}, err
	}
	if msgType != want {
		return codec.Dec{}, fmt.Errorf("fleet: message type %d, want %s (%d)", msgType, msgNames[want], want)
	}
	return codec.NewDec(payload, "fleet: frame"), nil
}

// EncodeSnapshot frames a node snapshot for the wire.
func EncodeSnapshot(s *Snapshot) []byte {
	e := newFrame(MsgSnapshot, 24+128*len(s.Infos))
	e.U32(s.Node)
	e.U64(s.Seq)
	e.U64(uint64(s.At))
	cluster.AppendInfos(e, s.Infos)
	return seal(e)
}

// DecodeSnapshot unframes and decodes a MsgSnapshot frame.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	d, err := open(data, MsgSnapshot)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{
		Node:  d.U32(),
		Seq:   d.U64(),
		At:    eventsim.Time(d.U64()),
		Infos: cluster.ReadInfos(&d),
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// EncodeDeploy frames a global deployment for broadcast.
func EncodeDeploy(dp *Deploy) []byte {
	e := newFrame(MsgDeploy, 24+4*len(dp.QueueOf)+8*len(dp.Rank))
	e.U64(dp.Epoch)
	e.U64(uint64(dp.At))
	e.U32(uint32(len(dp.QueueOf)))
	for _, q := range dp.QueueOf {
		e.U32(uint32(q))
	}
	e.U32(uint32(len(dp.Rank)))
	for _, r := range dp.Rank {
		e.F64(r)
	}
	return seal(e)
}

// DecodeDeploy unframes and decodes a MsgDeploy frame.
func DecodeDeploy(data []byte) (*Deploy, error) {
	d, err := open(data, MsgDeploy)
	if err != nil {
		return nil, err
	}
	dp := &Deploy{
		Epoch: d.U64(),
		At:    eventsim.Time(d.U64()),
	}
	dp.QueueOf = make([]int, d.Count(4))
	for i := range dp.QueueOf {
		dp.QueueOf[i] = int(d.U32())
	}
	dp.Rank = make([]float64, d.Count(8))
	for i := range dp.Rank {
		dp.Rank[i] = d.F64()
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return dp, nil
}

// EncodeHello frames a connection handshake for node id.
func EncodeHello(node uint32) []byte { return encodeNode(MsgHello, node) }

// DecodeHello unframes and decodes a MsgHello frame.
func DecodeHello(data []byte) (uint32, error) { return decodeNode(data, MsgHello) }

// EncodeHeartbeat frames a liveness beacon from node id (0 = the
// coordinator).
func EncodeHeartbeat(node uint32) []byte { return encodeNode(MsgHeartbeat, node) }

// DecodeHeartbeat unframes and decodes a MsgHeartbeat frame.
func DecodeHeartbeat(data []byte) (uint32, error) { return decodeNode(data, MsgHeartbeat) }

// encodeNode frames a message whose whole payload is one node id.
func encodeNode(msgType uint8, node uint32) []byte {
	e := newFrame(msgType, 4)
	e.U32(node)
	return seal(e)
}

// decodeNode reads what encodeNode wrote.
func decodeNode(data []byte, msgType uint8) (uint32, error) {
	d, err := open(data, msgType)
	if err != nil {
		return 0, err
	}
	node := d.U32()
	if err := d.Done(); err != nil {
		return 0, err
	}
	return node, nil
}

// VerifyFrame validates a frame's envelope — magic, version, length and
// CRC — and returns its message type without decoding the payload. The
// TCP transport runs it on every received frame before dispatch: a
// corrupt frame resets the connection rather than reaching a handler.
func VerifyFrame(data []byte) (uint8, error) {
	msgType, _, err := unframe(data)
	return msgType, err
}

// WriteFrame writes one already-encoded frame to a byte stream. Frames
// are self-delimiting, so consecutive WriteFrame calls need no other
// separator — this is the socket-backend contract.
func WriteFrame(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	return err
}

// readChunk bounds how much ReadFrame allocates ahead of the bytes that
// have actually arrived: a peer claiming a near-maxFramePayload frame
// must deliver each chunk before the next one is allocated, so a
// hostile length prefix alone cannot make the reader commit megabytes.
const readChunk = 64 << 10

// ReadFrame reads exactly one frame from a byte stream: envelope first
// (fixed size up to the length field), then the payload and CRC. The
// returned bytes pass straight to DecodeSnapshot/DecodeDeploy. io.EOF
// at a frame boundary is returned as-is; a partial frame is an
// ErrUnexpectedEOF.
//
// The envelope is validated before any payload allocation: bad magic, a
// foreign version, and a payload length over maxFramePayload are all
// rejected from the 15 header bytes alone, and the payload buffer then
// grows readChunk at a time as bytes arrive — a corrupted or hostile
// length prefix cannot OOM the reader.
func ReadFrame(r io.Reader) ([]byte, error) {
	head := make([]byte, frameHeader)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, err
	}
	if string(head[:len(wireMagic)]) != wireMagic {
		return nil, fmt.Errorf("fleet: bad magic %q on stream", head[:len(wireMagic)])
	}
	if v := binary.LittleEndian.Uint16(head[len(wireMagic):]); v != wireVersion {
		return nil, fmt.Errorf("fleet: stream speaks frame version %d, this build speaks %d", v, wireVersion)
	}
	plen := int(binary.LittleEndian.Uint32(head[len(head)-4:]))
	if plen > maxFramePayload {
		return nil, fmt.Errorf("fleet: frame payload %d exceeds the %d limit", plen, maxFramePayload)
	}
	buf := append(make([]byte, 0, len(head)+min(plen+4, readChunk)), head...)
	for remaining := plen + 4; remaining > 0; {
		n := min(remaining, readChunk)
		off := len(buf)
		buf = append(buf, make([]byte, n)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		remaining -= n
	}
	return buf, nil
}
