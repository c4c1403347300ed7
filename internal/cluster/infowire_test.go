package cluster

import (
	"reflect"
	"testing"

	"accturbo/internal/codec"
)

// marshalInfos and unmarshalInfos frame the Info layout on its own, the
// way every enclosing format embeds it.
func marshalInfos(infos []Info) []byte {
	var e codec.Enc
	AppendInfos(&e, infos)
	return e.Bytes()
}

func unmarshalInfos(b []byte) ([]Info, error) {
	d := codec.NewDec(b, "cluster: infos")
	out := ReadInfos(&d)
	if err := d.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

func sampleInfos() []Info {
	return []Info{
		{
			ID: 0, Active: true,
			Ranges:             []Range{{Min: 0, Max: 63}, {Min: 0, Max: 65535}, {Min: 0, Max: 0}},
			NominalCardinality: []int{0, 0, 7},
			Packets:            123, Bytes: 45678, TotalPackets: 999,
			Benign: 100, Malicious: 23, Size: 65599,
		},
		{ID: 1, Active: false, Ranges: []Range{{}, {}, {}}, NominalCardinality: []int{0, 0, 0}},
		{
			ID: 3, Active: true,
			Ranges:             []Range{{Min: 192, Max: 255}, {Min: 7000, Max: 7003}, {Min: 0, Max: 0}},
			NominalCardinality: []int{0, 0, 1},
			Packets:            1 << 40, Bytes: 1 << 50, TotalPackets: 1 << 41,
			Benign: 0, Malicious: 1 << 40, Size: 66.5,
		},
	}
}

// TestInfoWireRoundTrip pins the fleet wire form: marshal → unmarshal
// must reproduce the snapshot exactly (including inactive slots and
// non-contiguous IDs), and marshal must be deterministic.
func TestInfoWireRoundTrip(t *testing.T) {
	infos := sampleInfos()
	blob := marshalInfos(infos)
	if string(blob) != string(marshalInfos(infos)) {
		t.Fatal("AppendInfos is not deterministic")
	}
	got, err := unmarshalInfos(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, infos) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, infos)
	}
}

// TestInfoWireRoundTripEmpty: an empty snapshot (a node with no traffic
// yet) is a legal 4-byte message.
func TestInfoWireRoundTripEmpty(t *testing.T) {
	blob := marshalInfos(nil)
	got, err := unmarshalInfos(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d infos from empty snapshot", len(got))
	}
}

// TestInfoWireRejectsCorruption: truncation at every byte boundary,
// trailing bytes, and hostile slot counts all fail without a partial
// result.
func TestInfoWireRejectsCorruption(t *testing.T) {
	blob := marshalInfos(sampleInfos())
	for cut := 0; cut < len(blob); cut++ {
		if _, err := unmarshalInfos(blob[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	if _, err := unmarshalInfos(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing byte not rejected")
	}
	// A count far beyond what the payload can hold must fail fast, not
	// allocate.
	hostile := []byte{0xff, 0xff, 0xff, 0x7f}
	if _, err := unmarshalInfos(hostile); err == nil {
		t.Fatal("hostile count not rejected")
	}
}

// TestInfoWireMergesLikeOriginal: the decoded snapshot must be
// indistinguishable from the original to MergeSnapshots — the exact
// path the fleet coordinator runs.
func TestInfoWireMergesLikeOriginal(t *testing.T) {
	a := sampleInfos()
	b := []Info{{
		ID: 3, Active: true,
		Ranges:             []Range{{Min: 200, Max: 210}, {Min: 7000, Max: 7000}, {Min: 0, Max: 0}},
		NominalCardinality: []int{0, 0, 2},
		Packets:            5, Bytes: 5000, TotalPackets: 5, Malicious: 5, Size: 11,
	}}
	direct := MergeSnapshots(Manhattan, a, b)
	da, err := unmarshalInfos(marshalInfos(a))
	if err != nil {
		t.Fatal(err)
	}
	db, err := unmarshalInfos(marshalInfos(b))
	if err != nil {
		t.Fatal(err)
	}
	wired := MergeSnapshots(Manhattan, da, db)
	if !reflect.DeepEqual(direct, wired) {
		t.Fatalf("merge over the wire diverged:\n got %+v\nwant %+v", wired, direct)
	}
}
