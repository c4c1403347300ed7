package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"accturbo"
	"accturbo/internal/packet"
	"accturbo/internal/pcap"
)

func TestConfigPatchWireFormat(t *testing.T) {
	var cp configPatch
	body := `{"ranking": "N.P./Size", "poll_interval_ms": 125, "deploy_delay_ms": 25.5}`
	if err := json.Unmarshal([]byte(body), &cp); err != nil {
		t.Fatal(err)
	}
	p, err := cp.toRuntimePatch()
	if err != nil {
		t.Fatal(err)
	}
	if p.Ranking == nil || *p.Ranking != accturbo.RankByPacketRateOverSize {
		t.Fatalf("ranking not parsed: %+v", p)
	}
	if p.PollInterval == nil || p.PollInterval.Duration() != 125*time.Millisecond {
		t.Fatalf("poll interval not converted: %+v", p)
	}
	if p.DeployDelay == nil || p.DeployDelay.Duration() != 25500*time.Microsecond {
		t.Fatalf("fractional ms lost: %+v", p)
	}
	if p.ReseedInterval != nil || p.FailOpenAfter != nil || p.WatchdogInterval != nil {
		t.Fatalf("absent fields should stay nil: %+v", p)
	}

	if _, err := (configPatch{Ranking: strPtr("bogus")}).toRuntimePatch(); err == nil {
		t.Fatal("accepted an unknown ranking name")
	}
}

func strPtr(s string) *string { return &s }

func TestWriteConfigReflectsReconfigure(t *testing.T) {
	d := accturbo.NewDefense(accturbo.HardwareConfig())
	defer d.Close()

	poll := accturbo.FromDuration(125 * time.Millisecond)
	r := accturbo.RankByPacketRate
	if _, err := d.Reconfigure(accturbo.RuntimePatch{PollInterval: &poll, Ranking: &r}); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	writeConfig(rec, d)
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["ranking"] != "N.P." {
		t.Fatalf("ranking = %v", got["ranking"])
	}
	if got["poll_interval_ms"] != 125.0 {
		t.Fatalf("poll_interval_ms = %v", got["poll_interval_ms"])
	}
	if got["generation"] != 2.0 {
		t.Fatalf("generation = %v", got["generation"])
	}
}

func TestVictimDetectionThroughFacade(t *testing.T) {
	cfg := accturbo.DefaultVictimConfig()
	cfg.TopK = 4
	vd, err := accturbo.NewVictimDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := accturbo.V4(203, 0, 113, 9)
	p := &accturbo.Packet{SrcIP: accturbo.V4(10, 0, 0, 1), DstIP: victim, Length: 1200}
	for i := 0; i < 1000; i++ {
		vd.Observe(accturbo.DstKey(p), uint64(p.Length))
	}
	bg := &accturbo.Packet{SrcIP: accturbo.V4(10, 0, 0, 2), Length: 400}
	for i := 0; i < 500; i++ {
		bg.DstIP = accturbo.V4(198, 51, byte(i>>8), byte(i))
		vd.Observe(accturbo.DstKey(bg), uint64(bg.Length))
	}
	vs := vd.Advance()
	if len(vs) != 1 || vs[0].Key != accturbo.DstKey(p) {
		t.Fatalf("victims = %+v, want exactly %s", vs, victim)
	}
	if vs[0].Share < 0.5 {
		t.Fatalf("victim share = %v, want > 0.5", vs[0].Share)
	}
}

// captureStdout runs fn and returns what it printed to stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	defer func() { os.Stdout = orig }()
	fn()
	w.Close()
	return <-done
}

// TestNodeOfTopBitHash: 10.0.0.25 hashes to 0x84508ff4, whose top bit
// is set — where int is 32 bits wide, int(hash) % nodes would be
// negative and index out of the per-node slice.
func TestNodeOfTopBitHash(t *testing.T) {
	p := &packet.Packet{SrcIP: accturbo.V4(10, 0, 0, 25)}
	h := fnv.New32a()
	a := p.SrcIP.As4()
	h.Write(a[:])
	if sum := h.Sum32(); sum != 0x84508ff4 || sum < 1<<31 {
		t.Fatalf("FNV-1a(10.0.0.25) = %#x, want the top bit set", sum)
	}
	if got := nodeOf(p, 3); got != 2 {
		t.Fatalf("nodeOf = %d, want 2 (0x84508ff4 mod 3)", got)
	}
	for nodes := 1; nodes <= 16; nodes++ {
		if got := nodeOf(p, nodes); got < 0 || got >= nodes {
			t.Fatalf("nodeOf(%d nodes) = %d out of range", nodes, got)
		}
	}
}

func TestFleetNodesFlag(t *testing.T) {
	for _, tc := range []struct {
		nodes    string
		mode     string
		rejected bool
	}{
		{"0", "single", false},
		{"1", "fleet", false},
		{"3", "fleet", false},
		{"-1", "", true},
	} {
		o := parseFlags([]string{"-in", "x.pcap", "-fleet-nodes", tc.nodes, "-coordinator=false"})
		err := o.validate()
		if tc.rejected {
			if err == nil {
				t.Errorf("-fleet-nodes %s accepted", tc.nodes)
			}
			continue
		}
		if err != nil {
			t.Errorf("-fleet-nodes %s: %v", tc.nodes, err)
		} else if m := o.mode(); m != tc.mode {
			t.Errorf("-fleet-nodes %s runs %q, want %q", tc.nodes, m, tc.mode)
		}
	}
}

// TestFleetOfOneNode: -fleet-nodes 1 -coordinator=false runs the
// in-process fleet (not the single pipeline), so its lone node rides the
// sticky local fallback ranking.
func TestFleetOfOneNode(t *testing.T) {
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12000; i++ {
		p := &packet.Packet{
			SrcIP: accturbo.V4(10, 0, byte(i>>8), byte(i)), DstIP: accturbo.V4(198, 18, 0, 1),
			Protocol: 17, SrcPort: uint16(1000 + i%50), DstPort: 53, TTL: 64, Length: uint16(60 + i%900),
		}
		if err := w.Write(accturbo.FromDuration(time.Duration(i)*time.Millisecond), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	o := parseFlags([]string{"-fleet-nodes", "1", "-coordinator=false", "-poll", "5"})
	out := captureStdout(t, func() {
		runFleet(o.config(nil), o.fleetNodes, o.coordinator, "", &captureStream{r: r})
	})
	for _, want := range []string{
		"fleet mode: 1 nodes, 12000 packets partitioned by source IP",
		"node 0:    12000 pkts, ranking source fleet-fallback:local",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}
