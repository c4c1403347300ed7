package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"accturbo"
)

// do sends one request to an admin mux and returns the recorded reply.
func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// jsonKeys returns the sorted top-level keys of a JSON object.
func jsonKeys(t *testing.T, body []byte) []string {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("not a JSON object: %v\n%s", err, body)
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func wantKeys(t *testing.T, mode string, body []byte, want ...string) {
	t.Helper()
	sort.Strings(want)
	if got := jsonKeys(t, body); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("%s document keys = %v, want %v", mode, got, want)
	}
}

func TestAdminConfigRequests(t *testing.T) {
	d := accturbo.NewDefense(accturbo.HardwareConfig())
	defer d.Close()
	mux := adminMux(singleRoutes(d, nil))

	for _, tc := range []struct {
		name, method, body string
		want               int
	}{
		{"get", http.MethodGet, "", http.StatusOK},
		{"bad json", http.MethodPut, `{"poll_interval_ms":`, http.StatusBadRequest},
		{"unknown ranking", http.MethodPut, `{"ranking":"bogus"}`, http.StatusBadRequest},
		{"invalid value", http.MethodPut, `{"poll_interval_ms":-5}`, http.StatusUnprocessableEntity},
		{"post", http.MethodPost, `{}`, http.StatusMethodNotAllowed},
		{"delete", http.MethodDelete, "", http.StatusMethodNotAllowed},
	} {
		if rec := do(t, mux, tc.method, "/config", tc.body); rec.Code != tc.want {
			t.Errorf("%s: %s /config = %d, want %d (%s)", tc.name, tc.method, rec.Code, tc.want, rec.Body)
		}
	}
	if g := d.ConfigGeneration(); g != 1 {
		t.Fatalf("a rejected patch moved the config generation to %d", g)
	}

	rec := do(t, mux, http.MethodPut, "/config", `{"ranking":"N.P.","poll_interval_ms":125}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("valid PUT /config = %d: %s", rec.Code, rec.Body)
	}
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["ranking"] != "N.P." || got["poll_interval_ms"] != 125.0 || got["generation"] != 2.0 {
		t.Fatalf("PUT /config answered %v", got)
	}
}

func TestAdminSnapshotRestores(t *testing.T) {
	d := accturbo.NewDefense(accturbo.HardwareConfig())
	defer d.Close()
	for i := 0; i < 2000; i++ {
		p := &accturbo.Packet{
			SrcIP: accturbo.V4(10, 0, byte(i>>8), byte(i)), DstIP: accturbo.V4(198, 18, 0, byte(i%7)),
			Protocol: 17, SrcPort: uint16(1000 + i%50), DstPort: 53, TTL: 64, Length: uint16(60 + i%900),
		}
		d.Process(time.Duration(i)*time.Millisecond, p)
	}
	mux := adminMux(singleRoutes(d, nil))

	if rec := do(t, mux, http.MethodGet, "/snapshot", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /snapshot = %d, want 405", rec.Code)
	}
	rec := do(t, mux, http.MethodPost, "/snapshot", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /snapshot = %d: %s", rec.Code, rec.Body)
	}
	fresh := accturbo.NewDefense(accturbo.HardwareConfig())
	defer fresh.Close()
	if err := fresh.RestoreState(bytes.NewReader(rec.Body.Bytes())); err != nil {
		t.Fatalf("snapshot body does not restore: %v", err)
	}
	if a, b := fresh.PacketsObserved(), d.PacketsObserved(); a != b || a != 2000 {
		t.Fatalf("restored %d packets observed, source has %d", a, b)
	}
	if fresh.Deployments() != d.Deployments() {
		t.Fatalf("restored %d deployments, source has %d", fresh.Deployments(), d.Deployments())
	}
}

func TestAdminHealthDocuments(t *testing.T) {
	cfg := accturbo.HardwareConfig()
	cfg.Clustering.SliceInit = true

	d := accturbo.NewDefense(cfg)
	defer d.Close()
	single := adminMux(singleRoutes(d, nil))
	rec := do(t, single, http.MethodGet, "/health", "")
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("single /health = %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	wantKeys(t, "single", rec.Body.Bytes(),
		"control", "packets_observed", "ingest_depth", "ingest_capacity", "ingest_shed", "degraded")
	if rec := do(t, single, http.MethodGet, "/metrics", ""); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "accturbo_") {
		t.Fatalf("single /metrics = %d: %.200s", rec.Code, rec.Body)
	}
	if rec := do(t, single, http.MethodGet, "/victims", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("/victims served without -victims: %d", rec.Code)
	}

	vd, err := accturbo.NewVictimDetector(accturbo.DefaultVictimConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec = do(t, adminMux(singleRoutes(d, vd)), http.MethodGet, "/victims", "")
	wantKeys(t, "victims", rec.Body.Bytes(), "windows", "victims")

	coord, err := accturbo.NewFleetTCPCoordinator(accturbo.FleetTCPCoordinatorConfig{ListenAddr: "127.0.0.1:0", Node: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	node, err := accturbo.NewFleetTCP(accturbo.FleetTCPConfig{CoordinatorAddr: coord.Addr(), NodeID: 1, Node: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	nodeMux := adminMux(nodeRoutes(node, 1))
	wantKeys(t, "node", do(t, nodeMux, http.MethodGet, "/health", "").Body.Bytes(),
		"node", "connected", "health", "ranker", "transport")
	if rec := do(t, nodeMux, http.MethodGet, "/metrics", ""); rec.Code != http.StatusOK {
		t.Fatalf("node /metrics = %d", rec.Code)
	}
	coordMux := adminMux(map[string]http.HandlerFunc{"/health": coordinatorHealthHandler(coord)})
	wantKeys(t, "coordinator", do(t, coordMux, http.MethodGet, "/health", "").Body.Bytes(),
		"nodes", "coordinator", "transport")

	f, err := accturbo.NewFleetE(accturbo.FleetConfig{Nodes: 2, Node: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fleetMux := adminMux(map[string]http.HandlerFunc{"/health": fleetHealthHandler(f)})
	body := do(t, fleetMux, http.MethodGet, "/health", "").Body.Bytes()
	wantKeys(t, "fleet", body, "nodes", "coordinator")
	var doc struct {
		Nodes []json.RawMessage `json:"nodes"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || len(doc.Nodes) != 2 {
		t.Fatalf("fleet /health lists %d nodes (%v)", len(doc.Nodes), err)
	}
	wantKeys(t, "fleet node", doc.Nodes[0], "node", "health")
}

// TestServeAdminListens drives the helper end to end over a real
// loopback socket: the banner names the bound address and stop closes
// the server.
func TestServeAdminListens(t *testing.T) {
	d := accturbo.NewDefense(accturbo.HardwareConfig())
	defer d.Close()
	var stop func()
	out := captureStdout(t, func() {
		stop = serveAdmin("127.0.0.1:0", "admin on http://%s/", singleRoutes(d, nil))
	})
	addr := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(out), "admin on "), "/")
	resp, err := http.Get(addr + "/health")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wantKeys(t, "served", body, "control", "packets_observed", "ingest_depth", "ingest_capacity", "ingest_shed", "degraded")
	stop()
	if _, err := http.Get(addr + "/health"); err == nil {
		t.Fatal("admin server still answering after stop")
	}
}
