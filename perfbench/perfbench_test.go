package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name string
		kids []interval
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint children", []interval{{110, 120}, {150, 170}}, 70},
		{"child nested in a sibling", []interval{{110, 160}, {120, 130}}, 50},
		{"overlapping children", []interval{{110, 140}, {130, 160}, {155, 165}}, 45},
		{"unsorted overlapping children", []interval{{155, 165}, {110, 140}, {130, 160}}, 45},
		{"touching children", []interval{{110, 120}, {120, 130}}, 80},
		{"children reaching past the parent", []interval{{50, 120}, {190, 250}}, 70},
		{"child outside the parent", []interval{{0, 50}, {300, 400}}, 100},
		{"child covering the parent", []interval{{90, 210}, {120, 130}}, 0},
		{"empty child", []interval{{150, 150}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
	if got := selfTime(interval{10, 10}, []interval{{0, 20}}); got != 0 {
		t.Errorf("empty parent: selfTime = %d, want 0", got)
	}
}

// TestSummarizeNested checks self times over a recorded tree whose
// grandchild sits inside a child, with the tracing cost taken out once
// per span (1 ns) and once per direct child (2 ns).
func TestSummarizeNested(t *testing.T) {
	tk := &track{spanNs: 1, childNs: 2, spans: []span{
		{Start: 0, End: 100, Parent: -1, Stage: stEvent},      // root
		{Start: 10, End: 50, Parent: 0, Stage: stEnqueue},     // child
		{Start: 20, End: 30, Parent: 1, Stage: stClassify},    // grandchild
		{Start: 40, End: 70, Parent: 0, Stage: stTrafficNext}, // child overlapping the first
	}}
	tk.calls[stEvent] = 4 // four calls, one recorded
	st := summarize(tk)
	check := func(s stage, self int64) {
		t.Helper()
		if st[s].SelfNs != self || st[s].Sampled != 1 {
			t.Errorf("%s: self %d sampled %d, want self %d sampled 1", s, st[s].SelfNs, st[s].Sampled, self)
		}
	}
	check(stEvent, 100-60-1-2*2) // children cover [10,70)
	check(stEnqueue, 40-10-1-2)
	check(stClassify, 10-1)
	check(stTrafficNext, 30-1)
	if got := st[stEvent].TotalSelf(); got != 4*35 {
		t.Errorf("TotalSelf = %v, want %v", got, 4*35)
	}
}

func TestTrackSampling(t *testing.T) {
	tr := newTracer()
	tk := tr.track("t", 1024, 4)
	for i := 0; i < 16; i++ {
		root := tk.Begin(stEvent)
		child := tk.Begin(stEnqueue)
		if (root >= 0) != (child >= 0) {
			t.Fatalf("call %d: child recorded %v, root recorded %v", i, child >= 0, root >= 0)
		}
		tk.End(child)
		tk.End(root)
	}
	tk.AddRoot(stStep, 0, 1)
	st := summarize(tk)
	if st[stEvent].Calls != 16 || st[stEvent].Sampled != 4 || st[stEnqueue].Calls != 16 || st[stEnqueue].Sampled != 4 {
		t.Errorf("calls/sampled: event %d/%d enqueue %d/%d, want 16/4 each",
			st[stEvent].Calls, st[stEvent].Sampled, st[stEnqueue].Calls, st[stEnqueue].Sampled)
	}
	if st[stStep].Calls != 1 || st[stStep].Sampled != 1 {
		t.Errorf("AddRoot: step calls %d sampled %d, want 1 and 1", st[stStep].Calls, st[stStep].Sampled)
	}
	full := tr.track("full", rootReserve-1, 1)
	full.End(full.Begin(stEvent))
	if full.refused != 1 || len(full.spans) != 0 {
		t.Errorf("full track recorded %d spans, refused %d; want 0 and 1", len(full.spans), full.refused)
	}
	if tr.spanNs <= 0 || tr.childNs < 0 {
		t.Errorf("calibration: empty span %d ns, child %d ns", tr.spanNs, tr.childNs)
	}
}

// TestWorkloadsReduced runs every workload on reduced inputs, untraced
// and traced, and requires every check to pass and every metric to be
// reported.
func TestWorkloadsReduced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			args := []string{"--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", trace,
				"--scale", "0.05", "--trace-dir", t.TempDir()}
			code := run(args, &out, &errb)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\nstdout:\n%s\nstderr:\n%s", name, trace, code, out.String(), errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed uint64
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: correct %v attempted %d failed %d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
				if !strings.Contains(out.String(), "ledger "+name) {
					t.Errorf("%s: traced run printed no ledger", name)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", name, trace, d.Name, m, d.Unit)
				}
				// Reduced inputs may legitimately drop no benign packet or
				// allocate nothing in the timed window.
				mayBeZero := d.Name == "allocs_per_pkt" || d.Name == "benign_drop_pct"
				if trace == "0" && (m.Value < 0 || (m.Value == 0 && !mayBeZero)) {
					t.Errorf("%s: end-to-end metric %s = %v", name, d.Name, m.Value)
				}
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables here in
// step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, benchmark declares %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, benchmark declares %+v", i, m, d)
		}
	}
}
