package accturbo

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentDefenseIngest hammers a real-time Defense from
// GOMAXPROCS goroutines (run under -race in CI) and checks the two
// invariants a concurrent pipeline must keep: conservation — every
// packet fed comes back out as exactly one assignment — and validity —
// every verdict names a real cluster slot and a real queue.
func TestConcurrentDefenseIngest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = FromDuration(2 * time.Millisecond)
	cfg.DeployDelay = FromDuration(time.Millisecond)
	d := NewRealTimeDefense(cfg)
	defer d.Close()

	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	const perWorker = 4000
	maxClusters := cfg.Clustering.MaxClusters
	numQueues := d.NumQueues()

	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var v Verdict
				if i%10 == 0 {
					v = d.Process(0, floodPacket())
				} else {
					v = d.Process(0, benignPacket(w*perWorker+i))
				}
				if v.Cluster < 0 || v.Cluster >= maxClusters {
					errs <- "cluster out of range"
					return
				}
				if v.Queue < 0 || v.Queue >= numQueues {
					errs <- "queue out of range"
					return
				}
			}
		}(w)
	}
	// Concurrent control-plane activity and snapshot reads while the
	// ingest goroutines are running.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			d.Poll()
			for _, info := range d.Clusters() {
				if info.ID < 0 || info.ID >= maxClusters {
					errs <- "snapshot slot out of range"
					return
				}
			}
			d.LastDecision()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	want := uint64(workers * perWorker)
	if got := d.PacketsObserved(); got != want {
		t.Fatalf("conservation broken: observed %d packets, fed %d", got, want)
	}
}

// TestRealTimeDefenseDeploys checks the wall-clock control loop end to
// end through the facade: a flood plus background trickle must trigger
// a deployment that demotes the flood out of the top queue.
func TestRealTimeDefenseDeploys(t *testing.T) {
	cfg := HardwareConfig()
	cfg.PollInterval = FromDuration(5 * time.Millisecond)
	cfg.DeployDelay = FromDuration(time.Millisecond)
	d := NewRealTimeDefense(cfg)
	defer d.Close()

	// Feed a dominant flood plus diverse benign flows (so clusters form
	// in several slots) until a deployment lands that demotes the
	// flood's slot out of the top queue. The first deployment may
	// predate the benign clusters and legitimately map a lone flood
	// cluster to queue 0, hence the retry loop.
	deadline := time.Now().Add(5 * time.Second)
	demoted := false
	for n := 0; time.Now().Before(deadline); n++ {
		var fv Verdict
		for i := 0; i < 9; i++ {
			fv = d.Process(0, floodPacket())
		}
		d.Process(0, benignPacket(n%50))
		if d.Deployments() > 0 && fv.Queue > 0 {
			demoted = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if d.Deployments() == 0 {
		t.Fatal("real-time control loop never deployed")
	}
	if d.LastDecision() == nil {
		t.Fatal("no decision recorded")
	}
	if !demoted {
		t.Fatal("flood never demoted out of the highest-priority queue")
	}
}

// TestDefenseRejectsShards: the data plane runs one clustering
// pipeline, so both constructors refuse any other Shards value with the
// Validate error instead of building something else.
func TestDefenseRejectsShards(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 2
	want := cfg.Validate()
	if want == nil {
		t.Fatal("Validate accepted Shards = 2")
	}
	for name, build := range map[string]func(Config) (*Defense, error){
		"NewDefenseE":         NewDefenseE,
		"NewRealTimeDefenseE": NewRealTimeDefenseE,
	} {
		d, err := build(cfg)
		if d != nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("%s(Shards = 2) = %v, %v; want nil, %v", name, d, err, want)
		}
	}
	for _, n := range []int{0, 1} {
		cfg.Shards = n
		d, err := NewDefenseE(cfg)
		if err != nil {
			t.Fatalf("NewDefenseE(Shards = %d): %v", n, err)
		}
		d.Close()
	}
}
