package live

import (
	"runtime"
	"testing"
	"time"

	"d3t/internal/coherency"
	"d3t/internal/netsim"
	"d3t/internal/obs"
	"d3t/internal/repository"
	"d3t/internal/tree"
)

// chainDriver runs closed-loop rounds through a depth-3 chain, source ->
// 1 -> 2 -> 3 for item X, with one session subscribed at the leaf.
type chainDriver struct {
	c       *Cluster
	s       *Session
	v       float64
	timeout *time.Timer
}

// startChain hand-wires the chain (tolerances 10, 20, 30; the session
// wants 60), seeds X at 0 and starts the cluster.
func startChain(tb testing.TB, opts Options) *chainDriver {
	tb.Helper()
	nodes := []*repository.Repository{repository.New(repository.SourceID, 1)}
	for i := 1; i <= 3; i++ {
		parent, r := nodes[i-1], repository.New(repository.ID(i), 1)
		r.Needs["X"], r.Serving["X"] = coherency.Requirement(10*i), coherency.Requirement(10*i)
		r.Level = i
		parent.AddDependent("X", r.ID)
		r.Parents["X"] = parent.ID
		nodes = append(nodes, r)
	}
	o := &tree.Overlay{Nodes: nodes, Net: netsim.Uniform(3, 0)}
	if err := o.Validate(); err != nil {
		tb.Fatal(err)
	}
	c := NewCluster(o, opts)
	c.Seed("X", 0)
	c.Start()
	tb.Cleanup(c.Stop)
	s, err := c.Subscribe("leaf", map[string]coherency.Requirement{"X": 60}, 3)
	if err != nil {
		tb.Fatal(err)
	}
	if s.Repo() != 3 {
		tb.Fatalf("session placed on %v, want the leaf", s.Repo())
	}
	d := &chainDriver{c: c, s: s, timeout: time.NewTimer(time.Hour)}
	tb.Cleanup(func() { d.timeout.Stop() })
	return d
}

// round publishes the next value of X — 100 above the last, so every hop
// and the session forward it — and waits until the leaf session
// receives it.
func (d *chainDriver) round(tb testing.TB) {
	d.v += 100
	if !d.c.Publish("X", d.v) {
		tb.Fatal("publish on a stopped cluster")
	}
	d.timeout.Reset(5 * time.Second)
	for {
		select {
		case u := <-d.s.Updates():
			if u.Value == d.v && !u.Resync {
				return
			}
		case <-d.timeout.C:
			tb.Fatalf("value %v never reached the leaf session", d.v)
		}
	}
}

// TestPublishAllocBudget is the tripwire for the hop's allocation-free
// path: single publishes through three hops to a session allocate
// nothing in steady state (inline single-update batches, reused grouping
// scratch, no per-edge goroutine).
func TestPublishAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	d := startChain(t, Options{})
	for i := 0; i < 500; i++ {
		d.round(t) // warm-up: scratch slices grow once
	}
	const rounds = 5000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		d.round(t)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / rounds; per > 0.05 {
		t.Errorf("%.3f allocations per publish through a depth-3 chain, want <= 0.05", per)
	}
}

// BenchmarkClusterPublish times one single publish from the call to its
// receipt at a leaf session three hops down.
func BenchmarkClusterPublish(b *testing.B) {
	d := startChain(b, Options{})
	b.ReportAllocs()
	for b.Loop() {
		d.round(b)
	}
}

// TestCommDelayIsLatency: CommDelay is a per-hop latency, not a serial
// link. A burst of copies crosses an edge together, so the last of 20
// publishes reaches the leaf two delays after the first was sent — a link
// passing one batch per delay would need 20 delays on the first hop
// alone — and every hop still takes at least the delay.
func TestCommDelayIsLatency(t *testing.T) {
	const delay = 20 * time.Millisecond
	tr := obs.NewTree()
	c := NewCluster(chainOverlay(t), Options{CommDelay: delay, Obs: tr})
	c.Seed("X", 100)
	c.Start()
	defer c.Stop()

	start := time.Now()
	last := 0.0
	for i := 1; i <= 20; i++ {
		last = 100 + 100*float64(i) // beyond both tolerances
		c.Publish("X", last)
	}
	if !waitFor(t, 2*time.Second, func() bool {
		v, _ := c.Value(2, "X")
		return v == last
	}) {
		t.Fatalf("the burst never reached the leaf: %v", c.Snapshot("X"))
	}
	took := time.Since(start)
	if took < 2*delay || took > 2*delay+100*time.Millisecond {
		t.Errorf("last value reached the leaf after %v, want about 2 × %v", took, delay)
	}
	for _, n := range c.ObsSnapshot().Nodes {
		if n.ID != repository.SourceID && n.Hop.P50Ms < float64(delay/time.Millisecond) {
			t.Errorf("%v: hop p50 %.3f ms below the %v delay", n.ID, n.Hop.P50Ms, delay)
		}
	}
}

// TestClusterGoroutines pins the goroutine budget: one worker per relay
// (node, shard), none at the source (it applies in its publishers) and
// nothing per edge; armed detection adds a heartbeater per node, a
// watchdog per non-source node and one session watchdog; a failover adds
// nothing; Stop returns to the baseline.
func TestClusterGoroutines(t *testing.T) {
	// The previous test's runner goroutine may still be exiting: take the
	// baseline once the count stops falling.
	base := runtime.NumGoroutine()
	for waitFor(t, 100*time.Millisecond, func() bool { return runtime.NumGoroutine() < base }) {
		base = runtime.NumGoroutine()
	}
	expect := func(what string, want int) {
		t.Helper()
		if !waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() == want }) {
			t.Errorf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), want)
		}
	}

	o, _ := multiOverlay(t, 9)
	c := NewCluster(o, Options{Shards: 4})
	c.Start()
	expect("detection off", base+4*(len(o.Nodes)-1))
	c.Stop()
	expect("after Stop", base)

	o = failoverOverlay(t)
	clk := newTestClock()
	c = NewCluster(o, Options{
		Heartbeat:  2 * time.Millisecond,
		FailWindow: time.Hour,
		Clock:      clk.Now,
		Backups:    map[repository.ID][]repository.ID{2: {repository.SourceID}},
	})
	c.Seed("X", 100)
	c.Start()
	armed := base + 2 /* relay workers */ + 3 /* heartbeaters */ + 2 /* watchdogs */ + 1 /* session watchdog */
	expect("detection armed", armed)
	c.Crash(1)
	clk.Advance(2 * time.Hour)
	if !waitFor(t, 5*time.Second, func() bool { return c.Failovers() > 0 }) {
		t.Fatal("leaf never failed over")
	}
	expect("after a failover", armed)
	c.Stop()
	expect("after Stop", base)
}
