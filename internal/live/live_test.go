package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"d3t/internal/coherency"
	"d3t/internal/netsim"
	"d3t/internal/repository"
	"d3t/internal/tree"
)

// chainOverlay builds source -> P(c=30) -> Q(c=50) for item X.
func chainOverlay(t *testing.T) *tree.Overlay {
	t.Helper()
	net := netsim.Uniform(2, 0)
	p := repository.New(1, 1)
	q := repository.New(2, 1)
	p.Needs["X"], p.Serving["X"] = 30, 30
	q.Needs["X"], q.Serving["X"] = 50, 50
	o, err := (&tree.LeLA{}).Build(net, []*repository.Repository{p, q}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

func TestClusterPropagatesAndFilters(t *testing.T) {
	o := chainOverlay(t)
	c := NewCluster(o, Options{})
	c.Seed("X", 100)
	c.Start()
	defer c.Stop()

	// 120: within P's tolerance 30 of 100 -> no movement anywhere.
	c.Publish("X", 120)
	time.Sleep(20 * time.Millisecond)
	if v, _ := c.Value(1, "X"); v != 100 {
		t.Errorf("P received a filtered update: holds %v", v)
	}

	// 140: must reach P (|140-100| > 30) and — via Eq. 7 — also Q.
	c.Publish("X", 140)
	if !waitFor(t, time.Second, func() bool {
		p, _ := c.Value(1, "X")
		q, _ := c.Value(2, "X")
		return p == 140 && q == 140
	}) {
		t.Fatalf("140 did not propagate: snapshot %v", c.Snapshot("X"))
	}
}

func TestClusterWithDelays(t *testing.T) {
	o := chainOverlay(t)
	c := NewCluster(o, Options{CommDelay: 5 * time.Millisecond, CompDelay: time.Millisecond})
	c.Seed("X", 100)
	c.Start()
	defer c.Stop()
	c.Publish("X", 200)
	if !waitFor(t, time.Second, func() bool {
		q, _ := c.Value(2, "X")
		return q == 200
	}) {
		t.Fatalf("update did not propagate through delays: %v", c.Snapshot("X"))
	}
}

func TestClusterObservesDeliveries(t *testing.T) {
	o := chainOverlay(t)
	var mu sync.Mutex
	got := map[repository.ID][]float64{}
	c := NewCluster(o, Options{OnDeliver: func(id repository.ID, item string, v float64) {
		mu.Lock()
		got[id] = append(got[id], v)
		mu.Unlock()
	}})
	c.Seed("X", 100)
	c.Start()
	defer c.Stop()
	for _, v := range []float64{120, 140, 150, 170, 200} {
		c.Publish("X", v)
	}
	if !waitFor(t, time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got[2]) >= 2
	}) {
		t.Fatalf("expected at least 2 deliveries at Q, got %v", got)
	}
	mu.Lock()
	defer mu.Unlock()
	// P must see a superset of Q's updates.
	if len(got[1]) < len(got[2]) {
		t.Errorf("P saw %d updates, Q saw %d; parent must see at least as many", len(got[1]), len(got[2]))
	}
}

// TestClusterStopTerminates: Stop wakes a relay worker parked on a due
// stamp and a Publish blocked in its caller on a full inbox. Every copy
// to P is due an hour after the source sends it and inboxes hold one
// batch, so P's worker parks after its first drain, its inbox fills
// behind it, and the goroutine publishing beyond-tolerance values blocks
// on the next send. Stop must return, and the blocked Publish must
// return false.
func TestClusterStopTerminates(t *testing.T) {
	o := chainOverlay(t)
	c := NewCluster(o, Options{CommDelay: time.Hour, Buffer: 1})
	c.Seed("X", 100)
	c.Start()
	defer c.Stop()              // on a failure before the timed Stop
	var publishing atomic.Int64 // the value the goroutine is publishing
	refused := make(chan int64, 1)
	go func() {
		for v := int64(500); ; v += 100 {
			publishing.Store(v)
			if !c.Publish("X", float64(v)) {
				refused <- v
				return
			}
		}
	}()
	// Blocked: the source has applied the value being published and P's
	// inbox is full, unchanged for 50ms.
	inbox := c.nodes[1].shards[0].in
	var blocked int64
	var since time.Time
	if !waitFor(t, 5*time.Second, func() bool {
		v := publishing.Load()
		applied, _ := c.Value(repository.SourceID, "X")
		if int64(applied) != v || len(inbox) != cap(inbox) || v != blocked {
			blocked, since = v, time.Now()
			return false
		}
		return time.Since(since) >= 50*time.Millisecond
	}) {
		t.Fatal("the publishing goroutine never blocked on P's full inbox")
	}
	done := make(chan struct{})
	go func() {
		c.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not terminate with a parked relay and a blocked Publish")
	}
	select {
	case v := <-refused:
		if v != blocked {
			t.Errorf("Publish(%v) returned false, want the blocked Publish(%v)", v, blocked)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the blocked Publish never returned")
	}
	if c.Publish("X", 600) {
		t.Error("Publish succeeded after Stop")
	}
	// Stop is idempotent.
	c.Stop()
}

func TestClusterLargerFanOut(t *testing.T) {
	const n = 12
	net := netsim.Uniform(n, 0)
	repos := make([]*repository.Repository, n)
	for i := range repos {
		repos[i] = repository.New(repository.ID(i+1), 3)
		repos[i].Needs["Y"], repos[i].Serving["Y"] = 1, 1
	}
	o, err := (&tree.LeLA{}).Build(net, repos, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(o, Options{})
	c.Seed("Y", 10)
	c.Start()
	defer c.Stop()
	c.Publish("Y", 50)
	if !waitFor(t, 2*time.Second, func() bool {
		snap := c.Snapshot("Y")
		for id := repository.ID(1); id <= n; id++ {
			if snap[id] != 50 {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("big jump did not reach every repository: %v", c.Snapshot("Y"))
	}
}

// multiOverlay builds a deterministic 10-repository overlay over 8 items.
func multiOverlay(t *testing.T, seed int64) (*tree.Overlay, []string) {
	t.Helper()
	items := []string{"I0", "I1", "I2", "I3", "I4", "I5", "I6", "I7"}
	repos := make([]*repository.Repository, 10)
	for i := range repos {
		repos[i] = repository.New(repository.ID(i+1), 3)
	}
	repository.AssignNeeds(repos, repository.Workload{
		Items:         items,
		SubscribeProb: 0.7,
		StringentFrac: 0.4,
		Seed:          seed,
	})
	o, err := (&tree.LeLA{Seed: seed}).Build(netsim.Uniform(10, 0), repos, 3)
	if err != nil {
		t.Fatal(err)
	}
	return o, items
}

// TestClusterShardedDecisionParity feeds the same update sequence through
// a single-shard and a 4-shard cluster: values converge identically and
// the per-(repo, item) decision sets match exactly — the per-item FIFO
// guarantee carried through per-shard batch channels.
func TestClusterShardedDecisionParity(t *testing.T) {
	feed := func(c *Cluster, items []string) {
		for round := 1; round <= 30; round++ {
			ups := make([]Update, 0, len(items))
			for i, item := range items {
				ups = append(ups, Update{Item: item, Value: float64(100 + round*(i+3))})
			}
			if !c.PublishBatch(ups) {
				t.Fatal("cluster stopped mid-feed")
			}
		}
	}
	collect := func(c *Cluster, o *tree.Overlay) map[string]string {
		out := make(map[string]string)
		for _, n := range o.Nodes {
			for item, d := range c.Decisions(n.ID) {
				out[n.ID.String()+"/"+item] = fmt.Sprintf("%+v", d)
			}
		}
		return out
	}

	o1, items := multiOverlay(t, 9)
	c1 := NewCluster(o1, Options{Buffer: 1024})
	for _, x := range items {
		c1.Seed(x, 100)
	}
	c1.Start()
	feed(c1, items)

	o4, _ := multiOverlay(t, 9)
	c4 := NewCluster(o4, Options{Buffer: 1024, Shards: 4})
	for _, x := range items {
		c4.Seed(x, 100)
	}
	c4.Start()
	feed(c4, items)

	var want, got map[string]string
	waitFor(t, 10*time.Second, func() bool {
		want, got = collect(c1, o1), collect(c4, o4)
		if len(want) == 0 || len(want) != len(got) {
			return false
		}
		for k, w := range want {
			if got[k] != w {
				return false
			}
		}
		return true
	})
	c1.Stop()
	c4.Stop()
	if len(want) == 0 {
		t.Fatal("no decisions recorded; the test is vacuous")
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("decisions[%s]: sharded %s, want %s", k, got[k], w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("sharded cluster made unexpected decisions for %s", k)
		}
	}
}

// TestClusterShardedSessions: with sharding enabled, client sessions ride
// the dedicated serve-only core and still see per-client filtering.
func TestClusterShardedSessions(t *testing.T) {
	net := netsim.Uniform(2, 0)
	p := repository.New(1, 1)
	q := repository.New(2, 1)
	p.Needs["X"], p.Serving["X"] = 30, 30
	p.Needs["Y"], p.Serving["Y"] = 10, 10
	q.Needs["X"], q.Serving["X"] = 50, 50
	o, err := (&tree.LeLA{}).Build(net, []*repository.Repository{p, q}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(o, Options{Shards: 4})
	c.Seed("X", 100)
	c.Seed("Y", 50)
	c.Start()
	defer c.Stop()

	s, err := c.Subscribe("alice", map[string]coherency.Requirement{"X": 100, "Y": 15}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// X=140 violates P (30) but not the client (|40| <= 100-30): filtered
	// at the leaf. Y=90 violates the client too: delivered.
	if !c.PublishBatch([]Update{{Item: "X", Value: 140}, {Item: "Y", Value: 90}}) {
		t.Fatal("publish failed")
	}
	if !waitFor(t, 2*time.Second, func() bool {
		y, _ := s.Value("Y")
		return y == 90 && s.Filtered() >= 1
	}) {
		y, _ := s.Value("Y")
		t.Fatalf("sharded session: Y=%v delivered=%d filtered=%d, want Y=90 with one filter decision",
			y, s.Delivered(), s.Filtered())
	}
	if v, ok := s.Value("X"); ok && v != 100 {
		t.Errorf("filtered X leaked to the session: %v", v)
	}
}

// testClock is a manually advanced cluster time source. Injected through
// Options.Clock it makes silence-window detection deterministic: parents
// go stale only when the test advances the clock past FailWindow, never
// because a scheduler stall delayed a real heartbeat — which is exactly
// how the heartbeat/failover tests used to flake. The failure windows
// below are set absurdly large in real terms so only Advance can trip
// them.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock { return &testClock{now: time.Now()} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// failoverOverlay hand-wires source(c=2) -> mid -> leaf for item X, with
// the source holding a spare slot the leaf can re-home into.
func failoverOverlay(t *testing.T) *tree.Overlay {
	t.Helper()
	source := repository.New(repository.SourceID, 2)
	mid := repository.New(1, 1)
	leaf := repository.New(2, 1)
	mid.Needs["X"], mid.Serving["X"] = 10, 10
	mid.Level = 1
	leaf.Needs["X"], leaf.Serving["X"] = 20, 20
	leaf.Level = 2
	source.AddDependent("X", mid.ID)
	mid.Parents["X"] = repository.SourceID
	mid.AddDependent("X", leaf.ID)
	leaf.Parents["X"] = mid.ID
	o := &tree.Overlay{
		Nodes: []*repository.Repository{source, mid, leaf},
		Net:   netsim.Uniform(2, 0),
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestClusterFailoverToBackup(t *testing.T) {
	o := failoverOverlay(t)
	clk := newTestClock()
	c := NewCluster(o, Options{
		Heartbeat:  2 * time.Millisecond,
		FailWindow: time.Hour, // trips only when the test advances the clock
		Clock:      clk.Now,
		Backups:    map[repository.ID][]repository.ID{2: {repository.SourceID}},
	})
	c.Seed("X", 100)
	c.Start()
	defer c.Stop()

	// Healthy path: an update flows source -> mid -> leaf.
	c.Publish("X", 150)
	if !waitFor(t, time.Second, func() bool {
		v, _ := c.Value(2, "X")
		return v == 150
	}) {
		t.Fatal("update never reached the leaf through the chain")
	}

	if !c.Crash(1) {
		t.Fatal("Crash(1) refused")
	}
	if c.Crash(repository.SourceID) {
		t.Error("Crash accepted the source")
	}

	// Advance past the silence window: the leaf must detect mid's death
	// and re-home onto the source.
	clk.Advance(2 * time.Hour)
	if !waitFor(t, 5*time.Second, func() bool { return c.Failovers() > 0 }) {
		t.Fatal("leaf never failed over")
	}

	// Updates now reach the leaf directly from the source.
	c.Publish("X", 300)
	if !waitFor(t, 5*time.Second, func() bool {
		v, _ := c.Value(2, "X")
		return v == 300
	}) {
		v, _ := c.Value(2, "X")
		t.Fatalf("post-failover update never arrived: leaf holds %v", v)
	}
	// And the dead node stayed dead.
	if v, _ := c.Value(1, "X"); v == 300 {
		t.Error("crashed node kept receiving updates")
	}
}

func TestClusterFailoverSyncsCurrentValue(t *testing.T) {
	o := failoverOverlay(t)
	clk := newTestClock()
	c := NewCluster(o, Options{
		Heartbeat:  2 * time.Millisecond,
		FailWindow: time.Hour,
		Clock:      clk.Now,
		Backups:    map[repository.ID][]repository.ID{2: {repository.SourceID}},
	})
	c.Seed("X", 100)
	c.Start()
	defer c.Stop()

	c.Crash(1)
	// While the leaf is severed, the source moves far outside tolerance.
	c.Publish("X", 500)
	clk.Advance(2 * time.Hour)
	// After failover the sync push alone must converge the leaf.
	if !waitFor(t, 5*time.Second, func() bool {
		v, _ := c.Value(2, "X")
		return v == 500
	}) {
		v, _ := c.Value(2, "X")
		t.Fatalf("leaf never converged after failover sync: holds %v", v)
	}
}
