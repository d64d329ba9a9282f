package live

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"d3t/internal/coherency"
	dnode "d3t/internal/node"
	"d3t/internal/obs"
	"d3t/internal/repository"
	"d3t/internal/tree"
	"d3t/internal/wal"
)

// TestDrainKeepsTrace runs one drain at P by hand — an unstamped failover
// sync, two untraced batches, a sampled one, an untraced one, every update
// beyond both tolerances — and reads what reaches Q's inbox: the first
// three merged under the earliest birth stamp (the sync has none), the
// sampled batch on its own with its trace id, and the last batch on its
// own, since it follows the sampled one. Then a backlog through the running chain: every sampled publish
// still reaches Q.
func TestDrainKeepsTrace(t *testing.T) {
	c := NewCluster(chainOverlay(t), Options{Obs: obs.NewTree()})
	c.Seed("X", 100)
	p := c.nodes[1]
	in := []batch{
		{one: [1]upd{{"X", 200}}},
		{one: [1]upd{{"X", 300}}, sent: 40, born: 30},
		{one: [1]upd{{"X", 400}}, sent: 41, born: 10},
		{one: [1]upd{{"X", 500}}, sent: 42, born: 20, tid: 7},
		{one: [1]upd{{"X", 600}}, sent: 43, born: 35},
	}
	if !c.pass(p, p.shards[0], in) {
		t.Fatal("pass reported a stopped cluster")
	}
	q := c.nodes[2].shards[0].in
	type sent struct {
		vals []float64
		born int64
		tid  uint64
	}
	var got []sent
	for len(q) > 0 {
		b := <-q
		var vals []float64
		for _, u := range b.updates() {
			vals = append(vals, u.value)
		}
		got = append(got, sent{vals, int64(b.born), b.tid})
		b.release()
	}
	want := []sent{{[]float64{200, 300, 400}, 10, 0}, {[]float64{500}, 20, 7}, {[]float64{600}, 35, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("P sent Q %+v, want %+v", got, want)
	}

	tr := obs.NewTree()
	tr.Tracer = obs.NewTracer(3)
	c = NewCluster(chainOverlay(t), Options{Obs: tr})
	c.Seed("X", 100)
	for i := 1; i <= 9; i++ {
		c.Publish("X", 100+100*float64(i)) // a backlog for P's first drain
	}
	c.Start()
	defer c.Stop()
	if !waitFor(t, 2*time.Second, func() bool {
		v, _ := c.Value(2, "X")
		return v == 1000
	}) {
		t.Fatalf("the backlog never reached Q: %v", c.Snapshot("X"))
	}
	traces := c.ObsSnapshot().Traces
	if len(traces) != 3 {
		t.Fatalf("%d traces, want the 3 sampled publishes", len(traces))
	}
	for _, tr := range traces {
		if len(tr.Hops) != 3 {
			t.Errorf("trace %d hops %+v, want source, P and Q", tr.ID, tr.Hops)
		}
	}
}

// parityOutcome is what a parity run compares: every node's decisions
// and every session's receipt sequence per item. Receipts of different
// items are not ordered, since a repository may take them from different
// parents.
type parityOutcome struct {
	decisions map[string]string
	receipts  map[string][]ClientUpdate // by session/item
}

// parityFeed is a deterministic random walk over the items of
// multiOverlay: steps of about the tolerances, so filters both forward
// and suppress.
func parityFeed(items []string, n int) []Update {
	r := rand.New(rand.NewSource(5))
	cur := make(map[string]float64)
	ups := make([]Update, n)
	for i := range ups {
		x := items[r.Intn(len(items))]
		cur[x] += r.NormFloat64() * 0.4
		ups[i] = Update{Item: x, Value: 100 + cur[x]}
	}
	return ups
}

// parityCluster builds the parity cluster, seeded and with one session
// on every relay that serves an item, each a little looser than its
// repository.
func parityCluster(t *testing.T, shards int) (*Cluster, *tree.Overlay, []string, map[string]*Session) {
	t.Helper()
	o, items := multiOverlay(t, 9)
	c := NewCluster(o, Options{Buffer: 1024, Shards: shards})
	for _, x := range items {
		c.Seed(x, 100)
	}
	sess := make(map[string]*Session)
	for _, r := range o.Nodes {
		if r.IsSource() || len(r.Serving) == 0 {
			continue
		}
		wants := make(map[string]coherency.Requirement)
		for x, cr := range r.Serving {
			wants[x] = cr*1.5 + 0.05
		}
		s, err := c.Subscribe(r.ID.String(), wants, r.ID)
		if err != nil || s.Repo() != r.ID {
			t.Fatalf("session for %v: placed on %v, err %v", r.ID, s.Repo(), err)
		}
		sess[s.Name()] = s
	}
	return c, o, items, sess
}

// outcome collects a parity run's outcome.
func outcome(c *Cluster, o *tree.Overlay, sess map[string]*Session, receipts map[string][]ClientUpdate) parityOutcome {
	out := parityOutcome{decisions: make(map[string]string), receipts: receipts}
	for _, n := range o.Nodes {
		for item, d := range c.Decisions(n.ID) {
			out.decisions[n.ID.String()+"/"+item] = fmt.Sprintf("%+v", d)
		}
	}
	for name, s := range sess {
	read:
		for {
			select {
			case u := <-s.Updates():
				k := name + "/" + u.Item
				out.receipts[k] = append(out.receipts[k], u)
			default:
				break read
			}
		}
	}
	return out
}

// settle runs every relay's queued batches one pass per batch, shallow
// nodes first, until every inbox is empty: the one-at-a-time schedule.
func settle(c *Cluster, o *tree.Overlay) {
	order := append([]*repository.Repository(nil), o.Nodes...)
	sort.Slice(order, func(i, j int) bool { return order[i].Level < order[j].Level })
	for moved := true; moved; {
		moved = false
		for _, r := range order {
			n := c.nodes[r.ID]
			for _, sh := range n.shards {
				for sh.in != nil && len(sh.in) > 0 {
					b := <-sh.in
					c.pass(n, sh, []batch{b})
					b.release()
					moved = true
				}
			}
		}
	}
}

// TestDrainDecisionParity: a backlog published before Start, so each
// depth-1 relay's first drain takes all of it and deeper relays receive
// merged batches, makes the same decisions at every
// node and the same receipts per item at every session as the same feed
// applied one batch per pass, with and without shards.
func TestDrainDecisionParity(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, o, items, sess := parityCluster(t, shards)
			ups := parityFeed(items, 400)
			for _, u := range ups {
				c.Publish(u.Item, u.Value)
				settle(c, o)
			}
			want := outcome(c, o, sess, make(map[string][]ClientUpdate))
			c.Stop()
			if len(want.decisions) == 0 {
				t.Fatal("no decisions recorded; the test is vacuous")
			}

			c, o, _, sess = parityCluster(t, shards)
			for _, u := range ups {
				c.Publish(u.Item, u.Value)
			}
			c.Start()
			got := parityOutcome{receipts: make(map[string][]ClientUpdate)}
			waitFor(t, 10*time.Second, func() bool {
				got = outcome(c, o, sess, got.receipts)
				return reflect.DeepEqual(got, want)
			})
			c.Stop()
			for k, w := range want.decisions {
				if got.decisions[k] != w {
					t.Errorf("decisions[%s]: backlog %s, one at a time %s", k, got.decisions[k], w)
				}
			}
			for k := range got.decisions {
				if _, ok := want.decisions[k]; !ok {
					t.Errorf("backlog made unexpected decisions for %s", k)
				}
			}
			for k, w := range want.receipts {
				if g := got.receipts[k]; !reflect.DeepEqual(g, w) {
					t.Errorf("session/item %s: backlog receipts %v, one at a time %v", k, g, w)
				}
			}
			for k := range got.receipts {
				if _, ok := want.receipts[k]; !ok {
					t.Errorf("session/item %s: unexpected backlog receipts", k)
				}
			}
			for name, s := range sess {
				if s.Dropped() != 0 {
					t.Errorf("session %s dropped %d pushes", name, s.Dropped())
				}
			}
		})
	}
}

// TestDurableDrainCommitsOnce: a 50-publish backlog reaches P's worker as
// one drain, so P's log holds one record for it, and Q, which receives
// P's copies as one merged batch, one too; a rebuild over the logs
// recovers every value and every node's Decisions bit for bit. Nothing
// is seeded, since seeds are not logged and a seeded edge filters its
// first push.
func TestDurableDrainCommitsOnce(t *testing.T) {
	d := &wal.Options{Dir: t.TempDir(), SnapshotEvery: 1 << 30, Fsync: wal.PolicyNever}
	var applied [3]atomic.Int64 // by repository
	c, err := NewDurableCluster(chainOverlay(t), Options{Buffer: 64, Durability: d,
		OnDeliver: func(id repository.ID, _ string, _ float64) { applied[id].Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 1; i <= n; i++ {
		c.Publish("X", 100+20*float64(i)) // P (30) takes every other step
	}
	c.Start()
	// A relay has applied and logged everything once it has applied every
	// copy its parent forwarded.
	if !waitFor(t, 2*time.Second, func() bool {
		return applied[1].Load() == int64(c.Decisions(repository.SourceID)["X"].Forwarded) &&
			applied[2].Load() == int64(c.Decisions(1)["X"].Forwarded)
	}) {
		t.Fatalf("the backlog never drained: %v", c.Snapshot("X"))
	}
	c.Stop()
	if err := c.DurabilityErr(); err != nil {
		t.Fatal(err)
	}
	values := c.Snapshot("X")
	decisions := make(map[repository.ID]map[string]dnode.Decisions)
	for id := range c.nodes {
		decisions[id] = c.Decisions(id)
	}

	records := func(id repository.ID) int {
		log, rec, err := wal.Open(filepath.Join(d.Dir, fmt.Sprintf("repo%03d", id), "shard00"), *d)
		if err != nil {
			t.Fatal(err)
		}
		log.Close()
		return len(rec.Batches)
	}
	if got := records(repository.SourceID); got != n {
		t.Errorf("source log: %d records, want one per publish (%d)", got, n)
	}
	if got := records(1); got != 1 {
		t.Errorf("P's log: %d records for a backlog of %d batches, want 1: one commit per drain",
			got, decisions[repository.SourceID]["X"].Forwarded)
	}
	if got := records(2); got != 1 {
		t.Errorf("Q's log: %d records for P's merged batch, want 1", got)
	}

	r, err := NewDurableCluster(chainOverlay(t), Options{Durability: d})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	got := r.Snapshot("X")
	for id, v := range values {
		if math.Float64bits(got[id]) != math.Float64bits(v) {
			t.Errorf("%v recovered X=%v, want %v", id, got[id], v)
		}
	}
	for id, want := range decisions {
		if got := r.Decisions(id); !reflect.DeepEqual(got, want) {
			t.Errorf("%v recovered decisions %v, want %v", id, got, want)
		}
	}
}

// TestDrainAllocBudget is the allocation tripwire for drains: rounds of
// 64 publishes put that many batches in flight through a depth-3 chain
// to a session, so relays drain several batches and send merged ones,
// and the pooled slices keep that allocation-free in steady state.
func TestDrainAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const window = 64
	d := startChain(t, Options{})
	v, received := 0.0, 0
	await := func(n int) {
		for received < n {
			d.timeout.Reset(5 * time.Second)
			select {
			case u := <-d.s.Updates():
				if !u.Resync {
					received++
				}
			case <-d.timeout.C:
				t.Fatalf("%d of %d publishes reached the leaf", received, n)
			}
		}
	}
	run := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for i := 0; i < window; i++ {
				v += 100 // beyond every tolerance
				if !d.c.Publish("X", v) {
					t.Fatal("publish on a stopped cluster")
				}
			}
			await(int(v / 100))
		}
	}
	run(50) // warm-up: scratch slices and the pool grow once
	const rounds = 300
	const publishes = rounds * window
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(rounds)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / publishes
	t.Logf("%.4f allocations per publish", per)
	if per > 0.05 {
		t.Errorf("%.3f allocations per publish with %d in flight, want <= 0.05", per, window)
	}
}

// TestDrainAwaitsDue: under CommDelay a drain applies no batch before
// its due stamp and holds none back for a later one, so every copy of a
// 50-publish burst is applied at depth d between d delays and d delays
// plus a slack after its publish. The burst spans about one delay, so a
// relay's inbox holds batches due at different times whenever it wakes.
func TestDrainAwaitsDue(t *testing.T) {
	const delay, slack = 100 * time.Millisecond, 50 * time.Millisecond
	var mu sync.Mutex
	published := make(map[float64]time.Time)
	applied := make(map[repository.ID]int)
	d := startChain(t, Options{CommDelay: delay, OnDeliver: func(id repository.ID, _ string, v float64) {
		at := time.Now()
		mu.Lock()
		defer mu.Unlock()
		took, min := at.Sub(published[v]), time.Duration(id)*delay
		if took < min {
			t.Errorf("%v at depth %d after %v, want at least %v", v, id, took, min)
		}
		if took > min+slack {
			t.Errorf("%v at depth %d after %v, want at most %v", v, id, took, min+slack)
		}
		applied[id]++
	}})
	const burst = 50
	for i := 1; i <= burst; i++ {
		v := 100 * float64(i) // beyond every tolerance
		mu.Lock()
		published[v] = time.Now()
		mu.Unlock()
		d.c.Publish("X", v)
		time.Sleep(delay / burst)
	}
	if !waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return applied[3] == burst
	}) {
		t.Fatalf("the burst never reached the leaf: %v", applied)
	}
}
