package netio

import (
	"testing"
	"time"

	"d3t/internal/coherency"
	"d3t/internal/netsim"
	"d3t/internal/repository"
	"d3t/internal/tree"
)

func waitFor(t testing.TB, d time.Duration, cond func() bool) bool {
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

// chain builds the Figure-4 chain overlay: source -> P(30) -> Q(50).
func chain(t *testing.T) *tree.Overlay {
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

func TestTCPChainPropagation(t *testing.T) {
	o := chain(t)
	cl, err := StartCluster(o, map[string]float64{"X": 100})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Within tolerance: nothing moves.
	if err := cl.Source().Publish("X", 120); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if v, _ := cl.Nodes[1].Value("X"); v != 100 {
		t.Errorf("P received a filtered update over TCP: holds %v", v)
	}

	// 140 violates P's tolerance and — via Eq. 7 — must reach Q too.
	if err := cl.Source().Publish("X", 140); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool {
		p, _ := cl.Nodes[1].Value("X")
		q, _ := cl.Nodes[2].Value("X")
		return p == 140 && q == 140
	}) {
		p, _ := cl.Nodes[1].Value("X")
		q, _ := cl.Nodes[2].Value("X")
		t.Fatalf("TCP propagation failed: P=%v Q=%v", p, q)
	}
	if d := cl.Nodes[2].Delivered(); d != 1 {
		t.Errorf("Q delivered count %d, want 1", d)
	}
}

// TestTCPPublishBatch drives the multi-update frame kind: one batched
// publish must reach the child as a batch (one write, every violating
// item), with same-item updates coalesced to the newest value.
func TestTCPPublishBatch(t *testing.T) {
	net := netsim.Uniform(1, 0)
	p := repository.New(1, 1)
	p.Needs["X"], p.Serving["X"] = 30, 30
	p.Needs["Y"], p.Serving["Y"] = 10, 10
	o, err := (&tree.LeLA{}).Build(net, []*repository.Repository{p}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartCluster(o, map[string]float64{"X": 100, "Y": 50})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// X moves twice within the batch (140 superseded by 200), Y once, and
	// a third item the child never subscribed to is filtered by wiring.
	err = cl.Source().PublishBatch([]Update{
		{Item: "X", Value: 140},
		{Item: "Y", Value: 90},
		{Item: "X", Value: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool {
		x, _ := cl.Nodes[1].Value("X")
		y, _ := cl.Nodes[1].Value("Y")
		return x == 200 && y == 90
	}) {
		x, _ := cl.Nodes[1].Value("X")
		y, _ := cl.Nodes[1].Value("Y")
		t.Fatalf("batch did not land: X=%v Y=%v", x, y)
	}
	// The superseded X=140 must never have been disseminated: exactly two
	// updates (one batch frame) delivered.
	if d := cl.Nodes[1].Delivered(); d != 2 {
		t.Errorf("delivered %d updates, want 2 (the superseded one coalesced away)", d)
	}
	if err := cl.Nodes[1].PublishBatch([]Update{{Item: "X", Value: 1}}); err == nil {
		t.Error("PublishBatch on a non-source node succeeded")
	}
}

func TestTCPPublishOnRepositoryFails(t *testing.T) {
	o := chain(t)
	cl, err := StartCluster(o, map[string]float64{"X": 100})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Nodes[1].Publish("X", 1); err == nil {
		t.Error("Publish on a repository node succeeded")
	}
}

func TestTCPFullSequenceMatchesFigure4(t *testing.T) {
	o := chain(t)
	cl, err := StartCluster(o, map[string]float64{"X": 100})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, v := range []float64{120, 140, 150, 170, 200} {
		if err := cl.Source().Publish("X", v); err != nil {
			t.Fatal(err)
		}
	}
	// Final state: both P and Q converge to 200 (the 200 forward violates
	// both tolerances). P receives {140, 200}; Q receives {140, 200}.
	if !waitFor(t, 2*time.Second, func() bool {
		p, _ := cl.Nodes[1].Value("X")
		q, _ := cl.Nodes[2].Value("X")
		return p == 200 && q == 200
	}) {
		t.Fatalf("sequence did not converge: %v / %v",
			first(cl.Nodes[1].Value("X")), first(cl.Nodes[2].Value("X")))
	}
	if d := cl.Nodes[1].Delivered(); d != 2 {
		t.Errorf("P delivered %d updates, want 2 (140 and 200)", d)
	}
	if d := cl.Nodes[2].Delivered(); d != 2 {
		t.Errorf("Q delivered %d updates, want 2 (140 via Eq.7, then 200)", d)
	}
}

func first(v float64, _ bool) float64 { return v }

func TestTCPWiderOverlay(t *testing.T) {
	const n = 8
	net := netsim.Uniform(n, 0)
	repos := make([]*repository.Repository, n)
	for i := range repos {
		repos[i] = repository.New(repository.ID(i+1), 3)
		repos[i].Needs["Y"], repos[i].Serving["Y"] = 0.5, 0.5
		if i%2 == 0 {
			repos[i].Needs["Z"], repos[i].Serving["Z"] = 0.25, 0.25
		}
	}
	o, err := (&tree.LeLA{Seed: 3}).Build(net, repos, 3)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartCluster(o, map[string]float64{"Y": 10, "Z": 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Source().Publish("Y", 15); err != nil {
		t.Fatal(err)
	}
	if err := cl.Source().Publish("Z", 30); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool {
		for i := 1; i <= n; i++ {
			if v, _ := cl.Nodes[i].Value("Y"); v != 15 {
				return false
			}
			if i%2 == 1 { // repos with even index i-1 hold Z
				if v, _ := cl.Nodes[i].Value("Z"); v != 30 {
					return false
				}
			}
		}
		return true
	}) {
		t.Fatal("big jumps did not reach every interested repository over TCP")
	}
}

func TestNodeRejectsUnknownChild(t *testing.T) {
	src, err := Start(NodeConfig{ID: repository.SourceID, Initial: map[string]float64{"X": 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// A node claiming an id the parent does not serve gets no pushes.
	stranger, err := Start(NodeConfig{
		ID:      99,
		Parents: []string{src.Addr()},
		Serving: nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	if err := src.Publish("X", 1000); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if d := stranger.Delivered(); d != 0 {
		t.Errorf("unknown child received %d updates", d)
	}
}

func TestTCPFailoverToBackupParent(t *testing.T) {
	// Hand-built chain source -> mid -> leaf for X; the source reserves a
	// slot for the leaf so it can adopt it after mid dies.
	tol := map[string]coherency.Requirement{"X": 20}
	source, err := Start(NodeConfig{
		ID: repository.SourceID,
		Children: map[repository.ID]map[string]coherency.Requirement{
			1: {"X": 10},
			2: tol, // reserved for the leaf's failover
		},
		Initial: map[string]float64{"X": 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer source.Close()
	mid, err := Start(NodeConfig{
		ID:      1,
		Serving: map[string]coherency.Requirement{"X": 10},
		Children: map[repository.ID]map[string]coherency.Requirement{
			2: tol,
		},
		Parents: []string{source.Addr()},
		Initial: map[string]float64{"X": 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := Start(NodeConfig{
		ID:      2,
		Serving: tol,
		Parents: []string{mid.Addr()},
		Backups: []string{source.Addr()},
		Initial: map[string]float64{"X": 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()

	if !waitFor(t, 5*time.Second, func() bool {
		return source.ConnectedChildren() == 1 && mid.ConnectedChildren() == 1
	}) {
		t.Fatal("chain never fully connected")
	}

	// Healthy path: the update flows through mid.
	if err := source.Publish("X", 150); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 5*time.Second, func() bool {
		v, _ := leaf.Value("X")
		return v == 150
	}) {
		t.Fatal("update never reached the leaf through mid")
	}

	// Kill mid. While the leaf is severed, the source moves on; the
	// resync after failover must deliver the missed value.
	mid.Close()
	if err := source.Publish("X", 400); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 5*time.Second, func() bool { return leaf.Failovers() == 1 }) {
		t.Fatal("leaf never failed over to the source")
	}
	if !waitFor(t, 5*time.Second, func() bool {
		v, _ := leaf.Value("X")
		return v == 400
	}) {
		v, _ := leaf.Value("X")
		t.Fatalf("leaf never resynced after failover: holds %v", v)
	}
	// The source notices mid's departure when its read of mid's connection
	// hits EOF, or when mid's writer fails to send the 400 and closes the
	// connection. Writes are asynchronous: a failed one is reported by the
	// next publish that still finds mid registered, so publishing before
	// mid is dropped could fail with a broken pipe. The leaf is registered
	// (it resynced), so one child means mid has been dropped.
	if !waitFor(t, 5*time.Second, func() bool { return source.ConnectedChildren() == 1 }) {
		t.Fatalf("source still holds %d children after mid died", source.ConnectedChildren())
	}

	// New updates keep flowing over the backup connection.
	if err := source.Publish("X", 800); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 5*time.Second, func() bool {
		v, _ := leaf.Value("X")
		return v == 800
	}) {
		t.Fatal("post-failover update never arrived")
	}
}

func TestTCPFailoverExhaustedBackupsStops(t *testing.T) {
	parent, err := Start(NodeConfig{
		ID: repository.SourceID,
		Children: map[repository.ID]map[string]coherency.Requirement{
			1: {"X": 10},
		},
		Initial: map[string]float64{"X": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	child, err := Start(NodeConfig{
		ID:      1,
		Serving: map[string]coherency.Requirement{"X": 10},
		Parents: []string{parent.Addr()},
		Backups: []string{"127.0.0.1:1"}, // nothing listens there
		Initial: map[string]float64{"X": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	parent.Close()
	// Give the child's parent loop time to notice the broken connection
	// and exhaust the unreachable backup; a dead-end dial must not count
	// as a failover.
	time.Sleep(200 * time.Millisecond)
	if n := child.Failovers(); n != 0 {
		t.Errorf("failovers = %d after dialing only unreachable backups, want 0", n)
	}
	// And the node must shut down cleanly — a parent loop stuck retrying
	// would hang Close's WaitGroup.
	closed := make(chan struct{})
	go func() {
		child.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung: parent loop did not give up after exhausting backups")
	}
}
