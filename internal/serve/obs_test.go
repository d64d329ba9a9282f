package serve

import (
	"testing"

	"d3t/internal/coherency"
	"d3t/internal/netsim"
	"d3t/internal/obs"
	"d3t/internal/sim"
)

// TestFleetObs checks the serving-layer feed into the observability
// tree: admits and resyncs through the core, cap-overflow redirects with
// a latency sample charged to the repository that turned the client
// away, and migrations charged to the repository that took the session
// in.
func TestFleetObs(t *testing.T) {
	net := netsim.Uniform(3, sim.Millisecond)
	repos := population(3, []string{"X"}, 0.5)
	tree := obs.NewTree()
	f, err := NewFleet(net, repos, Options{Cap: 1, Obs: tree})
	if err != nil {
		t.Fatal(err)
	}
	wants := func() map[string]coherency.Requirement {
		return map[string]coherency.Requirement{"X": 0.5}
	}
	attach(t, f, client("a", 1, wants()))
	b := attach(t, f, client("b", 1, wants()))
	if b.Repo() != 2 || !b.Redirected() {
		t.Fatalf("overflow client placed at %d (redirected=%v), want redirect to 2", b.Repo(), b.Redirected())
	}
	f.Seed(map[string]float64{"X": 10})

	n1 := tree.Node(1).Snapshot(0)
	if n1.Counters.Redirects != 1 || n1.Redirect.Count != 1 {
		t.Errorf("repo1 redirect counters: %+v hist %+v, want 1 each", n1.Counters, n1.Redirect)
	}
	// The admission walk paid a round trip to full repo 1 (self-delay 0)
	// plus one to repo 2 (1ms each way): 2ms.
	if n1.Redirect.P50Ms < 1 {
		t.Errorf("redirect latency p50 %vms, want >= the round trip to the next candidate", n1.Redirect.P50Ms)
	}

	// Crash repo 2: its session migrates to repo 3 (repo 1 is at cap),
	// charging a migration there and resyncing the session's copy.
	f.ObserveSource(sim.Second, "X", 20)
	f.ObserveDeliver(sim.Second, 2, "X", 20)
	f.ObserveCrash(2*sim.Second, 2)
	if b.Repo() != 3 {
		t.Fatalf("session migrated to %d, want 3", b.Repo())
	}
	n3 := tree.Node(3).Snapshot(0)
	if n3.Counters.Migrations != 1 {
		t.Errorf("repo3 migrations = %d, want 1", n3.Counters.Migrations)
	}
	var admits, resyncs uint64
	for _, r := range repos {
		snap := tree.Node(r.ID).Snapshot(0)
		admits += snap.Counters.Admits
		resyncs += snap.Counters.Resyncs
	}
	if admits != 3 { // a, b, and b's migration re-admit
		t.Errorf("admits = %d, want 3", admits)
	}
	if resyncs == 0 {
		t.Errorf("migration resynced the session but no resyncs counted")
	}
}
