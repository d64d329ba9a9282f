package netio

import (
	"testing"
	"time"

	"d3t"
)

func TestPublicTCPCluster(t *testing.T) {
	repos := []*d3t.Repository{d3t.NewRepository(1, 1)}
	repos[0].Needs["X"], repos[0].Serving["X"] = 0.5, 0.5
	overlay, err := d3t.NewLeLA(5, 1).Build(d3t.UniformNetwork(1, 0), repos, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartCluster(overlay, map[string]float64{"X": 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Source().Publish("X", 2); err != nil {
		t.Fatal(err)
	}
	waitValue(t, cl, 2)
	// A batch needs nothing beyond this package: Update is re-exported.
	if err := cl.Source().PublishBatch([]Update{{Item: "X", Value: 5}, {Item: "X", Value: 3}}); err != nil {
		t.Fatal(err)
	}
	waitValue(t, cl, 3)
}

// waitValue waits until node 1 holds X = v.
func waitValue(t *testing.T, cl *Cluster, v float64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if got, _ := cl.Nodes[1].Value("X"); got == v {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("X=%v did not propagate over TCP", v)
}
