package dissemination

import (
	"math"
	"testing"

	"d3t/internal/netsim"
	"d3t/internal/node"
	"d3t/internal/obs"
	"d3t/internal/sim"
	"d3t/internal/trace"
	"d3t/internal/tree"
)

func newDistributed() Protocol { return NewDistributed() }

// shardFixture builds one deterministic mid-size world; each run gets its
// own copy because running mutates the overlay's cores.
func shardFixture(t *testing.T, items, repos, ticks int, seed int64) fixture {
	return buildFixture(t, repos, items, 4, 0.4, netsim.Uniform(repos, sim.Millisecond), ticks, seed)
}

// TestRunShardsMatchesSequential is the partition-exactness guarantee:
// the sharded run must reproduce the sequential run's per-(repo, item)
// decisions exactly and its aggregates within floating-point summation
// order.
func TestRunShardsMatchesSequential(t *testing.T) {
	a := shardFixture(t, 8, 12, 300, 7)
	seq, seqProtos, err := RunShards(a.overlay, a.traces, newDistributed, Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The shards all record into one obs tree at once; observation must
	// stay passive.
	b := shardFixture(t, 8, 12, 300, 7)
	ot := obs.NewTree()
	ot.Tracer = obs.NewTracer(5)
	sh, shProtos, err := RunShards(b.overlay, b.traces, newDistributed, Config{Obs: ot}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if hop, _, _, _ := ot.Merged(); hop.Count != sh.Stats.Deliveries {
		t.Errorf("obs recorded %d hops over %d deliveries", hop.Count, sh.Stats.Deliveries)
	}
	if len(seqProtos) != 1 || len(shProtos) != 4 {
		t.Fatalf("protocol instances = %d/%d, want 1/4", len(seqProtos), len(shProtos))
	}
	if seq.Stats != sh.Stats {
		t.Errorf("work stats diverge: sequential %+v, sharded %+v", seq.Stats, sh.Stats)
	}
	if seq.Horizon != sh.Horizon {
		t.Errorf("horizon %v vs %v", seq.Horizon, sh.Horizon)
	}
	if d := math.Abs(seq.Report.SystemFidelity() - sh.Report.SystemFidelity()); d > 1e-12 {
		t.Errorf("fidelity diverges by %g: %v vs %v", d, seq.Report.SystemFidelity(), sh.Report.SystemFidelity())
	}
	if d := math.Abs(seq.SourceUtilization - sh.SourceUtilization); d > 1e-9 {
		t.Errorf("source utilization diverges: %v vs %v", seq.SourceUtilization, sh.SourceUtilization)
	}

	// Decision-level parity: union the sharded cores' decisions and
	// compare with the sequential ones per (repo, item).
	want := decisionsOf(a.overlay, seqProtos)
	got := decisionsOf(b.overlay, shProtos)
	if len(want) == 0 {
		t.Fatal("sequential run made no decisions; the test is vacuous")
	}
	if len(want) != len(got) {
		t.Fatalf("decision sets differ in size: %d vs %d", len(want), len(got))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("decisions[%s] = %+v, want %+v", k, got[k], w)
		}
	}

	// More shards than items: one run per item, same result.
	c := shardFixture(t, 8, 12, 300, 7)
	many, manyProtos, err := RunShards(c.overlay, c.traces, newDistributed, Config{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(manyProtos) != 8 || many.Stats != seq.Stats {
		t.Errorf("1000 shards over 8 items: %d runs, stats %+v; want 8 runs and %+v", len(manyProtos), many.Stats, seq.Stats)
	}
}

// TestRunShardsBatchCoalesces checks that a coalesced feed reduces
// disseminated updates on a volatile workload without moving the
// horizon, sharded or not.
func TestRunShardsBatchCoalesces(t *testing.T) {
	a := shardFixture(t, 6, 10, 400, 11)
	plain, _, err := RunShards(a.overlay, a.traces, newDistributed, Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := shardFixture(t, 6, 10, 400, 11)
	feed, folded := trace.CoalesceTraces(b.traces, 5)
	if folded == 0 {
		t.Error("a 5-tick window over a random walk coalesced nothing")
	}
	batched, _, err := RunShards(b.overlay, feed, newDistributed, Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Stats.SourceTicks >= plain.Stats.SourceTicks {
		t.Errorf("batched run disseminated %d source ticks, plain %d; batching should shrink it",
			batched.Stats.SourceTicks, plain.Stats.SourceTicks)
	}
	if batched.Horizon != plain.Horizon {
		t.Errorf("batching moved the horizon: %v vs %v", batched.Horizon, plain.Horizon)
	}
}

func TestRunShardsRejectsUnshardableModels(t *testing.T) {
	fx := shardFixture(t, 4, 6, 50, 3)
	if _, _, err := RunShards(fx.overlay, fx.traces, newDistributed, Config{Queueing: true}, 2); err == nil {
		t.Error("sharded queueing run accepted; the serial-server station couples items")
	}
	if _, _, err := RunShards(fx.overlay, fx.traces, newDistributed, Config{Observer: &recorder{}}, 2); err == nil {
		t.Error("sharded run with an observer accepted; observers need global time order")
	}
}

// decisionsOf flattens the protocols' per-(repo, item) decision tallies,
// keyed by "repo/item".
func decisionsOf(o *tree.Overlay, protos []Protocol) map[string]node.Decisions {
	out := make(map[string]node.Decisions)
	for _, p := range protos {
		d := p.(*Distributed)
		for _, n := range o.Nodes {
			for item, dec := range d.Core(n.ID).EdgeDecisions() {
				k := n.ID.String() + "/" + item
				cur := out[k]
				cur.Forwarded += dec.Forwarded
				cur.Suppressed += dec.Suppressed
				out[k] = cur
			}
		}
	}
	return out
}
