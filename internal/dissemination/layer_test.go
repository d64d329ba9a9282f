package dissemination

import (
	"testing"

	"d3t/internal/coherency"
	"d3t/internal/repository"
	"d3t/internal/sim"
	"d3t/internal/trace"
	"d3t/internal/tree"
)

// gate is a stub Layer: node dead refuses every copy, and at resyncAt
// the source ships one catch-up copy (value -1) to node resyncTo.
type gate struct {
	dead             repository.ID
	refused, applied int
	appliedAtDead    int

	resyncAt  sim.Time
	resyncTo  repository.ID
	obs       *recorder
	started   bool
	tickFirst bool // the source tick at resyncAt ran before the layer's event
}

func (g *gate) Start(l *Loop) {
	g.started = true
	if g.resyncAt > 0 {
		l.At(g.resyncAt, func(now sim.Time) {
			g.tickFirst = g.obs.lastSource == now
			l.Resync(now, repository.SourceID, g.resyncTo, "X", -1)
		})
	}
}

func (g *gate) Admit(_ sim.Time, to, _ repository.ID) bool {
	if to == g.dead {
		g.refused++
		return false
	}
	return true
}

func (g *gate) Applied(_ sim.Time, id repository.ID, _ string, _ float64) {
	g.applied++
	if id == g.dead {
		g.appliedAtDead++
	}
}

// recorder is a run observer counting deliveries per repository (and
// those carrying the resync marker value), remembering when the source
// last ticked.
type recorder struct {
	delivered  map[repository.ID]int
	resynced   int
	lastSource sim.Time
}

func (r *recorder) ObserveSource(now sim.Time, _ string, _ float64) { r.lastSource = now }
func (r *recorder) ObserveDeliver(_ sim.Time, id repository.ID, _ string, v float64) {
	r.delivered[id]++
	if v == -1 {
		r.resynced++
	}
}

// countingProtocol wraps a protocol and counts AtRepo calls per node.
type countingProtocol struct {
	Protocol
	atRepo map[repository.ID]int
}

func (c *countingProtocol) AtRepo(n *repository.Repository, x string, v float64, tag coherency.Requirement) ([]Forward, int) {
	c.atRepo[n.ID]++
	return c.Protocol.AtRepo(n, x, v, tag)
}

// chainOverlay builds source -> 1 -> 2, both repositories needing X.
func chainOverlay(t *testing.T) *tree.Overlay {
	t.Helper()
	o := starOverlay(t, 2, 0.5, 0)
	src, a, b := o.Source(), o.Node(1), o.Node(2)
	src.DropDependent(2)
	a.Dependents["X"] = append(a.Dependents["X"], 2)
	b.Parents["X"] = 1
	return o
}

// TestLayerGatesBeforeAnyoneSees pins the seam's first call: a copy the
// layer refuses on arrival reaches neither the fidelity trackers, the
// run observer, the protocol nor the layer's own Applied hook (where the
// write-ahead log hangs), and is not counted as a delivery.
func TestLayerGatesBeforeAnyoneSees(t *testing.T) {
	traces := []*trace.Trace{rampTrace(50)}
	run := func(layer Layer, obs *recorder) (*Result, *countingProtocol) {
		p := &countingProtocol{Protocol: NewDistributed(), atRepo: map[repository.ID]int{}}
		l, err := NewLoop(chainOverlay(t), traces, p, Config{CompDelay: -1, Observer: obs})
		if err != nil {
			t.Fatal(err)
		}
		return l.Run(layer), p
	}

	open, openObs := &gate{dead: repository.NoID}, &recorder{delivered: map[repository.ID]int{}}
	base, _ := run(open, openObs)
	if f, _ := base.Report.RepoFidelity(1); f != 1 {
		t.Fatalf("ungated zero-delay fidelity at repo 1 = %v, want 1", f)
	}
	if !open.started || open.refused != 0 {
		t.Fatalf("open gate: started %v, refused %d", open.started, open.refused)
	}
	// Applied fires for the source's ticks and every delivery.
	if want := int(base.Stats.SourceTicks + base.Stats.Deliveries); open.applied != want {
		t.Errorf("Applied ran %d times, want %d (source ticks + deliveries)", open.applied, want)
	}

	g, obs := &gate{dead: 1}, &recorder{delivered: map[repository.ID]int{}}
	res, p := run(g, obs)
	if g.refused == 0 {
		t.Fatal("no copy ever arrived at the gated node")
	}
	if obs.delivered[1] != 0 {
		t.Errorf("observer saw %d deliveries at the dead node", obs.delivered[1])
	}
	if p.atRepo[1] != 0 {
		t.Errorf("protocol ran %d times at the dead node", p.atRepo[1])
	}
	if g.appliedAtDead != 0 {
		t.Errorf("Applied (the WAL hook) ran %d times at the dead node", g.appliedAtDead)
	}
	if f, _ := res.Report.RepoFidelity(1); f >= 0.5 {
		t.Errorf("dead node's tracker still saw copies: fidelity %v", f)
	}
	// Nothing reaches node 2 either: its only feed is through node 1.
	if res.Stats.Deliveries != 0 || obs.delivered[2] != 0 {
		t.Errorf("deliveries %d, node 2 saw %d; want none past the dead node", res.Stats.Deliveries, obs.delivered[2])
	}
	if res.Stats.Messages != uint64(g.refused) {
		t.Errorf("%d messages sent but %d refused", res.Stats.Messages, g.refused)
	}
}

// TestLayerResyncAndEventOrder pins the seam's other two calls: an event
// a layer schedules in Start at a source tick's timestamp runs after
// that tick, and a Resync copy travels the normal send path — counted as
// a message, charged to the sender's station with no checks, admitted
// and delivered like any other copy.
func TestLayerResyncAndEventOrder(t *testing.T) {
	traces := []*trace.Trace{rampTrace(50)}
	plain, err := Run(chainOverlay(t), traces, NewDistributed(), Config{})
	if err != nil {
		t.Fatal(err)
	}

	obs := &recorder{delivered: map[repository.ID]int{}}
	g := &gate{dead: repository.NoID, resyncAt: 10 * sim.Second, resyncTo: 2, obs: obs}
	l, err := NewLoop(chainOverlay(t), traces, NewDistributed(), Config{Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	res := l.Run(g)

	if !g.tickFirst {
		t.Error("layer event ran before the source tick of the same timestamp")
	}
	if obs.resynced != 1 {
		t.Fatalf("resync copy delivered %d times, want 1", obs.resynced)
	}
	if got, want := res.Stats.Messages, plain.Stats.Messages+1; got != want {
		t.Errorf("messages %d, want %d (plain run + the resync copy)", got, want)
	}
	if got, want := res.Stats.SourceChecks, plain.Stats.SourceChecks; got != want {
		t.Errorf("source checks %d, want %d: a resync charges no checks", got, want)
	}
	if res.SourceUtilization <= plain.SourceUtilization {
		t.Errorf("resync not charged to the sender's station: utilization %v vs %v",
			res.SourceUtilization, plain.SourceUtilization)
	}
}
