package resilience

import (
	"fmt"
	"testing"

	"d3t/internal/dissemination"
	"d3t/internal/netsim"
	"d3t/internal/repository"
	"d3t/internal/sim"
	"d3t/internal/trace"
	"d3t/internal/tree"
)

// fixture builds a deterministic overlay and trace set, mirroring the
// dissemination test fixtures.
func fixture(t *testing.T, repos, items, coop int, ticks int, seed int64) (*tree.Overlay, *tree.LeLA, []*trace.Trace) {
	t.Helper()
	net := netsim.MustGenerate(netsim.Config{Repositories: repos, Routers: 3 * repos, Seed: seed})
	members := make([]*repository.Repository, repos)
	for i := range members {
		members[i] = repository.New(repository.ID(i+1), coop)
	}
	catalogue := make([]string, items)
	traces := trace.GenerateSet(items, ticks, sim.Second, seed+10)
	for i, tr := range traces {
		catalogue[i] = tr.Item
	}
	repository.AssignNeeds(members, repository.Workload{
		Items: catalogue, SubscribeProb: 0.5, StringentFrac: 0.5, Seed: seed + 11,
	})
	l := &tree.LeLA{Seed: seed}
	o, err := l.Build(net, members, coop)
	if err != nil {
		t.Fatal(err)
	}
	return o, l, traces
}

func TestParsePlan(t *testing.T) {
	interval := sim.Second
	for _, spec := range []string{"", "none"} {
		p, err := ParsePlan(spec, 10, 100, interval, 1)
		if err != nil || !p.Empty() {
			t.Errorf("ParsePlan(%q) = %v, %v; want empty plan", spec, p, err)
		}
	}
	p, err := ParsePlan("crash:3@50", 10, 100, interval, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := Fault{Node: 3, At: 50 * sim.Second}
	if len(p.Faults) != 1 || p.Faults[0] != want {
		t.Errorf("crash plan = %+v, want [%+v]", p.Faults, want)
	}
	p, err = ParsePlan("crash:max@20+30", 10, 100, interval, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Faults[0]
	if f.Node != AutoInterior || f.At != 20*sim.Second || f.RejoinAt != 50*sim.Second {
		t.Errorf("crash-rejoin plan = %+v", f)
	}
	for _, bad := range []string{"crash:0@5", "crash:3@0", "crash:3@100", "crash:x@5",
		"churn:-1", "churn:1:0", "explode:3@5", "crash:3"} {
		if _, err := ParsePlan(bad, 10, 100, interval, 1); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestChurnPlanDeterministicAndRateScaled(t *testing.T) {
	interval := sim.Second
	a, err := ParsePlan("churn:4", 20, 1000, interval, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ParsePlan("churn:4", 20, 1000, interval, 7)
	if fmt.Sprint(a.Faults) != fmt.Sprint(b.Faults) {
		t.Error("same churn spec and seed produced different plans")
	}
	c, _ := ParsePlan("churn:4", 20, 1000, interval, 8)
	if fmt.Sprint(a.Faults) == fmt.Sprint(c.Faults) {
		t.Error("different seeds produced identical churn plans")
	}
	// ~4 per 100 ticks over 1000 ticks => ~40 events; assert the order of
	// magnitude, not the exact draw.
	if n := len(a.Faults); n < 15 || n > 80 {
		t.Errorf("churn:4 over 1000 ticks produced %d faults, want ~40", n)
	}
	for i := 1; i < len(a.Faults); i++ {
		if a.Faults[i].At < a.Faults[i-1].At {
			t.Fatal("churn plan not sorted by crash time")
		}
	}
}

// TestNoFaultRunMatchesDissemination pins the layer attached under an
// empty plan and no durability: it still runs every node's heartbeat and
// watchdog (the durability-only route of core depends on the layer being
// live; 20486 events and 8400 heartbeats are what the separate resilient
// runner executed on this fixture before the loops were unified), it
// injects nothing, and the run underneath is exactly dissemination.Run —
// the same per-repository fidelity report and work counters, under the
// default delay model and with delays switched off.
func TestNoFaultRunMatchesDissemination(t *testing.T) {
	for _, comp := range []sim.Time{0, -1} {
		push := dissemination.Config{CompDelay: comp}
		o1, _, traces := fixture(t, 20, 10, 4, 400, 3)
		base, err := dissemination.Run(o1, traces, dissemination.NewDistributed(), push)
		if err != nil {
			t.Fatal(err)
		}
		o2, l2, traces2 := fixture(t, 20, 10, 4, 400, 3)
		res, err := Run(o2, l2, traces2, dissemination.NewDistributed(), Config{Push: push}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range base.Report.Repositories() {
			want, _ := base.Report.RepoFidelity(id)
			if got, _ := res.Report.RepoFidelity(id); got != want {
				t.Errorf("comp %v: repository %d fidelity %v under the idle layer, %v without it", comp, id, got, want)
			}
		}
		got, want := res.Stats, base.Stats
		got.Events = want.Events // the layer's own events are checked below
		if got != want {
			t.Errorf("comp %v: idle layer changed the run's work: %+v vs %+v", comp, got, want)
		}
		if res.Protocol != base.Protocol {
			t.Errorf("protocol %q under an empty plan, want %q", res.Protocol, base.Protocol)
		}
		if r := res.Resilience; r.Crashes != 0 || r.Detections != 0 || r.Rehomed != 0 || r.ChildDrops != 0 {
			t.Errorf("fault-free run performed repairs: %+v", r)
		}
		if comp == 0 && (res.Stats.Events != 20486 || res.Resilience.Heartbeats != 8400) {
			t.Errorf("idle layer ran %d events, %d heartbeats; want 20486 and 8400",
				res.Stats.Events, res.Resilience.Heartbeats)
		}
	}
}

// TestInteriorCrashRecovers is the PR's acceptance scenario: a single
// interior-node crash is injected; dependents must re-home within the
// detection window and post-repair fidelity must land within 5% of the
// fault-free run.
func TestInteriorCrashRecovers(t *testing.T) {
	const seed = 4
	run := func(spec string) *Result {
		o, l, traces := fixture(t, 20, 10, 4, 600, seed)
		plan, err := ParsePlan(spec, 20, 600, sim.Second, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(o, l, traces, dissemination.NewDistributed(), Config{}, plan)
		if err != nil {
			t.Fatal(err)
		}
		if spec != "" {
			if err := o.Validate(); err != nil {
				t.Fatalf("overlay invalid after repair: %v", err)
			}
		}
		return res
	}

	noFault := run("")
	faulty := run("crash:max@50")

	if faulty.Resilience.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", faulty.Resilience.Crashes)
	}
	if faulty.Resilience.Detections == 0 || faulty.Resilience.Rehomed == 0 {
		t.Fatalf("no detection/repair happened: %+v", faulty.Resilience)
	}
	cfg := Config{}.WithDefaults()
	// Recovery is measured crash-to-re-home per feed; with no orphaned
	// feeds every dependent must land on a backup within one silence
	// window plus at most one watchdog period and heartbeat skew.
	if faulty.Resilience.Orphaned != 0 {
		t.Errorf("%d feeds orphaned; re-homing must succeed in this fixture", faulty.Resilience.Orphaned)
	}
	bound := cfg.Window() + 2*cfg.Heartbeat
	if faulty.Resilience.MaxRecovery > bound {
		t.Errorf("max recovery %v exceeds detection bound %v", faulty.Resilience.MaxRecovery, bound)
	}
	if faulty.Resilience.MeanRecovery <= 0 {
		t.Error("mean recovery not measured")
	}
	if got, want := faulty.Report.SystemFidelity(), noFault.Report.SystemFidelity(); got < want-0.05 {
		t.Errorf("faulty fidelity %.4f more than 5%% below fault-free %.4f", got, want)
	}
}

func TestCrashRejoinRestoresFeeds(t *testing.T) {
	o, l, traces := fixture(t, 20, 10, 4, 600, 5)
	plan, err := ParsePlan("crash:max@50+120", 20, 600, sim.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	victim := busiestInterior(o)
	res, err := Run(o, l, traces, dissemination.NewDistributed(), Config{}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resilience.Rejoins != 1 {
		t.Fatalf("rejoins = %d, want 1", res.Resilience.Rejoins)
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("overlay invalid after rejoin: %v", err)
	}
	// The rejoined node serves again: every item it holds has a live feed.
	q := o.Node(victim)
	for _, x := range q.Items() {
		if _, ok := q.Parents[x]; !ok {
			t.Errorf("rejoined node %d holds %s with no parent", victim, x)
		}
	}
}

func TestChurnRunStaysDeterministic(t *testing.T) {
	run := func() (float64, Stats) {
		o, l, traces := fixture(t, 16, 8, 3, 400, 6)
		plan, err := ParsePlan("churn:3:30", 16, 400, sim.Second, 6)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(o, l, traces, dissemination.NewDistributed(), Config{}, plan)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.SystemFidelity(), res.Resilience
	}
	f1, s1 := run()
	f2, s2 := run()
	if f1 != f2 || s1 != s2 {
		t.Errorf("two identical churn runs diverged: %.6f/%+v vs %.6f/%+v", f1, s1, f2, s2)
	}
	if s1.Crashes == 0 {
		t.Error("churn plan injected no crashes")
	}
}

// TestRehomeSyncResetsEdgeFilterState pins the repair/protocol contract:
// after a re-home sync, the Distributed filter must compare against the
// synced value, not the edge's pre-crash history — otherwise a value
// drifting back toward the old last-sent would be withheld from the
// re-homed dependent.
func TestRehomeSyncResetsEdgeFilterState(t *testing.T) {
	net := netsim.Uniform(1, 0)
	a := repository.New(1, 1)
	a.Needs["X"], a.Serving["X"] = 10, 10
	o, err := (&tree.LeLA{}).Build(net, []*repository.Repository{a}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := dissemination.NewDistributed()
	d.Init(o, map[string]float64{"X": 100})

	if fwd, _ := d.AtSource("X", 150); len(fwd) != 1 {
		t.Fatalf("first violating update not forwarded: %v", fwd)
	}
	// Repair syncs the dependent to 90; the edge state must follow.
	d.ResetEdge(repository.SourceID, 1, "X", 90)
	// 152 is within tolerance of the stale last-sent (150) but far from
	// the synced 90 — it must be forwarded.
	if fwd, _ := d.AtSource("X", 152); len(fwd) != 1 {
		t.Fatal("update withheld against stale pre-reset edge state")
	}
}

// TestIdleLayerAllocBudget pins that the layer's periodic events —
// heartbeat, watchdog, heartbeat arrival, most of an idle-layer run — are
// typed events over a reused neighbour buffer: a whole fault-free run,
// set-up included, allocates well under one object per event (closures
// and fresh neighbour lists per beat cost about three).
func TestIdleLayerAllocBudget(t *testing.T) {
	o, l, traces := fixture(t, 20, 10, 4, 400, 3)
	var events uint64
	allocs := testing.AllocsPerRun(3, func() {
		res, err := Run(o, l, traces, dissemination.NewDistributed(), Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		events = res.Stats.Events
	})
	if perEvent := allocs / float64(events); perEvent >= 0.2 {
		t.Errorf("idle-layer run: %.0f allocations over %d events (%.2f per event), want < 0.2", allocs, events, perEvent)
	} else {
		t.Logf("idle-layer run: %.0f allocations over %d events (%.3f per event)", allocs, events, perEvent)
	}
}
