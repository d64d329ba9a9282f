package resilience

import (
	"math"
	"path/filepath"
	"testing"

	"d3t/internal/dissemination"
	"d3t/internal/repository"
	"d3t/internal/sim"
	"d3t/internal/wal"
)

// lastSeen records, per (repo, item), the last delivered value — the
// ground truth a killed repository's disk state must reproduce.
type lastSeen struct {
	until  sim.Time
	values map[repository.ID]map[string]float64
}

func (o *lastSeen) ObserveSource(sim.Time, string, float64) {}
func (o *lastSeen) ObserveCrash(sim.Time, repository.ID)    {}
func (o *lastSeen) ObserveRejoin(sim.Time, repository.ID)   {}
func (o *lastSeen) ObserveDeliver(now sim.Time, id repository.ID, item string, v float64) {
	if o.until > 0 && now > o.until {
		return
	}
	m := o.values[id]
	if m == nil {
		m = make(map[string]float64)
		o.values[id] = m
	}
	m[item] = v
}

func newLastSeen(until sim.Time) *lastSeen {
	return &lastSeen{until: until, values: make(map[repository.ID]map[string]float64)}
}

// TestKillRecoverFromDisk is the tentpole scenario at the simulator
// level: an interior node is killed (process death, all in-memory state
// lost) and recovers from its write-ahead log. The run must count the
// kill and the disk recovery, replay records, charge the modeled replay
// delay, and end with fidelity comparable to a plain crash-and-rejoin.
func TestKillRecoverFromDisk(t *testing.T) {
	run := func(spec string, dur *wal.Options) *Result {
		o, l, traces := fixture(t, 20, 10, 4, 600, 5)
		plan, err := ParsePlan(spec, 20, 600, sim.Second, 5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(o, l, traces, dissemination.NewDistributed(), Config{Durability: dur}, plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("overlay invalid after recovery: %v", err)
		}
		return res
	}

	warm := run("crash:max@50+120", nil)
	recovered := run("kill:max@50+120", &wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyNever})

	s := recovered.Resilience
	if s.Kills != 1 || s.Crashes != 1 {
		t.Fatalf("kills=%d crashes=%d, want 1/1", s.Kills, s.Crashes)
	}
	if s.DiskRecoveries != 1 {
		t.Fatalf("disk recoveries = %d, want 1", s.DiskRecoveries)
	}
	if s.ReplayedRecords == 0 {
		t.Fatal("recovery replayed no records; the victim's deliveries were not logged")
	}
	if s.ReplayTime <= 0 || s.MeanReplay <= 0 {
		t.Fatalf("replay time not charged: total=%v mean=%v", s.ReplayTime, s.MeanReplay)
	}
	if s.Rejoins != 1 {
		t.Fatalf("rejoins = %d, want 1", s.Rejoins)
	}
	if got, base := recovered.Report.SystemFidelity(), warm.Report.SystemFidelity(); got < base-0.05 {
		t.Errorf("recovered-from-disk fidelity %.4f more than 5%% below warm-restart %.4f", got, base)
	}
}

// TestKillWithoutDurabilityRejoinsCold is the bug's counterfactual: the
// same process death without a log recovers nothing from disk — the node
// rejoins with an empty store and only converges through re-home syncs.
func TestKillWithoutDurabilityRejoinsCold(t *testing.T) {
	o, l, traces := fixture(t, 20, 10, 4, 600, 5)
	plan, err := ParsePlan("kill:max@50+120", 20, 600, sim.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(o, l, traces, dissemination.NewDistributed(), Config{}, plan)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Resilience
	if s.Kills != 1 || s.Rejoins != 1 {
		t.Fatalf("kills=%d rejoins=%d, want 1/1", s.Kills, s.Rejoins)
	}
	if s.DiskRecoveries != 0 || s.ReplayedRecords != 0 {
		t.Fatalf("cold kill recovered from disk: %+v", s)
	}
}

// TestKilledNodeDiskStateBitIdentical pins the acceptance criterion
// end-to-end: kill a node with no rejoin, then open its log directory
// the way recovery would and compare — every per-item value recovered
// from disk is bit-identical to the last value the pre-crash process
// received, and the snapshot's edge state round-trips exactly.
func TestKilledNodeDiskStateBitIdentical(t *testing.T) {
	const crashTick = 80
	dir := t.TempDir()
	o, l, traces := fixture(t, 20, 10, 4, 600, 5)
	victim := busiestInterior(o)
	plan, err := ParsePlan("kill:max@80", 20, 600, sim.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	obs := newLastSeen(crashTick * sim.Second)
	// A small snapshot interval so the disk state crosses at least one
	// snapshot+replay boundary, not just a flat log.
	dur := &wal.Options{Dir: dir, SnapshotEvery: 8, Fsync: wal.PolicyNever}
	if _, err := Run(o, l, traces, dissemination.NewDistributed(), Config{Push: dissemination.Config{Observer: obs}, Durability: dur}, plan); err != nil {
		t.Fatal(err)
	}

	want := obs.values[victim]
	if len(want) == 0 {
		t.Fatalf("victim %d received nothing before the kill", victim)
	}
	_, rec, err := wal.Open(filepath.Join(dir, "repo"+threeDigits(victim)), *dur)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]float64, len(rec.State.Values))
	for x, v := range rec.State.Values {
		got[x] = v
	}
	for _, b := range rec.Batches {
		for _, u := range b {
			got[u.Item] = u.Value
		}
	}
	for x, w := range want {
		g, ok := got[x]
		if !ok {
			t.Fatalf("item %s missing from disk state", x)
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("item %s: recovered %x, pre-crash %x — not bit-identical", x, math.Float64bits(g), math.Float64bits(w))
		}
	}
	// Items on disk the observer never saw delivered must sit at their
	// seeded initial values (the run starts fully synchronized).
	initial := make(map[string]float64, len(traces))
	for _, tr := range traces {
		initial[tr.Item] = tr.Ticks[0].Value
	}
	for x, g := range got {
		if _, delivered := want[x]; delivered {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(initial[x]) {
			t.Fatalf("undelivered item %s recovered as %g, want its initial %g", x, g, initial[x])
		}
	}
	if rec.SnapshotSeq < 2 {
		t.Fatalf("snapshot never rotated (seq %d); the boundary went untested", rec.SnapshotSeq)
	}
}

func threeDigits(id repository.ID) string {
	d := []byte{'0', '0', '0'}
	for i, n := 2, int(id); i >= 0 && n > 0; i, n = i-1, n/10 {
		d[i] = byte('0' + n%10)
	}
	return string(d)
}

// TestKillDuringBackupRepair: a second process death lands while the
// first victim's dependents are still mid-repair (inside the detection
// window), so some re-homing attempts race a dying backup. The run must
// complete, recover both from disk, and leave a valid overlay.
func TestKillDuringBackupRepair(t *testing.T) {
	o, l, traces := fixture(t, 20, 10, 4, 600, 5)
	victim := busiestInterior(o)
	// Second victim: the first live backup the victim's dependents would
	// try, killed one heartbeat after the first death — inside the
	// silence window, while repairs are in flight.
	second := repository.ID(1)
	if second == victim {
		second = 2
	}
	plan := &Plan{Spec: "staggered-kills", Faults: []Fault{
		{Node: victim, At: 50 * sim.Second, RejoinAt: 170 * sim.Second, Kill: true},
		{Node: second, At: 53 * sim.Second, RejoinAt: 180 * sim.Second, Kill: true},
	}}
	res, err := Run(o, l, traces, dissemination.NewDistributed(),
		Config{Durability: &wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyNever}}, plan)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Resilience
	if s.Kills != 2 || s.DiskRecoveries != 2 {
		t.Fatalf("kills=%d diskRecoveries=%d, want 2/2", s.Kills, s.DiskRecoveries)
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("overlay invalid after overlapping kill/repair: %v", err)
	}
}

// TestFullClusterRestart: a second run over the same log directory is a
// full-cluster restart — every repository must restore its previous
// run's state from disk at startup, all replaying concurrently with the
// run's construction (the -race matrix covers this file).
func TestFullClusterRestart(t *testing.T) {
	dir := t.TempDir()
	dur := &wal.Options{Dir: dir, SnapshotEvery: 16, Fsync: wal.PolicyNever}
	first, l1, traces := fixture(t, 20, 10, 4, 400, 7)
	res1, err := Run(first, l1, traces, dissemination.NewDistributed(), Config{Durability: dur}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Resilience.RestoredAtStart != 0 {
		t.Fatalf("fresh directory restored %d repositories", res1.Resilience.RestoredAtStart)
	}

	second, l2, traces2 := fixture(t, 20, 10, 4, 400, 7)
	res2, err := Run(second, l2, traces2, dissemination.NewDistributed(), Config{Durability: dur}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resilience.RestoredAtStart == 0 {
		t.Fatal("restart restored nothing from the previous run's logs")
	}
	if res2.Resilience.ReplayedRecords == 0 {
		t.Fatal("restart replayed no records")
	}
}

// TestDurabilityOffByteIdentical: the Durability field is inert when
// nil — same fidelity, same message count, same stats as a run without
// it (the goldens' guarantee at the runner level).
func TestDurabilityOffByteIdentical(t *testing.T) {
	run := func(dur *wal.Options) *Result {
		o, l, traces := fixture(t, 16, 8, 3, 400, 6)
		plan, err := ParsePlan("crash:max@50+100", 16, 400, sim.Second, 6)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(o, l, traces, dissemination.NewDistributed(), Config{Durability: dur}, plan)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	logged := run(&wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyNever})
	if plain.Report.SystemFidelity() != logged.Report.SystemFidelity() {
		t.Error("durability changed fidelity")
	}
	if plain.Stats.Messages != logged.Stats.Messages {
		t.Error("durability changed message count")
	}
	if plain.Resilience.Rehomed != logged.Resilience.Rehomed {
		t.Error("durability changed repair behavior")
	}
}
