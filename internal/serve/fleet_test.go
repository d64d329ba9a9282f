package serve

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"d3t/internal/coherency"
	"d3t/internal/netsim"
	"d3t/internal/query"
	"d3t/internal/repository"
	"d3t/internal/resilience"
	"d3t/internal/sim"
	"d3t/internal/trace"
)

// population builds n repositories serving every item at tol.
func population(n int, items []string, tol coherency.Requirement) []*repository.Repository {
	repos := make([]*repository.Repository, n)
	for i := range repos {
		repos[i] = repository.New(repository.ID(i+1), 4)
		for _, x := range items {
			repos[i].Needs[x] = tol
			repos[i].Serving[x] = tol
		}
	}
	return repos
}

// drive pushes an identical update/churn/crash schedule through any
// fleet that implements the run observers.
type runObserver interface {
	ObserveSource(now sim.Time, item string, v float64)
	ObserveDeliver(now sim.Time, repo repository.ID, item string, v float64)
	ObserveCrash(now sim.Time, id repository.ID)
	ObserveRejoin(now sim.Time, id repository.ID)
}

func drive(f runObserver, repos int) {
	items := []string{"X", "Y", "Z"}
	for i := 1; i <= 100; i++ {
		now := sim.Time(i) * sim.Second
		x := items[i%3]
		v := 100 + 0.07*float64(i)
		f.ObserveSource(now, x, v)
		for r := 1; r <= repos; r++ {
			if (i+r)%2 == 0 {
				f.ObserveDeliver(now+sim.Millisecond, repository.ID(r), x, v)
			}
		}
		if i == 40 {
			f.ObserveCrash(now+2*sim.Millisecond, 2)
		}
		if i == 70 {
			f.ObserveRejoin(now+2*sim.Millisecond, 2)
		}
	}
}

// TestQueriesIndependentOfPopulation: query input sessions live in their
// own shard, so the same delivery schedule — churn-free, with a crash
// and a rejoin — yields the same per-query outcome whether the queries
// are alone in the store or share it with 10 000 synthetic sessions.
func TestQueriesIndependentOfPopulation(t *testing.T) {
	items := []string{"X", "Y", "Z"}
	queries, err := query.ParseList([]string{"avg(w=3;X,Y,Z)@0.3", "diff(X,Y)>0@0.2!client", "max(Y,Z)@0.1"})
	if err != nil {
		t.Fatal(err)
	}
	run := func(sessions int) QueryStats {
		f, err := NewFleet(netsim.Uniform(4, sim.Millisecond), population(4, items, 0.05), Options{Queries: queries, Interval: sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		if sessions > 0 {
			if err := f.Populate(Synthetic{Sessions: sessions, Items: items, ItemsPerClient: 2, StringentFrac: 0.5, Seed: 8}); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.AttachQueries(); err != nil {
			t.Fatal(err)
		}
		f.Seed(map[string]float64{"X": 100, "Y": 50, "Z": 10})
		drive(f, 4)
		if st := f.Finalize(100 * sim.Second); st.Sessions != sessions {
			t.Fatalf("population %d, want %d (query sessions are not clients)", st.Sessions, sessions)
		}
		return f.FinalizeQueries(100 * sim.Second)
	}
	alone, shared := run(0), run(10000)
	if !reflect.DeepEqual(alone, shared) {
		t.Errorf("query outcomes depend on the co-resident population:\nalone:  %+v\nshared: %+v", alone, shared)
	}
	if alone.Evals == 0 || alone.Recomputes == 0 || alone.ResultPushes == 0 || alone.Resyncs == 0 {
		t.Fatalf("query run exercised too little: %+v", alone)
	}
}

// TestAdmissionRejects is the admission error table. A watch list longer
// than the 16-bit extent must be refused before anything is appended:
// the session admitted after it still gets its own watches.
func TestAdmissionRejects(t *testing.T) {
	catalogue := make([]string, maxWatch+1)
	wide := make(map[string]coherency.Requirement, len(catalogue))
	for i := range catalogue {
		catalogue[i] = fmt.Sprintf("I%05d", i)
		wide[catalogue[i]] = 0.5
	}
	one := func(c *repository.Client) func(*Fleet) error {
		return func(f *Fleet) error { return f.AttachAll([]*repository.Client{c}) }
	}
	x := map[string]coherency.Requirement{"X": 0.5}
	for _, tc := range []struct {
		name  string
		admit func(*Fleet) error
		want  string
	}{
		{"unknown-home", one(client("a", 9, x)), "unknown repository"},
		{"duplicate", one(client("first", 1, x)), "duplicate session"},
		{"no-wants", one(client("a", 1, nil)), "wants nothing"},
		{"wide-client", one(client("a", 1, wide)), "more than the 65535"},
		{"wide-synthetic", func(f *Fleet) error {
			return f.Populate(Synthetic{Sessions: 1, Items: catalogue, ItemsPerClient: maxWatch})
		}, "more than the 65535"},
	} {
		f, err := NewFleet(netsim.Uniform(2, sim.Millisecond), population(2, []string{"X"}, 0.1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		attach(t, f, client("first", 1, x))
		if err := tc.admit(f); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
		next := attach(t, f, client("next", 1, map[string]coherency.Requirement{"X": 0.5}))
		f.Seed(map[string]float64{"X": 7})
		if v, ok := next.Value("X"); !ok || v != 7 {
			t.Errorf("%s: session admitted after the rejection holds X = %v (watched %v), want 7", tc.name, v, ok)
		}
		if st := f.Finalize(0); st.Sessions != 2 {
			t.Errorf("%s: %d sessions in the store, want 2", tc.name, st.Sessions)
		}
	}
}

// TestVirtualPlacementIsIndexed pins the O(k) admission contract end to
// end: admitting a large population builds at most one candidate order
// per home endpoint and enumerates ~one candidate per admission while
// the nearest repository has room.
func TestVirtualPlacementIsIndexed(t *testing.T) {
	const nRepos = 16
	items := []string{"X"}
	vf, err := NewFleet(netsim.Uniform(nRepos, sim.Millisecond), population(nRepos, items, 0.05), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := vf.Populate(Synthetic{Sessions: 5000, Items: items, ItemsPerClient: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if b := vf.Index().Builds(); b > nRepos {
		t.Errorf("placement built %d candidate orders, want at most one per home (%d)", b, nRepos)
	}
	if w := vf.Index().Walked(); w != 5000 {
		t.Errorf("placement walked %d candidates over 5000 uncapped admissions, want exactly one each", w)
	}
}

// TestVirtualDeliverAllocFree: steady-state delivery in the virtual
// fleet allocates 0 B/update.
func TestVirtualDeliverAllocFree(t *testing.T) {
	items := []string{"X", "Y", "Z"}
	vf, err := NewFleet(netsim.Uniform(4, sim.Millisecond), population(4, items, 0.05), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := vf.Populate(Synthetic{Sessions: 2000, Items: items, ItemsPerClient: 2, StringentFrac: 0.5, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	vf.Seed(map[string]float64{"X": 100, "Y": 50, "Z": 10})
	now := sim.Second
	v := 100.0
	allocs := testing.AllocsPerRun(200, func() {
		now += sim.Second
		v += 0.3
		vf.ObserveSource(now, "X", v)
		vf.ObserveDeliver(now, 1, "X", v)
		vf.ObserveDeliver(now, 2, "X", v)
	})
	if allocs != 0 {
		t.Errorf("steady-state source+deliver allocates %.1f objects/update, want 0", allocs)
	}
}

// TestVirtualSessionBytes enforces the per-session memory ceiling: the
// resident session-state footprint must stay under 512 bytes per
// admitted session at the default watch-list size.
func TestVirtualSessionBytes(t *testing.T) {
	items := make([]string, 32)
	for i := range items {
		items[i] = "item" + string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	vf, err := NewFleet(netsim.Uniform(8, sim.Millisecond), population(8, items, 0.05), Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50000
	if err := vf.Populate(Synthetic{Sessions: n, Items: items, ItemsPerClient: 3, StringentFrac: 0.3, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	per := float64(vf.Footprint()) / n
	if per > 512 {
		t.Errorf("%.0f bytes/session, want <= 512", per)
	}
	if per < 50 {
		t.Errorf("%.0f bytes/session is implausibly low — Footprint is under-counting", per)
	}
}

// TestVirtualOverflowRing: under cap pressure with the ring enabled,
// admission still places every session on a live repository with room,
// without degenerating to full linear walks.
func TestVirtualOverflowRing(t *testing.T) {
	const nRepos = 16
	items := []string{"X"}
	vf, err := NewFleet(netsim.Uniform(nRepos, sim.Millisecond), population(nRepos, items, 0.05),
		Options{Cap: 100, RingSlots: 16, RingAfter: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 1500 sessions, all homed wherever the generator puts them; cap 100
	// x 16 repos = 1600 slots, so the tail of every hot home's population
	// must overflow through the ring.
	if err := vf.Populate(Synthetic{Sessions: 1500, Items: items, ItemsPerClient: 1, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if got := vf.Attached(); got != 1500 {
		t.Fatalf("attached %d of 1500 under cap pressure", got)
	}
	for r := 1; r <= nRepos; r++ {
		if vf.Load(repository.ID(r)) > 100 {
			t.Fatalf("repo %d over cap: %d", r, vf.Load(repository.ID(r)))
		}
	}
	// The walk budget: every admission walks at most RingAfter nearest
	// candidates before the ring takes over.
	if w := vf.Index().Walked(); w > 1500*4 {
		t.Errorf("walked %d candidates, want <= RingAfter per admission (%d)", w, 1500*4)
	}
}

// TestVirtualFlashScenario runs a flash crowd end to end: the crowd is
// created detached, arrives in a Pareto burst on the hot item, and is
// admitted, metered and counted.
func TestVirtualFlashScenario(t *testing.T) {
	items := []string{"hot", "a", "b", "c"}
	spec, err := trace.ParseScenario("flash:at=0.3,frac=0.5,burst=0.2")
	if err != nil {
		t.Fatal(err)
	}
	const sessions, ticks = 400, 100
	plan, err := trace.BuildScenario(spec, sessions, 4, ticks, 5)
	if err != nil {
		t.Fatal(err)
	}
	vf, err := NewFleet(netsim.Uniform(4, sim.Millisecond), population(4, items, 0.05),
		Options{Scenario: plan, Interval: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := vf.Populate(Synthetic{Sessions: sessions, Items: items, ItemsPerClient: 2, StringentFrac: 0.5, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	if got := vf.Attached(); got != sessions/2 {
		t.Fatalf("attached %d before the burst, want the steady base %d", got, sessions/2)
	}
	vf.Seed(map[string]float64{"hot": 100, "a": 10, "b": 20, "c": 30})
	v := 100.0
	for i := 1; i <= ticks; i++ {
		now := sim.Time(i) * sim.Second
		v += 0.5
		vf.ObserveSource(now, "hot", v)
		for r := 1; r <= 4; r++ {
			vf.ObserveDeliver(now, repository.ID(r), "hot", v)
		}
	}
	st := vf.Finalize(ticks * sim.Second)
	if st.Arrivals != sessions/2 {
		t.Errorf("arrivals = %d, want the whole crowd (%d)", st.Arrivals, sessions/2)
	}
	if got := vf.Attached(); got != sessions {
		t.Errorf("attached %d after the burst, want %d", got, sessions)
	}
	if st.MeanFidelity <= 0 || st.MeanFidelity > 1 || math.IsNaN(st.MeanFidelity) {
		t.Errorf("mean fidelity %v out of range", st.MeanFidelity)
	}
	if st.Delivered == 0 {
		t.Error("flash crowd received no deliveries")
	}
}

// TestVirtualDeterminism: two identical runs produce identical stats.
func TestVirtualDeterminism(t *testing.T) {
	items := []string{"X", "Y", "Z"}
	run := func() Stats {
		plan, err := resilience.ParsePlan("churn:20:10", 80, 100, sim.Second, 9)
		if err != nil {
			t.Fatal(err)
		}
		vf, err := NewFleet(netsim.Uniform(4, sim.Millisecond), population(4, items, 0.05), Options{Cap: 30, Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		if err := vf.Populate(Synthetic{Sessions: 80, Items: items, ItemsPerClient: 2, StringentFrac: 0.5, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		vf.Seed(map[string]float64{"X": 100, "Y": 50, "Z": 10})
		drive(vf, 4)
		return vf.Finalize(100 * sim.Second)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Departures == 0 {
		t.Error("churn plan executed no departures")
	}
}

// BenchmarkVirtualAdmit measures synthetic admission throughput.
func BenchmarkVirtualAdmit(b *testing.B) {
	items := []string{"X", "Y", "Z", "W"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vf, err := NewFleet(netsim.Uniform(8, sim.Millisecond), population(8, items, 0.05), Options{Shards: 8})
		if err != nil {
			b.Fatal(err)
		}
		if err := vf.Populate(Synthetic{Sessions: 10000, Items: items, ItemsPerClient: 3, StringentFrac: 0.3, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(10000*float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
}

// BenchmarkVirtualDeliver measures steady-state fan-out over a large
// attached population.
func BenchmarkVirtualDeliver(b *testing.B) {
	items := []string{"X", "Y", "Z", "W"}
	vf, err := NewFleet(netsim.Uniform(8, sim.Millisecond), population(8, items, 0.05), Options{Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	if err := vf.Populate(Synthetic{Sessions: 100000, Items: items, ItemsPerClient: 3, StringentFrac: 0.3, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	vf.Seed(map[string]float64{"X": 100, "Y": 50, "Z": 10, "W": 5})
	now := sim.Second
	v := 100.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += sim.Second
		v += 0.4
		vf.ObserveSource(now, "X", v)
		for r := 1; r <= 8; r++ {
			vf.ObserveDeliver(now, repository.ID(r), "X", v)
		}
	}
}
