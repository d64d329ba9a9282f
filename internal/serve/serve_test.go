package serve

import (
	"fmt"
	"reflect"
	"testing"

	"d3t/internal/coherency"
	"d3t/internal/netsim"
	"d3t/internal/repository"
	"d3t/internal/resilience"
	"d3t/internal/sim"
)

// attach admits one client and returns its read-only view.
func attach(t testing.TB, f *Fleet, c *repository.Client) Session {
	t.Helper()
	if err := f.AttachAll([]*repository.Client{c}); err != nil {
		t.Fatal(err)
	}
	s, ok := f.Session(c.Name)
	if !ok {
		t.Fatalf("no view for attached client %q", c.Name)
	}
	return s
}

func client(name string, home repository.ID, wants map[string]coherency.Requirement) *repository.Client {
	return &repository.Client{Name: name, Repo: home, Wants: wants}
}

func TestPlacementCapOverflowRedirects(t *testing.T) {
	net := netsim.Uniform(3, sim.Millisecond)
	repos := population(3, []string{"X"}, 0.5)
	f, err := NewFleet(net, repos, Options{Cap: 1})
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string]coherency.Requirement{"X": 0.5}
	// Two clients homed at repository 1: the first takes it, the second
	// must overflow to the next candidate (id 2) and count a redirect.
	a := attach(t, f, client("a", 1, wants))
	b := attach(t, f, client("b", 1, map[string]coherency.Requirement{"X": 0.5}))
	if a.Repo() != 1 || a.Redirected() {
		t.Errorf("first client placed at %d (redirected=%v), want its home 1", a.Repo(), a.Redirected())
	}
	if b.Repo() != 2 || !b.Redirected() {
		t.Errorf("overflow client placed at %d (redirected=%v), want redirect to 2", b.Repo(), b.Redirected())
	}
	if st := f.Finalize(0); st.Redirects != 1 {
		t.Errorf("redirects = %d, want 1", st.Redirects)
	}
}

func TestPlacementAllFullFallsBackToLeastLoaded(t *testing.T) {
	net := netsim.Uniform(2, sim.Millisecond)
	repos := population(2, []string{"X"}, 0.5)
	f, err := NewFleet(net, repos, Options{Cap: 1})
	if err != nil {
		t.Fatal(err)
	}
	wants := func() map[string]coherency.Requirement {
		return map[string]coherency.Requirement{"X": 0.5}
	}
	for i := 0; i < 2; i++ {
		attach(t, f, client(fmt.Sprintf("c%d", i), 1, wants()))
	}
	// Both repositories at cap: the third client must still be placed.
	s := attach(t, f, client("c2", 1, wants()))
	if s.Repo() == repository.NoID {
		t.Fatal("overflow client left unplaced")
	}
}

// TestFilteredFanOut is the subsystem's core behavior: attach, update,
// and check that only updates exceeding the client's own tolerance reach
// the session, while the meter integrates the observed coherency.
func TestFilteredFanOut(t *testing.T) {
	net := netsim.Uniform(1, sim.Millisecond)
	repos := population(1, []string{"X"}, 0.1)
	f, err := NewFleet(net, repos, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := attach(t, f, client("a", 1, map[string]coherency.Requirement{"X": 1.0}))
	f.Seed(map[string]float64{"X": 100})

	// The repository (tolerance 0.1) receives every small move; the
	// client (tolerance 1.0) must see only the large one.
	f.ObserveSource(sim.Second, "X", 100.5)
	f.ObserveDeliver(sim.Second, 1, "X", 100.5) // |Δ|=0.5 ≤ 1 → filtered
	f.ObserveSource(2*sim.Second, "X", 102)
	f.ObserveDeliver(2*sim.Second, 1, "X", 102) // |Δ|=2 > 1 → delivered

	if v, _ := s.Value("X"); v != 102 {
		t.Errorf("session copy %v, want 102 after the violating update", v)
	}
	if st := f.Finalize(2 * sim.Second); st.Delivered != 1 || st.Filtered != 1 {
		t.Errorf("delivered/filtered = %d/%d, want 1/1", st.Delivered, st.Filtered)
	}
	// Coherency timeline at tolerance 1.0: in tolerance on [0,2s) (the
	// 0.5 move never violates), violated nowhere — the source jump to 102
	// at 2s is repaired in the same instant. Fidelity must be exactly 1.
	if fid := s.Fidelity(4 * sim.Second); fid != 1 {
		t.Errorf("fidelity %v, want 1", fid)
	}
}

// TestFidelityIntegratesViolations pins the meter arithmetic: a source
// move the client never receives accrues violation time until the next
// delivery.
func TestFidelityIntegratesViolations(t *testing.T) {
	net := netsim.Uniform(1, sim.Millisecond)
	repos := population(1, []string{"X"}, 0.1)
	f, _ := NewFleet(net, repos, Options{})
	s := attach(t, f, client("a", 1, map[string]coherency.Requirement{"X": 1.0}))
	f.Seed(map[string]float64{"X": 100})

	// Source jumps out of tolerance at 2s; the repair arrives at 6s.
	f.ObserveSource(2*sim.Second, "X", 105)
	f.ObserveDeliver(6*sim.Second, 1, "X", 105)
	// Violated on [2s,6s) of a 10s horizon: fidelity 0.6.
	if fid := s.Fidelity(10 * sim.Second); fid != 0.6 {
		t.Errorf("fidelity %v, want 0.6", fid)
	}
}

func TestSessionChurnPlanDeterminism(t *testing.T) {
	a, err := resilience.ParsePlan("churn:10:20", 50, 400, sim.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := resilience.ParsePlan("churn:10:20", 50, 400, sim.Second, 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("same spec and seed produced different session plans")
	}
	if len(a.Faults) == 0 {
		t.Fatal("churn plan scheduled no departures")
	}
	for _, ft := range a.Faults {
		if ft.Node < 1 || int(ft.Node) > 50 {
			t.Errorf("departure targets session %d outside 1..50", ft.Node)
		}
	}
}

func TestChurnDepartureStopsObservation(t *testing.T) {
	plan, err := resilience.ParsePlan("crash:1@5+5", 1, 20, sim.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.Uniform(1, sim.Millisecond)
	repos := population(1, []string{"X"}, 0.1)
	f, _ := NewFleet(net, repos, Options{Plan: plan})
	s := attach(t, f, client("a", 1, map[string]coherency.Requirement{"X": 1.0}))
	f.Seed(map[string]float64{"X": 100})

	// The source jumps at 1s and the repository relays it immediately
	// (|105−100| > 1 → delivered to the client in the same instant). The
	// client departs at 5s and returns at 10s; the return resync finds it
	// already holding the repository's copy.
	f.ObserveSource(sim.Second, "X", 105)
	f.ObserveDeliver(sim.Second, 1, "X", 105)
	st := f.Finalize(20 * sim.Second)
	if st.Departures != 1 || st.Arrivals != 1 {
		t.Errorf("departures/arrivals = %d/%d, want 1/1", st.Departures, st.Arrivals)
	}
	if s.Repo() == repository.NoID {
		t.Error("session not re-attached after its churn cycle")
	}
	if fid := s.Fidelity(20 * sim.Second); fid != 1 {
		t.Errorf("fidelity %v, want 1 (delivered before departure, resynced on return)", fid)
	}
}

func TestCrashMigratesWithResync(t *testing.T) {
	net := netsim.Uniform(2, sim.Millisecond)
	repos := population(2, []string{"X"}, 0.1)
	f, _ := NewFleet(net, repos, Options{})
	s := attach(t, f, client("a", 1, map[string]coherency.Requirement{"X": 1.0}))
	f.Seed(map[string]float64{"X": 100})

	// Repository 2 converges to 105; repository 1 (the session's) dies
	// before relaying it.
	f.ObserveSource(sim.Second, "X", 105)
	f.ObserveDeliver(sim.Second, 2, "X", 105)
	f.ObserveCrash(2*sim.Second, 1)

	if s.Repo() != 2 {
		t.Fatalf("session on repository %d after crash, want migration to 2", s.Repo())
	}
	if v, _ := s.Value("X"); v != 105 {
		t.Errorf("session copy %v after migration resync, want 105", v)
	}
	st := f.Finalize(4 * sim.Second)
	if st.Migrations != 1 {
		t.Errorf("migrations = %d, want 1", st.Migrations)
	}
	if st.Resyncs != 1 {
		t.Errorf("resyncs = %d, want 1", st.Resyncs)
	}
}

func TestCrashWithNoRoomOrphansThenRejoinRecovers(t *testing.T) {
	net := netsim.Uniform(2, sim.Millisecond)
	repos := population(2, []string{"X"}, 0.1)
	f, _ := NewFleet(net, repos, Options{Cap: 1})
	a := attach(t, f, client("a", 1, map[string]coherency.Requirement{"X": 0.5}))
	attach(t, f, client("b", 2, map[string]coherency.Requirement{"X": 0.5}))
	f.Seed(map[string]float64{"X": 100})

	// Repository 1 dies; repository 2 is at cap — session a is orphaned.
	f.ObserveCrash(sim.Second, 1)
	if a.Repo() != repository.NoID {
		t.Fatal("session attached despite every live repository being full")
	}
	// Repository 1 rejoins; the orphan re-homes onto it.
	f.ObserveRejoin(3*sim.Second, 1)
	if a.Repo() != 1 {
		t.Fatalf("orphan on repository %d after rejoin, want 1", a.Repo())
	}
	st := f.Finalize(5 * sim.Second)
	if st.Orphaned != 1 || st.Migrations != 1 {
		t.Errorf("orphaned/migrations = %d/%d, want 1/1", st.Orphaned, st.Migrations)
	}
}

func TestMigrationPrefersServingCapableRepository(t *testing.T) {
	net := netsim.Uniform(3, sim.Millisecond)
	repos := population(3, []string{"X"}, 0.1)
	// Repository 2 (the nearest alternative by id order) serves X too
	// loosely for the client; repository 3 serves it stringently.
	repos[1].Serving["X"] = 2.0
	f, _ := NewFleet(net, repos, Options{})
	s := attach(t, f, client("a", 1, map[string]coherency.Requirement{"X": 0.5}))
	f.Seed(map[string]float64{"X": 100})
	f.ObserveCrash(sim.Second, 1)
	if s.Repo() != 3 {
		t.Errorf("migrated to repository %d, want 3 (the one serving X at the client's tolerance)", s.Repo())
	}
}

func TestFleetDeterminism(t *testing.T) {
	run := func() Stats {
		items := []string{"X", "Y", "Z"}
		net := netsim.Uniform(4, sim.Millisecond)
		repos := make([]*repository.Repository, 4)
		for i := range repos {
			repos[i] = repository.New(repository.ID(i+1), 4)
			for _, x := range items {
				repos[i].Needs[x], repos[i].Serving[x] = 0.1, 0.1
			}
		}
		clients, err := repository.GenerateClients(repository.ClientWorkload{
			Clients: 24, Repos: []repository.ID{1, 2, 3, 4}, Items: items,
			ItemsPerClient: 2, StringentFrac: 0.5, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := resilience.ParsePlan("churn:20:10", len(clients), 100, sim.Second, 9)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFleet(net, repos, Options{Cap: 8, Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AttachAll(clients); err != nil {
			t.Fatal(err)
		}
		f.Seed(map[string]float64{"X": 100, "Y": 50, "Z": 10})
		for i := 1; i <= 100; i++ {
			v := 100 + float64(i%7)
			f.ObserveSource(sim.Time(i)*sim.Second, "X", v)
			f.ObserveDeliver(sim.Time(i)*sim.Second+sim.Millisecond, repository.ID(1+i%4), "X", v)
		}
		return f.Finalize(100 * sim.Second)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Departures == 0 {
		t.Error("churn plan executed no departures")
	}
}
